"""Numerical checks for the probabilistic identities behind the iteration.

Each check Monte Carlos (or finite-differences) a stated identity and
returns a CheckReport whose pass criterion is either a z-score gate
(|measured - predicted| <= z_threshold * stderr) or a stated absolute
tolerance.  The identities themselves are asymptotic; thresholds are
chosen so the checks are stable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .ensembles import normals, sample_goe, spectral_sqrt, stream
from .errors import NumericalError
from .nonlinearity import FD_STEP, Nonlinearity, fd_jacobian_trace


@dataclass
class CheckReport:
    check_id: str
    params: Dict[str, float]
    statistic: float
    predicted: float
    stderr: float
    z_threshold: float
    abs_tol: Optional[float] = None
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def z(self) -> float:
        if self.stderr <= 0.0:
            return 0.0 if self.statistic == self.predicted else np.inf
        return abs(self.statistic - self.predicted) / self.stderr

    @property
    def passed(self) -> bool:
        if self.abs_tol is not None:
            return abs(self.statistic - self.predicted) <= self.abs_tol
        return self.z <= self.z_threshold

    def row(self) -> Dict[str, object]:
        return {
            "check_id": self.check_id,
            "params": ";".join(f"{k}={v}" for k, v in sorted(self.params.items())),
            "statistic": self.statistic,
            "predicted": self.predicted,
            "stderr": self.stderr,
            "z": self.z,
            "pass": int(self.passed),
        }


def _sample_joint_pair(kappa, n, rng):
    # rows iid N(0, kappa) with kappa (2q x 2q); columns split into Z1, Z2
    q2 = kappa.shape[0]
    if q2 % 2 != 0 or kappa.shape != (q2, q2):
        raise ValueError("kappa must be square with even dimension 2q")
    q = q2 // 2
    root = spectral_sqrt(np.asarray(kappa, dtype=float), require_pd=False)
    W = normals(rng, (n, q2)) @ root.T
    return W[:, :q], W[:, q:]


def stein_check(f: Nonlinearity, kappa, n, M, rng, z_threshold=3.0) -> CheckReport:
    """Gaussian integration by parts for matrix variables.

    For (Z1, Z2) jointly N(0, kappa x I_n) row-wise,
        E[Z1^T f(Z2)] = kappa_12 (sum_k E[d f_k / d Z_k])^T.
    Both sides are estimated with M joint samples; the report statistic
    is the largest blockwise z-score of LHS - RHS.
    """
    kappa = np.asarray(kappa, dtype=float)
    q = kappa.shape[0] // 2
    k12 = kappa[:q, q:]
    diffs = np.empty((M, q, q))
    for m in range(M):
        Z1, Z2 = _sample_joint_pair(kappa, n, rng)
        lhs = Z1.T @ f.apply([Z2])
        J = f.jacobian_trace([Z2])
        diffs[m] = lhs - k12 @ J.T
    mean = diffs.mean(axis=0)
    sem = diffs.std(axis=0, ddof=1) / np.sqrt(M)
    zs = np.abs(mean) / np.maximum(sem, 1e-300)
    return CheckReport(
        check_id="stein",
        params={"n": n, "M": M, "q": q},
        statistic=float(zs.max()),
        predicted=0.0,
        stderr=1.0,
        z_threshold=z_threshold,
        details={"z_block": zs, "mean_block": mean, "sem_block": sem},
    )


def _normalized_columns(n, q, rng):
    U = normals(rng, (n, q))
    U *= np.sqrt(n) / np.linalg.norm(U, axis=0)
    return U


def goe_projection_checks(n, q, t_rank, M, rng, z_threshold=4.0) -> List[CheckReport]:
    """Concentration of GOE matrices against fixed directions.

    With A ~ GOE(n) and fixed U, V whose columns have norm sqrt(n),
    G = U^T U / n:
      (a) V^T A U / n -> 0,
      (b) |P A U|_F^2 / n -> 0 for any projector P of rank <= t_rank,
      (c) AU is close to N(0, G x I_n): first and second moments match,
      (d) (AU)^T AU / n -> G for a single draw.
    """
    U = _normalized_columns(n, q, rng)
    V = _normalized_columns(n, q, rng)
    G = U.T @ U / n
    # rank-t_rank projector onto the span of fresh normalized directions
    B = np.linalg.qr(normals(rng, (n, t_rank)))[0]

    a_samples = np.empty((M, q, q))
    b_samples = np.empty(M)
    mean1 = np.empty((M, q))
    second = np.empty((M, q, q))
    for m in range(M):
        A = sample_goe(n, rng)
        AU = A @ U
        a_samples[m] = V.T @ AU / n
        b_samples[m] = np.sum((B @ (B.T @ AU)) ** 2) / n
        mean1[m] = AU.mean(axis=0)
        second[m] = AU.T @ AU / n

    reports = []
    am = a_samples.mean(axis=0)
    asem = a_samples.std(axis=0, ddof=1) / np.sqrt(M)
    za = np.abs(am) / np.maximum(asem, 1e-300)
    reports.append(CheckReport(
        check_id="goe_a_bilinear",
        params={"n": n, "q": q, "M": M},
        statistic=float(za.max()),
        predicted=0.0,
        stderr=1.0,
        z_threshold=z_threshold,
        details={"z_block": za},
    ))
    reports.append(CheckReport(
        check_id="goe_b_projection",
        params={"n": n, "q": q, "M": M, "rank": t_rank},
        statistic=float(b_samples.mean()),
        predicted=0.0,
        stderr=float(b_samples.std(ddof=1) / np.sqrt(M)),
        z_threshold=z_threshold,
        abs_tol=0.05,
        details={"samples_mean": b_samples.mean(), "samples_max": b_samples.max()},
    ))
    # (c) moment match: first moments ~ 0, averaged Gram ~ G
    m1 = mean1.mean(axis=0)
    m1sem = mean1.std(axis=0, ddof=1) / np.sqrt(M)
    z1 = np.abs(m1) / np.maximum(m1sem, 1e-300)
    gm = second.mean(axis=0)
    gsem = second.std(axis=0, ddof=1) / np.sqrt(M)
    z2 = np.abs(gm - G) / np.maximum(gsem, 1e-300)
    reports.append(CheckReport(
        check_id="goe_c_moments",
        params={"n": n, "q": q, "M": M},
        statistic=float(max(z1.max(), z2.max())),
        predicted=0.0,
        stderr=1.0,
        z_threshold=z_threshold,
        details={"z_first": z1, "z_second": z2, "gram_target": G},
    ))
    A = sample_goe(n, rng)
    AU = A @ U
    single = AU.T @ AU / n
    reports.append(CheckReport(
        check_id="goe_d_gram",
        params={"n": n, "q": q},
        statistic=float(np.linalg.norm(single - G)),
        predicted=0.0,
        stderr=0.0,
        z_threshold=z_threshold,
        abs_tol=0.1,
        details={"gram": single, "gram_target": G},
    ))
    return reports


def onsager_fd_check(f: Nonlinearity, inputs: Sequence[np.ndarray], wrt_block: int = 0,
                     side=None, rel_tol=1e-5) -> CheckReport:
    """Analytic Jacobian trace against a central finite-difference oracle.

    The inputs must be a smooth point of f (keep away from prox kinks).
    Relative error uses max(1, |analytic|) entrywise as denominator.
    The oracle steps each entry x by FD_STEP * (1 + |x|); params reports
    FD_STEP as step.
    """
    analytic = f.jacobian_trace(list(inputs), side=side, wrt=wrt_block)
    fd = fd_jacobian_trace(f, list(inputs), side=side, wrt=wrt_block)
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    return CheckReport(
        check_id="onsager_fd",
        params={"n": inputs[wrt_block].shape[0], "cols": analytic.shape[1], "step": FD_STEP},
        statistic=float(rel.max()),
        predicted=0.0,
        stderr=0.0,
        z_threshold=0.0,
        abs_tol=rel_tol,
        details={"analytic": analytic, "fd": fd},
    )


def _power_opnorm(A, iters=4000, tol=1e-8, rng=None):
    # symmetric A: iterate A^2 to make the extreme eigenvalue dominant
    # regardless of its sign; return sqrt of the Rayleigh quotient.
    rng = rng if rng is not None else np.random.default_rng(0)
    v = normals(rng, (A.shape[0],))
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = A @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        new_est = float(np.sqrt(nw))
        if abs(new_est - est) <= tol * max(1.0, new_est):
            return new_est
        est, v = new_est, v_new
    raise NumericalError("power iteration failed to stabilize "
                         f"(last estimate {est:.6f})")


def opnorm_check(n_list: Sequence[int], seeds: Sequence[int], master_seed=0) -> List[CheckReport]:
    """Power-iteration operator norm of GOE(n) against the limit value 2.

    Pass band is the heuristic 2 +- 5 n^(-1/3); the limit statement
    itself carries no finite-n rate.
    """
    reports = []
    for n in n_list:
        for seed in seeds:
            rng = stream(master_seed, "opnorm", n, seed)
            A = sample_goe(n, rng)
            est = _power_opnorm(A, rng=stream(master_seed, "opnorm-power", n, seed))
            band = 5.0 * n ** (-1.0 / 3.0)
            reports.append(CheckReport(
                check_id="goe_opnorm",
                params={"n": n, "seed": seed},
                statistic=est,
                predicted=2.0,
                stderr=0.0,
                z_threshold=0.0,
                abs_tol=band,
                details={"band": band},
            ))
    return reports
