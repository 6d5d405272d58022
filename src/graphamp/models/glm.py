"""Penalized regression on a two-node chain.

The design A (n x d, iid entries of variance 1/d) couples a signal
node to an observation node.  Iterates alternate phases: odd graph
times apply the penalty prox on the signal side, even times the loss
residual map on the observation side, and the off-phase function is
identically zero.  In the two-phase time indexing

    v^t = x^{2t} on the forward edge   (observation-side field)
    u^t = x^{2t-1} on the reversed edge (signal-side field)

the iteration reads v^t = A e_t(u^t) - <e_t'> h_{t-1}(v^{t-1}) and
u^{t+1} = A^T h_t(v^t) - <h_t'> e_t(u^t) with adaptive scales
alpha_t = -1/<h_{t-1}'> and beta_t = <e_t'>, both recoverable from the
stored correction coefficients (the variance base is d, so b = J/d is
exactly the d-normalized average derivative).

Fixed points solve min_x sum loss(y, (Ax)) + penalty(x) exactly; the
scalar overlap recursion (gamp_overlap_se) predicts the observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import AmpTrajectory, GraphInstance
from ..ensembles import sample_iid, stream
from ..errors import NumericalError
from ..gamp_se import (Channel, GlmScalars, LinearGaussianChannel,
                       LogisticChannel, Prior)
from ..graphs import EdgeId, line_graph
from ..nonlinearity import SideData, Zero
from ..prox import ProxSpec, penalty_grad


@dataclass(frozen=True)
class GlmModel:
    """Problem description: sizes, signal prior, observation channel,
    and the penalized-loss objective the iteration solves."""

    d: int
    n: int
    prior: Prior
    channel: Channel
    scalars: GlmScalars
    beta0: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"aspect: gives n = {self.n} rows, need >= 1")
        lam = self.scalars.penalty.weight
        if lam < 0:
            raise ValueError(f"lam: must be >= 0, got {lam}")
        if self.scalars.loss == "logistic" and self.beta0 <= 0:
            raise ValueError("beta0: the logistic loss prox needs beta0 > 0, "
                             f"got {self.beta0}")

    @property
    def delta(self) -> float:
        return self.n / self.d

    @property
    def rho(self) -> float:
        return self.prior.rho


@dataclass
class GlmTeacher:
    """Teacher data: signal and observations."""

    x0: np.ndarray
    y: np.ndarray


def forward_edge() -> EdgeId:
    return EdgeId("sig", "obs")


def _iso_scalar(b: np.ndarray, what: str) -> float:
    """The scalar c of a correction coefficient b = c I (exact for q = 1)."""
    off = np.abs(b - b[0, 0] * np.eye(b.shape[0])).max()
    if off > 1e-8 * (1.0 + abs(b[0, 0])):
        raise NumericalError(f"{what} coefficient is not isotropic (off by {off:.2e})")
    return float(b[0, 0])


def two_phase_provider(fwd: EdgeId, q: int, signal_fn, obs_fn, beta0: float):
    """Phase-alternating provider on the chain fwd = (signal, obs).

    Odd graph times apply signal_fn(alpha) on fwd, even times
    obs_fn(beta) on the reversed edge, and the off-phase function is
    zero.  The scales adapt to the run: alpha_t = -1/b of the previous
    observation-side step and beta_t = b of the previous signal-side
    step, with beta = beta0 at t = 0.
    """
    bwd = fwd.reversed()
    zero = Zero(q)

    def provider(edge, t, b):
        if edge == fwd:
            if t % 2 == 0:
                return zero
            d0 = _iso_scalar(b[bwd], "observation-side")
            if abs(d0) < 1e-14:
                raise NumericalError("vanishing average derivative on the "
                                     "observation side", edge=str(edge), t=t)
            return signal_fn(-1.0 / d0)
        if t % 2 == 1:
            return zero
        beta = beta0 if t == 0 else _iso_scalar(b[fwd], "signal-side")
        return obs_fn(beta)

    return provider


def signal_half_iterate(traj: AmpTrajectory, fwd: EdgeId, t: int):
    """(u^t, alpha_t) of a two-phase run at estimation time t >= 1: the
    signal-side half iterate x^{2t-1} and the scale its provider applied,
    read off b^{2t-2}."""
    bwd = fwd.reversed()
    return (traj.x[bwd][2 * t - 1],
            -1.0 / _iso_scalar(traj.b[bwd][2 * t - 2], "observation-side"))


def build_gamp_instance(model: GlmModel, seed: int = 0):
    """Sample (A, x0, y) and assemble the chain instance.

    Returns (instance, teacher).  The observations come from the run's
    own design (y is drawn from A x0), so the plain covariance recursion
    does not cover this instance; the overlap recursion does.
    """
    fwd = forward_edge()
    bwd = fwd.reversed()
    g = line_graph(["sig", "obs"], [model.d, model.n])
    A = sample_iid(model.n, model.d, model.d, stream(seed, "glm", "A"))
    x0 = model.prior.sample(model.d, stream(seed, "glm", "x0"))
    y = model.channel.sample(A @ x0, stream(seed, "glm", "y"))
    teacher = GlmTeacher(x0=x0, y=y)

    instance = GraphInstance(
        graph=g,
        matrices={fwd: A},
        provider=two_phase_provider(fwd, 1, model.scalars.signal_map,
                                    model.scalars.residual_map, model.beta0),
        x0={},
        side={bwd: SideData(arrays={"y": y})},
        scale_base={fwd: float(model.d)},
    )
    return instance, teacher


@dataclass
class GampIterateStats:
    """Measured two-phase quantities at estimation time t: signal
    overlap m, squared error, and the per-row field second moments."""

    t: int
    m: float
    mse: float
    u2: float
    v2: float


def estimation_times(traj: AmpTrajectory) -> range:
    """The estimation times t = 1.. whose signal half iterate traj holds."""
    return range(1, (traj.T + 1) // 2 + 1)


def gamp_estimate(traj: AmpTrajectory, model: GlmModel, t: int) -> np.ndarray:
    """Signal estimate x_hat_t = e_t(u^t) at estimation time t >= 1;
    alpha_t is recovered from the stored observation-side coefficient."""
    u, alpha = signal_half_iterate(traj, forward_edge(), t)
    return model.scalars.signal_map(alpha).phi(u.reshape(-1))


def gamp_stats(traj: AmpTrajectory, model: GlmModel, teacher: GlmTeacher,
               t: int) -> GampIterateStats:
    """Overlap/error/field statistics at estimation time t, for
    comparison with the overlap recursion (same normalizations:
    everything per coordinate); graph step 2t, streamed, can read them."""
    fwd = forward_edge()
    x0 = teacher.x0
    xh = gamp_estimate(traj, model, t)
    u = traj.x[fwd.reversed()][2 * t - 1].reshape(-1)
    return GampIterateStats(
        t=t,
        m=float(x0 @ xh) / model.d,
        mse=float(np.sum((xh - x0) ** 2)) / model.d,
        u2=float(u @ u) / model.d,
        v2=float(np.sum(traj.x[fwd][2 * t] ** 2)) / model.n
        if 2 * t <= traj.T else math.nan,
    )


def kkt_residual(model: GlmModel, A: np.ndarray, y: np.ndarray, xhat: np.ndarray) -> float:
    """Sup-norm violation of the first-order conditions of
    min_x sum loss(y, Ax) + penalty(x) at xhat."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    z = A @ xhat
    if model.scalars.loss == "squared":
        gz = z - y
    else:
        gz = -y / (1.0 + np.exp(y * z))
    grad = A.T @ gz
    pen = model.scalars.penalty
    if pen.kind == "abs":
        lam = pen.weight
        on = np.abs(grad + lam * np.sign(xhat))
        off = np.maximum(np.abs(grad) - lam, 0.0)
        return float(np.max(np.where(xhat != 0.0, on, off)))
    return float(np.max(np.abs(grad + penalty_grad(pen, xhat))))


def lasso_model(d: int, n: int, lam: float, prior: Prior, sigma: float = 0.5,
                beta0: float = 1.0) -> GlmModel:
    return GlmModel(d=d, n=n, prior=prior, channel=LinearGaussianChannel(sigma),
                    scalars=GlmScalars(penalty=ProxSpec(kind="abs", gamma=1.0, weight=lam),
                                       loss="squared"), beta0=beta0)


def ridge_model(d: int, n: int, lam: float, prior: Prior, sigma: float = 0.5,
                beta0: float = 1.0) -> GlmModel:
    return GlmModel(d=d, n=n, prior=prior, channel=LinearGaussianChannel(sigma),
                    scalars=GlmScalars(penalty=ProxSpec(kind="squared", gamma=1.0, weight=lam),
                                       loss="squared"), beta0=beta0)


def logistic_model(d: int, n: int, lam: float, prior: Prior,
                   beta0: float = 1.0) -> GlmModel:
    return GlmModel(d=d, n=n, prior=prior, channel=LogisticChannel(),
                    scalars=GlmScalars(penalty=ProxSpec(kind="squared", gamma=1.0, weight=lam),
                                       loss="logistic"), beta0=beta0)
