"""Mixture classification with a spatially coupled stacked design.

K clusters in R^d; a row of cluster k is mu_k plus correlated noise.
Writing the ridge weight matrix as W (d x K, one column per class) and
stacking per-cluster transformed copies X_k = Sigma_k^{1/2} W into
X (Kd x K), the data matrix becomes linear in X with an iid-plus-
deterministic design: row block k is

    A_k = [ sigma-coupled Gaussian blocks ] + 1 g_k^T  on block k,
    g_k = Sigma_k^{-1/2} mu_k,

so cluster means enter as deterministic rank-one row blocks and the
Gaussian part follows a K x K variance grid (diagonal 1, optional
coupling off the diagonal; nonzero coupling mixes neighbor covariances
into the effective cluster noise, still a valid mixture).

The iteration runs on a two-node chain with q = K columns.  The
penalty prox is non-separable across the K stacked blocks but closed
form: W* solves (lam gamma I + S) W = sum_k Sigma_k^{1/2} V_k with
S = sum_k Sigma_k, and the output restacks Sigma_k^{1/2} W*.  S does
not depend on the step, so each instance factors it once,
S = U diag(s) U^T; every step then solves in that basis,
W* = U ((U^T rhs) / (lam gamma + s)), and the diagonal Jacobian sum is
gamma sum_i s_i / (lam gamma + s_i) times I_K, with no factorization
per step.  The trace is isotropic, so the adaptive scalar steps stay
well defined.
The fixed point is the exact ridge minimizer of
  0.5 ||Y - A_eff W||_F^2 + 0.5 lam ||W||_F^2
with Y one-hot labels; predictions take an argmax of x^T W_hat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..engine import AmpTrajectory, GraphInstance, block_product
from ..ensembles import normals, sample_spatially_coupled, stream
from ..graphs import EdgeId, line_graph
from ..nonlinearity import AffineResidual, Nonlinearity, SideData
from .glm import estimation_times, signal_half_iterate, two_phase_provider


@dataclass(frozen=True)
class GmmSpatialModel:
    # mean_scale is the Euclidean norm of each cluster mean.  Keep it
    # small: the rank-one mean blocks contribute a loop gain of order
    # n_per_cluster * mean_scale^2 to the plain iteration, which must
    # stay below 1 or the mean direction diverges.
    K: int
    d: int
    n_per_cluster: int
    lam: float = 1.0
    mean_scale: float = 0.1
    coupling: float = 0.0
    beta0: float = 1.0

    def __post_init__(self):
        for key, value in (("lam", self.lam), ("coupling", self.coupling)):
            if value < 0:
                raise ValueError(f"{key}: must be >= 0, got {value}")

    @property
    def n(self) -> int:
        return self.K * self.n_per_cluster

    def sigma_grid(self) -> np.ndarray:
        S = np.eye(self.K)
        for k in range(self.K - 1):
            S[k, k + 1] = S[k + 1, k] = self.coupling
        return S


@dataclass
class GmmData:
    cov_sqrts: List[np.ndarray]
    spectrum: Tuple[np.ndarray, np.ndarray]  # (s, U) with sum_k Sigma_k = U diag(s) U^T
    design: np.ndarray        # stacked design (n x Kd), mean blocks included
    labels: np.ndarray        # cluster index per row
    Y: np.ndarray             # one-hot targets (n x K)

    @functools.cached_property
    def design_rows(self) -> np.ndarray:
        """Effective per-sample feature rows (n x d), formed on first read:
        block row k maps W -> sum_j block_{kj} Sigma_j^{1/2} W."""
        K, (n, Kd) = len(self.cov_sqrts), self.design.shape
        npc, d = n // K, Kd // K
        rows = np.zeros((n, d))
        for k in range(K):
            for j in range(K):
                blk = self.design[k * npc:(k + 1) * npc, j * d:(j + 1) * d]
                if np.any(blk):
                    rows[k * npc:(k + 1) * npc] += blk @ self.cov_sqrts[j]
        return rows


def _sample_clusters(model: GmmSpatialModel, seed: int):
    """Per cluster: Sigma_k^{1/2} and g_k = Sigma_k^{-1/2} mu_k, built from
    the sampled eigenpairs of Sigma_k = q diag(eig) q^T; plus the
    eigendecomposition (s, U) of sum_k Sigma_k."""
    roots, gs = [], []
    S = np.zeros((model.d, model.d))
    for k in range(model.K):
        # O(1)-norm means balance the O(1)-norm noise rows
        mu = model.mean_scale * normals(stream(seed, "gmm", "mean", k), model.d)
        mu /= math.sqrt(model.d)
        # the draw and R go at once and q at the end of the cluster, so no
        # d x d temporary outlives its cluster; peak memory of a GMM build
        # is then lower and does not hinge on where the heap can be trimmed
        q = np.linalg.qr(normals(stream(seed, "gmm", "cov", k), (model.d, model.d)))[0]
        # eig lies between 0.5 and top > 0, so the inverse root exists
        top = 1.0 + 0.5 * k
        eig = 0.5 + (top - 0.5) * (np.arange(model.d) + 0.5) / model.d
        root_eig = np.sqrt(eig)
        roots.append((q * root_eig) @ q.T)
        gs.append(q @ ((q.T @ mu) / root_eig))
        S += (q * eig) @ q.T
        del q
    return roots, gs, np.linalg.eigh(S)


def sample_gmm_data(model: GmmSpatialModel, seed: int) -> GmmData:
    """Draw one dataset: coupled Gaussian blocks plus mean blocks."""
    K, d, npc = model.K, model.d, model.n_per_cluster
    roots, gs, spectrum = _sample_clusters(model, seed)
    design = sample_spatially_coupled([npc] * K, [d] * K, model.sigma_grid(), d,
                                      stream(seed, "gmm", "Z", "train"))
    for k in range(K):
        # the mean g_k on every row of the cluster's diagonal block
        design[k * npc:(k + 1) * npc, k * d:(k + 1) * d] += gs[k]
    labels = np.repeat(np.arange(K), npc)
    Y = np.zeros((model.n, K))
    Y[np.arange(model.n), labels] = 1.0
    return GmmData(cov_sqrts=roots, spectrum=spectrum, design=design,
                   labels=labels, Y=Y)


class StackPenaltyProx(Nonlinearity):
    """Non-separable prox of 0.5 lam ||W||_F^2 in stacked coordinates.

    spectrum is (s, U) with sum_k Sigma_k = U diag(s) U^T, factored once
    per instance, so neither apply nor jacobian_trace factors a matrix.
    """

    def __init__(self, model: GmmSpatialModel, roots, spectrum, alpha: float):
        self.model = model
        self.roots = roots
        self.alpha = float(alpha)
        self.arity = 1
        self.out_cols = model.K
        self.row_local = False
        self._s, self._U = spectrum
        self._denom = self.alpha * model.lam + self._s

    def _solve(self, U):
        K, d = self.model.K, self.model.d
        V = self.alpha * U
        rhs = np.zeros((d, K))
        for k in range(K):
            rhs += block_product(self.roots[k].T, V[k * d:(k + 1) * d])
        W = self._U @ (block_product(self._U.T, rhs) / self._denom[:, None])
        out = np.vstack([self.roots[k] @ W for k in range(K)])
        return W, out

    def apply(self, inputs, side=None):
        _, out = self._solve(inputs[0])
        return out

    def jacobian_trace(self, inputs, side=None, wrt=0):
        # alpha sum_k tr(Sigma_k G^{-1}) = alpha tr(S G^{-1}), G = alpha lam I + S
        tr = float(np.sum(self._s / self._denom))
        return self.alpha * tr * np.eye(self.model.K)

    def weights(self, U) -> np.ndarray:
        W, _ = self._solve(U)
        return W


def build_gmm_spatial_instance(model: GmmSpatialModel, seed: int = 0):
    """Assemble the chain instance over the stacked variable.

    Returns (instance, data).  No Gaussian-limit gate applies (the
    design carries deterministic mean blocks); the checks are the
    ridge fixed point and classification accuracy.
    """
    fwd = EdgeId("stack", "obs")
    bwd = fwd.reversed()
    data = sample_gmm_data(model, seed)
    g = line_graph(["stack", "obs"], [model.K * model.d, model.n], q=model.K)
    instance = GraphInstance(
        graph=g,
        matrices={fwd: data.design},
        provider=two_phase_provider(
            fwd, model.K,
            lambda alpha: StackPenaltyProx(model, data.cov_sqrts, data.spectrum, alpha),
            lambda beta: AffineResidual("y", den=1.0 + float(beta)), model.beta0),
        side={bwd: SideData(arrays={"y": data.Y})},
        scale_base={fwd: float(model.d)},
    )
    return instance, data


def gmm_weights(traj: AmpTrajectory, model: GmmSpatialModel, data: GmmData) -> np.ndarray:
    """Ridge weights W (d x K) recovered from the last stacked iterate
    traj holds; a streamed run can read them as its last step returns."""
    u, alpha = signal_half_iterate(traj, EdgeId("stack", "obs"),
                                   estimation_times(traj)[-1])
    return StackPenaltyProx(model, data.cov_sqrts, data.spectrum, alpha).weights(u)


def ridge_baseline(model: GmmSpatialModel, data: GmmData) -> np.ndarray:
    """Direct minimizer of the same objective on the effective rows."""
    A = data.design_rows
    return np.linalg.solve(A.T @ A + model.lam * np.eye(model.d), A.T @ data.Y)


def classify(W: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.argmax(rows @ W, axis=1)


def accuracy(W: np.ndarray, data: GmmData) -> float:
    return float(np.mean(classify(W, data.design_rows) == data.labels))
