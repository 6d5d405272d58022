"""Scalar overlap recursion for two-phase regression iterations.

The two-node chain with a teacher signal (y drawn from the design
matrix itself) falls outside the plain covariance recursion: the
observations correlate with the matrix.  Conditioning on the teacher
direction splits each iterate into a deterministic signal component
and a Gaussian remainder, giving a closed recursion over six scalars
per iteration:

    u-field:  U_t = nu_t X0 + sqrt(kappa2_t) H        (estimation side)
    v-field:  V_t = (m_t / sqrt(rho)) S + sqrt(kappa1_t) G,
              y = channel(sqrt(rho) S)                 (observation side)

with rho = E[X0^2], X0 the prior, S, G, H independent standard
normals, and

    m_t   = E[X0 e_t(U_t)]                 (overlap)
    kappa1_t = E[e_t(U_t)^2] - m_t^2 / rho (orthogonal variance)
    beta_t   = E[e_t'(U_t)]
    d_t      = delta E[h_t'(V_t, y)]
    kappa2_{t+1} = delta E[h_t(V_t, y)^2]  (full second moment; the
                   conditioning removes only the teacher direction on
                   the column side)
    nu_{t+1}     = (delta / sqrt(rho)) E[S h_t] - d_t m_t / rho
    alpha_{t+1}  = -1 / d_t

started from h_0 evaluated at v = 0, the v-step of t = 0.  Here e_t(u)
= prox of the penalty at scale alpha_t applied to alpha_t u, given by
its pieces (GlmScalars.signal_map), and h_t(v, y) the residual of the
loss prox at scale beta_t (GlmScalars.residual_map): the maps the
iteration applies, integrated through their apply and slopes.
GlmScalars names the penalty by its kind and weight lam, and the loss;
the logistic loss prox has no closed form and is solved entrywise by
safeguarded Newton (LogisticResidual).

Expectations run on tensorized Gauss-Hermite grids by default, or by
seeded Monte Carlo.  Each quadrature rule (Gauss-Hermite nodes and the
Gauss-Legendre rule of the piecewise grids) is built once per node
count and cached; the cached arrays are read-only, so a caller that
writes to them raises instead of corrupting later runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .ensembles import normals, stream, uniforms
from .errors import NumericalError
from .nonlinearity import (AffineResidual, Entrywise, LinearEntrywiseLinear,
                           Nonlinearity, SideData, soft_threshold_pieces)

DEFAULT_GH_NODES = 61


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def gh_points(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights so E[f(Z)] = sum w f(x), Z std normal
    (cached per n, read-only)."""
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return _read_only(x, w / math.sqrt(2.0 * math.pi))


@functools.lru_cache(maxsize=None)
def _legendre_points(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (cached per n, read-only)."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


_TAIL_SDS = 12.0


def gaussian_piecewise_nodes(mean, sd, kinks, n: int):
    """Nodes and weights for E[g(U)], U ~ N(mean_i, sd_i^2), one rule per
    entry of the 1-D array mean, with g smooth between the given kink
    points.  sd is one sd for every mean or an array of one per mean.

    Gauss-Hermite converges poorly across kinks (thresholding makes the
    integrand only piecewise smooth), so the axis is split at the kinks,
    and at the mean so that no piece spans the peak of the density.
    Each finite piece is integrated by n-node Gauss-Legendre against the
    explicit normal density; the truncated tails carry ~1e-32 mass.  The
    rules come as (m, P) arrays, a row per mean.  Kinks outside a row's
    range clip to its ends, where they leave pieces of zero weight, so
    every row has the same P.  A row of sd 0 puts every node on its mean
    and weight 1 on the first.
    """
    centre = np.asarray(mean, dtype=float)[:, None]
    point = np.broadcast_to(np.reshape(sd, (-1, 1)) == 0.0, centre.shape)
    sd = np.where(point, 1.0, np.reshape(sd, (-1, 1)))
    lo, hi = centre - _TAIL_SDS * sd, centre + _TAIL_SDS * sd
    inner = np.clip(np.asarray(kinks, dtype=float)[None, :], lo, hi)
    inner = np.sort(np.concatenate([inner, centre], axis=1), axis=1)
    cuts = np.concatenate([lo, inner, hi], axis=1)
    centre, sd = centre[:, :, None], sd[:, :, None]
    xg, wg = _legendre_points(n)
    # one row per piece
    a, b = cuts[:, :-1, None], cuts[:, 1:, None]
    u = 0.5 * (b - a) * xg + 0.5 * (a + b)
    dens = np.exp(-0.5 * ((u - centre) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    u, w = u.reshape(len(cuts), -1), (0.5 * (b - a) * wg * dens).reshape(len(cuts), -1)
    u[point[:, 0]], w[point[:, 0]] = centre[point], np.eye(1, w.shape[1])
    return u, w


@dataclass(frozen=True)
class QuadSpec:
    """Expectation backend: tensorized Gauss-Hermite (method "gh" with
    DEFAULT_GH_NODES nodes per axis) or seeded Monte Carlo (method "mc"
    with samples)."""

    method: str = "gh"
    samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("gh", "mc"):
            raise ValueError(f"unknown quadrature method {self.method!r}")


class Prior:
    """Signal coordinate distribution: second moment, sampling, and a
    finite point mass/quadrature representation for expectations."""

    rho: float

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def quad_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, weights) with weights summing to 1."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussBernoulliPrior(Prior):
    """Zero with probability 1 - eps, else centered normal with
    variance var."""

    eps: float = 0.25
    var: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0 and self.var > 0.0):
            raise ValueError("prior needs 0 < eps <= 1 and var > 0, got "
                             f"eps = {self.eps}, var = {self.var}")

    @property
    def rho(self) -> float:
        return self.eps * self.var

    def sample(self, n, rng):
        mask = uniforms(rng, n) < self.eps
        return np.where(mask, math.sqrt(self.var) * normals(rng, n), 0.0)

    def quad_points(self):
        x, w = gh_points(DEFAULT_GH_NODES)
        vals = np.concatenate([[0.0], math.sqrt(self.var) * x])
        wts = np.concatenate([[1.0 - self.eps], self.eps * w])
        return vals, wts


@dataclass(frozen=True)
class RademacherPrior(Prior):
    rho = 1.0  # uniform on {-1, +1}

    def sample(self, n, rng):
        return np.where(uniforms(rng, n) < 0.5, -1.0, 1.0)

    def quad_points(self):
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])


class Channel:
    """Observation law y | z.  cond_points gives, per z value, a finite
    set of (y, weight) pairs (exact for discrete outputs, Gauss-Hermite
    for additive noise); sample draws observations for data generation."""

    def sample(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def cond_points(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Arrays of shape z.shape + (k,): support points and weights."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearGaussianChannel(Channel):
    """y = z + sigma * noise."""

    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"channel needs sigma >= 0, got {self.sigma}")

    def sample(self, z, rng):
        if self.sigma == 0.0:
            return np.array(z, dtype=float, copy=True)
        return z + self.sigma * normals(rng, np.shape(z))

    def cond_points(self, z):
        z = np.asarray(z, dtype=float)
        if self.sigma == 0.0:
            return z[..., None], np.ones(z.shape + (1,))
        xi, w = gh_points(DEFAULT_GH_NODES)
        y = z[..., None] + self.sigma * xi
        return y, np.broadcast_to(w, y.shape).copy()


@dataclass(frozen=True)
class LogisticChannel(Channel):
    """y = +1 with probability sigmoid(z), else -1."""

    def sample(self, z, rng):
        z = np.asarray(z, dtype=float)
        u = uniforms(rng, z.shape)
        p = 1.0 / (1.0 + np.exp(-z))
        return np.where(u < p, 1.0, -1.0)

    def cond_points(self, z):
        z = np.asarray(z, dtype=float)
        p = 1.0 / (1.0 + np.exp(-z))
        y = np.broadcast_to(np.array([1.0, -1.0]), z.shape + (2,)).copy()
        w = np.stack([p, 1.0 - p], axis=-1)
        return y, w


@dataclass(frozen=True)
class GlmScalars:
    """Coordinatewise update maps of the two-phase iteration solving
    min_x sum loss(y, Ax) + sum penalty(x).

    The penalty is lam |x| ("abs") or lam x^2 / 2 ("squared"); the loss
    (y - z)^2 / 2 ("squared") or log(1 + exp(-y z)), y = +-1
    ("logistic").  e_t(u) = prox_{alpha penalty}(alpha u) on the
    estimation side, a map linear between its kinks (signal_map), and
    h_t(v, y) = (prox_{beta loss(., y)}(v) - v) / beta on the
    observation side (residual_map): the maps the iteration applies and
    the overlap recursion integrates.
    """

    penalty: str
    lam: float
    loss: str = "squared"

    def __post_init__(self):
        if self.loss not in ("squared", "logistic"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.penalty not in ("abs", "squared"):
            raise ValueError(f"unknown penalty {self.penalty!r}")

    def signal_map(self, alpha: float) -> LinearEntrywiseLinear:
        """e_t at scale alpha, u -> prox_{alpha penalty}(alpha u), given by
        its pieces: alpha soft_threshold(u, lam) for "abs", the slope
        alpha / (1 + alpha lam) for "squared"."""
        alpha, w = float(alpha), self.lam
        if self.penalty == "abs":
            kinks, pieces = soft_threshold_pieces(w, alpha)
            return Entrywise(kinks=kinks, pieces=pieces)
        return Entrywise(pieces=((alpha / (1.0 + alpha * w), 0.0),))

    def residual_map(self, beta: float) -> Nonlinearity:
        """h_t at scale beta, with y the side array "y": (y - v) / (1 + beta)
        for "squared" (nonlinearity.AffineResidual), LogisticResidual for
        "logistic"."""
        if self.loss == "squared":
            return AffineResidual("y", den=1.0 + float(beta))
        return LogisticResidual(beta)


LOGISTIC_TOL = 1e-10
LOGISTIC_MAX_ITERS = 100


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_prox(v, beta, y):
    """prox_{beta loss(., y)}(v) for the logistic loss: the root p of
    p - v - beta y sigmoid(-y p) = 0 per entry.

    Safeguarded Newton: the residual is strictly increasing in p with
    slope >= 1, and the root lies in [v - beta, v + beta]; iterates are
    clamped to the shrinking bracket.
    """
    lo, hi, p = v - beta, v + beta, v.copy()
    for _ in range(LOGISTIC_MAX_ITERS):
        s = _sigmoid(-y * p)
        res = p - v - beta * y * s
        below = res < 0
        lo, hi = np.where(below, p, lo), np.where(below, hi, p)
        p_new = p - res / (1.0 + beta * s * (1.0 - s))
        p_new = np.where((p_new < lo) | (p_new > hi), 0.5 * (lo + hi), p_new)
        if np.max(np.abs(res)) < LOGISTIC_TOL and np.max(np.abs(p_new - p)) < LOGISTIC_TOL:
            return p_new
        p = p_new
    worst = float(np.max(np.abs(p - v - beta * y * _sigmoid(-y * p))))
    if worst > 100 * LOGISTIC_TOL:
        raise NumericalError(f"logistic prox did not converge, residual {worst:.3e}")
    return p


class LogisticResidual(Nonlinearity):
    """v -> (p - v) / beta for the logistic loss, p = prox_{beta loss(., y)}(v)
    (_logistic_prox), entrywise, with the labels y = +-1 taken from side
    data "y".  slopes and jacobian_trace reuse the p that apply solved
    for when given the same input array and side data objects, which the
    engine and the overlap recursion do not change in between."""

    row_local = True

    def __init__(self, beta: float):
        self.beta = float(beta)
        self._last = None

    def _prox(self, inputs, side):
        """(v, y, p), solving only for a new input array or side data."""
        (v,) = inputs
        last = self._last
        if last is None or last[0] is not v or last[1] is not side:
            x = np.asarray(v, dtype=float)
            y = np.asarray(side.array("y"), dtype=float).reshape(x.shape)
            last = self._last = (v, side, x, y, _logistic_prox(x, self.beta, y))
        return last[2:]

    def apply(self, inputs, side=None):
        v, _, p = self._prox(inputs, side)
        return (p - v) / self.beta

    def slopes(self, inputs, side=None) -> np.ndarray:
        """d h_i / d v_i entrywise, from dp/dv = 1 / (1 + beta s (1 - s)),
        s = sigmoid(-y p), the derivative of the optimality equation;
        they sum to jacobian_trace."""
        _, y, p = self._prox(inputs, side)
        s = _sigmoid(-y * p)
        return (1.0 / (1.0 + self.beta * s * (1.0 - s)) - 1.0) / self.beta

    def jacobian_trace(self, inputs, side=None, wrt=0):
        return np.array([[float(np.sum(self.slopes(inputs, side)))]])


@dataclass
class GampSePoint:
    """State of the overlap recursion at one iteration.

    For t >= 1: the u-field parameters (nu, kappa2, alpha), the overlap
    m, second moment p = E[e^2], mse, orthogonal variance kappa1, and
    the step scalars (beta, d) feeding t + 1.  The t = 0 point carries
    only the init-stage scalars.
    """

    t: int
    nu: float = 0.0
    kappa2: float = 0.0
    alpha: float = 0.0
    m: float = 0.0
    p: float = 0.0
    mse: float = 0.0
    kappa1: float = 0.0
    beta: float = 0.0
    d: float = 0.0

    def u_second_moment(self, rho: float) -> float:
        return self.nu ** 2 * rho + self.kappa2


def _mc_bases(prior: Prior, channel: Channel, quad: QuadSpec):
    """The Monte Carlo sample sets, drawn once per recursion: (X0, H) for
    the u-field and (S, y, G) for the v-field.  Every iteration reuses
    them (common random numbers), so the recursion runs on one fixed
    M-sample empirical measure instead of compounding fresh MC noise
    every step."""
    rng = stream(quad.seed, "overlap-se", "u")
    u_base = (prior.sample(quad.samples, rng), normals(rng, quad.samples))
    rng = stream(quad.seed, "overlap-se", "v")
    S = normals(rng, quad.samples)
    Y = channel.sample(math.sqrt(prior.rho) * S, rng)
    return u_base, (S, Y, normals(rng, quad.samples))


def _u_expectations(prior: Prior, scalars: GlmScalars, nu: float, kappa2: float,
                    alpha: float, quad: QuadSpec, base):
    """E[X0 e], E[e^2], E[e'], E[(e - X0)^2] over U = nu X0 + sqrt(kappa2) H
    (base: the u-field sample set of _mc_bases, for quad "mc")."""
    sk = math.sqrt(max(kappa2, 0.0))
    f = scalars.signal_map(alpha)
    if quad.method == "gh":
        x0, wx = prior.quad_points()
        U, W = gaussian_piecewise_nodes(nu * x0, sk, f.kinks, DEFAULT_GH_NODES)
        W = wx[:, None] * W
        X0 = x0[:, None]
    else:
        X0, H = base
        U = nu * X0 + sk * H
        W = np.full(quad.samples, 1.0 / quad.samples)
    e = f.phi(U)
    de = f.dphi(U)
    m = float(np.sum(W * X0 * e))
    p = float(np.sum(W * e ** 2))
    beta = float(np.sum(W * de))
    mse = float(np.sum(W * (e - X0) ** 2))
    return m, p, beta, mse


def _v_expectations(channel: Channel, scalars: GlmScalars, m: float, kappa1: float,
                    rho: float, beta: float, quad: QuadSpec, base):
    """E[S h], E[h^2], E[h'] over V = (m/sqrt(rho)) S + sqrt(kappa1) G,
    y ~ channel(sqrt(rho) S) (base: the v-field sample set of _mc_bases,
    for quad "mc")."""
    sr = math.sqrt(rho)
    sk = math.sqrt(max(kappa1, 0.0))
    if quad.method == "gh":
        s, ws = gh_points(DEFAULT_GH_NODES)
        g, wg = gh_points(DEFAULT_GH_NODES)
        Y, Wy = channel.cond_points(sr * s)
        V = (m / sr) * s[:, None, None] + sk * g[None, :, None]
        W = ws[:, None, None] * wg[None, :, None] * Wy[:, None, :]
        S = s[:, None, None]
        Yb = Y[:, None, :]
    else:
        S, Yb, G = base
        V = (m / sr) * S + sk * G
        W = np.full(quad.samples, 1.0 / quad.samples)
    # h_t on the grid laid out as one column, the labels beside it
    h = scalars.residual_map(beta)
    V, Yb = np.broadcast_arrays(V, Yb)
    v, side = [V.reshape(-1, 1)], SideData(arrays={"y": Yb.reshape(-1)})
    hv = h.apply(v, side).reshape(V.shape)
    dh = h.slopes(v, side).reshape(V.shape)
    e_sh = float(np.sum(W * S * hv))
    e_h2 = float(np.sum(W * hv ** 2))
    e_dh = float(np.sum(W * dh))
    return e_sh, e_h2, e_dh


def gamp_overlap_se(prior: Prior, channel: Channel, scalars: GlmScalars, delta: float,
                    T: int, beta0: float = 1.0,
                    quad: Optional[QuadSpec] = None) -> List[GampSePoint]:
    """Run the six-scalar recursion for T >= 1 estimation-side iterations.

    Returns points [0..T]; point t = 0 holds the init scalars, point t
    holds the u-field of iteration t and the quantities derived from it.
    A NumericalError raised in the v-step of t (a logistic prox that
    does not converge) names t.
    """
    quad = quad or QuadSpec()
    rho = prior.rho
    if rho <= 0:
        raise ValueError("prior second moment must be positive")

    u_base, v_base = _mc_bases(prior, channel, quad) if quad.method == "mc" else (None, None)
    # the init stage is the v-step of t = 0: h_0 at v = 0 (m = kappa1 = 0)
    pt, m, kappa1 = GampSePoint(t=0, beta=beta0), 0.0, 0.0
    points = []
    for t in range(T + 1):
        if t:
            m, p, beta_t, mse = _u_expectations(prior, scalars, nu, kappa2, alpha, quad, u_base)
            kappa1 = max(p - m ** 2 / rho, 0.0)
            pt = GampSePoint(t=t, nu=nu, kappa2=kappa2, alpha=alpha, m=m, p=p,
                             mse=mse, kappa1=kappa1, beta=beta_t)
        if t < T:
            try:
                with np.errstate(divide="ignore", invalid="ignore"):
                    e_sh, e_h2, e_dh = _v_expectations(channel, scalars, m, kappa1, rho,
                                                       pt.beta, quad, v_base)
            except NumericalError as ex:
                raise NumericalError(f"{ex} at t={t}") from ex
            d = delta * e_dh
            if not math.isfinite(d) or abs(d) < 1e-14:
                raise NumericalError(
                    f"average derivative vanished or is undefined at t={t}" if t else
                    f"init stage has a vanishing or undefined average derivative at "
                    f"beta0 = {beta0}; cannot set the estimation step size")
            pt.d = d
            nu = (delta / math.sqrt(rho)) * e_sh - d * m / rho
            kappa2 = delta * e_h2
            alpha = -1.0 / d
        points.append(pt)
    return points
