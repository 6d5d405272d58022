"""Covariance recursion for the Gaussian limit of the graph iteration.

For each edge the rows of x^t_e converge to iid centered Gaussians
with a q_e x q_e covariance kernel K_e^{t,t}, independent across
edges.  The updates are memoryless, so the kernels close on their own,
one time after the other (the one-edge case is the tau_t recursion of
Bayati & Montanari):

    K_e^{1,1}     = (1/S_e) f^0_e(x^0)^T f^0_e(x^0)
    K_e^{t+1,t+1} = (1/S_e) E[ f^t_e(Z^t, ..)^T f^t_e(Z^t, ..) ]

with x^0 the actual initializer and the expectation over independent
rows Z^t_j ~ N(0, K_j^{t,t}) of the input edges.  Each step computes
the new block of an edge in one of two ways:

- Exact, when the edge's update at time t is a LinearEntrywiseLinear
  map f = (Y + sum_j X_j M_j + phi(W) R) / den with W = sum_j X_j L_j,
  and has not both an affine part (Y or M) and a phi part.  The family
  is centred, independent of the side data and independent across
  input edges, so the affine part is closed form,
      Y^T Y + n sum_j M_j^T K_j^{t,t} M_j.
  The phi part is n R^T E[phi(W)^T phi(W)] R, which takes one of two
  forms.
  - A phi given by its pieces (linear between its kinks: the
    committee's soft threshold, the relu and linear activations, the
    penalty prox on the multilayer's signal edge) gets the closed form,
    exact to rounding.  A diagonal entry sums the
    truncated-normal moments of each piece; an off-diagonal entry sums,
    over every product of pieces, the moments P, E[X], E[Y] and E[XY]
    of a bivariate normal rectangle (Tallis 1961), from Phi, the
    normal density and Genz's bivariate normal orthant (Genz 2004).
    Correlation +-1 and a zero variance are taken as their limits.
  - Any other phi (tanh, sin) keeps a fixed rule.  Each diagonal
    entry E phi(W_a)^2 is a 1-D rule over W_a, and each off-diagonal
    entry (a, b) a 2-D Gaussian integral over (W_a, W_b): the same
    outer rule over W_a, and an inner one over W_b given W_a.  Every
    rule is split at phi's kinks and at its mean, the rules of a stage
    built in one batched call (gamp_se.gaussian_piecewise_nodes,
    QUAD_NODES Gauss-Legendre nodes a piece), outer nodes where phi
    vanishes dropped.  The rule has no error control: it is 2.7e-9
    relative on E W^2, but a phi that varies fast across the field's
    sd, or a field correlation near +-1, puts it further off.
  These blocks are deterministic: they depend on neither reps nor the
  streams.
- Replicated Monte Carlo, for every other edge.  Each step draws fresh
  copies of the input families that these edges read, from the q x q
  factor of each input's K^{t,t}, evaluates the real update functions
  (with their real side data) on each copy, and averages.

Either way the PSD part of the new block is kept.  The Monte Carlo
copies are split into fixed chunks, each with its own named stream,
and partial sums are added in chunk order, so results are
reproducible.  A run forms O(T) blocks per edge.

The CLI reads its predictions off the kernels (||x^t_e||^2 / n_e tends
to tr K_e^{t,t}) with stderr 0: the kernels' Monte Carlo noise, if an
edge takes that route, is not estimated.  mc_observable_stats samples
other observables, each of one time.  An observable of two times, such
as ||x^t_e - x^{t-1}_e||^2, would need the cross-time kernels K^{s,t},
which this recursion does not form.

This generic recursion needs update functions with a fixed schedule
(provider callable with b=None).  Iterations whose step sizes adapt
to the run are covered by the scalar overlap recursion instead (see
gamp_se).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .engine import GraphInstance, Observable, initial_iterates
from .ensembles import normals, stream
from .errors import NumericalError
from .gamp_se import _legendre_points, gaussian_piecewise_nodes
from .graphs import EdgeId, canonical_edge_order, edges_into
from .nonlinearity import (LinearEntrywiseLinear, Nonlinearity, SideData,
                           sandwich)

DEFAULT_CHUNK = 128
# rows per tile of the in-place factor transform in sample_gaussian_family
_TILE_ROWS = 1024
JITTER_REL = 1e-10
# Gauss-Legendre nodes per piece of the exact route's integrals
QUAD_NODES = 20


@dataclass
class SECovariances:
    """Per-edge kernels: K[e], of shape (T, q, q), holds K_e^{t,t} at
    row t - 1."""

    K: Dict[EdgeId, np.ndarray]
    T: int

    def kernel(self, e: EdgeId, t: int) -> np.ndarray:
        """Covariance of the rows of x^t_e, 1-based time."""
        return self.K[e][t - 1]


def se_init(instance: GraphInstance) -> SECovariances:
    """Time-1 kernel from the deterministic first update."""
    g = instance.graph
    x0 = initial_iterates(instance)
    K = {}
    for e in canonical_edge_order(g):
        m = np.asarray(instance.provider(e, 0, None).apply(
            [x0[ein] for ein in edges_into(g, e)], side=instance.side_data(e)), dtype=float)
        K[e] = (m.T @ m / instance.scale(e))[None]
    return SECovariances(K=K, T=1)


def _psd_part(C: np.ndarray) -> np.ndarray:
    """C with the negative eigenvalues of its symmetric part set to 0
    (the nearest PSD matrix); returned unchanged when already PSD."""
    w, V = np.linalg.eigh(0.5 * (C + C.T))
    if w[0] >= 0.0:
        return C
    C = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (C + C.T)


def family_factor(C: np.ndarray) -> np.ndarray:
    """Square-root factor F, F F^T = C, of a q x q row covariance C.

    Negative eigenvalues (Monte Carlo noise) are clipped and a relative
    jitter keeps the factorization well posed near rank deficiency.
    """
    C = 0.5 * (C + C.T)
    w, V = np.linalg.eigh(C)
    w = np.maximum(w, 0.0)
    jitter = JITTER_REL * float(np.trace(C)) / C.shape[0]
    return V * np.sqrt(w + jitter)


def sample_gaussian_family(F: np.ndarray, n_rows: int, reps: int,
                           rng: np.random.Generator) -> np.ndarray:
    """reps independent copies of n_rows Gaussian rows with the
    covariance F F^T (see family_factor), stacked copy-major: an array
    of shape (reps * n_rows, q) with iid rows.

    The factor is applied in place, a row tile at a time, so the family
    costs one buffer.
    """
    Z = normals(rng, (reps * n_rows, len(F)))
    tmp = np.empty((min(_TILE_ROWS, len(Z)), len(F)))
    for a in range(0, len(Z), _TILE_ROWS):
        tile = Z[a:a + _TILE_ROWS]
        out = tmp[:len(tile)]
        np.matmul(tile, F.T, out=out)
        tile[...] = out
    return Z


def _tile_side(side: Optional[SideData], reps: int) -> Optional[SideData]:
    if side is None or reps == 1:
        return side
    arrays = {k: np.tile(v, (reps,) + (1,) * (np.ndim(v) - 1)) for k, v in side.arrays.items()}
    return SideData(arrays=arrays)


def _eval_copies(f: Nonlinearity, inputs: List[np.ndarray], side: Optional[SideData],
                 tiled: Optional[SideData], reps: int) -> np.ndarray:
    """Apply f to reps stacked copies, (reps * n, q_in) inputs in and
    (reps * n, q_out) out.

    Row-local functions are evaluated once on all rows, with side
    arrays tiled to match; others loop over copies.
    """
    if f.row_local:
        return np.asarray(f.apply(inputs, side=tiled), dtype=float)
    n = len(inputs[0]) // reps
    out = None
    for r in range(reps):
        rows = slice(r * n, (r + 1) * n)
        m = np.asarray(f.apply([x[rows] for x in inputs], side=side), dtype=float)
        if out is None:
            out = np.empty((reps * n, m.shape[1]))
        out[rows] = m
    return out


def _chunks(reps: int, chunk: int) -> List[int]:
    """Copy counts of the fixed chunks that split a budget of reps."""
    return [min(chunk, reps - a) for a in range(0, reps, chunk)]


def _exact(f: Nonlinearity) -> bool:
    """Whether an edge whose map is f takes the exact route (see the
    module docstring)."""
    return (isinstance(f, LinearEntrywiseLinear)
            and not (f.affine and f.phi is not None))


_INF = math.inf
# a kink past this many sds stands for +-inf: Phi(-40) underflows to 0
_Z_CAP = 40.0


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _xpdf(x: float) -> float:
    """x times the normal density, 0 at +-inf."""
    return x * _pdf(x) if math.isfinite(x) else 0.0


@functools.lru_cache(maxsize=None)
def _legendre_list(n: int) -> List[Tuple[float, float]]:
    return list(zip(*(a.tolist() for a in _legendre_points(n))))


def _upper_orthant(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals X, Y of correlation r,
    |r| < 1, h and k finite: Genz's BVNU (Genz 2004), whose Gauss-Legendre
    rule has 6, 12 or 20 nodes by |r| band, with his expansion about
    |r| = 1 from |r| >= 0.925."""
    rule = _legendre_list(6 if abs(r) < 0.3 else 12 if abs(r) < 0.75 else 20)
    hk = h * k
    if abs(r) < 0.925:
        hs, asr = 0.5 * (h * h + k * k), math.asin(r)
        total = 0.0
        for x, w in rule:
            sn = math.sin(0.5 * asr * (x + 1.0))
            total += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        return total * asr / (4.0 * math.pi) + _cdf(-h) * _cdf(-k)
    if r < 0.0:
        k, hk = -k, -hk
    a2 = (1.0 - r) * (1.0 + r)
    a, bs = math.sqrt(a2), (h - k) ** 2
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 16.0
    total = a * math.exp(-0.5 * (bs / a2 + hk)) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0)
    if hk > -160.0:
        b = math.sqrt(bs)
        total -= (math.exp(-0.5 * hk) * math.sqrt(2.0 * math.pi) * _cdf(-b / a) * b
                  * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
    a *= 0.5
    for x, w in rule:
        xs = (a * (x + 1.0)) ** 2
        rs = math.sqrt(1.0 - xs)
        total += a * w * math.exp(-0.5 * (bs / xs + hk)) * (
            math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs - (1.0 + c * xs * (1.0 + d * xs)))
    total /= -2.0 * math.pi
    if r > 0.0:
        return total + _cdf(-max(h, k))
    return max(0.0, _cdf(-h) - _cdf(-k)) - total


def _orthant(h: float, k: float, r: float) -> Tuple[float, float, float, float]:
    """(P, E[X; A], E[Y; A], E[XY; A]) over A = {X <= h, Y <= k} for
    standard normals X, Y of correlation r (Tallis 1961); h and k may be
    +inf, and r = +-1 is taken as its limit."""
    if h == _INF:
        return _cdf(k), -r * _pdf(k), -_pdf(k), r * (_cdf(k) - _xpdf(k))
    if k == _INF:
        return _cdf(h), -_pdf(h), -r * _pdf(h), r * (_cdf(h) - _xpdf(h))
    ph, pk = _pdf(h), _pdf(k)
    if r == 1.0:
        m = min(h, k)
        return _cdf(m), -_pdf(m), -_pdf(m), _cdf(m) - _xpdf(m)
    if r == -1.0:
        # Y = -X, so A is -k <= X <= h
        if h <= -k:
            return 0.0, 0.0, 0.0, 0.0
        P = _cdf(h) - _cdf(-k)
        return P, pk - ph, ph - pk, h * ph + k * pk - P
    s = math.sqrt((1.0 - r) * (1.0 + r))
    A, B = _cdf((k - r * h) / s), _cdf((h - r * k) / s)
    P = _upper_orthant(-h, -k, r)
    return (P, -ph * A - r * pk * B, -r * ph * A - pk * B,
            r * (P - h * ph * A - k * pk * B) + s * ph * _pdf((k - r * h) / s))


def _standard_pieces(f: LinearEntrywiseLinear, sd: float) -> list:
    """The nonzero pieces of phi(sd Z), Z standard normal, as (sign,
    slope, intercept, lo, hi): phi(sd Z) = slope (sign Z) + intercept
    on lo < sign Z < hi.  A piece whose midpoint is above 0 is reflected
    (sign -1), so that every corner is taken where Phi is least rounded.
    At sd 0, phi(0) is one piece over the whole line."""
    if sd == 0.0:
        c = f.pieces[bisect.bisect_right(f.kinks, 0.0)][1]
        return [(1.0, 0.0, c, -_INF, _INF)] if c else []
    z = [k / sd for k in f.kinks]
    cuts = [-_INF] + [_INF if x > _Z_CAP else -_INF if x < -_Z_CAP else x for x in z] + [_INF]
    out = []
    for (s, c), lo, hi in zip(f.pieces, cuts, cuts[1:]):
        if lo < hi and (s or c):
            out.append((-1.0, -s * sd, c, -hi, -lo) if lo > -hi else (1.0, s * sd, c, lo, hi))
    return out


def _piecewise_linear_moments(f: LinearEntrywiseLinear, field_cov: np.ndarray) -> np.ndarray:
    """E phi(W)^T phi(W) for phi declaring its pieces, in closed form: the
    sum over every product of pieces of the truncated moments P, E[X],
    E[Y] and E[XY] on their rectangle, from Phi, the normal density and
    the bivariate normal orthant (_orthant); a diagonal entry sums the
    univariate truncated moments of each piece."""
    C = field_cov.tolist()
    sds = [math.sqrt(C[a][a]) for a in range(len(C))]
    cols = [_standard_pieces(f, sd) for sd in sds]
    E = np.zeros_like(field_cov)
    for a, pieces in enumerate(cols):
        total = 0.0
        for _, al, be, lo, hi in pieces:
            m0, m1 = _cdf(hi) - _cdf(lo), _pdf(lo) - _pdf(hi)
            total += al * al * (m0 + _xpdf(lo) - _xpdf(hi)) + 2.0 * al * be * m1 + be * be * m0
        E[a, a] = total
        for b in range(a):
            scale = sds[a] * sds[b]
            r = min(1.0, max(-1.0, C[a][b] / scale)) if scale > 0.0 else 0.0
            total = 0.0
            for sa, a1, b1, lo1, hi1 in pieces:
                for sb, a2, b2, lo2, hi2 in cols[b]:
                    # the rectangle's moments from its corners' orthants
                    for h, k, sign in ((hi1, hi2, 1.0), (lo1, hi2, -1.0),
                                       (hi1, lo2, -1.0), (lo1, lo2, 1.0)):
                        if h > -_INF and k > -_INF:
                            P, EX, EY, EXY = _orthant(h, k, sa * sb * r)
                            total += sign * (a1 * a2 * EXY + a1 * b2 * EX + b1 * a2 * EY
                                             + b1 * b2 * P)
            E[a, b] = E[b, a] = total
    return E


def _phi_moments(f: LinearEntrywiseLinear, field_cov: np.ndarray) -> np.ndarray:
    """E phi(W)^T phi(W) for a centred Gaussian row W with covariance
    field_cov.  A phi that declares its pieces gets the closed form
    (_piecewise_linear_moments).  Any other comes from an outer rule over
    each W_a, less the nodes where its weight times phi is 0.  A
    diagonal entry E phi(W_a)^2 is that 1-D rule.  An off-diagonal entry
    (a, b) is nested: an inner rule over W_b given each kept node of W_a.
    The nested rule is not symmetric in (a, b), so the moment is
    symmetrised.  A zero (conditional) variance puts the variable on its
    (conditional) mean."""
    if f.pieces is not None:
        return _piecewise_linear_moments(f, field_cov)
    q = len(field_cov)
    var = np.diag(field_cov)
    u, wu = gaussian_piecewise_nodes(np.zeros(q), np.sqrt(var), f.kinks, QUAD_NODES)
    pu = f.phi(u)
    r, k = np.nonzero(wu * pu)
    w, p = wu[r, k], pu[r, k]
    E = np.zeros_like(field_cov)
    np.add.at(E, (r, r), w * (p * p))
    if q == 1 or not len(r):
        # no pair to nest, or phi vanishes on the whole outer rule (relu
        # at variance 0, say) and the inner rules cannot be built on no
        # rows
        return E
    # row i's inner rules: W_b given node i of W_a, a = r[i], for b != a
    b = np.nonzero(~np.eye(q, dtype=bool))[1].reshape(q, q - 1)[r]
    c, v_r = field_cov[r[:, None], b], var[r, None]
    slope = np.divide(c, v_r, out=np.zeros_like(c), where=v_r > 0.0)
    sd = np.sqrt(np.maximum(var[b] - slope * c, 0.0))
    v, wv = gaussian_piecewise_nodes((slope * u[r, k][:, None]).ravel(), sd.ravel(),
                                     f.kinks, QUAD_NODES)
    inner = np.sum(wv * f.phi(v), axis=1).reshape(b.shape)
    np.add.at(E, (r[:, None], b), w[:, None] * (p[:, None] * inner))
    return 0.5 * (E + E.T)


def _exact_row(instance: GraphInstance, cov: SECovariances, e: EdgeId,
               f: LinearEntrywiseLinear) -> np.ndarray:
    """E[f^T f] summed over the rows of edge e by the exact route, f the
    edge's map at time t = cov.T."""
    g = instance.graph
    t = cov.T
    n, q = g.node_dim[e.start], g.q(e)
    side = instance.side_data(e)
    ins = edges_into(g, e)

    def gathered(coefs, width):
        """sum_j A_j^T K_j^{t,t} A_j over the input blocks j with a
        coefficient A_j."""
        return sum((sandwich(A, cov.kernel(ein, t), A)
                    for A, ein in zip(coefs, ins) if A is not None), np.zeros((width, width)))

    S = np.zeros((q, q))
    Y = f.offset_rows(side, n)
    if Y is not None:
        # two arrays: numpy sends Y.T @ Y of one array to syrk, which
        # rounds differently
        S += Y.T @ f.offset_rows(side, n)
    S += n * gathered(f.M, q)
    if f.phi is not None:
        width = q if np.ndim(f.R) == 0 else len(f.R)
        S += n * sandwich(f.R, _phi_moments(f, gathered(f.L, width)), f.R)
    return S / (f.den * f.den)


def se_step(instance: GraphInstance, cov: SECovariances, reps: int,
            rng_factory: Callable[..., np.random.Generator],
            chunk: int = DEFAULT_CHUNK) -> SECovariances:
    """Extend every kernel by one time: the block K^{t+1,t+1} from the
    inputs' K^{t,t}, t = cov.T.

    Edges that qualify (see _exact) get exact blocks; the others use
    reps Monte Carlo copies, split into fixed chunks of `chunk`, whose
    partial sums are added in chunk order.  Chunk c draws the family of
    each edge e that an MC edge reads from rng_factory("se", t, str(e),
    c), which must return independent generators for distinct labels.
    A block with a non-finite entry raises NumericalError naming its
    edge and time t + 1.
    """
    g = instance.graph
    t = cov.T
    order = canonical_edge_order(g)
    fns = {e: instance.provider(e, t, None) for e in order}
    exact = [e for e in order if _exact(fns[e])]
    mc = [e for e in order if e not in exact]
    drawn = [e for e in order if any(e in edges_into(g, x) for x in mc)]
    factors = {e: family_factor(cov.kernel(e, t)) for e in drawn}
    sizes = _chunks(reps, chunk) if mc else []

    def chunk_sums(c: int) -> Dict[EdgeId, np.ndarray]:
        # one chunk's family lives only while its sums are formed
        rc = sizes[c]
        fam = {e: sample_gaussian_family(factors[e], g.node_dim[e.end], rc,
                                         rng_factory("se", t, str(e), c))
               for e in drawn}
        sums = {}
        for e in mc:
            side = instance.side_data(e)
            tiled = _tile_side(side, rc) if fns[e].row_local else None
            m = _eval_copies(fns[e], [fam[ein] for ein in edges_into(g, e)], side, tiled, rc)
            sums[e] = m.T @ m
        return sums

    parts = [chunk_sums(c) for c in range(len(sizes))]
    K = {}
    for e in order:
        # overflow surfaces through the isfinite check, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if e in exact:
                new = _exact_row(instance, cov, e, fns[e]) / instance.scale(e)
            else:
                S = parts[0][e]
                for part in parts[1:]:
                    S += part[e]
                new = S / (reps * instance.scale(e))
        if not np.all(np.isfinite(new)):
            raise NumericalError("state evolution kernel is not finite", edge=str(e), t=t + 1)
        # fresh draws can leave the block slightly indefinite; keep its
        # PSD part, the covariance family_factor would sample from anyway
        K[e] = np.concatenate([cov.K[e], _psd_part(new)[None]])
    return SECovariances(K=K, T=t + 1)


def se_run(instance: GraphInstance, T: int, reps: int = 2000, seed: int = 0,
           chunk: int = DEFAULT_CHUNK) -> SECovariances:
    """Covariance kernels for iterate times 1..T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    factory = lambda *labels: stream(seed, *labels)
    cov = se_init(instance)
    while cov.T < T:
        cov = se_step(instance, cov, reps, factory, chunk=chunk)
    return cov


def summarize(values: Sequence[float]) -> dict:
    """Mean, sd (ddof 1), count and standard error of the mean of a
    sample; sd and sem are 0 for a single value."""
    arr = np.asarray(values)
    n = arr.size
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std, "n": n,
            "sem": float(std / np.sqrt(n)) if n > 1 else 0.0}


def mc_observable_stats(instance: GraphInstance, cov: SECovariances,
                        observables: Sequence[Observable],
                        times: Optional[Sequence[int]] = None,
                        reps: int = 400, seed: int = 1,
                        chunk: int = 64) -> Dict[Tuple[int, str], dict]:
    """Monte Carlo mean and sd of each observable under the Gaussian
    limit, keyed by (t, name).  Time 0 evaluates the initializer; time
    s draws every edge from K_e^{s,s} alone, so an observable reads the
    one time it is given.

    Chunk c of time s draws edge e from stream(seed, "se-obs", s,
    str(e), c), and values are gathered in chunk order.
    """
    g = instance.graph
    order = canonical_edge_order(g)
    ts = sorted(set(times)) if times is not None else list(range(cov.T + 1))
    if any(s < 0 or s > cov.T for s in ts):
        raise ValueError(f"times outside kernel range 0..{cov.T}")
    x0 = initial_iterates(instance)
    sizes = _chunks(reps, chunk)
    acc: Dict[Tuple[int, str], List[float]] = {(s, o.name): [] for s in ts for o in observables}
    for s in ts:
        factors = {e: family_factor(cov.kernel(e, s)) for e in order} if s else {}
        for c, rc in enumerate(sizes):
            if s == 0:
                copies = [x0] * rc
            else:
                blocks = {e: sample_gaussian_family(factors[e], g.node_dim[e.end], rc,
                                                    stream(seed, "se-obs", s, str(e), c))
                          .reshape(rc, -1, g.q(e)) for e in order}
                copies = [{e: blocks[e][r] for e in order} for r in range(rc)]
            for xs in copies:
                for o in observables:
                    acc[(s, o.name)].append(o(xs, s))
    return {key: summarize(vals) for key, vals in acc.items()}


def compare(amp_stats: Mapping[Tuple[int, str], dict],
            se_stats: Mapping[Tuple[int, str], dict], rel_tol: float = 0.05,
            z_tol: float = 4.0, atol: float = 1e-4) -> List[dict]:
    """Gate iteration statistics against the prediction.

    amp_stats values carry mean, std, n and sem (see summarize);
    se_stats values carry mean and sem.  One record per shared
    (t, name), sorted, in the columns of compare.csv: the relative
    error against the prediction, the z-score under the combined
    standard error (x/0 is inf, 0/0 is 0), and pass when either is within
    its tolerance or both means are within atol of zero.
    """
    records = []
    for key in sorted(set(amp_stats) & set(se_stats)):
        t, name = key
        a, s = amp_stats[key], se_stats[key]
        diff = abs(a["mean"] - s["mean"])
        rel = diff / max(abs(s["mean"]), 1e-12)
        denom = np.hypot(a["sem"], s["sem"])
        z = diff / denom if denom > 0 else (np.inf if diff else 0.0)
        # both sides indistinguishable from zero: degenerate scale, pass
        ok = (rel <= rel_tol) or (z <= z_tol) or (
            abs(a["mean"]) <= atol and abs(s["mean"]) <= atol)
        records.append({
            "t": t, "name": name,
            "amp_mean": a["mean"], "amp_std": a["std"], "n_seeds": a["n"],
            "se_value": s["mean"], "se_stderr": s["sem"],
            "rel_err": rel, "z": z, "pass": int(ok),
        })
    return records
