"""Covariance recursion for the Gaussian limit of the graph iteration.

For each edge the iterates (x^1_e, ..., x^t_e) converge (rows jointly)
to a centered Gaussian family with a q_e x q_e covariance kernel per
time pair, independent across edges:

    kappa^{1,1}_e     = (1/S_e) f^0_e(x^0)^T f^0_e(x^0)
    kappa^{t+1,s+1}_e = (1/S_e) E[ f^s_e(Z^s, ..)^T f^t_e(Z^t, ..) ]

with Z^0 fixed at the actual initializer and the expectation over the
Gaussian family of the input edges.  Each step computes the new kernel
row of an edge in one of two ways:

- Exact, when the edge's update is a LinearEntrywiseLinear map at
  every time, f_s = (Y_s + sum_j X_j M_{s,j} + phi_s(W^s) R_s) / den_s
  with W^s = sum_j X^s_j L_{s,j}, and no map has an affine part (Y or
  M) while another, or the same, has a phi part.  The family is
  centred, independent of the side data and independent across input
  edges, so the affine rows are closed form,
      Y_s^T Y_t + n sum_j M_{s,j}^T K_j^{s,t} M_{t,j},
  and m^0^T Y_t for s = 0.  The phi rows are n R_s^T E[phi_s(W^s)^T
  phi_t(W^t)] R_t, and each entry (a, b) of that expectation is a 2-D
  Gaussian integral over (W^s_a, W^t_b): an outer integral over W^s_a
  and an inner one over W^t_b given W^s_a, each split at phi's kinks
  (gamp_se.gaussian_piecewise_nodes, QUAD_NODES Gauss-Legendre nodes a
  piece).  The s = 0 row needs the 1-D integral E phi_t(W^t).  A step
  integrates the entries of all rows whose maps are one object in one
  batch: a single outer rule over every W^s_a (its s = t rows give
  E phi_t(W^t)), outer nodes where phi_s vanishes dropped, and the
  inner rules in blocks of _QUAD_TILE nodes, so the inner rules'
  temporaries do not grow with t (the outer rule and the row do,
  linearly).  These rows are deterministic: they depend on neither
  reps nor the streams.
- Replicated Monte Carlo, for every other edge.  Each step draws fresh
  full-width copies of the input families that these edges read,
  evaluates the real update functions (with their real side data) on
  each copy, and averages.

Either way the PSD part of the extended kernel is kept.  The Monte
Carlo copies are split into fixed chunks, each with its own named
stream, and partial sums are added in chunk order, so results are
reproducible.  The initializer's outputs m^0_e are computed once per
run, by se_init.

The updates are memoryless, so the time-diagonal blocks close on
their own: K_e^{t+1,t+1} = (1/S_e) E[f^t_e(Z^t)^T f^t_e(Z^t)] needs only
each input's K^{t,t} and the side data (the one-edge case is the tau_t
recursion of Bayati & Montanari).  se_run(diagonal=True) runs that
recursion: each step forms the row of time t alone, by the same exact
and Monte Carlo code (the latter drawing each family for time t from
the q x q factor of K^{t,t}), and keeps the PSD part of the new block.
A run then integrates O(T) rows instead of O(T^2).  Its result holds
no cross-time block, and reading one raises.

The CLI reads its predictions off the diagonal blocks (||x^t_e||^2 /
n_e tends to tr K_e^{t,t}) with stderr 0: the kernels' Monte Carlo
noise, if an edge takes that route, is not estimated.
mc_observable_stats samples other observables under the final full
kernels.

This generic recursion needs update functions with a fixed schedule
(provider callable with b=None).  Iterations whose step sizes adapt
to the run are covered by the scalar overlap recursion instead (see
gamp_se).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .engine import GraphInstance, Observable, initial_iterates
from .ensembles import normals, stream
from .gamp_se import gaussian_piecewise_nodes
from .graphs import EdgeId, canonical_edge_order, edges_into
from .nonlinearity import (LinearEntrywiseLinear, Nonlinearity, SideData,
                           sandwich, times)

DEFAULT_CHUNK = 128
# rows per tile of the in-place factor transform in sample_gaussian_family
_TILE_ROWS = 1024
JITTER_REL = 1e-10
# Gauss-Legendre nodes per piece of the exact route's integrals
QUAD_NODES = 20
# nodes per block of the exact route's inner rules
_QUAD_TILE = 1 << 15


@dataclass
class SECovariances:
    """Per-edge covariance kernels; K[e][a, b] is the q x q covariance
    between iterate times a+1 and b+1.  m0[e] is the initializer's
    output f^0_e(x^0), the same at every step.

    A diagonal result (se_run(diagonal=True)) holds only the time-diagonal
    blocks: K[e][a] is K_e^{a+1,a+1}, of shape (T, q, q), and no
    cross-time covariance exists to read."""

    K: Dict[EdgeId, np.ndarray]
    T: int
    m0: Dict[EdgeId, np.ndarray]
    diagonal: bool = False

    def kernel(self, e: EdgeId, s: int, t: int) -> np.ndarray:
        """Covariance of (x^s_e, x^t_e), 1-based times."""
        if not self.diagonal:
            return self.K[e][s - 1, t - 1]
        if s != t:
            raise ValueError(f"a diagonal SE result has no cross-time block ({s}, {t})")
        return self.K[e][t - 1]


def se_init(instance: GraphInstance, diagonal: bool = False) -> SECovariances:
    """One-time kernel from the deterministic first update; `diagonal`
    starts a time-diagonal recursion (see se_run)."""
    g = instance.graph
    x0 = initial_iterates(instance)
    m0 = {e: np.asarray(instance.provider(e, 0, None).apply(
        [x0[ein] for ein in edges_into(g, e)], side=instance.side_data(e)), dtype=float)
        for e in canonical_edge_order(g)}
    shape = (1,) if diagonal else (1, 1)
    K = {e: (m.T @ m / instance.scale(e)).reshape(shape + (g.q(e), g.q(e)))
         for e, m in m0.items()}
    return SECovariances(K=K, T=1, m0=m0, diagonal=diagonal)


def _stacked(K_e: np.ndarray) -> np.ndarray:
    """The symmetrized (t q) x (t q) matrix of a (t, t, q, q) kernel."""
    t, _, q, _ = K_e.shape
    C = K_e.transpose(0, 2, 1, 3).reshape(t * q, t * q)
    return 0.5 * (C + C.T)


def _psd_part(K_e: np.ndarray) -> np.ndarray:
    """K_e with the negative eigenvalues of its stacked matrix set to 0
    (the nearest PSD kernel); returned unchanged when already PSD."""
    C = _stacked(K_e)
    w, V = np.linalg.eigh(C)
    if w[0] >= 0.0:
        return K_e
    C = (V * np.maximum(w, 0.0)) @ V.T
    C = 0.5 * (C + C.T)
    t, _, q, _ = K_e.shape
    return np.ascontiguousarray(C.reshape(t, q, t, q).transpose(0, 2, 1, 3))


def family_factor(K_e: np.ndarray) -> np.ndarray:
    """Square-root factor F, F F^T = C, of the stacked (t q) x (t q)
    family covariance C.

    Negative eigenvalues (Monte Carlo noise) are clipped and a relative
    jitter keeps the factorization well posed near rank deficiency.
    """
    C = _stacked(K_e)
    w, V = np.linalg.eigh(C)
    w = np.maximum(w, 0.0)
    jitter = JITTER_REL * float(np.trace(C)) / C.shape[0]
    return V * np.sqrt(w + jitter)


def sample_gaussian_family(F: np.ndarray, n_rows: int, reps: int,
                           rng: np.random.Generator) -> np.ndarray:
    """reps independent copies of the length-n_rows family whose stacked
    kernel has the square-root factor F (see family_factor), stacked
    copy-major: an array of shape (reps * n_rows, t * q) whose rows are
    iid with covariance F F^T.  Columns [s q, (s + 1) q) hold time s + 1,
    so a time block is a view, not a copy.

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


def _time_block(Z: np.ndarray, s: int, q: int) -> np.ndarray:
    """Time s (1-based) of a stacked family: a (reps * n, q) view."""
    return Z[:, (s - 1) * q:s * q]


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


def _exact(fns: Sequence[Nonlinearity]) -> bool:
    """Whether an edge whose maps at times 1..t are fns takes the exact
    route (see the module docstring)."""
    return (all(isinstance(f, LinearEntrywiseLinear) for f in fns)
            and not (any(f.affine for f in fns)
                     and any(f.phi is not None for f in fns)))


def _phi_moments(f_s: LinearEntrywiseLinear, f_t: LinearEntrywiseLinear,
                 var_s: np.ndarray, var_t: np.ndarray, cov_st: np.ndarray):
    """(E phi_s(U_r) phi_t(V_b), E phi_s(U_r)) for centred Gaussian pairs
    (U_r, V_b) with variances var_s[r], var_t[b] and covariances
    cov_st[r, b]: one outer rule over every U_r, less the nodes where its
    weight times phi_s is 0, and the inner rules over V_b given each
    kept node in blocks of about _QUAD_TILE nodes.  Only the outer rule
    and the outputs grow with the number of rows; the inner rules and
    their inputs are built a block at a time.  A zero (conditional)
    variance puts the variable on its (conditional) mean."""
    u, wu = gaussian_piecewise_nodes(np.zeros(len(var_s)), np.sqrt(var_s),
                                     f_s.kinks, QUAD_NODES)
    pu = f_s.phi(u)
    r, k = np.nonzero(wu * pu)
    E = np.zeros_like(cov_st)
    # one inner rule per (kept node, b), of QUAD_NODES nodes a piece, cut
    # at the kinks and the mean
    step = max(1, _QUAD_TILE // ((len(f_t.kinks) + 2) * QUAD_NODES * len(var_t)))
    for a in range(0, len(r), step):
        rb, kb = r[a:a + step], k[a:a + step]
        c, v_s = cov_st[rb], var_s[rb, None]
        slope = np.divide(c, v_s, out=np.zeros_like(c), where=v_s > 0.0)
        sd = np.sqrt(np.maximum(var_t - slope * c, 0.0))
        v, wv = gaussian_piecewise_nodes((slope * u[rb, kb][:, None]).ravel(), sd.ravel(),
                                         f_t.kinks, QUAD_NODES)
        inner = np.sum(wv * f_t.phi(v), axis=1).reshape(len(rb), len(var_t))
        np.add.at(E, rb, wu[rb, kb][:, None] * (pu[rb, kb][:, None] * inner))
    return E, np.sum(wu * pu, axis=1)


def _exact_row(instance: GraphInstance, cov: SECovariances, e: EdgeId,
               fns: Sequence[LinearEntrywiseLinear],
               rows: Sequence[int]) -> List[np.ndarray]:
    """Sums over the rows of E[f_s^T f_t] on edge e by the exact route,
    for the earlier times s in rows (ascending, within 0..t, t = cov.T)
    and fns the maps at times 0..t; s = 0 stands for the initializer's
    output m0.  The phi parts of the rows whose maps are one object
    (every row, for a stationary provider) are integrated in one
    batch."""
    g = instance.graph
    t, f_t = cov.T, fns[-1]
    n, q = g.node_dim[e.start], g.q(e)
    side = instance.side_data(e)
    ins = edges_into(g, e)
    m0 = cov.m0[e]

    def field_cov(fa, fb, a, b):
        """Covariance of (W^a, W^b) (1-based times) of maps fa and fb."""
        width = [q if np.ndim(f.R) == 0 else len(f.R) for f in (fa, fb)]
        return sum((sandwich(A, cov.kernel(ein, a, b), B)
                    for A, B, ein in zip(fa.L, fb.L, ins)
                    if A is not None and B is not None), np.zeros(width))

    S = {s: np.zeros((q, q)) for s in rows}
    Y_t = f_t.offset_rows(side, n)
    if Y_t is not None and 0 in S:
        S[0] += m0.T @ Y_t
    for s in rows:
        if s == 0:
            continue
        Y_s = fns[s].offset_rows(side, n)
        if Y_s is not None and Y_t is not None:
            S[s] += Y_s.T @ Y_t
        S[s] += n * sum((sandwich(A, cov.kernel(ein, s, t), B)
                         for A, B, ein in zip(fns[s].M, f_t.M, ins)
                         if A is not None and B is not None), np.zeros((q, q)))
    if f_t.phi is not None:
        batches: Dict[int, List[int]] = {}
        for s in rows:
            if s and fns[s].phi is not None:
                batches.setdefault(id(fns[s]), []).append(s)
        var_t = np.diag(field_cov(f_t, f_t, t, t))
        for ss in batches.values():
            f_s = fns[ss[0]]
            E, mean = _phi_moments(
                f_s, f_t, np.concatenate([np.diag(field_cov(f_s, f_s, s, s)) for s in ss]),
                var_t, np.concatenate([field_cov(f_s, f_t, s, t) for s in ss]))
            for s, E_s, mean_s in zip(ss, E.reshape(len(ss), -1, len(var_t)),
                                      mean.reshape(len(ss), 1, -1)):
                if s == t:
                    # the nested rule is not symmetric in (a, b); the block must be
                    E_s = 0.5 * (E_s + E_s.T)
                    if 0 in S:
                        S[0] += np.outer(m0.sum(axis=0), times(mean_s, f_t.R)[0])
                S[s] += n * sandwich(f_s.R, E_s, f_t.R)
    return [S[s] / (fns[s].den * f_t.den) if s else S[0] / f_t.den for s in rows]


def se_step(instance: GraphInstance, cov: SECovariances, reps: int,
            rng_factory: Callable[..., np.random.Generator],
            chunk: int = DEFAULT_CHUNK) -> SECovariances:
    """Extend every kernel by one time.

    Edges that qualify (see _exact) get exact rows; the others use reps
    Monte Carlo copies, split into fixed chunks of `chunk`, whose
    partial sums are added in chunk order.  Chunk c draws the family of
    each edge e that an MC edge reads from rng_factory("se", t, str(e),
    c), which must return independent generators for distinct labels.

    A diagonal cov (see se_run) gets only the new block K^{t+1,t+1}:
    the rows read time t alone, and the families are drawn for time t
    from the q x q factor of K^{t,t}.
    """
    g = instance.graph
    t = cov.T
    order = canonical_edge_order(g)
    # the earlier times whose cross rows the step forms, and the times a
    # drawn family holds, in column order
    rows = [t] if cov.diagonal else list(range(t + 1))
    span = [s for s in rows if s]
    fns = {e: [instance.provider(e, s, None) for s in range(t + 1)] for e in order}
    exact = [e for e in order if _exact(fns[e][1:])]
    mc = [e for e in order if e not in exact]
    drawn = [e for e in order if any(e in edges_into(g, x) for x in mc)]
    factors = {e: family_factor(cov.K[e][-1][None, None] if cov.diagonal else cov.K[e])
               for e in drawn}
    sizes = _chunks(reps, chunk) if mc else []

    def chunk_sums(c: int) -> Dict[EdgeId, np.ndarray]:
        # one chunk's family lives only while its sums are formed
        rc = sizes[c]
        fam = {e: sample_gaussian_family(factors[e], g.node_dim[e.end], rc,
                                         rng_factory("se", t, str(e), c))
               for e in drawn}
        sums = {}
        for e in mc:
            ins = edges_into(g, e)
            side = instance.side_data(e)
            tiled = _tile_side(side, rc) if any(f.row_local for f in fns[e]) else None

            def m(s):
                inputs = [_time_block(fam[ein], span.index(s) + 1, g.q(ein)) for ein in ins]
                return _eval_copies(fns[e][s], inputs, side, tiled, rc)

            mt = m(t)
            # row i holds sum over copies of m_s^T m_t for s = rows[i]; m_0
            # is the same deterministic output in every copy
            S = np.empty((len(rows), g.q(e), g.q(e)))
            for i, s in enumerate(rows):
                if s == 0:
                    S[i] = cov.m0[e].T @ mt.reshape(rc, -1, g.q(e)).sum(axis=0)
                elif s == t:
                    S[i] = mt.T @ mt
                else:
                    S[i] = m(s).T @ mt
            sums[e] = S
        return sums

    parts = [chunk_sums(c) for c in range(len(sizes))]
    moments = {e: _exact_row(instance, cov, e, fns[e], rows) for e in exact}
    K = {}
    for e in order:
        q = g.q(e)
        if e in exact:
            S = moments[e]
            denom = instance.scale(e)
        else:
            S = parts[0][e]
            for part in parts[1:]:
                S += part[e]
            denom = reps * instance.scale(e)
        if cov.diagonal:
            # the new block's own PSD part, as the full kernel's below
            new = _psd_part((S[0] / denom)[None, None])[0, 0]
            K[e] = np.concatenate([cov.K[e], new[None]])
            continue
        new = np.zeros((t + 1, t + 1, q, q))
        new[:t, :t] = cov.K[e]
        for s in range(t + 1):
            kst = S[s] / denom
            new[t, s] = kst.T
            new[s, t] = kst
        # the new row comes from fresh draws (or quadrature), so it can
        # be inconsistent with the earlier rows; keep the PSD part, the
        # covariance family_factor would sample from anyway
        K[e] = _psd_part(new)
    return SECovariances(K=K, T=t + 1, m0=cov.m0, diagonal=cov.diagonal)


def se_run(instance: GraphInstance, T: int, reps: int = 2000, seed: int = 0,
           chunk: int = DEFAULT_CHUNK, diagonal: bool = False) -> SECovariances:
    """Covariance kernels for iterate times 1..T.

    With diagonal=True only the blocks K_e^{t,t} are formed, from the
    inputs' K^{t,t} alone (see the module docstring); they agree with
    the full kernel's up to the rounding-level revisions its PSD step
    makes to earlier blocks."""
    if T < 1:
        raise ValueError("T must be >= 1")
    factory = lambda *labels: stream(seed, *labels)
    cov = se_init(instance, diagonal=diagonal)
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
    family, keyed by (t, name).  Time 0 evaluates the initializer.

    Chunk c draws edge e from stream(seed, "se-obs", str(e), c), and
    values are gathered in chunk order.
    """
    if cov.diagonal:
        raise ValueError("observables are sampled from a full kernel; "
                         "a diagonal SE result has no time family")
    g = instance.graph
    order = canonical_edge_order(g)
    ts = sorted(set(times)) if times is not None else list(range(cov.T + 1))
    if any(s < 0 or s > cov.T for s in ts):
        raise ValueError(f"times outside kernel range 0..{cov.T}")
    x0 = initial_iterates(instance)
    sizes = _chunks(reps, chunk)
    factors = {e: family_factor(cov.K[e]) for e in order}

    acc: Dict[Tuple[int, str], List[float]] = {(s, o.name): [] for s in ts for o in observables}

    def add_chunk(c: int) -> None:
        rc = sizes[c]
        fam = {e: sample_gaussian_family(factors[e], g.node_dim[e.end], rc,
                                         stream(seed, "se-obs", str(e), c))
               for e in order}
        for s in ts:
            if s == 0:
                copies = [x0] * rc
            else:
                blocks = {e: _time_block(fam[e], s, g.q(e)).reshape(rc, -1, g.q(e)) for e in order}
                copies = [{e: blocks[e][r] for e in order} for r in range(rc)]
            for xs in copies:
                for o in observables:
                    acc[(s, o.name)].append(o(xs, s))

    for c in range(len(sizes)):
        add_chunk(c)
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
