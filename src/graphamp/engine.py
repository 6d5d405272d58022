"""Message-passing iteration on a symmetric directed graph.

Each directed edge e = (v, w) carries an iterate x_e with n_w rows and
q_e columns.  One step computes, for every edge,

    m^t_e = f^t_e((x^t_{e'})_{e' -> e})          (inputs: edges ending at v)
    b^t_e = J_e / S_e,  J_e = sum_i d f^t_{e,i} / d x^t_{e<-,i}
    x^{t+1}_e = A_e m^t_e - m^{t-1}_{e<-} (b^t_e)^T

where e<- is the reversed edge and S_e is the edge's variance base
(the scale_N of its matrix ensemble; defaults to the global N).  The
t = 0 update has no correction term (m^{-1} = 0).

Every product is one sweep over row panels of a stored matrix S
(panel_sweep).  The stored direction of a pair, and every loop, is
forward, x = S m; its reversed direction is S^T m', summed over the
panels in row order.  A pair whose two directions both have a nonzero
output and neither declares f.out_blocks gets both products from one
sweep, so a step reads its matrix once.  Otherwise each block (rs, cs)
of f.out_blocks that holds a nonzero entry (no blocks declared: one
covering m^t_e) is swept on its own: the column strip S[:, rs] forward,
the stored rows S[rs, :] reversed.  An all-zero output, as in the off
phase of a two-phase chain, leaves A_e unread, and a non-finite entry
of A_e is caught only at a step whose nonzero blocks read it.

Step t + 1 reads only x^t, m^{t-1} and b^{t-1}.  run keeps the whole
history unless given a callback, which reads each step as it returns;
then forget drops the rest, and memory does not grow with T.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .errors import GraphError, NumericalError, ShapeError
from .graphs import EdgeId, GraphSpec, canonical_edge_order, edges_into, require_valid, reversed_input_index
from .nonlinearity import Nonlinearity, SideData

# provider(e, t, b) returns f^t_e; b maps every edge to its Onsager
# coefficient b^{t-1}_e, and is None at t = 0 and in the state evolution.
Provider = Callable[[EdgeId, int, Optional[Mapping[EdgeId, np.ndarray]]], Nonlinearity]

# Rows per panel of a loop matrix's symmetry check and of sample_goe's
# G + G^T.
PANEL_ROWS = 256

# Entries, q x rows x cols, of one panel of panel_sweep, q the columns
# it multiplies.  OpenBLAS appears to skip its packing pass on a GEMM
# this small: the bound is inferred from timings, not from its source.
PANEL_ENTRIES = 1 << 19


def stationary_provider(fns: Mapping[EdgeId, Nonlinearity]) -> Provider:
    """Provider for time-independent update functions."""
    table = dict(fns)

    def provider(edge, t, b):
        return table[edge]

    return provider


def _loop_symmetry(A: np.ndarray, key: EdgeId) -> None:
    """ShapeError unless loop matrix A is allclose to its transpose.  A
    first pass compares each pair of PANEL_ROWS tiles P <= Q once, A[P, Q]
    with A[Q, P]^T.  Only if some tile differs does allclose, which sets
    what passes, compare each row panel A[p] with the column strip
    A[:, p]^T.  No temporary is larger than a panel."""
    tiles = [slice(lo, lo + PANEL_ROWS) for lo in range(0, A.shape[0], PANEL_ROWS)]
    if all(np.array_equal(A[P, Q], A[Q, P].T) for i, P in enumerate(tiles) for Q in tiles[i:]):
        return
    for p in tiles:
        if not np.allclose(A[p], A[:, p].T):
            raise ShapeError(f"loop matrix at {key.start} must be symmetric")


@dataclass
class GraphInstance:
    """A concrete iteration: graph, one matrix per edge pair, update
    functions, and initial iterates.

    matrices holds one array per unordered pair, keyed by a single
    direction; the reversed direction is served as the transpose.  Loop
    matrices must be symmetric, checked a tile at a time, with no
    N x N temporary.  scale_base[e] is the ensemble variance base of A_e
    (entries ~ 1/S_e); both directions of a pair share it.
    """

    graph: GraphSpec
    matrices: Dict[EdgeId, np.ndarray]
    provider: Provider
    x0: Dict[EdgeId, np.ndarray] = field(default_factory=dict)
    side: Dict[EdgeId, SideData] = field(default_factory=dict)
    scale_base: Dict[EdgeId, float] = field(default_factory=dict)

    def __post_init__(self):
        require_valid(self.graph)
        seen = set()
        for e in self.graph.edges:
            if e in self.matrices:
                key = e
            elif e.reversed() in self.matrices:
                key = e.reversed()
            else:
                raise GraphError(f"no matrix for edge {e}")
            seen.add(key)
            A = np.asarray(self.matrices[key])
            want = (self.graph.node_dim[key.end], self.graph.node_dim[key.start])
            if A.shape != want:
                raise ShapeError(f"matrix for {key} has shape {A.shape}, expected {want}")
            if key.is_loop():
                _loop_symmetry(A, key)
        extra = set(self.matrices) - seen
        if extra:
            raise GraphError(f"matrices for unknown edges: {sorted(str(e) for e in extra)}")

    def matrix(self, e: EdgeId) -> np.ndarray:
        """A_e, with A_{(w,v)} = A_{(v,w)}^T served by transposition."""
        if e in self.matrices:
            return np.asarray(self.matrices[e])
        return np.asarray(self.matrices[e.reversed()]).T

    def scale(self, e: EdgeId) -> float:
        if e in self.scale_base:
            return float(self.scale_base[e])
        if e.reversed() in self.scale_base:
            return float(self.scale_base[e.reversed()])
        return float(self.graph.N)

    def side_data(self, e: EdgeId) -> Optional[SideData]:
        return self.side.get(e)


@dataclass
class AmpTrajectory:
    """Per-edge history of iterates x^0..x^T, outputs m^0..m^{T-1}, and
    correction coefficients b^0..b^{T-1} (q_e x q_{e<-} each); forget
    leaves None in place of what it drops.  zero_start is set by the
    step 0 that wrote no nonzero output (see step)."""

    graph: GraphSpec
    x: Dict[EdgeId, List[np.ndarray]]
    m: Dict[EdgeId, List[np.ndarray]]
    b: Dict[EdgeId, List[np.ndarray]]
    zero_start: bool = False

    @property
    def T(self) -> int:
        e = next(iter(self.x))
        return len(self.x[e]) - 1


def initial_iterates(instance: GraphInstance) -> Dict[EdgeId, np.ndarray]:
    """x^0 of every edge in canonical order, zeros where not supplied."""
    g = instance.graph
    xs: Dict[EdgeId, np.ndarray] = {}
    for e in canonical_edge_order(g):
        v = np.asarray(instance.x0[e], dtype=float) if e in instance.x0 else np.zeros(g.x_shape(e))
        if v.shape != g.x_shape(e):
            raise ShapeError(f"x0 for {e} has shape {v.shape}, expected {g.x_shape(e)}")
        xs[e] = v
    return xs


def init(instance: GraphInstance) -> AmpTrajectory:
    """Trajectory holding x^0 (zeros where not supplied); step 0 judges it."""
    xs = initial_iterates(instance)
    return AmpTrajectory(graph=instance.graph, x={e: [v] for e, v in xs.items()},
                         m={e: [] for e in xs}, b={e: [] for e in xs})


def jacobian_sum(instance: GraphInstance, e: EdgeId, f: Nonlinearity,
                 inputs: List[np.ndarray]) -> np.ndarray:
    """J_e, the rowwise Jacobian of f^t_e at inputs summed with respect to
    the reversed input edge, of shape q_e x q_{e<-}."""
    g = instance.graph
    wrt = reversed_input_index(g, e)
    J = f.jacobian_trace(inputs, side=instance.side_data(e), wrt=wrt)
    J = np.atleast_2d(np.asarray(J, dtype=float))
    want = (g.q(e), g.q(e.reversed()))
    if J.shape != want:
        raise ShapeError(f"jacobian trace for {e} has shape {J.shape}, expected {want}")
    return J


def onsager(instance: GraphInstance, e: EdgeId, f: Nonlinearity,
            inputs: List[np.ndarray]) -> np.ndarray:
    """Correction coefficient b^t_e = J_e / S_e (J_e: jacobian_sum)."""
    return jacobian_sum(instance, e, f, inputs) / instance.scale(e)


def _live_blocks(f: Nonlinearity, m: np.ndarray, e: EdgeId, t: int) -> list:
    """The blocks of f.out_blocks holding a nonzero entry of m; their column
    slices are disjoint, so their nonzero counts add up to m's unless m
    has one outside them."""
    blocks = f.out_blocks or [(slice(None), slice(None))]
    counts = [(np.count_nonzero(m[rs, cs]), (rs, cs)) for rs, cs in blocks]
    if sum(n for n, _ in counts) != np.count_nonzero(m):
        raise ShapeError(f"f for {e} wrote a nonzero entry outside its out_blocks at step {t}")
    return [block for n, block in counts if n]


def panel_sweep(S: np.ndarray, m: Optional[np.ndarray] = None,
                m_rev: Optional[np.ndarray] = None):
    """(S @ m, S^T @ m_rev) in one pass over row panels of S; a side given
    as None is skipped and returned as None.

    S is a stored matrix or a column strip of one.  A panel has
    max(1, PANEL_ENTRIES // (q * cols)) rows, q the columns of m and
    m_rev together: one GEMM over a tall strip reads it about twice, a
    panel that small about once.  One side of one column is one call (a
    gemv streams S already).  S @ m is written a panel at a time, and
    S^T @ m_rev summed over the panels in row order, so the bits depend
    on the shapes alone.
    """
    q = sum(v.shape[1] for v in (m, m_rev) if v is not None)
    n = S.shape[0]
    rows = n if q == 1 else max(1, PANEL_ENTRIES // max(1, q * S.shape[1]))
    x = None if m is None else np.empty((n, m.shape[1]))
    x_rev = None
    for lo in range(0, n, rows):
        p = slice(lo, lo + rows)
        if m is not None:
            np.matmul(S[p], m, out=x[p])
        if m_rev is not None:
            if lo:
                x_rev += S[p].T @ m_rev[p]
            else:
                x_rev = S[p].T @ m_rev[p]
    return x, x_rev


def step(instance: GraphInstance, traj: AmpTrajectory) -> AmpTrajectory:
    """Advance every edge by one iteration (in place; returns traj).

    A_e is read only if some block of m^t_e is nonzero, else x^{t+1}_e
    is the correction term alone (zeros at t = 0).  A stored pair whose
    two directions both have a nonzero output, neither with declared
    out_blocks, reads its matrix once for both products.  Otherwise each
    live block is one panel_sweep: of the column strip S[:, rs] forward,
    of the stored rows S[rs, :] reversed.  An output with a nonzero entry
    outside its out_blocks raises ShapeError.  At t = 0 it warns, and sets
    traj.zero_start, when no edge has a live block: every x^1 is then
    zero, and odd maps keep the iteration at the all-zero fixed point.
    A NumericalError raised with no edge while f^t_e, m^t_e or b^t_e is
    formed gets e and t.
    """
    g = instance.graph
    t = traj.T
    order = canonical_edge_order(g)
    ms: Dict[EdgeId, np.ndarray] = {}
    bs: Dict[EdgeId, np.ndarray] = {}
    live: Dict[EdgeId, list] = {}
    whole = set()  # live, with no out_blocks declared
    b_prev = {e: traj.b[e][t - 1] for e in order} if t else None
    xs: Dict[EdgeId, np.ndarray] = {}
    # overflow and division by zero surface through the isfinite guards,
    # not as warnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for e in order:
            try:
                f = instance.provider(e, t, b_prev)
                inputs = [traj.x[ein][t] for ein in edges_into(g, e)]
                m = np.asarray(f.apply(inputs, side=instance.side_data(e)), dtype=float)
                if m.shape != g.m_shape(e):
                    raise ShapeError(f"f for {e} returned shape {m.shape}, "
                                     f"expected {g.m_shape(e)}")
                if not np.all(np.isfinite(m)):
                    raise NumericalError("update function produced non-finite values")
                ms[e] = m
                live[e] = _live_blocks(f, m, e, t)
                if live[e] and not f.out_blocks:
                    whole.add(e)
                bs[e] = onsager(instance, e, f, inputs)
            except NumericalError as ex:
                if ex.edge is None:
                    ex.edge, ex.t = str(e), t
                raise
        if t == 0 and not any(live.values()):
            traj.zero_start = True
            warnings.warn("step 0 wrote no nonzero output, so every x^1 is zero; odd "
                          "maps keep the iteration at the all-zero fixed point", stacklevel=2)
        for key in instance.matrices:
            rev = key.reversed()
            if not key.is_loop() and key in whole and rev in whole:
                xs[key], xs[rev] = panel_sweep(instance.matrix(key), ms[key], ms[rev])
        for e in order:
            x_new = xs.pop(e, None)
            if x_new is None:
                x_new = np.zeros(g.x_shape(e))
                if live[e]:
                    forward = e in instance.matrices
                    S = instance.matrix(e if forward else e.reversed())
                    for rs, cs in live[e]:
                        m = ms[e][rs, cs]
                        x_new[:, cs] = (panel_sweep(S[:, rs], m)[0] if forward
                                        else panel_sweep(S[rs], m_rev=m)[1])
            if t >= 1:
                x_new -= traj.m[e.reversed()][t - 1] @ bs[e].T
            if not np.all(np.isfinite(x_new)):
                raise NumericalError("iterate diverged (non-finite values)", edge=str(e), t=t + 1)
            traj.x[e].append(x_new)
            traj.m[e].append(ms[e])
            traj.b[e].append(bs[e])
    return traj


def forget(traj: AmpTrajectory, t: int) -> None:
    """Drop from traj, on every edge, what no step after step t reads.

    Step t + 1 reads only x^t, m^{t-1} and b^{t-1}, so x^{t-1}, m^{t-2}
    and b^{t-2} go.  The holder of a trajectory calls this once it is
    done with step t's iterates.
    """
    for e in traj.x:
        if t >= 1:
            traj.x[e][t - 1] = None
        if t >= 2:
            traj.m[e][t - 2] = traj.b[e][t - 2] = None


def run(instance: GraphInstance, T: int,
        each: Optional[Callable[[int, AmpTrajectory], None]] = None) -> AmpTrajectory:
    """Run T steps from x^0 and return the trajectory (step 0 may warn).

    Without each, it holds the whole history.  With each, the run
    streams: each(t, traj) is called on x^0 and as every step t returns,
    while x^{t-1}, m^{t-2} and b^{t-2} are still held, and then forget
    drops them.
    """
    traj = init(instance)
    if each is not None:
        each(0, traj)
    for t in range(1, T + 1):
        step(instance, traj)
        if each is not None:
            each(t, traj)
            forget(traj, t)
    return traj


@dataclass(frozen=True)
class Observable:
    """Scalar functional of the iterate family at a fixed time.

    fn receives ({edge: x^t_e}, t); the same callable is evaluated on
    iterates and on Gaussian families sampled from the limit covariance,
    so it must not read anything but its arguments and captured
    constants (e.g. a teacher signal).
    """

    name: str
    fn: Callable[[Mapping[EdgeId, np.ndarray], int], float]

    def __call__(self, xs: Mapping[EdgeId, np.ndarray], t: int) -> float:
        return float(self.fn(xs, t))


def norm_sq_observable(e: EdgeId, scale: float = 1.0, name: Optional[str] = None) -> Observable:
    """(scale) * ||x_e||_F^2."""
    label = name or f"norm_sq[{e}]"
    return Observable(label, lambda xs, t, _e=e, _s=scale: _s * float(np.sum(xs[_e] ** 2)))


def observe(traj: AmpTrajectory, observables: Sequence[Observable],
            times: Optional[Sequence[int]] = None) -> List[dict]:
    """Evaluate observables along the trajectory; one record per (t, name)."""
    ts = list(times) if times is not None else list(range(traj.T + 1))
    records = []
    for t in ts:
        xs = {e: traj.x[e][t] for e in traj.x}
        for obs in observables:
            records.append({"t": t, "observable": obs.name, "value": obs(xs, t)})
    return records

