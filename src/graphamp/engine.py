"""Message-passing iteration on a symmetric directed graph.

Each directed edge e = (v, w) carries an iterate x_e with n_w rows and
q_e columns.  One step computes, for every edge,

    m^t_e = f^t_e((x^t_{e'})_{e' -> e})          (inputs: edges ending at v)
    b^t_e = J_e / S_e,  J_e = sum_i d f^t_{e,i} / d x^t_{e<-,i}
    x^{t+1}_e = A_e m^t_e - m^{t-1}_{e<-} (b^t_e)^T

where e<- is the reversed edge and S_e is the edge's variance base
(the scale_N of its matrix ensemble; defaults to the global N).  The
t = 0 update has no correction term (m^{-1} = 0).

The product is formed as x_e[:, cs] = A_e[:, rs] m^t_e[rs, cs] over the
blocks (rs, cs) of f.out_blocks that hold a nonzero entry (no blocks
declared: one covering m^t_e).  An all-zero output, as in the off phase
of a two-phase chain, leaves A_e unread, and a non-finite entry of A_e
is caught only at a step whose nonzero blocks read its column.

When both directions of a stored pair (not a loop) have a nonzero
output and neither declares out_blocks, the two products share one
pass over the stored matrix S, PANEL_ROWS rows at a time (_pair_sweep):
each panel S[p] gives x[p] = S[p] m and adds S[p]^T m_rev[p] to the
reversed product.  The packing buffer then scales with a panel, not
with S.  A pair of at most PANEL_ROWS rows makes the per-block calls
exactly; a taller one sums its reversed product panel by panel, in a
fixed order, so it can differ from one BLAS call in the last bits.
Loops, declared blocks and pairs with one live direction, such as
every step of a two-phase chain, take one product per live block
(strip_product).  With q >= 2 columns it runs in row panels of at most
PANEL_ENTRIES entries of q x rows x cols, each one BLAS call writing
its own rows: no sum runs across panels, but a panelled product can
differ from one call over the strip in the last bits.

Each block product is taken as (m^T S^T)^T with S = A_e[:, rs]
(block_product).  On the reversed direction of a pair, served as the
transpose of the stored matrix, S^T is a block of stored rows, which
BLAS streams instead of striding across columns.  A loop matrix that is
exactly symmetric has its column strip read as the row strip
A_e[rs, :]^T, the same values, so it is streamed too; one that is only
allclose-symmetric is read as stored.  A row strip is summed in another
order than the column strip when q = 1, so such a loop product can
differ from S @ m in the last bits.

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

# Rows per panel: of the stored matrix that _pair_sweep reads, of a loop
# matrix's symmetry check, and of sample_goe's G + G^T.
PANEL_ROWS = 256

# Entries, q x rows x cols, of one panel of a single-direction product
# (strip_product).  OpenBLAS appears to skip its packing pass on a GEMM
# this small: the bound is inferred from timings, not from its source.
PANEL_ENTRIES = 1 << 19


def stationary_provider(fns: Mapping[EdgeId, Nonlinearity]) -> Provider:
    """Provider for time-independent update functions."""
    table = dict(fns)

    def provider(edge, t, b):
        return table[edge]

    return provider


def _loop_symmetry(A: np.ndarray, key: EdgeId) -> bool:
    """Whether loop matrix A is exactly symmetric; ShapeError unless it
    is allclose to its transpose.  The exact pass compares each pair of
    PANEL_ROWS tiles P <= Q once, A[P, Q] with A[Q, P]^T.  Only if some
    tile differs does allclose, which sets what passes, compare each row
    panel A[p] with the column strip A[:, p]^T.  No temporary is larger
    than a panel."""
    tiles = [slice(lo, lo + PANEL_ROWS) for lo in range(0, A.shape[0], PANEL_ROWS)]
    if all(np.array_equal(A[P, Q], A[Q, P].T) for i, P in enumerate(tiles) for Q in tiles[i:]):
        return True
    for p in tiles:
        if not np.allclose(A[p], A[:, p].T):
            raise ShapeError(f"loop matrix at {key.start} must be symmetric")
    return False


@dataclass
class GraphInstance:
    """A concrete iteration: graph, one matrix per edge pair, update
    functions, and initial iterates.

    matrices holds one array per unordered pair, keyed by a single
    direction; the reversed direction is served as the transpose.  Loop
    matrices must be symmetric, checked a tile at a time, with no
    N x N temporary; exact_symmetric lists the exactly symmetric ones,
    whose products read row strips.  scale_base[e] is the ensemble variance
    base of A_e (entries ~ 1/S_e); both directions of a pair share it.
    """

    graph: GraphSpec
    matrices: Dict[EdgeId, np.ndarray]
    provider: Provider
    x0: Dict[EdgeId, np.ndarray] = field(default_factory=dict)
    side: Dict[EdgeId, SideData] = field(default_factory=dict)
    scale_base: Dict[EdgeId, float] = field(default_factory=dict)
    exact_symmetric: set = field(init=False, default_factory=set, repr=False, compare=False)

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
            if key.is_loop() and _loop_symmetry(A, key):
                self.exact_symmetric.add(key)
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


def block_product(S: np.ndarray, m: np.ndarray) -> np.ndarray:
    """S @ m, taken as (m^T S^T)^T so that BLAS reads S^T.

    The same values as np.matmul(S, m) up to rounding.  When S is a
    transposed view of row-major storage, S^T is that storage, and a
    skinny m streams it instead of striding across it.
    """
    return (m.T @ S.T).T


def strip_product(S: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """out[...] = S @ m, in row panels of S when m has q >= 2 columns.

    A panel has max(1, PANEL_ENTRIES // (q * cols)) rows, and it is one
    block_product call that writes its own rows of out, so no sum runs
    across panels and the order of the panels does not matter.  One
    GEMM over a tall strip reads S about twice; a panel that small is
    taken in about one pass.  One call is kept for q = 1 (a gemv, which
    streams S already), for a strip of one panel, and for a transposed
    view with q >= 3, whose panels are too short a run of each stored
    row to stream.
    """
    q = m.shape[1]
    rows = max(1, PANEL_ENTRIES // max(1, q * S.shape[1]))
    transposed = S.strides[0] < S.strides[1]
    if q == 1 or (q > 2 and transposed) or S.shape[0] <= rows:
        out[...] = block_product(S, m)
        return
    for lo in range(0, S.shape[0], rows):
        out[lo:lo + rows] = block_product(S[lo:lo + rows], m)


def _pair_sweep(S: np.ndarray, m: np.ndarray, m_rev: np.ndarray):
    """(S @ m, S^T @ m_rev) in one pass over S, PANEL_ROWS rows at a time.

    Each panel makes the block_product calls of its rows; the reversed
    product is assigned from the first panel and summed over the rest in
    row order.
    """
    x = np.zeros((S.shape[0], m.shape[1]))
    x_rev = np.zeros((S.shape[1], m_rev.shape[1]))
    for lo in range(0, S.shape[0], PANEL_ROWS):
        p = slice(lo, lo + PANEL_ROWS)
        x[p] = block_product(S[p], m)
        if lo:
            x_rev += block_product(S[p].T, m_rev[p])
        else:
            x_rev[:] = block_product(S[p].T, m_rev[p])
    return x, x_rev


def step(instance: GraphInstance, traj: AmpTrajectory) -> AmpTrajectory:
    """Advance every edge by one iteration (in place; returns traj).

    A_e is read only if some block of m^t_e is nonzero, else x^{t+1}_e
    is the correction term alone (zeros at t = 0).  A stored pair whose
    two directions both have a nonzero output, neither with declared
    out_blocks, reads its matrix once for both products (_pair_sweep).
    Otherwise each live block is assigned strip_product(A_e[:, rs],
    m^t_e[rs, cs]), in row panels when it has q >= 2 columns; an
    exactly symmetric loop passes its row strip A_e[rs, :]^T instead.
    An output with a nonzero entry outside its out_blocks raises
    ShapeError.  At t = 0 it warns, and sets
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
                xs[key], xs[rev] = _pair_sweep(instance.matrix(key), ms[key], ms[rev])
        for e in order:
            x_new = xs.pop(e, None)
            if x_new is None:
                x_new = np.zeros(g.x_shape(e))
                if live[e]:
                    A = instance.matrix(e)
                    by_rows = e in instance.exact_symmetric
                    for rs, cs in live[e]:
                        S = A[rs, :].T if by_rows else A[:, rs]
                        strip_product(S, ms[e][rs, cs], x_new[:, cs])
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

