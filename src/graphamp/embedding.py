"""Reduction of a graph iteration to one symmetric matrix iteration.

The graph instance is flattened into a single loop: one symmetric
N x N matrix (N the sum of per-edge row counts), one iterate matrix
with a column block per edge, and one update function that applies
every per-edge function to its designated blocks and writes zeros
elsewhere.  Tracked blocks of the big iterate then reproduce the graph
iterates exactly, step for step; untracked blocks carry independent
Gaussian noise that never couples back.

Edges with a non-default variance base S are rescaled on the way in
(A -> A sqrt(S/N), f -> sqrt(N/S) f), which leaves the x-iterates
unchanged but makes every block of the big matrix variance-1/N.

The big matrix is symmetric bit for bit when the source's loop matrices
are, so the instance's symmetry check ends after its exact tile pass.

The flattened iteration runs on its own: a provider that adapts to the
run reads its b^{t-1} from the flattened loop's Onsager coefficient,
converted block by block (see EmbeddedNonlinearity).

verify_equivalence runs the graph side and the flattened side on two
threads, each as one streaming engine.run; each side's arithmetic is
that of a run of one after the other, so the report has the same bits.
Each side keeps only what its next step reads (engine.forget).  The
graph side hands each step's iterates to the comparison, which reads
them as the flattened side's steps return.  The graph side may run
ahead, and the iterates it has handed over that the comparison has not
read yet stay alive; the check holds those, the flattened matrix and
the instance.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import engine
from .engine import GraphInstance
from .ensembles import draw_rows, sample_goe, stream
from .errors import GraphError
from .graphs import EdgeId, GraphSpec, canonical_edge_order, edges_into, single_loop
from .nonlinearity import Nonlinearity

# gate on the largest normalized block discrepancy of verify_equivalence
EMBED_TOL = 1e-10


@dataclass(frozen=True)
class BlockLayout:
    """Row and column block positions of each edge inside the flattened
    iterate.  Row block e has the rows of x_e (n_end(e) of them); column
    block e has q_e columns.  Blocks follow canonical edge order."""

    order: tuple
    row_slices: Dict[EdgeId, slice]
    col_slices: Dict[EdgeId, slice]
    N: int
    q_tot: int

    @classmethod
    def from_graph(cls, g: GraphSpec) -> "BlockLayout":
        order = canonical_edge_order(g)
        rows: Dict[EdgeId, slice] = {}
        cols: Dict[EdgeId, slice] = {}
        r = c = 0
        for e in order:
            nr = g.node_dim[e.end]
            rows[e] = slice(r, r + nr)
            cols[e] = slice(c, c + g.q(e))
            r += nr
            c += g.q(e)
        return cls(order=order, row_slices=rows, col_slices=cols, N=r, q_tot=c)

    def x_block(self, X: np.ndarray, e: EdgeId) -> np.ndarray:
        return X[self.row_slices[e], self.col_slices[e]]


class EmbeddedNonlinearity(Nonlinearity):
    """One time-slice of the flattened update function.

    Reads block (rows(e'), cols(e')) for each input edge e' of e,
    applies f_e, writes sqrt(N/S_e) m_e at (rows(reversed e), cols(e)),
    its out_blocks, and zeros everywhere else, so the engine multiplies
    only the live blocks.  The diagonal Jacobian sum is assembled from
    the per-edge sums of engine.jacobian_sum.

    b is the flattened loop's b^{t-1} (q_tot x q_tot; None at t = 0).
    Its block (cols(e), cols(e<-)) is sqrt(N/S_e) J_e / N, so times
    sqrt(N/S_e) it is the graph coefficient b_e = J_e / S_e, which the
    source provider reads.
    """

    def __init__(self, source: GraphInstance, layout: BlockLayout, t: int,
                 b: Optional[np.ndarray]):
        self.source = source
        self.layout = layout
        self.arity = 1
        self.out_cols = layout.q_tot
        self._scale = {e: math.sqrt(layout.N / source.scale(e)) for e in layout.order}
        self.out_blocks = [(layout.row_slices[e.reversed()], layout.col_slices[e])
                           for e in layout.order]
        graph_b = None if b is None else {
            e: self._scale[e] * b[layout.col_slices[e], layout.col_slices[e.reversed()]]
            for e in layout.order}
        self._fns = {e: source.provider(e, t, graph_b) for e in layout.order}

    def _edge_inputs(self, X: np.ndarray, e: EdgeId) -> List[np.ndarray]:
        return [self.layout.x_block(X, ein) for ein in edges_into(self.source.graph, e)]

    def apply(self, inputs, side=None):
        (X,) = inputs
        lay = self.layout
        M = np.zeros((lay.N, lay.q_tot))
        for e in lay.order:
            m = np.asarray(self._fns[e].apply(self._edge_inputs(X, e), side=self.source.side_data(e)))
            M[lay.row_slices[e.reversed()], lay.col_slices[e]] = self._scale[e] * m
        return M

    def jacobian_trace(self, inputs, side=None, wrt=0):
        (X,) = inputs
        lay = self.layout
        B = np.zeros((lay.q_tot, lay.q_tot))
        for e in lay.order:
            J = engine.jacobian_sum(self.source, e, self._fns[e], self._edge_inputs(X, e))
            B[lay.col_slices[e], lay.col_slices[e.reversed()]] = self._scale[e] * J
        return B


@dataclass
class EmbeddedInstance:
    """The flattened instance: a single-loop graph iteration whose matrix
    is the filled block matrix and whose update function is the
    per-edge dispatcher."""

    symmetric: GraphInstance
    layout: BlockLayout
    source: GraphInstance

    @property
    def loop_edge(self) -> EdgeId:
        return next(iter(self.symmetric.graph.edges))


def _check_pair_scales(instance: GraphInstance) -> None:
    for e in instance.graph.edges:
        if not math.isclose(instance.scale(e), instance.scale(e.reversed())):
            raise GraphError(
                f"edges {e} and {e.reversed()} have different variance bases; "
                "the flattening rescale needs them equal"
            )


def _goe_fill(lay: BlockLayout, rng: np.random.Generator) -> np.ndarray:
    """A GOE(N) matrix drawn only on the blocks embed does not overwrite.

    Each untracked diagonal block gets a GOE(n) block, each untracked
    off-diagonal pair an iid N(0, 1/N) block and its transpose, in
    layout order; the tracked blocks stay zero.  Every block is drawn in
    place, a block of rows at a time (sample_goe, draw_rows), so A is
    the only N x N array.
    """
    N = lay.N
    A = np.zeros((N, N))
    for i, e in enumerate(lay.order):
        rows_e = lay.row_slices[e]
        for f in lay.order[i:]:
            if f == e.reversed():
                continue
            rows_f = lay.row_slices[f]
            if f == e:
                sample_goe(rows_e.stop - rows_e.start, rng, scale_N=N, out=A[rows_e, rows_e])
            else:
                draw_rows(A[rows_e, rows_f], rng, N)
                A[rows_f, rows_e] = A[rows_e, rows_f].T
    return A


def embed(instance: GraphInstance, seed: int = 0) -> EmbeddedInstance:
    """Flatten a graph instance into a single symmetric iteration.

    The untracked blocks are the matching blocks of a GOE(N) matrix
    drawn from seed (_goe_fill), which makes the flattening a genuine
    Gaussian symmetric instance; iterates of tracked blocks do not
    depend on them.
    """
    _check_pair_scales(instance)
    g = instance.graph
    lay = BlockLayout.from_graph(g)
    N = lay.N
    A = _goe_fill(lay, stream(seed, "embed", "fill"))

    done = set()
    for e in lay.order:
        if e in done:
            continue
        rows, cols = lay.row_slices[e], lay.row_slices[e.reversed()]
        block = np.multiply(instance.matrix(e), math.sqrt(instance.scale(e) / N), out=A[rows, cols])
        if not e.is_loop():
            A[cols, rows] = block.T
        done.add(e)
        done.add(e.reversed())

    X0 = np.zeros((N, lay.q_tot))
    for e in lay.order:
        if e in instance.x0:
            X0[lay.row_slices[e], lay.col_slices[e]] = instance.x0[e]

    loop = single_loop("flat", N, q=lay.q_tot)
    loop_edge = next(iter(loop.edges))

    def provider(edge, t, b):
        return EmbeddedNonlinearity(instance, lay, t, None if b is None else b[edge])

    sym = GraphInstance(
        graph=loop,
        matrices={loop_edge: A},
        provider=provider,
        x0={loop_edge: X0},
    )
    return EmbeddedInstance(symmetric=sym, layout=lay, source=instance)


def run_symmetric(emb: EmbeddedInstance, T: int,
                  each: Callable[[int, np.ndarray], None]) -> None:
    """Run the flattened iteration for T steps from X^0, calling
    each(t, X^t) on every iterate as its step returns.

    The run streams (engine.run with a callback), so it keeps only what
    its next step reads and the flattened history is never held whole;
    engine.run(emb.symmetric, T) keeps it all.
    """
    e = emb.loop_edge
    engine.run(emb.symmetric, T, each=lambda t, traj: each(t, traj.x[e][t]))


@dataclass
class EquivalenceReport:
    """Blockwise comparison of flattened vs. graph iterates."""

    max_err: float
    records: List[dict] = field(default_factory=list)

    def ok(self) -> bool:
        return self.max_err <= EMBED_TOL


def verify_equivalence(instance: GraphInstance, T: int, seed: int = 0) -> EquivalenceReport:
    """Run both sides for T steps and compare every tracked block.

    Per (t, e) error is ||X^t block - x^t_e||_F / (1 + ||x^t_e||_F).
    The graph side runs on a worker thread while the calling thread
    builds and runs the flattening; both stream through engine.run, so
    neither history is held whole.  The graph side hands {e: x^t_e} to
    the comparison as its step t returns, and the comparison of step t
    waits for it.  The graph side may run any number of steps ahead:
    what it has handed over and the comparison has not read yet stays
    alive until it is compared.

    Errors come out as if the graph run had finished first: a graph-side
    exception is re-raised unchanged and wins over the flattened side's.
    The worker is joined before this returns or raises.
    """
    handed = queue.SimpleQueue()
    failed: List[BaseException] = []

    def graph_side() -> None:
        try:
            engine.run(instance, T,
                       each=lambda t, traj: handed.put({e: xs[t] for e, xs in traj.x.items()}))
        except BaseException as ex:  # re-raised on the calling thread
            failed.append(ex)
            handed.put(ex)

    report = EquivalenceReport(max_err=0.0)

    def compare(t: int, X: np.ndarray) -> None:
        xs = handed.get()
        if failed:
            raise failed[0]
        for e in emb.layout.order:
            ref = xs[e]
            err = float(np.linalg.norm(emb.layout.x_block(X, e) - ref) / (1.0 + np.linalg.norm(ref)))
            report.records.append({"t": t, "edge": str(e), "err": err})
            # overflowing norms give inf / inf: a block that cannot be compared fails
            report.max_err = max(report.max_err, math.inf if math.isnan(err) else err)

    worker = threading.Thread(target=graph_side, name="graph-side")
    worker.start()
    try:
        emb = embed(instance, seed=seed)
        run_symmetric(emb, T, each=compare)
    finally:
        worker.join()
        if failed:
            raise failed[0]
    return report

