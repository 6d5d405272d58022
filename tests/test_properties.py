"""Invariants that hold by construction, checked on random symmetric
graphs: loops and pairs over up to three vertices, dims 3-40 (200-240
where the SE budget must reach the Gauss-Hermite grid), q 1-3, entrywise
(optionally column-mixed) update functions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphamp.embedding import (embed, onsager_block_pattern_err,
                                run_symmetric, verify_equivalence)
from graphamp.engine import GraphInstance, run, stationary_provider
from graphamp.ensembles import normals, sample_goe, sample_iid, stream
from graphamp.graphs import EdgeId, GraphSpec, canonical_edge_order, edges_into
from graphamp.nonlinearity import Entrywise, EntrywiseThenMix, Nonlinearity
from graphamp.prox import soft_threshold
from graphamp.state_evolution import GRID_NODES, se_run

PHIS = {
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "sin": (np.sin, np.cos),
    "soft": (lambda x: soft_threshold(x, 0.3),
             lambda x: (np.abs(x) > 0.3).astype(float)),
}


class OnBlock(Nonlinearity):
    """inner applied to input block k of an edge with several inputs;
    the Jacobian sum with respect to every other block is zero."""

    row_local = True

    def __init__(self, inner, k, arity, out_cols):
        self.inner, self.k, self.arity, self.out_cols = inner, k, arity, out_cols

    def apply(self, inputs, side=None):
        return self.inner.apply([inputs[self.k]], side)

    def jacobian_trace(self, inputs, side=None, wrt=0):
        if wrt == self.k:
            return self.inner.jacobian_trace([inputs[self.k]], side)
        return np.zeros((self.out_cols, inputs[wrt].shape[1]))


@st.composite
def symmetric_instances(draw, dims=(3, 40)):
    V = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(V)]
    loops = [EdgeId(v, v) for v in names if draw(st.booleans())]
    pairs = [EdgeId(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if draw(st.booleans())]
    if not loops and not pairs:
        loops = [EdgeId(names[0], names[0])]
    keys = loops + pairs
    used = sorted({v for e in keys for v in (e.start, e.end)})
    node_dim = {v: draw(st.integers(*dims)) for v in used}
    cols = {}
    for e in keys:
        cols[e] = cols[e.reversed()] = draw(st.integers(1, 3))
    g = GraphSpec(node_dim=node_dim, edges=frozenset(cols), edge_cols=cols)

    seed = draw(st.integers(0, 2 ** 16))
    matrices, scale = {}, {}
    for e in keys:
        rng = stream(seed, "matrix", str(e))
        n_in = node_dim[e.start]
        if e.is_loop():
            matrices[e] = sample_goe(n_in, rng, scale_N=n_in)
        else:
            matrices[e] = sample_iid(node_dim[e.end], n_in, n_in, rng)
        scale[e] = float(n_in)

    fns = {}
    for e in canonical_edge_order(g):
        ins = edges_into(g, e)
        k = draw(st.integers(0, len(ins) - 1))
        q_in, q_out = g.q(ins[k]), g.q(e)
        phi, dphi = PHIS[draw(st.sampled_from(sorted(PHIS)))]
        if q_in != q_out or draw(st.booleans()):
            R = normals(stream(seed, "mix", str(e)), (q_in, q_out))
            f = EntrywiseThenMix(phi, dphi, R)
        else:
            f = Entrywise(phi, dphi)
        fns[e] = f if len(ins) == 1 else OnBlock(f, k, len(ins), q_out)

    x0 = {e: normals(stream(seed, "x0", str(e)), g.x_shape(e))
          for e in g.edges}
    instance = GraphInstance(graph=g, matrices=matrices,
                             provider=stationary_provider(fns), x0=x0,
                             scale_base=scale)
    return instance, draw(st.integers(1, 5)), seed


@settings(derandomize=True, max_examples=40, deadline=None)
@given(symmetric_instances())
def test_random_graphs_embed_exactly(case):
    instance, T, seed = case
    g = instance.graph
    order = canonical_edge_order(g)
    assert len(order) == len(g.edges) and set(order) == set(g.edges)

    for fill in ("goe", "zero"):
        assert verify_equivalence(instance, T, seed=seed, fill=fill).max_err <= 1e-10

    graph_traj = run(instance, T, allow_degenerate=True)
    emb = embed(instance, seed=seed, fill="zero", graph_traj=graph_traj)
    sym = run_symmetric(emb, T)
    for t in range(T):
        f = emb.symmetric.provider(emb.loop_edge, t, sym)
        B = f.jacobian_trace([sym.x[emb.loop_edge][t]])
        assert onsager_block_pattern_err(emb.layout, B) == 0.0


def _assert_symmetric_psd(cov, instance):
    for e in instance.graph.edges:
        K = cov.K[e]
        q = K.shape[-1]
        for t in range(1, cov.T + 1):
            # the kernel of times 1..t is the leading t x t block
            C = K[:t, :t].transpose(0, 2, 1, 3).reshape(t * q, t * q)
            tol = 1e-12 * np.trace(C)
            assert np.abs(C - C.T).max() <= tol, (e, t)
            assert np.linalg.eigvalsh(C)[0] >= -tol, (e, t)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(symmetric_instances())
def test_random_graph_se_kernels_are_symmetric_psd(case):
    instance, T, seed = case
    _assert_symmetric_psd(se_run(instance, T, reps=16, seed=seed), instance)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(symmetric_instances(dims=(200, 240)))
def test_random_graph_se_kernels_are_symmetric_psd_on_the_grid(case):
    # a budget above the grid size at every node: edges with at most two
    # input columns take the grid, wider ones stay on Monte Carlo
    instance, T, seed = case
    reps = GRID_NODES // 200 + 1
    _assert_symmetric_psd(se_run(instance, T, reps=reps, seed=seed), instance)
