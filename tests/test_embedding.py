import math
import weakref

import numpy as np

from graphamp import (CommitteeModel, MultilayerModel, SpikedModel,
                      build_committee_instance, build_multilayer_instance,
                      build_spiked_instance, ensembles, lasso_model,
                      layer_specs)
from graphamp.embedding import (BlockLayout, embed, onsager_block_pattern_err,
                                run_symmetric, verify_equivalence)
from graphamp.engine import run
from graphamp.graphs import EdgeId, line_graph
from graphamp.models.glm import build_gamp_instance

from helpers import default_prior


def _small_glm():
    model = lasso_model(d=90, n=45, lam=1.2, prior=default_prior(), sigma=0.5)
    inst, _ = build_gamp_instance(model, seed=3)
    return inst


def test_layout_blocks_partition_the_flattened_dimension():
    g = line_graph(["z0", "z1", "z2"], [5, 4, 3])
    layout = BlockLayout.from_graph(g)
    # one row block of size n_end(e) per directed edge: 4 + 5 + 3 + 4
    assert layout.N == 16
    assert layout.q_tot == 4
    covered = np.zeros(layout.N, dtype=int)
    for e in layout.order:
        s = layout.row_slices[e]
        assert s.stop - s.start == g.node_dim[e.end]
        covered[s] += 1
    assert np.all(covered == 1)
    X = np.zeros((layout.N, layout.q_tot))
    for e in g.edges:
        blk = layout.x_block(X, e)
        assert blk.shape == (g.node_dim[e.end], g.q(e))


def test_scalar_chain_equivalence_is_machine_exact():
    rep = verify_equivalence(_small_glm(), T=10, seed=0)
    assert rep.max_err <= 1e-12
    assert rep.ok(1e-10)


def test_matrix_valued_equivalence_is_machine_exact():
    inst, _ = build_committee_instance(CommitteeModel(d=80, n=60), seed=1)
    rep = verify_equivalence(inst, T=10, seed=0)
    assert rep.max_err <= 1e-12


def test_equivalence_independent_of_fill():
    inst = _small_glm()
    for fill in ("goe", "zero"):
        rep = verify_equivalence(inst, T=6, seed=5, fill=fill)
        assert rep.max_err <= 1e-12


def test_equivalence_records_cover_all_times_and_edges():
    inst = _small_glm()
    T = 5
    rep = verify_equivalence(inst, T=T, seed=0)
    keyed = {(r["t"], r["edge"]) for r in rep.records}
    assert len(keyed) == (T + 1) * len(inst.graph.edges)


def test_symmetric_onsager_respects_block_pattern():
    inst = _small_glm()
    graph_traj = run(inst, 8, allow_degenerate=True)
    emb = embed(inst, seed=0, graph_traj=graph_traj)
    sym_traj = run(emb.symmetric, 8, allow_degenerate=True)
    for t in range(1, 8):
        B = sym_traj.b[emb.loop_edge][t]
        assert onsager_block_pattern_err(emb.layout, B) <= 1e-12


def test_streamed_comparison_matches_the_whole_trajectory():
    inst = _small_glm()
    T = 6
    rep = verify_equivalence(inst, T=T, seed=2)
    graph_traj = run(inst, T, allow_degenerate=True)
    emb = embed(inst, seed=2, graph_traj=graph_traj)
    loop = emb.loop_edge
    whole = run(emb.symmetric, T, allow_degenerate=True)
    errs = [float(np.linalg.norm(emb.tracked_block(whole.x[loop][t], e) - graph_traj.x[e][t])
                  / (1.0 + np.linalg.norm(graph_traj.x[e][t])))
            for t in range(T + 1) for e in emb.layout.order]
    assert [r["err"] for r in rep.records] == errs

    seen, refs = [], []

    def each(t, X):
        assert np.array_equal(X, whole.x[loop][t])
        seen.append(t)
        refs.append(weakref.ref(X))
        # x^{t-1} is released once each returns, and nothing older but
        # x^0, which the instance holds, is alive
        assert all(r() is None for r in refs[1:-2])

    run_symmetric(emb, T, each)
    assert seen == list(range(T + 1))


def _fill_instances():
    ml = MultilayerModel(d0=60, layers=layer_specs([50, 40], ["linear", "relu"]))
    yield build_multilayer_instance(ml, seed=0)[0]
    # a loop edge: its diagonal block is tracked
    yield build_spiked_instance(SpikedModel(N=80, lam=2.5, gen_dims=(30,),
                                            gen_activation="tanh"), seed=0)[0]


def test_goe_fill_draws_only_the_untracked_blocks(monkeypatch):
    draws, normals = [], ensembles.normals

    def counted(rng, shape):
        out = normals(rng, shape)
        draws.append(out.size)
        return out

    monkeypatch.setattr(ensembles, "normals", counted)
    for inst in _fill_instances():
        draws.clear()
        emb = embed(inst, seed=4)
        lay, A = emb.layout, emb.symmetric.matrix(emb.loop_edge)
        n = {e: lay.row_slices[e].stop - lay.row_slices[e].start for e in lay.order}
        assert np.array_equal(A, A.T)
        untracked = np.ones(A.shape, dtype=bool)
        for e in lay.order:
            block = A[lay.row_slices[e], lay.row_slices[e.reversed()]]
            ref = inst.matrix(e) * math.sqrt(inst.scale(e) / lay.N)
            assert np.array_equal(block, ref)
            untracked[lay.row_slices[e], lay.row_slices[e.reversed()]] = False
        # a GOE(n) block draws n^2 normals for each untracked diagonal
        # block, and an off-diagonal pair draws one of its two mirror blocks
        diag = sum(n[e] ** 2 for e in lay.order if not e.is_loop())
        assert sum(draws) == diag + (untracked.sum() - diag) // 2
        off = np.triu(untracked, k=1)
        assert abs(A[off].var() * lay.N - 1.0) < 0.05
