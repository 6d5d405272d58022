import dataclasses
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from graphamp import embedding, engine
from graphamp import (CommitteeModel, GmmSpatialModel, MultilayerModel,
                      SpikedModel, build_committee_instance,
                      build_gmm_spatial_instance, build_multilayer_instance,
                      build_spiked_instance, ensembles, lasso_model,
                      layer_specs)
from graphamp.embedding import (BlockLayout, embed, run_symmetric,
                                verify_equivalence)
from graphamp.engine import run
from graphamp.errors import GraphError, NumericalError
from graphamp.graphs import canonical_edge_order, line_graph
from graphamp.models.glm import build_gamp_instance
from graphamp.nonlinearity import Nonlinearity

from checks import onsager_block_pattern_err
from helpers import StepRecorder, bounded_call, default_prior, traced_peak


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
    assert rep.ok()


def test_matrix_valued_equivalence_is_machine_exact():
    inst, _ = build_committee_instance(CommitteeModel(d=80, n=60), seed=1)
    rep = verify_equivalence(inst, T=10, seed=0)
    assert rep.max_err <= 1e-12


def test_panelled_three_column_equivalence_holds():
    # q = 3 on both sides; the graph side's 360 x 900 design is taller
    # than a panel, so its forward products run in row panels
    model = GmmSpatialModel(K=3, d=300, n_per_cluster=120, coupling=0.3)
    inst, _ = build_gmm_spatial_instance(model, seed=2)
    assert 3 * 900 * 360 > engine.PANEL_ENTRIES
    rep = verify_equivalence(inst, T=10, seed=0)
    assert rep.max_err <= 1e-10
    assert rep.ok()


def test_equivalence_independent_of_fill():
    # two embed seeds fill the untracked blocks with two different GOE
    # draws, and neither couples back into the tracked iterates
    inst = _small_glm()
    fills = [embed(inst, seed=s).symmetric.matrices for s in (5, 6)]
    assert not any(np.array_equal(fills[0][e], fills[1][e]) for e in fills[0])
    for s in (5, 6):
        rep = verify_equivalence(inst, T=6, seed=s)
        assert rep.max_err <= 1e-12


def test_equivalence_records_cover_all_times_and_edges():
    inst = _small_glm()
    T = 5
    rep = verify_equivalence(inst, T=T, seed=0)
    keyed = {(r["t"], r["edge"]) for r in rep.records}
    assert len(keyed) == (T + 1) * len(inst.graph.edges)


def test_symmetric_onsager_respects_block_pattern():
    inst = _small_glm()
    emb = embed(inst, seed=0)
    sym_traj = run(emb.symmetric, 8)
    for t in range(1, 8):
        B = sym_traj.b[emb.loop_edge][t]
        assert onsager_block_pattern_err(emb.layout, B) <= 1e-12


def _block_errs(emb, flat, graph, T):
    """verify_equivalence's records for whole trajectories of both sides."""
    return [{"t": t, "edge": str(e),
             "err": float(np.linalg.norm(emb.layout.x_block(flat.x[emb.loop_edge][t], e)
                                         - graph.x[e][t]) / (1.0 + np.linalg.norm(graph.x[e][t])))}
            for t in range(T + 1) for e in emb.layout.order]


def test_streamed_comparison_matches_the_whole_trajectory():
    inst = _small_glm()
    T = 6
    rep = verify_equivalence(inst, T=T, seed=2)
    emb = embed(inst, seed=2)
    loop = emb.loop_edge
    whole = run(emb.symmetric, T)
    assert rep.records == _block_errs(emb, whole, run(inst, T), T)

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


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so that an unsynchronized read
    of the graph side's iterates would land mid-step."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _sequential_records(inst, T, seed):
    """The comparison run one side after the other."""
    emb = embed(inst, seed=seed)
    return _block_errs(emb, run(emb.symmetric, T),
                       run(inst, T), T)


def _small_gmm():
    model = GmmSpatialModel(K=2, d=30, n_per_cluster=20, coupling=0.3)
    return build_gmm_spatial_instance(model, seed=1)[0]


@pytest.mark.parametrize("make", [_small_glm, _small_gmm], ids=["glm", "gmm_spatial"])
def test_concurrent_sides_match_the_sequential_reference(make, fast_switching):
    # both are two-phase chains; the comparison reads the graph iterates
    # handed over while the graph side keeps stepping
    inst, T = make(), 12
    rep = bounded_call(verify_equivalence, inst, T, seed=3)
    assert rep.records == _sequential_records(inst, T, seed=3)
    assert rep.max_err <= 1e-12


@pytest.mark.parametrize("make", [_small_glm, _small_gmm], ids=["glm", "gmm_spatial"])
def test_graph_side_releases_what_it_no_longer_reads(make, fast_switching, monkeypatch):
    inst, T = make(), 12
    want = _sequential_records(inst, T, seed=3)
    rec = StepRecorder(lambda instance: instance is inst)  # the graph side's steps
    run_sym = embedding.run_symmetric

    compared = []

    def checking_run(emb, T, each):
        def checked(t, X):
            each(t, X)
            # the comparison of step t has read x^t; the next graph step
            # reads only x^t, m^{t-1} and b^{t-1}, so much older is gone
            alive = rec.stale(t)
            assert not alive, f"still held after comparing step {t}: {alive}"
            compared.append(t)
        run_sym(emb, T, checked)

    monkeypatch.setattr(engine, "step", rec.wrap(engine.step))
    monkeypatch.setattr(embedding, "run_symmetric", checking_run)
    rep = bounded_call(verify_equivalence, inst, T, seed=3)
    assert compared == list(range(T + 1))
    assert {kind for kind, *_ in rec.held} == {"x", "m", "b"}
    assert rep.records == want


def test_both_sides_step_only_inside_engine_run(monkeypatch):
    inst, T = _small_glm(), 7
    runs, steps, embedded = [], [], []
    inside = threading.local()
    base_run, base_step, base_embed = engine.run, engine.step, embedding.embed

    def recording_run(instance, T, *args, **kwargs):
        runs.append((instance, T))
        inside.run = True
        try:
            return base_run(instance, T, *args, **kwargs)
        finally:
            inside.run = False

    def recording_step(instance, traj):
        steps.append(getattr(inside, "run", False))
        return base_step(instance, traj)

    def recording_embed(*args, **kwargs):
        embedded.append(base_embed(*args, **kwargs))
        return embedded[-1]

    monkeypatch.setattr(engine, "run", recording_run)
    monkeypatch.setattr(engine, "step", recording_step)
    monkeypatch.setattr(embedding, "embed", recording_embed)
    rep = bounded_call(verify_equivalence, inst, T, seed=1)
    assert rep.max_err <= 1e-12
    (emb,) = embedded
    assert len(runs) == 2
    assert {id(instance) for instance, _ in runs} == {id(inst), id(emb.symmetric)}
    assert [t for _, t in runs] == [T, T]
    # T steps a side, none outside a run
    assert steps == [True] * (2 * T)


@pytest.mark.parametrize("make", [_small_glm, _small_gmm], ids=["glm", "gmm_spatial"])
def test_flattened_run_needs_no_graph_run(make):
    # the flattening reads its two-phase step sizes off its own b
    inst, T = make(), 12
    emb = embed(inst, seed=1)
    flat = run(emb.symmetric, T)
    errs = _block_errs(emb, flat, run(inst, T), T)
    assert max(r["err"] for r in errs) <= 1e-12


def test_providers_see_the_previous_onsager_coefficients():
    inst, T = _small_glm(), 8
    edges = set(inst.graph.edges)

    def recording(calls):
        def provider(e, t, b):
            calls.append((e, t, b))
            return inst.provider(e, t, b)
        return dataclasses.replace(inst, provider=provider)

    graph_calls, flat_calls = [], []
    graph = run(recording(graph_calls), T)
    run(embed(recording(flat_calls)).symmetric, T)
    # each side resolves every edge's map once per step
    for calls, tol in ((graph_calls, 0.0), (flat_calls, 1e-12)):
        assert sorted((t, str(e)) for e, t, _ in calls) == sorted(
            (t, str(e)) for t in range(T) for e in edges)
        for e, t, b in calls:
            if t == 0:
                assert b is None
                continue
            assert set(b) == edges
            for k in edges:
                assert np.max(np.abs(b[k] - graph.b[k][t - 1])) <= tol


class _NonFinite(Nonlinearity):
    """An update whose output is non-finite; its trace is the wrapped one's.
    The first apply to take `first` sleeps before it returns."""

    def __init__(self, f, first):
        self.f, self.first = f, first
        self.arity, self.out_cols, self.row_local = f.arity, f.out_cols, f.row_local

    def apply(self, inputs, side=None):
        if self.first.acquire(blocking=False):
            time.sleep(0.2)
        return np.asarray(self.f.apply(inputs, side)) + np.inf

    def jacobian_trace(self, inputs, side=None, wrt=0):
        return self.f.jacobian_trace(inputs, side, wrt)


def test_graph_side_error_is_raised_unchanged(fast_switching):
    inst, bad_t = _small_glm(), 5
    base = inst.provider
    first = threading.Lock()

    def provider(e, t, b):
        f = base(e, t, b)
        return _NonFinite(f, first) if t == bad_t else f

    inst = dataclasses.replace(inst, provider=provider)
    with pytest.raises(NumericalError) as ref:
        run(inst, 10)
    assert (ref.value.edge, ref.value.t) == (str(canonical_edge_order(inst.graph)[0]), bad_t)
    # the flattened side fails at the same step, on its own loop edge.  The
    # graph side, which is ahead, gets there first and sleeps, so the
    # flattened side raises first; the graph side's error still wins
    first.release()
    with pytest.raises(NumericalError) as got:
        bounded_call(verify_equivalence, inst, 10)
    assert (got.value.edge, got.value.t) == (ref.value.edge, ref.value.t)
    assert first.locked()


def test_flattening_error_joins_the_graph_side():
    inst = _small_glm()
    fwd, base = next(iter(inst.matrices)), inst.provider

    def slow(e, t, b):
        time.sleep(0.005)
        return base(e, t, b)

    # unequal variance bases run on the graph side but cannot be flattened;
    # the slowed graph side is still running when embed raises
    inst = dataclasses.replace(inst, provider=slow,
                               scale_base={fwd: 90.0, fwd.reversed(): 91.0})
    run(inst, 20)
    with pytest.raises(GraphError, match="different variance bases"):
        bounded_call(verify_equivalence, inst, 20)


def _fill_instances():
    ml = MultilayerModel(d0=60, layers=layer_specs([50, 40], ["linear", "relu"]))
    yield build_multilayer_instance(ml, seed=0)[0]
    # a loop edge: its diagonal block is tracked
    yield build_spiked_instance(SpikedModel(N=80, lam=2.5, gen_dims=(30,),
                                            gen_activation="tanh"), seed=0)[0]
    # a depth-2 generative line: its interior node is wired too
    yield build_spiked_instance(SpikedModel(N=80, lam=2.5, gen_dims=(30, 40),
                                            gen_activation="tanh"), seed=0)[0]


def test_goe_fill_draws_only_the_untracked_blocks(monkeypatch):
    draws, normals = [], ensembles.normals

    def counted(rng, shape, out=None):
        out = normals(rng, shape, out=out)
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


def test_embed_peaks_at_the_flattened_matrix():
    # the flattened matrix is the only N x N array embed makes: the fill
    # draws in place and the symmetry check reads row panels; X^0 is the
    # other array it keeps.  An (n, n) draw of a diagonal block, or an
    # N x N boolean of the symmetry check, is more than the 5% allowed.
    gmm = GmmSpatialModel(K=2, d=450, n_per_cluster=350, lam=1.0, coupling=0.3)
    # the multilayer line also has untracked off-diagonal pairs
    ml = MultilayerModel(d0=500, layers=layer_specs([450, 400], ["linear", "relu"]))
    for inst in (build_gmm_spatial_instance(gmm, seed=0)[0],
                 build_multilayer_instance(ml, seed=0)[0]):
        lay = BlockLayout.from_graph(inst.graph)
        peak = traced_peak(embed, inst, seed=4)
        assert peak <= 1.05 * 8 * lay.N ** 2 + 8 * lay.N * lay.q_tot, (peak, lay.N)
