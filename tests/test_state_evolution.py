import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from graphamp import CommitteeModel, GraphInstance, build_committee_instance
from graphamp import state_evolution
from graphamp.engine import run, stationary_provider
from graphamp.graphs import EdgeId, single_loop
from graphamp.nonlinearity import (Entrywise, FromCallable, Identity,
                                   LinearEntrywiseLinear, Nonlinearity, Zero,
                                   relu)
from graphamp.gamp_se import gaussian_piecewise_nodes
from graphamp.state_evolution import (compare, mc_observable_stats, se_init,
                                      se_run, se_step, summarize)
from graphamp.engine import norm_sq_observable, observe
from graphamp.ensembles import sample_goe, stream


def _loop_instance(f, n=400, x0_val=1.0, seed=9):
    g = single_loop("v", n)
    loop = EdgeId("v", "v")
    Y = sample_goe(n, stream(seed, "loop"), scale_N=n)
    return GraphInstance(
        graph=g,
        matrices={loop: Y},
        provider=stationary_provider({loop: f}),
        x0={loop: np.full((n, 1), x0_val)},
    ), loop


class _Recorded(Nonlinearity):
    """f, with the row count of every call recorded."""

    def __init__(self, f, rows, row_local=None):
        self.f, self.rows = f, rows
        self.arity, self.out_cols = f.arity, f.out_cols
        self.row_local = f.row_local if row_local is None else row_local

    def apply(self, inputs, side=None):
        self.rows.append(len(inputs[0]))
        return self.f.apply(inputs, side)


def _mc_twin(inst, edges=None, row_local=None):
    """inst with the maps of `edges` (default all) wrapped in _Recorded:
    the same updates, but not LinearEntrywiseLinear, so the state
    evolution takes them by Monte Carlo."""
    edges = inst.graph.edges if edges is None else edges
    table = {e: _Recorded(inst.provider(e, 0, None), [], row_local)
             if e in edges else inst.provider(e, 0, None)
             for e in inst.graph.edges}
    return dataclasses.replace(inst, provider=stationary_provider(table))


def test_identity_updates_keep_variance_fixed():
    inst, loop = _loop_instance(Identity())
    cov = se_run(inst, T=5, reps=4000, seed=0)
    k11 = cov.kernel(loop, 1, 1)[0, 0]
    for t in range(2, 6):
        ktt = cov.kernel(loop, t, t)[0, 0]
        assert abs(ktt - k11) <= 0.05 * k11


def test_zero_map_collapses_covariance():
    inst, loop = _loop_instance(Zero())
    cov = se_run(inst, T=4, reps=500, seed=0)
    for t in range(2, 5):
        assert np.allclose(cov.kernel(loop, t, t), 0.0)


def test_relu_halves_unit_variance():
    # E[max(Z,0)^2] = kappa/2 for Z ~ N(0, kappa); start at kappa = 1
    f = Entrywise(relu, lambda x: (x > 0).astype(float))
    inst, loop = _loop_instance(f, n=400, x0_val=1.0)
    cov = se_run(inst, T=3, reps=20_000, seed=1)
    assert abs(cov.kernel(loop, 1, 1)[0, 0] - 1.0) < 1e-12
    k22 = cov.kernel(loop, 2, 2)[0, 0]
    assert abs(k22 - 0.5) < 3.0 * 0.5 * np.sqrt(2.0 / 20_000) + 0.01


def test_kernels_are_symmetric_and_psd():
    inst, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=2)
    T = 4
    cov = se_run(inst, T=T, reps=2000, seed=3)
    for e in inst.graph.edges:
        q = inst.graph.q(e)
        K = np.zeros((T * q, T * q))
        for s in range(1, T + 1):
            for t in range(1, T + 1):
                blk = cov.kernel(e, s, t)
                K[(s - 1) * q:s * q, (t - 1) * q:t * q] = blk
                assert np.allclose(blk, cov.kernel(e, t, s).T, atol=1e-12)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_doubled_sample_count_moves_kernels_little():
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=150, n=100), seed=2)[0])
    cov1 = se_run(inst, T=3, reps=1000, seed=4)
    cov2 = se_run(inst, T=3, reps=2000, seed=5)
    for e in inst.graph.edges:
        a = cov1.kernel(e, 3, 3)
        b = cov2.kernel(e, 3, 3)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
        assert np.max(np.abs(a - b)) <= 0.2 * scale


def test_compare_merges_amp_and_se_statistics():
    inst, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=6)
    from graphamp.engine import norm_sq_observable
    fwd = EdgeId("wts", "obs")
    obs = [norm_sq_observable(fwd, scale=1.0 / 100.0, name="nsq")]
    values = {}
    for s in range(4):
        i2, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=10 + s)
        for rec in observe(run(i2, 4, allow_degenerate=True), obs, times=[1, 2, 3]):
            values.setdefault((rec["t"], rec["observable"]), []).append(rec["value"])
    amp = {key: summarize(vals) for key, vals in values.items()}
    cov = se_run(inst, T=3, reps=1500, seed=7)
    se = mc_observable_stats(inst, cov, obs, times=[1, 2, 3], reps=300, seed=8)
    recs = compare(amp, se)
    assert len(recs) == 3
    for r in recs:
        assert r["z"] < 6.0


def test_compare_passes_on_rel_z_or_atol():
    amp = {(1, "off"): summarize([1.0, 1.2]),     # sem 0.1
           (1, "by_z"): summarize([1.0, 1.2]),
           (1, "by_rel"): summarize([5.0]),       # sem 0
           (1, "by_atol"): summarize([1e-8]),
           (1, "exact"): summarize([0.0])}
    se = {(1, "off"): {"mean": 2.0, "sem": 0.0},
          (1, "by_z"): {"mean": 1.3, "sem": 0.0},
          (1, "by_rel"): {"mean": 5.1, "sem": 0.0},
          (1, "by_atol"): {"mean": 0.0, "sem": 0.0},
          (1, "exact"): {"mean": 0.0, "sem": 0.0}}
    recs = {r["name"]: r for r in compare(amp, se, rel_tol=0.05, z_tol=4.0,
                                          atol=1e-6)}
    assert {k: r["pass"] for k, r in recs.items()} == {
        "off": 0, "by_z": 1, "by_rel": 1, "by_atol": 1, "exact": 1}
    assert recs["by_z"]["z"] == pytest.approx(2.0)
    assert recs["by_rel"]["z"] == np.inf
    assert recs["exact"]["z"] == 0.0
    assert recs["off"]["rel_err"] == pytest.approx(0.45)


def test_kernels_do_not_depend_on_worker_count():
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=150, n=100), seed=2)[0])
    obs = [norm_sq_observable(EdgeId("wts", "obs"), scale=0.01, name="nsq")]
    a = se_run(inst, T=4, reps=300, seed=3, chunk=64, workers=1)
    sa = mc_observable_stats(inst, a, obs, reps=150, seed=4, chunk=32, workers=1)
    # more workers than cores, with frequent thread switches
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4):
            b = se_run(inst, T=4, reps=300, seed=3, chunk=64, workers=workers)
            for e in inst.graph.edges:
                assert a.K[e].tobytes() == b.K[e].tobytes()
            sb = mc_observable_stats(inst, a, obs, reps=150, seed=4, chunk=32,
                                     workers=workers)
            assert sa == sb
    finally:
        sys.setswitchinterval(interval)


def _per_copy_twin(f, rows_seen):
    def fn(inputs, side):
        rows_seen.add(inputs[0].shape[0])
        return f.apply(inputs, side)
    return FromCallable(fn, out_cols=f.out_cols, arity=f.arity, row_local=False)


def test_non_row_local_update_takes_per_copy_path():
    inst, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=2)
    rows_seen = set()
    table = {e: _per_copy_twin(inst.provider(e, 0, None), rows_seen)
             for e in inst.graph.edges}
    twin = dataclasses.replace(inst, provider=stationary_provider(table))
    a = se_run(_mc_twin(inst), T=3, reps=200, seed=3, chunk=64)
    b = se_run(twin, T=3, reps=200, seed=3, chunk=64, workers=2)
    # every call saw a single copy: 150 rows on one edge, 100 on the other
    assert rows_seen == {150, 100}
    for e in inst.graph.edges:
        assert np.allclose(a.K[e], b.K[e], rtol=1e-10, atol=1e-14)


def test_se_step_memory_stays_within_chunks_in_flight():
    # a chunk holds one (chunk * n, t * q) family per edge plus per-time
    # outputs; full-width temporaries (the whole (reps, t, n, q) family,
    # every time's outputs at once) would break this bound
    n, t, q, chunk, workers = 400, 6, 2, 32, 2
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=n, n=n), seed=0)[0])
    cov = se_run(inst, T=t, reps=64, seed=1)
    tracemalloc.start()
    try:
        se_step(inst, cov, 256, lambda *labels: stream(5, *labels),
                chunk=chunk, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * workers * chunk * n * t * q * 8


# committee edges: the signal side (soft threshold, then a column mix)
# and the observation side (affine, reads Y); both take the exact route
SIG, OBS = EdgeId("wts", "obs"), EdgeId("obs", "wts")


def _committee(n=300):
    inst, _ = build_committee_instance(CommitteeModel(d=n, n=n), seed=0)
    return inst


def _assert_within_monte_carlo(exact, refs, edges, T):
    """Exact kernels against the mean of R Monte Carlo reference runs,
    each block within 4 sd of that mean: the exact side carries no
    sampling variance, the reference mean 1 / R of one run's, pooled
    over the block's q x q entries."""
    for e in edges:
        K = np.stack([ref.K[e] for ref in refs])
        mean, var = K.mean(axis=0), K.var(axis=0, ddof=1)
        # time 1 is the initializer's on both sides; the PSD steps move
        # it at rounding level only
        np.testing.assert_allclose(exact.K[e][0, 0], mean[0, 0], rtol=1e-8)
        for t in range(1, T):
            for s in range(t + 1):
                sd = np.sqrt(var[t, s].sum() / len(refs))
                assert np.linalg.norm(exact.K[e][t, s] - mean[t, s]) <= 4 * sd, (e, t, s)


def test_exact_kernels_match_a_tenfold_monte_carlo_reference():
    inst, T, B, R = _committee(), 4, 256, 6
    exact = se_run(inst, T, reps=B, seed=0)
    refs = [se_run(_mc_twin(inst), T, reps=10 * B, seed=1 + r) for r in range(R)]
    _assert_within_monte_carlo(exact, refs, (SIG, OBS), T)


def _rows_seen(inst, reps, T=3, row_local=None):
    """Row counts each edge's update receives during se_run, other than
    n (one copy, or the initializer's call), with every map wrapped in
    _Recorded (so on Monte Carlo)."""
    rows = {e: [] for e in inst.graph.edges}
    table = {e: _Recorded(inst.provider(e, 0, None), rows[e], row_local)
             for e in inst.graph.edges}
    se_run(dataclasses.replace(inst, provider=stationary_provider(table)),
           T, reps=reps, seed=0)
    return {e: set(r) - {inst.graph.node_dim[e.start]} for e, r in rows.items()}


def _wide_loop(f, q=3, n=400):
    loop = EdgeId("v", "v")
    return GraphInstance(
        graph=single_loop("v", n, q=q),
        matrices={loop: sample_goe(n, stream(9, "loop"), scale_N=n)},
        provider=stationary_provider({loop: f}),
        x0={loop: np.ones((n, q))})


def test_grid_routing(monkeypatch):
    # routing is by type: an edge whose map is a LinearEntrywiseLinear at
    # every time takes quadrature, whatever its side data or widths;
    # reps = 2 chunks of 128 copies
    inst, reps, n, chunk = _committee(), 256, 300, state_evolution.DEFAULT_CHUNK
    drawn = []
    sample = state_evolution.sample_gaussian_family

    def recording_sample(F, *args):
        drawn.append(F)
        return sample(F, *args)

    monkeypatch.setattr(state_evolution, "sample_gaussian_family", recording_sample)
    factory = lambda *labels: stream(5, *labels)
    cov = se_run(inst, 2, reps=reps, seed=0)
    assert drawn == []
    se_step(inst, cov, reps, factory)
    assert drawn == []
    # the observation edge as a twin: it alone takes Monte Carlo, drawing
    # the signal edge's family, which it reads, once per chunk
    se_step(_mc_twin(inst, [OBS]), cov, reps, factory)
    F = state_evolution.family_factor(cov.K[SIG])
    assert len(drawn) == reps // chunk and all(np.array_equal(D, F) for D in drawn)
    # a 3-column loop (six pair dimensions) takes quadrature
    tanh = Entrywise(np.tanh, lambda x: 1 - np.tanh(x) ** 2)
    drawn.clear()
    se_run(_wide_loop(tanh), 3, reps=reps, seed=0)
    assert drawn == []
    # a map with both an affine and a phi part would need their cross
    # moment, which the exact route does not build
    mixed = LinearEntrywiseLinear(M=[0.5], phi=np.tanh,
                                  dphi=lambda x: 1 - np.tanh(x) ** 2, L=[1.0])
    se_run(_wide_loop(mixed, q=1), 3, reps=reps, seed=0)
    assert len(drawn) == 2 * reps // chunk
    monkeypatch.undo()

    # the Monte Carlo route evaluates a row-local twin on a chunk of
    # copies at once, and any other map one copy at a time
    rows = _rows_seen(inst, reps)
    assert rows[OBS] == rows[SIG] == {chunk * n}
    assert _rows_seen(inst, reps, row_local=False) == {SIG: set(), OBS: set()}


def test_exact_kernels_rerun_identically_for_any_worker_count():
    inst = _committee()
    a = se_run(inst, 4, reps=256, seed=3, chunk=64, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            b = se_run(inst, 4, reps=256, seed=3, chunk=64, workers=workers)
            for e in inst.graph.edges:
                assert a.K[e].tobytes() == b.K[e].tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_grid_matches_closed_form_relu_moments():
    # relu on a loop: every entry of the new kernel row is known in closed
    # form from the previous ones, E max(Z,0) = sqrt(k / 2 pi) for the
    # initializer's row (m^0 = 1, so its column sum over N is 1), k / 2 on
    # the diagonal, and the arc-cosine kernel for the (Z^s, Z^t) pairs
    f = Entrywise(relu, lambda x: (x > 0).astype(float), kinks=(0.0,))
    inst, loop = _loop_instance(f, n=400, x0_val=1.0)
    T = 4
    K = se_run(inst, T=T, reps=16, seed=1).K[loop][..., 0, 0]
    # the route is exact: no budget or seed enters
    assert np.array_equal(K, se_run(inst, T=T, reps=20_000, seed=2).K[loop][..., 0, 0])

    def arc_cosine(a, b, c):
        theta = np.arccos(c / np.sqrt(a * b))
        return np.sqrt(a * b) / (2 * np.pi) * (np.sin(theta) + (np.pi - theta) * np.cos(theta))

    for t in range(1, T):
        want = [np.sqrt(K[t - 1, t - 1] / (2 * np.pi))]
        want += [arc_cosine(K[s - 1, s - 1], K[t - 1, t - 1], K[s - 1, t - 1])
                 for s in range(1, t)]
        want += [K[t - 1, t - 1] / 2]
        np.testing.assert_allclose(K[t, :t + 1], want, rtol=1e-8)


def test_exact_relu_rows_at_zero_variances():
    # a relu loop from x^0 = 0 (so m^0 = 0) with kernel diag(0, k): the
    # new row pairs W^2 with W^1, an outer field of variance 0 (E = 0),
    # and with itself, where the inner conditional variance is 0 and the
    # nested rule collapses onto its outer 1-D rule for E relu(W^2)^2,
    # which is k / 2 to the rule's accuracy
    f = Entrywise(relu, lambda x: (x > 0).astype(float), kinks=(0.0,))
    inst, loop = _loop_instance(f, x0_val=0.0)
    for k in (0.37, 1.0, 2.5):
        K = np.zeros((2, 2, 1, 1))
        K[1, 1] = k
        cov = dataclasses.replace(se_init(inst), K={loop: K}, T=2)
        row = se_step(inst, cov, 16, lambda *labels: stream(0, *labels)).K[loop][2, :, 0, 0]
        assert np.all(np.isfinite(row))
        assert row[0] == row[1] == 0.0
        u, w = gaussian_piecewise_nodes(np.zeros(1), np.sqrt(k), f.kinks,
                                        state_evolution.QUAD_NODES)
        np.testing.assert_allclose(row[2], np.sum(w * relu(u) ** 2), rtol=1e-12)
        np.testing.assert_allclose(row[2], k / 2, rtol=1e-8)


def test_exact_relu_loop_from_zero_stays_zero():
    # from x^0 = 0 every field has variance 0 and relu(0) = 0, so a step
    # keeps no outer node at all: every kernel stays exactly 0
    f = Entrywise(relu, lambda x: (x > 0).astype(float), kinks=(0.0,))
    inst, loop = _loop_instance(f, x0_val=0.0)
    K = se_run(inst, 4, reps=16).K[loop]
    assert K.shape == (4, 4, 1, 1)
    assert np.all(np.isfinite(K)) and not np.any(K)


def test_exact_route_memory_does_not_grow_with_t(monkeypatch):
    # a step runs its inner rules in blocks of _QUAD_TILE nodes, each
    # with a few temporaries; at T = 30 one block for the whole row
    # (about 4,600 inner rules of 80 nodes at t = 29) peaks near 15 MB
    inst = _committee(n=60)

    def peak():
        tracemalloc.start()
        try:
            se_run(inst, 30, reps=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 16 * 8 * state_evolution._QUAD_TILE
    assert peak() <= bound
    monkeypatch.setattr(state_evolution, "_QUAD_TILE", 1 << 30)
    assert peak() > bound


def test_family_factor_once_per_step_and_edge(monkeypatch):
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=150, n=100), seed=2)[0])
    cov = se_run(inst, T=3, reps=300, seed=3, chunk=64)
    calls = []
    factor = state_evolution.family_factor
    monkeypatch.setattr(state_evolution, "family_factor",
                        lambda K_e: calls.append(K_e) or factor(K_e))
    # 5 chunks of Monte Carlo on both edges, and 5 of observables
    se_step(inst, cov, 300, lambda *labels: stream(5, *labels), chunk=64)
    assert len(calls) == 2
    calls.clear()
    mc_observable_stats(inst, cov, [], reps=300, seed=4, chunk=64)
    assert len(calls) == 2
