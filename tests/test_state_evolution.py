import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from graphamp import CommitteeModel, GraphInstance, build_committee_instance
from graphamp.engine import run, stationary_provider
from graphamp.graphs import EdgeId, single_loop
from graphamp.nonlinearity import Entrywise, FromCallable, Identity, Zero, relu
from graphamp.state_evolution import (amp_observable_stats, compare,
                                      mc_observable_stats, se_run, se_step,
                                      summarize)
from graphamp.engine import norm_sq_observable
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
    inst, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=2)
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
    trajs = []
    for s in range(4):
        i2, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=10 + s)
        trajs.append(run(i2, 4, allow_degenerate=True))
    amp = amp_observable_stats(trajs, obs, times=[1, 2, 3])
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
           (1, "by_atol"): summarize([1e-8])}
    se = {(1, "off"): {"mean": 2.0, "sem": 0.0},
          (1, "by_z"): {"mean": 1.3, "sem": 0.0},
          (1, "by_rel"): {"mean": 5.1, "sem": 0.0},
          (1, "by_atol"): {"mean": 0.0, "sem": 0.0}}
    recs = {r["name"]: r for r in compare(amp, se, rel_tol=0.05, z_tol=4.0,
                                          atol=1e-6)}
    assert {k: r["pass"] for k, r in recs.items()} == {
        "off": 0, "by_z": 1, "by_rel": 1, "by_atol": 1}
    assert recs["by_z"]["z"] == pytest.approx(2.0)
    assert recs["by_rel"]["z"] == np.inf
    assert recs["off"]["rel_err"] == pytest.approx(0.45)


def test_kernels_do_not_depend_on_worker_count():
    inst, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=2)
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
    a = se_run(inst, T=3, reps=200, seed=3, chunk=64)
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
    inst, _ = build_committee_instance(CommitteeModel(d=n, n=n), seed=0)
    cov = se_run(inst, T=t, reps=64, seed=1)
    tracemalloc.start()
    try:
        se_step(inst, cov, 256, lambda *labels: stream(5, *labels),
                chunk=chunk, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * workers * chunk * n * t * q * 8
