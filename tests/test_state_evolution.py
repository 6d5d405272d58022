import copy
import dataclasses

import numpy as np
import pytest

from graphamp import (CommitteeModel, GraphInstance, NumericalError,
                      build_committee_instance)
from graphamp import state_evolution
from graphamp.engine import run, stationary_provider
from graphamp.graphs import EdgeId, single_loop
from graphamp.nonlinearity import (Entrywise, FromCallable, Identity,
                                   LinearEntrywiseLinear, Nonlinearity, Zero)
from graphamp.gamp_se import gaussian_piecewise_nodes
from graphamp.prox import soft_threshold
from graphamp.state_evolution import (compare, mc_observable_stats, se_init,
                                      se_run, se_step, summarize)
from graphamp.engine import observe
from graphamp.ensembles import normals, sample_goe, stream
from helpers import soft_gaussian_moments, traced_peak


def relu(x):
    return np.maximum(x, 0.0)


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
    k11 = cov.kernel(loop, 1)[0, 0]
    for t in range(2, 6):
        ktt = cov.kernel(loop, t)[0, 0]
        assert abs(ktt - k11) <= 0.05 * k11


def test_zero_map_collapses_covariance():
    inst, loop = _loop_instance(Zero())
    cov = se_run(inst, T=4, reps=500, seed=0)
    for t in range(2, 5):
        assert np.allclose(cov.kernel(loop, t), 0.0)


def test_relu_halves_unit_variance():
    # E[max(Z,0)^2] = kappa/2 for Z ~ N(0, kappa); start at kappa = 1
    f = Entrywise(relu, lambda x: (x > 0).astype(float))
    inst, loop = _loop_instance(f, n=400, x0_val=1.0)
    cov = se_run(inst, T=3, reps=20_000, seed=1)
    assert abs(cov.kernel(loop, 1)[0, 0] - 1.0) < 1e-12
    k22 = cov.kernel(loop, 2)[0, 0]
    assert abs(k22 - 0.5) < 3.0 * 0.5 * np.sqrt(2.0 / 20_000) + 0.01


def test_kernels_are_symmetric_and_psd():
    inst, _ = build_committee_instance(CommitteeModel(d=150, n=100), seed=2)
    T = 4
    cov = se_run(inst, T=T, reps=2000, seed=3)
    for e in inst.graph.edges:
        for t in range(1, T + 1):
            blk = cov.kernel(e, t)
            assert np.allclose(blk, blk.T, atol=1e-12)
            assert np.linalg.eigvalsh(blk).min() >= -1e-8


def test_doubled_sample_count_moves_kernels_little():
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=150, n=100), seed=2)[0])
    cov1 = se_run(inst, T=3, reps=1000, seed=4)
    cov2 = se_run(inst, T=3, reps=2000, seed=5)
    for e in inst.graph.edges:
        a = cov1.kernel(e, 3)
        b = cov2.kernel(e, 3)
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
        for rec in observe(run(i2, 4), obs, times=[1, 2, 3]):
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
    b = se_run(twin, T=3, reps=200, seed=3, chunk=64)
    # every call saw a single copy: 150 rows on one edge, 100 on the other
    assert rows_seen == {150, 100}
    for e in inst.graph.edges:
        assert np.allclose(a.K[e], b.K[e], rtol=1e-10, atol=1e-14)


def test_se_step_memory_stays_within_chunks_in_flight():
    # one chunk is in flight at a time: it holds one (chunk * n, q)
    # family per edge plus its outputs; full-width temporaries (the whole
    # (reps * n, q) family of both edges at once) would break this bound
    n, t, q, chunk = 400, 6, 2, 32
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=n, n=n), seed=0)[0])
    cov = se_run(inst, T=t, reps=64, seed=1)
    peak = traced_peak(se_step, inst, cov, 256, lambda *labels: stream(5, *labels), chunk=chunk)
    assert peak <= 4 * chunk * n * t * q * 8


# committee edges: the signal side (soft threshold, then a column mix)
# and the observation side (affine, reads Y); both take the exact route
SIG, OBS = EdgeId("wts", "obs"), EdgeId("obs", "wts")


def _committee(n=300):
    inst, _ = build_committee_instance(CommitteeModel(d=n, n=n), seed=0)
    return inst


def _assert_within_monte_carlo(exact, refs, edges, T):
    """Each block of `exact` within 4 sd of the mean of the reference
    runs `refs`: the exact side carries no sampling variance, the
    reference mean 1 / R of one run's, pooled over the block's q x q
    entries.  Time 1 is the initializer's on both sides."""
    for e in edges:
        K = np.stack([ref.K[e] for ref in refs])
        mean, var = K.mean(axis=0), K.var(axis=0, ddof=1)
        np.testing.assert_allclose(exact.K[e][0], mean[0], rtol=1e-8)
        for t in range(1, T):
            sd = np.sqrt(var[t].sum() / len(refs))
            assert np.linalg.norm(exact.K[e][t] - mean[t]) <= 4 * sd, (e, t)


def test_exact_kernels_match_a_tenfold_monte_carlo_reference():
    # exact kernels against the mean of R Monte Carlo reference runs at
    # ten times the budget
    inst, T, B, R = _committee(), 4, 256, 6
    exact = se_run(inst, T, reps=B, seed=0)
    refs = [se_run(_mc_twin(inst), T, reps=10 * B, seed=1 + r) for r in range(R)]
    _assert_within_monte_carlo(exact, refs, (SIG, OBS), T)


def test_diagonal_monte_carlo_draws_time_t_alone(monkeypatch):
    # on Monte Carlo each step draws every family for time t alone, from
    # the q x q factor of K^{t,t}, and its blocks agree with the exact
    # ones within 4 sd of the mean of R runs
    inst, T, B, R = _committee(n=150), 4, 256, 8
    widths = []
    sample = state_evolution.sample_gaussian_family
    monkeypatch.setattr(state_evolution, "sample_gaussian_family",
                        lambda F, *args: widths.append(F.shape) or sample(F, *args))
    refs = [se_run(_mc_twin(inst), T, reps=B, seed=1 + r) for r in range(R)]
    assert len(widths) == R * (T - 1) * 2 * (B // state_evolution.DEFAULT_CHUNK)
    assert set(widths) == {(2, 2)}
    _assert_within_monte_carlo(se_run(inst, T, reps=B), refs, (SIG, OBS), T)


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


def test_exact_routing(monkeypatch):
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
    F = state_evolution.family_factor(cov.kernel(SIG, 2))
    assert len(drawn) == reps // chunk and all(np.array_equal(D, F) for D in drawn)
    # a 3-column loop takes quadrature
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


def test_exact_kernels_rerun_identically():
    inst = _committee()
    a = se_run(inst, 4, reps=256, seed=3, chunk=64)
    b = se_run(inst, 4, reps=256, seed=3, chunk=64)
    for e in inst.graph.edges:
        assert a.K[e].tobytes() == b.K[e].tobytes()


def test_exact_matches_closed_form_relu_moments():
    # relu on a 2-column loop whose columns are correlated: every entry
    # of the new block is known in closed form from the previous one,
    # k / 2 on the diagonal and the arc-cosine kernel off it, where the
    # nested rule integrates a genuinely 2-D Gaussian.  The column
    # correlation climbs 0.09 -> 0.52 over the steps; the rule's
    # relative error grows with it (3e-9 here, 1.2e-8 at 0.79)
    f = Entrywise(relu, lambda x: (x > 0).astype(float), kinks=(0.0,))
    loop = EdgeId("v", "v")
    z = normals(stream(3, "x0"), (400, 2))
    inst = dataclasses.replace(_wide_loop(f, q=2), x0={
        loop: np.column_stack([z[:, 0], -0.5 * z[:, 0] + np.sqrt(0.75) * z[:, 1]])})
    T = 4
    K = se_run(inst, T=T, reps=16, seed=1).K[loop]
    # the route is exact: no budget or seed enters
    assert np.array_equal(K, se_run(inst, T=T, reps=20_000, seed=2).K[loop])

    def arc_cosine(a, b, c):
        theta = np.arccos(c / np.sqrt(a * b))
        return np.sqrt(a * b) / (2 * np.pi) * (np.sin(theta) + (np.pi - theta) * np.cos(theta))

    for t in range(1, T):
        (a, c), (_, b) = K[t - 1]
        assert 0.05 < c / np.sqrt(a * b) < 0.6
        want = [[a / 2, arc_cosine(a, b, c)], [arc_cosine(a, b, c), b / 2]]
        np.testing.assert_allclose(K[t], want, rtol=1e-8)


def test_exact_relu_rows_at_zero_variances():
    # a 2-column relu loop with kernel diag(0, k): column 0's field has
    # variance 0, so its outer rule keeps no node (E = 0 in its row and
    # column), and column 1 pairs with itself, where the inner
    # conditional variance is 0 and the nested rule collapses onto its
    # outer 1-D rule for E relu(W_1)^2, which is k / 2 to the rule's
    # accuracy
    f = Entrywise(relu, lambda x: (x > 0).astype(float), kinks=(0.0,))
    inst = _wide_loop(f, q=2)
    loop = EdgeId("v", "v")
    for k in (0.37, 1.0, 2.5):
        cov = dataclasses.replace(se_init(inst), K={loop: np.diag([0.0, k])[None]})
        blk = se_step(inst, cov, 16, lambda *labels: stream(0, *labels)).kernel(loop, 2)
        assert np.all(np.isfinite(blk))
        assert blk[0, 0] == blk[0, 1] == blk[1, 0] == 0.0
        u, w = gaussian_piecewise_nodes(np.zeros(1), np.sqrt(k), f.kinks,
                                        state_evolution.QUAD_NODES)
        np.testing.assert_allclose(blk[1, 1], np.sum(w * relu(u) ** 2), rtol=1e-12)
        np.testing.assert_allclose(blk[1, 1], k / 2, rtol=1e-8)


def test_exact_relu_loop_from_zero_stays_zero():
    # from x^0 = 0 every field has variance 0 and relu(0) = 0, so a step
    # keeps no outer node at all: every kernel stays exactly 0
    f = Entrywise(relu, lambda x: (x > 0).astype(float), kinks=(0.0,))
    inst, loop = _loop_instance(f, x0_val=0.0)
    K = se_run(inst, 4, reps=16).K[loop]
    assert K.shape == (4, 1, 1)
    assert np.all(np.isfinite(K)) and not np.any(K)


def _nested(inst):
    """inst with every map's pieces dropped: the same updates, whose phi
    moments the nested rule integrates."""
    def strip(f):
        f = copy.copy(f)
        f.pieces = None
        return f

    return dataclasses.replace(inst, provider=stationary_provider(
        {e: strip(inst.provider(e, 0, None)) for e in inst.graph.edges}))


def test_exact_route_memory_does_not_grow_with_t():
    # a step integrates one q x q block per edge whatever t is, so a
    # T = 30 run peaks where a T = 3 run does.  The nested rule's working
    # memory dwarfs the kernels the run keeps; the closed form's (the
    # committee's soft threshold declares its pieces) does not, so there
    # the last step's T - 1 kept blocks per edge and the T it gets are
    # allowed on top
    committee = _committee(n=60)
    kept = 2 * (30 - 3) * sum(8 * committee.graph.q(e) ** 2 for e in committee.graph.edges)
    for inst, allowance in ((_nested(committee), 0), (committee, kept)):
        def peak(T):
            return traced_peak(se_run, inst, T, reps=16)

        peak(3)  # the first run builds the cached quadrature rules
        assert peak(30) <= 1.1 * peak(3) + allowance


def test_family_factor_once_per_step_and_edge(monkeypatch):
    inst = _mc_twin(build_committee_instance(CommitteeModel(d=150, n=100), seed=2)[0])
    cov = se_run(inst, T=3, reps=300, seed=3, chunk=64)
    calls = []
    factor = state_evolution.family_factor
    monkeypatch.setattr(state_evolution, "family_factor",
                        lambda K_e: calls.append(K_e) or factor(K_e))
    # 5 chunks of Monte Carlo on both edges, and 5 of observables at
    # each of the times 1..3
    se_step(inst, cov, 300, lambda *labels: stream(5, *labels), chunk=64)
    assert len(calls) == 2
    calls.clear()
    mc_observable_stats(inst, cov, [], reps=300, seed=4, chunk=64)
    assert len(calls) == 2 * 3


def _all_pairs_phi_moments(f, field_cov):
    """_phi_moments as it was before diagonal entries were read off the
    outer rule: every entry, the diagonal too, nested over an inner rule
    of W_b given each kept node of W_a."""
    var = np.diag(field_cov)
    u, wu = gaussian_piecewise_nodes(np.zeros(len(var)), np.sqrt(var), f.kinks,
                                     state_evolution.QUAD_NODES)
    pu = f.phi(u)
    r, k = np.nonzero(wu * pu)
    E = np.zeros_like(field_cov)
    if not len(r):
        return E
    c, v_r = field_cov[r], var[r, None]
    slope = np.divide(c, v_r, out=np.zeros_like(c), where=v_r > 0.0)
    sd = np.sqrt(np.maximum(var - slope * c, 0.0))
    v, wv = gaussian_piecewise_nodes((slope * u[r, k][:, None]).ravel(), sd.ravel(),
                                     f.kinks, state_evolution.QUAD_NODES)
    inner = np.sum(wv * f.phi(v), axis=1).reshape(len(r), len(var))
    np.add.at(E, r, wu[r, k][:, None] * (pu[r, k][:, None] * inner))
    return 0.5 * (E + E.T)


LAM = 0.3  # the soft threshold's level
# name -> (phi, phi', kinks), each with phi(0) = 0
PHIS = {
    "relu": (relu, lambda x: (x > 0).astype(float), (0.0,)),
    "soft": (lambda x: soft_threshold(x, LAM),
             lambda x: (np.abs(x) > LAM).astype(float), (-LAM, LAM)),
    "tanh": (np.tanh, lambda x: 1 - np.tanh(x) ** 2, ()),
}


def _field_covariances(q):
    """A random covariance, one with a zero-variance column and, for
    q >= 2, one whose first two columns are perfectly correlated."""
    A = normals(stream(11, "field", q), (q, q + 1))
    C = A @ A.T / (q + 1)
    zero = C.copy()
    zero[0], zero[:, 0] = 0.0, 0.0
    covs = [C, zero]
    if q >= 2:
        tied = [0, 0] + list(range(2, q))  # (W_0, W_0, W_2, ..)
        covs.append(C[np.ix_(tied, tied)])
    return covs


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PHIS))
def test_phi_moments_match_the_all_pairs_rule_byte_for_byte(monkeypatch, q, name):
    # the diagonal entries come off the outer rule with the same products
    # and the same accumulation order, so the moment is the nested
    # all-pairs rule's to the byte, with inner rules only for b != a
    phi, dphi, kinks = PHIS[name]
    f = LinearEntrywiseLinear(out_cols=q, phi=phi, dphi=dphi, L=[1.0], kinks=kinks)
    calls = []
    monkeypatch.setattr(state_evolution, "gaussian_piecewise_nodes",
                        lambda mean, *args: calls.append(
                            (len(mean), gaussian_piecewise_nodes(mean, *args)))
                        or calls[-1][1])
    for C in _field_covariances(q):
        calls.clear()
        E = state_evolution._phi_moments(f, C)
        assert E.tobytes() == _all_pairs_phi_moments(f, C).tobytes()
        (rows, (u, w)), inner = calls[0], calls[1:]
        kept = np.count_nonzero(w * phi(u))
        # phi(0) = 0, so only an all-zero field keeps no node
        assert rows == q and bool(kept) == C.any()
        assert [n for n, _ in inner] == ([kept * (q - 1)] if q > 1 and kept else [])


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("ratio", [0.5, 2.0, 4.2])
def test_exact_soft_threshold_moments_match_an_independent_quadrature(ratio, rho):
    # the exact route against helpers.soft_gaussian_moments, which shares
    # nothing with it but the Gaussian, on 3-column fields whose sds sit
    # near the threshold over `ratio`: out to 4.2 sds, the tails that
    # Monte Carlo copies seldom reach.  Column correlations stay at or
    # below 0.6; past that the nested rule's off-diagonal error grows
    # (see test_exact_matches_closed_form_relu_moments)
    phi, dphi, kinks = PHIS["soft"]
    f = LinearEntrywiseLinear(out_cols=3, phi=phi, dphi=dphi, L=[1.0], kinks=kinks)
    sd = LAM / ratio * np.array([1.0, 0.9, 1.1])
    corr = np.array([[1.0, rho, -rho / 2], [rho, 1.0, rho / 3], [-rho / 2, rho / 3, 1.0]])
    C = corr * np.outer(sd, sd)
    want = soft_gaussian_moments(C, LAM)
    np.testing.assert_allclose(state_evolution._phi_moments(f, C), want,
                               rtol=1e-8, atol=1e-8 * np.abs(want).max())


def _arc_cosine_moments(C):
    """E relu(W)^T relu(W): the arc-cosine kernel sqrt(ab) / (2 pi)
    (sin theta + (pi - theta) cos theta), cos theta the correlation."""
    sd = np.sqrt(np.diag(C))
    scale = np.outer(sd, sd)
    cos = np.clip(np.divide(C, scale, out=np.zeros_like(C), where=scale > 0), -1.0, 1.0)
    theta = np.arccos(cos)
    return scale / (2 * np.pi) * (np.sin(theta) + (np.pi - theta) * cos)


def _on_a_line(phi, kinks, v):
    """E phi(x v)^T phi(x v), x ~ N(0, 1): the moments of a field of
    rank one, whose live columns correlate +-1.  A 100-node
    Gauss-Legendre rule on each piece of [-12, 12] between the integers
    and the points where some x v_j crosses a kink, so no piece holds
    one; past 12 sds x is out of reach."""
    live = v[v != 0.0]
    cuts = np.unique(np.clip(np.concatenate([np.arange(-12.0, 13.0),
                                             np.divide.outer(kinks, live).ravel()]),
                             -12.0, 12.0))
    t, w = np.polynomial.legendre.leggauss(100)
    E = np.zeros((len(v), len(v)))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        p = phi(np.outer(x, v))
        E += (0.5 * (hi - lo) * w * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * p.T) @ p
    return E


SLOPE = 1.7  # the linear map's
# name -> the kinks and pieces of PHIS[name], or of linear, and an
# independent reference for E phi(W)^T phi(W), W ~ N(0, C)
CLOSED_FORMS = {
    "relu": ((0.0,), ((0.0, 0.0), (1.0, 0.0)), _arc_cosine_moments),
    "soft": ((-LAM, LAM), ((1.0, LAM), (0.0, 0.0), (1.0, -LAM)),
             lambda C: soft_gaussian_moments(C, LAM)),
    "linear": ((), ((SLOPE, 0.0),), lambda C: SLOPE ** 2 * C),
}


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99, 0.99985, 1.0])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_declared_pieces_give_the_moments_to_rounding(monkeypatch, name, rho):
    # a map that declares its pieces gets the closed form, with no
    # quadrature rule, within 1e-12 of the block's largest entry of an
    # independent reference, on 3-column fields of sds 0.1 to 10, column
    # correlation +-rho and a zero-variance column
    kinks, pieces, reference = CLOSED_FORMS[name]
    f = LinearEntrywiseLinear(out_cols=3, L=[1.0], kinks=kinks, pieces=pieces)
    monkeypatch.setattr(state_evolution, "gaussian_piecewise_nodes", None)
    for s1 in (0.1, 0.3, 1.0, 3.0, 10.0):
        for s2 in (0.1, 1.0, 10.0):
            for r in (rho, -rho):
                sd = np.array([s1, s2, 0.0])
                C = np.array([[1.0, r, 0.0], [r, 1.0, 0.0], [0.0, 0.0, 1.0]]) * np.outer(sd, sd)
                E = state_evolution._phi_moments(f, C)
                want = reference(C)
                assert np.abs(E - want).max() <= 1e-12 * np.abs(want).max(), (s1, s2, r)


@pytest.mark.parametrize("r", [1.0, -1.0])
def test_closed_form_takes_correlation_one_as_its_limit(monkeypatch, r):
    # a clip to [-1, 1] has a piece across 0, so at correlation -1 its
    # rectangles {X <= h, -X <= k} are not all empty, as the soft
    # threshold's and relu's are; held to the 1-D rule on the line, the
    # fields and tolerance above
    kinks = (-1.0, 1.0)
    f = LinearEntrywiseLinear(out_cols=3, L=[1.0], kinks=kinks,
                              pieces=((0.0, -1.0), (1.0, 0.0), (0.0, 1.0)))
    monkeypatch.setattr(state_evolution, "gaussian_piecewise_nodes", None)
    for s1 in (0.1, 0.3, 1.0, 3.0, 10.0):
        for s2 in (0.1, 1.0, 10.0):
            sd = np.array([s1, s2, 0.0])
            C = np.array([[1.0, r, 0.0], [r, 1.0, 0.0], [0.0, 0.0, 1.0]]) * np.outer(sd, sd)
            E = state_evolution._phi_moments(f, C)
            want = _on_a_line(lambda x: np.clip(x, -1.0, 1.0), kinks, sd * [1.0, r, 1.0])
            assert np.abs(E - want).max() <= 1e-12 * np.abs(want).max(), (s1, s2)


def test_nonfinite_kernel_aborts_naming_edge_and_time():
    # phi = 1e3 x multiplies the kernel by 1e6 a step from K^1 = 1e6, so
    # K^52 = 1e312 overflows; the recursion must not carry it on
    inst, loop = _loop_instance(Entrywise(pieces=((1e3, 0.0),)), n=50)
    with pytest.raises(NumericalError, match="not finite") as ei:
        se_run(inst, 60)
    assert (ei.value.edge, ei.value.t) == (str(loop), 52)
