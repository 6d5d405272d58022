from collections import Counter

import numpy as np
import pytest

from graphamp import build_gamp_instance, engine, gamp_se, logistic_model
from graphamp import state_evolution
from graphamp.gamp_se import (GaussBernoulliPrior, GlmScalars,
                              LinearGaussianChannel, LogisticChannel, QuadSpec,
                              RademacherPrior, gamp_overlap_se,
                              gaussian_piecewise_nodes, gh_points)
from graphamp.nonlinearity import SideData

# frozen two-sided quadrature oracles for the soft-threshold instance
# lam = 0.6, delta = 0.5, sigma = 0.5, prior 0.25 * N(0, 4):
# the t = 1 scalars are closed-form, m/p/kappa1 were integrated with an
# independent adaptive-quadrature implementation
T1 = {
    "d0": -0.25,
    "alpha1": 4.0,
    "nu1": 0.25,
    "kappa2_1": 0.15625,
    "m1": 0.3465217096,
    "p1": 0.3602616856,
    "kappa1_1": 0.2401843904,
}


def _lasso_pieces(lam=0.6, sigma=0.5):
    prior = GaussBernoulliPrior(eps=0.25, var=4.0)
    scalars = GlmScalars("abs", lam)
    channel = LinearGaussianChannel(sigma)
    return prior, channel, scalars


def test_gh_points_integrate_polynomials():
    z, w = gh_points(61)
    assert abs(np.sum(w) - 1.0) < 1e-12
    assert abs(np.sum(w * z ** 2) - 1.0) < 1e-10
    assert abs(np.sum(w * z ** 4) - 3.0) < 1e-8


def test_quadrature_rules_are_built_once_per_node_count(monkeypatch):
    calls = Counter()
    leggauss, hermegauss = np.polynomial.legendre.leggauss, np.polynomial.hermite_e.hermegauss

    def counted(name, rule):
        def build(n):
            calls[name, n] += 1
            return rule(n)
        return build

    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        counted("legendre", leggauss))
    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss",
                        counted("hermite", hermegauss))
    gamp_se.gh_points.cache_clear()
    gamp_se._legendre_points.cache_clear()
    prior, channel, scalars = _lasso_pieces(lam=1.2)
    gamp_overlap_se(prior, channel, scalars, delta=0.5, T=12, beta0=1.0,
                    quad=QuadSpec("gh"))
    assert set(calls) == {("legendre", 61), ("hermite", 61)}
    assert max(calls.values()) == 1


def test_piecewise_rules_take_one_sd_per_row():
    # a batched call is the one-row calls stacked, whatever each row's
    # sd: 0 (every node on the mean, weight 1 on the first) included,
    # and kinks outside a row's range (rows 3 and 4) clip to its ends
    means = np.array([0.0, 1.5, -2.0, 40.0, -30.0, 0.3])
    sds = np.array([1.0, 0.0, 0.25, 2.0, 0.5, 3.0])
    kinks = (-0.4, 0.4)
    u, w = gaussian_piecewise_nodes(means, sds, kinks, 20)
    assert u.shape == w.shape == (6, 80)
    for i in range(6):
        ui, wi = gaussian_piecewise_nodes(means[i:i + 1], sds[i], kinks, 20)
        assert np.array_equal(ui, u[i:i + 1]) and np.array_equal(wi, w[i:i + 1])
    assert np.all(u[1] == 1.5) and w[1, 0] == 1.0 and not w[1, 1:].any()
    np.testing.assert_allclose(np.sum(w * u ** 2, axis=1), means ** 2 + sds ** 2,
                               rtol=1e-8)


def test_cached_quadrature_rules_are_read_only():
    for x, w in (gh_points(61), gamp_se._legendre_points(61)):
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0


def test_glm_scalars_reject_what_they_cannot_apply():
    # the signal-side map is given by its pieces for "abs" and "squared"
    # only; the logistic penalty has no pieces
    with pytest.raises(ValueError, match="unknown penalty"):
        GlmScalars("logistic", 1.0)
    with pytest.raises(ValueError, match="unknown loss"):
        GlmScalars("abs", 1.0, loss="hinge")


def test_first_iteration_scalars_are_closed_form():
    prior, channel, scalars = _lasso_pieces()
    pts = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=1, beta0=1.0)
    assert abs(pts[0].d - T1["d0"]) < 1e-12
    assert abs(pts[1].alpha - T1["alpha1"]) < 1e-12
    assert abs(pts[1].nu - T1["nu1"]) < 1e-10
    assert abs(pts[1].kappa2 - T1["kappa2_1"]) < 1e-10


def test_first_iteration_expectations_match_independent_quadrature():
    prior, channel, scalars = _lasso_pieces()
    pts = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=1, beta0=1.0)
    assert abs(pts[1].m - T1["m1"]) < 1e-6
    assert abs(pts[1].p - T1["p1"]) < 1e-6
    assert abs(pts[1].kappa1 - T1["kappa1_1"]) < 1e-6


def _u_moments_reference(prior, lam, nu, kappa2, alpha):
    """E[X0 e], E[e^2], E[e'], E[(e - X0)^2] for the soft-threshold map
    e(u) = alpha soft(u, lam) over U = nu X0 + sqrt(kappa2) H, in plain
    numpy: 201-node Gauss-Hermite over the prior's Gaussian part plus
    its point mass at 0, and 5-node Gauss-Legendre on 2,000 sub-intervals
    of each piece of [-12, 12] in H, cut at the kinks."""
    z, wz = np.polynomial.hermite_e.hermegauss(201)
    x0 = np.concatenate([[0.0], np.sqrt(prior.var) * z])
    wx = np.concatenate([[1.0 - prior.eps], prior.eps * wz / np.sqrt(2.0 * np.pi)])
    xg, wg = np.polynomial.legendre.leggauss(5)
    sk = np.sqrt(kappa2)
    out = np.zeros(4)
    for x, w in zip(x0, wx):
        # open nodes: none lands on a kink, where e' jumps
        kinks = sorted(k for k in ((-lam - nu * x) / sk, (lam - nu * x) / sk) if -12 < k < 12)
        for a, b in zip([-12.0] + kinks, kinks + [12.0]):
            edges = np.linspace(a, b, 2001)
            half = 0.5 * np.diff(edges)[:, None]
            h = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg).ravel()
            wh = (half * wg).ravel() * np.exp(-0.5 * h ** 2) / np.sqrt(2.0 * np.pi)
            u = nu * x + sk * h
            e = alpha * np.sign(u) * np.maximum(np.abs(u) - lam, 0.0)
            de = alpha * (np.abs(u) > lam)
            out += w * np.array([np.sum(wh * x * e), np.sum(wh * e ** 2),
                                 np.sum(wh * de), np.sum(wh * (e - x) ** 2)])
    return out


def test_batched_u_expectations_match_an_independent_rule():
    lam = 0.6
    prior, channel, scalars = _lasso_pieces(lam=lam)
    pts = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=3, beta0=1.0)
    for pt in pts[1:]:
        ref = _u_moments_reference(prior, lam, pt.nu, pt.kappa2, pt.alpha)
        assert np.max(np.abs(np.array([pt.m, pt.p, pt.beta, pt.mse]) - ref)) <= 1e-12


def test_mc_quadrature_tracks_gh():
    # at 250,000 samples the rms deviation of m from gh over 32 seeds is
    # at most 0.004 at any t, so 0.02 is 5 sd (kappa1: 0.002 against 0.03)
    prior, channel, scalars = _lasso_pieces(lam=1.2)
    gh = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=8, beta0=1.0)
    mc = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=8, beta0=1.0,
                         quad=QuadSpec("mc", samples=250_000, seed=2))
    for t in range(1, 9):
        assert abs(gh[t].m - mc[t].m) < 0.02
        assert abs(gh[t].kappa1 - mc[t].kappa1) < 0.03


def test_logistic_gh_quadrature_runs_and_tracks_mc():
    # the logistic loss needs labels broadcast against the gh grid
    prior = GaussBernoulliPrior(eps=0.25, var=4.0)
    scalars = GlmScalars("abs", 0.5, loss="logistic")
    channel = LogisticChannel()
    gh = gamp_overlap_se(prior, channel, scalars, delta=2.0, T=4, beta0=1.0)
    mc = gamp_overlap_se(prior, channel, scalars, delta=2.0, T=4, beta0=1.0,
                         quad=QuadSpec("mc", samples=100_000, seed=2))
    for t in range(1, 5):
        assert np.isfinite([gh[t].m, gh[t].p, gh[t].mse]).all()
        assert abs(gh[t].m - mc[t].m) < 0.02
        assert abs(gh[t].mse - mc[t].mse) < 0.02


def test_mc_quadrature_is_seed_deterministic():
    prior, channel, scalars = _lasso_pieces()
    a = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=5, beta0=1.0,
                        quad=QuadSpec("mc", samples=2000, seed=3))
    b = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=5, beta0=1.0,
                        quad=QuadSpec("mc", samples=2000, seed=3))
    assert all(x.m == y.m and x.kappa1 == y.kappa1 for x, y in zip(a, b))


def test_vanishing_signal_forces_vanishing_overlap():
    # rho = 0 is rejected as degenerate; the overlap must scale away
    # linearly with the prior mass as rho -> 0
    scalars = GlmScalars("abs", 0.6)
    channel = LinearGaussianChannel(0.5)
    with pytest.raises(ValueError):
        gamp_overlap_se(GaussBernoulliPrior(eps=0.0, var=4.0), channel,
                        scalars, delta=0.5, T=2, beta0=1.0)
    for eps in (1e-3, 2e-3):
        prior = GaussBernoulliPrior(eps=eps, var=4.0)
        pts = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=6,
                              beta0=1.0)
        assert max(abs(p.m) for p in pts[1:]) <= 5.0 * prior.rho


def test_fixed_point_stable_under_doubled_samples():
    # the sd of a[12].m - b[12].m over 20 seed pairs is 0.0038 at these
    # counts, so 0.02 is 5 sd
    prior, channel, scalars = _lasso_pieces()
    a = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=12, beta0=1.0,
                        quad=QuadSpec("mc", samples=500_000, seed=4))
    b = gamp_overlap_se(prior, channel, scalars, delta=0.5, T=12, beta0=1.0,
                        quad=QuadSpec("mc", samples=1_000_000, seed=5))
    assert abs(a[12].m - b[12].m) < 0.02


def test_priors_expose_second_moment_and_sampling():
    gb = GaussBernoulliPrior(eps=0.25, var=4.0)
    assert abs(gb.rho - 1.0) < 1e-12
    assert abs(RademacherPrior().rho - 1.0) < 1e-12
    g = GaussBernoulliPrior(eps=1.0, var=2.0)
    assert abs(g.rho - 2.0) < 1e-12
    x = gb.sample(50_000, np.random.default_rng(0))
    assert abs(np.mean(x == 0.0) - 0.75) < 0.01
    assert abs(x.var() - 1.0) < 0.05


@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_residual_map_slopes_are_its_jacobian_diagonal(loss):
    scalars = GlmScalars("squared", 0.5, loss=loss)
    h = scalars.residual_map(0.7)
    rng = np.random.default_rng(8)
    v = 2.0 * rng.normal(size=(300, 1))
    side = SideData(arrays={"y": rng.choice([-1.0, 1.0], size=300)})
    s = h.slopes([v], side)
    assert s.shape == v.shape
    # row-local: entry i of a central difference is d h_i / d v_i
    step = 1e-4
    fd = (h.apply([v + step], side) - h.apply([v - step], side)) / (2.0 * step)
    assert np.max(np.abs(s - fd)) < 1e-6
    assert np.sum(s) == pytest.approx(h.jacobian_trace([v], side)[0, 0], rel=1e-12)


def test_squared_residual_takes_the_exact_route():
    squared = GlmScalars("abs", 1.0)
    logistic = GlmScalars("squared", 1.0, loss="logistic")
    assert state_evolution._exact(squared.residual_map(0.5))
    assert not state_evolution._exact(logistic.residual_map(0.5))


def test_logistic_prox_solves_once_per_step(monkeypatch):
    # apply, slopes and jacobian_trace of one step share one Newton solve:
    # 12 steps of the two-phase chain are 6 observation-side steps, and
    # T = 6 of the overlap recursion are 6 v-steps
    solves = []
    prox = gamp_se._logistic_prox
    monkeypatch.setattr(gamp_se, "_logistic_prox",
                        lambda *args: solves.append(args) or prox(*args))
    model = logistic_model(d=200, n=100, lam=0.8, prior=GaussBernoulliPrior(eps=0.25, var=4.0))
    inst, _ = build_gamp_instance(model, seed=1)
    engine.run(inst, 12)
    assert len(solves) == 6
    solves.clear()
    gamp_overlap_se(model.prior, model.channel, model.scalars, model.delta, T=6,
                    beta0=model.beta0)
    assert len(solves) == 6
