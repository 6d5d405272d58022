"""The proximal maps of the GLM iteration: the penalty prox
u -> prox_{alpha penalty}(alpha u) (GlmScalars.signal_map, given by its
pieces) and the logistic loss prox behind gamp_se.LogisticResidual."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphamp import gamp_se
from graphamp.engine import run
from graphamp.gamp_se import (GaussBernoulliPrior, GlmScalars, LogisticResidual,
                              gamp_overlap_se)
from graphamp.models.glm import (build_gamp_instance, lasso_model, logistic_model,
                                 ridge_model)
from graphamp.nonlinearity import Entrywise, SideData, soft_threshold_pieces

from checks import kkt_residual
from helpers import soft_threshold

# roots of p - v - beta*y*sigmoid(-y*p) = 0, solved independently by
# bisection to 1e-14
LOGISTIC_ROOT_V1 = 1.226750644834
LOGISTIC_ROOT_VHALF = 0.334360198756


def _labels(y):
    return SideData(arrays={"y": np.asarray(y, dtype=float)})


def _logistic_prox(beta, v, y):
    """The root p, read off the residual h = (p - v) / beta."""
    v = np.asarray(v, dtype=float).reshape(-1, 1)
    return (v + beta * LogisticResidual(beta).apply([v], _labels(y))).reshape(-1)


def test_soft_threshold_values():
    v = np.array([1.3, -0.2, -1.0, 0.5, 0.0])
    want = [0.8, 0.0, -0.5, 0.0, 0.0]
    assert np.allclose(soft_threshold(v, 0.5), want)
    kinks, pieces = soft_threshold_pieces(0.5, 1.0)
    assert np.allclose(Entrywise(kinks=kinks, pieces=pieces).phi(v), want)


def test_abs_prox_matches_soft_threshold():
    # prox_{0.7 * 2 |.|}(v) is the soft threshold at 1.4
    f = GlmScalars("abs", 2.0).signal_map(0.7)
    v = np.linspace(-3, 3, 41)
    assert np.allclose(f.phi(v / 0.7), soft_threshold(v, 1.4))


def test_squared_prox_closed_form():
    # prox_{2 * 0.5 p^2 / 2}(v) = v / 2, taken at v = 2 u
    f = GlmScalars("squared", 0.5).signal_map(2.0)
    v = np.array([-1.0, 0.0, 3.0])
    assert np.allclose(f.phi(v / 2.0), v / 2.0)
    assert np.allclose(f.dphi(v), 2.0 * 0.5)


def test_zero_prox_is_identity():
    # weight 0 leaves nothing to shrink, for either penalty
    v = np.array([-2.0, 0.3])
    for kind in ("abs", "squared"):
        f = GlmScalars(kind, 0.0).signal_map(1.0)
        assert np.allclose(f.phi(v), v)
        assert np.allclose(f.dphi(v), 1.0)


def test_logistic_prox_against_bisection_roots():
    assert abs(_logistic_prox(1.0, [1.0], [1.0])[0] - LOGISTIC_ROOT_V1) < 1e-9
    assert abs(_logistic_prox(2.0, [-0.5], [1.0])[0] - LOGISTIC_ROOT_VHALF) < 1e-9


def test_logistic_prox_label_sign_symmetry():
    # flipping (v, y) -> (-v, -y) flips the root
    v = np.linspace(-2, 2, 21)
    y = np.ones_like(v)
    assert np.allclose(_logistic_prox(1.04, -v, -y), -_logistic_prox(1.04, v, y),
                       atol=1e-9)


def test_logistic_prox_derivative_fd():
    h = LogisticResidual(2.04)
    v = np.linspace(-2.5, 2.5, 31).reshape(-1, 1)
    side = _labels(np.where(np.arange(31) % 2 == 0, 1.0, -1.0))
    step = 1e-6
    fd = (h.apply([v + step], side) - h.apply([v - step], side)) / (2 * step)
    assert np.max(np.abs(h.slopes([v], side) - fd)) < 1e-6


def test_logistic_prox_requires_labels():
    h = LogisticResidual(1.0)
    with pytest.raises(KeyError):
        h.apply([np.array([[1.0]])], SideData(arrays={}))
    with pytest.raises(ValueError):
        h.apply([np.array([[1.0], [2.0]])], _labels([1.0]))


def test_penalty_grad_matches_value_fd():
    # kkt_residual is the sup norm of the objective's gradient when the
    # penalty is smooth: lam x for "squared", against central differences
    # of sum loss(y, Ax) + lam ||x||^2 / 2
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 3)) / np.sqrt(3)
    x = np.array([0.5, -1.0, 2.0])
    prior = GaussBernoulliPrior()
    cases = ((ridge_model(3, 5, 1.4, prior), rng.normal(size=5),
              lambda z, y: 0.5 * np.sum((z - y) ** 2)),
             (logistic_model(3, 5, 0.9, prior), rng.choice([-1.0, 1.0], size=5),
              lambda z, y: np.sum(np.logaddexp(0.0, -y * z))))
    for model, y, loss in cases:
        def objective(p):
            return loss(A @ p, y) + 0.5 * model.scalars.lam * np.sum(p * p)

        fd = [(objective(x + dp) - objective(x - dp)) / 2e-6 for dp in 1e-6 * np.eye(3)]
        assert kkt_residual(model, A, y, x) == pytest.approx(np.max(np.abs(fd)), abs=1e-6)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown penalty"):
        GlmScalars("nope", 1.0)
    with pytest.raises(ValueError, match="unknown penalty"):
        GlmScalars("logistic", 1.0)
    with pytest.raises(ValueError, match="unknown penalty"):
        GlmScalars("indicator", 1.0)
    with pytest.raises(ValueError, match="lam: must be >= 0"):
        lasso_model(3, 5, -1.0, GaussBernoulliPrior())


@seed(0)
@given(st.floats(-50, 50), st.floats(0.01, 10), st.floats(0, 5),
       st.sampled_from(["abs", "squared"]))
@settings(max_examples=60, deadline=None)
def test_prox_is_firmly_nonexpansive_scalar(v, alpha, lam, kind):
    # the prox is nonexpansive, so u -> prox_{alpha penalty}(alpha u)
    # satisfies |e(u) - e(w)| <= alpha |u - w|
    f = GlmScalars(kind, lam).signal_map(alpha)
    w = v + 1.0
    ev, ew = f.phi(np.array([v, w]))
    assert abs(ev - ew) <= alpha * abs(w - v) + 1e-12 * alpha * (1.0 + abs(v))


def test_logistic_residual_solves_once_per_step(monkeypatch):
    # apply solves for the prox point; slopes and jacobian_trace on the
    # same input array reuse it, and a new array solves again
    calls = []
    solve = gamp_se._logistic_prox
    monkeypatch.setattr(gamp_se, "_logistic_prox",
                        lambda *args: calls.append(1) or solve(*args))
    model = logistic_model(d=200, n=400, lam=1.0, prior=GaussBernoulliPrior(eps=0.25, var=4.0))
    inst, _ = build_gamp_instance(model, seed=0)
    run(inst, 12)
    assert len(calls) == 6
    del calls[:]
    gamp_overlap_se(model.prior, model.channel, model.scalars, delta=model.delta, T=6,
                    beta0=model.beta0)
    assert len(calls) == 6
    h, v, side = LogisticResidual(1.0), np.array([[0.3], [-1.0]]), _labels([1.0, -1.0])
    h.apply([v], side)
    h.slopes([v.copy()], side)
    assert len(calls) == 8
