import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphamp import (ProxSpec, penalty_grad, penalty_value, prox, prox_deriv,
                      soft_threshold)

# roots of p - v - gamma*w*y*sigmoid(-y*p) = 0, solved independently by
# bisection to 1e-14
LOGISTIC_ROOT_V1 = 1.226750644834
LOGISTIC_ROOT_VHALF = 0.334360198756


def test_soft_threshold_values():
    v = np.array([1.3, -0.2, -1.0, 0.5, 0.0])
    out = soft_threshold(v, 0.5)
    assert np.allclose(out, [0.8, 0.0, -0.5, 0.0, 0.0])


def test_abs_prox_matches_soft_threshold():
    spec = ProxSpec("abs", gamma=0.7, weight=2.0)
    v = np.linspace(-3, 3, 41)
    assert np.allclose(prox(spec, v), soft_threshold(v, 1.4))


def test_squared_prox_closed_form():
    spec = ProxSpec("squared", gamma=2.0, weight=0.5)
    v = np.array([-1.0, 0.0, 3.0])
    assert np.allclose(prox(spec, v), v / 2.0)
    assert np.allclose(prox_deriv(spec, v), 0.5)


def test_zero_prox_is_identity():
    # the zero penalty is the squared one at weight 0
    spec = ProxSpec("squared", gamma=1.0, weight=0.0)
    v = np.array([-2.0, 0.3])
    assert np.allclose(prox(spec, v), v)
    assert np.allclose(prox_deriv(spec, v), 1.0)
    assert penalty_value(spec, v) == 0.0


def test_logistic_prox_against_bisection_roots():
    spec = ProxSpec("logistic", gamma=1.0)
    out = prox(spec, np.array([1.0]), labels=np.array([1.0]))
    assert abs(out[0] - LOGISTIC_ROOT_V1) < 1e-9
    spec2 = ProxSpec("logistic", gamma=2.0)
    out2 = prox(spec2, np.array([-0.5]), labels=np.array([1.0]))
    assert abs(out2[0] - LOGISTIC_ROOT_VHALF) < 1e-9


def test_logistic_prox_label_sign_symmetry():
    # flipping (v, y) -> (-v, -y) flips the root
    spec = ProxSpec("logistic", gamma=1.3, weight=0.8)
    v = np.linspace(-2, 2, 21)
    y = np.ones_like(v)
    assert np.allclose(prox(spec, -v, labels=-y), -prox(spec, v, labels=y),
                       atol=1e-9)


def test_logistic_prox_derivative_fd():
    spec = ProxSpec("logistic", gamma=1.7, weight=1.2)
    v = np.linspace(-2.5, 2.5, 31)
    y = np.where(np.arange(31) % 2 == 0, 1.0, -1.0)
    h = 1e-6
    fd = (prox(spec, v + h, labels=y) - prox(spec, v - h, labels=y)) / (2 * h)
    assert np.max(np.abs(prox_deriv(spec, v, labels=y) - fd)) < 1e-6


def test_logistic_prox_requires_labels():
    spec = ProxSpec("logistic", gamma=1.0)
    with pytest.raises(ValueError):
        prox(spec, np.array([1.0]))
    with pytest.raises(ValueError):
        prox(spec, np.array([1.0, 2.0]), labels=np.array([1.0]))


def test_penalty_grad_matches_value_fd():
    for spec, labels in ((ProxSpec("squared", 1.0, weight=1.4), None),
                         (ProxSpec("logistic", 1.0, weight=0.9),
                          np.array([1.0, -1.0, 1.0]))):
        p = np.array([0.5, -1.0, 2.0])
        h = 1e-6
        g = penalty_grad(spec, p, labels=labels)
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            fd = (penalty_value(spec, p + dp, labels=labels)
                  - penalty_value(spec, p - dp, labels=labels)) / (2 * h)
            assert abs(g[i] - fd) < 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        ProxSpec("nope", 1.0)
    with pytest.raises(ValueError):
        ProxSpec("abs", 0.0)
    with pytest.raises(ValueError):
        ProxSpec("indicator", 1.0)
    assert ProxSpec("abs", 1.0).with_gamma(2.5).gamma == 2.5


@seed(0)
@given(st.floats(-50, 50), st.floats(0.01, 10))
@settings(max_examples=60, deadline=None)
def test_prox_is_firmly_nonexpansive_scalar(v, gamma):
    # |prox(v) - prox(w)| <= |v - w| with the abs penalty
    spec = ProxSpec("abs", gamma=gamma, weight=1.0)
    w = v + 1.0
    pv = prox(spec, np.array([v]))[0]
    pw = prox(spec, np.array([w]))[0]
    assert abs(pv - pw) <= 1.0 + 1e-12
