import numpy as np
import pytest

from graphamp.nonlinearity import (Entrywise, FromCallable,
                                   Identity, LinearEntrywiseLinear, SideData,
                                   Zero, fd_jacobian_trace)


def test_identity_jacobian_is_row_count():
    f = Identity()
    x = np.random.default_rng(0).normal(size=(9, 1))
    assert np.allclose(f.apply([x]), x)
    assert np.allclose(f.jacobian_trace([x]), [[9.0]])
    assert np.allclose(fd_jacobian_trace(f, [x]), [[9.0]])


def test_zero_map():
    f = Zero()
    x = np.ones((5, 1))
    assert np.allclose(f.apply([x]), 0.0)
    assert np.allclose(f.jacobian_trace([x]), [[0.0]])


def test_entrywise_tanh_fd_agreement():
    f = Entrywise(np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)
    x = np.random.default_rng(1).normal(size=(30, 1))
    an = f.jacobian_trace([x])
    fd = fd_jacobian_trace(f, [x])
    assert np.max(np.abs(an - fd)) < 1e-5 * max(1.0, np.abs(an).max())


def test_entrywise_relu_fd_agreement_off_kink():
    f = Entrywise(lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(float))
    x = np.random.default_rng(2).normal(size=(40, 1))
    x[np.abs(x) < 1e-4] += 1e-3  # FD probes must not cross the kink
    an = f.jacobian_trace([x])
    fd = fd_jacobian_trace(f, [x])
    assert np.max(np.abs(an - fd)) < 1e-5 * max(1.0, np.abs(an).max())


def test_entrywise_then_mix_matrix_jacobian():
    R = np.array([[0.9, 0.25], [-0.15, 0.8]])
    f = LinearEntrywiseLinear(out_cols=2, phi=np.tanh,
                              dphi=lambda x: 1.0 - np.tanh(x) ** 2, L=[1.0], R=R)
    x = np.random.default_rng(3).normal(size=(25, 2))
    assert np.allclose(f.apply([x]), np.tanh(x) @ R)
    an = f.jacobian_trace([x])
    fd = fd_jacobian_trace(f, [x])
    assert an.shape == (2, 2)
    assert np.max(np.abs(an - fd)) < 1e-5 * max(1.0, np.abs(an).max())


def test_linear_entrywise_linear_parts_and_jacobian():
    # every part at once, with matrix and scalar coefficients: two input
    # blocks of widths 2 and 3, a 2-column side array, 3 output columns
    rng = np.random.default_rng(8)
    x = [rng.normal(size=(20, 2)), rng.normal(size=(20, 3))]
    y = rng.normal(size=(20, 2))
    C, M0, L0, L1, R = (rng.normal(size=s) for s in
                        [(2, 3), (2, 3), (2, 4), (3, 4), (4, 3)])
    f = LinearEntrywiseLinear(arity=2, out_cols=3, offset=("y", C), M=[M0, 0.5],
                              phi=np.tanh, dphi=lambda v: 1.0 - np.tanh(v) ** 2,
                              L=[L0, L1], R=R, den=1.5)
    side = SideData(arrays={"y": y})
    want = (y @ C + x[0] @ M0 + 0.5 * x[1] + np.tanh(x[0] @ L0 + x[1] @ L1) @ R) / 1.5
    np.testing.assert_allclose(f.apply(x, side), want, rtol=1e-12)
    for wrt in (0, 1):
        an = f.jacobian_trace(x, side, wrt=wrt)
        fd = fd_jacobian_trace(f, x, side=side, wrt=wrt)
        assert an.shape == (3, x[wrt].shape[1])
        assert np.max(np.abs(an - fd)) < 1e-5 * max(1.0, np.abs(an).max())


def test_from_callable_with_analytic_jacobian():
    # affine map x -> 2x + 1 has exact jacobian sum 2n
    f = FromCallable(lambda inputs, side: 2.0 * inputs[0] + 1.0,
                     jac=lambda inputs, side, wrt: np.array(
                         [[2.0 * inputs[0].shape[0]]]),
                     row_local=True)
    x = np.random.default_rng(5).normal(size=(8, 1))
    assert np.allclose(f.apply([x]), 2 * x + 1)
    assert np.allclose(f.jacobian_trace([x]), [[16.0]])
    assert np.allclose(fd_jacobian_trace(f, [x]), [[16.0]])


def test_from_callable_defaults_to_fd():
    f = FromCallable(lambda inputs, side: np.sin(inputs[0]), row_local=True)
    x = np.random.default_rng(6).normal(size=(10, 1))
    want = float(np.sum(np.cos(x)))
    assert abs(float(f.jacobian_trace([x])[0, 0]) - want) < 1e-5


def test_side_data_access():
    side = SideData(arrays={"y": np.arange(4.0)})
    assert np.allclose(side.array("y"), [0, 1, 2, 3])
    with pytest.raises(KeyError):
        side.array("missing")


def test_pieces_need_one_pair_per_interval_between_ascending_kinks():
    f = LinearEntrywiseLinear(L=[1.0], kinks=(0.0,), pieces=[(0, 0), (1, 0)])
    assert f.pieces == ((0.0, 0.0), (1.0, 0.0))
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(f.phi(x), [0.0, 0.0, 3.0])
    assert np.array_equal(f.dphi(x), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="pieces"):
        LinearEntrywiseLinear(L=[1.0], kinks=(0.0,), pieces=[(-1.0, 0.0)])
    with pytest.raises(ValueError, match="pieces"):
        LinearEntrywiseLinear(L=[1.0], kinks=(1.0, -1.0),
                              pieces=[(0.0, 1.0), (1.0, 0.0), (0.0, -1.0)])
    with pytest.raises(ValueError, match="pieces"):
        LinearEntrywiseLinear(phi=np.abs, dphi=np.sign, L=[1.0], kinks=(0.0,),
                              pieces=[(-1.0, 0.0), (1.0, 0.0)])


def test_pieces_must_meet_at_their_kinks():
    # a step at 0: phi(0) = 0 takes the left piece, the closed form's
    # zero-variance moment the right one, and phi' has no mass for the
    # jump, so the map is rejected; pieces that meet to rounding build
    with pytest.raises(ValueError, match="do not meet"):
        LinearEntrywiseLinear(L=[1.0], kinks=(0.0,), pieces=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="do not meet"):
        LinearEntrywiseLinear(L=[1.0], kinks=(-0.3, 0.3),
                              pieces=((1.0, 0.3), (0.0, 0.0), (1.0, 0.3)))
    k, s = 0.7, 1.3
    LinearEntrywiseLinear(L=[1.0], kinks=(k,), pieces=((0.1, 0.0), (s, 0.1 * k - s * k)))
