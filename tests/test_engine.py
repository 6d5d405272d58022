import time

import numpy as np
import pytest

from graphamp import (GraphInstance, NumericalError, ShapeError,
                      build_gamp_instance, lasso_model)
from graphamp.engine import (Observable, block_product, init,
                             norm_sq_observable, observe, overlap_observable,
                             run, stationary_provider, step)
from graphamp.graphs import EdgeId, single_loop, two_node_chain
from graphamp.nonlinearity import (Entrywise, FromCallable, Identity,
                                   Nonlinearity)
from helpers import default_prior


def _chain_instance(A, x0_fwd, scale):
    """Two-node chain with identity updates on both edges."""
    n, d = A.shape
    g = two_node_chain("sig", d, "obs", n)
    fwd = EdgeId("sig", "obs")
    return GraphInstance(
        graph=g,
        matrices={fwd: A},
        provider=stationary_provider({fwd: Identity(),
                                      fwd.reversed(): Identity()}),
        x0={fwd: x0_fwd},
        scale_base={fwd: scale},
    ), fwd


def test_first_step_has_no_correction():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x0 = np.array([[1.0], [-1.0]])
    inst, fwd = _chain_instance(A, x0, scale=3.0)
    traj = run(inst, 1, allow_degenerate=True)
    bwd = fwd.reversed()
    # x^1_fwd = A m^0_fwd with m^0_fwd = identity(x^0_bwd) = 0
    assert np.allclose(traj.x[fwd][1], 0.0)
    # x^1_bwd = A^T m^0_bwd with m^0_bwd = identity(x^0_fwd)
    assert np.allclose(traj.x[bwd][1], A.T @ x0)


def test_second_step_subtracts_onsager_term():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x0 = np.array([[1.0], [-1.0]])
    inst, fwd = _chain_instance(A, x0, scale=3.0)
    traj = run(inst, 2, allow_degenerate=True)
    bwd = fwd.reversed()
    # identity on d = 3 rows: J = 3, b = J / scale = 1
    m1_fwd = A.T @ x0                       # = x^1_bwd, identity message
    m0_bwd = x0
    x2_fwd = A @ m1_fwd - m0_bwd * 1.0
    assert np.allclose(traj.x[fwd][2], x2_fwd)
    # observation side: J = 2 rows, same shared scale 3
    m1_bwd = np.zeros((2, 1))               # = x^1_fwd
    m0_fwd = np.zeros((3, 1))               # = x^0_bwd
    x2_bwd = A.T @ m1_bwd - m0_fwd * (2.0 / 3.0)
    assert np.allclose(traj.x[bwd][2], x2_bwd)
    assert np.allclose(traj.b[fwd][1], [[1.0]])
    assert np.allclose(traj.b[bwd][1], [[2.0 / 3.0]])


def test_zero_output_skips_the_matrix_product():
    model = lasso_model(d=200, n=100, lam=1.2, prior=default_prior(), sigma=0.5)
    inst, _ = build_gamp_instance(model, seed=3)
    reads = []
    matrix = inst.matrix
    inst.matrix = lambda e: reads.append(e) or matrix(e)
    T = 10
    run(inst, T, allow_degenerate=True)
    # one of the two phases applies the zero update at every step
    assert len(reads) == T


class _TwoBlocks(Nonlinearity):
    """Writes 2 x (rows 0..2 of column 0) into block 1; block 2 (rows
    3..5, columns 1..2) stays zero.  leak writes one entry outside."""

    out_cols = 3
    out_blocks = [(slice(0, 3), slice(0, 1)), (slice(3, 6), slice(1, 3))]

    def __init__(self, leak=False):
        self.leak = leak

    def apply(self, inputs, side=None):
        (X,) = inputs
        m = np.zeros_like(X)
        m[:3, 0] = 2.0 * X[:3, 0]
        if self.leak:
            m[4, 0] = 1.0
        return m

    def jacobian_trace(self, inputs, side=None, wrt=0):
        return np.diag([6.0, 0.0, 0.0])


def _two_block_instance(leak_at=None):
    g = single_loop("v", 6, q=3)
    loop = EdgeId("v", "v")
    G = np.random.default_rng(0).standard_normal((6, 6))
    x0 = np.random.default_rng(1).standard_normal((6, 3))
    inst = GraphInstance(
        graph=g, matrices={loop: G + G.T},
        provider=lambda e, t, b: _TwoBlocks(leak=t == leak_at),
        x0={loop: x0})
    return inst, loop


def test_block_products_match_the_dense_product():
    inst, loop = _two_block_instance()
    traj = run(inst, 2)
    A = inst.matrix(loop)
    for t in (0, 1):
        want = A @ traj.m[loop][t]
        if t:
            want -= traj.m[loop][t - 1] @ traj.b[loop][t].T
        assert not traj.m[loop][t][3:, :].any()
        assert np.max(np.abs(traj.x[loop][t + 1] - want)) <= 1e-12


def test_output_outside_its_blocks_is_refused():
    # negative control: the product would silently drop the stray entry
    inst, loop = _two_block_instance(leak_at=1)
    assert loop in inst.exact_symmetric  # the row-strip path
    with pytest.raises(ShapeError, match=r"v->v .*step 1"):
        run(inst, 2)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_block_product_matches_matmul(q):
    rng = np.random.default_rng(q)
    for _ in range(5):
        n, r = rng.integers(1, 60, size=2)
        a, b = sorted(rng.integers(0, r + 1, size=2))
        b += a == b
        C = rng.standard_normal((n, r + 1))
        F = rng.standard_normal((r + 1, n)).T
        # C arrays, transposed views, and column sub-slices of both
        for S in (C, F, C[:, a:b], F[:, a:b]):
            m = rng.standard_normal((S.shape[1], q))
            assert _rel(block_product(S, m), np.matmul(S, m)) <= 1e-13


def _identity_loop(A, q):
    n = A.shape[0]
    loop = EdgeId("v", "v")
    x0 = np.random.default_rng(7).standard_normal((n, q))
    inst = GraphInstance(graph=single_loop("v", n, q=q), matrices={loop: A},
                         provider=lambda e, t, b: Identity(), x0={loop: x0})
    return inst, loop, x0


@pytest.mark.parametrize("q", [1, 2])
def test_exactly_symmetric_loop_is_read_by_rows(q):
    G = np.random.default_rng(3).standard_normal((40, 40))
    inst, loop, x0 = _identity_loop(G + G.T, q)
    assert loop in inst.exact_symmetric
    traj = run(inst, 1)
    assert _rel(traj.x[loop][1], (G + G.T) @ x0) <= 1e-13


@pytest.mark.parametrize("q", [1, 2])
def test_nearly_symmetric_loop_keeps_its_stored_orientation(q):
    rng = np.random.default_rng(4)
    G = rng.standard_normal((40, 40))
    A = G + G.T
    # 1e-7 relative off the diagonal: allclose passes, array_equal does not
    U = rng.standard_normal((40, 40))
    np.fill_diagonal(U, 0.0)
    B = A + 1e-7 * np.abs(A) * U
    assert np.allclose(B, B.T) and not np.array_equal(B, B.T)
    inst, loop, x0 = _identity_loop(B, q)
    assert loop not in inst.exact_symmetric
    x1 = run(inst, 1).x[loop][1]
    assert _rel(x1, B @ x0) <= 1e-13
    assert _rel(x1, B.T @ x0) > 1e-9


def test_loop_matrix_symmetry_tolerance():
    A = np.random.default_rng(2).standard_normal((5, 5))
    A = A + A.T

    def build(delta):
        B = A.copy()
        B[0, 1] += delta
        g = single_loop("v", 5)
        return GraphInstance(graph=g, matrices={EdgeId("v", "v"): B},
                             provider=lambda e, t, b: Identity())

    build(1e-12)
    with pytest.raises(ShapeError, match="symmetric"):
        build(1e-3)


def test_zero_output_keeps_its_onsager_correction():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    n, d = A.shape
    g = two_node_chain("sig", d, "obs", n)
    fwd = EdgeId("sig", "obs")
    bwd = fwd.reversed()
    # zero output, unit derivative: J = d rows, b = d / scale
    zero_with_trace = Entrywise(np.zeros_like, np.ones_like)
    shift = Entrywise(lambda x: x + 1.0, np.ones_like)
    inst = GraphInstance(
        graph=g,
        matrices={fwd: A},
        provider=stationary_provider({fwd: zero_with_trace, bwd: shift}),
        x0={fwd: np.array([[1.0], [-1.0]]), bwd: np.array([[0.5], [2.0], [-1.5]])},
        scale_base={fwd: 4.0},
    )
    traj = run(inst, 3)
    assert traj.x[fwd][1].shape == g.x_shape(fwd)
    assert not traj.x[fwd][1].any()
    for t in (1, 2):
        assert traj.b[fwd][t][0, 0] == d / 4.0
        want = -traj.m[bwd][t - 1] @ traj.b[fwd][t].T
        assert want.any()
        assert np.array_equal(traj.x[fwd][t + 1], want)


def test_degenerate_zero_init_warns():
    A = np.eye(3)
    inst, _ = _chain_instance(A, np.zeros((3, 1)), scale=3.0)
    with pytest.warns(UserWarning, match="all-zero"):
        init(inst)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_aborts_with_location():
    n = 30
    g = single_loop("v", n)
    loop = EdgeId("v", "v")
    Y = sample_goe_like(n)
    inst = GraphInstance(
        graph=g,
        matrices={loop: Y},
        provider=stationary_provider(
            {loop: Entrywise(lambda x: 50.0 * x,
                             lambda x: np.full_like(x, 50.0))}),
        x0={loop: np.ones((n, 1))},
    )
    with pytest.raises(NumericalError) as ei:
        run(inst, 400, allow_degenerate=True)
    assert ei.value.edge == str(loop)
    assert ei.value.t is not None and ei.value.t > 1


def _centering_chain(n):
    """Chain whose forward update centers its input: not row-local, and
    FromCallable without jac, so its trace is the FD fallback."""
    g = two_node_chain("sig", n, "obs", 10)
    fwd = EdgeId("sig", "obs")
    center = FromCallable(lambda inputs, side: inputs[0] - inputs[0].mean(axis=0))
    A = np.random.default_rng(2).normal(size=(10, n)) / np.sqrt(n)
    inst = GraphInstance(
        graph=g,
        matrices={fwd: A},
        provider=stationary_provider({fwd: center, fwd.reversed(): Identity()}),
        x0={fwd.reversed(): np.ones((n, 1))},
    )
    return inst, fwd


def test_costly_fd_fallback_aborts_with_location():
    inst, fwd = _centering_chain(2000)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="analytic jacobian_trace") as ei:
        run(inst, 2, allow_degenerate=True)
    assert time.perf_counter() - start < 1.0
    assert ei.value.edge == str(fwd)
    assert ei.value.t == 0


def test_fd_fallback_within_budget_still_runs():
    n = 40
    inst, fwd = _centering_chain(n)
    traj = run(inst, 2, allow_degenerate=True)
    # d/dx_i of (x_i - mean x) summed over rows is n - 1
    assert traj.b[fwd][0][0, 0] == pytest.approx((n - 1) / inst.scale(fwd), rel=1e-6)


def sample_goe_like(n):
    rng = np.random.default_rng(11)
    G = rng.normal(size=(n, n)) / np.sqrt(2 * n)
    return G + G.T


def test_nonfinite_message_aborts():
    g = single_loop("v", 4)
    loop = EdgeId("v", "v")
    inst = GraphInstance(
        graph=g,
        matrices={loop: np.eye(4)},
        provider=stationary_provider(
            {loop: FromCallable(lambda inputs, side: inputs[0] / 0.0,
                                row_local=True)}),
        x0={loop: np.ones((4, 1))},
    )
    with pytest.raises(NumericalError):
        with np.errstate(divide="ignore", invalid="ignore"):
            run(inst, 1, allow_degenerate=True)


def test_wrong_output_shape_is_rejected():
    g = single_loop("v", 4)
    loop = EdgeId("v", "v")
    inst = GraphInstance(
        graph=g,
        matrices={loop: np.eye(4)},
        provider=stationary_provider(
            {loop: FromCallable(lambda inputs, side: inputs[0][:2],
                                row_local=True)}),
        x0={loop: np.ones((4, 1))},
    )
    with pytest.raises(ShapeError):
        run(inst, 1, allow_degenerate=True)


def test_observe_records_and_builtin_observables():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x0 = np.array([[1.0], [-1.0]])
    inst, fwd = _chain_instance(A, x0, scale=3.0)
    traj = run(inst, 2, allow_degenerate=True)
    bwd = fwd.reversed()
    obs = [norm_sq_observable(bwd, scale=1.0 / 3.0),
           overlap_observable(bwd, np.ones((3, 1)))]
    recs = observe(traj, obs, times=[1, 2])
    assert {r["t"] for r in recs} == {1, 2}
    want = float(np.sum((A.T @ x0) ** 2)) / 3.0
    got = [r["value"] for r in recs
           if r["t"] == 1 and r["observable"].startswith("norm_sq")]
    assert np.allclose(got, want)


def test_observable_callable_protocol():
    f = Observable("const", lambda xs, t: 4.2)
    assert f({}, 0) == 4.2
