import glob
import os
import warnings

import numpy as np
import pytest

from graphamp import (CommitteeModel, GmmSpatialModel, GraphInstance,
                      NumericalError, ShapeError, build_committee_instance,
                      build_gamp_instance, build_gmm_spatial_instance,
                      lasso_model)
from graphamp import cli
from graphamp import config as config_mod
from graphamp.engine import (PANEL_ENTRIES, PANEL_ROWS, Observable,
                             initial_iterates, norm_sq_observable, observe,
                             panel_sweep, run, stationary_provider)
from graphamp.graphs import EdgeId, line_graph, single_loop
from graphamp.nonlinearity import (Entrywise, FromCallable, Identity,
                                   LinearEntrywiseLinear, Nonlinearity,
                                   fd_jacobian_trace)
from helpers import default_prior


def _chain_instance(A, x0_fwd, scale):
    """Two-node chain with identity updates on both edges."""
    n, d = A.shape
    g = line_graph(["sig", "obs"], [d, n])
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
    traj = run(inst, 1)
    bwd = fwd.reversed()
    # x^1_fwd = A m^0_fwd with m^0_fwd = identity(x^0_bwd) = 0
    assert np.allclose(traj.x[fwd][1], 0.0)
    # x^1_bwd = A^T m^0_bwd with m^0_bwd = identity(x^0_fwd)
    assert np.allclose(traj.x[bwd][1], A.T @ x0)


def test_second_step_subtracts_onsager_term():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x0 = np.array([[1.0], [-1.0]])
    inst, fwd = _chain_instance(A, x0, scale=3.0)
    traj = run(inst, 2)
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


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _count_reads(inst):
    reads = []
    matrix = inst.matrix
    inst.matrix = lambda e: reads.append(e) or matrix(e)
    return reads


class _Reads(np.ndarray):
    """A stored matrix that logs, for every matmul reading a view of it,
    the stored rows and columns of the operand (read through its
    transpose if need be) and whether it is a row panel: consecutive
    stored rows, each a unit-stride run."""

    def __array_finalize__(self, obj):
        self.origin = getattr(obj, "origin", None)
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        assert ufunc is np.matmul and method == "__call__"
        plain = []
        for x in inputs:
            if isinstance(x, _Reads):
                base, log, x = x.origin, x.log, x.view(np.ndarray)
                panel = x if x.strides[-1] == 8 else x.T
                offset = panel.__array_interface__["data"][0] - base.__array_interface__["data"][0]
                lo, c = divmod(offset, base.strides[0])
                log.append(((lo, lo + panel.shape[0]), (c // 8, c // 8 + panel.shape[1]),
                                 panel.strides == base.strides))
            plain.append(x)
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        return ufunc(*plain, **kwargs)


def _reads(A):
    """A as _Reads, with an empty log; A must be C-contiguous."""
    assert A.flags.c_contiguous
    R = A.view(_Reads)
    R.origin, R.log = A, []
    return R


def _log_reads(inst):
    """Serve inst's stored matrices as _Reads; returns their shared log."""
    log = []
    matrix = inst.matrix

    def logged(e):
        R = _reads(matrix(e))
        R.log = log
        return R

    inst.matrix = logged
    return log


def _panels(n, rows):
    """Row ranges of the panels of rows rows over n."""
    return [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]


def test_zero_output_skips_the_matrix_product():
    model = lasso_model(d=200, n=100, lam=1.2, prior=default_prior(), sigma=0.5)
    inst, _ = build_gamp_instance(model, seed=3)
    reads = _count_reads(inst)
    T = 10
    run(inst, T)
    # one of the two phases applies the zero update at every step
    assert len(reads) == T


def test_pair_step_reads_its_matrix_once():
    # both directions are live at every step, q = 2 each; d = n = 600
    # is three panels
    inst, _ = build_committee_instance(CommitteeModel(d=600, n=600), seed=1)
    rows = PANEL_ENTRIES // (4 * 600)
    assert 2 * rows < 600 <= 3 * rows
    reads = _count_reads(inst)
    T = 4
    run(inst, T)
    assert len(reads) == T
    # each panel is read once a step, by its two calls back to back
    log = _log_reads(inst)
    run(inst, T)
    panels = [p for p in _panels(600, rows) for _ in range(2)]
    assert [rs for rs, cs, row_panel in log] == panels * T
    assert all(cs == (0, 600) and row_panel for rs, cs, row_panel in log)


def _tanh_chain(n, d, q, seed):
    """Two-node chain, q columns, tanh then a column mix on both edges."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d)) / np.sqrt(d)
    fwd = EdgeId("sig", "obs")
    mix = {e: LinearEntrywiseLinear(out_cols=q, phi=np.tanh,
                                    dphi=lambda x: 1.0 - np.tanh(x) ** 2, L=[1.0],
                                    R=rng.standard_normal((q, q)))
           for e in (fwd, fwd.reversed())}
    inst = GraphInstance(
        graph=line_graph(["sig", "obs"], [d, n], q=q), matrices={fwd: A},
        provider=stationary_provider(mix),
        x0={fwd: rng.standard_normal((n, q)),
            fwd.reversed(): rng.standard_normal((d, q))},
        scale_base={fwd: float(d)})
    return inst, fwd, A


def _next_x(traj, e, t, product):
    """x^{t+1}_e from the product A_e m^t_e: minus the Onsager term."""
    if t:
        return product - traj.m[e.reversed()][t - 1] @ traj.b[e][t].T
    return product


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
@pytest.mark.parametrize("d", [3, 300])
def test_pair_sweep_matches_the_dense_product(n, d):
    for q in (1, 2, 3):
        inst, fwd, A = _tanh_chain(n, d, q, seed=n + d + q)
        traj = run(inst, 2)
        for e, A_e in ((fwd, A), (fwd.reversed(), A.T)):
            for t in (0, 1):
                want = _next_x(traj, e, t, A_e @ traj.m[e][t])
                assert _rel(traj.x[e][t + 1], want) <= 1e-12
    # a pair's two directions may differ in width outside a graph
    rng = np.random.default_rng(n * d)
    S = rng.standard_normal((n, d))
    for q in (1, 2, 3):
        for q_rev in (1, 2, 3):
            m = rng.standard_normal((d, q))
            m_rev = rng.standard_normal((n, q_rev))
            x, x_rev = panel_sweep(S, m, m_rev)
            assert _rel(x, S @ m) <= 1e-12
            assert _rel(x_rev, S.T @ m_rev) <= 1e-12
            assert panel_sweep(S, m)[1] is None and panel_sweep(S, m_rev=m_rev)[0] is None


@pytest.mark.parametrize("n, d", [(1, 3), (PANEL_ROWS, 300)])
def test_one_panel_pair_makes_the_per_direction_calls(n, d):
    assert n * 4 * d <= PANEL_ENTRIES  # q = 2 both ways
    inst, fwd, A = _tanh_chain(n, d, 2, seed=5)
    traj = run(inst, 3)
    for e, A_e in ((fwd, A), (fwd.reversed(), A.T)):
        for t in (0, 1, 2):
            want = _next_x(traj, e, t, A_e @ traj.m[e][t])
            # tobytes tells -0.0 from 0.0
            assert traj.x[e][t + 1].tobytes() == want.tobytes()


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
    with pytest.raises(ShapeError, match=r"v->v .*step 1"):
        run(inst, 2)


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
            m_rev = rng.standard_normal((S.shape[0], q))
            assert _rel(panel_sweep(S, m)[0], np.matmul(S, m)) <= 1e-13
            assert _rel(panel_sweep(S, m_rev=m_rev)[1], np.matmul(S.T, m_rev)) <= 1e-13


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8])
def test_strip_product_matches_matmul_over_panels(q):
    rng = np.random.default_rng(10 + q)
    k = 1500
    h = PANEL_ENTRIES // (q * k)
    for n in (h + 1, 3 * h + 7):
        A = rng.standard_normal((n, 2 * k))
        # the stored matrix and a column strip of it
        for cs in (slice(0, 2 * k), slice(k // 2, k // 2 + k)):
            S = _reads(A)[:, cs]
            m = rng.standard_normal((S.shape[1], q))
            x, _ = panel_sweep(S, m)
            assert _rel(x, np.matmul(A[:, cs], m)) <= 1e-13
            # panels of PANEL_ENTRIES // (q * cols) rows, the last one
            # short, each a row panel of the strip; one call for q = 1
            rows = n if q == 1 else PANEL_ENTRIES // (q * S.shape[1])
            assert S.log == [(p, (cs.start, cs.stop), True) for p in _panels(n, rows)]


@pytest.mark.parametrize("q", [3, 8])
@pytest.mark.parametrize("n, d", [(800, 1000), (1500, 3000)])
def test_reversed_products_read_row_panels_of_the_stored_matrix(n, d, q):
    # S^T m' of a wide q >= 3 product, summed over row panels of S
    rng = np.random.default_rng(n + q)
    A = rng.standard_normal((n, d))
    S = _reads(A)
    m_rev = rng.standard_normal((n, q))
    _, x_rev = panel_sweep(S, m_rev=m_rev)
    assert _rel(x_rev, np.matmul(A.T, m_rev)) <= 1e-13
    rows = PANEL_ENTRIES // (q * d)
    assert S.log == [(p, (0, d), True) for p in _panels(n, rows)]
    # and so does the reversed direction of a chain: A_e = A^T in row
    # panels of A, the stored matrix
    inst, fwd, A = _tanh_chain(n, d, q, seed=q)
    inst.x0[fwd.reversed()] = np.zeros((d, q))  # so the forward output is zero
    log = _log_reads(inst)
    traj = run(inst, 1)
    e = fwd.reversed()
    assert _rel(traj.x[e][1], np.matmul(A.T, traj.m[e][0])) <= 1e-13
    assert log == [(p, (0, d), True) for p in _panels(n, rows)]


def _live_steps(traj):
    """(e, t) of every step whose output m^t_e has a nonzero entry."""
    return [(e, t) for e in traj.x for t in range(traj.T) if traj.m[e][t].any()]


def test_one_column_product_is_one_call():
    # a gemv streams its strip already; both of these strips are taller
    # than a panel of PANEL_ENTRIES entries would be
    model = lasso_model(d=1200, n=600, lam=1.2, prior=default_prior(), sigma=0.5)
    inst, _ = build_gamp_instance(model, seed=2)
    assert 600 * 1200 > PANEL_ENTRIES
    traj = run(inst, 4)
    steps = _live_steps(traj)
    assert {e for e, _ in steps} == set(traj.x)
    for e, t in steps:
        want = _next_x(traj, e, t, inst.matrix(e) @ traj.m[e][t])
        assert traj.x[e][t + 1].tobytes() == want.tobytes()
    log = _log_reads(inst)
    run(inst, 4)
    assert log == [((0, 600), (0, 1200), True)] * 4


def test_two_phase_panelled_chain_matches_the_dense_product():
    # q = 2, so q x rows x cols is 2 A.size: both directions sweep the
    # 600 x 1000 design in three row panels
    model = GmmSpatialModel(K=2, d=500, n_per_cluster=300, coupling=0.3)
    inst, _ = build_gmm_spatial_instance(model, seed=4)
    A = inst.matrices[EdgeId("stack", "obs")]
    assert A.shape == (600, 1000) and A.size > PANEL_ENTRIES
    traj = run(inst, 4)
    steps = _live_steps(traj)
    assert {e for e, _ in steps} == set(traj.x)
    for e, t in steps:
        want = _next_x(traj, e, t, inst.matrix(e) @ traj.m[e][t])
        assert _rel(traj.x[e][t + 1], want) <= 1e-12


def _two_block_chain(leak_at=None):
    """Both directions of a pair declare out_blocks and are live."""
    g = line_graph(["a", "b"], [6, 6], q=3)
    fwd = EdgeId("a", "b")
    rng = np.random.default_rng(2)
    inst = GraphInstance(
        graph=g, matrices={fwd: rng.standard_normal((6, 6))},
        provider=lambda e, t, b: _TwoBlocks(leak=t == leak_at),
        x0={fwd: rng.standard_normal((6, 3)),
            fwd.reversed(): rng.standard_normal((6, 3))})
    return inst, fwd


def test_declared_blocks_keep_the_per_block_products():
    inst, fwd = _two_block_chain()
    reads = _count_reads(inst)
    traj = run(inst, 2)
    # one read per live direction: no pair sweep
    assert len(reads) == 4
    for e in (fwd, fwd.reversed()):
        for t in (0, 1):
            assert traj.m[e][t][:3, 0].any()
            want = _next_x(traj, e, t, inst.matrix(e) @ traj.m[e][t])
            assert np.max(np.abs(traj.x[e][t + 1] - want)) <= 1e-12
    inst, _ = _two_block_chain(leak_at=1)
    with pytest.raises(ShapeError, match="outside its out_blocks at step 1"):
        run(inst, 2)


def _identity_loop(A, q):
    n = A.shape[0]
    loop = EdgeId("v", "v")
    x0 = np.random.default_rng(7).standard_normal((n, q))
    inst = GraphInstance(graph=single_loop("v", n, q=q), matrices={loop: A},
                         provider=lambda e, t, b: Identity(), x0={loop: x0})
    return inst, loop, x0


@pytest.mark.parametrize("q", [1, 2])
def test_exactly_symmetric_loop_is_read_by_rows(q):
    # read as every loop is: row panels of its column strip, as stored
    G = np.random.default_rng(3).standard_normal((40, 40))
    inst, loop, x0 = _identity_loop(G + G.T, q)
    log = _log_reads(inst)
    traj = run(inst, 1)
    assert _rel(traj.x[loop][1], (G + G.T) @ x0) <= 1e-13
    assert log == [((0, 40), (0, 40), True)]


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
    log = _log_reads(inst)
    x1 = run(inst, 1).x[loop][1]
    assert _rel(x1, B @ x0) <= 1e-13
    assert log == [((0, 40), (0, 40), True)]
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


def test_symmetry_is_checked_panel_by_panel():
    # three row panels, the last partial; each case perturbs an entry
    # there and not its mirror
    n = 2 * PANEL_ROWS + 3
    G = np.random.default_rng(5).standard_normal((n, n))
    A = G + G.T
    i, j = n - 1, 1
    _identity_loop(A, 1)
    B = A.copy()
    B[i, j] = np.nextafter(B[i, j], np.inf)
    _identity_loop(B, 1)  # allclose-symmetric passes
    B[i, j] += 1e-3
    with pytest.raises(ShapeError, match="symmetric"):
        _identity_loop(B, 1)


def test_zero_output_keeps_its_onsager_correction():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    n, d = A.shape
    g = line_graph(["sig", "obs"], [d, n])
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


def _runs_silently(inst, T=2):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert not run(inst, T).zero_start


def test_step_zero_warns_exactly_when_it_writes_no_nonzero_output():
    # (a) a zero start under odd maps stays at the all-zero fixed point
    inst, _ = _chain_instance(np.eye(3), np.zeros((3, 1)), scale=3.0)
    with pytest.warns(UserWarning, match="all-zero"):
        assert run(inst, 2).zero_start

    # (b) the GLM and gmm chains start at zero, yet their first
    # observation-side output y / (1 + beta0) is not zero
    lasso = lasso_model(d=60, n=30, lam=1.2, prior=default_prior(), sigma=0.5)
    gmm = GmmSpatialModel(K=2, d=20, n_per_cluster=15, lam=1.0, coupling=0.3)
    for inst, _ in (build_gamp_instance(lasso, seed=1),
                    build_gmm_spatial_instance(gmm, seed=1)):
        assert not any(np.any(x) for x in initial_iterates(inst).values())
        _runs_silently(inst)

    # (c) a nonzero start that relu maps to zero
    n = 5
    loop = EdgeId("v", "v")
    inst = GraphInstance(
        graph=single_loop("v", n),
        matrices={loop: sample_goe_like(n)},
        provider=stationary_provider({loop: Entrywise(
            lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(float), (0.0,))}),
        x0={loop: -np.ones((n, 1))},
    )
    with pytest.warns(UserWarning, match="all-zero"):
        assert run(inst, 2).zero_start

    # (d) the first step of every benchmark workload
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "perfbench", "workloads", "*.json")))
    assert paths
    for path in paths:
        cfg = config_mod.load(path)
        inst, _, _ = cli._build_zoo(cfg, cfg.amp_seeds[0])
        _runs_silently(inst, T=1)


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
        run(inst, 400)
    assert ei.value.edge == str(loop)
    assert ei.value.t is not None and ei.value.t > 1


def test_non_row_local_trace_matches_the_fd_oracle():
    # the forward update centers its input, so row i of its output reads
    # every row; d/dx_i of (x_i - mean x) summed over rows is n - 1
    n = 40
    g = line_graph(["sig", "obs"], [n, 10])
    fwd = EdgeId("sig", "obs")
    center = FromCallable(lambda inputs, side: inputs[0] - inputs[0].mean(axis=0),
                          jac=lambda inputs, side, wrt: np.array([[len(inputs[0]) - 1.0]]))
    A = np.random.default_rng(2).normal(size=(10, n)) / np.sqrt(n)
    inst = GraphInstance(
        graph=g,
        matrices={fwd: A},
        provider=stationary_provider({fwd: center, fwd.reversed(): Identity()}),
        x0={fwd.reversed(): np.ones((n, 1))},
    )
    # the centred ones and the identity of zeros both write zeros
    with pytest.warns(UserWarning, match="all-zero"):
        traj = run(inst, 2)
    assert traj.b[fwd][0][0, 0] == (n - 1) / inst.scale(fwd)
    x = np.random.default_rng(3).normal(size=(n, 1))
    assert fd_jacobian_trace(center, [x])[0, 0] == pytest.approx(n - 1, rel=1e-6)


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
                                jac=lambda inputs, side, wrt: np.array([[np.inf]]),
                                row_local=True)}),
        x0={loop: np.ones((4, 1))},
    )
    with pytest.raises(NumericalError):
        with np.errstate(divide="ignore", invalid="ignore"):
            run(inst, 1)


def test_wrong_output_shape_is_rejected():
    g = single_loop("v", 4)
    loop = EdgeId("v", "v")
    inst = GraphInstance(
        graph=g,
        matrices={loop: np.eye(4)},
        provider=stationary_provider(
            {loop: FromCallable(lambda inputs, side: inputs[0][:2],
                                jac=lambda inputs, side, wrt: np.array([[2.0]]),
                                row_local=True)}),
        x0={loop: np.ones((4, 1))},
    )
    with pytest.raises(ShapeError):
        run(inst, 1)


def test_observe_records_and_builtin_observables():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x0 = np.array([[1.0], [-1.0]])
    inst, fwd = _chain_instance(A, x0, scale=3.0)
    traj = run(inst, 2)
    bwd = fwd.reversed()
    obs = [norm_sq_observable(bwd, scale=1.0 / 3.0)]
    recs = observe(traj, obs, times=[1, 2])
    assert {r["t"] for r in recs} == {1, 2}
    want = float(np.sum((A.T @ x0) ** 2)) / 3.0
    got = [r["value"] for r in recs
           if r["t"] == 1 and r["observable"].startswith("norm_sq")]
    assert np.allclose(got, want)


def test_observable_callable_protocol():
    f = Observable("const", lambda xs, t: 4.2)
    assert f({}, 0) == 4.2
