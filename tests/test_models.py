import numpy as np
import pytest

from graphamp import (CommitteeModel, GmmSpatialModel, MultilayerModel,
                      SpikedModel, build_committee_instance,
                      build_gamp_instance, build_gmm_spatial_instance,
                      build_multilayer_instance, build_spiked_instance,
                      lasso_model, layer_specs, logistic_model, ridge_model)
from graphamp.engine import run
from graphamp.graphs import EdgeId, edges_into
from graphamp.models import committee
from graphamp.models.glm import estimation_times, gamp_estimate, gamp_stats
from graphamp.models.gmm import (StackPenaltyProx, accuracy, classify, gmm_weights,
                                 ridge_baseline, sample_gmm_data)
from graphamp.models.spiked import spiked_scalar_se

from checks import kkt_residual
from helpers import default_prior, fista_lasso, ridge_direct

# independent adaptive-quadrature values for the two-scalar spike
# recursion at lam = 2.5 (unit Rademacher prior, tanh denoiser,
# mu_0 = 0.2, q_0 = 0)
SPIKED_MU_TRAIL = [0.312078, 0.462145, 0.627310, 0.768030,
                   0.862351, 0.916003, 0.943995, 0.958071]
SPIKED_MU_STAR = 0.9719224939
SPIKED_Q_STAR = 0.5206557527


def test_teacher_signal_independent_of_design():
    model = lasso_model(d=60, n=30, lam=1.0, prior=default_prior(), sigma=0.5)
    _, t1 = build_gamp_instance(model, seed=0)
    model2 = lasso_model(d=60, n=40, lam=1.0, prior=default_prior(), sigma=0.5)
    _, t2 = build_gamp_instance(model2, seed=0)
    # same seed, different design shape: the signal stream is unchanged
    assert np.array_equal(t1.x0, t2.x0)


def test_ridge_fixed_point_matches_direct_solve():
    model = ridge_model(d=200, n=100, lam=1.2, prior=default_prior(), sigma=0.5)
    inst, teacher = build_gamp_instance(model, seed=1)
    traj = run(inst, 300)
    xh = gamp_estimate(traj, model, estimation_times(traj)[-1])
    A = inst.matrix(EdgeId("sig", "obs"))
    xd = ridge_direct(A, teacher.y, 1.2)
    assert np.linalg.norm(xh - xd) / np.linalg.norm(xd) < 1e-8


def test_lasso_fixed_point_satisfies_kkt():
    model = lasso_model(d=200, n=100, lam=1.2, prior=default_prior(), sigma=0.5)
    inst, teacher = build_gamp_instance(model, seed=2)
    traj = run(inst, 400)
    xh = gamp_estimate(traj, model, estimation_times(traj)[-1])
    A = inst.matrix(EdgeId("sig", "obs"))
    assert kkt_residual(model, A, teacher.y, xh) < 1e-8
    xf = fista_lasso(A, teacher.y, 1.2, iters=8000)
    assert np.linalg.norm(xh - xf) / np.linalg.norm(xf) < 1e-6


def test_logistic_fixed_point_satisfies_kkt_with_positive_overlap():
    model = logistic_model(d=300, n=450, lam=0.3, prior=default_prior())
    inst, teacher = build_gamp_instance(model, seed=3)
    traj = run(inst, 60)
    t = estimation_times(traj)[-1]
    xh = gamp_estimate(traj, model, t)
    A = inst.matrix(EdgeId("sig", "obs"))
    assert kkt_residual(model, A, teacher.y, xh) < 1e-8
    assert gamp_stats(traj, model, teacher, t).m > 0.3


def test_depth_one_multilayer_is_a_stationary_line_graph():
    ml = MultilayerModel(d0=80, layers=layer_specs([40], ["relu"]))
    inst, y = build_multilayer_instance(ml, seed=4)
    assert set(inst.graph.vertices) == {"z0", "z1"}
    # the generic SE calls the provider with b=None
    for e in inst.graph.edges:
        assert inst.provider(e, 0, None) is inst.provider(e, 5, None)
    traj = run(inst, 8)
    assert traj.T == 8


def test_multilayer_chain_fields_are_nonzero():
    ml = MultilayerModel(d0=120, layers=layer_specs([100, 80],
                                                    ["linear", "relu"]))
    inst, _ = build_multilayer_instance(ml, seed=5)
    traj = run(inst, 8)
    for e in inst.graph.edges:
        assert np.linalg.norm(traj.x[e][8]) > 0


def test_spiked_scalar_recursion_matches_independent_quadrature():
    model = SpikedModel(N=100, lam=2.5)
    pts = spiked_scalar_se(model, T=8)
    for t, mu in enumerate(SPIKED_MU_TRAIL, start=1):
        assert abs(pts[t].mu - mu) < 1e-5
    tail = spiked_scalar_se(model, T=200)[-1]
    assert abs(tail.mu - SPIKED_MU_STAR) < 1e-6
    assert abs(tail.q - SPIKED_Q_STAR) < 1e-6


def test_spiked_amp_reaches_predicted_overlap():
    model = SpikedModel(N=2000, lam=2.5)
    inst, v0 = build_spiked_instance(model, seed=6)
    traj = run(inst, 8)
    loop = EdgeId("spike", "spike")
    overlap = float(v0 @ traj.x[loop][8].reshape(-1)) / model.N
    pred = spiked_scalar_se(model, T=8)[8].mu
    assert abs(overlap - pred) < 0.08


def test_weak_spike_keeps_overlap_near_zero():
    model = SpikedModel(N=1500, lam=0.04, init_overlap=0.05)
    inst, v0 = build_spiked_instance(model, seed=7)
    traj = run(inst, 6)
    loop = EdgeId("spike", "spike")
    overlap = float(v0 @ traj.x[loop][6].reshape(-1)) / model.N
    assert abs(overlap) < 0.08


def test_spiked_generative_chain_runs_finite():
    for gen_dims in ((80,), (30, 40)):
        model = SpikedModel(N=240, lam=2.5, gen_dims=gen_dims, gen_activation="tanh")
        inst, v0 = build_spiked_instance(model, seed=8)
        traj = run(inst, 8)
        assert all(np.all(np.isfinite(traj.x[e][8])) for e in inst.graph.edges)
        assert v0.shape == (240,)
    # the depth-2 line's interior node g1 combines its fields from below
    # (g0->g1) and above (spike->g1) at weights 0.5 / 0.5
    ins = edges_into(inst.graph, EdgeId("g1", "spike"))
    slots = [ins.index(EdgeId("g0", "g1")), ins.index(EdgeId("spike", "g1"))]
    up = inst.provider(EdgeId("g1", "spike"), 0, None)
    down = inst.provider(EdgeId("g1", "g0"), 0, None)
    assert [up.L[i] for i in slots] == [0.5, 0.5]
    assert [down.M[i] for i in slots] == [-0.5, 0.5]


def test_committee_first_iterate_second_moment():
    # x^1 = A m^0 with m^0 = soft_threshold(0.5, 0.4) ones @ R; per-row
    # second moment is then |0.1 colsums(R)|^2 exactly in the limit
    model = CommitteeModel(d=1200, n=900)
    inst, _ = build_committee_instance(model, seed=9)
    traj = run(inst, 1)
    fwd = EdgeId("wts", "obs")
    row = 0.1 * committee.R.sum(axis=0)
    want = float(row @ row)
    got = float(np.sum(traj.x[fwd][1] ** 2)) / model.n
    assert abs(got - want) < 0.1 * want


def test_gmm_sigma_grid_and_block_variances():
    model = GmmSpatialModel(K=2, d=150, n_per_cluster=120, lam=1.0,
                            coupling=0.3)
    assert np.allclose(model.sigma_grid(), [[1.0, 0.3], [0.3, 1.0]])
    inst, data = build_gmm_spatial_instance(model, seed=10)
    grid = model.sigma_grid()
    for i in range(2):
        for j in range(2):
            blk = data.design[120 * i:120 * (i + 1), 150 * j:150 * (j + 1)]
            assert abs(blk.var() * model.d - grid[i, j]) < 0.12 * grid[i, j]


def test_gmm_iteration_reaches_ridge_weights():
    model = GmmSpatialModel(K=2, d=200, n_per_cluster=160, lam=1.0,
                            coupling=0.3)
    inst, data = build_gmm_spatial_instance(model, seed=11)
    traj = run(inst, 60)
    W = gmm_weights(traj, model, data)
    Wr = ridge_baseline(model, data)
    err = np.linalg.norm(W - Wr) / np.linalg.norm(Wr)
    assert err < 1e-4
    acc_amp = accuracy(W, data)
    acc_ridge = accuracy(Wr, data)
    assert acc_amp > 0.9
    assert abs(acc_amp - acc_ridge) < 0.02
    labels = classify(W, data.design_rows)
    assert labels.shape == (2 * 160,)


def _rel(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("lam", [0.0, 1.1])
def test_stack_prox_spectral_form_matches_dense_solve(lam):
    model = GmmSpatialModel(K=3, d=40, n_per_cluster=10, lam=lam, coupling=0.3)
    data = sample_gmm_data(model, seed=4)
    alpha, K, d = 0.7, model.K, model.d
    R = data.roots
    prox = StackPenaltyProx(R, data.spectrum, lam, alpha)
    U = np.random.default_rng(5).normal(size=(K * d, K))
    # dense reference: G = alpha lam I + sum_k Sigma_k, Sigma_k = R_k R_k^T
    blocks = [R[k * d:(k + 1) * d] for k in range(K)]
    covs = [B @ B.T for B in blocks]
    G = alpha * lam * np.eye(d) + sum(covs)
    rhs = sum(blocks[k].T @ (alpha * U[k * d:(k + 1) * d]) for k in range(K))
    W_ref = np.linalg.solve(G, rhs)
    out_ref = np.vstack([B @ W_ref for B in blocks])
    Ginv = np.linalg.inv(G)
    tr_ref = alpha * sum(np.trace(C @ Ginv) for C in covs) * np.eye(K)
    assert _rel(prox.weights(U), W_ref) <= 1e-12
    assert _rel(prox.apply([U]), out_ref) <= 1e-12
    assert _rel(prox.jacobian_trace([U]), tr_ref) <= 1e-12


@pytest.mark.parametrize("coupling", [0.0, 0.3])
def test_gmm_roots_match_their_spectrum_and_rows(coupling):
    model = GmmSpatialModel(K=3, d=40, n_per_cluster=25, coupling=coupling)
    data = sample_gmm_data(model, seed=6)
    K, d, npc = model.K, model.d, model.n_per_cluster
    R = data.roots
    assert R.shape == (K * d, d)
    for k in range(K):
        # each row block is the symmetric root of an SPD covariance
        B = R[k * d:(k + 1) * d]
        assert np.allclose(B, B.T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(B).min() > 0
    s, U = data.spectrum
    assert _rel((U * s) @ U.T, R.T @ R) <= 1e-12
    # per-block reference: row block k is sum_j design_kj R_j
    rows = np.zeros((model.n, d))
    for k in range(K):
        for j in range(K):
            blk = data.design[k * npc:(k + 1) * npc, j * d:(j + 1) * d]
            rows[k * npc:(k + 1) * npc] += blk @ R[j * d:(j + 1) * d]
    assert _rel(data.design_rows, rows) <= 1e-12


FACTORIZATIONS = ("eigh", "eig", "eigvalsh", "solve", "inv", "cholesky",
                  "qr", "svd", "lstsq", "pinv")


def test_gmm_iteration_factors_no_matrix_per_step(monkeypatch):
    model = GmmSpatialModel(K=2, d=60, n_per_cluster=50, coupling=0.3)
    inst, _ = build_gmm_spatial_instance(model, seed=3)
    calls = {name: 0 for name in FACTORIZATIONS}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FACTORIZATIONS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    traj = run(inst, 6)
    assert traj.T == 6
    assert calls == {name: 0 for name in FACTORIZATIONS}


def test_default_mean_scale_is_in_the_stable_regime():
    model = GmmSpatialModel(K=2, d=100, n_per_cluster=80, lam=1.0)
    assert model.n_per_cluster * model.mean_scale ** 2 < 1.0
