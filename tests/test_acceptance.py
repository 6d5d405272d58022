"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (run pytest with -s, the default
here) and asserts the same condition, so the suite doubles as a
human-readable report.  Parameterizations and tolerances are frozen;
oracle values come from independent solvers (FISTA, direct linear
solves, adaptive quadrature) in helpers.py.
"""

import filecmp
import json
import time

import numpy as np

from graphamp import (GaussBernoulliPrior, QuadSpec, build_gamp_instance,
                      gamp_overlap_se, kkt_residual, lasso_model, ridge_model,
                      soft_threshold, verify_equivalence)
from graphamp.cli import main as cli_main
from graphamp.engine import run
from graphamp.ensembles import normals, stream
from graphamp.gamp_se import GlmScalars
from graphamp.graphs import EdgeId
from graphamp.models import GmmSpatialModel, SpikedModel
from graphamp.models.glm import estimation_times, gamp_estimate, gamp_stats
from graphamp.models.gmm import (StackPenaltyProx, accuracy,
                                 build_gmm_spatial_instance, gmm_weights,
                                 ridge_baseline)
from graphamp.models.multilayer import (MIX, SIGNAL_PROX, InteriorMessage,
                                        _activation)
from graphamp.nonlinearity import (AffineResidual, Entrywise, FromCallable,
                                   Identity, LinearEntrywiseLinear, SideData,
                                   Zero)
from graphamp.prox import ProxSpec
from graphamp.state_evolution import compare

from checks import (goe_projection_checks, onsager_fd_check, opnorm_check,
                    spectral_sqrt, stein_check)
from helpers import default_prior, fista_lasso, read_report_csv, ridge_direct, zoo_instances


def _report(k, label, ok, detail=""):
    line = f"ACCEPTANCE {k} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. embedding equivalence over the model zoo


def test_criterion_01_embedding_equivalence():
    worst = ("", 0.0)
    t0 = time.time()
    for name, inst in zoo_instances(seed=0):
        rep = verify_equivalence(inst, 10, seed=0)
        if rep.max_err > worst[1]:
            worst = (name, rep.max_err)
    ok = worst[1] <= 1e-10
    _report(1, "embedding-equivalence", ok,
            f"max discrepancy {worst[1]:.3e} at {worst[0]}, "
            f"{time.time() - t0:.1f}s total")


# ---------------------------------------------------------------------------
# 2. SE agreement on the asymmetric design (second moments + MSE)


def _glm_amp_table(model, seeds, T):
    """(t, name) -> list of per-seed values for the gated observables."""
    table = {}
    for seed in seeds:
        inst, teacher = build_gamp_instance(model, seed=seed)
        traj = run(inst, 2 * T)
        for st in (gamp_stats(traj, model, teacher, t) for t in estimation_times(traj)):
            for name, val in (("norm_sq_v", st.v2), ("norm_sq_u", st.u2),
                              ("mse", st.mse), ("overlap", st.m)):
                table.setdefault((st.t, name), []).append(val)
    return table


def _gate_rows(table, se_by_key, names, rel_tol, z_tol):
    rows = []
    for (t, name), values in sorted(table.items()):
        if name not in names or (t, name) not in se_by_key:
            continue
        arr = np.asarray(values)
        se_value = se_by_key[(t, name)]
        rel = abs(arr.mean() - se_value) / max(abs(se_value), 1e-12)
        sem = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        z = abs(arr.mean() - se_value) / sem if sem > 0 else np.inf
        ok = rel <= rel_tol or (z_tol is not None and z <= z_tol)
        rows.append((t, name, rel, z, ok))
    return rows


def test_criterion_02_lasso_se_agreement():
    prior = GaussBernoulliPrior(eps=0.25, var=4.0)
    model = lasso_model(d=2000, n=1000, lam=1.2, prior=prior, sigma=0.5)
    table = _glm_amp_table(model, range(200, 210), T=10)
    pts = gamp_overlap_se(model.prior, model.channel, model.scalars,
                          delta=model.delta, T=10, beta0=model.beta0,
                          quad=QuadSpec(method="gh"))
    se = {}
    for pt in pts[1:]:
        se[(pt.t, "norm_sq_v")] = pt.p
        se[(pt.t, "norm_sq_u")] = pt.u_second_moment(prior.rho)
        se[(pt.t, "mse")] = pt.mse
    rows = _gate_rows(table, se, ("norm_sq_v", "norm_sq_u", "mse"),
                      rel_tol=0.05, z_tol=4.0)
    assert len(rows) == 30
    fails = [r for r in rows if not r[4]]
    worst = max(rows, key=lambda r: min(r[2] / 0.05, r[3] / 4.0))
    _report(2, "lasso-se-agreement", not fails,
            f"{len(rows)} gates, {len(fails)} failed; worst t={worst[0]} "
            f"{worst[1]} rel={worst[2]:.4f} z={worst[3]:.2f}")


# ---------------------------------------------------------------------------
# 3. multilayer SE agreement via the CLI route


def _scaled_se_failures(rows, scales=(1.0, 1.1, 0.9)):
    """scale -> failing rows when the AMP side of compare.csv rows is
    re-gated against their SE side scaled by that factor."""
    amp = {(r["t"], r["name"]): {
        "mean": float(r["amp_mean"]), "std": float(r["amp_std"]),
        "n": int(r["n_seeds"]),
        "sem": float(r["amp_std"]) / np.sqrt(int(r["n_seeds"]))} for r in rows}

    def failures(scale):
        se = {(r["t"], r["name"]): {"mean": scale * float(r["se_value"]),
                                    "sem": scale * float(r["se_stderr"])}
              for r in rows}
        return sum(1 for rec in compare(amp, se) if not rec["pass"])

    return {scale: failures(scale) for scale in scales}



def test_criterion_03_multilayer_se_agreement(tmp_path):
    cfg = {
        "model": {"kind": "multilayer", "d0": 1000, "dims": [1000, 1000],
                  "activations": ["linear", "relu"]},
        "T": 8,
        "amp_seeds": list(range(10)),
        "se_samples": 2000,
        "master_seed": 21,
        "observables": ["norm_sq"],
    }
    p = tmp_path / "ml.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(p), "--out", str(out), "--strict"])
    _, rows = read_report_csv(out / "compare.csv")
    fails = [r for r in rows if r["pass"] != "1"]
    # z is reported over non-degenerate rows; structurally-zero iterates
    # pass through the atol gate and carry no meaningful z
    zs = [float(r["z"]) for r in rows
          if np.isfinite(float(r["z"]))
          and max(abs(float(r["amp_mean"])), abs(float(r["se_value"]))) > 1e-4]
    max_z = max(zs) if zs else 0.0
    # negative control: the same AMP rows, re-gated against the SE scaled
    # by 1.1 and by 0.9, must each fail at least one row
    control = _scaled_se_failures(rows)
    ok = (rc == 0 and not fails and control[1.0] == 0 and control[1.1] >= 1
          and control[0.9] >= 1)
    _report(3, "multilayer-se-agreement", ok,
            f"{len(rows)} gates, {len(fails)} failed; max z {max_z:.2f}; "
            f"SE x1.1 fails {control[1.1]}, x0.9 fails {control[0.9]}")


# ---------------------------------------------------------------------------
# 4. fixed points against independent convex solvers


def test_criterion_04_fixed_point_vs_convex_oracle():
    prior = default_prior()
    lmodel = lasso_model(d=500, n=250, lam=1.2, prior=prior, sigma=0.5)
    inst, teacher = build_gamp_instance(lmodel, seed=42)
    traj = run(inst, 400)
    xh = gamp_estimate(traj, lmodel, estimation_times(traj)[-1])
    A = inst.matrix(EdgeId("sig", "obs"))
    xf = fista_lasso(A, teacher.y, 1.2, iters=20000)
    lasso_rel = np.linalg.norm(xh - xf) / np.linalg.norm(xf)
    lasso_kkt = kkt_residual(lmodel, A, teacher.y, xh)

    rmodel = ridge_model(d=500, n=250, lam=1.2, prior=prior, sigma=0.5)
    inst, teacher = build_gamp_instance(rmodel, seed=43)
    traj = run(inst, 400)
    xh = gamp_estimate(traj, rmodel, estimation_times(traj)[-1])
    A = inst.matrix(EdgeId("sig", "obs"))
    xd = ridge_direct(A, teacher.y, 1.2)
    ridge_rel = np.linalg.norm(xh - xd) / np.linalg.norm(xd)

    ok = lasso_rel <= 1e-4 and ridge_rel <= 1e-6
    _report(4, "fixed-point-vs-oracle", ok,
            f"lasso rel {lasso_rel:.3e} (kkt {lasso_kkt:.1e}), "
            f"ridge rel {ridge_rel:.3e}")


# ---------------------------------------------------------------------------
# 5. six-equation overlap recursion vs empirical overlap (strict 5%)


def test_criterion_05_overlap_se_strict():
    prior = GaussBernoulliPrior(eps=0.25, var=4.0)
    model = lasso_model(d=4000, n=2000, lam=0.6, prior=prior, sigma=0.5)
    table = _glm_amp_table(model, range(500, 530), T=10)
    pts = gamp_overlap_se(model.prior, model.channel, model.scalars,
                          delta=model.delta, T=10, beta0=model.beta0,
                          quad=QuadSpec(method="gh"))
    se = {(pt.t, "overlap"): pt.m for pt in pts[1:]}
    rows = _gate_rows(table, se, ("overlap",), rel_tol=0.05, z_tol=None)
    assert len(rows) == 10
    fails = [r for r in rows if not r[4]]
    worst = max(rows, key=lambda r: r[2])
    _report(5, "overlap-se-strict", not fails,
            f"10 iterations, worst rel {worst[2]:.4f} at t={worst[0]}")


# ---------------------------------------------------------------------------
# 6. Onsager analytic vs finite-difference for every shipped nonlinearity


_CLEAR = 1e-3


def _away_from(x, kinks, clear=_CLEAR):
    """Push entries of x at distance < clear from any kink out to clear."""
    for k in kinks:
        d = x - k
        close = np.abs(d) < clear
        x[close] = k + np.where(d[close] >= 0.0, clear, -clear)
    return x


def _clear_mixed_field(below, above, clear=_CLEAR):
    """Shift the below-input so MIX*below + MIX*above stays off zero."""
    z = MIX * below + MIX * above
    close = np.abs(z) < clear
    sgn = np.where(z[close] >= 0.0, 1.0, -1.0)
    below[close] += (2.0 * clear / MIX) * sgn
    return below, above


def _nonlinearity_catalog(rng):
    """Yields (name, f, make_case) covering every shipped update map.

    make_case() -> (inputs, side, wrt).  Inputs are sampled away from
    prox/activation kinks so central differences see a smooth point.
    The flattened-embedding wrapper is exercised by criterion 1, where
    its assembled Jacobian must reproduce the graph iteration exactly.
    """
    n = 150

    def smooth(cols=1, scale=1.0):
        return scale * rng.normal(size=(n, cols))

    yield ("identity", Identity(cols=2),
           lambda: ([smooth(2)], None, 0))
    yield ("zero", Zero(cols=2),
           lambda: ([smooth(3)], None, 0))
    yield ("entrywise_tanh",
           Entrywise(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
           lambda: ([smooth(2)], None, 0))
    yield ("entrywise_relu",
           Entrywise(lambda x: np.maximum(x, 0.0),
                     lambda x: (x > 0).astype(float)),
           lambda: ([_away_from(smooth(2), [0.0])], None, 0))
    yield ("entrywise_soft_threshold",
           Entrywise(lambda x: soft_threshold(x, 0.7),
                     lambda x: (np.abs(x) > 0.7).astype(float)),
           lambda: ([_away_from(smooth(2), [-0.7, 0.7])], None, 0))
    R = rng.normal(size=(2, 2))
    yield ("entrywise_then_mix",
           LinearEntrywiseLinear(out_cols=2, phi=lambda x: soft_threshold(x, 0.4),
                                 dphi=lambda x: (np.abs(x) > 0.4).astype(float),
                                 L=[1.0], R=R),
           lambda: ([_away_from(smooth(2), [-0.4, 0.4])], None, 0))
    yield ("scaled_tanh",
           LinearEntrywiseLinear(phi=np.tanh, dphi=lambda x: 1.0 - np.tanh(x) ** 2,
                                 L=[1.0], R=-2.5),
           lambda: ([smooth(2)], None, 0))

    def affine_jac(inputs, side, wrt):
        return np.array([[2.0 * inputs[0].shape[0]]])

    yield ("from_callable_affine",
           FromCallable(lambda inputs, side: 2.0 * inputs[0] + 1.0,
                        jac=affine_jac, row_local=True),
           lambda: ([smooth()], None, 0))

    abs_scalars = GlmScalars(penalty=ProxSpec(kind="abs", gamma=1.0,
                                              weight=0.8), loss="squared")
    alpha = 0.9
    abs_prox = abs_scalars.signal_map(alpha)
    yield ("penalty_prox_abs", abs_prox,
           lambda: ([_away_from(smooth(), abs_prox.kinks)], None, 0))
    sq_scalars = GlmScalars(penalty=ProxSpec(kind="squared", gamma=1.0,
                                             weight=1.2), loss="squared")
    yield ("penalty_prox_squared", sq_scalars.signal_map(0.7),
           lambda: ([smooth()], None, 0))
    yield ("residual_map_squared", sq_scalars.residual_map(0.6),
           lambda: ([smooth()],
                    SideData(arrays={"y": rng.normal(size=n)}), 0))
    logi = GlmScalars(penalty=ProxSpec(kind="squared", gamma=1.0, weight=0.5),
                      loss="logistic")
    yield ("residual_map_logistic", logi.residual_map(0.8),
           lambda: ([smooth()],
                    SideData(arrays={"y": rng.choice([-1.0, 1.0], size=n)}),
                    0))

    def relu_case(wrt):
        def make():
            return [*_clear_mixed_field(smooth(), smooth())], None, wrt
        return make

    def interior_up(activation, theta=1.0):
        return InteriorMessage("up", 0, 1, _activation(activation, theta))

    # the messages out of every interior node of the multilayer and
    # generative chains
    yield ("interior_up_relu_wrt_below", interior_up("relu"), relu_case(0))
    yield ("interior_up_relu_wrt_above", interior_up("relu"), relu_case(1))
    yield ("interior_up_linear", interior_up("linear"),
           lambda: ([smooth(), smooth()], None, rng.integers(2)))
    yield ("interior_down", InteriorMessage("down", 0, 1),
           lambda: ([smooth(), smooth()], None, rng.integers(2)))
    yield ("signal_prox", GlmScalars(penalty=SIGNAL_PROX).signal_map(1.0),
           lambda: ([_away_from(smooth(), [-0.05, 0.05])], None, 0))
    yield ("affine_residual_den2", AffineResidual("y", den=2.0),
           lambda: ([smooth()],
                    SideData(arrays={"y": rng.normal(size=n)}), 0))

    sp = SpikedModel(N=n, lam=2.0, gen_dims=(n,))
    loop_node = interior_up(sp.denoiser, sp.theta)
    yield ("loop_node_wrt_loop", loop_node,
           lambda: ([smooth(), smooth()], None, 0))
    yield ("loop_node_wrt_chain", loop_node,
           lambda: ([smooth(), smooth()], None, 1))

    yield ("affine_residual_mix", AffineResidual("Y", rng.normal(size=(2, 2))),
           lambda: ([smooth(2)],
                    SideData(arrays={"Y": rng.normal(size=(n, 2))}), 0))

    gmodel = GmmSpatialModel(K=2, d=30, n_per_cluster=20, lam=1.1)
    covs, roots = [], []
    for k in range(2):
        q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        Sig = (q * rng.uniform(0.5, 2.0, size=30)) @ q.T
        covs.append(Sig)
        roots.append(spectral_sqrt(Sig))
    stack = StackPenaltyProx(gmodel, roots, np.linalg.eigh(sum(covs)), alpha=0.7)
    yield ("stack_penalty_prox", stack,
           lambda: ([rng.normal(size=(60, 2))], None, 0))
    yield ("affine_residual_q2", AffineResidual("y", den=1.9),
           lambda: ([smooth(2)],
                    SideData(arrays={"y": np.eye(2)[rng.integers(0, 2, n)]}),
                    0))
    yield ("spiked_denoiser_tanh_theta",
           Entrywise(**_activation("tanh", 1.7)),
           lambda: ([smooth()], None, 0))


def test_criterion_06_onsager_fd_all_nonlinearities():
    rng = np.random.default_rng(60)
    worst = ("", 0.0)
    count = 0
    for name, f, make_case in _nonlinearity_catalog(rng):
        count += 1
        for _ in range(100):
            inputs, side, wrt = make_case()
            rep = onsager_fd_check(f, inputs, wrt_block=int(wrt), side=side)
            if rep.statistic > worst[1]:
                worst = (name, rep.statistic)
            assert rep.passed, (name, rep.statistic)
    _report(6, "onsager-analytic-vs-fd", worst[1] <= 1e-5,
            f"{count} nonlinearities x 100 points, worst rel "
            f"{worst[1]:.2e} at {worst[0]}")


# ---------------------------------------------------------------------------
# 7. Stein identity per block


def test_criterion_07_stein_identity():
    kappa = np.array([[1.0, 0.4], [0.4, 2.0]])
    fns = [
        ("identity", Entrywise(lambda x: x, lambda x: np.ones_like(x))),
        ("tanh", Entrywise(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2)),
        ("soft_threshold",
         Entrywise(lambda x: soft_threshold(x, 0.7),
                   lambda x: (np.abs(x) > 0.7).astype(float))),
    ]
    zs = {}
    for name, f in fns:
        rep = stein_check(f, kappa, n=10_000, M=200,
                          rng=stream(17, "stein", name))
        zs[name] = rep.statistic
    ok = all(z <= 3.0 for z in zs.values())
    _report(7, "stein-identity", ok,
            ", ".join(f"{k} z={v:.2f}" for k, v in zs.items()))


# ---------------------------------------------------------------------------
# 8. GOE operator norm band and projection lemma items


def test_criterion_08_goe_suite():
    norms = [r.statistic for r in opnorm_check([1000], seeds=[0, 1, 2])]
    band_ok = all(1.8 <= v <= 2.2 for v in norms)
    reps = goe_projection_checks(n=2000, q=3, t_rank=1, M=60,
                                 rng=stream(23, "goe"))
    by_id = {r.check_id: r for r in reps}
    a, b, d = (by_id["goe_a_bilinear"], by_id["goe_b_projection"],
               by_id["goe_d_gram"])
    items_ok = a.passed and b.passed and d.passed
    _report(8, "goe-suite", band_ok and items_ok,
            f"opnorms {', '.join(f'{v:.4f}' for v in norms)}; "
            f"(a) z={a.statistic:.2f}, (b) {b.statistic:.4f}, "
            f"(d) {d.statistic:.4f}")


# ---------------------------------------------------------------------------
# 9. matrix-valued committee path: embedding + SE gates


def test_criterion_09_committee_matrix_valued(tmp_path):
    cfg = {
        "model": {"kind": "committee", "d": 1000, "n": 1000},
        "T": 10,
        "amp_seeds": list(range(10)),
        "se_samples": 2000,
        "master_seed": 31,
        "observables": ["norm_sq"],
    }
    p = tmp_path / "committee.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc_embed = cli_main(["embed-verify", "--config", str(p),
                         "--out", str(out)])
    _, embed_rows = read_report_csv(out / "embed.csv")
    max_embed = max(float(r["err"]) for r in embed_rows)
    rc_run = cli_main(["run", "--config", str(p), "--out", str(out),
                       "--strict"])
    _, rows = read_report_csv(out / "compare.csv")
    fails = [r for r in rows if r["pass"] != "1"]

    # negative control: the same AMP rows, re-gated against the SE scaled
    # by 1.1 and by 0.9, must each fail at least one row
    control = _scaled_se_failures(rows)
    ok = (rc_embed == 0 and rc_run == 0 and not fails and max_embed <= 1e-10
          and control[1.0] == 0 and control[1.1] >= 1 and control[0.9] >= 1)
    _report(9, "committee-matrix-valued", ok,
            f"embed max {max_embed:.3e}; {len(rows)} SE gates, "
            f"{len(fails)} failed; SE x1.1 fails {control[1.1]}, "
            f"x0.9 fails {control[0.9]}")


# ---------------------------------------------------------------------------
# 10. spatially coupled GMM: block variances and classification parity


def test_criterion_10_gmm_spatial():
    model = GmmSpatialModel(K=2, d=500, n_per_cluster=400, lam=1.0,
                            mean_scale=0.1, coupling=0.3)
    inst, data = build_gmm_spatial_instance(model, seed=0)
    grid = model.sigma_grid()
    var_rel = 0.0
    for i in range(2):
        for j in range(2):
            blk = data.design[400 * i:400 * (i + 1), 500 * j:500 * (j + 1)]
            var_rel = max(var_rel,
                          abs(blk.var() * model.d - grid[i, j]) / grid[i, j])
    traj = run(inst, 120)
    W = gmm_weights(traj, model, data)
    Wb = ridge_baseline(model, data)
    werr = np.linalg.norm(W - Wb) / np.linalg.norm(Wb)
    acc_amp, acc_base = accuracy(W, data), accuracy(Wb, data)
    ok = var_rel <= 0.10 and abs(acc_amp - acc_base) <= 0.02
    _report(10, "gmm-spatial-coupling", ok,
            f"block var rel {var_rel:.3f}, weight rel err {werr:.2e}, "
            f"accuracy amp {acc_amp:.3f} vs baseline {acc_base:.3f}")


# ---------------------------------------------------------------------------
# 11. byte-identical artifacts on rerun


def test_criterion_11_reproducibility(tmp_path):
    names = ("trajectory.csv", "se.csv", "compare.csv")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli_main(["run", "--config", "configs/lasso_quickstart.json",
                       "--out", str(out), "--workers", "3"])
        assert rc == 0
    same = {name: filecmp.cmp(a / name, b / name, shallow=False)
            for name in names}
    _report(11, "byte-identical-reruns", all(same.values()),
            ", ".join(f"{k} {'ok' if v else 'DIFFERS'}"
                      for k, v in same.items()))
