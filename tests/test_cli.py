import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import graphamp
from graphamp import cli
from graphamp import config as config_mod
from graphamp.cli import main
from graphamp.config import MODEL_KINDS
from graphamp.engine import run
from graphamp.graphs import canonical_edge_order
from graphamp.state_evolution import se_run

from helpers import bounded_call, read_report_csv

TINY_LASSO = {
    "model": {"kind": "lasso", "d": 80, "aspect": 0.5, "lam": 1.2,
              "noise_sigma": 0.5},
    "T": 4,
    "amp_seeds": [0, 1],
    "quadrature": "gh",
}


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_validate_config_reports_hash(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_LASSO)
    assert main(["validate-config", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "config ok: kind=lasso T=4" in out
    assert "hash=" in out


def test_run_writes_schema_stamped_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_LASSO)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "comparisons" in msg and "outside gates" in msg
    for name in ("trajectory.csv", "se.csv", "compare.csv"):
        schema, rows = read_report_csv(out / name)
        assert schema.startswith("# schema=graphamp-v1 config_hash=")
        assert len(schema.split("config_hash=")[1].strip()) == 16
    _, rows = read_report_csv(out / "compare.csv")
    assert {r["name"] for r in rows} >= {"mse", "overlap"}
    assert all(r["pass"] in ("0", "1") for r in rows)


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, TINY_LASSO)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("trajectory.csv", "se.csv", "compare.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_worker_pool_does_not_change_artifacts(tmp_path):
    cfg = _write(tmp_path, {**TINY_LASSO, "amp_seeds": [0, 1, 2]})
    a, b = tmp_path / "w1", tmp_path / "w3"
    assert main(["run", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--workers", "3"]) == 0
    for name in ("trajectory.csv", "se.csv", "compare.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


SMALL_COMMITTEE = {"model": {"kind": "committee", "d": 120, "n": 100},
                   "T": 4, "amp_seeds": [0, 1], "se_samples": 300,
                   "master_seed": 5, "observables": ["norm_sq"]}


def test_worker_pool_splits_generic_se_without_changing_artifacts(tmp_path):
    cfg = _write(tmp_path, SMALL_COMMITTEE)
    a, b = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
    for name in ("trajectory.csv", "se.csv", "compare.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_generic_se_rows_are_kernel_traces():
    # the rows of x^t_e tend to N(0, K_e^{t,t}): the prediction of
    # ||x^t_e||^2 / n_e is tr K_e^{t,t}, read off se_run with no sampling,
    # on each AMP seed's instance (the SE is conditional on its side
    # data) and averaged over the seeds
    cfg = config_mod.validate(SMALL_COMMITTEE)
    instances = [cli._build_zoo(cfg, seed)[0] for seed in cfg.amp_seeds]
    covs = [se_run(inst, cfg.T, reps=cfg.se_samples, seed=cfg.master_seed)
            for inst in instances]
    rows = {(t, name): (value, stderr)
            for t, name, value, stderr in cli.se_rows_for(cfg, workers=2)}
    edges = canonical_edge_order(instances[0].graph)
    assert len(rows) == cfg.T * len(edges)
    differ = 0
    for t in range(1, cfg.T + 1):
        for e in edges:
            traces = [float(np.trace(cov.kernel(e, t, t))) for cov in covs]
            differ += traces[0] != traces[1]
            assert rows[(t, f"norm_sq[{e}]")] == (float(np.mean(traces)), 0.0)
    assert differ


def test_run_builds_each_seed_instance_once(tmp_path, monkeypatch):
    # run's generic SE runs in each seed's task, on the instance its AMP
    # run used; se-only builds the instances for the SE alone, and both
    # predict the same rows
    built = []
    build = cli.build_committee_instance
    monkeypatch.setattr(cli, "build_committee_instance",
                        lambda model, seed: built.append(seed) or build(model, seed))
    cfg = _write(tmp_path, SMALL_COMMITTEE)
    run, se_only = tmp_path / "run", tmp_path / "se-only"
    assert main(["run", "--config", cfg, "--out", str(run), "--workers", "2"]) == 0
    assert sorted(built) == [0, 1]
    assert main(["se-only", "--config", cfg, "--out", str(se_only)]) == 0
    assert sorted(built) == [0, 0, 1, 1]
    bodies = [(d / "se.csv").read_text().splitlines()[1:] for d in (run, se_only)]
    assert bodies[0] == bodies[1] and len(bodies[0]) == 1 + 2 * SMALL_COMMITTEE["T"]


def test_generic_norm_sq_is_the_per_row_second_moment():
    # norm_sq[e] is ||x_e||^2 / n_e, n_e the rows of x_e, the scale of
    # tr K_e^{t,t}
    cfg = config_mod.validate(SMALL_COMMITTEE)
    rows, _, _ = cli._run_one_seed(cfg, cfg.amp_seeds[0])
    instance, _, _ = cli._build_zoo(cfg, cfg.amp_seeds[0])
    traj = run(instance, cli._graph_T(cfg), allow_degenerate=True)
    xs = {f"norm_sq[{e}]": traj.x[e] for e in traj.x}
    assert len(rows) == cfg.T * len(xs)
    for t, name, value in rows:
        x = xs[name][t]
        assert value == pytest.approx(np.sum(x ** 2) / x.shape[0], rel=1e-12)


def test_structurally_zero_generic_row_predicts_exactly_zero():
    # x^1 on the signal edge is A_e times an all-zero first update
    cfg = config_mod.validate({"model": {"kind": "multilayer",
                                         **TINY_MODELS["multilayer"]},
                               "T": 2, "se_samples": 100})
    rows = {(t, name): (value, stderr)
            for t, name, value, stderr in cli.se_rows_for(cfg)}
    assert rows[(1, "norm_sq[z0->z1]")] == (0.0, 0.0)
    assert rows[(2, "norm_sq[z0->z1]")][0] > 0


def test_logistic_gh_run_exits_0(tmp_path):
    cfg = _write(tmp_path, {"model": {"kind": "logistic", "d": 60,
                                      "aspect": 0.5, "lam": 1.0},
                            "T": 3, "amp_seeds": [0, 1], "quadrature": "gh"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_se_only_writes_predictions(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_LASSO)
    out = tmp_path / "o"
    assert main(["se-only", "--config", cfg, "--out", str(out)]) == 0
    assert "se-only:" in capsys.readouterr().out
    _, rows = read_report_csv(out / "se.csv")
    assert {r["name"] for r in rows} == {"norm_sq_v", "norm_sq_u", "mse",
                                         "overlap"}


def test_embed_verify_passes_on_small_instance(tmp_path, capsys):
    cfg = _write(tmp_path, {**TINY_LASSO, "T": 3, "amp_seeds": [0]})
    out = tmp_path / "o"
    assert main(["embed-verify", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "embed-verify: max discrepancy" in msg
    _, rows = read_report_csv(out / "embed.csv")
    assert all(float(r["err"]) <= 1e-10 for r in rows)


def test_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"model": }')
    assert main(["run", "--config", str(p)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, {**TINY_LASSO, "bogus": 1})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bogus: unknown key" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_numerical_abort_exits_3_with_location(tmp_path, capsys):
    # beta0 = -1 zeroes the residual denominator on the first half-step
    cfg = _write(tmp_path, {
        "model": {"kind": "lasso", "d": 60, "aspect": 0.5, "lam": 1.0,
                  "beta0": -1.0},
        "T": 3,
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err
    assert "edge obs->sig" in err and "step 0" in err


# large cluster means make the mean direction's loop gain far above 1
DIVERGING_GMM = {"kind": "gmm_spatial", "K": 2, "d": 20, "n_per_cluster": 15,
                 "mean_scale": 300.0}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_diverging_embed_verify_exits_3_with_the_graph_location(tmp_path, capsys):
    cfg = _write(tmp_path, {"model": DIVERGING_GMM, "T": 100, "amp_seeds": [0]})
    params = {k: v for k, v in DIVERGING_GMM.items() if k != "kind"}
    inst, _ = graphamp.build_gmm_spatial_instance(graphamp.GmmSpatialModel(**params), seed=0)
    with pytest.raises(graphamp.NumericalError) as ref:
        run(inst, 200, allow_degenerate=True)
    rc = bounded_call(main, ["embed-verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"numerical abort at edge {ref.value.edge}, step {ref.value.t}:" in err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_embed_verify_fails_blocks_whose_norms_overflow(tmp_path, capsys):
    # stops a few steps short of the abort: the iterates are finite, but
    # their norms overflow and every late error reads inf / inf = nan
    cfg = _write(tmp_path, {"model": DIVERGING_GMM, "T": 56, "amp_seeds": [0]})
    assert main(["embed-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "max discrepancy inf" in capsys.readouterr().out
    _, rows = read_report_csv(str(tmp_path / "o" / "embed.csv"))
    assert any(np.isnan(float(r["err"])) for r in rows)


def test_unwritable_output_exits_4(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_LASSO)
    assert main(["run", "--config", cfg, "--out", "/dev/null/o"]) == 4
    assert "io error:" in capsys.readouterr().err


def test_checks_subcommand_writes_suite_csv(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["checks", "--suite", "onsager", "--out", str(out)]) == 0
    assert "checks[onsager]: 20 checks, 0 failed" in capsys.readouterr().out
    _, rows = read_report_csv(out / "checks_onsager.csv")
    assert len(rows) == 20
    assert all(r["check_id"] == "onsager_fd" for r in rows)
    assert all(r["pass"] == "1" for r in rows)


def test_strict_turns_gate_failures_into_exit_1(tmp_path):
    # a single seed at d = 80: finite-size offsets trip the gates
    cfg = _write(tmp_path, {**TINY_LASSO, "amp_seeds": [0]})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--strict"]) == 1
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0


def test_shipped_configs_pass_their_own_gates(tmp_path):
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(os.listdir(configs))
    assert names
    for name in names:
        assert main(["run", "--config", os.path.join(configs, name),
                     "--out", str(tmp_path / name), "--workers", "2",
                     "--strict"]) == 0, name


def test_glm_gate_fails_a_scaled_prediction():
    # negative control: the quickstart's gates must reject an SE that is
    # 10% off; the AMP side is computed once and gated three times
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "lasso_quickstart.json")
    cfg = config_mod.load(path)
    kind = cli.KINDS[cfg.kind]
    amp = cli._fan_out(cfg, workers=2)
    se = cli.se_rows_for(cfg)

    def failures(scale):
        scaled = [(t, name, scale * value, scale * stderr)
                  for t, name, value, stderr in se]
        return sum(1 for row in kind.gate(cfg, amp, scaled) if not row["pass"])

    assert failures(1.0) == 0
    assert failures(1.1) >= 1
    assert failures(0.9) >= 1


def test_module_entry_point_runs(tmp_path):
    cfg = _write(tmp_path, {**TINY_LASSO, "T": 2, "amp_seeds": [0]})
    # the child finds the package where this process found it, installed
    # or not
    src = os.path.dirname(os.path.dirname(graphamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphamp.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "comparisons" in proc.stdout


GLM_TINY = {"d": 60, "aspect": 0.5, "lam": 1.0}
TINY_MODELS = {
    "lasso": GLM_TINY,
    "ridge": GLM_TINY,
    "logistic": GLM_TINY,
    "multilayer": {"d0": 60, "dims": [50, 40],
                   "activations": ["linear", "relu"]},
    "spiked": {"N": 80, "lam": 2.5},
    "gmm_spatial": {"K": 2, "d": 30, "n_per_cluster": 20, "coupling": 0.3},
    "committee": {"d": 60, "n": 60},
}


def test_kind_table_covers_the_config_schema():
    assert set(cli.KINDS) == set(MODEL_KINDS)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_model_kind_runs(tmp_path, kind):
    cfg = _write(tmp_path, {"model": {"kind": kind, **TINY_MODELS[kind]},
                            "T": 3, "amp_seeds": [0, 1], "se_samples": 100,
                            "master_seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_report_csv(out / "compare.csv")
    assert rows


@pytest.mark.parametrize("kind", ["committee", "multilayer", "spiked"])
def test_config_requesting_no_reported_observable_exits_2(tmp_path, capsys,
                                                          kind):
    # these kinds report no mse; a config asking only for it gates nothing
    cfg = _write(tmp_path, {"model": {"kind": kind, **TINY_MODELS[kind]},
                            "T": 2, "se_samples": 50, "observables": ["mse"]})
    out = tmp_path / "o"
    for command in ("validate-config", "run", "se-only"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: observables: " in capsys.readouterr().err
    assert not out.exists()


def test_spiked_generative_prior_has_no_scalar_se_gate(tmp_path, capsys):
    # the scalar recursion is the depth-0 one; comparing a depth-1 run
    # against it would put every row outside its gate
    cfg = _write(tmp_path, {"model": {"kind": "spiked", "N": 120, "lam": 2.5,
                                      "gen_dims": [60]},
                            "T": 4, "amp_seeds": [0, 1]})
    for command in ("run", "se-only"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 2
        assert "model.gen_dims" in capsys.readouterr().err
    assert main(["embed-verify", "--config", cfg,
                 "--out", str(tmp_path / "e")]) == 0


def test_one_layer_multilayer_runs_the_generic_se_gate(tmp_path):
    # depth 1 is the same stationary line graph as any other depth: one
    # edge pair, no interior node, gated by the generic recursion
    cfg = _write(tmp_path, {"model": {"kind": "multilayer", "d0": 60,
                                      "dims": [50], "activations": ["relu"]},
                            "T": 3, "amp_seeds": [0, 1], "se_samples": 100})
    assert main(["run", "--strict", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 0
    for command in ("se-only", "embed-verify"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0
    _, rows = read_report_csv(tmp_path / "run" / "compare.csv")
    assert {r["name"] for r in rows} == {"norm_sq[z0->z1]", "norm_sq[z1->z0]"}


def test_se_only_numerical_abort_names_the_init_stage(tmp_path, capsys):
    # the overlap recursion meets beta0 = -1 before any AMP step runs
    cfg = _write(tmp_path, {
        "model": {"kind": "lasso", "d": 60, "aspect": 0.5, "lam": 1.0,
                  "beta0": -1.0},
        "T": 3,
    })
    assert main(["se-only", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "init stage" in err


ML_LINEAR_RELU = {"kind": "multilayer", "d0": 30, "dims": [20, 10],
                  "activations": ["linear", "relu"]}
BAD_VALUES = {
    "unknown_activation": {**ML_LINEAR_RELU,
                           "activations": ["linear", "sigmoid"]},
    "unknown_denoiser": {"kind": "spiked", "N": 40, "lam": 2.0,
                         "denoiser": "sign"},
    "unknown_gen_activation": {"kind": "spiked", "N": 40, "lam": 2.0,
                               "gen_dims": [10], "gen_activation": "sigmoid"},
    "logistic_beta0": {"kind": "logistic", "d": 30, "aspect": 0.5,
                       "lam": 1.0, "beta0": -1.0},
    "one_activation_for_two_layers": {**ML_LINEAR_RELU,
                                      "activations": ["linear"]},
    "no_layers": {**ML_LINEAR_RELU, "dims": [], "activations": []},
    "string_dim": {**ML_LINEAR_RELU, "dims": ["a", 10]},
    "zero_dim": {**ML_LINEAR_RELU, "dims": [0, 10]},
    "negative_spike": {"kind": "spiked", "N": 40, "lam": -1.0},
    "empty_prior": {"kind": "lasso", "d": 30, "aspect": 0.5, "lam": 1.0,
                    "prior_eps": 0.0},
    "no_rows": {"kind": "lasso", "d": 30, "aspect": 0.01, "lam": 1.0},
    "negative_aspect": {"kind": "lasso", "d": 30, "aspect": -0.5, "lam": 1.0},
    "negative_penalty": {"kind": "ridge", "d": 30, "aspect": 0.5, "lam": -1.0},
    "negative_lasso_noise": {"kind": "lasso", "d": 30, "aspect": 0.5,
                             "lam": 1.0, "noise_sigma": -1.0},
    "negative_ridge_noise": {"kind": "ridge", "d": 30, "aspect": 0.5,
                             "lam": 1.0, "noise_sigma": -1.0},
    "negative_gmm_penalty": {"kind": "gmm_spatial", "K": 2, "d": 10,
                             "n_per_cluster": 8, "lam": -5.0},
    "negative_gmm_coupling": {"kind": "gmm_spatial", "K": 2, "d": 10,
                              "n_per_cluster": 8, "coupling": -0.3},
    "negative_committee_threshold": {"kind": "committee", "d": 20, "n": 20,
                                     "theta": -1.0},
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_model_values_are_config_errors(tmp_path, capsys, case):
    cfg = _write(tmp_path, {"model": BAD_VALUES[case], "T": 2,
                            "se_samples": 50})
    out = tmp_path / "o"
    for command in ("validate-config", "run"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: model: " in capsys.readouterr().err
    assert not out.exists()

