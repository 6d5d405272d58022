import contextlib
import dataclasses
import filecmp
import glob
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import graphamp
from graphamp import (CommitteeModel, GmmSpatialModel, MultilayerModel,
                      SpikedModel, cli, engine)
from graphamp import config as config_mod
from graphamp.cli import main
from graphamp.config import MODEL_KINDS
from graphamp.engine import norm_sq_observable, observe, run
from graphamp import state_evolution
from graphamp.graphs import EdgeId, canonical_edge_order
from graphamp.models import gamp_stats, gmm_weights
from graphamp.models.glm import estimation_times
from graphamp.state_evolution import se_run

from helpers import StepRecorder, bounded_call, read_report_csv, traced_peak

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
    # ||x^t_e||^2 / n_e is tr K_e^{t,t}, read off the time-diagonal
    # se_run with no sampling, on each AMP seed's instance (the SE is
    # conditional on its side data, so the seeds' traces differ) and
    # averaged over the seeds
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
            traces = [float(np.trace(cov.kernel(e, t))) for cov in covs]
            differ += traces[0] != traces[1]
            assert rows[(t, f"norm_sq[{e}]")] == (float(np.mean(traces)), 0.0)
    assert differ


def test_seed_se_integrates_one_time_row_per_step(monkeypatch):
    # each step of a seed's SE integrates the phi moment of time t
    # alone, one q x q field block, not a row over every earlier time;
    # the committee's signal edge is its one phi edge
    calls = []
    moments = state_evolution._phi_moments

    def recording_moments(f, field_cov):
        calls.append(field_cov.shape)
        return moments(f, field_cov)

    monkeypatch.setattr(state_evolution, "_phi_moments", recording_moments)
    cfg = config_mod.validate(SMALL_COMMITTEE)
    cli._seed_se(cfg, cli._build_zoo(cfg, cfg.amp_seeds[0])[0])
    assert calls == [(2, 2)] * (cfg.T - 1)


@pytest.mark.parametrize("path", ["configs/multilayer_small.json",
                                  "perfbench/workloads/committee_se.json"])
def test_shipped_generic_configs_build_no_quadrature_rule(monkeypatch, path):
    # every map of the shipped generic configs is given by its pieces or
    # is affine, so the exact route integrates it in closed form and
    # builds no Gauss-Legendre rule
    calls = []
    nodes = state_evolution.gaussian_piecewise_nodes
    monkeypatch.setattr(state_evolution, "gaussian_piecewise_nodes",
                        lambda *args: calls.append(1) or nodes(*args))
    cfg = config_mod.load(os.path.join(ROOT, path))
    instance = cli._build_zoo(cfg, cfg.amp_seeds[0])[0]
    se_run(instance, cli._graph_T(cfg), reps=cfg.se_samples, seed=cfg.master_seed)
    assert not calls


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
    rows = cli._run_one_seed(cfg, cfg.amp_seeds[0]).rows
    instance, _, _ = cli._build_zoo(cfg, cfg.amp_seeds[0])
    traj = run(instance, cli._graph_T(cfg))
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_model_too_large_to_allocate_exits_2(tmp_path, capsys, workers):
    # a 5e6 x 1e7 design: numpy refuses the allocation outright, on the
    # calling thread or in a seed task
    cfg = _write(tmp_path, {**TINY_LASSO, "model": {**TINY_LASSO["model"], "d": 10_000_000}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the model does not fit in memory: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (out / "trajectory.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_abort_exits_3_with_location(tmp_path, capsys):
    # beta0 = -1 zeroes the residual denominator on the first half-step;
    # the division is caught by the finiteness guard, not warned about
    cfg = _write(tmp_path, {
        "model": {"kind": "lasso", "d": 60, "aspect": 0.5, "lam": 1.0,
                  "beta0": -1.0},
        "T": 3,
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical abort at edge obs->sig, step 0: "
                                "update function produced non-finite values"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gmm_zero_denominator_aborts_without_a_warning(tmp_path, capsys):
    # beta0 = -1 makes the stacked residual 0 / 0 and x / 0 at step 0
    cfg = _write(tmp_path, {"model": {"kind": "gmm_spatial", "K": 2, "d": 20,
                                      "n_per_cluster": 15, "beta0": -1.0},
                            "T": 6, "amp_seeds": [0]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical abort at edge obs->stack, step 0: "
        "update function produced non-finite values"]


# lam 0 on labels a hyperplane separates: the logistic prox's root runs
# off as the scale beta grows, and its Newton solve stops unconverged
SEPARABLE_LOGISTIC = {"kind": "logistic", "d": 200, "aspect": 2.0, "lam": 0.0}


def test_unconverged_logistic_prox_names_the_edge_and_step(tmp_path, capsys):
    cfg = _write(tmp_path, {"model": SEPARABLE_LOGISTIC, "T": 6, "amp_seeds": [0, 1]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical abort at edge obs->sig, step 10: "
                           "logistic prox did not converge, residual ")


def test_unconverged_logistic_prox_names_the_overlap_recursion_time(tmp_path, capsys):
    cfg = _write(tmp_path, {"model": {**SEPARABLE_LOGISTIC, "aspect": 1.0}, "T": 6,
                            "amp_seeds": [0, 1]})
    assert main(["se-only", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical abort: logistic prox did not converge, residual ")
    assert line.endswith(" at t=2")


# large cluster means make the mean direction's loop gain far above 1
DIVERGING_GMM = {"kind": "gmm_spatial", "K": 2, "d": 20, "n_per_cluster": 15,
                 "mean_scale": 300.0}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_diverging_embed_verify_exits_3_with_the_graph_location(tmp_path, capsys):
    cfg = _write(tmp_path, {"model": DIVERGING_GMM, "T": 100, "amp_seeds": [0]})
    params = {k: v for k, v in DIVERGING_GMM.items() if k != "kind"}
    inst, _ = graphamp.build_gmm_spatial_instance(graphamp.GmmSpatialModel(**params), seed=0)
    with pytest.raises(graphamp.NumericalError) as ref:
        run(inst, 200)
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


def test_checks_is_an_unknown_command(tmp_path, capsys):
    # the validation suites are test helpers, not a command
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main(["checks", "--suite", "onsager", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'checks'" in capsys.readouterr().err
    assert not out.exists()


def test_strict_turns_gate_failures_into_exit_1(tmp_path):
    # a single seed at d = 80: finite-size offsets trip the gates
    cfg = _write(tmp_path, {**TINY_LASSO, "amp_seeds": [0]})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--strict"]) == 1
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0


def test_strict_fails_a_run_whose_step_0_writes_zero(tmp_path, capsys):
    # init_overlap 0 starts the spiked loop at x^0 = 0, which tanh keeps
    # at the all-zero fixed point: every gate passes (0 against 0), yet
    # engine.step warns, and --strict fails the run and names its seeds
    cfg = _write(tmp_path, {"model": {"kind": "spiked", "N": 200, "lam": 2.5,
                                      "init_overlap": 0}, "T": 3, "amp_seeds": [0, 1]})
    out = tmp_path / "o"
    for strict, code in ((["--strict"], 1), ([], 0)):
        with pytest.warns(UserWarning, match="step 0 wrote no nonzero output"):
            assert main(["run", "--config", cfg, "--out", str(out)] + strict) == code
        std = capsys.readouterr()
        assert "0 outside gates" in std.out
        assert ("no nonzero output on seed 0, 1" in std.err) == bool(strict)


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


def _run_child(cfg, out, **env):
    """`python -m graphamp.cli run` in a child process whose environment
    is this one's updated by env (a None value unsets the variable); the
    child finds the package where this process found it, installed or
    not."""
    src = os.path.dirname(os.path.dirname(graphamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, "-m", "graphamp.cli", "run", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True,
        env={k: v for k, v in child.items() if v is not None})


def test_module_entry_point_runs(tmp_path):
    cfg = _write(tmp_path, {**TINY_LASSO, "T": 2, "amp_seeds": [0]})
    proc = _run_child(cfg, tmp_path / "o")
    assert proc.returncode == 0, proc.stderr
    assert "comparisons" in proc.stdout


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at d = n = 1000 a threaded OpenBLAS splits the design products and
    # rounds them differently from one thread; the CLI runs on one
    cfg = _write(tmp_path, {"model": {"kind": "committee", "d": 1000,
                                      "n": 1000},
                            "T": 2, "se_samples": 100, "master_seed": 31,
                            "observables": ["norm_sq"]})
    outs = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"o{threads}"
        proc = _run_child(cfg, out, OPENBLAS_NUM_THREADS=threads,
                          GOTO_NUM_THREADS=None, OMP_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for out in outs[1:]:
        for name in ("trajectory.csv", "se.csv", "compare.csv"):
            assert filecmp.cmp(outs[0] / name, out / name, shallow=False), \
                (out.name, name)


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


def test_missing_blas_is_said_once_and_the_run_goes_on(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "_BLAS_SYMBOLS", (("no_such_set", "no_such_get"),))
    cli._blas_threads.cache_clear()
    try:
        cfg = _write(tmp_path, {**TINY_LASSO, "T": 2, "amp_seeds": [0]})
        for _ in range(2):
            assert main(["validate-config", "--config", cfg]) == 0
        assert capsys.readouterr().err.count("no known BLAS library") == 1
    finally:
        cli._blas_threads.cache_clear()


def test_kind_table_covers_the_config_schema():
    assert set(cli.KINDS) == set(MODEL_KINDS)


def test_model_fields_are_the_config_keys():
    # a field that no config key sets would be a knob only the library
    # can turn
    for kind, cls in (("spiked", SpikedModel), ("gmm_spatial", GmmSpatialModel),
                      ("committee", CommitteeModel)):
        assert isinstance(cli.KINDS[kind].model(TINY_MODELS[kind]), cls)
        assert ({f.name for f in dataclasses.fields(cls)}
                == set(config_mod._MODEL_KEYS[kind])), kind
    assert ([f.name for f in dataclasses.fields(MultilayerModel)]
            == ["d0", "layers"])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_model_kind_runs(tmp_path, kind):
    cfg = _write(tmp_path, {"model": {"kind": kind, **TINY_MODELS[kind]},
                            "T": 3, "amp_seeds": [0, 1], "se_samples": 100,
                            "master_seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_report_csv(out / "compare.csv")
    assert rows


def _kind_config(kind, **top):
    """test_every_model_kind_runs' config of kind, as the CLI reads it."""
    return config_mod.validate({"model": {"kind": kind, **TINY_MODELS[kind]},
                                "T": 3, "amp_seeds": [0, 1], "se_samples": 100,
                                "master_seed": 1, **top})


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_streamed_rows_match_the_whole_trajectory_readers(kind):
    cfg = _kind_config(kind)
    rows, _, fixed, _ = cli._run_one_seed(cfg, 1)
    instance, model, aux = cli._build_zoo(cfg, 1)
    T = cli._graph_T(cfg)
    traj = run(instance, T)
    g = instance.graph
    if kind in ("lasso", "ridge", "logistic"):
        stats = [gamp_stats(traj, model, aux, t) for t in estimation_times(traj)]
        want = [row for st in stats
                for row in cli._glm_named_rows(cfg, st.t, {
                    "overlap": st.m, "mse": st.mse, "norm_sq_v": st.v2,
                    "norm_sq_u": st.u2})]
    elif kind == "spiked":
        xs = [traj.x[EdgeId("spike", "spike")][t].reshape(-1) for t in range(T + 1)]
        want = [row for t in range(1, T + 1)
                for row in cli._spiked_named_rows(cfg, t, float(aux @ xs[t]) / model.N,
                                                  float(xs[t] @ xs[t]) / model.N)]
    else:
        obs = [norm_sq_observable(e, 1.0 / g.node_dim[e.end])
               for e in canonical_edge_order(g)]
        want = [(rec["t"], rec["observable"], rec["value"])
                for rec in observe(traj, obs, range(1, T + 1))]
    assert rows and rows == want
    if kind == "gmm_spatial":
        assert fixed == cli._gmm_fixed_point(gmm_weights(traj, model, aux), model, aux)
    else:
        assert fixed is None


@pytest.mark.parametrize("kind", ["lasso", "committee", "gmm_spatial"])
def test_run_releases_what_no_later_step_reads(kind, monkeypatch):
    # a seed's task holds x^{t-1}, m^{t-2} and b^{t-2} at most while its
    # reader takes step t's rows; the instance holds its own x0
    rec = StepRecorder()
    recording = rec.wrap(engine.step)
    stepped = []

    def checking_step(instance, traj):
        recording(instance, traj)
        t = traj.T
        alive = rec.stale(t)
        assert not alive, f"still held after step {t}: {alive}"
        stepped.append(t)
        return traj

    monkeypatch.setattr(engine, "step", checking_step)
    cfg = _kind_config(kind, T=6)
    rows = cli._run_one_seed(cfg, 0).rows
    assert stepped == list(range(1, cli._graph_T(cfg) + 1))
    assert {kind for kind, *_ in rec.held} == {"x", "m", "b"}
    assert rows


def test_run_memory_does_not_grow_with_T():
    # the seed's history is ~10 kB a step here, next to a 640 kB design
    def peak(T):
        cfg = config_mod.validate({"model": {"kind": "lasso", "d": 400, "aspect": 0.5,
                                             "lam": 1.2}, "T": T})
        return traced_peak(cli._run_one_seed, cfg, 0)

    peak(6)  # the first call also makes what the process caches
    short, long = peak(6), peak(24)
    assert long <= 1.05 * short, (short, long)


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


def test_spiked_generative_prior_has_no_scalar_se_gate(tmp_path, capsys,
                                                       monkeypatch):
    # the scalar recursion is the depth-0 one; comparing a depth-1 run
    # against it would put every row outside its gate, so `run` refuses
    # before it builds a seed or writes a file
    cfg = _write(tmp_path, {"model": {"kind": "spiked", "N": 120, "lam": 2.5,
                                      "gen_dims": [60]},
                            "T": 4, "amp_seeds": [0, 1]})
    builds = []
    build = cli.build_spiked_instance
    monkeypatch.setattr(cli, "build_spiked_instance",
                        lambda *a, **k: builds.append(a) or build(*a, **k))
    for command in ("run", "se-only"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 2
        assert "model.gen_dims" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / command / "trajectory.csv").exists()
    assert main(["validate-config", "--config", cfg]) == 0
    assert main(["embed-verify", "--config", cfg,
                 "--out", str(tmp_path / "e")]) == 0
    assert len(builds) == 1


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


def test_se_only_aborts_on_a_nonfinite_kernel(tmp_path, capsys):
    # d 2 against n 20000: the committee's kernels grow until they
    # overflow at t 177, which se-only must not write out as nan
    cfg = _write(tmp_path, {"model": {"kind": "committee", "d": 2, "n": 20000},
                            "T": 200})
    assert main(["se-only", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical abort at edge obs->wts, step 177: "
                                "state evolution kernel is not finite"]


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
    # json.dump writes these as Infinity and NaN, which json.load reads
    "nonfinite_aspect": {"kind": "lasso", "d": 30, "aspect": float("inf"),
                         "lam": 1.0},
    # an int literal beyond float range, which json keeps as an int
    "overflowing_aspect": {"kind": "lasso", "d": 30, "aspect": 10 ** 400,
                           "lam": 1.0},
    "overflowing_dimension": {"kind": "lasso", "d": 10 ** 400, "aspect": 0.5,
                              "lam": 1.0},
    "nan_lasso_penalty": {"kind": "lasso", "d": 30, "aspect": 0.5,
                          "lam": float("nan")},
    "infinite_committee_threshold": {"kind": "committee", "d": 20, "n": 20,
                                     "theta": float("inf")},
    # whole configs: a repeated entry counts one instance twice
    "repeated_seed": {"model": {"kind": "committee", "d": 60, "n": 60},
                      "amp_seeds": [3, 3, 3]},
    "repeated_observable": {"model": {"kind": "lasso", "d": 30, "aspect": 0.5,
                                      "lam": 1.0},
                            "observables": ["mse", "mse"]},
}
# the error of a whole-config or a type case; other model cases read
# "model: ..."
BAD_VALUE_ERRORS = {
    "repeated_seed": "amp_seeds[1]: duplicate seed 3",
    "repeated_observable": "observables[1]: duplicate observable 'mse'",
    "nonfinite_aspect": "model.aspect: must be finite, got inf",
    "overflowing_aspect": "model.aspect: must be finite, got inf",
    "overflowing_dimension": ("model.d: must be at most 1.798e+308 in "
                              "magnitude, got a 401-digit int"),
    "nan_lasso_penalty": "model.lam: must be finite, got nan",
    "infinite_committee_threshold": "model.theta: must be finite, got inf",
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_model_values_are_config_errors(tmp_path, capsys, case):
    bad = BAD_VALUES[case]
    cfg = _write(tmp_path, {"T": 2, "se_samples": 50,
                            **(bad if "model" in bad else {"model": bad})})
    out = tmp_path / "o"
    for command in ("validate-config", "run"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert (f"config error: {BAD_VALUE_ERRORS.get(case, 'model: ')}"
                in capsys.readouterr().err)
    assert not out.exists()



ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "workloads", "*.json")))


def _leaves(node, path=()):
    """The key paths of a parsed JSON document's scalar leaves."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _load(name):
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


# one leaf of one shipped config or benchmark workload, and what takes its
# place: huge, negative, zero, non-finite, wrong type, empty list, null
SHIPPED_LEAVES = [(name, leaf) for name in SHIPPED for leaf in _leaves(_load(name))]
MUTATIONS = (10 ** 30, -1, 0, float("nan"), float("inf"), "x", [], None, True)


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutant") / "cfg.json")


@seed(0)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SHIPPED_LEAVES), st.sampled_from(MUTATIONS))
def test_validate_config_admits_or_rejects_every_mutated_leaf(mutant_path, where, value):
    name, leaf = where
    doc = _load(name)
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    with open(mutant_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate-config", "--config", mutant_path]) in (0, 2)
