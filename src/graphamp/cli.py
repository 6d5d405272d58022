"""Batch experiment runner.

Subcommands map 1:1 onto library entry points:

  validate-config  parse + validate a config, report problems
  run              AMP trajectories + SE predictions + comparison CSVs
  se-only          SE predictions alone
  embed-verify     symmetric-embedding equivalence check
  checks           numerical validation suites (Stein, GOE, Onsager, opnorm)

Exit codes: 0 success, 1 gate failure under --strict (embed-verify
gates are always strict), 2 config error, 3 numerical abort, 4 I/O
error.  Seeds, and the Monte Carlo chunks of the generic SE recursion,
fan out across a thread pool of --workers threads; reductions happen
in submission order so results are independent of scheduling.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

import numpy as np

from . import checks as checks_mod
from . import config as config_mod
from .embedding import verify_equivalence
from .engine import norm_sq_observable, observe, run
from .ensembles import normals, stream
from .errors import ConfigError, GraphampError, NumericalError
from .gamp_se import GaussBernoulliPrior, QuadSpec, gamp_overlap_se
from .graphs import canonical_edge_order
from .models import (CommitteeModel, GmmSpatialModel, MultilayerModel,
                     SpikedModel, accuracy, build_committee_instance,
                     build_gamp_instance, build_gmm_spatial_instance,
                     build_multilayer_instance, build_spiked_instance,
                     gamp_iterate_stats, gmm_weights, lasso_model,
                     layer_specs, logistic_model, ridge_baseline,
                     ridge_model, spiked_scalar_se)
from .nonlinearity import Entrywise
from .reporting import ReportIOError, write_dict_rows
from .state_evolution import mc_observable_stats, se_run

TRAJ_HEADER = ("seed", "t", "name", "value")
SE_HEADER = ("t", "name", "value", "stderr")
COMPARE_HEADER = ("t", "name", "amp_mean", "amp_std", "n_seeds",
                  "se_value", "se_stderr", "rel_err", "z", "pass")


def _glm_model(cfg: config_mod.ExperimentConfig):
    m = cfg.model
    d = m["d"]
    n = int(round(m["aspect"] * d))
    prior = GaussBernoulliPrior(eps=m.get("prior_eps", 0.25),
                                var=m.get("prior_var", 4.0))
    if cfg.kind == "lasso":
        return lasso_model(d=d, n=n, lam=m["lam"], prior=prior,
                           sigma=m.get("noise_sigma", 0.5),
                           beta0=m.get("beta0", 1.0))
    if cfg.kind == "ridge":
        return ridge_model(d=d, n=n, lam=m["lam"], prior=prior,
                           sigma=m.get("noise_sigma", 0.5),
                           beta0=m.get("beta0", 1.0))
    return logistic_model(d=d, n=n, lam=m["lam"], prior=prior,
                          beta0=m.get("beta0", 1.0))


def _build_zoo(cfg: config_mod.ExperimentConfig, seed: int):
    """Returns (instance, context) for one AMP seed."""
    kind = cfg.kind
    m = cfg.model
    if kind in ("lasso", "ridge", "logistic"):
        model = _glm_model(cfg)
        inst, teacher = build_gamp_instance(model, seed=seed)
        return inst, {"model": model, "teacher": teacher}
    if kind == "multilayer":
        model = MultilayerModel(
            d0=m["d0"],
            layers=layer_specs(m["dims"], m["activations"]),
        )
        inst, pipe = build_multilayer_instance(model, seed=seed,
                                               planted=m.get("planted", False))
        return inst, {"model": model, "pipeline": pipe}
    if kind == "spiked":
        model = SpikedModel(
            N=m["N"], lam=m["lam"],
            init_overlap=m.get("init_overlap", 0.2),
            gen_dims=tuple(m.get("gen_dims", ())),
            gen_activation=m.get("gen_activation", "tanh"),
            denoiser=m.get("denoiser", "tanh"),
            theta=m.get("theta", 1.0),
        )
        inst, v0 = build_spiked_instance(model, seed=seed)
        return inst, {"model": model, "v0": v0}
    if kind == "gmm_spatial":
        model = GmmSpatialModel(
            K=m["K"], d=m["d"], n_per_cluster=m["n_per_cluster"],
            lam=m.get("lam", 1.0), mean_scale=m.get("mean_scale", 0.1),
            coupling=m.get("coupling", 0.0), beta0=m.get("beta0", 1.0),
        )
        inst, data = build_gmm_spatial_instance(model, seed=seed)
        return inst, {"model": model, "data": data}
    model = CommitteeModel(d=m["d"], n=m["n"], theta=m.get("theta", 0.4))
    inst, _ = build_committee_instance(model, seed=seed)
    return inst, {"model": model}


def _graph_T(cfg: config_mod.ExperimentConfig) -> int:
    # chain phase models advance one model step per two graph steps
    if cfg.kind in ("lasso", "ridge", "logistic", "gmm_spatial"):
        return 2 * cfg.T
    return cfg.T


# ---------------------------------------------------------------------------
# per-kind AMP observable extraction: rows (t, name) -> value

def _glm_rows(cfg, traj, ctx) -> List[Tuple[int, str, float]]:
    stats = gamp_iterate_stats(traj, ctx["model"], ctx["teacher"])
    rows = []
    for st in stats:
        named = {"overlap": st.m, "mse": st.mse, "norm_sq_v": st.v2,
                 "norm_sq_u": st.u2}
        for obs in cfg.observables:
            if obs == "norm_sq":
                rows.append((st.t, "norm_sq_v", named["norm_sq_v"]))
                rows.append((st.t, "norm_sq_u", named["norm_sq_u"]))
            elif obs in ("overlap", "mse"):
                rows.append((st.t, obs, named[obs]))
    return rows


def _spiked_rows(cfg, traj, ctx) -> List[Tuple[int, str, float]]:
    model, v0 = ctx["model"], ctx["v0"]
    loop = next(e for e in traj.x if e.start == e.end)
    rows = []
    for t in range(1, traj.T + 1):
        x = traj.x[loop][t].reshape(-1)
        if "overlap" in cfg.observables:
            rows.append((t, "overlap", float(v0 @ x) / model.N))
        if "norm_sq" in cfg.observables:
            rows.append((t, "norm_sq", float(x @ x) / model.N))
    return rows


def _edge_observables(instance, T):
    obs = []
    for e in canonical_edge_order(instance.graph):
        scale = instance.graph.node_dim[e.end]
        obs.append(norm_sq_observable(e, scale, name=f"norm_sq[{e.start}->{e.end}]"))
    return obs, list(range(1, T + 1))


def _generic_rows(cfg, traj, instance) -> List[Tuple[int, str, float]]:
    if "norm_sq" not in cfg.observables:
        return []
    obs, times = _edge_observables(instance, traj.T)
    return [(rec["t"], rec["observable"], rec["value"])
            for rec in observe(traj, obs, times)]


# ---------------------------------------------------------------------------
# per-kind SE prediction rows: (t, name, value, stderr)

def _glm_se_rows(cfg) -> List[Tuple[int, str, float, float]]:
    model = _glm_model(cfg)
    if cfg.quadrature == "mc":
        quad = QuadSpec(method="mc", samples=cfg.se_samples,
                        seed=cfg.master_seed)
    else:
        quad = QuadSpec(method="gh")
    pts = gamp_overlap_se(model.prior, model.channel, model.scalars,
                          delta=model.delta, T=cfg.T, beta0=model.beta0,
                          quad=quad)
    rows = []
    for pt in pts[1:]:
        named = {"overlap": pt.m, "mse": pt.mse,
                 "norm_sq_v": pt.v_second_moment(),
                 "norm_sq_u": pt.u_second_moment(model.prior.rho)}
        for obs in cfg.observables:
            if obs == "norm_sq":
                rows.append((pt.t, "norm_sq_v", named["norm_sq_v"], 0.0))
                rows.append((pt.t, "norm_sq_u", named["norm_sq_u"], 0.0))
            elif obs in ("overlap", "mse"):
                rows.append((pt.t, obs, named[obs], 0.0))
    return rows


def _spiked_se_rows(cfg) -> List[Tuple[int, str, float, float]]:
    m = cfg.model
    model = SpikedModel(N=m["N"], lam=m["lam"],
                        init_overlap=m.get("init_overlap", 0.2),
                        denoiser=m.get("denoiser", "tanh"),
                        theta=m.get("theta", 1.0))
    pts = spiked_scalar_se(model, cfg.T)
    rows = []
    for pt in pts[1:]:
        if "overlap" in cfg.observables:
            rows.append((pt.t, "overlap", pt.overlap(), 0.0))
        if "norm_sq" in cfg.observables:
            rows.append((pt.t, "norm_sq", pt.second_moment(), 0.0))
    return rows


def _generic_se_rows(cfg, workers) -> List[Tuple[int, str, float, float]]:
    instance, _ = _build_zoo(cfg, seed=cfg.amp_seeds[0])
    T = _graph_T(cfg)
    cov = se_run(instance, T, reps=cfg.se_samples, seed=cfg.master_seed,
                 chunk=cfg.se_chunk, workers=workers)
    obs, times = _edge_observables(instance, T)
    reps = max(64, min(cfg.se_samples, 1000))
    stats = mc_observable_stats(instance, cov, obs, times, reps=reps,
                                seed=cfg.master_seed + 1,
                                chunk=min(cfg.se_chunk, 64), workers=workers)
    rows = []
    for (t, name), st in sorted(stats.items()):
        sem = st["std"] / np.sqrt(st["n"]) if st["n"] > 1 else 0.0
        rows.append((t, name, st["mean"], float(sem)))
    return rows


def se_rows_for(cfg, workers=1) -> List[Tuple[int, str, float, float]]:
    """SE prediction rows; `workers` splits the generic recursion's Monte
    Carlo chunks and never changes the rows."""
    if cfg.kind in ("lasso", "ridge", "logistic"):
        return _glm_se_rows(cfg)
    if cfg.kind == "spiked":
        return _spiked_se_rows(cfg)
    if cfg.kind == "gmm_spatial":
        raise ConfigError("model gmm_spatial has no SE route; "
                          "use `run` for its fixed-point gates")
    return _generic_se_rows(cfg, workers)


# ---------------------------------------------------------------------------
# run orchestration

def _run_one_seed(cfg, seed):
    instance, ctx = _build_zoo(cfg, seed)
    traj = run(instance, _graph_T(cfg), allow_degenerate=True)
    if cfg.kind in ("lasso", "ridge", "logistic"):
        rows = _glm_rows(cfg, traj, ctx)
    elif cfg.kind == "spiked":
        rows = _spiked_rows(cfg, traj, ctx)
    elif cfg.kind == "gmm_spatial":
        rows = _generic_rows(cfg, traj, instance)
    else:
        rows = _generic_rows(cfg, traj, instance)
    return traj, ctx, rows


def _fan_out(cfg, workers):
    seeds = list(cfg.amp_seeds)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one_seed, cfg, s) for s in seeds]
            results = [f.result() for f in futures]
    else:
        results = [_run_one_seed(cfg, s) for s in seeds]
    return list(zip(seeds, results))


def _compare_rows(cfg, amp_rows_by_seed, se_rows):
    by_key: Dict[Tuple[int, str], List[float]] = {}
    for _, rows in amp_rows_by_seed:
        for t, name, value in rows:
            by_key.setdefault((t, name), []).append(value)
    se_by_key = {(t, name): (value, stderr) for t, name, value, stderr in se_rows}
    tol = cfg.tolerances
    out = []
    for (t, name), values in sorted(by_key.items()):
        if (t, name) not in se_by_key:
            continue
        se_value, se_err = se_by_key[(t, name)]
        arr = np.asarray(values)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        sem = std / np.sqrt(arr.size) if arr.size > 1 else 0.0
        rel = abs(mean - se_value) / max(abs(se_value), 1e-12)
        denom = np.hypot(sem, se_err)
        z = abs(mean - se_value) / denom if denom > 0 else np.inf
        # both sides indistinguishable from zero: degenerate scale, pass
        atol = tol.get("atol", 1e-6)
        ok = (rel <= tol["rel"]) or (z <= tol["z"]) or (
            abs(mean) <= atol and abs(se_value) <= atol)
        out.append({"t": t, "name": name, "amp_mean": mean, "amp_std": std,
                    "n_seeds": arr.size, "se_value": se_value,
                    "se_stderr": se_err, "rel_err": rel, "z": z,
                    "pass": int(ok)})
    return out


def _gmm_compare_rows(cfg, amp_results):
    rows = []
    for seed, (traj, ctx, _) in amp_results:
        model, data = ctx["model"], ctx["data"]
        W = gmm_weights(traj, model, data)
        Wb = ridge_baseline(model, data)
        werr = float(np.linalg.norm(W - Wb) / max(np.linalg.norm(Wb), 1e-12))
        acc_amp = accuracy(W, data)
        acc_base = accuracy(Wb, data)
        rows.append({"t": cfg.T, "name": f"weight_rel_err[seed={seed}]",
                     "amp_mean": werr, "amp_std": 0.0, "n_seeds": 1,
                     "se_value": 0.0, "se_stderr": 0.0, "rel_err": werr,
                     "z": np.inf, "pass": int(werr <= 1e-3)})
        rows.append({"t": cfg.T, "name": f"accuracy[seed={seed}]",
                     "amp_mean": acc_amp, "amp_std": 0.0, "n_seeds": 1,
                     "se_value": acc_base, "se_stderr": 0.0,
                     "rel_err": abs(acc_amp - acc_base), "z": np.inf,
                     "pass": int(abs(acc_amp - acc_base) <= 0.02)})
    return rows


def cmd_run(cfg, out_dir, workers, strict) -> int:
    h = cfg.config_hash()
    amp_results = _fan_out(cfg, workers)
    traj_rows = [{"seed": seed, "t": t, "name": name, "value": value}
                 for seed, (_, _, rows) in amp_results
                 for t, name, value in rows]
    write_dict_rows(os.path.join(out_dir, "trajectory.csv"), traj_rows, h,
                    header=TRAJ_HEADER)

    if cfg.kind == "gmm_spatial":
        write_dict_rows(os.path.join(out_dir, "se.csv"), [], h,
                        header=SE_HEADER)
        cmp_rows = _gmm_compare_rows(cfg, amp_results)
    else:
        se_rows = se_rows_for(cfg, workers)
        write_dict_rows(os.path.join(out_dir, "se.csv"),
                        [{"t": t, "name": n, "value": v, "stderr": s}
                         for t, n, v, s in se_rows], h, header=SE_HEADER)
        cmp_rows = _compare_rows(cfg, [(s, r) for s, (_, _, r) in amp_results],
                                 se_rows)
    write_dict_rows(os.path.join(out_dir, "compare.csv"), cmp_rows, h,
                    header=COMPARE_HEADER)

    n_fail = sum(1 for row in cmp_rows if not row["pass"])
    print(f"run: {len(cmp_rows)} comparisons, {n_fail} outside gates "
          f"-> {out_dir}/{{trajectory,se,compare}}.csv")
    if strict and n_fail:
        return 1
    return 0


def cmd_se_only(cfg, out_dir, workers) -> int:
    h = cfg.config_hash()
    se_rows = se_rows_for(cfg, workers)
    write_dict_rows(os.path.join(out_dir, "se.csv"),
                    [{"t": t, "name": n, "value": v, "stderr": s}
                     for t, n, v, s in se_rows], h, header=SE_HEADER)
    print(f"se-only: {len(se_rows)} rows -> {out_dir}/se.csv")
    return 0


def cmd_embed_verify(cfg, out_dir) -> int:
    h = cfg.config_hash()
    instance, _ = _build_zoo(cfg, seed=cfg.amp_seeds[0])
    report = verify_equivalence(instance, _graph_T(cfg), seed=cfg.master_seed)
    write_dict_rows(os.path.join(out_dir, "embed.csv"), report.records, h,
                    header=("t", "edge", "err"))
    tol = cfg.tolerances["embed"]
    print(f"embed-verify: max discrepancy {report.max_err:.3e} "
          f"(tolerance {tol:.1e}) -> {out_dir}/embed.csv")
    return 0 if report.max_err <= tol else 1


def _checks_suite(suite, master_seed):
    from .gamp_se import GlmScalars
    from .prox import ProxSpec

    reports = []
    if suite in ("stein", "all"):
        tanh = Entrywise(np.tanh, lambda x: 1 - np.tanh(x) ** 2)

        def soft(x):
            return np.sign(x) * np.maximum(np.abs(x) - 0.7, 0.0)

        def dsoft(x):
            return (np.abs(x) > 0.7).astype(float)

        fns = [("identity", Entrywise(lambda x: x, lambda x: np.ones_like(x))),
               ("tanh", tanh),
               ("soft_threshold", Entrywise(soft, dsoft))]
        kap = np.array([[1.0, 0.4], [0.4, 2.0]])
        for name, f in fns:
            rep = checks_mod.stein_check(f, kap, n=10_000, M=200,
                                         rng=stream(master_seed, "stein", name))
            rep.params["fn"] = name
            reports.append(rep)
    if suite in ("goe", "all"):
        reports.extend(checks_mod.goe_projection_checks(
            n=2000, q=3, t_rank=1, M=60, rng=stream(master_seed, "goe")))
    if suite in ("onsager", "all"):
        rng = stream(master_seed, "onsager-cli")
        tanh = Entrywise(np.tanh, lambda x: 1 - np.tanh(x) ** 2)
        for _ in range(20):
            x = normals(rng, (40, 1))
            reports.append(checks_mod.onsager_fd_check(tanh, [x]))
    if suite in ("opnorm", "all"):
        reports.extend(checks_mod.opnorm_check([1000], [0, 1, 2],
                                               master_seed=master_seed))
    return reports


def cmd_checks(suite, out_dir, master_seed, strict) -> int:
    reports = _checks_suite(suite, master_seed)
    rows = [rep.row() for rep in reports]
    write_dict_rows(os.path.join(out_dir, f"checks_{suite}.csv"), rows, "nocfg",
                    header=("check_id", "params", "statistic", "predicted",
                            "stderr", "z", "pass"))
    n_fail = sum(1 for rep in reports if not rep.passed)
    print(f"checks[{suite}]: {len(reports)} checks, {n_fail} failed "
          f"-> {out_dir}/checks_{suite}.csv")
    if strict and n_fail:
        return 1
    return 0


def _parser():
    p = argparse.ArgumentParser(prog="graphamp",
                                description="Graph-indexed AMP experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_config=True):
        if needs_config:
            sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=None,
                        help="worker pool size (or env AMP_WORKERS)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
        sp.add_argument("--strict", action="store_true",
                        help="turn z-gates into hard failures")

    add_common(sub.add_parser("validate-config", help="parse and validate"))
    add_common(sub.add_parser("run", help="AMP + SE + comparison CSVs"))
    add_common(sub.add_parser("se-only", help="SE predictions only"))
    add_common(sub.add_parser("embed-verify",
                              help="symmetric embedding equivalence"))
    sp = sub.add_parser("checks", help="numerical validation suites")
    sp.add_argument("--suite", default="all",
                    choices=("stein", "goe", "onsager", "opnorm", "all"))
    add_common(sp, needs_config=False)
    return p


def _resolve_workers(args):
    if args.workers is not None:
        return args.workers
    env = os.environ.get("AMP_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as ex:
            raise ConfigError(f"AMP_WORKERS: not an integer: {env!r}") from ex
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        workers = _resolve_workers(args)
        if args.command == "checks":
            out_dir = args.out or "results"
            seed = args.seed if args.seed is not None else 0
            return cmd_checks(args.suite, out_dir, seed, args.strict)

        cfg = config_mod.load(args.config)
        if args.seed is not None:
            cfg = config_mod.ExperimentConfig(
                **{**cfg.__dict__, "master_seed": args.seed})
        out_dir = args.out or cfg.out
        if args.command == "validate-config":
            print(f"config ok: kind={cfg.kind} T={cfg.T} "
                  f"hash={cfg.config_hash()}")
            return 0
        if args.command == "run":
            return cmd_run(cfg, out_dir, workers, args.strict)
        if args.command == "se-only":
            return cmd_se_only(cfg, out_dir, workers)
        return cmd_embed_verify(cfg, out_dir)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except NumericalError as ex:
        where = ""
        if ex.edge is not None:
            where = f" at edge {ex.edge}, step {ex.t}"
        print(f"numerical abort{where}: {ex}", file=sys.stderr)
        return 3
    except (ReportIOError, OSError) as ex:
        print(f"io error: {ex}", file=sys.stderr)
        return 4
    except GraphampError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
