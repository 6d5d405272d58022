"""Batch experiment runner.

Subcommands map 1:1 onto library entry points:

  validate-config  parse + validate a config, report problems
  run              AMP trajectories + SE predictions + comparison CSVs
  se-only          SE predictions alone
  embed-verify     symmetric-embedding equivalence check

Exit codes: 0 success, 1 under --strict a gate failure or a seed whose
step 0 wrote no nonzero output (embed-verify gates are always strict),
2 config error (a model too large to allocate included), 3 numerical
abort, 4 I/O error.  Seeds fan out across a thread pool of --workers
threads.  The generic SE runs once per AMP seed, in `run` inside the
seed's task on the instance its AMP run used (built once, at most
--workers alive), and its rows are the traces of the kernels K^{t,t}.  Each seed's AMP run streams: its rows
are read as each step returns, so a seed's memory does not grow with
T.  Reductions happen in submission order so results are independent
of scheduling.  A command runs on one BLAS thread, so its bytes do not
depend on the BLAS thread count, and gives the caller its count back.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import config as config_mod
from .embedding import EMBED_TOL, verify_equivalence
from .engine import norm_sq_observable, observe, run
from .errors import ConfigError, GraphampError, NumericalError
from .gamp_se import GaussBernoulliPrior, QuadSpec, gamp_overlap_se
from .graphs import canonical_edge_order
from .models import (CommitteeModel, GmmSpatialModel, MultilayerModel,
                     SpikedModel, accuracy, build_committee_instance,
                     build_gamp_instance, build_gmm_spatial_instance,
                     build_multilayer_instance, build_spiked_instance,
                     gamp_stats, gmm_weights, lasso_model,
                     layer_specs, logistic_model, ridge_baseline,
                     ridge_model, spiked_scalar_se)
from .reporting import ReportIOError, write_dict_rows
from .state_evolution import compare, se_run, summarize

TRAJ_HEADER = ("seed", "t", "name", "value")
SE_HEADER = ("t", "name", "value", "stderr")
COMPARE_HEADER = ("t", "name", "amp_mean", "amp_std", "n_seeds",
                  "se_value", "se_stderr", "rel_err", "z", "pass")


# ---------------------------------------------------------------------------
# model construction, shared by the AMP and SE paths

def _glm_model(make, m):
    """The GLM of model block m: the keys m sets, under their library
    names; the library's defaults stand for the rest."""
    def given(*names):
        return {arg: m[key] for key, arg in names if key in m}
    return make(d=m["d"], n=int(round(m["aspect"] * m["d"])), lam=m["lam"],
                prior=GaussBernoulliPrior(**given(("prior_eps", "eps"), ("prior_var", "var"))),
                **given(("noise_sigma", "sigma"), ("beta0", "beta0")))


def _fields(m):
    """The model block without its kind, as keyword arguments of the
    model class (its keys are the field names); lists become tuples."""
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in m.items() if k != "kind"}


# ---------------------------------------------------------------------------
# per-kind AMP readers: the rows (t, name, value) of graph step t >= 1,
# read off a streamed trajectory as the step returns

def _glm_named_rows(cfg, t, named) -> List[Tuple[int, str, float]]:
    """Rows of the requested GLM observables at time t, in config
    order; norm_sq stands for both field second moments."""
    rows = []
    for obs in cfg.observables:
        if obs == "norm_sq":
            rows.append((t, "norm_sq_v", named["norm_sq_v"]))
            rows.append((t, "norm_sq_u", named["norm_sq_u"]))
        elif obs in ("overlap", "mse"):
            rows.append((t, obs, named[obs]))
    return rows


def _spiked_named_rows(cfg, t, overlap, norm_sq) -> List[Tuple[int, str, float]]:
    named = {"overlap": overlap, "norm_sq": norm_sq}
    return [(t, name, named[name]) for name in ("overlap", "norm_sq")
            if name in cfg.observables]


def _glm_rows(cfg, t, traj, instance, model, teacher) -> List[Tuple[int, str, float]]:
    """Estimation time s's statistics at graph step t = 2s; none at odd t."""
    if t % 2:
        return []
    st = gamp_stats(traj, model, teacher, t // 2)
    return _glm_named_rows(cfg, st.t, {"overlap": st.m, "mse": st.mse,
                                       "norm_sq_v": st.v2, "norm_sq_u": st.u2})


def _spiked_rows(cfg, t, traj, instance, model, v0) -> List[Tuple[int, str, float]]:
    loop = next(e for e in traj.x if e.start == e.end)
    x = traj.x[loop][t].reshape(-1)
    return _spiked_named_rows(cfg, t, float(v0 @ x) / model.N,
                              float(x @ x) / model.N)


def _generic_rows(cfg, t, traj, instance, model, aux) -> List[Tuple[int, str, float]]:
    """norm_sq[e] = ||x_e||^2 / n_e, the per-row second moment."""
    g = instance.graph
    obs = [norm_sq_observable(e, 1.0 / g.node_dim[e.end])
           for e in canonical_edge_order(g)]
    return [(rec["t"], rec["observable"], rec["value"])
            for rec in observe(traj, obs, [t])]


# ---------------------------------------------------------------------------
# per-kind SE prediction rows: (t, name, value, stderr)

def _glm_se_rows(cfg, model, *_) -> List[Tuple[int, str, float, float]]:
    if cfg.quadrature == "mc":
        quad = QuadSpec(method="mc", samples=cfg.se_samples,
                        seed=cfg.master_seed)
    else:
        quad = QuadSpec(method="gh")
    pts = gamp_overlap_se(model.prior, model.channel, model.scalars,
                          delta=model.delta, T=cfg.T, beta0=model.beta0,
                          quad=quad)
    return [(t, name, value, 0.0) for pt in pts[1:]
            for t, name, value in _glm_named_rows(cfg, pt.t, {
                "overlap": pt.m, "mse": pt.mse,
                "norm_sq_v": pt.p,
                "norm_sq_u": pt.u_second_moment(model.prior.rho)})]


def _spiked_se_rows(cfg, model, *_) -> List[Tuple[int, str, float, float]]:
    try:
        pts = spiked_scalar_se(model, cfg.T)
    except ValueError as ex:
        raise ConfigError(f"model.{ex}; embed-verify still runs the deep model") from ex
    return [(t, name, value, 0.0) for pt in pts[1:]
            for t, name, value in _spiked_named_rows(cfg, pt.t, pt.mu,
                                                     pt.second_moment())]


def _seed_se(cfg, instance) -> Dict[Tuple[int, str], float]:
    """One AMP seed's prediction: the SE is conditional on side data, so
    each seed's instance gets its own run."""
    T = _graph_T(cfg)
    cov = se_run(instance, T, reps=cfg.se_samples, seed=cfg.master_seed)
    # rows of x^t_e tend to N(0, K_e^{t,t}), so ||x^t_e||^2 / n_e -> tr K
    return {(t, f"norm_sq[{e}]"): float(np.trace(cov.kernel(e, t)))
            for t in range(1, T + 1) for e in canonical_edge_order(instance.graph)}


def _generic_se_rows(cfg, model, workers, per_seed) -> List[Tuple[int, str, float, float]]:
    """The mean over the AMP seeds of each seed's prediction; per_seed
    holds them when `run` made them, else each instance is built here."""
    if per_seed is None:
        per_seed = map_ordered(
            lambda i: _seed_se(cfg, _kind(cfg).build(model, cfg.amp_seeds[i])[0]),
            len(cfg.amp_seeds), workers)
    return [(t, name, float(np.mean([p[(t, name)] for p in per_seed])), 0.0)
            for t, name in sorted(per_seed[0])]


# ---------------------------------------------------------------------------
# gates: rows of compare.csv from the seeds' results and the SE rows

def _compare_rows(cfg, amp_results, se_rows):
    by_key: Dict[Tuple[int, str], List[float]] = {}
    for _, seed_result in amp_results:
        for t, name, value in seed_result.rows:
            by_key.setdefault((t, name), []).append(value)
    return compare({key: summarize(values) for key, values in by_key.items()},
                   {(t, name): {"mean": value, "sem": stderr}
                    for t, name, value, stderr in se_rows})


def _gmm_fixed_point(W, model, data):
    """(weight relative error, AMP accuracy, ridge accuracy) of a seed
    whose run ended at the weights W."""
    Wb = ridge_baseline(model, data)
    werr = float(np.linalg.norm(W - Wb) / max(np.linalg.norm(Wb), 1e-12))
    return werr, accuracy(W, data), accuracy(Wb, data)


def _gmm_compare_rows(cfg, amp_results, se_rows):
    """Per-seed fixed-point gates on the weights and the accuracies."""
    def row(name, value, ref, err, ok):
        return {"t": cfg.T, "name": name, "amp_mean": value, "amp_std": 0.0,
                "n_seeds": 1, "se_value": ref, "se_stderr": 0.0,
                "rel_err": err, "z": np.inf, "pass": int(ok)}

    rows = []
    for seed, seed_result in amp_results:
        werr, acc_amp, acc_base = seed_result.fixed
        rows.append(row(f"weight_rel_err[seed={seed}]", werr, 0.0, werr,
                        werr <= 1e-3))
        rows.append(row(f"accuracy[seed={seed}]", acc_amp, acc_base,
                        abs(acc_amp - acc_base),
                        abs(acc_amp - acc_base) <= 0.02))
    return rows


# ---------------------------------------------------------------------------
# the kind table: everything the CLI knows about a model kind

@dataclass(frozen=True)
class Kind:
    """How the CLI builds, runs and gates one model kind.

    model(cfg.model) -> model; build(model, seed) -> (instance, aux);
    amp_rows(cfg, t, traj, instance, model, aux) -> [(t, name, value)],
    the rows of graph step t >= 1, read from a run that streams;
    se_rows(cfg, model, workers, per_seed) -> [(t, name, value, stderr)],
    None for a kind without an SE route; gate(cfg, amp_results, se_rows) ->
    compare.csv rows; phases is the number of graph steps per model step;
    reports holds the config observables that amp_rows can write.
    """

    name: str
    model: Callable
    build: Callable
    amp_rows: Callable
    se_rows: Optional[Callable]
    reports: Tuple[str, ...]
    gate: Callable = _compare_rows
    phases: int = 1


# The rows call the instance builders by their module-global names at
# call time and never hold them, so a wrapper installed on the module
# attribute (a profiler's tracer, say) sees every call.
KINDS: Dict[str, Kind] = {k.name: k for k in (
    Kind("lasso", lambda m: _glm_model(lasso_model, m),
         lambda model, seed: build_gamp_instance(model, seed),
         _glm_rows, _glm_se_rows, config_mod.OBSERVABLES, phases=2),
    Kind("ridge", lambda m: _glm_model(ridge_model, m),
         lambda model, seed: build_gamp_instance(model, seed),
         _glm_rows, _glm_se_rows, config_mod.OBSERVABLES, phases=2),
    Kind("logistic", lambda m: _glm_model(logistic_model, m),
         lambda model, seed: build_gamp_instance(model, seed),
         _glm_rows, _glm_se_rows, config_mod.OBSERVABLES, phases=2),
    Kind("multilayer",
         lambda m: MultilayerModel(d0=m["d0"], layers=layer_specs(
             m["dims"], m["activations"])),
         lambda model, seed: build_multilayer_instance(model, seed),
         _generic_rows, _generic_se_rows, ("norm_sq",)),
    Kind("spiked", lambda m: SpikedModel(**_fields(m)),
         lambda model, seed: build_spiked_instance(model, seed),
         _spiked_rows, _spiked_se_rows, ("overlap", "norm_sq")),
    Kind("gmm_spatial", lambda m: GmmSpatialModel(**_fields(m)),
         lambda model, seed: build_gmm_spatial_instance(model, seed),
         _generic_rows, None, ("norm_sq",), gate=_gmm_compare_rows, phases=2),
    Kind("committee", lambda m: CommitteeModel(**_fields(m)),
         lambda model, seed: build_committee_instance(model, seed),
         _generic_rows, _generic_se_rows, ("norm_sq",)),
)}


def _kind(cfg) -> Kind:
    return KINDS[cfg.kind]


def _model(cfg):
    """The model cfg describes; a value the model rejects is a config
    error."""
    try:
        return _kind(cfg).model(cfg.model)
    except ValueError as ex:
        raise ConfigError(f"model: {ex}") from ex


def _check_reported(cfg) -> None:
    """Requesting none of the kind's observables would gate nothing."""
    kind = _kind(cfg)
    if not set(cfg.observables) & set(kind.reports):
        raise ConfigError(f"observables: model {kind.name} reports only "
                          f"{', '.join(kind.reports)}")


def _build_zoo(cfg: config_mod.ExperimentConfig, seed: int):
    """Returns (instance, model, aux) for one AMP seed; aux is the
    builder's second output (teacher, observations, spike or data)."""
    model = _model(cfg)
    instance, aux = _kind(cfg).build(model, seed)
    return instance, model, aux


def _graph_T(cfg: config_mod.ExperimentConfig) -> int:
    return _kind(cfg).phases * cfg.T


def se_rows_for(cfg, workers=1, per_seed=None) -> List[Tuple[int, str, float, float]]:
    """SE prediction rows; `workers` runs the generic recursion's seeds
    at once and never changes the rows (per_seed: see _generic_se_rows)."""
    kind = _kind(cfg)
    if kind.se_rows is None:
        raise ConfigError(f"model {kind.name} has no SE route; "
                          "use `run` for its fixed-point gates")
    return kind.se_rows(cfg, _model(cfg), workers, per_seed)


# ---------------------------------------------------------------------------
# run orchestration

def map_ordered(task: Callable[[int], Any], n_tasks: int, workers: int) -> List[Any]:
    """task(i) for i in range(n_tasks), results in index order whatever
    the worker count; tasks run on a thread pool when workers > 1."""
    if workers <= 1 or n_tasks <= 1:
        return [task(i) for i in range(n_tasks)]
    with ThreadPoolExecutor(max_workers=min(workers, n_tasks)) as pool:
        return list(pool.map(task, range(n_tasks)))


class SeedResult(NamedTuple):
    """What the gates read of one seed: its AMP rows, its SE prediction
    and its fixed point (None where the kind has no SE or fixed-point
    gate), and whether step 0 wrote no nonzero output (engine.step's
    zero-start guard), which fails `run --strict`."""

    rows: List[Tuple[int, str, float]]
    se: Optional[Dict[Tuple[int, str], float]]
    fixed: Optional[Tuple[float, float, float]]
    zero_start: bool


def _run_one_seed(cfg, seed) -> SeedResult:
    """One seed's SeedResult; the generic kinds' SE runs on the AMP
    instance.  The run streams: each step's rows, and a gmm seed's
    weights at the last step, are read as the step returns, so no history
    is held and the trajectory is gone before the SE runs."""
    kind = _kind(cfg)
    instance, model, aux = _build_zoo(cfg, seed)
    T = _graph_T(cfg)
    rows, weights = [], []

    def each(t, traj):
        if t:
            rows.extend(kind.amp_rows(cfg, t, traj, instance, model, aux))
        if t == T and kind.gate is _gmm_compare_rows:
            weights.append(gmm_weights(traj, model, aux))

    zero_start = run(instance, T, each=each).zero_start
    se = _seed_se(cfg, instance) if kind.se_rows is _generic_se_rows else None
    fixed = _gmm_fixed_point(weights[0], model, aux) if weights else None
    return SeedResult(rows, se, fixed, zero_start)


def _fan_out(cfg, workers):
    seeds = list(cfg.amp_seeds)
    results = map_ordered(lambda i: _run_one_seed(cfg, seeds[i]), len(seeds),
                          workers)
    return list(zip(seeds, results))


def _write_se(out_dir, se_rows, h):
    write_dict_rows(os.path.join(out_dir, "se.csv"),
                    [{"t": t, "name": n, "value": v, "stderr": s}
                     for t, n, v, s in se_rows], h, header=SE_HEADER)


def cmd_run(cfg, out_dir, workers, strict) -> int:
    h = cfg.config_hash()
    kind = _kind(cfg)
    # the cheap spiked recursion runs first, so a deep model exits before a
    # seed is built; the others follow the seeds, whose aborts come first
    se_rows = se_rows_for(cfg) if kind.se_rows is _spiked_se_rows else []
    amp_results = _fan_out(cfg, workers)
    traj_rows = [{"seed": seed, "t": t, "name": name, "value": value}
                 for seed, seed_result in amp_results
                 for t, name, value in seed_result.rows]
    write_dict_rows(os.path.join(out_dir, "trajectory.csv"), traj_rows, h,
                    header=TRAJ_HEADER)
    if kind.se_rows not in (None, _spiked_se_rows):
        se_rows = se_rows_for(cfg, workers, [res.se for _, res in amp_results])
    _write_se(out_dir, se_rows, h)
    cmp_rows = kind.gate(cfg, amp_results, se_rows)
    write_dict_rows(os.path.join(out_dir, "compare.csv"), cmp_rows, h,
                    header=COMPARE_HEADER)

    n_fail = sum(1 for row in cmp_rows if not row["pass"])
    print(f"run: {len(cmp_rows)} comparisons, {n_fail} outside gates "
          f"-> {out_dir}/{{trajectory,se,compare}}.csv")
    dead = [str(seed) for seed, res in amp_results if res.zero_start]
    if strict and dead:
        print(f"run: step 0 wrote no nonzero output on seed {', '.join(dead)}, "
              "so its run stays at zero", file=sys.stderr)
    if strict and (n_fail or dead):
        return 1
    return 0


def cmd_se_only(cfg, out_dir, workers) -> int:
    se_rows = se_rows_for(cfg, workers)
    _write_se(out_dir, se_rows, cfg.config_hash())
    print(f"se-only: {len(se_rows)} rows -> {out_dir}/se.csv")
    return 0


def cmd_embed_verify(cfg, out_dir) -> int:
    """Build the first AMP seed's instance and check its flattening.

    The build's freed scratch is handed back to the OS (_trim_heap)
    before the flattened N x N matrix is allocated, so the process peaks
    at the instance plus that matrix.
    """
    h = cfg.config_hash()
    instance, _, _ = _build_zoo(cfg, seed=cfg.amp_seeds[0])
    _trim_heap()
    report = verify_equivalence(instance, _graph_T(cfg), seed=cfg.master_seed)
    write_dict_rows(os.path.join(out_dir, "embed.csv"), report.records, h,
                    header=("t", "edge", "err"))
    print(f"embed-verify: max discrepancy {report.max_err:.3e} "
          f"(tolerance {EMBED_TOL:.1e}) -> {out_dir}/embed.csv")
    return 0 if report.ok() else 1


def _parser():
    p = argparse.ArgumentParser(prog="graphamp",
                                description="Graph-indexed AMP experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker pool size")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
        sp.add_argument("--strict", action="store_true",
                        help="turn z-gates into hard failures")

    add_common(sub.add_parser("validate-config", help="parse and validate"))
    add_common(sub.add_parser("run", help="AMP + SE + comparison CSVs"))
    add_common(sub.add_parser("se-only", help="SE predictions only"))
    add_common(sub.add_parser("embed-verify",
                              help="symmetric embedding equivalence"))
    return p


# (set, get) thread-count symbols of scipy-openblas (numpy's wheels),
# OpenBLAS and MKL, in lookup order
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


@functools.lru_cache(maxsize=None)
def _blas_threads():
    """(set, get) of the BLAS thread count, through ctypes as threadpoolctl
    does: the first known pair in a loaded library named like a BLAS (on
    Linux, where /proc/self/maps lists them); no-ops, said once on stderr,
    where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line[line.index("/"):].strip() for line in fh if "/" in line}
    except OSError:
        paths = set()
    libs = [ctypes.CDLL(p) for p in sorted(paths) if os.path.exists(p)
            and any(k in os.path.basename(p).lower() for k in ("blas", "mkl"))]
    for names in _BLAS_SYMBOLS:
        for lib in libs:
            if all(hasattr(lib, name) for name in names):
                set_threads, get_threads = (getattr(lib, name) for name in names)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    print("graphamp: no known BLAS library found; output bytes may depend "
          "on the BLAS thread count", file=sys.stderr)
    return (lambda n: None), (lambda: None)


def _trim_heap() -> None:
    """Return the heap's freed pages to the OS: glibc's malloc_trim(0),
    looked up through ctypes; a no-op where the C library has none.
    Only embed-verify calls it: `run` reuses each seed's freed heap for
    the next seed's matrix."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    set_threads, get_threads = _blas_threads()
    previous = get_threads()
    set_threads(1)
    try:
        cfg = config_mod.load(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        out_dir = args.out or cfg.out
        if args.command != "embed-verify":
            _check_reported(cfg)
        if args.command == "validate-config":
            _model(cfg)
            print(f"config ok: kind={_kind(cfg).name} T={cfg.T} "
                  f"hash={cfg.config_hash()}")
            return 0
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.workers, args.strict)
        if args.command == "se-only":
            return cmd_se_only(cfg, out_dir, args.workers)
        return cmd_embed_verify(cfg, out_dir)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except MemoryError as ex:
        print(f"config error: the model does not fit in memory: {ex}", file=sys.stderr)
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
    finally:
        set_threads(previous)


if __name__ == "__main__":
    sys.exit(main())
