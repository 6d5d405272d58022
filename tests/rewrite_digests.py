"""Pinned SHA-256 digests of the CSVs the CLI writes.

The shipped configs and the committee acceptance config run as
`run --strict --workers 2`, the coupled GMM as `embed-verify`, and a
tiny ridge, logistic and gmm_spatial model (the kinds that ship no
config) as `run --strict --workers 2`.  tests/test_digests.py reruns
them in process and compares every CSV with tests/digests.json.

Draws depend on numpy's sampler and rounding on the BLAS kernel, so the
file keeps one table per key "numpy <version> / <OpenBLAS core>".  A
change meant to alter the outputs rewrites this machine's table with

    PYTHONPATH=src python tests/rewrite_digests.py

which prints the name of every CSV whose digest it added, changed or
removed; say in CHANGES.md which files changed and why.  With
`--dump DIR` it writes those CSVs under DIR/<name>/ instead and leaves
the table alone, so a change's dump can be diffed against its parent's:

    PYTHONPATH=src python tests/rewrite_digests.py --dump DIR
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from graphamp.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

# the top-level settings of test_cli's per-kind runs
TINY = {"T": 3, "amp_seeds": [0, 1], "se_samples": 100, "master_seed": 1}
GLM_TINY = {"d": 60, "aspect": 0.5, "lam": 1.0}

# name -> (command, config path under the repo root or an inline config)
RUNS = {
    "lasso_quickstart": ("run", "configs/lasso_quickstart.json"),
    "multilayer_small": ("run", "configs/multilayer_small.json"),
    "spiked_small": ("run", "configs/spiked_small.json"),
    "committee_se": ("run", {
        "model": {"kind": "committee", "d": 1000, "n": 1000},
        "T": 10, "amp_seeds": list(range(10)), "se_samples": 2000,
        "master_seed": 31, "observables": ["norm_sq"]}),
    "gmm_embed": ("embed-verify", {
        "model": {"kind": "gmm_spatial", "K": 2, "d": 500, "n_per_cluster": 400,
                  "lam": 1.0, "mean_scale": 0.1, "coupling": 0.3},
        "T": 60, "amp_seeds": [0], "master_seed": 11}),
    "ridge_tiny": ("run", {"model": {"kind": "ridge", **GLM_TINY}, **TINY}),
    "logistic_tiny": ("run", {"model": {"kind": "logistic", **GLM_TINY}, **TINY}),
    "gmm_spatial_tiny": ("run", {"model": {"kind": "gmm_spatial", "K": 2, "d": 30,
                                           "n_per_cluster": 20, "coupling": 0.3},
                                 **TINY}),
}


def blas_core() -> str:
    """The core OpenBLAS picked for this CPU, as numpy's bundled
    scipy-openblas names it; "unknown" where no loaded library says."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line[line.index("/"):].strip() for line in fh if "/" in line}
    for path in sorted(paths):
        if "blas" in os.path.basename(path).lower() and os.path.exists(path):
            corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def digest_key() -> str:
    return f"numpy {np.__version__} / {blas_core()}"


def run_outputs(name, command, config) -> dict:
    """{"<name>/<file>.csv": bytes} of one CLI invocation."""
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(config, str):
            path = os.path.join(ROOT, config)
        else:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        out = os.path.join(tmp, "out")
        flags = ["--strict", "--workers", "2"] if command == "run" else []
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", out, *flags])
        if code not in (0, 1):
            raise RuntimeError(f"{name}: {command} exited {code}")
        outputs = {}
        for csv in sorted(os.listdir(out)):
            with open(os.path.join(out, csv), "rb") as fh:
                outputs[f"{name}/{csv}"] = fh.read()
        return outputs


def run_digests(name, command, config) -> dict:
    """{"<name>/<file>.csv": sha256} of one CLI invocation."""
    return {csv: hashlib.sha256(data).hexdigest()
            for csv, data in run_outputs(name, command, config).items()}


def all_digests() -> dict:
    digests = {}
    for name, (command, config) in RUNS.items():
        digests.update(run_digests(name, command, config))
    return digests


def dump(root) -> None:
    """Write every CSV that all_digests hashes to root/<name>/<file>.csv."""
    for name, (command, config) in RUNS.items():
        for csv, data in run_outputs(name, command, config).items():
            path = os.path.join(root, csv)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)


def pinned() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def moved(old: dict, new: dict) -> list:
    """["<added|changed|removed>: <name>"] for the names whose digest
    differs between two tables, in name order."""
    return [f"{'added' if name not in old else 'removed' if name not in new else 'changed'}: "
            f"{name}" for name in sorted(set(old) | set(new)) if old.get(name) != new.get(name)]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--dump DIR]")
    table = pinned() if os.path.exists(DIGESTS) else {}
    old = table.get(digest_key(), {})
    table[digest_key()] = all_digests()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in moved(old, table[digest_key()]):
        print(line)
    print(f"{DIGESTS}: wrote {len(table[digest_key()])} digests under {digest_key()!r}",
          file=sys.stderr)
