"""Crash sweep over the model zoo, run once per benchmark invocation.

    python3 zoo.py --work DIR --result OUT.json

Calls `graphamp.cli.main(["run", ...])` once per model kind at a tiny
size, GLM kinds under both `gh` and `mc` quadrature, all in this one
interpreter.  A case crashes when main raises or returns exit code 2-4;
exit 1 (a strict gate miss) cannot occur because --strict is not
passed, so finite-size gate misses never count.  Seeds are fixed so the
count reads the same on every run of the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

GLM = {"d": 60, "aspect": 0.5, "lam": 1.0}
CASES = [
    ("lasso", "gh", GLM),
    ("lasso", "mc", GLM),
    ("ridge", "gh", GLM),
    ("ridge", "mc", GLM),
    ("logistic", "gh", GLM),
    ("logistic", "mc", GLM),
    ("multilayer", None, {"d0": 60, "dims": [50, 40],
                          "activations": ["linear", "relu"]}),
    ("spiked", None, {"N": 80, "lam": 2.5}),
    ("gmm_spatial", None, {"K": 2, "d": 40, "n_per_cluster": 30,
                           "coupling": 0.3}),
    ("committee", None, {"d": 60, "n": 60}),
]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    from graphamp.cli import main as cli_main

    cases = []
    for kind, quad, model in CASES:
        label = f"{kind}/{quad}" if quad else kind
        cfg = {"model": {"kind": kind, **model}, "T": 3, "amp_seeds": [0, 1],
               "se_samples": 200, "master_seed": 1}
        if quad:
            cfg["quadrature"] = quad
        out = os.path.join(args.work, label.replace("/", "-"))
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        case = {"case": label, "rc": None, "error": None}
        try:
            case["rc"] = cli_main(["run", "--config", path, "--out", out,
                                   "--workers", "1"])
        except Exception as ex:  # the sweep counts uncaught errors
            case["error"] = f"{type(ex).__name__}: {ex}"
        case["crashed"] = case["error"] is not None or case["rc"] in (2, 3, 4)
        cases.append(case)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(cases, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
