"""One benchmark sample in a fresh interpreter.

    python3 sample.py --mode run --config CFG --result OUT.json -- run --config CFG ...

Times `import graphamp.cli` plus loading and validating the config
(setup_s), then one call of `graphamp.cli.main` with the arguments after
`--` (wall_s), then reads the process's peak resident memory.  In
`trace` mode the span tracer is installed between the two timings and
the spans are written to --spans.  `setup` mode stops after set-up.
The parent (run.py) checks outputs; this file only measures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("argv", nargs="*")
    args = p.parse_args()

    t0 = time.perf_counter()
    import graphamp.cli as cli
    from graphamp import config
    config.load(args.config)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    out = {"setup_s": setup_s, "graphamp_file": cli.__file__,
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.mode != "setup":
        entry = cli.main
        tracer = None
        if args.mode == "trace":
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)
            entry = tracer.wrap(cli.main, "cli.main", "cli")
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            out["rc"] = entry(args.argv)
        except Exception:  # an uncaught program error is a measured outcome
            out["rc"] = None
            out["error"] = traceback.format_exc(limit=4)
        out["wall_s"] = time.perf_counter() - t1
        out["cpu_s"] = time.process_time() - c1
        if tracer is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
