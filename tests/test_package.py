import importlib
import os
import runpy
import subprocess
import sys

import pytest

import graphamp
import graphamp.models


@pytest.mark.parametrize("module", [graphamp, graphamp.models],
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy's import alone costs more than the rest of the CLI's start-up
    src = os.path.dirname(os.path.dirname(graphamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, graphamp.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_benchmark_trace_target_resolves():
    # the benchmark's tracer getattr()s every target, so a deleted one
    # breaks each traced run; run_path reads the file without caching it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = runpy.run_path(os.path.join(root, "perfbench", "tracer.py"))["TARGETS"]
    assert targets
    assert [f"{mod}.{attr}" for mod, attr, *_ in targets
            if not hasattr(importlib.import_module(mod), attr)] == []
