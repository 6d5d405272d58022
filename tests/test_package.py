import argparse
import ast
import importlib
import os
import pkgutil
import re
import runpy
import subprocess
import sys

import pytest

import graphamp
import graphamp.models
from graphamp import cli
from graphamp.nonlinearity import Nonlinearity


@pytest.mark.parametrize("module", [graphamp, graphamp.models],
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _py_files():
    """Every .py file of the package and of the tests."""
    src = os.path.dirname(graphamp.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    for root in (src, tests):
        for folder, _, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def test_every_export_has_a_use():
    # some line of the package (outside the __init__ files) or of the
    # tests names each export, other than the line that defines it
    lines = []
    for path in _py_files():
        if os.path.basename(path) != "__init__.py":
            with open(path, encoding="utf-8") as fh:
                lines.extend(fh)
    unused = []
    for name in sorted(set(graphamp.__all__) | set(graphamp.models.__all__)):
        named = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(named.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def _unread_imports(path):
    """Names a module imports at top level but never reads; a name listed
    in __all__ counts as read, and __future__ imports are skipped."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported, read = set(), {n.id for n in ast.walk(tree)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_top_level_import_is_read():
    unread = {path: names for path in _py_files() if (names := _unread_imports(path))}
    assert unread == {}


def _called(decorator):
    """(name, positional constants) of a decorator call such as seed(0)
    or hypothesis.seed(0); None for a bare decorator."""
    if not isinstance(decorator, ast.Call):
        return None
    func = decorator.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name, [a.value for a in decorator.args if isinstance(a, ast.Constant)]


def test_every_given_test_is_seeded():
    # a @given test without @seed(0) draws its examples from a hash of its
    # source, so an edit to its body silently swaps them
    tests = os.path.dirname(os.path.abspath(__file__))
    given, unseeded = 0, []
    for name in sorted(os.listdir(tests)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(tests, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [_called(d) for d in node.decorator_list]
                if any(c and c[0] == "given" for c in calls):
                    given += 1
                    if ("seed", [0]) not in calls:
                        unseeded.append(f"{name}::{node.name}")
    assert given and unseeded == []


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


def test_every_map_states_its_jacobian_trace():
    # the engine forms each Onsager term from jacobian_trace; a map that
    # inherits Nonlinearity's would fail a run at step 0
    for info in pkgutil.walk_packages(graphamp.__path__, "graphamp."):
        importlib.import_module(info.name)
    maps, todo = [], Nonlinearity.__subclasses__()
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("graphamp."):
            maps.append(cls)
    assert len(maps) > 2
    assert [cls.__qualname__ for cls in maps
            if cls.jacobian_trace is Nonlinearity.jacobian_trace] == []


def _readme_block(heading):
    """The lines of the first code block under README.md's `## heading`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```", 2)[1].splitlines()[1:]


def test_readme_cli_block_lists_exactly_the_commands():
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    listed = {line.split()[1] for line in _readme_block("CLI")
              if line.startswith("graphamp ")}
    assert listed == set(sub.choices)


def test_readme_layout_lists_exactly_the_modules():
    src = os.path.dirname(graphamp.__file__)
    modules = {name for name in os.listdir(src)
               if name.endswith(".py") and name != "__init__.py"}
    listed = {line.split()[0] for line in _readme_block("Layout")
              if re.match(r"  \S", line)}
    assert listed == modules | {"models/"}
