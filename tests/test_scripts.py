"""Smoke tests: the scripts under scripts/ run against the current package,
the benchmark tracer finds every function it wraps, the benchmark's
workloads set up against the package, and every public definition of the
package, and every public method of its public classes, is used somewhere."""

from __future__ import annotations

import ast
import builtins
import importlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_script():
    out = run_script("worked_examples.py")
    assert "n=8: minimal span size" in out and "lowerbound 256, pennies-III 32" in out
    assert "== two players" in out


def _perfbench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(monkeypatch):
    # `perfbench/run.py --trace 1` wraps every TARGETS name and dies with
    # an AttributeError on one that is gone
    layertrace = _perfbench_module("layertrace", monkeypatch)
    missing = [
        f"{module}.{name}"
        for module, names in layertrace.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(f"{layertrace.PACKAGE}.{module}"), name)
    ]
    assert missing == []


def test_benchmark_workloads_set_up(monkeypatch, tmp_path):
    # each workload builds its inputs through names and keywords of the
    # package, such as `FamilyParams(family=...)`; one that is gone fails here
    workloads = _perfbench_module("workloads", monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        assert workload().setup(1, workdir), name


def _names(tree):
    """Every name `tree` refers to: names, attributes, imported names and
    identifier strings (`__all__` entries, the tracer's `TARGETS`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_public_definition_is_used():
    # read with `ast` only: nothing under perfbench/ is imported
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "perfbench", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    definitions = [
        (f"{path.stem}.{node.name}", node)
        for path, tree in trees.items()
        if path.parent == ROOT / "src" / "recall_forge"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    # the public methods of those public classes too
    definitions += [
        (f"{label}.{node.name}", node)
        for label, cls in definitions
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    # a name that a builtin or a builtin type's method shares cannot be
    # counted: a call of `.encode` may be `str.encode`
    shared = set(dir(builtins)).union(
        *map(dir, (str, bytes, int, float, list, tuple, dict, set, frozenset))
    )
    clashes = [label for label, node in definitions if node.name in shared]
    # a use inside the definition itself, such as a recursive call, does not count
    unused = [
        label
        for label, node in definitions
        if used[node.name] == Counter(_names(node))[node.name]
    ]
    assert definitions
    assert clashes == []
    assert unused == []
