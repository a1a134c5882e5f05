"""Smoke tests: the scripts under scripts/ run against the current package,
and the benchmark tracer finds every function it wraps."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
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
    assert "== two players" in out


def test_tracer_targets_exist(monkeypatch):
    # `perfbench/run.py --trace 1` wraps every TARGETS name and dies with
    # an AttributeError on one that is gone
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [
        f"{module}.{name}"
        for module, names in layertrace.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(f"{layertrace.PACKAGE}.{module}"), name)
    ]
    assert missing == []
