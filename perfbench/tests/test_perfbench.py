"""Tests of the benchmark itself: tracing leaves the program as it found
it, self times add up, counters repeat, and the output checks reject
wrong outputs.  Run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import layertrace
import run
import workloads


def _bindings() -> dict[tuple[str, str], object]:
    names = {f for funcs in layertrace.TARGETS.values() for f in funcs}
    return {
        (mod_name, name): vars(mod)[name]
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "recall_forge" or mod_name.startswith("recall_forge.")
        for name in names
        if name in vars(mod)
    }


def test_traced_run_restores_every_wrapped_name(tmp_path):
    importlib.import_module("recall_forge.cli")
    before = _bindings()
    assert ("recall_forge.cli", "cli_main") in before
    assert ("recall_forge.solver", "minimal_span") in before
    assert all(not hasattr(f, "__wrapped__") for f in before.values())
    ledger, metrics, _ = run.measure(workloads.Pennies3Search(), 1, 0.01, True, tmp_path)
    assert ledger.failed == 0
    assert metrics["span.subproblems"][0] > 0  # the tracer did see the calls
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_job_wall_time(tmp_path):
    workload = workloads.CertificateReplay()
    job = workload.setup(1, tmp_path)[0]
    tracer = layertrace.Tracer()
    with tracer.installed():
        with tracer.job():
            t0 = perf_counter()
            ok, _ = run.run_job(job)
            wall = perf_counter() - t0
    assert ok
    spans = tracer.last_job
    names = {name for name, *_ in spans}
    assert {"cli", "docio.parse_certificate", "transform.transfer_payoffs",
            "span.verify_span", "solver.solve_alr"} <= names
    own = layertrace.self_times(spans)
    assert all(t >= 0 for t in own)
    job_span = spans[0]
    assert job_span[0] == layertrace.JOB
    assert sum(own) == pytest.approx(job_span[2] - job_span[1], abs=1e-9)
    assert sum(own) == pytest.approx(wall, rel=0.01, abs=1e-3)


def test_counters_repeat_across_traced_runs(tmp_path):
    keys = ("span.subproblems", "model.classify_recall.calls", "seqsets.covering_infoset.calls")
    runs = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        _, metrics, _ = run.measure(workloads.Pennies3Search(), 3, 0.01, True, workdir)
        runs.append({k: metrics[k][0] for k in keys})
    assert all(v > 0 for v in runs[0].values())
    assert runs[0] == runs[1]


def _outputs(workload, job):
    ok, stdouts = run.run_job(job)
    assert ok
    return stdouts + tuple(Path(f).read_text() for f in job.files)


def test_checks_accept_outputs_and_reject_tampering(tmp_path):
    pennies = workloads.Pennies3Search()
    job = pennies.setup(1, tmp_path)[0]
    solve_text, sd_text = _outputs(pennies, job)
    assert pennies.check(job, (solve_text, sd_text)) == []
    value, strategy = solve_text.split("\n", 1)
    wrong = f"{Fraction(value) + 1}\n{strategy}"
    assert pennies.check(job, (wrong, sd_text))
    assert pennies.check(job, (solve_text, "3\n"))

    spans = workloads.LowerboundSpan()
    job = spans.setup(1, tmp_path)[0]
    out = _outputs(spans, job)
    assert spans.check(job, out) == []
    cert = json.loads(out[2])
    cert["combinations"][0]["generators"].pop()
    assert spans.check(job, (out[0], out[1], json.dumps(cert)))


def test_ledger_counts_every_job_behind_a_failed_output(tmp_path):
    workload = workloads.Pennies3Search()
    job = workload.setup(1, tmp_path)[0]
    ledger = run.Ledger()
    for _ in range(3):
        ledger.record(job, True, ("x\n", "2\n"))
    ledger.record(job, False, ("error: boom",))
    ledger.check(workload)
    assert (ledger.attempted, ledger.failed) == (4, 4)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / bench.name / "run.py"), "--workload", "random-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
