#!/usr/bin/env python3
"""recall-forge benchmark: timed in-process CLI jobs on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the run sets the workload up three times (input
generation, certificates built ahead of time, one warm-up job) and then
runs jobs for S seconds, one thread, no tracing; it reports the
end-to-end metrics.  With `--trace 1` it alternates untraced passes over
the job pool with passes where every layer is wrapped (see
layertrace.py), and reports the per-layer metrics.  Either way every
output is checked after the timed phase.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  Exit code 0 when
every output checked out, 1 when some did not, 2 when the program could
not be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import layertrace

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile


def load_program() -> None:
    """Import recall_forge from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "recall_forge" / "cli.py").is_file():
        raise ImportError(f"no recall_forge sources under {src}")
    sys.path.insert(0, str(src))
    import recall_forge

    if Path(recall_forge.__file__).resolve().parent != src / "recall_forge":
        raise ImportError(f"recall_forge was imported from {recall_forge.__file__}")


def run_job(job) -> tuple[bool, tuple[str, ...]]:
    """Run one job's commands in order; stop at the first non-zero exit.

    `cli_main` is looked up on its module at each call, so that a traced
    run goes through the tracer's wrapper.
    """
    from recall_forge import cli

    stdouts = []
    for argv in job.commands:
        out, err = io.StringIO(), io.StringIO()
        if cli.cli_main(list(argv), out, err) != 0:
            return False, (err.getvalue().strip(),)
        stdouts.append(out.getvalue())
    return True, tuple(stdouts)


class Ledger:
    """Every job attempted, and its outputs kept once per distinct value so
    they can be checked after the timed phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._pending: dict[tuple[int, bytes], list] = {}

    def record(self, job, ok: bool, stdouts: tuple[str, ...]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{job}: exit code non-zero: {stdouts[0]}")
            return
        outputs = stdouts + tuple(Path(f).read_text(encoding="utf-8") for f in job.files)
        digest = hashlib.blake2b(b"\0".join(o.encode() for o in outputs)).digest()
        entry = self._pending.setdefault((job.key, digest), [job, outputs, 0])
        entry[2] += 1

    def check(self, workload) -> None:
        for job, outputs, count in self._pending.values():
            try:
                problems = workload.check(job, outputs)
            except Exception as exc:  # a malformed output must not end the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += count
                self.problems.extend(f"{job}: {p}" for p in problems)
        self._pending.clear()


def run_jobs(jobs, seconds, ledger, tracer=None) -> list[float]:
    """Run whole passes over the pool until `seconds` have gone by; return
    each job's wall time.

    Whole passes give every input the same weight in every run.  Only the
    job itself is timed: garbage collection and output capture happen
    between jobs.
    """
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        for job in jobs:
            gc.collect()
            with tracer.job() if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                ok, stdouts = run_job(job)
                times.append(perf_counter() - t0)
            ledger.record(job, ok, stdouts)
    return times


def set_up(workload, seed, workdir, ledger) -> tuple[list, float]:
    """Set up SETUP_REPEATS times; each ends with one discarded warm-up job.

    Returns the job pool and the median set-up time.
    """
    durations = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        jobs = workload.setup(seed, workdir)
        ok, stdouts = run_job(jobs[0])
        durations.append(perf_counter() - t0)
        ledger.record(jobs[0], ok, stdouts)
    return jobs, statistics.median(durations)


def tail(times: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND jobs beyond it, and its percentile.

    With too few jobs for that, the slowest job (percentile 100).
    """
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """One run: returns (ledger, metrics, notes); metrics map to (value, unit)."""
    ledger = Ledger()
    jobs, setup_s = set_up(workload, seed, workdir, ledger)
    notes: dict = {"setup_repeats": SETUP_REPEATS, "pool": len(jobs)}
    # The inputs live for the whole run: freezing them keeps the collection
    # before each job down to what the jobs themselves allocated.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            # Alternate untraced and traced passes, so that both sides of
            # trace.overhead_ratio see the same drift in machine speed.
            tracer = layertrace.Tracer()
            plain, traced = [], []
            start = perf_counter()
            while not traced or perf_counter() - start < seconds:
                plain += run_jobs(jobs, 0, ledger)
                with tracer.installed():
                    traced += run_jobs(jobs, 0, ledger, tracer)
        else:
            times = run_jobs(jobs, seconds, ledger)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        gc.unfreeze()
    ledger.check(workload)

    if trace:
        metrics = layertrace.layer_metrics(tracer)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        notes.update(untraced_jobs=len(plain), traced_jobs=len(traced))
        return ledger, metrics, notes
    tail_s, pct = tail(times)
    metrics = {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes.update(jobs=len(times), tail_percentile=round(pct, 1))
    return ledger, metrics, notes


def run_metadata(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Information about the run; none of it is a gated metric."""
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": workload.describe(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    trace = bool(args.trace)

    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ledger, metrics, notes = measure(workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    meta = run_metadata(workload, args.seed, args.seconds, trace)
    meta.update(notes)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':46s} {ledger.failed / ledger.attempted:14.6g} ({ledger.failed}/{ledger.attempted} jobs)")
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
