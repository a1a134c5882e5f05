"""Per-layer tracing from outside the program.

A `Tracer` wraps the public functions of recall-forge's modules in every
module namespace that holds them, so calls that go through a module's
globals (for example `minimal_span` calling `verify_span`) are seen as
well as calls from the CLI.  Each wrapper records a span: name, start,
end and parent.  Spans live in memory for one job; when the job ends they
are folded into per-layer totals of calls and self time, where self time
is a span's duration minus the durations of its direct children.  Since
the program is single-threaded, child spans never overlap, so the self
times of one job sum to that job's wall time.

Counters are read at the same boundaries: the `minimal_span` wrapper
passes a `SpanStats` when the caller gave none, and other wrappers look at
arguments and results (document sizes, history-set sizes, leaf counts).

`uninstall` puts every original function back; nothing of the tracer
stays in the program's modules after it.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

PACKAGE = "recall_forge"

# module -> public functions to wrap
TARGETS: dict[str, tuple[str, ...]] = {
    "model": ("classify_recall", "history"),
    "seqsets": (
        "extract_histories",
        "covering_infoset",
        "is_alr_set",
        "find_strongly_branching_subset",
    ),
    "shuffle": ("salr_witness",),
    "span": ("minimal_span", "verify_span", "realize_sequence_set", "shuffle_depth"),
    "docio": ("parse_game", "serialize_game", "parse_certificate", "serialize_certificate"),
    "transform": ("transfer_payoffs", "compose_two_player"),
    "solver": ("solve", "solve_alr", "refine_alr"),
    "cli": ("cli_main",),
}

JOB = "job"


def self_times(spans: list[list[Any]]) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Spans and counters for the jobs run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.last_job: list[list[Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Callable]] = []
        self.jobs = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module, funcs in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{module}"]
            for func in funcs:
                original = getattr(home, func)
                name = "cli" if func == "cli_main" else f"{module}.{func}"
                wrapper = self._wrap(name, original)
                for m in modules:
                    if vars(m).get(func) is original:
                        self._patched.append((m, func, original))
                        setattr(m, func, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            m, func, original = self._patched.pop()
            setattr(m, func, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans --------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = None
            if before:
                args, ctx = before(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                after(self.counts, args, kwargs, result, ctx)
            return result

        return wrapper

    @contextmanager
    def job(self) -> Iterator[None]:
        """Root span of one job; folds the job's spans into the totals."""
        if self._stack:
            raise RuntimeError("jobs do not nest")
        index = self._open(JOB)
        try:
            yield
        finally:
            self._close(index)
            for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
                self.calls[name] += 1
                self.self_s[name] += own
            self.jobs += 1
            self.last_job = self.spans
            self.spans = []


# -- counters read at the boundaries ----------------------------------


def _span_stats(args, kwargs) -> tuple[tuple, Any]:
    """Give `minimal_span` a SpanStats when the caller passed none."""
    stats = args[1] if len(args) > 1 else kwargs.get("stats")
    if stats is None:
        from recall_forge.span import SpanStats

        stats = SpanStats()
        args = args[:1]
        kwargs["stats"] = stats
    return args, (stats, stats.subproblems, stats.lookups)


def _after_minimal_span(counts, args, kwargs, result, ctx) -> None:
    stats, subproblems, lookups = ctx
    counts["span.subproblems"] += stats.subproblems - subproblems
    counts["span.lookups"] += stats.lookups - lookups
    counts["span.size"] += len(result.span)


def _after_covering(counts, args, kwargs, result, ctx) -> None:
    if result is None:
        counts["seqsets.covering_infoset.misses"] += 1


def _after_parse(counts, args, kwargs, result, ctx) -> None:
    counts["docio.bytes_in"] += len(args[0])  # documents are ASCII JSON


def _after_serialize(counts, args, kwargs, result, ctx) -> None:
    counts["docio.bytes_out"] += len(result)


def _after_extract(counts, args, kwargs, result, ctx) -> None:
    counts["seqsets.histories"] += len(result)


def _after_transform(counts, args, kwargs, result, ctx) -> None:
    counts["transform.target_leaves"] += len(result.game.utility)


_BEFORE = {"span.minimal_span": _span_stats}
_AFTER = {
    "span.minimal_span": _after_minimal_span,
    "seqsets.covering_infoset": _after_covering,
    "docio.parse_game": _after_parse,
    "docio.parse_certificate": _after_parse,
    "docio.serialize_game": _after_serialize,
    "docio.serialize_certificate": _after_serialize,
    "seqsets.extract_histories": _after_extract,
    "transform.transfer_payoffs": _after_transform,
    "transform.compose_two_player": _after_transform,
}


# -- per-layer metrics ------------------------------------------------

SELF_TIMES = (
    "span.minimal_span",
    "span.verify_span",
    "span.realize_sequence_set",
    "span.shuffle_depth",
    "seqsets.covering_infoset",
    "seqsets.is_alr_set",
    "seqsets.find_strongly_branching_subset",
    "seqsets.extract_histories",
    "shuffle.salr_witness",
    "docio.parse_game",
    "docio.serialize_game",
    "docio.parse_certificate",
    "docio.serialize_certificate",
    "transform.transfer_payoffs",
    "transform.compose_two_player",
    "model.classify_recall",
    "model.history",
    "solver.solve",
    "solver.solve_alr",
    "solver.refine_alr",
    "cli",
)
CALL_COUNTS = (
    "seqsets.covering_infoset",
    "seqsets.find_strongly_branching_subset",
    "shuffle.salr_witness",
    "model.classify_recall",
    "model.history",
)
COUNTERS = (
    "span.subproblems",
    "span.size",
    "docio.bytes_in",
    "docio.bytes_out",
    "transform.target_leaves",
    "seqsets.histories",
)
UNITS = {"span.size": "count", "docio.bytes_in": "B", "docio.bytes_out": "B"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-job means of self times and counts, plus search ratios.

    Every metric is present; a layer a workload never calls reads 0.
    """
    jobs = max(tracer.jobs, 1)
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / jobs, "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / jobs, "count")
    for name in COUNTERS:
        out[name] = (tracer.counts.get(name, 0) / jobs, UNITS.get(name, "count"))
    subproblems = tracer.counts.get("span.subproblems", 0)
    lookups = tracer.counts.get("span.lookups", 0)
    out["span.memo_hit_ratio"] = (_ratio(lookups, lookups + subproblems), "ratio")
    out["seqsets.covering_infoset.miss_ratio"] = (
        _ratio(
            tracer.counts.get("seqsets.covering_infoset.misses", 0),
            tracer.calls.get("seqsets.covering_infoset", 0),
        ),
        "ratio",
    )
    return out
