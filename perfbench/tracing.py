"""Spans for the benchmark's traced run, recorded from outside the program.

Run one CLI stage with every layer's public functions wrapped:

    python3 perfbench/tracing.py SPANS_FILE RUN_ID -- <answer-or-search arguments>

Each wrapped call records a span (run id, id, parent, name, start, end) in
memory; the spans are written to SPANS_FILE when the stage ends, together
with the time the package finished importing and the time the dump began. The clock is ``time.perf_counter``,
which on Linux is the system-wide monotonic clock, so the benchmark can place
these spans under the stage's launch and exit times taken in its own process.

The analysis half of this module (``self_time``, ``max_overlap``,
``union_length``) works on plain span lists and needs no package import.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

#: Parent id of spans opened directly by the stage: the stage's root span.
ROOT_ID = 0

#: Functions wrapped wherever a package module holds them by name, keyed by
#: span name. The span name is "<layer module>.<function>".
FUNCTIONS = (
    "corpus.ingest",
    "corpus.write_canonical",
    "corpus.exact_match",
    "corpus.normalize",
    "inference.run_corpus",
    "inference.read_predictions",
    "inference.write_predictions",
    "labeling.build_masked_dataset",
    "labeling.write_masked_dataset",
    "labeling.read_masked_dataset",
    "ppl_threshold.calibrate",
    "ppl_threshold.apply_threshold",
    "ppl_threshold.save_threshold",
    "ppl_threshold.load_threshold",
    "evaluation.judge",
    "evaluation.evaluate_pair",
    "evaluation.write_report",
    "evaluation.read_report",
    "analysis.histogram",
    "analysis.tradeoff_curve",
    "analysis.write_tradeoff_table",
    "analysis.write_histogram_table",
)

#: Methods wrapped on their class: (module, class, method, span name).
METHODS = (
    ("inference", "GenerationClient", "generate", "inference.generate"),
    ("inference", "ResponseCache", "get", "inference.cache.get"),
    ("inference", "ResponseCache", "put", "inference.cache.put"),
)


@dataclass(frozen=True)
class Span:
    run_id: str
    id: int
    parent: int
    name: str
    start: float
    end: float
    hit: bool | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by the threads of one stage process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A pool worker starts with an empty stack; its caller is the span
        # open on the main thread (run_corpus), which is blocked waiting.
        main = self._main_stack
        return main[-1] if main else ROOT_ID

    def wrap(self, name: str, fn, record_hit: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                hit = (result is not None) if record_hit else None
                self.spans.append(Span(self.run_id, span_id, parent, name, start, end, hit))

        return traced

    def dump(self, path: str, imported_at: float) -> None:
        dumped_at = perf_counter()
        rows = [[s.id, s.parent, s.name, s.start, s.end, s.hit] for s in self.spans]
        doc = {"run_id": self.run_id, "imported_at": imported_at, "dumped_at": dumped_at}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**doc, "spans": rows}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function in each package module that holds it by name."""
    import importlib
    import pkgutil

    import answer_or_search

    modules = [
        importlib.import_module(f"answer_or_search.{info.name}")
        for info in pkgutil.iter_modules(answer_or_search.__path__)
    ]
    for name in FUNCTIONS:
        home, func = name.split(".")
        original = getattr(importlib.import_module(f"answer_or_search.{home}"), func)
        traced = tracer.wrap(name, original)
        for module in modules:
            if getattr(module, func, None) is original:
                setattr(module, func, traced)
    for home, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(f"answer_or_search.{home}"), cls_name)
        traced = tracer.wrap(name, getattr(cls, method), record_hit=name == "inference.cache.get")
        setattr(cls, method, traced)


def load_spans(path: str) -> tuple[float, float, list[Span]]:
    """(package imported at, span dump started at, spans) of one stage."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = [Span(doc["run_id"], *row) for row in doc["spans"]]
    return doc["imported_at"], doc["dumped_at"], spans


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


def max_overlap(spans: list[Span]) -> int:
    """The largest number of spans open at one instant."""
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS_FILE RUN_ID -- <answer-or-search arguments>", file=sys.stderr)
        return 2
    spans_path, run_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    from answer_or_search import cli

    imported_at = perf_counter()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, imported_at)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
