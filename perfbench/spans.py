"""Spans recorded around gridscan's public functions.

A span wraps a public function by replacing its name in the module that
calls it; the original is put back when the ``patched`` block ends, so the
program itself is never edited.  Spans are kept in memory (name, start,
end, parent, run id and a few counts) and written out once at the end.

Oracle calls go through :class:`OracleProxy`, which records one span per
call.  The stage of a call (selection, centroid, validation, full) is the
stage the enclosing wrapped function declared when it was entered.  With
``trace_calls`` off, calls inside a sweep are passed straight through, so
a cheap oracle's full scan is not slowed by the recording.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

ORACLE_CALL = "oracles.call"
# Sweeps run oracle calls on worker threads, so their children overlap;
# a sweep counts as one unit of oracle-layer wall time.
SWEEPS = ("oracles.evaluate_many", "oracles.full_scan")

# (module, attribute, span name, stage it sets, count hook)
# The timed run wraps only these: the boundaries that the end-to-end
# metrics (fast-scan time, oracle wait, full-scan time) are cut from.
METER = [
    ("gridscan.scanning", "fast_scan", "scanning.fast_scan", None, "report"),
    ("gridscan.scanning", "validate", "scanning.validate", "validation", None),
    ("gridscan.scanning", "compare_full_vs_fast", "scanning.compare", None, None),
    ("gridscan.scanning", "select_features", "relief.select_features", "selection", "training"),
    ("gridscan.scanning", "evaluate_many", "oracles.evaluate_many", "sweep", None),
    ("gridscan.scanning", "full_scan", "oracles.full_scan", "full", None),
    ("gridscan.oracles", "full_scan", "oracles.full_scan", "full", None),
    ("gridscan.cli", "fast_scan", "scanning.fast_scan", None, "report"),
    ("gridscan.cli", "validate", "scanning.validate", "validation", None),
    ("gridscan.cli", "compare_full_vs_fast", "scanning.compare", None, None),
    ("gridscan.cli", "select_features", "relief.select_features", "selection", "training"),
    ("gridscan.cli", "full_scan", "oracles.full_scan", "full", None),
]
# The traced run adds every other layer boundary.
TRACE = METER + [
    ("gridscan.scanning", "self_adaptive_pso_kmeans", "clustering.self_adaptive", None, "model"),
    ("gridscan.cli", "self_adaptive_pso_kmeans", "clustering.self_adaptive", None, "model"),
    ("gridscan.cli", "worst_case_analysis", "scanning.worst_case_analysis", None, None),
    ("gridscan.clustering", "init_swarm", "clustering.init_swarm", None, "k_init"),
    ("gridscan.clustering", "pso_step", "clustering.pso_step", None, None),
    ("gridscan.clustering", "mutation_check", "clustering.mutation_check", None, "mutation"),
    ("gridscan.clustering", "kmeans", "clustering.kmeans", None, "lloyd"),
    ("gridscan.relief", "rrelieff_pass", "relief.rrelieff_pass", None, None),
    ("gridscan.dataset", "generate_synthetic_year", "dataset.generate", None, None),
    ("gridscan.cli", "generate_synthetic_year", "dataset.generate", None, None),
    ("gridscan.cli", "load_csv", "dataset.load_csv", None, None),
    ("gridscan.cli", "save_csv", "dataset.save_csv", None, None),
]

_COUNT_HOOKS = {
    "report": lambda args, r: {"oracle_evaluations": r.oracle_evaluations, "n_hours": len(r.hours)},
    "training": lambda args, r: {"training_size": r.training_size},
    "model": lambda args, r: {"k_final": r.k},
    "k_init": lambda args, r: {"k_init": args[1]},
    "mutation": lambda args, r: {"adopted": int(r[1])},
    "lloyd": lambda args, r: {"lloyd_sweeps": len(r.smse_history) - 1},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store.

    Wrapped functions run on the main thread, which keeps the stack of
    open spans.  Oracle calls may come from sweep worker threads while the
    main thread waits inside the sweep, so they read the stack but never
    change it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = -1
        self.stage = "other"
        self.trace_calls = True
        self.sweeping = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, stage: str | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(idx)
        previous = self.stage, self.sweeping
        if stage == "sweep":
            stage = "validation" if self._inside("scanning.validate") else "centroid"
        if stage is not None:
            self.stage = stage
        self.sweeping = self.sweeping or name in SWEEPS
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.stage, self.sweeping = previous

    def oracle_call(self, start: float, end: float, failed: bool):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(
            ORACLE_CALL, start, end, parent, self.run_id,
            {"stage": self.stage, "failed": failed, "in_sweep": self.sweeping},
        ))

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _wrap(self, fn, name, stage, hook):
        count = _COUNT_HOOKS.get(hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, stage) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.data.update(count(args, result))
            return result

        return wrapper

    @contextmanager
    def patched(self, table):
        """Replace each listed module attribute by a span wrapper."""
        saved = []
        try:
            for module_name, attr, name, stage, hook in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, stage, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class OracleProxy:
    """Forwards calls to an oracle and records each one as a span.

    ``eval_count``, ``kind`` and ``config()`` are forwarded, so the scan's
    own call accounting and the CLI's trace-cache key are unchanged.
    """

    def __init__(self, oracle, recorder: Recorder):
        self._oracle = oracle
        self._recorder = recorder
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._oracle.eval_count

    @property
    def kind(self) -> str:
        return self._oracle.kind

    def config(self) -> dict:
        return self._oracle.config()

    def __call__(self, point):
        if self._recorder.sweeping and not self._recorder.trace_calls:
            return self._oracle(point)
        start = time.perf_counter()
        failed = True
        try:
            value = self._oracle(point)
            failed = False
            return value
        finally:
            end = time.perf_counter()
            with self._lock:
                self._recorder.oracle_call(start, end, failed)


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(i)
    return kids


def self_time(spans: list[Span], kids: list[list[int]], i: int) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = 0.0
    reach = spans[i].start
    for lo, hi in sorted((spans[c].start, spans[c].end) for c in kids[i]):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return spans[i].duration - covered


def descendants(kids: list[list[int]], i: int) -> list[int]:
    out, todo = [], list(kids[i])
    while todo:
        j = todo.pop()
        out.append(j)
        todo.extend(kids[j])
    return out


def layer_times(spans: list[Span], kids: list[list[int]], i: int) -> dict[str, float]:
    """Wall time under span ``i`` split by layer (the span-name prefix).

    Each span contributes its self time, except that a sweep contributes
    its whole duration to the oracle layer and its calls add nothing, so
    the parts add up to the duration of span ``i``.
    """
    totals: dict[str, float] = {}
    todo = [i]
    while todo:
        j = todo.pop()
        span = spans[j]
        layer = span.name.split(".")[0]
        if span.name in SWEEPS:
            totals[layer] = totals.get(layer, 0.0) + span.duration
            continue
        totals[layer] = totals.get(layer, 0.0) + self_time(spans, kids, j)
        todo.extend(kids[j])
    return totals
