"""Spans recorded around calls into the program's layers, from outside.

The benchmark does not edit the program. A traced pass wraps the injected
objects (backend, gateway, checkpoint store, `process_document`) as
instance attributes, and patches the public module-level functions the
program reaches through module globals. Each span records its name, start,
end, parent and document id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from sdgpb import analytics, corpus, gateway, pipeline, reporting, testing
from sdgpb.gateway import ReplayBackend


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    doc_id: str | None

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "doc_id": self.doc_id}


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None,
             doc_of: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `on_result(args, result)` counts work
        done, and `doc_of(args)` names the document a root span belongs to."""
        local = self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            doc_id = doc_of(args) if doc_of else (parent[1] if parent else None)
            span_id = next(self._ids)
            stack.append((span_id, doc_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end,
                                       parent[0] if parent else None, doc_id))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Patch the module-level entry points of every layer for the duration."""
        add = self.add

        def count_prompt(args, req):
            add("pipeline.prompt_chars", len(req.system_text) + len(req.user_text))

        def count_key(args, key):
            add("gateway.record_key_bytes", len(args[0].user_text.encode("utf-8")))

        targets = [
            (corpus, "parse_tei", "corpus.parse_tei", lambda a, r: add("corpus.tei_bytes", len(a[0]))),
            (corpus, "prune", "corpus.prune", None),
            (gateway, "record_key", "gateway.record_key", count_key),
            # ScriptedBackend reaches record_key through its own import
            (testing, "record_key", "gateway.record_key", count_key),
            (pipeline, "build_allocation_prompt", "pipeline.build_allocation_prompt", count_prompt),
            (pipeline, "build_relationship_prompt", "pipeline.build_relationship_prompt", count_prompt),
            (pipeline, "build_causality_prompt", "pipeline.build_causality_prompt", count_prompt),
            (pipeline, "build_reasoner_prompt", "pipeline.build_reasoner_prompt", count_prompt),
            (pipeline, "parse_allocation", "pipeline.parse_allocation", None),
            (pipeline, "parse_relationship", "pipeline.parse_relationship", None),
            (pipeline, "parse_causality", "pipeline.parse_causality", None),
            (pipeline, "parse_reasoner", "pipeline.parse_reasoner", None),
            (pipeline, "write_results", "pipeline.write_results", None),
            (analytics, "flatten", "analytics.flatten", lambda a, r: add("analytics.records", len(r))),
            (analytics, "build_matrix", "analytics.build_matrix", None),
            (reporting, "emit_summary_json", "reporting.emit_summary_json", None),
            (reporting, "emit_matrix_csv", "reporting.emit_matrix_csv", None),
            (reporting, "figure_spec", "reporting.figure_spec", None),
            (reporting, "render_svg", "reporting.render_svg", lambda a, r: add("reporting.svg_bytes", len(r))),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, on_result in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr), on_result))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def instrument(self, runner: pipeline.PipelineRunner) -> None:
        """Wrap the objects injected into one runner."""
        add = self.add

        def count_call(args, raw):
            add(f"pipeline.calls.stage{args[0].stage}")
            add("gateway.retries", raw.attempt_count - 1)

        gw = runner.gateway
        gw.complete = self.wrap("gateway.complete", gw.complete, count_call)
        backend = gw.backend
        backend.send = self.wrap("gateway.backend", backend.send)
        if isinstance(backend.inner, ReplayBackend):
            inner = backend.inner
            inner.send = self.wrap("gateway.replay", inner.send,
                                   lambda a, r: add("gateway.replay_hits"))
        store = runner.checkpoints
        store.load = self.wrap("pipeline.checkpoint_load", store.load)
        store.write = self.wrap("pipeline.checkpoint_write", store.write)
        runner.process_document = self.wrap(
            "pipeline.doc", runner.process_document, doc_of=lambda a: a[0].doc_id
        )

    def total_ms(self, *names: str) -> float:
        wanted = set(names)
        return 1000.0 * sum(s.end - s.start for s in self.spans if s.name in wanted)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_ms(self, name: str) -> float:
        """Summed self time of spans called `name`: duration minus the part
        of that interval covered by child spans."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        total = 0.0
        for s in self.spans:
            if s.name == name:
                total += (s.end - s.start) - _covered(s, children[s.id])
        return 1000.0 * total


def _covered(span: Span, kids: list[Span]) -> float:
    covered = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class LogCounter(logging.Handler):
    """Counts the pipeline's schema repairs and evidence-quote downgrades.

    Attached to the `sdgpb.pipeline` logger in every pass, traced or not, so
    both cost the same and the warnings do not flood standard error.
    """

    MARKERS = {"pipeline.repairs": "repair prompt", "pipeline.quote_downgrades": "downgrading"}

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()

    def emit(self, record: logging.LogRecord) -> None:
        for name, marker in self.MARKERS.items():
            if marker in str(record.msg):
                with self._count_lock:
                    self.counts[name] += 1

    @contextmanager
    def attached(self):
        logger = logging.getLogger("sdgpb.pipeline")
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
