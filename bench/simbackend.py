"""Simulated-latency backend wrapper and its per-call log.

`SimulatedBackend` wraps any offline backend (normally
`sdgpb.testing.ScriptedBackend`, or `ReplayBackend` when resuming) and adds
what a remote model would: a round-trip latency, done as a real sleep,
and seeded transient faults. Every send is logged with its document,
stage, attempt, start, end and prompt size; the calls, round trips and
prompt tokens the benchmark reports are computed from that log.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from sdgpb.errors import TransientBackendError

# A request faults at most on its first MAX_FAULTED_ATTEMPTS attempts, so a
# gateway whose retry budget is at least this never gives up on one.
MAX_FAULTED_ATTEMPTS = 2


@dataclass(frozen=True)
class CallRecord:
    doc_id: str
    stage: int
    attempt: int
    start: float
    end: float
    prompt_chars: int
    ok: bool


class SimulatedBackend:
    """Adds latency and transient faults to an offline backend and logs every send.

    Each send sleeps `latency_s` scaled by a seeded factor drawn uniformly
    from [1 - jitter, 1 + jitter]. Draws depend only on the seed, the request
    and its attempt number, never on thread timing.
    """

    def __init__(self, inner, *, live: bool, latency_s: float = 0.0, jitter: float = 0.0,
                 fault_rate: float = 0.0, seed: int = 0):
        self.inner = inner
        self.live = live
        self.backend_id = inner.backend_id
        self.latency_s = latency_s
        self.jitter = jitter
        self.fault_rate = fault_rate
        self.seed = seed
        self.calls: list[CallRecord] = []
        self._attempts: dict[tuple, int] = defaultdict(int)
        self._lock = threading.Lock()

    def _draw(self, req) -> tuple[int, float, bool]:
        """(attempt number, latency in seconds, whether this send faults)."""
        if not (self.latency_s or self.fault_rate):
            # nothing to draw, and without faults no send is ever retried
            return 1, 0.0, False
        key = (req.doc_id, req.stage, zlib.crc32(req.user_text.encode("utf-8")))
        with self._lock:
            self._attempts[key] += 1
            attempt = self._attempts[key]
        rng = random.Random(f"send:{self.seed}:{key}:{attempt}")
        latency = self.latency_s * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
        fault = attempt <= MAX_FAULTED_ATTEMPTS and rng.random() < self.fault_rate
        return attempt, latency, fault

    def send(self, req) -> str:
        attempt, latency, fault = self._draw(req)
        start = time.perf_counter()
        try:
            if latency:
                time.sleep(latency)
            if fault:
                raise TransientBackendError("simulated transient fault")
            text = self.inner.send(req)
        except Exception:
            self._log(req, attempt, start, ok=False)
            raise
        self._log(req, attempt, start, ok=True)
        return text

    def _log(self, req, attempt: int, start: float, ok: bool) -> None:
        self.calls.append(CallRecord(
            req.doc_id, req.stage, attempt, start, time.perf_counter(),
            len(req.system_text) + len(req.user_text), ok,
        ))


def chain_length(intervals: Iterable[tuple[float, float]]) -> int:
    """Longest chain of pairwise non-overlapping (start, end) intervals.

    Greedy by earliest end is optimal for interval scheduling. For one
    document's calls this is the number of sequential round trips on its
    critical path: calls that overlap in time count once.
    """
    count = 0
    free_at = float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= free_at:
            count += 1
            free_at = end
    return count


def call_totals(calls: Iterable[CallRecord], doc_ids: Iterable[str]) -> dict[str, float]:
    """Per-document means of sends, round trips and prompt tokens over `doc_ids`."""
    by_doc: dict[str, list[CallRecord]] = defaultdict(list)
    for c in calls:
        by_doc[c.doc_id].append(c)
    docs = list(doc_ids)
    n = len(docs)
    sends = sum(len(by_doc[d]) for d in docs)
    trips = sum(chain_length((c.start, c.end) for c in by_doc[d]) for d in docs)
    # ceil(chars / 4) per send, the same estimate as corpus.estimate_tokens
    tokens = sum(-(-c.prompt_chars // 4) for d in docs for c in by_doc[d])
    return {
        "llm_calls_per_doc": sends / n,
        "round_trips_per_doc": trips / n,
        "prompt_tokens_per_doc": tokens / n,
    }
