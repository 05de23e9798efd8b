"""Uniform access to completion backends.

One gateway wraps any backend with exponential-backoff retry and, for a
live backend, a token-bucket rate limiter: offline backends skip only the
limiter. The same retry rule, `retry`, and the same HTTP exchange rule,
`http_json`, serve the works-API client.
Backends: a live HTTPS completion endpoint, and a replay backend that serves
a run dir's recorded (key, response) JSONL cache with zero network activity
and, given an answerer, records the answerer's reply to each miss.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, TypeVar

from . import store
from .errors import (
    BackendError,
    CacheCorrupt,
    ConfigError,
    RateLimited,
    ReplayMiss,
    Timeout,
    TransientBackendError,
)

if TYPE_CHECKING:
    import requests

CACHE_SUBDIR = "llm_cache"
CACHE_FILE = "cache.jsonl"
SEND_TIMEOUT_S = 300.0
# the longest Retry-After wait honoured
MAX_RETRY_AFTER_S = 60.0

T = TypeVar("T")


@dataclass(frozen=True)
class PromptRequest:
    stage: int
    doc_id: str
    system_text: str
    user_text: str
    max_output_tokens: int = 65536

    def __post_init__(self):
        if not 1 <= self.stage <= 5:
            raise ValueError(f"stage must be in [1,5], got {self.stage}")


@dataclass(frozen=True)
class RawResponse:
    text: str
    attempt_count: int


def record_key(req: PromptRequest) -> bytes:
    """32-byte key over stage, doc id, and the user text as sent."""
    h = hashlib.sha256()
    h.update(str(req.stage).encode())
    h.update(b"\x00")
    h.update(req.doc_id.encode())
    h.update(b"\x00")
    h.update(req.user_text.encode())
    return h.digest()


def parse_retry_after(headers: Mapping[str, str],
                      now: Callable[[], float] = time.time) -> float | None:
    """The delay a Retry-After header asks for (RFC 9110 10.2.3): its
    delay-seconds, or the seconds from `now()` to its HTTP-date. A date
    not in the future, or any other value, counts as absent."""
    value = headers.get("Retry-After", "").strip()
    if value.isascii() and value.isdigit():
        return float(value)
    from email.utils import parsedate_to_datetime  # imports socket: keep offline runs without it

    try:
        when = parsedate_to_datetime(value)
    except ValueError:
        return None
    if when.tzinfo is None:  # the asctime form gives no zone; every HTTP-date is GMT
        when = when.replace(tzinfo=timezone.utc)
    delay = when.timestamp() - now()
    return delay if delay > 0 else None


def http_session() -> requests.Session:
    """A new requests.Session for the works client or the live backend."""
    try:
        import requests
    except ImportError as exc:
        raise ConfigError(f"the works client and the live backend need the 'requests' "
                          f"package, which cannot be imported: {exc}") from exc
    return requests.Session()


def http_json(exchange: Callable[[], requests.Response], url: str) -> Any:
    """The decoded JSON body of one HTTP request to `url`, `exchange()`.

    A timeout raises Timeout; any other transport error, a 429 or a 5xx
    raises TransientBackendError with the Retry-After delay, for `retry`.
    Any other status but 200, or a body that is not JSON, raises
    BackendError.
    """
    import requests

    try:
        resp = exchange()
    except requests.Timeout as exc:
        raise Timeout(f"request to {url} timed out: {exc}") from exc
    except requests.RequestException as exc:
        raise TransientBackendError(f"transport error calling {url}: {exc}") from exc
    status = resp.status_code
    if status == 429 or status >= 500:
        raise TransientBackendError(f"HTTP {status} from {url}", parse_retry_after(resp.headers))
    if status != 200:
        raise BackendError(f"HTTP {status} from {url}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise BackendError(f"non-JSON response from {url}") from exc


def retry(attempt: Callable[[], T], budget: int, sleep: Callable[[float], None],
          backoff_base: float = 1.0, jitter: Callable[[int], float] = lambda n: 0.0,
          ) -> tuple[T, int]:
    """(`attempt()`'s result, the number of the attempt that gave it), trying
    attempts 1 ... budget+1. After a Timeout or TransientBackendError on
    attempt n, sleeps backoff_base·2^(n-1) + jitter(n), or the error's
    Retry-After delay (capped at MAX_RETRY_AFTER_S) if that is longer. No
    sleep follows the last attempt: its Timeout is raised, or RateLimited."""
    for n in range(1, budget + 2):
        try:
            return attempt(), n
        except (Timeout, TransientBackendError) as exc:
            last_exc = exc
            if n <= budget:
                asked = min(getattr(exc, "retry_after_s", None) or 0.0, MAX_RETRY_AFTER_S)
                sleep(max(backoff_base * 2 ** (n - 1) + jitter(n), asked))
    if isinstance(last_exc, Timeout):
        raise last_exc
    raise RateLimited(f"retry budget ({budget}) exhausted: {last_exc}")


class Backend(Protocol):
    backend_id: str
    live: bool

    def send(self, req: PromptRequest) -> str: ...


class TokenBucket:
    """Sliding-window limiter: at most `rpm` dispatches per 60 s window."""

    def __init__(self, rpm: int, clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if rpm < 1:
            raise ValueError("rpm must be >= 1")
        self.rpm = rpm
        self._clock = clock
        self._sleep = sleep
        # dispatch times, oldest first: the clock is read under the lock
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        stamps = self._stamps
        while True:
            with self._lock:
                now = self._clock()
                while stamps and now - stamps[0] >= 60.0:
                    stamps.popleft()
                if len(stamps) < self.rpm:
                    stamps.append(now)
                    return
                wait = 60.0 - (now - stamps[0])
            self._sleep(max(wait, 0.001))


class Gateway:
    """Retrying front door to a completion backend, rate-limited when live."""

    def __init__(
        self,
        backend: Backend,
        rpm: int = 60,
        retry_budget: int = 4,
        backoff_base: float = 1.0,
        jitter_seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.backend = backend
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.jitter_seed = jitter_seed
        self._sleep = sleep
        self._bucket = TokenBucket(rpm, clock, sleep)

    @property
    def live(self) -> bool:
        """Whether calls reach a remote backend (rate-limited, worth overlapping)."""
        return self.backend.live

    @property
    def max_in_flight(self) -> int:
        """The most calls that can hold a thread while the limiter would let
        one more through. A dispatch holds its thread for at most a send (the
        backend's `timeout_s`, else LiveBackend's) and the sleep after it, a
        backoff or a Retry-After delay, and no 60 s window holds more than
        `rpm` dispatches."""
        # base·2^budget > base·2^(budget-1) + jitter, the longest backoff
        longest_sleep = max(self.backoff_base * 2**self.retry_budget, MAX_RETRY_AFTER_S)
        hold_s = getattr(self.backend, "timeout_s", SEND_TIMEOUT_S) + longest_sleep
        return self._bucket.rpm * math.ceil(hold_s / 60.0)

    def _jitter(self, req: PromptRequest, attempt: int) -> float:
        """Backoff jitter drawn from (seed, record key, attempt) alone, so
        concurrent calls cannot reorder the draws."""
        rng = random.Random(f"{self.jitter_seed}:{record_key(req).hex()}:{attempt}")
        return rng.uniform(0, self.backoff_base)

    def complete(self, req: PromptRequest) -> RawResponse:
        def attempt() -> str:
            if self.live:  # replay and other offline backends skip only the limiter
                self._bucket.acquire()
            text = self.backend.send(req)
            if not text:
                raise BackendError("backend returned empty completion")
            return text

        return RawResponse(*retry(attempt, self.retry_budget, self._sleep, self.backoff_base,
                                  lambda n: self._jitter(req, n)))


# --------------------------------------------------------------------------
# Backends


class LiveBackend:
    """HTTPS JSON completion endpoint; API key comes from the environment."""

    live = True

    def __init__(self, endpoint_url: str, model: str, temperature: float = 0.0,
                 api_key_env: str = "SDGPB_API_KEY",
                 session: requests.Session | None = None, timeout_s: float = SEND_TIMEOUT_S):
        self.endpoint_url = endpoint_url
        self.model = model
        self.temperature = temperature
        self.backend_id = model
        self.api_key_env = api_key_env
        self.session = http_session() if session is None else session
        self.timeout_s = timeout_s

    def send(self, req: PromptRequest) -> str:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise BackendError(f"API key environment variable {self.api_key_env} not set")
        payload = {
            "model": self.model,
            "system": req.system_text,
            "user": req.user_text,
            "temperature": self.temperature,
            "max_output_tokens": req.max_output_tokens,
        }
        body = http_json(lambda: self.session.post(
            self.endpoint_url,
            json=payload,
            headers={"Authorization": f"Bearer {api_key}"},
            timeout=self.timeout_s,
        ), self.endpoint_url)
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise BackendError(f"malformed completion response from {self.endpoint_url}: "
                               f"no string text field")
        return text


def _cache_entry(obj: dict) -> tuple[str, str]:
    key, text = obj["key"], obj["text"]
    if not (isinstance(key, str) and isinstance(text, str)):
        raise TypeError("key and text must be strings")
    return key, text


class ReplayBackend:
    """Serves the recorded replies in a run dir's cache; never touches the
    network itself. A miss goes to `answerer`, whose reply is appended and
    served from then on; with no answerer a miss raises ReplayMiss.
    Without an answerer the cache is only read, a line at a time. With one,
    building reads it whole and cuts a torn final line away, the first
    recorded reply makes the file, and no descriptor outlives a `send`."""

    def __init__(self, run_dir: str | Path, answerer: Backend | None = None):
        path = Path(run_dir) / CACHE_SUBDIR / CACHE_FILE
        self.answerer = answerer
        self.live = answerer is not None and answerer.live
        self.backend_id = "replay" if answerer is None else answerer.backend_id
        if answerer is None:
            self._cache = dict(store.read(path, _cache_entry, appended=True, error=CacheCorrupt))
            return
        self._store = store.Appended(path)
        self._lock = threading.Lock()
        try:
            self._cache = dict(self._store.read(_cache_entry, CacheCorrupt))
            self._store.append()  # cut a torn final line away now
        finally:
            self._store.close()

    def send(self, req: PromptRequest) -> str:
        key = record_key(req).hex()
        if key in self._cache:  # an empty reply too: the gateway refuses it
            return self._cache[key]
        if self.answerer is None:
            raise ReplayMiss(
                f"no recorded response for stage {req.stage}, doc {req.doc_id!r} "
                f"(key {key[:12]}...); fixture drift or edited prompt template"
            )
        text = self.answerer.send(req)
        with self._lock:
            if key not in self._cache:  # another thread may have answered it meanwhile
                try:
                    self._store.append({"key": key, "stage": req.stage, "doc_id": req.doc_id,
                                        "backend_id": self.backend_id, "text": text})
                finally:
                    self._store.close()
                self._cache[key] = text
        return self._cache[key]


class RecordingBackend(ReplayBackend):
    """`ReplayBackend(run_dir, inner)`: a record run sends only what its cache lacks."""

    def __init__(self, inner: Backend, run_dir: str | Path):
        super().__init__(run_dir, inner)
