import itertools
import json
import shutil
import sys
import threading
import time
from collections import deque
from datetime import datetime, timezone
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdgpb.errors import (
    BackendError,
    CacheCorrupt,
    RateLimited,
    ReplayMiss,
    TransientBackendError,
)
from sdgpb.gateway import (
    CACHE_FILE,
    CACHE_SUBDIR,
    MAX_RETRY_AFTER_S,
    Gateway,
    LiveBackend,
    PromptRequest,
    RawResponse,
    RecordingBackend,
    ReplayBackend,
    TokenBucket,
    parse_retry_after,
    record_key,
)
from sdgpb.testing import ScriptedBackend

from conftest import FIXTURES_DIR


def req(stage=3, doc_id="d1", user_text="hello\nPAIRS: [[2,6],[1,3]]\nworld"):
    return PromptRequest(stage=stage, doc_id=doc_id, system_text="sys", user_text=user_text)


class SimClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# -- record keys -------------------------------------------------------------


def test_record_key_deterministic():
    assert record_key(req()) == record_key(req())
    assert len(record_key(req())) == 32


def test_record_key_distinguishes_pair_order():
    # the key hashes the user text as sent, PAIRS lines included
    a = req(user_text="x\nPAIRS: [[2,6],[1,3]]\ny")
    b = req(user_text="x\nPAIRS: [[1,3],[2,6]]\ny")
    assert record_key(a) != record_key(b)


def test_record_key_distinguishes_stage():
    assert record_key(req(stage=3)) != record_key(req(stage=4))


def test_record_key_distinguishes_doc():
    assert record_key(req(doc_id="a")) != record_key(req(doc_id="b"))


def test_stage_range_enforced():
    with pytest.raises(ValueError):
        PromptRequest(stage=6, doc_id="d", system_text="", user_text="")


# -- retry and backoff --------------------------------------------------------


class FlakyBackend:
    live = True
    backend_id = "flaky"

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def send(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("HTTP 429")
        return '{"ok": true}'


def make_gateway(backend, **kwargs):
    clock = SimClock()
    defaults = dict(rpm=1000, retry_budget=4, clock=clock, sleep=clock.sleep)
    defaults.update(kwargs)
    return Gateway(backend, **defaults), clock


def test_success_after_two_429s_counts_attempts():
    gw, _ = make_gateway(FlakyBackend(failures=2))
    resp = gw.complete(req())
    assert resp.attempt_count == 3
    assert resp.text == '{"ok": true}'


def test_budget_exhaustion_raises_rate_limited():
    gw, _ = make_gateway(FlakyBackend(failures=10), retry_budget=4)
    with pytest.raises(RateLimited):
        gw.complete(req())


def test_offline_backend_is_retried_and_checked_but_never_rate_limited(monkeypatch):
    def limiter(bucket):
        pytest.fail("an offline call reached the rate limiter")

    monkeypatch.setattr(TokenBucket, "acquire", limiter)
    flaky = FlakyBackend(failures=1)
    flaky.live = False
    sleeps = []
    resp = Gateway(flaky, sleep=sleeps.append).complete(req())
    assert (resp.text, resp.attempt_count, flaky.calls, len(sleeps)) == ('{"ok": true}', 2, 2, 1)
    empty = SimpleNamespace(live=False, backend_id="empty", send=lambda request: "")
    with pytest.raises(BackendError, match="empty completion"):
        Gateway(empty, sleep=sleeps.append).complete(req())


def test_backoff_schedule_deterministic_for_seed():
    sleeps = []

    def capture(backend):
        clock = SimClock()

        def sleep(s):
            sleeps.append(s)
            clock.sleep(s)

        return Gateway(backend, rpm=1000, retry_budget=3, jitter_seed=42,
                       clock=clock, sleep=sleep)

    gw = capture(FlakyBackend(failures=3))
    gw.complete(req())
    first = list(sleeps)
    sleeps.clear()
    gw = capture(FlakyBackend(failures=3))
    gw.complete(req())
    assert sleeps == first
    assert len(first) == 3
    # exponential growth of the deterministic part
    assert first[1] > first[0] and first[2] > first[1]


def test_backoff_jitter_independent_of_call_order():
    def sleeps(order):
        clock = SimClock()
        taken = []

        def sleep(s):
            taken.append(s)
            clock.sleep(s)

        gw = Gateway(FlakyBackend(failures=10**6), rpm=1000, retry_budget=2, jitter_seed=7,
                     clock=clock, sleep=sleep)
        for doc_id in order:
            with pytest.raises(RateLimited):
                gw.complete(req(doc_id=doc_id))
        return taken  # two backoff sleeps per request

    forward, backward = sleeps(["a", "b"]), sleeps(["b", "a"])
    assert forward == backward[2:] + backward[:2]
    assert forward[:2] != forward[2:]


# -- rate limiter -------------------------------------------------------------


def test_token_bucket_caps_any_60s_window():
    clock = SimClock()
    bucket = TokenBucket(rpm=5, clock=clock, sleep=clock.sleep)
    stamps = []
    for _ in range(23):
        bucket.acquire()
        stamps.append(clock.now)
        clock.now += 0.5
    for t in stamps:
        in_window = [s for s in stamps if t <= s < t + 60.0]
        assert len(in_window) <= 5


class ListTokenBucket:
    """The limiter before its stamps moved to a deque: every acquire rebuilt
    the stamp list."""

    def __init__(self, rpm, clock, sleep):
        self.rpm = rpm
        self._clock = clock
        self._sleep = sleep
        self._stamps = []
        self._lock = threading.Lock()

    def acquire(self):
        while True:
            with self._lock:
                now = self._clock()
                self._stamps = [t for t in self._stamps if now - t < 60.0]
                if len(self._stamps) < self.rpm:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            self._sleep(max(wait, 0.001))


def _limiter_waits(bucket_type, rpm, gaps):
    """The sleeps a limiter asks for, and the times it grants, when acquires
    come `gaps` seconds apart on a fake clock its own sleeps also advance."""
    clock = SimClock()
    events = []

    def sleep(seconds):
        events.append(seconds)
        clock.sleep(seconds)

    bucket = bucket_type(rpm, clock, sleep)
    for gap in gaps:
        clock.now += gap
        bucket.acquire()
        events.append(("granted", clock.now))
    return events


_GAPS = st.one_of(
    st.sampled_from([0.0, 0.001, 0.5, 30.0, 59.999, 60.0, 60.001, 120.0]),
    st.floats(min_value=0.0, max_value=90.0),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.lists(_GAPS, max_size=40))
@example(2, [0.0, 0.0, 0.0, 60.0, 0.0])  # a stamp expiring exactly at 60 s
def test_token_bucket_waits_match_list_limiter(rpm, gaps):
    assert _limiter_waits(TokenBucket, rpm, gaps) == _limiter_waits(ListTokenBucket, rpm, gaps)


# -- record / replay ----------------------------------------------------------


class ScriptedOnce:
    live = False
    backend_id = "once"

    def __init__(self):
        self.calls = 0

    def send(self, request):
        self.calls += 1
        return json.dumps({"echo": request.doc_id})


def test_record_then_replay_zero_live_calls(tmp_path):
    inner = ScriptedOnce()
    recorder = RecordingBackend(inner, tmp_path)
    gw = Gateway(recorder)
    first = gw.complete(req())
    assert inner.calls == 1

    replayer = ReplayBackend(tmp_path)
    gw2 = Gateway(replayer)
    resp = gw2.complete(req())
    assert resp.text == first.text
    assert resp.attempt_count == 1
    assert inner.calls == 1  # replay never reached the inner backend


def test_replay_miss_on_changed_prompt(tmp_path):
    recorder = RecordingBackend(ScriptedOnce(), tmp_path)
    Gateway(recorder).complete(req())
    gw = Gateway(ReplayBackend(tmp_path))
    with pytest.raises(ReplayMiss):
        gw.complete(req(user_text="edited template text"))


def test_replay_miss_on_empty_dir(tmp_path):
    gw = Gateway(ReplayBackend(tmp_path))
    with pytest.raises(ReplayMiss):
        gw.complete(req())


def test_replay_performs_no_network(replay_run_dir, monkeypatch):
    import requests

    def boom(*args, **kwargs):
        raise AssertionError("network touched during replay")

    monkeypatch.setattr(requests.Session, "request", boom)
    monkeypatch.setattr(requests, "get", boom)
    monkeypatch.setattr(requests, "post", boom)
    backend = ReplayBackend(replay_run_dir)
    assert backend._cache  # recorded entries loaded from disk only


class _OneReplySession:
    """A session whose every POST gets HTTP 200 with `payload` as its JSON."""

    def __init__(self, payload):
        self.payload = payload

    def post(self, *args, **kwargs):
        reply = type("Reply", (), {"status_code": 200, "text": ""})()
        reply.json = lambda: self.payload
        return reply


def test_live_backend_returns_reply_text(monkeypatch):
    monkeypatch.setenv("SDGPB_API_KEY", "k")
    backend = LiveBackend("https://llm.invalid/v1/complete", "model-x",
                          session=_OneReplySession({"text": "ok"}))
    assert backend.send(req()) == "ok"


@pytest.mark.parametrize("payload", [[], "x", None, {"text": 5}, {"text": None}, {"text": ["a"]}])
def test_live_backend_rejects_reply_without_string_text(monkeypatch, payload):
    monkeypatch.setenv("SDGPB_API_KEY", "k")
    backend = LiveBackend("https://llm.invalid/v1/complete", "model-x",
                          session=_OneReplySession(payload))
    with pytest.raises(BackendError, match="malformed completion response"):
        backend.send(req())


@pytest.mark.parametrize("key", [None, ""], ids=["unset", "empty"])
def test_live_backend_without_api_key_sends_nothing(monkeypatch, key):
    if key is None:
        monkeypatch.delenv("SDGPB_TEST_KEY", raising=False)
    else:
        monkeypatch.setenv("SDGPB_TEST_KEY", key)
    posts = []
    session = SimpleNamespace(post=lambda *args, **kwargs: posts.append(args))
    backend = LiveBackend("https://llm.invalid/v1/complete", "model-x",
                          api_key_env="SDGPB_TEST_KEY", session=session)
    with pytest.raises(BackendError, match="SDGPB_TEST_KEY not set"):
        backend.send(req())
    assert posts == []


class _HtmlReply:
    status_code = 200
    text = "<html>busy</html>"

    def json(self):
        return json.loads(self.text)


def test_live_backend_rejects_a_200_reply_that_is_not_json(monkeypatch):
    monkeypatch.setenv("SDGPB_API_KEY", "k")
    session = SimpleNamespace(post=lambda *args, **kwargs: _HtmlReply())
    backend = LiveBackend("https://llm.invalid/v1/complete", "model-x", session=session)
    with pytest.raises(BackendError, match="non-JSON response from https://llm.invalid/v1/complete"):
        backend.send(req())


def test_live_backend_without_session_builds_requests_session():
    import requests

    backend = LiveBackend("https://llm.invalid/v1/complete", "model-x")
    assert isinstance(backend.session, requests.Session)
    backend.session.close()


@pytest.mark.parametrize("timeout_s, backoff_base, retry_budget, minutes", [
    (300.0, 1.0, 4, 6),  # LiveBackend's defaults: a 300 s send, then at most 60 s asleep
    (45.0, 0.5, 2, 2),
    (120.0, 0.0, 4, 3),
    (250.0, 1.0, 4, 6),  # the 60 s Retry-After cap, not the 16 s backoff, adds a minute
    (30.0, 8.0, 4, 3),  # a backoff of up to 128 s outlasts the cap
])
def test_max_in_flight_is_rpm_for_each_minute_a_call_holds_its_thread(
    timeout_s, backoff_base, retry_budget, minutes
):
    backend = LiveBackend("https://llm.invalid/v1/complete", "model-x",
                          session=_OneReplySession({}), timeout_s=timeout_s)
    gateway, _ = make_gateway(backend, rpm=7, backoff_base=backoff_base, retry_budget=retry_budget)
    assert gateway.max_in_flight == 7 * minutes


def test_max_in_flight_holds_a_backend_without_timeout_to_the_live_default():
    gateway, _ = make_gateway(FlakyBackend(0), rpm=7, backoff_base=1.0, retry_budget=4)
    assert gateway.max_in_flight == 7 * 6


@pytest.mark.parametrize("value, delay", [
    ("120", 120.0),
    ("Wed, 21 Oct 2015 07:28:30 GMT", 30.0),
    ("Wednesday, 21-Oct-15 07:28:30 GMT", 30.0),  # the obsolete RFC 850 form
    ("Wed Oct 21 07:28:30 2015", 30.0),  # the asctime form, no zone: read as GMT
    ("Wed, 21 Oct 2015 07:28:00 GMT", None),  # now: nothing to wait for
    ("Wed, 21 Oct 2015 07:27:00 GMT", None),
    ("Sun, 31 Feb 2099 07:28:00 GMT", None),
    ("1.5", None), ("-5", None), ("soon", None), ("", None),
])
def test_parse_retry_after_reads_seconds_or_a_future_date(monkeypatch, value, delay):
    now = datetime(2015, 10, 21, 7, 28, tzinfo=timezone.utc).timestamp
    monkeypatch.setenv("TZ", "EST+05")  # a date with no zone is GMT, not local time
    time.tzset()
    try:
        assert parse_retry_after({"Retry-After": value}, now) == delay
    finally:
        monkeypatch.undo()
        time.tzset()


# -- Retry-After over a real socket ---------------------------------------------


@pytest.fixture
def completion_server(monkeypatch):
    """A LiveBackend on a 127.0.0.1 completion server, and the server's queue
    of (status, Retry-After) replies, a Retry-After given as a string or as a
    function called when the reply is sent: once the queue is empty, every
    POST gets HTTP 200 with the text "ok"."""
    replies = deque()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            status, retry_after = replies.popleft() if replies else (200, None)
            body = b'{"text": "ok"}' if status == 200 else b"{}"
            self.send_response(status)
            if retry_after is not None:
                self.send_header("Retry-After", retry_after() if callable(retry_after) else retry_after)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    monkeypatch.setenv("SDGPB_API_KEY", "k")
    backend = LiveBackend(f"http://127.0.0.1:{server.server_port}/complete", "model-x")
    try:
        yield backend, replies
    finally:
        backend.session.close()
        server.shutdown()
        serving.join()
        server.server_close()


def _ahead(seconds):
    """A Retry-After HTTP-date `seconds` after the server sends it."""
    return lambda: formatdate(time.time() + seconds, usegmt=True)


# an HTTP-date holds whole seconds, so a date 3 s ahead asks for 2-3 s
@pytest.mark.parametrize("status, retry_after, asked, wait", [
    (429, "3", 3.0, 3.0),  # longer than the 1-2 s backoff
    (503, "86400", 86400.0, 60.0),  # capped
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", None, None),  # a past date: plain backoff
    (429, _ahead(3), pytest.approx(3.0, abs=1.1), pytest.approx(3.0, abs=1.1)),
    (503, _ahead(86400), pytest.approx(86400.0, abs=1.1), MAX_RETRY_AFTER_S),
    (429, "Sun, 31 Feb 2099 07:28:00 GMT", None, None),  # malformed: plain backoff
], ids=["seconds", "capped", "past date", "date 3 s ahead", "date a day ahead", "malformed date"])
def test_live_backend_retry_after_sets_the_gateway_wait(completion_server, status, retry_after,
                                                        asked, wait):
    backend, replies = completion_server
    replies.append((status, retry_after))
    with pytest.raises(TransientBackendError, match=f"HTTP {status}") as caught:
        backend.send(req())
    assert caught.value.retry_after_s == asked

    replies.append((status, retry_after))
    waits = []
    gateway = Gateway(backend, rpm=1000, sleep=waits.append)
    assert gateway.complete(req()) == RawResponse("ok", 2)
    assert waits == [wait if wait is not None else 1.0 + gateway._jitter(req(), 1)]


# -- a torn or corrupt cache file ---------------------------------------------


def _fixture_cache(tmp_path):
    """A run dir holding a copy of the fixture cache, and the copy's path."""
    path = tmp_path / CACHE_SUBDIR / CACHE_FILE
    path.parent.mkdir(parents=True)
    shutil.copy(FIXTURES_DIR / CACHE_SUBDIR / CACHE_FILE, path)
    return path


def test_torn_final_cache_line_is_dropped(tmp_path):
    path = _fixture_cache(tmp_path)
    whole = path.read_bytes()
    lines = whole.splitlines(keepends=True)
    path.write_bytes(whole[:-40])  # a kill mid-append
    last = json.loads(lines[-1])

    replay = ReplayBackend(tmp_path)
    assert len(replay._cache) == len(lines) - 1
    assert last["key"] not in replay._cache
    assert path.read_bytes() == whole[:-40]  # replay only reads

    recorder = RecordingBackend(ScriptedBackend(), tmp_path)
    assert last["key"] not in recorder._cache
    # the torn bytes are cut away before anything is appended
    assert path.read_bytes() == b"".join(lines[:-1])


def test_recording_after_torn_line_appends_whole_lines(tmp_path):
    path = _fixture_cache(tmp_path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-1])  # all but the newline of the last line
    recorder = RecordingBackend(ScriptedOnce(), tmp_path)
    Gateway(recorder).complete(req(doc_id="new-doc"))
    lines = path.read_bytes().splitlines()
    assert b"\n".join(lines[:-1]) + b"\n" == b"".join(whole.splitlines(keepends=True)[:-1])
    assert json.loads(lines[-1])["doc_id"] == "new-doc"
    assert ReplayBackend(tmp_path).send(req(doc_id="new-doc")) == json.dumps({"echo": "new-doc"})


def test_recorder_makes_its_cache_on_its_first_reply(tmp_path):
    run_dir = tmp_path / "run"
    recorder = RecordingBackend(ScriptedOnce(), run_dir)
    assert not run_dir.exists()
    Gateway(recorder).complete(req())
    lines = (run_dir / CACHE_SUBDIR / CACHE_FILE).read_bytes().splitlines()
    assert [json.loads(line)["key"] for line in lines] == [record_key(req()).hex()]
    assert recorder._store._fd is None  # closed before send returned


def test_concurrent_misses_record_one_reply_per_key_and_serve_it(tmp_path):
    calls = itertools.count()

    class Numbering:  # a different reply on every call, so a reply served unrecorded shows
        live = False
        backend_id = "numbering"

        def send(self, request):
            return json.dumps({"doc": request.doc_id, "call": next(calls)})

    backend = ReplayBackend(tmp_path, Numbering())
    requests = [req(doc_id=f"doc-{n}") for n in range(20)]
    served = [None] * 8

    def send_all(i):
        served[i] = {r.doc_id: backend.send(r) for r in requests[i:] + requests[:i]}

    threads = [threading.Thread(target=send_all, args=(i,)) for i in range(len(served))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    lines = [json.loads(line) for line in (tmp_path / CACHE_SUBDIR / CACHE_FILE).read_bytes().splitlines()]
    recorded = {line["doc_id"]: line["text"] for line in lines}
    assert len(lines) == len(recorded) == len(requests)
    assert all(replies == recorded for replies in served)


@pytest.mark.parametrize("bad", [
    b'{"key": "cut\n', b"[1, 2]\n", b'{"key": "k"}\n', b"\xff\xfe\n",
    b'{"key": "k", "text": 5}\n', b'{"key": "k", "text": null}\n', b'{"key": 7, "text": "t"}\n',
])
@pytest.mark.parametrize("backend", [ReplayBackend, lambda d: RecordingBackend(ScriptedBackend(), d)])
def test_corrupt_cache_line_raises_with_file_and_line(tmp_path, bad, backend):
    path = _fixture_cache(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = bad
    path.write_bytes(b"".join(lines))
    with pytest.raises(CacheCorrupt, match=rf"{CACHE_FILE}: line 3 "):
        backend(tmp_path)
