"""The live dispatch path: a document's waves overlap their calls.

The bundled fixtures replay offline, which runs every wave inline. Here the
same recorded cache sits behind a backend that claims to be live and sleeps
a seeded latency per send, so the gateway limits and retries and the runner
overlaps each wave's calls on the run's executor.
"""

import random
import sys
import threading
import time

import pytest

from sdgpb import pipeline
from sdgpb.gateway import Gateway, ReplayBackend, record_key
from sdgpb.pipeline import PipelineRunner

from conftest import FIXTURES_DIR, seeded_run_dir
from test_acceptance import InterruptingStore, output_files


class LiveReplay:
    """The recorded cache behind a live-looking backend with a per-send log.

    Each send sleeps a latency drawn from the request's record key, so the
    draws do not depend on which thread sends first.
    """

    live = True
    backend_id = "replay"

    def __init__(self, run_dir, max_latency_s):
        self.inner = ReplayBackend(run_dir)
        self.max_latency_s = max_latency_s
        self.calls = []  # (doc_id, stage, start, end)
        self._lock = threading.Lock()

    def send(self, req):
        latency = random.Random(record_key(req)).uniform(0.5, 1.0) * self.max_latency_s
        start = time.perf_counter()
        time.sleep(latency)
        text = self.inner.send(req)
        with self._lock:
            self.calls.append((req.doc_id, req.stage, start, time.perf_counter()))
        return text


def live_runner(run_dir, backend, catalog, templates, checkpoints=None):
    return PipelineRunner(
        gateway=Gateway(backend, rpm=1_000_000),
        checkpoints=checkpoints or pipeline.CheckpointStore(run_dir),
        catalog=catalog,
        templates=templates,
    )


@pytest.fixture(scope="module")
def goldens():
    return {path.name: path.read_bytes() for path in (FIXTURES_DIR / "golden").iterdir()}


class RendezvousReplay(LiveReplay):
    """A LiveReplay whose sends wait for their partners in the same wave: a
    document's stage-1 and stage-2 sends each wait until the other has
    arrived, and so do its stage-4 and stage-5 batch k, which hold the same
    pairs. Calls of a wave sent one after another time out instead."""

    PARTNER = {1: 2, 2: 1, 4: 5, 5: 4}

    def __init__(self, run_dir, max_latency_s):
        super().__init__(run_dir, max_latency_s)
        self._arrived = {}  # (doc_id, stage, PAIRS line) -> Event

    def _arrival(self, doc_id, stage, pairs):
        with self._lock:
            return self._arrived.setdefault((doc_id, stage, pairs), threading.Event())

    def send(self, req):
        partner = self.PARTNER.get(req.stage)
        if partner is not None:
            pairs = req.user_text.split("PAIRS: ")[1].splitlines()[0] if req.stage > 2 else ""
            self._arrival(req.doc_id, req.stage, pairs).set()
            assert self._arrival(req.doc_id, partner, pairs).wait(5), (
                f"{req.doc_id}: stage {partner} never joined stage {req.stage} {pairs}"
            )
        return super().send(req)


@pytest.mark.parametrize("workers", [1, 4])
def test_live_waves_match_goldens_and_overlap(tmp_path, fixture_docs, catalog, templates,
                                              goldens, workers):
    run_dir = seeded_run_dir(tmp_path)
    backend = RendezvousReplay(run_dir, max_latency_s=0.01)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often to shake out races
    try:
        runner = live_runner(run_dir, backend, catalog, templates)
        results = runner.run(fixture_docs, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    # a send whose partner never came would have failed the run
    assert output_files(results, run_dir) == goldens
    assert {stage for _, stage, _, _ in backend.calls} == {1, 2, 3, 4, 5}

    # the dependencies hold: each wave's calls end before the next wave's start
    wave_of = {1: 0, 2: 0, 3: 1, 4: 2, 5: 2}
    spans = {}
    for doc_id, stage, start, end in backend.calls:
        first, last = spans.get((doc_id, wave_of[stage]), (start, end))
        spans[(doc_id, wave_of[stage])] = (min(first, start), max(last, end))
    for (doc_id, wave), (_, end) in spans.items():
        later = [spans[(doc_id, w)][0] for w in range(wave + 1, 3) if (doc_id, w) in spans]
        assert all(end <= start for start in later), doc_id


def test_live_resume_equivalence_at_every_kill_point(tmp_path, fixture_docs, catalog,
                                                     templates, goldens):
    boundaries = 0
    for doc in fixture_docs:
        for stage in range(1, 6):
            run_dir = seeded_run_dir(tmp_path / f"kill-{doc.doc_id}-{stage}")
            store = InterruptingStore(run_dir, doc.doc_id, stage)
            interrupting = live_runner(run_dir, LiveReplay(run_dir, 0.0002), catalog, templates,
                                       checkpoints=store)
            try:
                interrupting.run(fixture_docs)
            except KeyboardInterrupt:
                pass
            if not store.fired:
                continue
            resumed = live_runner(run_dir, LiveReplay(run_dir, 0.0002), catalog, templates)
            outputs = output_files(resumed.run(fixture_docs), run_dir)
            assert outputs == goldens, (doc.doc_id, stage)
            boundaries += 1
    assert boundaries >= len(fixture_docs) * 3
