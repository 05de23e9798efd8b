import os
import tracemalloc

import pytest

from sdgpb import store
from sdgpb.corpus import CleanDocument
from sdgpb.gateway import CACHE_FILE, CACHE_SUBDIR, PromptRequest, RecordingBackend
from sdgpb.pipeline import STAGES, CheckpointStore


class Echo:
    live = False
    backend_id = "echo"

    def send(self, req):
        return req.doc_id


# Each appender is built afresh for every line, as a resumed process would be,
# and returns the path of the store it appended to.


def _append_checkpoint(run_dir, n):
    checkpoints = CheckpointStore(run_dir)
    checkpoints.load("d")
    checkpoints.write("d", n, {STAGES[n].payload_key: [n]}, "v1")
    checkpoints.close("d")
    return run_dir / "checkpoints" / "d.jsonl"


def _append_cache(run_dir, n):
    req = PromptRequest(stage=1, doc_id=f"doc-{n}", system_text="sys", user_text="café")
    RecordingBackend(Echo(), run_dir).send(req)
    return run_dir / CACHE_SUBDIR / CACHE_FILE


@pytest.mark.parametrize("kept", [1, -1], ids=["first byte", "all but the newline"])
@pytest.mark.parametrize("append", [_append_checkpoint, _append_cache], ids=["checkpoint", "cache"])
def test_append_cuts_torn_line_and_completes_short_writes(tmp_path, monkeypatch, append, kept):
    append(tmp_path / "clean", 1)
    whole = append(tmp_path / "clean", 2).read_bytes()
    second = whole[whole.index(b"\n") + 1:]

    path = append(tmp_path / "torn", 1)
    with open(path, "ab") as fh:
        fh.write(second[:kept])  # a kill mid-append
    real_write = os.write
    monkeypatch.setattr(store.os, "write", lambda fd, data: real_write(fd, data[:7]))
    append(tmp_path / "torn", 2)
    monkeypatch.undo()
    assert path.read_bytes() == whole


@pytest.mark.parametrize("previous", [b"old\n", None], ids=["over a previous file", "first write"])
def test_replacing_keeps_previous_file_when_block_raises(tmp_path, previous):
    path = tmp_path / "sub" / "out.json"
    if previous is not None:
        path.parent.mkdir()
        path.write_bytes(previous)
    with pytest.raises(RuntimeError):
        with store.replacing(path) as fh:
            fh.write(b"new, half")
            raise RuntimeError("killed mid-write")
    assert os.listdir(path.parent) == ["out.json"] * (previous is not None)
    if previous is not None:
        assert path.read_bytes() == previous
    with store.replacing(path) as fh:
        fh.write(b"new\n")
    assert path.read_bytes() == b"new\n" and os.listdir(path.parent) == ["out.json"]


def test_read_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "documents.jsonl"
    store.write(path, (CleanDocument(f"d{n}", "t", "x" * 40_000, 10_000).to_json()
                       for n in range(100)))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        docs = store.read(path, CleanDocument.from_json)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(docs) == 100 and size > 4_000_000
    # the records returned hold about the file's size; a read that held the
    # whole file, its decoded text and its split lines would peak near 4x
    assert peak < 2 * size
