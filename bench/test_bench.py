"""Tests of the benchmark's own logic.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import corpusgen
import workloads
from simbackend import MAX_FAULTED_ATTEMPTS, SimulatedBackend, chain_length
from tracer import Span, _covered

from sdgpb import corpus, pipeline
from sdgpb.gateway import Gateway
from sdgpb.taxonomy import load_catalog
from sdgpb.testing import ScriptedBackend

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


# -- round-trip chain ------------------------------------------------------


def test_chain_of_sequential_calls_counts_every_call():
    assert chain_length([(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (3.0, 3.1)]) == 4


def test_chain_of_overlapping_calls_counts_each_wave_once():
    # stages 1 and 2 together, three stage-3 batches together, stages 4 and 5 together
    calls = [(0, 1), (0.1, 1.1), (1.2, 2), (1.2, 2.2), (1.3, 2.1), (2.3, 3), (2.3, 3.2)]
    assert chain_length(calls) == 3


def test_chain_takes_the_longest_path_not_the_first():
    # one long call overlapping two short sequential ones
    assert chain_length([(0, 10), (1, 2), (3, 4)]) == 2
    assert chain_length([]) == 0


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "p", 0.0, 10.0, None, "d")
    kids = [Span(1, "a", 1.0, 3.0, 0, "d"), Span(2, "b", 2.0, 4.0, 0, "d"),
            Span(3, "c", 9.0, 12.0, 0, "d")]
    assert _covered(parent, kids) == pytest.approx(4.0)


# -- corpus generator -------------------------------------------------------


def test_generator_is_deterministic_per_seed(tmp_path):
    a = corpusgen.write_corpus(tmp_path / "a", seed=7, n_docs=5, body_chars=3000)
    b = corpusgen.write_corpus(tmp_path / "b", seed=7, n_docs=5, body_chars=3000)
    c = corpusgen.write_corpus(tmp_path / "c", seed=8, n_docs=5, body_chars=3000)
    assert [p.name for p in a] == [p.name for p in b]
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert [p.read_bytes() for p in a] != [p.read_bytes() for p in c]


def test_generated_documents_have_the_requested_size_and_prunable_sections(tmp_path):
    corpusgen.write_corpus(tmp_path, seed=1, n_docs=3, body_chars=8000)
    docs = corpus.ingest_directory(tmp_path)
    assert [d.doc_id for d in docs] == ["doc-0000", "doc-0001", "doc-0002"]
    for path, doc in zip(sorted(tmp_path.glob("*.tei.xml")), docs):
        raw = path.read_text("utf-8")
        for sentinel in ("SENTINEL_FIGURE", "SENTINEL_ACK", "SENTINEL_BIB"):
            assert sentinel in raw
            assert sentinel not in doc.body_text
        assert 8000 <= len(doc.body_text) < 8000 + 1000


# -- simulated backend ---------------------------------------------------------


def _fixture_run(backend, tmp_path, **gateway_kwargs):
    runner = pipeline.PipelineRunner(
        gateway=Gateway(backend, **gateway_kwargs),
        checkpoints=pipeline.CheckpointStore(tmp_path),
        catalog=load_catalog(), templates=pipeline.PromptTemplates(),
    )
    return runner.run(corpus.ingest_directory(FIXTURES / "corpus"))


def test_zero_latency_fixture_run_sends_one_call_per_recorded_response(tmp_path):
    backend = SimulatedBackend(ScriptedBackend(0), live=False)
    results = _fixture_run(backend, tmp_path)
    recorded = (FIXTURES / "llm_cache" / "cache.jsonl").read_text("utf-8").splitlines()
    assert len(backend.calls) == len(recorded) == 148
    assert all(c.ok and c.attempt == 1 for c in backend.calls)
    pipeline.write_results(results, tmp_path / "results.jsonl")
    assert (tmp_path / "results.jsonl").read_bytes() == (FIXTURES / "golden" / "results.jsonl").read_bytes()


def test_injected_faults_are_retried_and_leave_outputs_unchanged(tmp_path):
    backend = SimulatedBackend(ScriptedBackend(0), live=True, fault_rate=0.5, seed=3)
    results = _fixture_run(backend, tmp_path / "faulty", retry_budget=MAX_FAULTED_ATTEMPTS,
                           backoff_base=0.0, rpm=1_000_000)
    clean = _fixture_run(ScriptedBackend(0), tmp_path / "clean")
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]
    failed = [c for c in backend.calls if not c.ok]
    assert failed and all(c.attempt <= MAX_FAULTED_ATTEMPTS for c in failed)
    assert len(backend.calls) == 148 + len(failed)


# -- correctness gate ---------------------------------------------------------------


def test_gate_flags_broken_invariants(tmp_path):
    docs = corpus.ingest_directory(FIXTURES / "corpus")
    results = pipeline.read_results(FIXTURES / "golden" / "results.jsonl")
    assert checks.document_failures(docs, results) == {}

    victim = next(r for r in results
                  if any(p.category.value != "neutral" for p in r.pairs))
    i = next(i for i, p in enumerate(victim.pairs) if p.category.value != "neutral")
    for broken in (replace(victim.pairs[i], evidence_quote="not in the article"),
                   replace(victim.pairs[i], direction=None),
                   replace(victim.pairs[i], refined=None)):
        pairs = victim.pairs[:i] + (broken,) + victim.pairs[i + 1:]
        tampered = [replace(victim, pairs=pairs) if r is victim else r for r in results]
        assert set(checks.document_failures(docs, tampered)) == {victim.doc_id}
    short = [replace(victim, pairs=victim.pairs[1:]) if r is victim else r for r in results]
    assert set(checks.document_failures(docs, short)) == {victim.doc_id}


# -- whole runs on small corpora ----------------------------------------------------


def test_command_line_offers_every_workload():
    import run

    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_reports_the_declared_metrics_and_passes_its_checks(tmp_path, name, trace):
    w = replace(workloads.WORKLOADS[name], docs=12, body_chars=2000,
                latency_s=min(workloads.WORKLOADS[name].latency_s, 0.001))
    outcome = workloads.measure(w, seed=5, seconds=0, trace=trace, work=tmp_path, root=ROOT)
    assert outcome.problems == [] and outcome.failed == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(outcome.metrics) == declared
    assert bool(outcome.spans) == trace
