"""Benchmark workloads: set-up, timed passes and the metrics they yield.

A pass takes the set-up's TEI files on disk through the real
`corpus` -> `pipeline` -> `analytics` -> `reporting` path and writes the five
output files. A run repeats identical passes for the requested seconds and
reports timings of the undisturbed pass they imply (see `Undisturbed`).
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpusgen
from simbackend import SimulatedBackend, call_totals
from tracer import LogCounter, Span, Tracer

from sdgpb import analytics, corpus, pipeline, reporting
from sdgpb.gateway import CACHE_SUBDIR, Gateway, RecordingBackend, ReplayBackend
from sdgpb.taxonomy import Catalog, load_catalog
from sdgpb.testing import ScriptedBackend

SCRIPTED_SEED = 0
RPM = 1_000_000  # never binds; the limiter's bookkeeping still runs
RETRY_BUDGET = 4
BACKOFF_BASE_S = 0.01
SETUP_REPEATS = 5
STAGES_PER_DOC = 5


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    body_chars: int
    latency_s: float = 0.0
    jitter: float = 0.0
    fault_rate: float = 0.0
    live: bool = False
    batch_cap: int = pipeline.DEFAULT_BATCH_CAP
    workers: int = 1
    resume: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # No LLM wait: the program's own CPU layers set the pace.
        Workload("bulk-cpu", docs=200, body_chars=40_000),
        # A live-like run: a 10-30 ms round trip per send (seeded, mean
        # 20 ms) and 2% transient faults through the limiter and retry path,
        # so calls and round trips on the critical path set latency and
        # throughput. The jitter keeps p90 off the steps that whole numbers
        # of calls would put in a fixed-latency distribution.
        Workload("sim-latency", docs=600, body_chars=4_000, latency_s=0.020, jitter=0.5,
                 fault_rate=0.02, live=True, batch_cap=4, workers=2),
        # The offline reproduce path: replay a recorded cache and resume
        # checkpoints cut at seeded stage boundaries.
        Workload("replay-resume", docs=400, body_chars=16_000, resume=True),
    )
}


@dataclass
class Prepared:
    """What set-up leaves for the timed passes."""

    corpus_dir: Path
    catalog: Catalog
    templates: pipeline.PromptTemplates
    corpus_digest: str
    recording_dir: Path | None = None
    recording_digest: str | None = None


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    doc_times: dict[str, tuple[float, float]]  # doc id -> (wall, thread CPU) seconds
    complete_docs: int
    failures: dict[str, str]
    digest: str
    calls: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*") if p.is_file())


def write_outputs(results, out_dir: Path) -> None:
    """The five output files, as `sdgpb run`, `aggregate` and `report` write them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_results(results, out_dir / "results.jsonl")
    records = analytics.flatten(results)
    total_docs = sum(1 for r in results if r.status == "complete")
    matrix = analytics.build_matrix(records, total_docs)
    (out_dir / "matrix.json").write_text(
        json.dumps(analytics.matrix_to_json(matrix), sort_keys=True, indent=2) + "\n", "utf-8"
    )
    (out_dir / "summary.json").write_text(reporting.emit_summary_json(matrix), "utf-8")
    (out_dir / "matrix.csv").write_text(reporting.emit_matrix_csv(matrix), "utf-8")
    (out_dir / "figure1.svg").write_bytes(reporting.render_svg(reporting.figure_spec(matrix)))


def _plain_run(prep: Prepared, w: Workload, run_dir: Path, backend) -> str:
    """One untimed run at 1 worker with no latency or faults; returns its digest."""
    runner = pipeline.PipelineRunner(
        gateway=Gateway(backend), checkpoints=pipeline.CheckpointStore(run_dir),
        catalog=prep.catalog, templates=prep.templates, batch_cap=w.batch_cap,
    )
    write_outputs(runner.run(corpus.ingest_directory(prep.corpus_dir)), run_dir / "out")
    return checks.output_digest(run_dir / "out")


def _truncate_checkpoints(run_dir: Path, seed: int) -> None:
    """Cut every checkpoint file after a seeded number of whole stage lines.

    Each cut point from 0 to 5 lines is used equally often, in seeded order,
    so the share of work left to resume does not vary from seed to seed.
    """
    paths = sorted((run_dir / "checkpoints").glob("*.jsonl"))
    cuts = [i % (STAGES_PER_DOC + 1) for i in range(len(paths))]
    random.Random(f"cut:{seed}").shuffle(cuts)
    for path, cut in zip(paths, cuts):
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:cut]))


def set_up(w: Workload, seed: int, setup_dir: Path) -> Prepared:
    corpus_dir = setup_dir / "corpus"
    paths = corpusgen.write_corpus(corpus_dir, seed, w.docs, w.body_chars)
    prep = Prepared(
        corpus_dir=corpus_dir,
        catalog=load_catalog(),
        templates=pipeline.PromptTemplates(),
        corpus_digest=hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest(),
    )
    if w.resume:
        rec_dir = setup_dir / "recording"
        backend = RecordingBackend(ScriptedBackend(SCRIPTED_SEED), rec_dir)
        prep.recording_digest = _plain_run(prep, w, rec_dir, backend)
        _truncate_checkpoints(rec_dir, seed)
        prep.recording_dir = rec_dir
    return prep


def run_pass(w: Workload, prep: Prepared, seed: int, run_dir: Path,
             tracer: Tracer | None = None) -> PassResult:
    """Time TEI files on disk to the five output files, then check them."""
    if w.resume:
        for sub in ("checkpoints", CACHE_SUBDIR):
            shutil.copytree(prep.recording_dir / sub, run_dir / sub)
    ckpt_bytes_before = _dir_bytes(run_dir / "checkpoints")
    doc_times: dict[str, tuple[float, float]] = {}
    log_counter = LogCounter()

    with log_counter.attached(), tracer.patched() if tracer else nullcontext():
        t0, r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        docs = corpus.ingest_directory(prep.corpus_dir)
        if w.resume:
            load = tracer.wrap("gateway.cache_load", ReplayBackend) if tracer else ReplayBackend
            inner = load(run_dir)
        else:
            inner = ScriptedBackend(SCRIPTED_SEED)
        backend = SimulatedBackend(inner, live=w.live, latency_s=w.latency_s, jitter=w.jitter,
                                   fault_rate=w.fault_rate, seed=seed)
        gw = Gateway(backend, rpm=RPM, retry_budget=RETRY_BUDGET,
                     backoff_base=BACKOFF_BASE_S, jitter_seed=seed)
        runner = pipeline.PipelineRunner(
            gateway=gw, checkpoints=pipeline.CheckpointStore(run_dir),
            catalog=prep.catalog, templates=prep.templates, batch_cap=w.batch_cap,
        )
        if tracer:
            tracer.instrument(runner)
        process = runner.process_document

        def timed(doc):
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                return process(doc)
            finally:
                doc_times[doc.doc_id] = (time.perf_counter() - start, time.thread_time() - cpu)

        runner.process_document = timed
        results = runner.run(docs, workers=w.workers)
        write_outputs(results, run_dir / "out")
        wall, r1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)

    failures = checks.document_failures(docs, results)
    if len(docs) != w.docs:
        failures["<corpus>"] = f"ingest kept {len(docs)} of {w.docs} documents"
    res = PassResult(
        wall_s=wall, cpu_s=(r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        doc_times=doc_times,
        complete_docs=sum(1 for r in results if r.status == "complete"),
        failures=failures, digest=checks.output_digest(run_dir / "out"),
        calls=call_totals(backend.calls, [d.doc_id for d in docs]),
    )
    if tracer:
        res.layers = layer_metrics(tracer, log_counter, w.docs - len(docs),
                                   _dir_bytes(run_dir / "checkpoints") - ckpt_bytes_before)
        res.spans = tracer.spans
    return res


def layer_metrics(t: Tracer, logs: LogCounter, docs_dropped: int, ckpt_bytes: int) -> dict[str, float]:
    complete_ms = t.total_ms("gateway.complete")
    backend_ms = t.total_ms("gateway.backend")
    builders = [f"pipeline.build_{s}_prompt" for s in ("allocation", "relationship", "causality", "reasoner")]
    parsers = [f"pipeline.parse_{s}" for s in ("allocation", "relationship", "causality", "reasoner")]
    c = t.counts
    m = {
        "corpus.parse_ms": t.total_ms("corpus.parse_tei"),
        "corpus.prune_ms": t.total_ms("corpus.prune"),
        "corpus.tei_bytes": c["corpus.tei_bytes"],
        "corpus.docs_dropped": docs_dropped,
        "gateway.complete_ms": complete_ms,
        "gateway.backend_ms": backend_ms,
        "gateway.overhead_ms": complete_ms - backend_ms,
        "gateway.calls": t.span_count("gateway.complete"),
        "gateway.retries": c["gateway.retries"],
        "gateway.record_key_ms": t.total_ms("gateway.record_key"),
        "gateway.record_key_calls": t.span_count("gateway.record_key"),
        "gateway.record_key_bytes": c["gateway.record_key_bytes"],
        "gateway.cache_load_ms": t.total_ms("gateway.cache_load"),
        "gateway.replay_hits": c["gateway.replay_hits"],
        "pipeline.doc_ms": t.total_ms("pipeline.doc"),
        "pipeline.self_ms": t.self_ms("pipeline.doc"),
        "pipeline.prompt_build_ms": t.total_ms(*builders),
        "pipeline.prompt_chars": c["pipeline.prompt_chars"],
        "pipeline.parse_ms": t.total_ms(*parsers),
        "pipeline.repairs": logs.counts["pipeline.repairs"],
        "pipeline.quote_downgrades": logs.counts["pipeline.quote_downgrades"],
        "pipeline.checkpoint_load_ms": t.total_ms("pipeline.checkpoint_load"),
        "pipeline.checkpoint_write_ms": t.total_ms("pipeline.checkpoint_write"),
        "pipeline.checkpoint_writes": t.span_count("pipeline.checkpoint_write"),
        "pipeline.checkpoint_bytes": ckpt_bytes,
        "pipeline.results_write_ms": t.total_ms("pipeline.write_results"),
        "analytics.flatten_ms": t.total_ms("analytics.flatten"),
        "analytics.build_matrix_ms": t.total_ms("analytics.build_matrix"),
        "analytics.records": c["analytics.records"],
        "reporting.summary_ms": t.total_ms("reporting.emit_summary_json"),
        "reporting.csv_ms": t.total_ms("reporting.emit_matrix_csv"),
        "reporting.svg_ms": t.total_ms("reporting.figure_spec", "reporting.render_svg"),
        "reporting.svg_bytes": c["reporting.svg_bytes"],
    }
    for stage in range(1, STAGES_PER_DOC + 1):
        m[f"pipeline.calls.stage{stage}"] = c[f"pipeline.calls.stage{stage}"]
    return m


@dataclass
class RunOutcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]
    spans: list[tuple[int, list[Span]]]  # (pass index, spans) of each traced pass


@dataclass
class Undisturbed:
    """A pass as it runs when other load on the host does not slow it.

    On a shared machine the speed of identical passes drifts by a third for
    minutes at a time, so whole passes rarely run undisturbed, while a
    document of a few milliseconds often meets a quiet moment in some pass.
    So each document's time is its fastest over the passes, and the per-pass
    work outside documents is the least any pass spent on it. Documents run
    one after another only with one worker; with more, the wall time is that
    of the fastest pass.
    """

    wall_s: float
    cpu_s: float
    latencies_ms: list[float]
    complete_docs: int

    @classmethod
    def of(cls, passes: list[PassResult], workers: int) -> "Undisturbed":
        ids = passes[0].doc_times.keys()
        wall = {d: min(p.doc_times[d][0] for p in passes) for d in ids}
        cpu = {d: min(p.doc_times[d][1] for p in passes) for d in ids}
        outside_wall = min(p.wall_s - sum(t[0] for t in p.doc_times.values()) for p in passes)
        outside_cpu = min(p.cpu_s - sum(t[1] for t in p.doc_times.values()) for p in passes)
        return cls(
            wall_s=(sum(wall.values()) + outside_wall if workers == 1
                    else min(p.wall_s for p in passes)),
            cpu_s=sum(cpu.values()) + outside_cpu,
            latencies_ms=[1000.0 * x for x in wall.values()],
            complete_docs=min(p.complete_docs for p in passes),
        )

    @property
    def docs_per_s(self) -> float:
        return self.complete_docs / self.wall_s


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
            root: Path) -> RunOutcome:
    """Set up, run passes for `seconds`, check every output, and summarise.

    Timings are those of the undisturbed pass; set-up time is the median of
    the set-ups. With `trace`, passes alternate untraced and traced: the
    fastest traced pass gives the per-layer metrics, and the undisturbed
    pass of each kind gives the tracing overhead.
    """
    problems: list[str] = []
    failed = 0
    error = checks.preflight(root, work)
    if error:
        problems.append(f"preflight: {error}")
        failed += 1

    setup_s, preps = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        preps.append(set_up(w, seed, work / f"setup{k}"))
        setup_s.append(time.perf_counter() - t0)
    prep = preps[-1]
    for other in preps[:-1]:
        if (other.corpus_digest, other.recording_digest) != (prep.corpus_digest, prep.recording_digest):
            problems.append("set-up is not deterministic for one seed")
            failed += 1
        shutil.rmtree(other.corpus_dir.parent)

    passes: list[PassResult] = []
    attempted = 0
    min_passes = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        run_dir = work / f"pass{len(passes)}"
        tracer = Tracer() if trace and len(passes) % 2 else None
        attempted += w.docs
        try:
            passes.append(run_pass(w, prep, seed, run_dir, tracer))
        except Exception:  # a document raised out of the run: every document is lost
            problems.append(f"pass {len(passes)} raised: {traceback.format_exc()}")
            failed += w.docs
            break
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    if w.resume:
        reference = prep.recording_digest
    else:
        reference = _plain_run(prep, w, work / "reference", ScriptedBackend(SCRIPTED_SEED))
    for i, p in enumerate(passes):
        for doc_id, why in sorted(p.failures.items())[:3]:
            problems.append(f"pass {i}: {doc_id}: {why}")
        failed += len(p.failures)
        if p.digest != reference:
            problems.append(f"pass {i}: outputs differ from the 1-worker reference run")
            failed += 1

    untraced = [p for p in passes if not p.layers]
    traced = [p for p in passes if p.layers]
    notes = [
        f"workload {w.name}: {w.docs} docs x {w.body_chars} body chars, seed {seed}, "
        f"{len(untraced)} untraced and {len(traced)} traced passes of {w.docs} documents",
        f"outputs sha256 {reference}",
        "set-up seconds: " + " ".join(f"{x:.4f}" for x in setup_s),
        "pass seconds: " + " ".join(f"{p.wall_s:.4f}" for p in passes),
    ]
    if len(passes) < min_passes:
        metrics = {}
    elif trace:
        metrics = dict(min(traced, key=lambda p: p.wall_s).layers)
        metrics["trace.docs_per_s_untraced"] = Undisturbed.of(untraced, w.workers).docs_per_s
        metrics["trace.docs_per_s_traced"] = Undisturbed.of(traced, w.workers).docs_per_s
        metrics["trace.overhead_share"] = (
            metrics["trace.docs_per_s_untraced"] / metrics["trace.docs_per_s_traced"] - 1.0)
    else:
        best = Undisturbed.of(untraced, w.workers)
        notes.append(f"undisturbed pass: {best.wall_s:.4f} s, {len(best.latencies_ms)} document latencies")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "docs_per_s": best.docs_per_s,
            "doc_latency_p50_ms": _percentile(best.latencies_ms, 50),
            "doc_latency_p90_ms": _percentile(best.latencies_ms, 90),
            "cpu_ms_per_doc": 1000.0 * best.cpu_s / w.docs,
            **untraced[0].calls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_doc_share": max(0.0, 1.0 - failed / attempted),
        }
    return RunOutcome(metrics, attempted, failed, problems, notes,
                      [(i, p.spans) for i, p in enumerate(passes) if p.layers])
