"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything runs offline against the bundled fixture corpus and its
recorded response cache, plus constructed record multisets for the
arithmetic checks.
"""

import json
import random
import time
from pathlib import Path

import pytest

from sdgpb import analytics, pipeline, reporting
from sdgpb.analytics import build_matrix, cell_proportions, global_proportions, matrix_to_json, ratio_to_global
from sdgpb.errors import IllegalRefinement
from sdgpb.gateway import Gateway, ReplayBackend, TokenBucket
from sdgpb.pipeline import CheckpointStore, PipelineRunner, chunk_pairs, parse_reasoner
from sdgpb.taxonomy import Category, ReportBucket

from conftest import FIXTURES_DIR, make_replay_runner, seeded_run_dir
from test_analytics import assert_matches_oracle, cell_records, random_records

CRITERIA = {}


def report_line(number, passed, note=""):
    CRITERIA[number] = passed
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {note}".rstrip())


def output_files(results, run_dir: Path) -> dict[str, bytes]:
    """The five files `sdgpb run`, `aggregate` and `report` write, as bytes."""
    results_path = run_dir / "results" / "results.jsonl"
    pipeline.write_results(results, results_path)
    matrix = analytics.matrix_from_results(pipeline.read_results(results_path))
    analytics.write_matrix(matrix, run_dir / "matrix.json")
    reporting.write_reports(matrix, run_dir / "report")
    paths = [results_path, run_dir / "matrix.json",
             *(run_dir / "report" / name for name in reporting.REPORTS)]
    return {path.name: path.read_bytes() for path in paths}


def full_pipeline_outputs(run_dir: Path, docs, catalog, templates) -> dict[str, bytes]:
    return output_files(make_replay_runner(run_dir, catalog, templates).run(docs), run_dir)


def test_criterion_1_end_to_end_determinism(tmp_path, fixture_docs, catalog, templates):
    assert len(fixture_docs) >= 30
    start = time.monotonic()
    out_a = full_pipeline_outputs(seeded_run_dir(tmp_path / "a"), fixture_docs, catalog, templates)
    out_b = full_pipeline_outputs(seeded_run_dir(tmp_path / "b"), fixture_docs, catalog, templates)
    elapsed = time.monotonic() - start
    assert out_a == out_b
    assert elapsed < 60.0
    report_line(1, True, f"({len(fixture_docs)} docs, two runs byte-identical in {elapsed:.1f}s)")


def test_criterion_2_reference_arithmetic():
    # the three reference category percentages sum to 98.2%, not 100%, so no
    # single closed multiset reproduces all of them; neutral is checked on
    # its own constructed multiset
    records = (cell_records(1, 1, {ReportBucket.TS: 283, ReportBucket.DP: 55}, prefix="s")
               + cell_records(2, 1, {ReportBucket.TT: 211, ReportBucket.DN: 238}, prefix="t")
               + cell_records(3, 1, {ReportBucket.NEUTRAL: 213}, prefix="n"))
    cats, buckets = global_proportions(build_matrix(records, 1000))
    assert abs(cats[Category.SYNERGY] - 0.338) <= 0.0005
    assert abs(cats[Category.TRADEOFF] - 0.449) <= 0.0005
    assert abs(buckets[ReportBucket.TS] - 0.283) <= 0.0005
    assert abs(buckets[ReportBucket.TT] - 0.211) <= 0.0005
    neutral_fixture = (cell_records(1, 1, {ReportBucket.TS: 805}, prefix="s")
                       + cell_records(3, 1, {ReportBucket.NEUTRAL: 195}, prefix="n"))
    cats, _ = global_proportions(build_matrix(neutral_fixture, 1000))
    assert abs(cats[Category.NEUTRAL] - 0.195) <= 0.0005

    # PB2-SDG14 cell at 755/1000 trade-offs
    cell = cell_records(14, 2, {ReportBucket.TT: 755, ReportBucket.TS: 145,
                                ReportBucket.NEUTRAL: 100})
    shares = cell_proportions(build_matrix(cell, 1000), 14, 2)
    assert abs(shares[Category.TRADEOFF] - 0.755) <= 0.0005
    assert round(ratio_to_global(shares[Category.TRADEOFF], 0.449), 2) == 1.68
    report_line(2, True, "(33.8/44.9/19.5, TS 28.3, TT 21.1, cell 75.5%, ratio 1.68)")


def test_criterion_3_aggregation_oracle():
    rng = random.Random(20240824)
    trials = 0
    for _ in range(950):
        records = random_records(rng, rng.randint(1, 400))
        assert_matches_oracle(records, total_docs=200)
        trials += 1
    for _ in range(50):
        records = random_records(rng, rng.randint(401, 10000))
        assert_matches_oracle(records, total_docs=3000)
        trials += 1
    # order-permutation invariance
    for _ in range(25):
        records = random_records(rng, rng.randint(2, 2000))
        m1 = build_matrix(records, 500)
        shuffled = list(records)
        rng.shuffle(shuffled)
        m2 = build_matrix(shuffled, 500)
        assert matrix_to_json(m1) == matrix_to_json(m2)
    report_line(3, True, f"({trials} randomized multisets vs naive recount, 1e-12)")


def test_criterion_4_batching_fuzz():
    checked = 0
    for n in range(0, 201):
        pairs = [(i // 9 + 1, i % 9 + 1) for i in range(n)]
        for cap in range(1, 21):
            batches = chunk_pairs(pairs, cap)
            flat = [p for b in batches for p in b]
            assert flat == pairs
            assert all(len(b) <= cap for b in batches)
            assert all(len(b) == cap for b in batches[:-1])
            checked += 1
    # default cap is 20
    default_batches = chunk_pairs([(1, p % 9 + 1) for p in range(45)])
    assert [len(b) for b in default_batches] == [20, 20, 5]
    report_line(4, True, f"({checked} (n, cap) combinations)")


def test_criterion_5_pipeline_integrity(tmp_path, fixture_docs, catalog, templates):
    runner = make_replay_runner(seeded_run_dir(tmp_path), catalog, templates)
    results = runner.run(fixture_docs)
    for res in results:
        if res.status != "complete":
            continue
        assert sorted((p.sdg, p.pb) for p in res.pairs) == pipeline.pair_candidates(
            res.sdgs, res.pbs
        )
        for p in res.pairs:
            if p.category is Category.NEUTRAL:
                assert p.direction is None and p.refined is None
            else:
                assert p.direction is not None and p.refined is not None
    # adversarial cross-category refinement is rejected
    reply = json.dumps({"refinements": [{"sdg": 1, "pb": 1, "label": "Actual Trade-off"}]})
    with pytest.raises(IllegalRefinement):
        parse_reasoner(reply, [(1, 1)], {(1, 1): Category.SYNERGY})
    report_line(5, True, f"({sum(1 for r in results if r.status == 'complete')} complete docs)")


def test_criterion_6_pruning_sentinels(fixture_docs, catalog, templates):
    import re

    sentinels = []
    for path in sorted((FIXTURES_DIR / "corpus").glob("*.tei.xml")):
        sentinels += re.findall(r"SENTINEL_\w+", path.read_text("utf-8"))
    assert sentinels
    for doc in fixture_docs:
        for tok in sentinels:
            assert tok not in doc.body_text
        for axis in ("SDG", "PB"):
            req = pipeline.build_allocation_prompt(doc, axis, catalog, templates)
            assert "SENTINEL_" not in req.user_text
        req = pipeline.build_relationship_prompt(doc, [(2, 6)], catalog, templates)
        assert "SENTINEL_" not in req.user_text
    report_line(6, True, f"({len(sentinels)} planted sentinels, none leaked)")


class InterruptingStore(CheckpointStore):
    """Raises right after a chosen (doc, stage) checkpoint is persisted."""

    def __init__(self, run_dir, target_doc, target_stage):
        super().__init__(run_dir)
        self.target = (target_doc, target_stage)
        self.fired = False

    def write(self, doc_id, stage, payload, template_version):
        super().write(doc_id, stage, payload, template_version)
        if (doc_id, stage) == self.target:
            self.fired = True
            raise KeyboardInterrupt(f"simulated kill after {doc_id} stage {stage}")


def test_criterion_7_resume_equivalence(tmp_path, fixture_docs, catalog, templates):
    docs = fixture_docs
    baseline_dir = seeded_run_dir(tmp_path / "baseline")
    baseline = full_pipeline_outputs(baseline_dir, docs, catalog, templates)
    boundaries = 0
    for doc in docs:
        for stage in range(1, 6):
            case_dir = tmp_path / f"kill-{doc.doc_id}-{stage}"
            run_dir = seeded_run_dir(case_dir)
            store = InterruptingStore(run_dir, doc.doc_id, stage)
            interrupting = PipelineRunner(
                gateway=Gateway(ReplayBackend(run_dir)),
                checkpoints=store,
                catalog=catalog,
                templates=templates,
            )
            try:
                interrupting.run(docs)
            except KeyboardInterrupt:
                pass
            if not store.fired:
                # this doc finished before ever reaching the target stage
                # (e.g. no non-neutral pairs), so there is no such boundary
                continue
            resumed = full_pipeline_outputs(run_dir, docs, catalog, templates)
            assert resumed == baseline, (doc.doc_id, stage)
            boundaries += 1
    assert boundaries >= len(docs) * 3
    report_line(7, True, f"({boundaries} kill points, all byte-identical after resume)")


def test_criterion_8_figure_structure(tmp_path, fixture_docs, catalog, templates):
    from xml.etree import ElementTree

    runner = make_replay_runner(seeded_run_dir(tmp_path), catalog, templates)
    results = runner.run(fixture_docs)
    matrix = analytics.matrix_from_results(results)
    spec = reporting.figure_spec(matrix)
    svg = reporting.render_svg(spec)
    root = ElementTree.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    panels = [g for g in root.iter(f"{ns}g") if g.get("class") == "panel"]
    bars = [g for g in root.iter(f"{ns}g") if g.get("class") == "bar"]
    assert len(panels) == 17 and len(bars) == 153
    nonempty = 0
    for panel in spec.panels:
        lengths = [b.length for b in panel.bars]
        if any(b.link_count for b in panel.bars):
            assert max(lengths) == 1.0
        for bar in panel.bars:
            if bar.link_count > 0:
                nonempty += 1
                total = sum(bar.shares[c] for c in Category)
                assert abs(total - 1.0) <= 1e-9
            b = bar.shares
            assert b[ReportBucket.TS] + b[ReportBucket.DP] <= b[Category.SYNERGY] + 1e-12
            assert b[ReportBucket.TT] + b[ReportBucket.DN] <= b[Category.TRADEOFF] + 1e-12
    report_line(8, True, f"(17 panels, 153 bars, {nonempty} non-empty)")


def test_criterion_9_rate_limit_and_offline_replay(tmp_path, fixture_docs, catalog,
                                                   templates, monkeypatch):
    # sliding-window cap under a simulated clock
    class SimClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

        def sleep(self, seconds):
            self.now += seconds

    clock = SimClock()
    bucket = TokenBucket(rpm=7, clock=clock, sleep=clock.sleep)
    stamps = []
    for _ in range(40):
        bucket.acquire()
        stamps.append(clock.now)
        clock.now += 1.3
    for t in stamps:
        assert len([s for s in stamps if t <= s < t + 60.0]) <= 7

    # replay performs zero network calls: any socket use fails the run
    import socket

    import requests

    def forbid(*args, **kwargs):
        raise AssertionError("network use during replay")

    monkeypatch.setattr(requests.Session, "request", forbid)
    monkeypatch.setattr(socket.socket, "connect", forbid)
    runner = make_replay_runner(seeded_run_dir(tmp_path), catalog, templates)
    results = runner.run(fixture_docs)
    assert all(r.status == "complete" for r in results)
    report_line(9, True, "(window cap held; full replay run with network stubbed)")
