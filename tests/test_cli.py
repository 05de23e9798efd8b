import json
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

import sdgpb
from sdgpb import analytics, corpus, errors, pipeline, reporting, store
from sdgpb.cli import _make_gateway, _outputs, main
from sdgpb.config import RunConfig, load_config
from sdgpb.gateway import PromptRequest, record_key
from sdgpb.testing import ScriptedBackend
from conftest import FIXTURES_DIR, seeded_run_dir

SUBCOMMANDS = ["fetch", "ingest", "run", "resume", "aggregate", "report", "validate-fixtures"]


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides):
    cfg = {
        "corpus_dir": str(FIXTURES_DIR / "corpus"),
        "run_dir": str(tmp_path / "run"),
        "report_dir": str(tmp_path / "report"),
        "backend": "replay",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_help_for_every_subcommand(runner):
    for sub in SUBCOMMANDS:
        result = runner.invoke(main, [sub, "--help"])
        assert result.exit_code == 0, sub
        assert "Usage" in result.output


def test_unknown_flag_rejected(runner):
    result = runner.invoke(main, ["run", "--no-such-flag"])
    assert result.exit_code != 0


def test_config_error_exit_code_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"batch_cap": 0}')
    result = runner.invoke(main, ["--config", str(bad), "run"])
    assert result.exit_code == 2


def test_missing_config_file_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["--config", str(tmp_path / "nope.json"), "run"])
    assert result.exit_code == 2


def _error_line(result) -> dict:
    return json.loads(result.stderr.splitlines()[-1])


@pytest.mark.parametrize("overrides, key", [
    ({"rpm_limit": "60"}, "rpm_limit"),
    ({"corpus_dir": 5}, "corpus_dir"),
    ({"backend": "scripted", "batch_cap": 4.0}, "batch_cap"),
    ({"backend": "scripted", "context_budget": "x"}, "context_budget"),
    ({"backend": "live", "endpoint_url": "http://localhost:1/complete",
      "models": {"2": "flash-large-context"}}, 'models["1"]'),
    ({"backend": "scripted", "batch_cap": True}, "batch_cap"),
    ({"backend": "scripted", "worker_count": 2.5}, "worker_count"),
    ({"backend": "scripted", "models": {"5": 3}}, "models['5']"),
    ({"backend": "scripted", "models": {"reasoner": "x"}}, "models['reasoner']"),
    ({"backend": "scripted", "api_filters": {"type": ["article"]}}, "api_filters['type']"),
    ({"backend": "offline"}, "backend"),
    ({"backend": "scripted", "worker_count": 0}, "worker_count"),
    ({"backend": "scripted", "rpm_limit": 0}, "rpm_limit"),
    ({"backend": "scripted", "retry_budget": -1}, "retry_budget"),
    ({"backend": "scripted", "context_budget": 0}, "context_budget"),
    ({"backend": "live"}, "endpoint_url"),
    ({"backend": "scripted", "workers": 2}, "'workers'"),
    ('{"backend": "scripted",', "config file is not valid JSON"),
    ('[{"backend": "scripted"}]', "config file must hold a JSON object"),
], ids=["str rpm_limit", "int corpus_dir", "float batch_cap", "str context_budget",
        "live without models 1", "bool batch_cap", "float worker_count", "int model name",
        "models key not a stage", "list api filter", "unknown backend", "zero worker_count",
        "zero rpm_limit", "negative retry_budget", "zero context_budget",
        "live without endpoint_url", "unknown key", "file not json", "file a list"])
def test_config_value_of_wrong_type_exit_2_naming_the_key(runner, tmp_path, overrides, key):
    """`overrides` is a dict of config fields, or a config file's whole text."""
    if isinstance(overrides, dict):
        config = write_config(tmp_path, **overrides)
    else:
        config = tmp_path / "config.json"
        config.write_text(overrides)
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, result.output
    error = _error_line(result)
    assert error["error"] == "ConfigError" and key in error["message"]


SHIPPED = json.loads((Path(sdgpb.__file__).parent / "data" / "catalog.json").read_text("utf-8"))


def _catalog(**changes) -> str:
    return json.dumps(SHIPPED | changes)


@pytest.mark.parametrize("content, complaint", [
    ("{not json", "not valid JSON"),
    (json.dumps({"sdgs": [], "pbs": []}), "1..17"),
    (_catalog(sdgs=[{**g, "id": g["id"] - 1} for g in SHIPPED["sdgs"]]), "1..17"),
    (_catalog(pbs=SHIPPED["pbs"][:8] + SHIPPED["pbs"][:1]), "1..9"),
    (json.dumps({"sdgs": SHIPPED["sdgs"]}), "'pbs'"),
    (_catalog(pbs=[{"id": 1, "definition": "d"}]), "'short_name'"),
    (_catalog(sdgs=[{**g, "definition": None} for g in SHIPPED["sdgs"]]), "definition"),
    (_catalog(pbs=[{**g, "id": str(g["id"])} for g in SHIPPED["pbs"]]), "id"),
    (_catalog(version=2025), "version"),
    (json.dumps([SHIPPED]), "JSON object"),
], ids=["not json", "empty lists", "ids 0-16", "repeated pb id", "no pbs", "no short_name",
        "null definition", "str id", "int version", "list"])
def test_run_on_bad_catalog_exit_2_naming_the_file(runner, tmp_path, content, complaint):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(content, "utf-8")
    config = write_config(tmp_path, backend="scripted", catalog_path=str(catalog))
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, result.output
    error = _error_line(result)
    assert error["error"] == "ConfigError"
    assert str(catalog) in error["message"] and complaint in error["message"]


def test_run_checks_the_catalog_before_it_parses_any_document(runner, tmp_path, monkeypatch):
    def parse_tei(data):
        raise AssertionError("a TEI file was parsed before the configuration was checked")

    monkeypatch.setattr(corpus, "parse_tei", parse_tei)
    catalog = tmp_path / "catalog.json"
    catalog.write_text("{not json", "utf-8")
    config = write_config(tmp_path, backend="scripted", catalog_path=str(catalog))
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, result.output
    assert _error_line(result)["error"] == "ConfigError"


def test_run_on_missing_catalog_exit_3(runner, tmp_path):
    config = write_config(tmp_path, backend="scripted", catalog_path=str(tmp_path / "nope.json"))
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 3, result.output
    assert _error_line(result)["error"] == "FileNotFoundError"


def _templates_with_relationship(tmp_path, change):
    """A template dir of the shipped templates, relationship.txt's bytes changed."""
    template_dir = tmp_path / "templates"
    shutil.copytree(Path(sdgpb.__file__).parent / "templates", template_dir)
    path = template_dir / "relationship.txt"
    path.write_bytes(change(path.read_bytes()))
    return {"template_dir": str(template_dir)}, path


def _catalog_not_utf8(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes(b"\xff" + _catalog().encode())
    return {"catalog_path": str(path)}, path


@pytest.mark.parametrize("make", [
    lambda tmp_path: _templates_with_relationship(tmp_path, lambda text: text + b" {stray}"),
    lambda tmp_path: _templates_with_relationship(tmp_path, lambda text: text + b" {}"),
    lambda tmp_path: _templates_with_relationship(tmp_path, lambda text: text + b" {"),
    lambda tmp_path: _templates_with_relationship(tmp_path, lambda text: b"\xff" + text),
    _catalog_not_utf8,
], ids=["stray field", "positional field", "lone brace", "template not utf-8", "catalog not utf-8"])
def test_run_on_bad_template_or_catalog_exit_2_before_any_checkpoint(runner, tmp_path, make):
    overrides, path = make(tmp_path)
    config = write_config(tmp_path, backend="scripted", **overrides)
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, result.output
    error = _error_line(result)
    assert error["error"] == "ConfigError" and str(path) in error["message"]
    assert not (tmp_path / "run" / "checkpoints").exists()


# the CLI's exit code for every class in sdgpb.errors, and for a missing file
EXIT_CODES = {
    "ConfigError": 2,
    **dict.fromkeys(["BackendFailure", "BackendError", "TransientBackendError", "RateLimited",
                     "Timeout", "ReplayMiss"], 4),
    "GoldenMismatch": 5,
    **dict.fromkeys([
        "SdgPbError", "OutOfRange", "IllegalRefinement", "InvalidCursor", "MalformedXml",
        "NotTei", "EmptyDocument", "InvalidDocId", "OverContext", "StoreCorrupt", "CacheCorrupt",
        "SchemaError", "IdOutOfRange", "PairSetMismatch", "UnknownCategory",
        "UnknownDirection", "TemplateVersionMismatch", "CheckpointCorrupt", "DuplicateRecord",
        "EmptyMatrix", "ZeroCorpus", "ZeroGlobal",
        "MissingInput", "FileNotFoundError"], 3),
}


def test_exit_code_table_names_every_error_class():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert set(EXIT_CODES) - {"FileNotFoundError"} == classes


@pytest.mark.parametrize("name, code", EXIT_CODES.items(), ids=list(EXIT_CODES))
def test_each_error_class_exits_with_its_code(runner, tmp_path, monkeypatch, name, code):
    cls = getattr(errors, name, FileNotFoundError)

    def fail(cfg):
        raise cls("boom")

    monkeypatch.setattr("sdgpb.cli._run_and_report", fail)
    result = runner.invoke(main, ["--config", str(write_config(tmp_path)), "run"])
    assert result.exit_code == code, result.output
    assert _error_line(result) == {"error": name, "message": "boom"}


def test_run_replay_and_full_reporting_chain(runner, tmp_path):
    config = write_config(tmp_path)
    seeded_run_dir(tmp_path)
    for args in (["run"], ["aggregate"], ["report"]):
        result = runner.invoke(main, ["--config", str(config)] + args)
        assert result.exit_code == 0, (args, result.output)
    results = (tmp_path / "run" / "results" / "results.jsonl").read_bytes()
    assert results == (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()
    assert (tmp_path / "report" / "figure1.svg").read_bytes() == (
        FIXTURES_DIR / "golden" / "figure1.svg"
    ).read_bytes()


def test_run_is_idempotent(runner, tmp_path):
    config = write_config(tmp_path)
    seeded_run_dir(tmp_path)
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    first = (tmp_path / "run" / "results" / "results.jsonl").read_bytes()
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    assert (tmp_path / "run" / "results" / "results.jsonl").read_bytes() == first


def test_resume_with_no_checkpoints_equals_fresh_run(runner, tmp_path):
    config = write_config(tmp_path)
    seeded_run_dir(tmp_path)
    result = runner.invoke(main, ["--config", str(config), "resume"])
    assert result.exit_code == 0
    produced = (tmp_path / "run" / "results" / "results.jsonl").read_bytes()
    assert produced == (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()


def _finished_run(runner, tmp_path):
    """A complete replayed run whose outputs are then removed, so that only
    its checkpoints remain for `resume`."""
    config = write_config(tmp_path)
    seeded_run_dir(tmp_path)
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    (tmp_path / "run" / "results" / "results.jsonl").unlink()
    checkpoints = sorted((tmp_path / "run" / "checkpoints").glob("*.jsonl"))
    five_stages = next(p for p in checkpoints if len(p.read_bytes().splitlines()) == 5)
    return config, five_stages


@pytest.mark.parametrize("torn, kept", [
    pytest.param(torn, kept, id=kept if torn == 5 else f"stage {torn} {kept}")
    for torn in (5, 2) for kept in ("first byte", "half", "all but the newline")
])
def test_resume_drops_torn_final_checkpoint_line(runner, tmp_path, torn, kept):
    """A kill mid-append of stage `torn`'s line of a five-stage file, after
    which resume cuts the torn bytes once and appends the later stages."""
    config, path = _finished_run(runner, tmp_path)
    whole = path.read_bytes()
    lines = whole.splitlines(keepends=True)
    start = sum(map(len, lines[: torn - 1]))
    length = len(lines[torn - 1])
    cut = {"first byte": 1, "half": length // 2, "all but the newline": length - 1}[kept]
    path.write_bytes(whole[: start + cut])  # a kill mid-append

    for args in (["resume"], ["aggregate"], ["report"]):
        result = runner.invoke(main, ["--config", str(config)] + args)
        assert result.exit_code == 0, (args, result.output)
    for name, produced_path in _outputs(load_config(config)).items():
        assert produced_path.read_bytes() == (FIXTURES_DIR / "golden" / name).read_bytes(), name
    # the torn bytes were cut away and each lost stage appended once
    assert path.read_bytes() == whole


def test_resume_on_corrupt_checkpoint_line_exit_3(runner, tmp_path):
    config, path = _finished_run(runner, tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"doc_id": "cut\n'
    path.write_bytes(b"".join(lines))
    result = runner.invoke(main, ["--config", str(config), "resume"])
    assert result.exit_code == 3
    assert "CheckpointCorrupt" in result.output
    assert f"{path.name}: line 2" in result.output


def test_replay_without_cache_exit_3(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 3
    assert "MissingInput" in result.output


def test_aggregate_on_empty_results_nonzero(runner, tmp_path):
    config = write_config(tmp_path)
    results_path = tmp_path / "run" / "results" / "results.jsonl"
    results_path.parent.mkdir(parents=True)
    results_path.write_text("")
    for command in ("aggregate", "report"):
        result = runner.invoke(main, ["--config", str(config), command])
        assert result.exit_code == 3, command
        assert "EmptyMatrix" in result.output


def test_aggregate_missing_results_exit_3(runner, tmp_path):
    config = write_config(tmp_path)
    for command in ("aggregate", "report"):
        result = runner.invoke(main, ["--config", str(config), command])
        assert result.exit_code == 3, command
        assert _error_line(result)["error"] == "MissingInput"
        assert "results store not found" in result.output and "results.jsonl" in result.output


def test_aggregate_on_truncated_results_exit_3(runner, tmp_path):
    config = write_config(tmp_path)
    results_path = tmp_path / "run" / "results" / "results.jsonl"
    results_path.parent.mkdir(parents=True)
    golden = (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()
    results_path.write_bytes(golden[:-40])
    lines = golden[:-40].count(b"\n") + 1
    result = runner.invoke(main, ["--config", str(config), "aggregate"])
    assert result.exit_code == 3, result.output
    assert "StoreCorrupt" in result.output
    assert f"results.jsonl: line {lines}" in result.output


def _golden_results_run(tmp_path):
    """A config whose run dir holds only a copy of the golden results store."""
    config = write_config(tmp_path)
    results_path = tmp_path / "run" / "results" / "results.jsonl"
    results_path.parent.mkdir(parents=True)
    shutil.copy(FIXTURES_DIR / "golden" / "results.jsonl", results_path)
    return config, results_path


def _with_line_5_changed(tmp_path, change):
    """A config whose results store is the golden one with line 5 (doc-004,
    sdgs 5 and 17, pbs 1, 5 and 6) decoded, passed to `change` and encoded
    again."""
    config, results_path = _golden_results_run(tmp_path)
    lines = results_path.read_bytes().splitlines(keepends=True)
    entry = json.loads(lines[4])
    change(entry)
    lines[4] = json.dumps(entry).encode() + b"\n"
    results_path.write_bytes(b"".join(lines))
    return config


@pytest.mark.parametrize("field, value", [
    ("sdg", 99), ("sdg", 0), ("sdg", True), ("pb", 10), ("pb", "3"), ("sdgs", [18]),
    ("pbs", [0]), ("status", "bogus"), ("failed_stage", 0), ("failed_stage", 6),
    ("failed_stage", True),
    # line 5's first pair is neutral: a refinement, a category that needs one,
    # or a direction
    ("refined", "Actual Synergy"), ("category", "synergy"), ("direction", "pb_to_sdg"),
    # line 5 is complete: it names no failed stage and gives no reason, and
    # only a complete line holds pairs
    ("failed_stage", 3), ("status", "failed"), ("status", "skipped"), ("reason", "x"),
])
def test_aggregate_on_out_of_range_results_line_exit_3(runner, tmp_path, field, value):
    def change(entry):
        if field in ("sdg", "pb", "refined", "category", "direction"):
            entry["pairs"][0][field] = value
        else:
            entry[field] = value

    config = _with_line_5_changed(tmp_path, change)
    result = runner.invoke(main, ["--config", str(config), "aggregate"])
    assert result.exit_code == 3, result.output
    assert "StoreCorrupt" in result.output
    assert "results.jsonl: line 5" in result.output


# line 5's second pair, (5, 5), is a synergy
@pytest.mark.parametrize("change", [
    lambda entry: entry["pairs"].pop(1),
    lambda entry: entry["pairs"][1].update(direction=None),
    lambda entry: entry["pairs"].append(entry["pairs"][1]),
    lambda entry: entry["sdgs"].append(1),
    lambda entry: entry["pairs"][1].pop("evidence_quote"),
    lambda entry: entry.pop("failed_stage"),
    lambda entry: entry["sdgs"].append(entry["sdgs"][0]),
    lambda entry: entry["pbs"].append(entry["pbs"][-1]),
    lambda entry: entry["pairs"][1].update(justification=5),
    lambda entry: entry["pairs"][0].update(evidence_quote=None),
], ids=["pair dropped", "non-neutral pair without direction", "pair duplicated",
        "sdg without its pairs", "pair without evidence_quote", "no failed_stage",
        "sdg repeated", "pb repeated", "justification a number", "evidence_quote null"])
def test_aggregate_on_inconsistent_results_line_exit_3(runner, tmp_path, change):
    config = _with_line_5_changed(tmp_path, change)
    for command in ("aggregate", "report"):
        result = runner.invoke(main, ["--config", str(config), command])
        assert result.exit_code == 3, (command, result.output)
        assert "StoreCorrupt" in result.output
        assert "results.jsonl: line 5" in result.output
    assert not (tmp_path / "run" / "matrix.json").exists()
    assert not (tmp_path / "report").exists()


def _set_first(key, field, value):
    def change(payload):
        payload[key][0][field] = value
    return change


def _damage_checkpoint(path, stage, damage):
    """Applies `damage` to the payload of the checkpoint line of `stage`."""
    lines = path.read_bytes().splitlines(keepends=True)
    entry = json.loads(lines[stage - 1])
    assert entry["stage"] == stage
    damage(entry["payload"])
    lines[stage - 1] = json.dumps(entry).encode() + b"\n"
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("stage, damage", [
    (1, lambda payload: payload.update(sdgs=[99])),
    (2, lambda payload: payload.update(pbs=["3"])),
    (3, lambda payload: payload.update(verdicts={})),
    (3, lambda payload: payload.update(verdict=payload.pop("verdicts"))),
    (3, _set_first("verdicts", "category", "bogus")),
    (3, _set_first("verdicts", "sdg", 0)),
    (4, _set_first("directions", "direction", "both")),
    (5, _set_first("refinements", "label", "bogus")),
], ids=["sdg 99", "pb as a string", "verdicts not a list", "no verdicts", "unknown category",
        "sdg 0", "unknown direction", "unknown label"])
def test_resume_on_invalid_checkpoint_payload_exit_3(runner, tmp_path, stage, damage):
    config, path = _finished_run(runner, tmp_path)
    _damage_checkpoint(path, stage, damage)
    result = runner.invoke(main, ["--config", str(config), "resume"])
    assert result.exit_code == 3, result.output
    assert "CheckpointCorrupt" in result.output
    assert f"{path.name}: line {stage}" in result.output


# doc-000's stage 3 holds one trade-off, (2, 2), and one neutral pair; each
# damaged line stays valid alone
@pytest.mark.parametrize("stage, damage", [
    (4, lambda payload: payload["directions"].pop()),
    (5, lambda payload: payload["refinements"].pop()),
    (4, lambda payload: payload["directions"].append({"sdg": 1, "pb": 1, "direction": "sdg_to_pb"})),
    (5, _set_first("refinements", "label", "Actual Synergy")),
], ids=["missing direction", "missing label", "pair not in stage 3", "synergy label on a trade-off"])
def test_resume_on_stages_4_5_off_stage_3_pairs_exit_3(runner, tmp_path, stage, damage):
    config, _ = _finished_run(runner, tmp_path)
    path = tmp_path / "run" / "checkpoints" / "doc-000.jsonl"
    _damage_checkpoint(path, stage, damage)
    result = runner.invoke(main, ["--config", str(config), "resume"])
    assert result.exit_code == 3, result.output
    assert "CheckpointCorrupt" in result.output
    assert str(path) in result.output


def _rewrite_checkpoint(path, change):
    """Rewrites a checkpoint file as `change` leaves its list of entries."""
    entries = [json.loads(line) for line in path.read_bytes().splitlines()]
    change(entries)
    path.write_bytes(b"".join(json.dumps(entry).encode() + b"\n" for entry in entries))


# apart from the copied file, whose lines name doc-001, the template version
# that is a number and the repeated SDG, every line stays valid alone: only
# the file as a whole is wrong. doc-002's stages 1 and 2 hold SDGs 1, 5, 16,
# 17 and PBs 4, 7, 8: 12 pairs, all of them in its stage 3.
@pytest.mark.parametrize("doc, damage", [
    ("doc-000", lambda path: shutil.copyfile(path.with_name("doc-001.jsonl"), path)),
    ("doc-000", lambda path: _rewrite_checkpoint(
        path, lambda entries: entries[0].update(template_version="0" * 16))),
    ("doc-000", lambda path: _rewrite_checkpoint(
        path, lambda entries: entries[1].update(template_version=1))),
    ("doc-000", lambda path: _rewrite_checkpoint(path, lambda entries: entries.append(entries[-1]))),
    ("doc-000", lambda path: _rewrite_checkpoint(path, lambda entries: entries.pop(2))),
    ("doc-002", lambda path: _rewrite_checkpoint(
        path, lambda entries: entries[0]["payload"]["sdgs"].insert(1, 2))),
    ("doc-002", lambda path: _rewrite_checkpoint(
        path, lambda entries: entries[0]["payload"]["sdgs"].insert(1, 5))),
], ids=["copied from another document", "two template versions",
        "a template version that is a number", "a stage twice",
        "stages 4 and 5 without stage 3", "an SDG without verdicts", "an SDG twice"])
def test_resume_on_checkpoint_file_whose_stages_disagree_exit_3(runner, tmp_path, doc, damage):
    config, _ = _finished_run(runner, tmp_path)
    path = tmp_path / "run" / "checkpoints" / f"{doc}.jsonl"
    damage(path)
    result = runner.invoke(main, ["--config", str(config), "resume"])
    assert result.exit_code == 3, result.output
    assert "CheckpointCorrupt" in result.output
    assert str(path) in result.output


def test_failed_report_leaves_previous_reports(runner, tmp_path, monkeypatch):
    config, results_path = _golden_results_run(tmp_path)
    report_dir = tmp_path / "report"
    assert runner.invoke(main, ["--config", str(config), "report"]).exit_code == 0
    previous = {path.name: path.read_bytes() for path in report_dir.iterdir()}
    assert sorted(previous) == sorted(reporting.REPORTS)
    lines = results_path.read_bytes().splitlines(keepends=True)
    del lines[4]  # doc-004, a complete document with pairs
    results_path.write_bytes(b"".join(lines))

    def fails(spec):
        raise RuntimeError("disk full")

    monkeypatch.setattr(reporting, "render_svg", fails)
    result = runner.invoke(main, ["--config", str(config), "report"])
    assert isinstance(result.exception, RuntimeError)
    assert {path.name: path.read_bytes() for path in report_dir.iterdir()} == previous
    monkeypatch.undo()
    # the shorter results store changes the reports, so the old bytes above were kept
    assert runner.invoke(main, ["--config", str(config), "report"]).exit_code == 0
    assert (report_dir / "summary.json").read_bytes() != previous["summary.json"]
    assert (report_dir / "figure1.svg").read_bytes() != previous["figure1.svg"]


def test_failed_aggregate_leaves_previous_matrix(runner, tmp_path, monkeypatch):
    config, _ = _golden_results_run(tmp_path)
    matrix_path = tmp_path / "run" / "matrix.json"
    matrix_path.write_text("previous\n")
    to_json = analytics.matrix_to_json

    def fails_after_encoding(m):
        to_json(m)
        raise KeyboardInterrupt

    monkeypatch.setattr(analytics, "matrix_to_json", fails_after_encoding)
    result = runner.invoke(main, ["--config", str(config), "aggregate"])
    assert result.exit_code != 0
    assert matrix_path.read_text() == "previous\n"
    assert sorted(os.listdir(matrix_path.parent)) == ["matrix.json", "results"]


def test_report_reads_the_results_store_without_a_matrix_file(runner, tmp_path):
    config, _ = _golden_results_run(tmp_path)
    result = runner.invoke(main, ["--config", str(config), "report"])
    assert result.exit_code == 0, result.output
    for name in reporting.REPORTS:
        assert (tmp_path / "report" / name).read_bytes() == (
            FIXTURES_DIR / "golden" / name).read_bytes(), name
    assert not (tmp_path / "run" / "matrix.json").exists()


def test_report_after_a_rerun_renders_the_new_results(runner, tmp_path):
    """A rerun rewrites results.jsonl and removes the previous matrix.json;
    `report` alone must render the new results, as `aggregate` then `report`
    would."""
    config = write_config(tmp_path, backend="scripted")
    for command in ("run", "aggregate", "report"):
        assert runner.invoke(main, ["--config", str(config), command]).exit_code == 0, command
    first = {name: (tmp_path / "report" / name).read_bytes() for name in reporting.REPORTS}
    shutil.rmtree(tmp_path / "run" / "checkpoints")
    config = write_config(tmp_path, backend="scripted", scripted_seed=1)
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    assert not (tmp_path / "run" / "matrix.json").exists()
    assert runner.invoke(main, ["--config", str(config), "report"]).exit_code == 0
    rerun = {name: (tmp_path / "report" / name).read_bytes() for name in reporting.REPORTS}
    assert rerun != first

    fresh = write_config(tmp_path, backend="scripted", report_dir=str(tmp_path / "fresh"))
    for command in ("aggregate", "report"):
        assert runner.invoke(main, ["--config", str(fresh), command]).exit_code == 0, command
    assert rerun == {name: (tmp_path / "fresh" / name).read_bytes() for name in reporting.REPORTS}


@pytest.mark.parametrize("previous", [True, False], ids=["over a previous file", "first write"])
def test_interrupted_results_write_leaves_no_partial_file(runner, tmp_path, monkeypatch, previous):
    config = write_config(tmp_path)
    golden = FIXTURES_DIR / "golden" / "results.jsonl"
    results_path = tmp_path / "run" / "results" / "results.jsonl"
    results_path.parent.mkdir(parents=True)
    if previous:
        shutil.copy(golden, results_path)
    results = pipeline.read_results(golden)
    to_json = pipeline.DocumentResult.to_json
    encoded = []

    def killed_after_16(res):
        if len(encoded) == 16:
            raise KeyboardInterrupt
        encoded.append(res.doc_id)
        return to_json(res)

    monkeypatch.setattr(pipeline.DocumentResult, "to_json", killed_after_16)
    with pytest.raises(KeyboardInterrupt):
        pipeline.write_results(results, results_path)
    monkeypatch.undo()
    assert len(encoded) == 16
    result = runner.invoke(main, ["--config", str(config), "aggregate"])
    if previous:
        assert result.exit_code == 0, result.output
        assert results_path.read_bytes() == golden.read_bytes()
        matrix = (tmp_path / "run" / "matrix.json").read_bytes()
        assert matrix == (FIXTURES_DIR / "golden" / "matrix.json").read_bytes()
    else:
        assert result.exit_code == 3 and "MissingInput" in result.output
    assert os.listdir(results_path.parent) == ["results.jsonl"] * previous


@pytest.mark.parametrize("bad_line", [b'{"doc_id": "cut\n', b'{"doc_id": "no-body"}\n'])
def test_run_on_corrupt_document_store_exit_3(runner, tmp_path, bad_line):
    config = write_config(tmp_path)
    seeded_run_dir(tmp_path)  # replay checks its cache before it reads documents.jsonl
    docs_path = tmp_path / "run" / "documents.jsonl"
    assert runner.invoke(main, ["--config", str(config), "ingest"]).exit_code == 0
    lines = docs_path.read_bytes().splitlines(keepends=True)
    lines[1] = bad_line
    docs_path.write_bytes(b"".join(lines))
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 3, result.output
    assert "StoreCorrupt" in result.output
    assert "documents.jsonl: line 2" in result.output


def _ingested_documents(runner, tmp_path):
    """A scripted run's config, after `ingest`, and its documents.jsonl lines as objects."""
    config = write_config(tmp_path, backend="scripted")
    assert runner.invoke(main, ["--config", str(config), "ingest"]).exit_code == 0
    docs_path = tmp_path / "run" / "documents.jsonl"
    return config, docs_path, [json.loads(line) for line in docs_path.read_text().splitlines()]


@pytest.mark.parametrize("field, value", [
    ("doc_id", "../../escaped"), ("doc_id", ""), ("doc_id", "."), ("doc_id", "a\\b"),
    ("body_text", 5), ("title", None), ("token_estimate", "9"),
], ids=["id a path", "id empty", "id dot", "id backslash", "body a number", "title null",
        "tokens a string"])
def test_run_on_document_store_with_bad_field_exit_3(runner, tmp_path, field, value):
    config, docs_path, docs = _ingested_documents(runner, tmp_path)
    docs[1][field] = value
    store.write(docs_path, docs)
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 3, result.output
    line = _error_line(result)
    assert line["error"] == "StoreCorrupt" and "documents.jsonl: line 2" in line["message"]
    assert sorted(os.listdir(tmp_path)) == ["config.json", "run"]
    assert not (tmp_path / "run" / "checkpoints").exists()


def test_run_from_document_store_equals_run_from_tei(runner, tmp_path, monkeypatch):
    for name in ("ingested", "fresh"):
        (tmp_path / name).mkdir()
    ingested, _, _ = _ingested_documents(runner, tmp_path / "ingested")
    fresh = write_config(tmp_path / "fresh", backend="scripted")
    with monkeypatch.context() as patch:  # the ingested run reads only documents.jsonl
        patch.setattr(corpus, "parse_tei", None)
        result = runner.invoke(main, ["--config", str(ingested), "run"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["--config", str(fresh), "run"])
    assert result.exit_code == 0, result.output
    produced = [path.parent / "run" / "results" / "results.jsonl" for path in (ingested, fresh)]
    assert produced[0].read_bytes() == produced[1].read_bytes()


def test_run_on_document_store_with_repeated_id_exit_3(runner, tmp_path):
    config, docs_path, docs = _ingested_documents(runner, tmp_path)
    docs[2]["doc_id"] = docs[1]["doc_id"]  # same id, another body
    store.write(docs_path, docs)
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 3, result.output
    line = _error_line(result)
    assert line["error"] == "StoreCorrupt"
    assert line["message"] == (f"{docs_path}: doc_id {docs[1]['doc_id']!r} "
                               f"appears more than once")
    assert not (tmp_path / "run" / "checkpoints").exists()


@pytest.mark.parametrize("name", [".tei.xml", "..tei.xml", "...tei.xml", "a\\b.tei.xml"])
def test_run_names_the_corpus_file_whose_name_gives_no_doc_id(runner, tmp_path, name):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    good = sorted((FIXTURES_DIR / "corpus").glob("*.tei.xml"))[0]
    shutil.copy(good, corpus_dir / good.name)
    shutil.copy(good, corpus_dir / name)
    config = write_config(tmp_path, corpus_dir=str(corpus_dir), backend="scripted")
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 3, result.output
    line = _error_line(result)
    assert line["error"] == "InvalidDocId"
    assert line["message"].startswith(f"{corpus_dir / name}: doc_id ")
    assert not (tmp_path / "run" / "checkpoints").exists()


@pytest.mark.parametrize("args, overrides", [
    (["fetch", "--query", "x"], {}),
    (["run"], {"backend": "live", "endpoint_url": "http://127.0.0.1:9/complete"}),
], ids=["fetch", "live run"])
def test_http_commands_without_requests_exit_2(runner, tmp_path, monkeypatch, args, overrides):
    monkeypatch.setitem(sys.modules, "requests", None)  # import requests fails
    config = write_config(tmp_path, **overrides)
    result = runner.invoke(main, ["--config", str(config)] + args)
    assert result.exit_code == 2, result.output
    line = _error_line(result)
    assert line["error"] == "ConfigError" and "'requests' package" in line["message"]


def test_validate_fixtures_ok(runner):
    result = runner.invoke(main, ["validate-fixtures", "--fixtures-dir", str(FIXTURES_DIR)])
    assert result.exit_code == 0
    assert "match goldens" in result.output


def test_validate_fixtures_replays_at_the_fixtures_settings(runner, tmp_path):
    config = write_config(tmp_path, batch_cap=4)
    result = runner.invoke(main, ["--config", str(config), "validate-fixtures",
                                  "--fixtures-dir", str(FIXTURES_DIR)])
    assert result.exit_code == 0, result.output
    assert "match goldens" in result.output


def test_validate_fixtures_detects_mismatch(runner, tmp_path):
    # copy fixtures and corrupt one golden byte
    mutated = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, mutated)
    golden_csv = mutated / "golden" / "matrix.csv"
    golden_csv.write_bytes(golden_csv.read_bytes() + b"tampered\n")
    result = runner.invoke(main, ["validate-fixtures", "--fixtures-dir", str(mutated)])
    assert result.exit_code == 5
    assert "GoldenMismatch" in result.output


def test_ingest_writes_document_store(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(main, ["--config", str(config), "ingest"])
    assert result.exit_code == 0
    store = tmp_path / "run" / "documents.jsonl"
    assert store.exists()
    assert len(store.read_text().splitlines()) >= 30


def test_ingest_corpus_dir_option_without_config(runner, tmp_path, monkeypatch):
    """With no --config every field takes its default (run_dir "run", under
    the working directory) and --corpus-dir overrides corpus_dir."""
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["ingest", "--corpus-dir", str(FIXTURES_DIR / "corpus")])
    assert result.exit_code == 0, result.output
    (tmp_path / "config").mkdir()
    config = write_config(tmp_path / "config")
    assert runner.invoke(main, ["--config", str(config), "ingest"]).exit_code == 0
    produced = (tmp_path / "run" / "documents.jsonl").read_bytes()
    assert produced == (tmp_path / "config" / "run" / "documents.jsonl").read_bytes()


@pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "empty"])
def test_ingest_on_missing_or_empty_corpus_dir_exit_3(runner, tmp_path, make_dir):
    corpus_dir = tmp_path / "corpus"
    if make_dir:
        corpus_dir.mkdir()
    config = write_config(tmp_path, corpus_dir=str(corpus_dir))
    result = runner.invoke(main, ["--config", str(config), "ingest"])
    assert result.exit_code == 3, result.output
    line = _error_line(result)
    assert line["error"] == "MissingInput" and str(corpus_dir) in line["message"]
    assert not (tmp_path / "run").exists()


def test_run_options_override_the_config(runner, tmp_path):
    (tmp_path / "options").mkdir()
    (tmp_path / "config").mkdir()
    options = write_config(tmp_path / "options")
    result = runner.invoke(main, ["--config", str(options), "run", "--backend", "scripted",
                                  "--batch-cap", "3", "--workers", "2"])
    assert result.exit_code == 0, result.output
    config = write_config(tmp_path / "config", backend="scripted", batch_cap=3, worker_count=2)
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    produced = [path.parent / "run" / "results" / "results.jsonl" for path in (options, config)]
    assert produced[0].read_bytes() == produced[1].read_bytes()
    # the goldens are the scripted replies at the default batch_cap of 20
    assert produced[0].read_bytes() != (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()


@pytest.mark.parametrize("content, error", [
    (b"<TEI xmlns", "MalformedXml"),
    (b"<article><body/></article>", "NotTei"),
], ids=["truncated", "not TEI"])
def test_ingest_names_the_file_it_fails_on(runner, tmp_path, content, error):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    good = sorted((FIXTURES_DIR / "corpus").glob("*.tei.xml"))[0]
    shutil.copy(good, corpus_dir / good.name)
    (corpus_dir / "zz-bad.tei.xml").write_bytes(content)
    config = write_config(tmp_path, corpus_dir=str(corpus_dir))
    result = runner.invoke(main, ["--config", str(config), "ingest"])
    assert result.exit_code == 3, result.output
    line = _error_line(result)
    assert line["error"] == error
    assert line["message"].startswith(f"{corpus_dir / 'zz-bad.tei.xml'}: ")


def test_fetch_writes_manifest(runner, tmp_path, monkeypatch):
    from sdgpb import corpus as corpus_mod

    class FakeClient:
        def __init__(self, *args, **kwargs):
            pass

        def fetch_all(self, query, filters):
            yield corpus_mod.WorkRecord("w1", "t", 2021, "https://oa/w1")

    monkeypatch.setattr("sdgpb.cli.corpus.WorksClient", FakeClient)
    config = write_config(tmp_path, corpus_dir=str(tmp_path / "corpus"))
    result = runner.invoke(main, ["--config", str(config), "fetch", "--query", "climate"])
    assert result.exit_code == 0
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    assert manifest.exists()
    assert json.loads(manifest.read_text().splitlines()[0])["work_id"] == "w1"


def test_record_reproduces_fixture_cache(runner, tmp_path):
    # the scripted backend's replies, keyed as recorded, are the fixture cache
    config = write_config(tmp_path, backend="record")
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    cache = FIXTURES_DIR / "llm_cache" / "cache.jsonl"
    assert (tmp_path / "run" / "llm_cache" / "cache.jsonl").read_bytes() == cache.read_bytes()


@pytest.mark.parametrize("kept", ["first byte", "all but 40 bytes", "all but the newline"])
def test_record_after_torn_cache_line_restores_cache(runner, tmp_path, kept):
    seeded_run_dir(tmp_path)
    path = tmp_path / "run" / "llm_cache" / "cache.jsonl"
    whole = path.read_bytes()
    start = whole.rstrip(b"\n").rfind(b"\n") + 1
    length = len(whole) - start
    cut = {"first byte": 1, "all but 40 bytes": length - 40, "all but the newline": length - 1}[kept]
    path.write_bytes(whole[: start + cut])  # a kill mid-append

    # replay misses the torn entry; recording then re-sends it and nothing else
    config = write_config(tmp_path)
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 4 and "ReplayMiss" in result.output
    config = write_config(tmp_path, backend="record")
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    assert path.read_bytes() == whole
    results = (tmp_path / "run" / "results" / "results.jsonl").read_bytes()
    assert results == (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()


def _noted_sends(monkeypatch):
    """The requests `record`'s scripted backend answers from now on, as it answers them."""
    sent = []

    class Noting(ScriptedBackend):
        def send(self, req):
            sent.append(req)
            return super().send(req)

    monkeypatch.setattr("sdgpb.cli.ScriptedBackend", Noting)
    return sent


def test_record_sends_only_what_its_cache_lacks(runner, tmp_path, monkeypatch):
    path = seeded_run_dir(tmp_path) / "llm_cache" / "cache.jsonl"
    whole = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(whole[::2]))
    sent = _noted_sends(monkeypatch)
    config = write_config(tmp_path, backend="record")
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    missing = sorted(json.loads(line)["key"] for line in whole[1::2])
    assert len(missing) == 74 and sorted(record_key(req).hex() for req in sent) == missing
    results = (tmp_path / "run" / "results" / "results.jsonl").read_bytes()
    assert results == (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()
    assert sorted(path.read_bytes().splitlines(keepends=True)) == sorted(whole)


def test_record_over_a_whole_cache_replays_it(runner, tmp_path, monkeypatch):
    # at seed 1 the scripted backend would answer otherwise: only the cache gives the goldens
    path = seeded_run_dir(tmp_path) / "llm_cache" / "cache.jsonl"
    cache = path.read_bytes()
    sent = _noted_sends(monkeypatch)
    config = write_config(tmp_path, backend="record", scripted_seed=1)
    assert runner.invoke(main, ["--config", str(config), "run"]).exit_code == 0
    assert sent == []
    results = (tmp_path / "run" / "results" / "results.jsonl").read_bytes()
    assert results == (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes()
    assert path.read_bytes() == cache


def test_record_stopped_by_its_preflight_leaves_no_cache(runner, tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text("{not json", "utf-8")
    config = write_config(tmp_path, backend="record", catalog_path=str(catalog))
    result = runner.invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "run" / "llm_cache").exists()
    # so a replay in the same run dir finds no recorded cache, not an empty one
    result = runner.invoke(main, ["--config", str(write_config(tmp_path)), "run"])
    assert result.exit_code == 3, result.output
    line = _error_line(result)
    assert line["error"] == "MissingInput" and "requires a recorded cache" in line["message"]


def test_run_on_corrupt_cache_line_exit_3(runner, tmp_path):
    seeded_run_dir(tmp_path)
    path = tmp_path / "run" / "llm_cache" / "cache.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = b'{"key": "cut\n'
    path.write_bytes(b"".join(lines))
    for backend in ("replay", "record"):
        config = write_config(tmp_path, backend=backend)
        result = runner.invoke(main, ["--config", str(config), "run"])
        assert result.exit_code == 3, (backend, result.output)
        assert "CacheCorrupt" in result.output
        assert "cache.jsonl: line 5" in result.output


def test_replay_of_cache_line_with_non_string_text_exit_3(runner, tmp_path):
    seeded_run_dir(tmp_path)
    path = tmp_path / "run" / "llm_cache" / "cache.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    entry = json.loads(lines[4])
    entry["text"] = 5
    lines[4] = json.dumps(entry).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    result = runner.invoke(main, ["--config", str(write_config(tmp_path)), "run"])
    assert result.exit_code == 3, result.output
    assert "CacheCorrupt" in result.output and "cache.jsonl: line 5" in result.output


_OFFLINE_IMPORTS = """
import importlib, json, pkgutil, sys
import sdgpb
for info in pkgutil.walk_packages(sdgpb.__path__, "sdgpb."):
    importlib.import_module(info.name)
from sdgpb.cli import _outputs, main
from sdgpb.config import load_config
code = 0
try:
    main(["validate-fixtures", "--fixtures-dir", sys.argv[1]])
except SystemExit as exc:
    code = exc.code
http = [m for m in ("requests", "urllib3", "ssl", "http.client") if m in sys.modules]
print(json.dumps({"code": code, "http": http}))
"""


def test_offline_run_loads_no_http_stack():
    # a fresh interpreter: this test session may already hold requests
    src = str(Path(sdgpb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _OFFLINE_IMPORTS, str(FIXTURES_DIR)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome == {"code": 0, "http": []}


def test_live_run_keeps_a_connection_for_each_concurrent_send(monkeypatch):
    # requests' default pool keeps 10 connections per host: rounds of 12
    # concurrent sends would drop 2 after each round and open 2 more
    in_flight, rounds = 12, 3
    all_sent = threading.Barrier(in_flight, timeout=10)
    connections = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive

        def setup(self):
            super().setup()
            connections.append(self.client_address)

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            all_sent.wait()  # no reply until every send of the round is in flight
            body = b'{"text": "ok"}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    monkeypatch.setenv("SDGPB_API_KEY", "key")
    cfg = RunConfig(backend="live", endpoint_url=f"http://127.0.0.1:{server.server_port}/complete")
    backend = _make_gateway(cfg).backend
    req = PromptRequest(stage=1, doc_id="d", system_text="sys", user_text="user")
    try:
        with ThreadPoolExecutor(in_flight) as pool:
            for _ in range(rounds):
                assert list(pool.map(lambda _: backend.send(req), range(in_flight))) == ["ok"] * in_flight
    finally:
        backend.session.close()
        server.shutdown()
        serving.join()
        server.server_close()
    assert len(connections) == in_flight


def test_live_run_sends_the_configured_temperature(tmp_path, monkeypatch):
    bodies = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            bodies.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
            body = b'{"text": "ok"}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    monkeypatch.setenv("SDGPB_API_KEY", "key")
    cfg = load_config(write_config(
        tmp_path, backend="live", temperature=0.7,
        endpoint_url=f"http://127.0.0.1:{server.server_port}/complete",
    ))
    cfg.validate()
    backend = _make_gateway(cfg).backend
    req = PromptRequest(stage=1, doc_id="d", system_text="sys", user_text="user")
    try:
        assert backend.send(req) == "ok"
    finally:
        backend.session.close()
        server.shutdown()
        serving.join()
        server.server_close()
    assert [body["temperature"] for body in bodies] == [0.7]
