"""Command-line entry point.

Subcommands wire config, corpus, gateway, pipeline, analytics, and
reporting together. Every command runs under one handler: an `SdgPbError`
becomes one JSON line on stderr and exits with its class's `exit_code`.
Exit codes: 0 success, 2 `ConfigError`, 3 any other package error or a
missing file (input error), 4 the `BackendFailure` family (`BackendError`,
`TransientBackendError`, `RateLimited`, `Timeout`, `ReplayMiss`; a works
API or a completion backend that still fails transiently once the retry
budget is spent raises `RateLimited`), 5 `GoldenMismatch`.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from . import analytics, corpus, pipeline, reporting, store
from .config import BACKEND_MODES, RunConfig, load_config
from .errors import ConfigError, EmptyMatrix, GoldenMismatch, MissingInput, SdgPbError, StoreCorrupt
from .gateway import Gateway, LiveBackend, RecordingBackend, ReplayBackend, CACHE_SUBDIR, CACHE_FILE
from .taxonomy import load_catalog
from .testing import ScriptedBackend


class JsonEventFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {
                "level": record.levelname,
                "logger": record.name,
                "event": record.getMessage(),
            },
            sort_keys=True,
        )


def _setup_logging(verbose: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(JsonEventFormatter())
    root = logging.getLogger()
    root.handlers = [handler]
    root.setLevel(logging.DEBUG if verbose else logging.INFO)


class ExitCodeGroup(click.Group):
    """Runs every command; a package error or a missing file becomes one JSON
    line on stderr and the error class's exit code (3 for a missing file)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SdgPbError, FileNotFoundError) as exc:
            line = json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
            click.echo(line, err=True)
            sys.exit(getattr(exc, "exit_code", SdgPbError.exit_code))


def _make_gateway(cfg: RunConfig) -> Gateway:
    if cfg.backend == "replay":
        cache = Path(cfg.run_dir) / CACHE_SUBDIR / CACHE_FILE
        if not cache.exists():
            raise MissingInput(f"replay mode requires a recorded cache at {cache}")
        backend = ReplayBackend(cfg.run_dir)
    elif cfg.backend == "scripted":
        backend = ScriptedBackend(seed=cfg.scripted_seed)
    elif cfg.backend == "record":
        backend = RecordingBackend(ScriptedBackend(seed=cfg.scripted_seed), cfg.run_dir)
    else:
        backend = LiveBackend(cfg.endpoint_url, cfg.models["1"], cfg.temperature, cfg.api_key_env)
    gateway = Gateway(
        backend,
        rpm=cfg.rpm_limit,
        retry_budget=cfg.retry_budget,
        jitter_seed=cfg.jitter_seed,
    )
    if gateway.live:
        from requests.adapters import HTTPAdapter

        # a pooled connection for each send that can be in flight: the run's
        # call executor plus one per document thread (requests keeps 10)
        adapter = HTTPAdapter(pool_maxsize=gateway.max_in_flight + cfg.worker_count)
        for prefix in ("https://", "http://"):
            backend.session.mount(prefix, adapter)
    return gateway


def _make_runner(cfg: RunConfig, gateway: Gateway) -> pipeline.PipelineRunner:
    return pipeline.PipelineRunner(
        gateway=gateway,
        checkpoints=pipeline.CheckpointStore(cfg.run_dir),
        catalog=load_catalog(cfg.catalog_path),
        templates=pipeline.PromptTemplates(cfg.template_dir),
        batch_cap=cfg.batch_cap,
        context_budget=cfg.context_budget,
    )


def _ingest(cfg: RunConfig) -> list[corpus.CleanDocument]:
    corpus_dir = Path(cfg.corpus_dir)
    if not corpus_dir.is_dir():
        raise MissingInput(f"corpus directory not found: {corpus_dir}")
    docs = corpus.ingest_directory(corpus_dir)
    if not docs:
        raise MissingInput(f"no .tei.xml documents found in {corpus_dir}")
    return docs


def _load_corpus(cfg: RunConfig) -> list[corpus.CleanDocument]:
    docs_path = Path(cfg.run_dir) / "documents.jsonl"
    if not docs_path.exists():
        return _ingest(cfg)
    docs = store.read(docs_path, corpus.CleanDocument.from_json)
    seen = set()
    for doc in docs:
        if doc.doc_id in seen:  # two documents would share one checkpoint file
            raise StoreCorrupt(f"{docs_path}: doc_id {doc.doc_id!r} appears more than once")
        seen.add(doc.doc_id)
    return docs


def _outputs(cfg: RunConfig) -> dict[str, Path]:
    """The five output files of a run, by name."""
    run_dir = Path(cfg.run_dir)
    paths = {"results.jsonl": run_dir / "results" / "results.jsonl",
             "matrix.json": run_dir / "matrix.json"}
    return paths | {name: Path(cfg.report_dir) / name for name in reporting.REPORTS}


def _run_and_report(cfg: RunConfig) -> Path:
    """Shared body of `run` and `resume`: build the runner, so a bad catalog,
    template or replay cache fails before any document is read; process the
    corpus; write results. The previous `matrix.json` goes first, so a run dir
    never holds a matrix of other results; `aggregate` rebuilds it."""
    runner = _make_runner(cfg, _make_gateway(cfg))
    results = runner.run(_load_corpus(cfg), workers=cfg.worker_count)
    outputs = _outputs(cfg)
    outputs["matrix.json"].unlink(missing_ok=True)
    pipeline.write_results(results, outputs["results.jsonl"])
    return outputs["results.jsonl"]


def _matrix(cfg: RunConfig) -> analytics.InteractionMatrix:
    """The matrix of the run's results store: `aggregate` writes it, `report` renders it."""
    results_path = _outputs(cfg)["results.jsonl"]
    if not results_path.exists():
        raise MissingInput(f"results store not found: {results_path}")
    matrix = analytics.matrix_from_results(pipeline.read_results(results_path))
    if matrix.total_records == 0:
        raise EmptyMatrix("aggregation produced zero interaction records")
    return matrix


def _aggregate(cfg: RunConfig) -> Path:
    matrix_path = _outputs(cfg)["matrix.json"]
    analytics.write_matrix(_matrix(cfg), matrix_path)
    return matrix_path


def _report(cfg: RunConfig) -> Path:
    reporting.write_reports(_matrix(cfg), cfg.report_dir)
    return Path(cfg.report_dir)


@click.group(cls=ExitCodeGroup)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Path to the JSON run configuration file.")
@click.option("--verbose", is_flag=True, help="Debug-level structured logs.")
@click.pass_context
def main(ctx, config_path, verbose):
    """SDG-PB interaction mining pipeline."""
    _setup_logging(verbose)
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path


def _cfg(ctx, **overrides) -> RunConfig:
    cfg = load_config(ctx.obj.get("config_path"))
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


@main.command()
@click.option("--query", default=None, help="Full-text search query.")
@click.option("--out", "out_path", default=None, help="Manifest output path.")
@click.pass_context
def fetch(ctx, query, out_path):
    """Fetch open-access work metadata and write a JSONL manifest."""
    cfg = _cfg(ctx)
    query = query or cfg.api_query
    if not query:
        raise ConfigError("no query given (use --query or api_query in config)")
    client = corpus.WorksClient(cfg.api_base_url, mailto=cfg.mailto,
                                retry_budget=cfg.retry_budget)
    records = list(client.fetch_all(query, cfg.api_filters))
    out = Path(out_path or Path(cfg.corpus_dir) / "manifest.jsonl")
    store.write(out, (rec.to_json() for rec in records))
    click.echo(f"wrote {len(records)} work records to {out}")


@main.command()
@click.option("--corpus-dir", default=None, help="Directory of .tei.xml files.")
@click.pass_context
def ingest(ctx, corpus_dir):
    """Parse and prune TEI files into the clean document store."""
    cfg = _cfg(ctx, corpus_dir=corpus_dir)
    docs = _ingest(cfg)
    out = Path(cfg.run_dir) / "documents.jsonl"
    store.write(out, (doc.to_json() for doc in docs))
    click.echo(f"ingested {len(docs)} documents into {out}")


@main.command()
@click.option("--backend", default=None, type=click.Choice(BACKEND_MODES))
@click.option("--batch-cap", default=None, type=int)
@click.option("--workers", "worker_count", default=None, type=int,
              help="Documents a live backend processes at once, each also "
                   "overlapping its own calls; offline runs take one at a time.")
@click.pass_context
def run(ctx, backend, batch_cap, worker_count):
    """Process the corpus through all five stages."""
    cfg = _cfg(ctx, backend=backend, batch_cap=batch_cap, worker_count=worker_count)
    results_path = _run_and_report(cfg)
    click.echo(f"wrote results to {results_path}")


@main.command()
@click.pass_context
def resume(ctx):
    """Continue an interrupted run from its checkpoints."""
    cfg = _cfg(ctx)
    results_path = _run_and_report(cfg)
    click.echo(f"wrote results to {results_path}")


@main.command()
@click.pass_context
def aggregate(ctx):
    """Build the interaction matrix from the results store."""
    cfg = _cfg(ctx)
    matrix_path = _aggregate(cfg)
    click.echo(f"wrote matrix to {matrix_path}")


@main.command()
@click.pass_context
def report(ctx):
    """Emit summary.json, matrix.csv, and figure1.svg from the results store."""
    cfg = _cfg(ctx)
    report_dir = _report(cfg)
    click.echo(f"wrote reports to {report_dir}")


@main.command("validate-fixtures")
@click.option("--fixtures-dir", default="fixtures", help="Bundled fixture corpus root.")
def validate_fixtures(fixtures_dir):
    """Replay the bundled fixture corpus and diff against golden outputs."""
    import shutil
    import tempfile

    fixtures = Path(fixtures_dir)
    if not fixtures.is_dir():
        raise MissingInput(f"fixtures directory not found: {fixtures}")
    golden = fixtures / "golden"
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        (run_dir / CACHE_SUBDIR).mkdir(parents=True)
        shutil.copy(fixtures / CACHE_SUBDIR / CACHE_FILE, run_dir / CACHE_SUBDIR / CACHE_FILE)
        # the settings make_fixtures.py records with, whatever --config holds
        cfg = RunConfig(corpus_dir=str(fixtures / "corpus"), run_dir=str(run_dir),
                        report_dir=str(Path(tmp) / "report"), backend="replay")
        _run_and_report(cfg)
        _aggregate(cfg)
        _report(cfg)
        for name, path in _outputs(cfg).items():
            expected = golden / name
            if not expected.exists():
                raise MissingInput(f"golden file missing: {expected}")
            if path.read_bytes() != expected.read_bytes():
                raise GoldenMismatch(f"{name} differs from golden {expected}")
    click.echo("all fixture outputs match goldens")


if __name__ == "__main__":
    main()
