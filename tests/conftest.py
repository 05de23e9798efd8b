import shutil
from pathlib import Path

import pytest

from sdgpb import corpus, pipeline
from sdgpb.gateway import CACHE_FILE, CACHE_SUBDIR, Gateway, ReplayBackend
from sdgpb.taxonomy import load_catalog

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def templates():
    return pipeline.PromptTemplates()


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def fixture_docs():
    return corpus.ingest_directory(FIXTURES_DIR / "corpus")


def seeded_run_dir(base: Path) -> Path:
    """`base/run`, seeded with the bundled recorded LLM cache."""
    run_dir = base / "run"
    (run_dir / CACHE_SUBDIR).mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES_DIR / CACHE_SUBDIR / CACHE_FILE, run_dir / CACHE_SUBDIR / CACHE_FILE)
    return run_dir


@pytest.fixture
def replay_run_dir(tmp_path):
    return seeded_run_dir(tmp_path)


def make_replay_runner(run_dir, catalog, templates, **kwargs):
    return pipeline.PipelineRunner(
        gateway=Gateway(ReplayBackend(run_dir)),
        checkpoints=pipeline.CheckpointStore(run_dir),
        catalog=catalog,
        templates=templates,
        **kwargs,
    )
