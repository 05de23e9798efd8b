"""Seeded synthetic TEI corpus for the benchmark.

Reuses the sentence pool, TEI template and sentence maker of
`scripts/make_fixtures.py`, so synthetic documents look like the bundled
fixtures, but lets the caller choose the document count and body size.
Every document keeps the template's figure, acknowledgement and
bibliography sections, so `corpus.prune` has real work to do. The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fixtures = _load_make_fixtures()
SENTENCE_POOL = _fixtures.SENTENCE_POOL
TEI_TEMPLATE = _fixtures.TEI_TEMPLATE
TOPICS = _fixtures.TOPICS
make_sentence = _fixtures.make_sentence

# share of the body given to the introduction, results and discussion
_SECTION_SHARES = (0.25, 0.5, 0.25)


def _paragraph(rng: random.Random, target_chars: int) -> str:
    sentences: list[str] = []
    size = 0
    while size < target_chars:
        s = make_sentence(rng)
        sentences.append(s)
        size += len(s) + 1
    return " ".join(sentences)


def make_document(rng: random.Random, index: int, body_chars: int) -> str:
    """One TEI document whose three body sections total about `body_chars`."""
    topic = TOPICS[rng.randrange(len(TOPICS))]
    title = f"A field study of {topic} (case {index:04d})"
    intro, results, discussion = (
        _paragraph(rng, max(1, int(body_chars * share))) for share in _SECTION_SHARES
    )
    return TEI_TEMPLATE.format(
        title=title, intro=intro, results=results, discussion=discussion, i=index
    )


def write_corpus(corpus_dir: Path, seed: int, n_docs: int, body_chars: int) -> list[Path]:
    """Write `n_docs` TEI files into `corpus_dir`, a pure function of the arguments."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"corpus:{seed}:{n_docs}:{body_chars}")
    paths = []
    for i in range(n_docs):
        path = corpus_dir / f"doc-{i:04d}.tei.xml"
        path.write_bytes(make_document(rng, i, body_chars).encode("utf-8"))
        paths.append(path)
    return paths
