"""Output-correctness gate applied to every benchmark run.

A run fails when the bundled fixtures no longer replay to their goldens,
when any document breaks an invariant of the pipeline's contract, or when
the five output files differ from the reference run of the same inputs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from sdgpb.corpus import CleanDocument
from sdgpb.pipeline import DocumentResult
from sdgpb.taxonomy import Category, refined_labels_for

OUTPUT_FILES = ("results.jsonl", "matrix.json", "summary.json", "matrix.csv", "figure1.svg")


def output_digest(out_dir: Path) -> str:
    """sha256 over the five output files, in a fixed order."""
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode() + b"\x00")
        h.update(hashlib.sha256((out_dir / name).read_bytes()).digest())
    return h.hexdigest()


def preflight(root: Path, tmp_dir: Path) -> str | None:
    """Replay the bundled fixtures against `fixtures/golden/` with the CLI.

    Returns None on a byte-for-byte match, otherwise the CLI's complaint.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "sdgpb.cli", "validate-fixtures",
         "--fixtures-dir", str(root / "fixtures")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return f"validate-fixtures exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return None


def _normalize_ws(text: str) -> str:
    # kept apart from the pipeline's own helper, so the check does not reuse
    # the code it checks
    return " ".join(text.split())


def document_failures(docs: Sequence[CleanDocument],
                      results: Sequence[DocumentResult]) -> dict[str, str]:
    """Documents breaking an invariant, mapped to the first broken one."""
    by_id = {r.doc_id: r for r in results}
    failures: dict[str, str] = {}
    for doc in docs:
        res = by_id.get(doc.doc_id)
        if res is None:
            failures[doc.doc_id] = "no result"
            continue
        if res.status != "complete":
            failures[doc.doc_id] = f"status {res.status} at stage {res.failed_stage}: {res.reason}"
            continue
        got = sorted((p.sdg, p.pb) for p in res.pairs)
        if got != sorted((s, p) for s in res.sdgs for p in res.pbs):
            failures[doc.doc_id] = "pairs differ from sdgs x pbs"
            continue
        body = _normalize_ws(doc.body_text)
        for p in res.pairs:
            if p.category is Category.NEUTRAL:
                if p.refined is not None or p.direction is not None:
                    failures[doc.doc_id] = f"neutral pair ({p.sdg},{p.pb}) refined or directed"
                    break
                continue
            if not p.evidence_quote or _normalize_ws(p.evidence_quote) not in body:
                failures[doc.doc_id] = f"quote of pair ({p.sdg},{p.pb}) not in body"
                break
            if p.refined not in refined_labels_for(p.category):
                failures[doc.doc_id] = f"illegal refinement of pair ({p.sdg},{p.pb})"
                break
            if p.direction is None:
                failures[doc.doc_id] = f"pair ({p.sdg},{p.pb}) has no direction"
                break
    for doc_id in by_id.keys() - {d.doc_id for d in docs}:
        failures[doc_id] = "result for a document not in the corpus"
    return failures
