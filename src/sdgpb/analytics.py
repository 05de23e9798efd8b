"""Aggregation of pipeline results into the 17x9 interaction matrix.

All statistics are pure functions of the record stream. The matrix holds
one `CellRow` per non-empty cell, to which each record adds once: to the
total, its category, its refined bucket and its direction (`neutral` is a
neutral record's category and bucket alike). Every count is read from
`cell_row` or from a sum of rows over one goal or the whole matrix:
per-cell and global category and refined-bucket proportions,
directionality, per-goal trade-off shares, and per-SDG bar normalization
for the figure. Document-presence shares read their own counters. A
statistic over nothing (an empty cell or panel, no directed record)
returns `None` or zeros.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from . import store
from .errors import DuplicateRecord, EmptyMatrix, ZeroCorpus, ZeroGlobal
from .pipeline import DocumentResult
from .taxonomy import Category, Direction, PB_COUNT, ReportBucket, SDG_COUNT, id_in_range
from .taxonomy import bucket, refined_labels_for

@dataclass(frozen=True)
class InteractionRecord:
    doc_id: str
    sdg: int
    pb: int
    bucket: ReportBucket
    direction: Optional[Direction] = None


def flatten(results: Iterable[DocumentResult]) -> list[InteractionRecord]:
    """One record per classified pair of every complete document."""
    records = []
    for res in results:
        if res.status != "complete":
            continue
        for pair in res.pairs:
            records.append(
                InteractionRecord(
                    doc_id=res.doc_id,
                    sdg=pair.sdg,
                    pb=pair.pb,
                    bucket=bucket(pair.category, pair.refined),
                    direction=pair.direction,
                )
            )
    return records


class CellRow(NamedTuple):
    """One cell's counts: the count columns of matrix.csv, in order."""

    total: int
    synergy: int
    neutral: int
    tradeoff: int
    ts: int
    dp: int
    generic_positive: int
    tt: int
    dn: int
    generic_negative: int
    sdg_to_pb: int
    pb_to_sdg: int


_EMPTY_ROW = CellRow._make([0] * len(CellRow._fields))

# the CellRow column of each Category, ReportBucket and Direction member,
# which is named after it
_COLUMN = {x: CellRow._fields.index(x.name.lower()) for x in (*Category, *ReportBucket, *Direction)}

# the columns a record of each bucket adds one to: the total, its category's
# and its bucket's, which for a neutral record are the same column
_CATEGORY = {bucket(c, label): c for c in Category for label in refined_labels_for(c) or (None,)}
_ADDS = {b: {0, _COLUMN[c], _COLUMN[b]} for b, c in _CATEGORY.items()}


@dataclass
class InteractionMatrix:
    rows: dict[tuple[int, int], CellRow] = field(default_factory=dict)
    doc_presence_sdg: dict[int, int] = field(default_factory=dict)
    doc_presence_pb: dict[int, int] = field(default_factory=dict)
    total_docs: int = 0
    total_records: int = 0


def build_matrix(records: Iterable[InteractionRecord], total_docs: int) -> InteractionMatrix:
    m = InteractionMatrix(total_docs=total_docs)
    seen: set[tuple[str, int, int]] = set()
    cells: dict[tuple[int, int], list[int]] = {}
    docs_by_sdg: dict[int, set[str]] = {}
    docs_by_pb: dict[int, set[str]] = {}
    for rec in records:
        key = (rec.doc_id, rec.sdg, rec.pb)
        if key in seen:
            raise DuplicateRecord(f"duplicate record for {key}")
        seen.add(key)
        row = cells.setdefault((rec.sdg, rec.pb), list(_EMPTY_ROW))
        for column in _ADDS[rec.bucket]:
            row[column] += 1
        if rec.direction is not None:
            row[_COLUMN[rec.direction]] += 1
        docs_by_sdg.setdefault(rec.sdg, set()).add(rec.doc_id)
        docs_by_pb.setdefault(rec.pb, set()).add(rec.doc_id)
        m.total_records += 1
    m.rows = {cell: CellRow._make(row) for cell, row in cells.items()}
    m.doc_presence_sdg = {s: len(d) for s, d in docs_by_sdg.items()}
    m.doc_presence_pb = {p: len(d) for p, d in docs_by_pb.items()}
    return m


def _nonzero(m: InteractionMatrix, members: Iterable[ReportBucket | Direction], name: str) -> list[dict]:
    """Each non-zero count of `members` in each cell: cells sorted, members by value."""
    columns = sorted((x.value, _COLUMN[x]) for x in members)
    return [{"sdg": s, "pb": p, name: value, "n": row[i]}
            for (s, p), row in sorted(m.rows.items()) for value, i in columns if row[i]]


def matrix_to_json(m: InteractionMatrix) -> dict:
    return {
        "total_docs": m.total_docs,
        "total_records": m.total_records,
        "counts": _nonzero(m, ReportBucket, "bucket"),
        "direction_counts": _nonzero(m, Direction, "direction"),
        "doc_presence_sdg": {str(k): v for k, v in sorted(m.doc_presence_sdg.items())},
        "doc_presence_pb": {str(k): v for k, v in sorted(m.doc_presence_pb.items())},
    }


def matrix_from_results(results: Sequence[DocumentResult]) -> InteractionMatrix:
    """The matrix of every complete document's pairs."""
    return build_matrix(flatten(results), sum(1 for r in results if r.status == "complete"))


def write_matrix(m: InteractionMatrix, path: str | Path) -> None:
    """Writes `matrix.json` whole (`store.replacing`)."""
    with store.replacing(path) as fh:
        fh.write(json.dumps(matrix_to_json(m), sort_keys=True, indent=2).encode("utf-8") + b"\n")


def cell_row(m: InteractionMatrix, sdg: int, pb: int) -> CellRow:
    """The counts of one cell; every statistic and output reads cells here."""
    return m.rows.get((sdg, pb), _EMPTY_ROW)


def _sum_rows(rows: Iterable[CellRow]) -> CellRow:
    return CellRow(*map(sum, zip(_EMPTY_ROW, *rows)))


def _matrix_row(m: InteractionMatrix) -> CellRow:
    """The counts of the whole matrix."""
    return _sum_rows(m.rows.values())


def _shares(row: CellRow, members: Iterable[Category | ReportBucket], n: int) -> dict:
    """Each member's count over `n`."""
    return {x: row[_COLUMN[x]] / n for x in members}


def cell_proportions(
    m: InteractionMatrix, sdg: int, pb: int
) -> dict[Category | ReportBucket, float] | None:
    """Each Category and ReportBucket member's share of one cell; None for an empty cell."""
    row = cell_row(m, sdg, pb)
    if row.total == 0:
        return None
    return _shares(row, (*Category, *ReportBucket), row.total)


def global_proportions(m: InteractionMatrix) -> tuple[dict[Category, float], dict[ReportBucket, float]]:
    if m.total_records == 0:
        raise EmptyMatrix("no records to aggregate")
    row = _matrix_row(m)
    return _shares(row, Category, m.total_records), _shares(row, ReportBucket, m.total_records)


def _goal(m: InteractionMatrix, axis: str, goal_id: int) -> tuple[int, list[tuple[int, int]]]:
    """The number of documents naming one goal, and the cells of its row
    (an SDG) or column (a PB) of the matrix."""
    if axis == "SDG":
        count, presence = SDG_COUNT, m.doc_presence_sdg
        cells = [(goal_id, pb) for pb in range(1, PB_COUNT + 1)]
    elif axis == "PB":
        count, presence = PB_COUNT, m.doc_presence_pb
        cells = [(sdg, goal_id) for sdg in range(1, SDG_COUNT + 1)]
    else:
        raise ValueError(f"axis must be 'SDG' or 'PB', got {axis!r}")
    return presence.get(id_in_range(goal_id, count, f"{axis} id"), 0), cells


def presence_share(m: InteractionMatrix, axis: str, goal_id: int) -> float:
    docs, _ = _goal(m, axis, goal_id)
    if m.total_docs == 0:
        raise ZeroCorpus("total_docs is zero")
    return docs / m.total_docs


def directionality(m: InteractionMatrix) -> tuple[int, float] | None:
    """(directed records, fraction of them driven PB-to-SDG); None when no
    record carries a direction."""
    row = _matrix_row(m)
    directed = row.sdg_to_pb + row.pb_to_sdg
    if directed == 0:
        return None
    return directed, row.pb_to_sdg / directed


def normalize_bars(m: InteractionMatrix, sdg: int) -> list[float]:
    """Nine bar lengths for one SDG panel, scaled so the busiest cell is 1;
    nine zeros for a panel with no records."""
    counts = [cell_row(m, sdg, pb).total for pb in range(1, PB_COUNT + 1)]
    peak = max(counts)
    return [c / peak if peak else 0.0 for c in counts]


def ratio_to_global(cell_share: float, global_share: float) -> float:
    if global_share <= 0:
        raise ZeroGlobal("global share is zero")
    return cell_share / global_share


def goal_tradeoff_shares(m: InteractionMatrix, axis: str, goal_id: int) -> dict[str, float] | None:
    """Per-goal link-share summary, with trade-offs both including and
    excluding co-degradation (DN)."""
    _, cells = _goal(m, axis, goal_id)
    row = _sum_rows(cell_row(m, sdg, pb) for sdg, pb in cells)
    if row.total == 0:
        return None
    return {
        "links": row.total,
        "synergy_share": row.synergy / row.total,
        "neutral_share": row.neutral / row.total,
        "tradeoff_share_incl_dn": row.tradeoff / row.total,
        "tradeoff_share_excl_dn": (row.tradeoff - row.dn) / row.total,
    }
