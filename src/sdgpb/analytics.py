"""Aggregation of pipeline results into the 17x9 interaction matrix.

All statistics are pure functions of the record stream: per-cell and
global category proportions, refined-bucket proportions, document-presence
shares, directionality shares, and per-SDG bar normalization for the
figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    DuplicateRecord,
    EmptyMatrix,
    EmptyPanel,
    NoDirectedRecords,
    ZeroCorpus,
    ZeroGlobal,
)
from .pipeline import DocumentResult
from .taxonomy import Category, Direction, PB_COUNT, ReportBucket, SDG_COUNT, bucket

CATEGORY_BY_BUCKET = {
    ReportBucket.TS: Category.SYNERGY,
    ReportBucket.DP: Category.SYNERGY,
    ReportBucket.GENERIC_POSITIVE: Category.SYNERGY,
    ReportBucket.TT: Category.TRADEOFF,
    ReportBucket.DN: Category.TRADEOFF,
    ReportBucket.GENERIC_NEGATIVE: Category.TRADEOFF,
    ReportBucket.NEUTRAL: Category.NEUTRAL,
}


@dataclass(frozen=True)
class InteractionRecord:
    doc_id: str
    sdg: int
    pb: int
    category: Category
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
                    category=pair.category,
                    bucket=bucket(pair.category, pair.refined),
                    direction=pair.direction,
                )
            )
    return records


@dataclass
class InteractionMatrix:
    counts: dict[tuple[int, int], dict[ReportBucket, int]] = field(default_factory=dict)
    direction_counts: dict[tuple[int, int], dict[Direction, int]] = field(default_factory=dict)
    doc_presence_sdg: dict[int, int] = field(default_factory=dict)
    doc_presence_pb: dict[int, int] = field(default_factory=dict)
    total_docs: int = 0
    total_records: int = 0

    def cell_total(self, sdg: int, pb: int) -> int:
        return sum(self.counts.get((sdg, pb), {}).values())

    def cell_count(self, sdg: int, pb: int, b: ReportBucket) -> int:
        return self.counts.get((sdg, pb), {}).get(b, 0)

    def category_count(self, sdg: int, pb: int, category: Category) -> int:
        return sum(
            n for b, n in self.counts.get((sdg, pb), {}).items()
            if CATEGORY_BY_BUCKET[b] is category
        )


def build_matrix(records: Iterable[InteractionRecord], total_docs: int) -> InteractionMatrix:
    m = InteractionMatrix(total_docs=total_docs)
    seen: set[tuple[str, int, int]] = set()
    docs_by_sdg: dict[int, set[str]] = {}
    docs_by_pb: dict[int, set[str]] = {}
    for rec in records:
        key = (rec.doc_id, rec.sdg, rec.pb)
        if key in seen:
            raise DuplicateRecord(f"duplicate record for {key}")
        seen.add(key)
        cell = m.counts.setdefault((rec.sdg, rec.pb), {})
        cell[rec.bucket] = cell.get(rec.bucket, 0) + 1
        if rec.direction is not None:
            dcell = m.direction_counts.setdefault((rec.sdg, rec.pb), {})
            dcell[rec.direction] = dcell.get(rec.direction, 0) + 1
        docs_by_sdg.setdefault(rec.sdg, set()).add(rec.doc_id)
        docs_by_pb.setdefault(rec.pb, set()).add(rec.doc_id)
        m.total_records += 1
    m.doc_presence_sdg = {s: len(d) for s, d in docs_by_sdg.items()}
    m.doc_presence_pb = {p: len(d) for p, d in docs_by_pb.items()}
    return m


def matrix_to_json(m: InteractionMatrix) -> dict:
    return {
        "total_docs": m.total_docs,
        "total_records": m.total_records,
        "counts": [
            {"sdg": s, "pb": p, "bucket": b.value, "n": n}
            for (s, p), cell in sorted(m.counts.items())
            for b, n in sorted(cell.items(), key=lambda kv: kv[0].value)
        ],
        "direction_counts": [
            {"sdg": s, "pb": p, "direction": d.value, "n": n}
            for (s, p), cell in sorted(m.direction_counts.items())
            for d, n in sorted(cell.items(), key=lambda kv: kv[0].value)
        ],
        "doc_presence_sdg": {str(k): v for k, v in sorted(m.doc_presence_sdg.items())},
        "doc_presence_pb": {str(k): v for k, v in sorted(m.doc_presence_pb.items())},
    }


def matrix_from_json(obj: dict) -> InteractionMatrix:
    m = InteractionMatrix(
        total_docs=obj["total_docs"],
        total_records=obj["total_records"],
        doc_presence_sdg={int(k): v for k, v in obj["doc_presence_sdg"].items()},
        doc_presence_pb={int(k): v for k, v in obj["doc_presence_pb"].items()},
    )
    for entry in obj["counts"]:
        cell = m.counts.setdefault((entry["sdg"], entry["pb"]), {})
        cell[ReportBucket(entry["bucket"])] = entry["n"]
    for entry in obj["direction_counts"]:
        cell = m.direction_counts.setdefault((entry["sdg"], entry["pb"]), {})
        cell[Direction(entry["direction"])] = entry["n"]
    return m


@dataclass(frozen=True)
class CellShares:
    synergy: float
    neutral: float
    tradeoff: float
    bucket_shares: dict[ReportBucket, float]
    synergy_bucket_shares: dict[ReportBucket, float]
    tradeoff_bucket_shares: dict[ReportBucket, float]
    total: int


def cell_proportions(m: InteractionMatrix, sdg: int, pb: int) -> CellShares | None:
    total = m.cell_total(sdg, pb)
    if total == 0:
        return None
    syn = m.category_count(sdg, pb, Category.SYNERGY)
    neu = m.category_count(sdg, pb, Category.NEUTRAL)
    trd = m.category_count(sdg, pb, Category.TRADEOFF)
    bucket_shares = {b: m.cell_count(sdg, pb, b) / total for b in ReportBucket}
    syn_buckets = (ReportBucket.TS, ReportBucket.DP, ReportBucket.GENERIC_POSITIVE)
    trd_buckets = (ReportBucket.TT, ReportBucket.DN, ReportBucket.GENERIC_NEGATIVE)
    synergy_bucket_shares = (
        {b: m.cell_count(sdg, pb, b) / syn for b in syn_buckets} if syn else {}
    )
    tradeoff_bucket_shares = (
        {b: m.cell_count(sdg, pb, b) / trd for b in trd_buckets} if trd else {}
    )
    return CellShares(
        synergy=syn / total,
        neutral=neu / total,
        tradeoff=trd / total,
        bucket_shares=bucket_shares,
        synergy_bucket_shares=synergy_bucket_shares,
        tradeoff_bucket_shares=tradeoff_bucket_shares,
        total=total,
    )


def global_proportions(m: InteractionMatrix) -> tuple[dict[Category, float], dict[ReportBucket, float]]:
    if m.total_records == 0:
        raise EmptyMatrix("no records to aggregate")
    bucket_totals = {b: 0 for b in ReportBucket}
    for cell in m.counts.values():
        for b, n in cell.items():
            bucket_totals[b] += n
    category_totals = {c: 0 for c in Category}
    for b, n in bucket_totals.items():
        category_totals[CATEGORY_BY_BUCKET[b]] += n
    n = m.total_records
    return (
        {c: category_totals[c] / n for c in Category},
        {b: bucket_totals[b] / n for b in ReportBucket},
    )


def presence_share(m: InteractionMatrix, axis: str, goal_id: int) -> float:
    if m.total_docs == 0:
        raise ZeroCorpus("total_docs is zero")
    presence = m.doc_presence_sdg if axis == "SDG" else m.doc_presence_pb
    return presence.get(goal_id, 0) / m.total_docs


def directionality(m: InteractionMatrix) -> tuple[int, float]:
    """(directed records, fraction of them driven PB-to-SDG)."""
    directed = pb_driven = 0
    for cell in m.direction_counts.values():
        directed += sum(cell.values())
        pb_driven += cell.get(Direction.PB_TO_SDG, 0)
    if directed == 0:
        raise NoDirectedRecords("no records carry a direction")
    return directed, pb_driven / directed


def normalize_bars(m: InteractionMatrix, sdg: int) -> list[float]:
    """Nine bar lengths for one SDG panel, scaled so the busiest cell is 1."""
    counts = [m.cell_total(sdg, pb) for pb in range(1, PB_COUNT + 1)]
    peak = max(counts)
    if peak == 0:
        raise EmptyPanel(f"SDG {sdg} has no records")
    return [c / peak for c in counts]


def ratio_to_global(cell_share: float, global_share: float) -> float:
    if global_share <= 0:
        raise ZeroGlobal("global share is zero")
    return cell_share / global_share


def goal_tradeoff_shares(m: InteractionMatrix, axis: str, goal_id: int) -> dict[str, float] | None:
    """Per-goal link-share summary, with trade-offs both including and
    excluding co-degradation (DN)."""
    if axis == "SDG":
        cells = [(goal_id, pb) for pb in range(1, PB_COUNT + 1)]
    else:
        cells = [(sdg, goal_id) for sdg in range(1, SDG_COUNT + 1)]
    total = sum(m.cell_total(s, p) for s, p in cells)
    if total == 0:
        return None
    syn = sum(m.category_count(s, p, Category.SYNERGY) for s, p in cells)
    neu = sum(m.category_count(s, p, Category.NEUTRAL) for s, p in cells)
    trd = sum(m.category_count(s, p, Category.TRADEOFF) for s, p in cells)
    dn = sum(m.cell_count(s, p, ReportBucket.DN) for s, p in cells)
    return {
        "links": total,
        "synergy_share": syn / total,
        "neutral_share": neu / total,
        "tradeoff_share_incl_dn": trd / total,
        "tradeoff_share_excl_dn": (trd - dn) / total,
    }
