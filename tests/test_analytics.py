import csv
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sdgpb import analytics
from sdgpb.analytics import (
    CellRow,
    InteractionRecord,
    build_matrix,
    cell_proportions,
    cell_row,
    directionality,
    global_proportions,
    goal_tradeoff_shares,
    matrix_to_json,
    normalize_bars,
    presence_share,
    ratio_to_global,
)
from sdgpb.errors import (
    DuplicateRecord,
    EmptyMatrix,
    OutOfRange,
    ZeroCorpus,
    ZeroGlobal,
)
from sdgpb.reporting import emit_matrix_csv
from sdgpb.taxonomy import Category, Direction, ReportBucket

BUCKET_CATEGORY = {
    ReportBucket.TS: Category.SYNERGY,
    ReportBucket.DP: Category.SYNERGY,
    ReportBucket.GENERIC_POSITIVE: Category.SYNERGY,
    ReportBucket.TT: Category.TRADEOFF,
    ReportBucket.DN: Category.TRADEOFF,
    ReportBucket.GENERIC_NEGATIVE: Category.TRADEOFF,
    ReportBucket.NEUTRAL: Category.NEUTRAL,
}


def rec(doc, sdg, pb, bucket, direction=None):
    return InteractionRecord(doc, sdg, pb, bucket, direction)


def cell_records(sdg, pb, bucket_counts, direction=None, prefix="doc"):
    """bucket_counts: {bucket: n}; each record gets its own doc id."""
    records = []
    i = 0
    for bucket, n in bucket_counts.items():
        d = direction
        if d is None and BUCKET_CATEGORY[bucket] is not Category.NEUTRAL:
            d = Direction.PB_TO_SDG
        for _ in range(n):
            records.append(rec(f"{prefix}-{sdg}-{pb}-{i}", sdg, pb, bucket, d))
            i += 1
    return records


# -- naive oracle -------------------------------------------------------------


def naive_stats(records, total_docs):
    """Independent recount used as the oracle; no matrix machinery."""
    cells = Counter()
    cat_cells = Counter()
    dir_cells = Counter()
    docs_sdg = {}
    docs_pb = {}
    buckets = Counter()
    cats = Counter()
    directed = 0
    pb_driven = 0
    for r in records:
        cells[(r.sdg, r.pb, r.bucket)] += 1
        cat_cells[(r.sdg, r.pb, BUCKET_CATEGORY[r.bucket])] += 1
        buckets[r.bucket] += 1
        cats[BUCKET_CATEGORY[r.bucket]] += 1
        docs_sdg.setdefault(r.sdg, set()).add(r.doc_id)
        docs_pb.setdefault(r.pb, set()).add(r.doc_id)
        if r.direction is not None:
            dir_cells[(r.sdg, r.pb, r.direction)] += 1
            directed += 1
            if r.direction is Direction.PB_TO_SDG:
                pb_driven += 1
    n = len(records)
    return {
        "cells": cells,
        "cat_cells": cat_cells,
        "dir_cells": dir_cells,
        "category_shares": {c: cats[c] / n for c in Category} if n else None,
        "bucket_shares": {b: buckets[b] / n for b in ReportBucket} if n else None,
        "presence_sdg": {s: len(d) / total_docs for s, d in docs_sdg.items()} if total_docs else None,
        "presence_pb": {p: len(d) / total_docs for p, d in docs_pb.items()} if total_docs else None,
        "directed": directed,
        "pb_to_sdg": pb_driven / directed if directed else None,
    }


def naive_goal_shares(oracle, axis, goal):
    """goal_tradeoff_shares recounted over the goal's cells."""
    if axis == "SDG":
        cells = [(goal, p) for p in range(1, 10)]
    else:
        cells = [(s, goal) for s in range(1, 18)]
    cat = {c: sum(oracle["cat_cells"][(s, p, c)] for s, p in cells) for c in Category}
    dn = sum(oracle["cells"][(s, p, ReportBucket.DN)] for s, p in cells)
    total = sum(cat.values())
    if total == 0:
        return None
    return {
        "links": total,
        "synergy_share": cat[Category.SYNERGY] / total,
        "neutral_share": cat[Category.NEUTRAL] / total,
        "tradeoff_share_incl_dn": cat[Category.TRADEOFF] / total,
        "tradeoff_share_excl_dn": (cat[Category.TRADEOFF] - dn) / total,
    }


def naive_csv_row(oracle, s, p):
    """One matrix.csv row recounted, in the pinned column order."""
    buckets = (ReportBucket.TS, ReportBucket.DP, ReportBucket.GENERIC_POSITIVE,
               ReportBucket.TT, ReportBucket.DN, ReportBucket.GENERIC_NEGATIVE)
    cats = (Category.SYNERGY, Category.NEUTRAL, Category.TRADEOFF)
    row = [s, p, sum(oracle["cells"][(s, p, b)] for b in ReportBucket)]
    row += [oracle["cat_cells"][(s, p, c)] for c in cats]
    row += [oracle["cells"][(s, p, b)] for b in buckets]
    row += [oracle["dir_cells"][(s, p, d)] for d in (Direction.SDG_TO_PB, Direction.PB_TO_SDG)]
    return [str(x) for x in row]


def random_records(rng, n):
    records = []
    used = set()
    while len(records) < n:
        doc = f"doc-{rng.randrange(200)}"
        sdg = rng.randint(1, 17)
        pb = rng.randint(1, 9)
        if (doc, sdg, pb) in used:
            continue
        used.add((doc, sdg, pb))
        bucket = rng.choice(list(ReportBucket))
        direction = None
        if BUCKET_CATEGORY[bucket] is not Category.NEUTRAL:
            direction = rng.choice(list(Direction))
        records.append(rec(doc, sdg, pb, bucket, direction))
    return records


def assert_matches_oracle(records, total_docs):
    oracle = naive_stats(records, total_docs)
    m = build_matrix(records, total_docs)
    assert m.total_records == len(records)
    cats, buckets = global_proportions(m)
    for c in Category:
        assert abs(cats[c] - oracle["category_shares"][c]) <= 1e-12
    for b in ReportBucket:
        assert abs(buckets[b] - oracle["bucket_shares"][b]) <= 1e-12
    for s in range(1, 18):
        expected = oracle["presence_sdg"].get(s, 0.0)
        assert abs(presence_share(m, "SDG", s) - expected) <= 1e-12
    for p in range(1, 10):
        expected = oracle["presence_pb"].get(p, 0.0)
        assert abs(presence_share(m, "PB", p) - expected) <= 1e-12
    if oracle["pb_to_sdg"] is not None:
        directed, share = directionality(m)
        assert directed == oracle["directed"]
        assert abs(share - oracle["pb_to_sdg"]) <= 1e-12
    else:
        assert directionality(m) is None
    # per-cell shares against naive per-cell recount
    for s, p in m.rows:
        shares = cell_proportions(m, s, p)
        total = sum(oracle["cells"][(s, p, b)] for b in ReportBucket)
        assert cell_row(m, s, p).total == total
        for cat in Category:
            assert abs(shares[cat] - oracle["cat_cells"][(s, p, cat)] / total) <= 1e-12
        assert abs(sum(shares[c] for c in Category) - 1.0) <= 1e-12
        assert abs(sum(shares[b] for b in ReportBucket) - 1.0) <= 1e-12
    # normalization
    for s in range(1, 18):
        counts = [sum(oracle["cells"][(s, p, b)] for b in ReportBucket) for p in range(1, 10)]
        if max(counts) == 0:
            assert normalize_bars(m, s) == [0.0] * 9
        else:
            bars = normalize_bars(m, s)
            assert max(bars) == 1.0
            for p in range(1, 10):
                assert abs(bars[p - 1] - counts[p - 1] / max(counts)) <= 1e-12
    # per-goal shares for all 17 SDGs and 9 PBs
    for axis, count in (("SDG", 17), ("PB", 9)):
        for goal in range(1, count + 1):
            assert goal_tradeoff_shares(m, axis, goal) == naive_goal_shares(oracle, axis, goal)
    # every column of every CSV row
    rows = list(csv.reader(io.StringIO(emit_matrix_csv(m))))[1:]
    assert rows == [naive_csv_row(oracle, s, p) for s in range(1, 18) for p in range(1, 10)]


def test_randomized_oracle_equivalence():
    rng = random.Random(12345)
    for trial in range(60):
        n = rng.randint(1, 400)
        records = random_records(rng, n)
        assert_matches_oracle(records, total_docs=200)


def naive_json_counts(oracle):
    """matrix.json's count lists rebuilt from the oracle's counters."""
    def entries(counter, members, name):
        return [{"sdg": s, "pb": p, name: x.value, "n": counter[(s, p, x)]}
                for s in range(1, 18) for p in range(1, 10)
                for x in sorted(members, key=lambda x: x.value) if counter[(s, p, x)]]
    return (entries(oracle["cells"], ReportBucket, "bucket"),
            entries(oracle["dir_cells"], Direction, "direction"))


def test_randomized_matrix_json_counts_match_naive_recount():
    rng = random.Random(4242)
    for trial in range(60):
        records = random_records(rng, rng.randint(1, 400))
        doc = matrix_to_json(build_matrix(records, 200))
        counts, direction_counts = naive_json_counts(naive_stats(records, 200))
        assert doc["counts"] == counts
        assert doc["direction_counts"] == direction_counts


def test_order_invariance():
    rng = random.Random(99)
    records = random_records(rng, 300)
    m1 = build_matrix(records, 200)
    shuffled = list(records)
    rng.shuffle(shuffled)
    m2 = build_matrix(shuffled, 200)
    assert matrix_to_json(m1) == matrix_to_json(m2)


# -- basic counting ----------------------------------------------------------


def test_empty_matrix_counts():
    m = build_matrix([], 10)
    assert m.total_records == 0 and m.total_docs == 10
    assert m.doc_presence_sdg == {} and m.doc_presence_pb == {}


def test_single_doc_two_pairs_counting():
    records = [
        rec("d1", 2, 6, ReportBucket.TS, Direction.PB_TO_SDG),
        rec("d1", 6, 6, ReportBucket.NEUTRAL),
    ]
    m = build_matrix(records, 10)
    assert m.total_records == 2
    assert m.doc_presence_pb[6] == 1
    assert m.doc_presence_sdg[2] == 1 and m.doc_presence_sdg[6] == 1


def test_duplicate_record_rejected():
    records = [
        rec("d1", 2, 6, ReportBucket.TS, Direction.PB_TO_SDG),
        rec("d1", 2, 6, ReportBucket.TT, Direction.PB_TO_SDG),
    ]
    with pytest.raises(DuplicateRecord):
        build_matrix(records, 10)


# -- fixed-share arithmetic on constructed multisets ---------------------------


def test_cell_755_of_1000_tradeoffs():
    records = cell_records(14, 2, {ReportBucket.TT: 755, ReportBucket.TS: 145,
                                   ReportBucket.NEUTRAL: 100})
    m = build_matrix(records, 1000)
    shares = cell_proportions(m, 14, 2)
    assert shares[Category.TRADEOFF] == pytest.approx(0.755, abs=1e-12)


def test_cell_all_synergy():
    m = build_matrix(cell_records(1, 1, {ReportBucket.TS: 10}), 10)
    shares = cell_proportions(m, 1, 1)
    assert [shares[c] for c in (Category.SYNERGY, Category.NEUTRAL, Category.TRADEOFF)] == [1.0, 0.0, 0.0]


def test_dn_share_of_tradeoffs():
    records = cell_records(14, 2, {ReportBucket.DN: 975, ReportBucket.TT: 25})
    m = build_matrix(records, 1000)
    shares = cell_proportions(m, 14, 2)
    assert shares[ReportBucket.DN] / shares[Category.TRADEOFF] == pytest.approx(0.975, abs=1e-12)


def test_empty_cell_has_no_proportions():
    m = build_matrix(cell_records(1, 1, {ReportBucket.TS: 1}), 1)
    assert cell_proportions(m, 5, 5) is None


def test_global_category_shares_constructed():
    # the three published category percentages sum to 98.2%, so a closed
    # three-category multiset can realize at most two of them at once
    records = (cell_records(1, 1, {ReportBucket.TS: 283, ReportBucket.DP: 55}, prefix="s")
               + cell_records(2, 1, {ReportBucket.TT: 211, ReportBucket.DN: 238}, prefix="t")
               + cell_records(3, 1, {ReportBucket.NEUTRAL: 213}, prefix="n"))
    m = build_matrix(records, 1000)
    cats, buckets = global_proportions(m)
    assert m.total_records == 1000
    assert cats[Category.SYNERGY] == pytest.approx(0.338, abs=1e-12)
    assert cats[Category.TRADEOFF] == pytest.approx(0.449, abs=1e-12)
    assert buckets[ReportBucket.TS] == pytest.approx(0.283, abs=1e-12)
    assert buckets[ReportBucket.TT] == pytest.approx(0.211, abs=1e-12)
    assert sum(cats.values()) == pytest.approx(1.0, abs=1e-12)

    neutral_fixture = (cell_records(1, 1, {ReportBucket.TS: 805}, prefix="s")
                       + cell_records(3, 1, {ReportBucket.NEUTRAL: 195}, prefix="n"))
    cats, _ = global_proportions(build_matrix(neutral_fixture, 1000))
    assert cats[Category.NEUTRAL] == pytest.approx(0.195, abs=1e-12)


def test_global_proportions_empty():
    with pytest.raises(EmptyMatrix):
        global_proportions(build_matrix([], 10))


def test_presence_shares():
    records = []
    for i in range(421):
        records.append(rec(f"p6-{i}", 15, 6, ReportBucket.NEUTRAL))
    for i in range(120):
        records.append(rec(f"p2-{i}", 14, 2, ReportBucket.NEUTRAL))
    m = build_matrix(records, 1000)
    assert presence_share(m, "PB", 6) == pytest.approx(0.421, abs=1e-12)
    assert presence_share(m, "PB", 2) == pytest.approx(0.12, abs=1e-12)
    assert presence_share(m, "PB", 9) == 0.0
    with pytest.raises(ZeroCorpus):
        presence_share(build_matrix([], 0), "PB", 6)


def test_directionality_share():
    records = []
    for i in range(694):
        records.append(rec(f"a{i}", 1, 1, ReportBucket.TS, Direction.PB_TO_SDG))
    for i in range(306):
        records.append(rec(f"b{i}", 1, 2, ReportBucket.TS, Direction.SDG_TO_PB))
    assert directionality(build_matrix(records, 1000)) == (1000, pytest.approx(0.694, abs=1e-12))
    only_sdg = [rec(f"c{i}", 1, 1, ReportBucket.TT, Direction.SDG_TO_PB) for i in range(5)]
    assert directionality(build_matrix(only_sdg, 5)) == (5, 0.0)
    neutral = [rec("n", 1, 1, ReportBucket.NEUTRAL)]
    assert directionality(build_matrix(neutral, 1)) is None


def test_normalize_bars_examples():
    records = cell_records(1, 1, {ReportBucket.TS: 10}) + cell_records(1, 2, {ReportBucket.TT: 5})
    m = build_matrix(records, 20)
    bars = normalize_bars(m, 1)
    assert bars[0] == 1.0 and bars[1] == 0.5 and bars[2:] == [0.0] * 7

    equal = []
    for p in range(1, 10):
        equal += cell_records(2, p, {ReportBucket.NEUTRAL: 3})
    m = build_matrix(equal, 50)
    assert normalize_bars(m, 2) == [1.0] * 9

    assert normalize_bars(m, 9) == [0.0] * 9


def test_ratio_to_global():
    assert ratio_to_global(0.755, 0.449) == pytest.approx(0.755 / 0.449, abs=1e-15)
    assert round(ratio_to_global(0.755, 0.449), 2) == 1.68
    assert ratio_to_global(0.4, 0.4) == 1.0
    with pytest.raises(ZeroGlobal):
        ratio_to_global(0.5, 0.0)


def test_goal_tradeoff_shares_incl_and_excl_dn():
    records = cell_records(2, 6, {ReportBucket.TT: 30, ReportBucket.DN: 20,
                                  ReportBucket.TS: 25, ReportBucket.NEUTRAL: 25})
    m = build_matrix(records, 100)
    shares = goal_tradeoff_shares(m, "PB", 6)
    assert shares["tradeoff_share_incl_dn"] == pytest.approx(0.5, abs=1e-12)
    assert shares["tradeoff_share_excl_dn"] == pytest.approx(0.3, abs=1e-12)
    assert goal_tradeoff_shares(m, "SDG", 17) is None


def test_goal_shares_reject_unknown_axis():
    m = build_matrix(cell_records(1, 1, {ReportBucket.TS: 4}), 10)
    for axis in ("sdg", "pb", "xyz", ""):
        with pytest.raises(ValueError):
            presence_share(m, axis, 1)
        with pytest.raises(ValueError):
            goal_tradeoff_shares(m, axis, 1)
    with pytest.raises(ValueError):
        goal_tradeoff_shares(m, "xyz", 99)


@pytest.mark.parametrize("axis, goal", [("SDG", 0), ("SDG", 18), ("PB", 0), ("PB", 10)])
def test_goal_shares_reject_out_of_range_goal(axis, goal):
    m = build_matrix(cell_records(1, 1, {ReportBucket.TS: 4}), 10)
    with pytest.raises(OutOfRange):
        presence_share(m, axis, goal)
    with pytest.raises(OutOfRange):
        goal_tradeoff_shares(m, axis, goal)


def test_cell_row_counts():
    records = cell_records(2, 6, {ReportBucket.TT: 3, ReportBucket.DN: 2, ReportBucket.TS: 5,
                                  ReportBucket.DP: 1, ReportBucket.NEUTRAL: 4})
    m = build_matrix(records, 20)
    assert cell_row(m, 2, 6) == CellRow(
        total=15, synergy=6, neutral=4, tradeoff=5,
        ts=5, dp=1, generic_positive=0, tt=3, dn=2, generic_negative=0,
        sdg_to_pb=0, pb_to_sdg=11,
    )
    assert cell_row(m, 6, 2) == CellRow(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_cell_row_fields_name_every_category_and_bucket():
    # shares look each Category and ReportBucket member up by its lower-cased name
    for member in (*Category, *ReportBucket):
        assert member.name.lower() in CellRow._fields


@settings(max_examples=50)
@given(st.lists(
    st.tuples(
        st.integers(0, 40), st.integers(1, 17), st.integers(1, 9),
        st.sampled_from(list(ReportBucket)),
    ),
    max_size=80,
))
def test_property_matrix_matches_oracle(raw):
    seen = set()
    records = []
    for doc_i, sdg, pb, bucket in raw:
        key = (f"doc-{doc_i}", sdg, pb)
        if key in seen:
            continue
        seen.add(key)
        direction = Direction.PB_TO_SDG if BUCKET_CATEGORY[bucket] is not Category.NEUTRAL else None
        records.append(rec(key[0], sdg, pb, bucket, direction))
    if records:
        assert_matches_oracle(records, total_docs=50)
