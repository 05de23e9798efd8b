import csv
import io
import json
from xml.etree import ElementTree

import pytest

from sdgpb.analytics import build_matrix
from sdgpb.errors import EmptyMatrix
from sdgpb.reporting import (
    CSV_HEADER,
    emit_matrix_csv,
    emit_summary_json,
    figure_spec,
    render_svg,
)
from sdgpb.taxonomy import Category, ReportBucket

from test_analytics import cell_records

# matrix.csv's columns, written out: the header is derived from CellRow
CSV_COLUMNS = [
    "sdg", "pb", "total",
    "synergy", "neutral", "tradeoff",
    "ts", "dp", "generic_positive",
    "tt", "dn", "generic_negative",
    "sdg_to_pb", "pb_to_sdg",
]


def sample_matrix():
    records = []
    records += cell_records(2, 6, {ReportBucket.TT: 30, ReportBucket.DN: 10,
                                   ReportBucket.TS: 15, ReportBucket.NEUTRAL: 5})
    records += cell_records(2, 1, {ReportBucket.TS: 12, ReportBucket.DP: 6,
                                   ReportBucket.GENERIC_POSITIVE: 2})
    records += cell_records(13, 6, {ReportBucket.TT: 8, ReportBucket.NEUTRAL: 8})
    records += cell_records(14, 2, {ReportBucket.DN: 39, ReportBucket.TT: 1})
    return build_matrix(records, 150)


def test_figure_spec_structure():
    spec = figure_spec(sample_matrix())
    assert len(spec.panels) == 17
    for panel in spec.panels:
        assert len(panel.bars) == 9
        assert 0.0 <= panel.doc_share <= 1.0


def test_figure_spec_empty_cell_bar():
    spec = figure_spec(sample_matrix())
    bar = spec.panels[0].bars[0]  # SDG1 x PB1 never linked
    assert bar.length == 0.0 and bar.link_count == 0


def test_figure_spec_nonempty_bar_shares_sum_to_one():
    spec = figure_spec(sample_matrix())
    for panel in spec.panels:
        for bar in panel.bars:
            if bar.link_count > 0:
                total = sum(bar.shares[c] for c in Category)
                assert total == pytest.approx(1.0, abs=1e-9)


def test_figure_spec_overlays_within_parent_segments():
    spec = figure_spec(sample_matrix())
    for panel in spec.panels:
        for bar in panel.bars:
            b = bar.shares
            assert b[ReportBucket.TS] + b[ReportBucket.DP] <= b[Category.SYNERGY] + 1e-12
            assert b[ReportBucket.TT] + b[ReportBucket.DN] <= b[Category.TRADEOFF] + 1e-12


def test_figure_spec_max_bar_is_one():
    spec = figure_spec(sample_matrix())
    for panel in spec.panels:
        lengths = [bar.length for bar in panel.bars]
        if any(bar.link_count for bar in panel.bars):
            assert max(lengths) == 1.0


def test_figure_spec_empty_matrix():
    with pytest.raises(EmptyMatrix):
        figure_spec(build_matrix([], 5))


def test_svg_well_formed_with_panel_and_bar_groups():
    svg = render_svg(figure_spec(sample_matrix()))
    root = ElementTree.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    panels = [g for g in root.iter(f"{ns}g") if g.get("class") == "panel"]
    bars = [g for g in root.iter(f"{ns}g") if g.get("class") == "bar"]
    assert len(panels) == 17
    assert len(bars) == 153


def test_svg_draws_no_segment_in_a_panel_without_records():
    svg = render_svg(figure_spec(sample_matrix()))
    root = ElementTree.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    panels = {g.get("id"): g for g in root.iter(f"{ns}g") if g.get("class") == "panel"}
    # sample_matrix links SDG 2, 13 and 14 only
    for sdg, panel in ((1, panels["sdg-1"]), (17, panels["sdg-17"])):
        bars = [g for g in panel.iter(f"{ns}g") if g.get("class") == "bar"]
        assert len(bars) == 9, sdg
        assert [r.get("class") for bar in bars for r in bar.iter(f"{ns}rect")] == [], sdg
    linked = [r for r in panels["sdg-2"].iter(f"{ns}rect") if r.get("class") == "seg-synergy"]
    assert linked


def test_svg_deterministic_bytes():
    m = sample_matrix()
    assert render_svg(figure_spec(m)) == render_svg(figure_spec(m))


def test_dark_overlay_width_is_product_of_shares():
    # one cell: synergy share 0.692, TS = 88.8% of synergies
    records = cell_records(12, 6, {ReportBucket.TS: 6144, ReportBucket.DP: 775,
                                   ReportBucket.GENERIC_POSITIVE: 1,
                                   ReportBucket.TT: 1540, ReportBucket.NEUTRAL: 1540})
    m = build_matrix(records, 10000)
    spec = figure_spec(m)
    bar = spec.panels[11].bars[5]
    assert bar.shares[Category.SYNERGY] == pytest.approx(0.692, abs=1e-4)
    assert bar.shares[ReportBucket.TS] / bar.shares[Category.SYNERGY] == pytest.approx(0.888, abs=1e-3)
    # rendered dark overlay width = TS share x bar length in px
    svg = render_svg(spec).decode()
    ts_rects = [line for line in svg.splitlines() if 'class="overlay-ts"' in line]
    assert ts_rects  # dark overlay present for the TS portion


def test_overlay_never_exceeds_segment_in_svg():
    svg = render_svg(figure_spec(sample_matrix())).decode()

    def widths(cls):
        out = []
        for line in svg.splitlines():
            if f'class="{cls}"' in line:
                w = float(line.split('width="')[1].split('"')[0])
                out.append(w)
        return out

    assert sum(widths("overlay-ts")) <= sum(widths("seg-synergy")) + 1e-6
    assert sum(widths("overlay-tt")) <= sum(widths("seg-tradeoff")) + 1e-6


def test_csv_row_count_and_header():
    text = emit_matrix_csv(sample_matrix())
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:3] == ["sdg", "pb", "total"]
    assert len(rows) == 154  # header + 17*9


def test_csv_header_is_pinned():
    assert CSV_HEADER == CSV_COLUMNS
    rows = list(csv.reader(io.StringIO(emit_matrix_csv(sample_matrix()))))
    assert rows[0] == CSV_COLUMNS
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)


def test_csv_empty_matrix_zeros():
    text = emit_matrix_csv(build_matrix([], 0))
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 154
    assert all(r[2] == "0" for r in rows[1:])


def test_csv_cell_values():
    text = emit_matrix_csv(sample_matrix())
    rows = {(r[0], r[1]): r for r in list(csv.reader(io.StringIO(text)))[1:]}
    row = rows[("2", "6")]
    header_idx = {name: i for i, name in enumerate(CSV_COLUMNS)}
    assert row[header_idx["total"]] == "60"
    assert row[header_idx["tt"]] == "30"
    assert row[header_idx["dn"]] == "10"
    assert row[header_idx["ts"]] == "15"
    assert row[header_idx["neutral"]] == "5"


def test_summary_json_round_trip_bit_exact():
    m = sample_matrix()
    summary = json.loads(emit_summary_json(m))
    # display strings use one decimal
    assert summary["global"]["category_display"]["trade-off"].endswith("%")
    shares = summary["global"]["category_shares"]
    assert shares["synergy"] + shares["neutral"] + shares["trade-off"] == pytest.approx(1.0)


def test_summary_reports_both_tradeoff_columns():
    summary = json.loads(emit_summary_json(sample_matrix()))
    pb6 = summary["per_pb"]["6"]
    assert pb6["tradeoff_share_incl_dn"] > pb6["tradeoff_share_excl_dn"]


def test_summary_of_an_all_neutral_matrix_has_no_directionality():
    m = build_matrix(cell_records(3, 4, {ReportBucket.NEUTRAL: 6}), 10)
    summary = json.loads(emit_summary_json(m))
    assert "directionality" not in summary
    assert summary["total_records"] == 6
    assert "directionality" in json.loads(emit_summary_json(sample_matrix()))


def test_reporting_pure_functions_of_matrix():
    m = sample_matrix()
    assert emit_matrix_csv(m) == emit_matrix_csv(m)
    assert emit_summary_json(m) == emit_summary_json(m)
