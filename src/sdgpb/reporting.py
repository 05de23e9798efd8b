"""Machine-readable tables and the 17-panel stacked-bar figure.

The figure has one panel per SDG: a header bar showing the share of
documents mentioning the SDG, then nine horizontal bars (one per PB)
normalized to the busiest cell of that panel. Each bar stacks green
(synergy), beige (neutral), and red (trade-off) segments; darker fills
inside the green and red segments mark validated TS and TT, with a medium
shade for DP and DN.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from . import store
from .analytics import (
    CellRow,
    InteractionMatrix,
    cell_proportions,
    cell_row,
    directionality,
    global_proportions,
    goal_tradeoff_shares,
    normalize_bars,
    presence_share,
)
from .errors import EmptyMatrix, EmptyPanel, NoDirectedRecords
from .taxonomy import Category, Direction, PB_COUNT, ReportBucket, SDG_COUNT

STYLE = {
    "panel_cols": 4,
    "panel_rows": 5,
    "panel_w": 250,
    "panel_h": 180,
    "margin": 14,
    "label_w": 46,
    "bar_h": 11,
    "bar_gap": 4,
    "font": "Helvetica, Arial, sans-serif",
    "synergy_light": "#a8d5a2",
    "synergy_mid": "#5aa85a",
    "synergy_dark": "#1e6b1e",
    "neutral": "#e6dcc3",
    "tradeoff_light": "#f2b3ac",
    "tradeoff_mid": "#e06a5e",
    "tradeoff_dark": "#9c1f10",
    "presence": "#4a6fa5",
    "text": "#222222",
}

# the direction columns are `sdg_to_pb`, `pb_to_sdg`
CSV_HEADER = ["sdg", "pb", *CellRow._fields, *(d.value for d in Direction)]


@dataclass(frozen=True)
class BarSpec:
    pb: int
    length: float
    link_count: int
    synergy_share: float
    neutral_share: float
    tradeoff_share: float
    ts_share: float
    dp_share: float
    tt_share: float
    dn_share: float


@dataclass(frozen=True)
class PanelSpec:
    sdg: int
    doc_share: float
    bars: tuple[BarSpec, ...]


@dataclass(frozen=True)
class FigureSpec:
    panels: tuple[PanelSpec, ...]


def figure_spec(m: InteractionMatrix) -> FigureSpec:
    if m.total_records == 0:
        raise EmptyMatrix("cannot build a figure from an empty matrix")
    panels = []
    for sdg in range(1, SDG_COUNT + 1):
        try:
            lengths = normalize_bars(m, sdg)
        except EmptyPanel:
            lengths = [0.0] * PB_COUNT
        bars = []
        for pb, length in enumerate(lengths, start=1):
            shares = cell_proportions(m, sdg, pb)
            if shares is None:
                bars.append(BarSpec(pb, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            b = shares.bucket_shares
            bars.append(BarSpec(
                pb, length, shares.total, shares.synergy, shares.neutral, shares.tradeoff,
                b[ReportBucket.TS], b[ReportBucket.DP], b[ReportBucket.TT], b[ReportBucket.DN],
            ))
        panels.append(
            PanelSpec(sdg=sdg, doc_share=presence_share(m, "SDG", sdg), bars=tuple(bars))
        )
    return FigureSpec(panels=tuple(panels))


def _f(x: float) -> str:
    return f"{x:.2f}"


def render_svg(spec: FigureSpec) -> bytes:
    s = STYLE
    width = s["panel_cols"] * s["panel_w"] + 2 * s["margin"]
    height = s["panel_rows"] * s["panel_h"] + 2 * s["margin"]
    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="{s["font"]}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n')

    for idx, panel in enumerate(spec.panels):
        col = idx % s["panel_cols"]
        row = idx // s["panel_cols"]
        px = s["margin"] + col * s["panel_w"]
        py = s["margin"] + row * s["panel_h"]
        bar_x = px + s["label_w"]
        bar_w = s["panel_w"] - s["label_w"] - 16
        out.write(f'<g class="panel" id="sdg-{panel.sdg}" transform="translate({px},{py})">\n')
        out.write(
            f'<text x="0" y="12" font-size="11" font-weight="bold" '
            f'fill="{s["text"]}">SDG {panel.sdg}</text>\n'
        )
        # header bar: share of documents involving this SDG
        hb_y = 18
        out.write(
            f'<rect class="presence-track" x="{s["label_w"]}" y="{hb_y}" width="{bar_w}" '
            f'height="6" fill="#eeeeee"/>\n'
        )
        out.write(
            f'<rect class="presence" x="{s["label_w"]}" y="{hb_y}" '
            f'width="{_f(panel.doc_share * bar_w)}" height="6" fill="{s["presence"]}"/>\n'
        )
        out.write(
            f'<text x="{s["label_w"] + bar_w + 2}" y="{hb_y + 6}" font-size="7" '
            f'fill="{s["text"]}">{panel.doc_share * 100:.1f}%</text>\n'
        )
        y = hb_y + 12
        for bar in panel.bars:
            out.write(f'<g class="bar" id="sdg-{panel.sdg}-pb-{bar.pb}">\n')
            out.write(
                f'<text x="0" y="{y + s["bar_h"] - 2}" font-size="8" '
                f'fill="{s["text"]}">PB{bar.pb}</text>\n'
            )
            out.write(
                f'<text x="26" y="{y + s["bar_h"] - 2}" font-size="8" '
                f'fill="{s["text"]}" text-anchor="start">{bar.link_count}</text>\n'
            )
            total_w = bar.length * bar_w
            x = s["label_w"]
            syn_w = bar.synergy_share * total_w
            neu_w = bar.neutral_share * total_w
            ts_w = bar.ts_share * total_w
            tt_w = bar.tt_share * total_w
            tx = x + syn_w + neu_w
            # overlays sit inside their segment, so a zero-width segment
            # has zero-width overlays and draws nothing
            segments = (
                ("seg-synergy", x, syn_w, s["synergy_light"]),
                ("overlay-ts", x, ts_w, s["synergy_dark"]),
                ("overlay-dp", x + ts_w, bar.dp_share * total_w, s["synergy_mid"]),
                ("seg-neutral", x + syn_w, neu_w, s["neutral"]),
                ("seg-tradeoff", tx, bar.tradeoff_share * total_w, s["tradeoff_light"]),
                ("overlay-tt", tx, tt_w, s["tradeoff_dark"]),
                ("overlay-dn", tx + tt_w, bar.dn_share * total_w, s["tradeoff_mid"]),
            )
            for cls, seg_x, seg_w, fill in segments:
                if seg_w > 0:
                    out.write(
                        f'<rect class="{cls}" x="{_f(seg_x)}" y="{y}" width="{_f(seg_w)}" '
                        f'height="{s["bar_h"]}" fill="{fill}"/>\n'
                    )
            out.write("</g>\n")
            y += s["bar_h"] + s["bar_gap"]
        out.write("</g>\n")

    out.write("</svg>\n")
    return out.getvalue().encode("utf-8")


def emit_matrix_csv(m: InteractionMatrix) -> str:
    """One row per (SDG, PB) cell, 153 rows, fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for sdg in range(1, SDG_COUNT + 1):
        for pb in range(1, PB_COUNT + 1):
            dcell = m.direction_counts.get((sdg, pb), {})
            directed = [dcell.get(d, 0) for d in Direction]
            writer.writerow([sdg, pb, *cell_row(m, sdg, pb), *directed])
    return buf.getvalue()


def _display(x: float) -> str:
    return f"{x * 100:.1f}%"


def emit_summary_json(m: InteractionMatrix) -> str:
    """Full-precision statistics plus one-decimal display strings."""
    summary: dict = {
        "total_docs": m.total_docs,
        "total_records": m.total_records,
    }
    if m.total_records > 0:
        cat_shares, bucket_shares = global_proportions(m)
        summary["global"] = {
            "category_shares": {c.value: cat_shares[c] for c in Category},
            "category_display": {c.value: _display(cat_shares[c]) for c in Category},
            "bucket_shares": {b.value: bucket_shares[b] for b in ReportBucket},
            "bucket_display": {b.value: _display(bucket_shares[b]) for b in ReportBucket},
        }
    try:
        directed, share = directionality(m)
    except NoDirectedRecords:
        pass
    else:
        summary["directionality"] = {
            "directed_records": directed,
            "pb_to_sdg_share": share,
            "pb_to_sdg_display": _display(share),
        }
    for axis, count in (("SDG", SDG_COUNT), ("PB", PB_COUNT)):
        name = axis.lower()
        if m.total_docs > 0:
            present = {i: presence_share(m, axis, i) for i in range(1, count + 1)}
            summary.setdefault("presence", {})[name] = {
                str(i): {"share": s, "display": _display(s)} for i, s in present.items()
            }
        per_goal = {}
        for i in range(1, count + 1):
            shares = goal_tradeoff_shares(m, axis, i)
            if shares is not None:
                per_goal[str(i)] = {
                    **shares,
                    "tradeoff_display_incl_dn": _display(shares["tradeoff_share_incl_dn"]),
                    "tradeoff_display_excl_dn": _display(shares["tradeoff_share_excl_dn"]),
                }
        summary[f"per_{name}"] = per_goal
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


# file name -> its bytes; the lambdas reach the emitters through module globals
REPORTS = {
    "summary.json": lambda m: emit_summary_json(m).encode("utf-8"),
    "matrix.csv": lambda m: emit_matrix_csv(m).encode("utf-8"),
    "figure1.svg": lambda m: render_svg(figure_spec(m)),
}


def write_reports(m: InteractionMatrix, report_dir: str | Path) -> None:
    """Writes every `REPORTS` file whole, renaming none until all are written."""
    with contextlib.ExitStack() as stack:
        for name, render in REPORTS.items():
            fh = stack.enter_context(store.replacing(Path(report_dir) / name))
            fh.write(render(m))
