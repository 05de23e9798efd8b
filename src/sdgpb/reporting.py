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
from .errors import EmptyMatrix
from .taxonomy import Category, PB_COUNT, ReportBucket, SDG_COUNT

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

CSV_HEADER = ["sdg", "pb", *CellRow._fields]

# the shares of a bar whose cell has no records
_NO_SHARES = dict.fromkeys((*Category, *ReportBucket), 0.0)


@dataclass(frozen=True)
class BarSpec:
    pb: int
    length: float
    link_count: int
    shares: dict[Category | ReportBucket, float]  # `cell_proportions`


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
        bars = tuple(
            BarSpec(pb, length, cell_row(m, sdg, pb).total,
                    cell_proportions(m, sdg, pb) or _NO_SHARES)
            for pb, length in enumerate(normalize_bars(m, sdg), start=1)
        )
        panels.append(
            PanelSpec(sdg=sdg, doc_share=presence_share(m, "SDG", sdg), bars=bars)
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
            share = bar.shares
            x = s["label_w"]
            syn_w = share[Category.SYNERGY] * total_w
            neu_w = share[Category.NEUTRAL] * total_w
            ts_w = share[ReportBucket.TS] * total_w
            tt_w = share[ReportBucket.TT] * total_w
            tx = x + syn_w + neu_w
            # overlays sit inside their segment, so a zero-width segment
            # has zero-width overlays and draws nothing
            segments = (
                ("seg-synergy", x, syn_w, s["synergy_light"]),
                ("overlay-ts", x, ts_w, s["synergy_dark"]),
                ("overlay-dp", x + ts_w, share[ReportBucket.DP] * total_w, s["synergy_mid"]),
                ("seg-neutral", x + syn_w, neu_w, s["neutral"]),
                ("seg-tradeoff", tx, share[Category.TRADEOFF] * total_w, s["tradeoff_light"]),
                ("overlay-tt", tx, tt_w, s["tradeoff_dark"]),
                ("overlay-dn", tx + tt_w, share[ReportBucket.DN] * total_w, s["tradeoff_mid"]),
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
            writer.writerow([sdg, pb, *cell_row(m, sdg, pb)])
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
    direction = directionality(m)
    if direction is not None:
        directed, share = direction
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
