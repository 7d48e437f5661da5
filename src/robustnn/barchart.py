"""Self-contained SVG bar charts for per-scenario summaries.

One chart per scenario: one bar per loss function on a log-scaled y axis,
the number of converged runs printed on top of each bar, an "Inf" marker
when a cell contained infinite test losses, and no bar at all when nothing
converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

LOG_FLOOR = 1e-12  # log scale cannot show a zero mean

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 82
MARGIN_RIGHT = 24
MARGIN_TOP = 58
MARGIN_BOTTOM = 64

BAR_FILL = "#4878a8"
BAR_FILL_INF = "#b5551d"


@dataclass(frozen=True)
class BarEntry:
    label: str
    value: float | None  # mean finite test loss; None when no converged run
    count: int           # number of converged runs
    inf_flag: bool       # at least one infinite loss among the converged runs


def _axis_bounds(values: list[float]) -> tuple[float, float]:
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if hi <= lo:
        hi = lo + 1
    return float(lo), float(hi)


def render_bar_chart(title: str, entries: list[BarEntry]) -> str:
    """Render one grouped chart as an SVG document string."""
    chart_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    chart_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    baseline = HEIGHT - MARGIN_BOTTOM

    shown = [max(e.value, LOG_FLOOR) for e in entries if e.value is not None]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="26" text-anchor="middle" font-size="15" '
        f'fill="#222">{escape(title, quote=False)}</text>',
        f'<text x="20" y="{MARGIN_TOP + chart_h / 2:.1f}" text-anchor="middle" '
        f'font-size="12" fill="#555" '
        f'transform="rotate(-90 20 {MARGIN_TOP + chart_h / 2:.1f})">mean finite test loss (log scale)</text>',
        f'<line x1="{MARGIN_LEFT}" y1="{baseline}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{baseline}" stroke="#444" stroke-width="1"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{baseline}" stroke="#444" stroke-width="1"/>',
    ]

    if shown:
        lo, hi = _axis_bounds(shown)
        span = hi - lo

        def height_of(v: float) -> float:
            frac = (math.log10(max(v, LOG_FLOOR)) - lo) / span
            return max(min(frac, 1.0) * chart_h, 1.5)

        tick = lo
        while tick <= hi + 1e-9:
            y = baseline - (tick - lo) / span * chart_h
            parts.append(
                f'<line x1="{MARGIN_LEFT - 4}" y1="{y:.1f}" x2="{MARGIN_LEFT}" '
                f'y2="{y:.1f}" stroke="#444" stroke-width="1"/>')
            parts.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
                f'font-size="10" fill="#555">1e{tick:.0f}</text>')
            tick += 1.0

    slot = chart_w / max(len(entries), 1)
    bar_w = slot * 0.55
    for i, e in enumerate(entries):
        cx = MARGIN_LEFT + (i + 0.5) * slot
        parts.append(
            f'<text x="{cx:.1f}" y="{baseline + 18}" text-anchor="middle" '
            f'font-size="11" fill="#222">{escape(e.label, quote=False)}</text>')
        if e.value is None or e.count == 0:
            continue  # nothing converged: the bar does not exist
        h = height_of(max(e.value, LOG_FLOOR))
        y = baseline - h
        fill = BAR_FILL_INF if e.inf_flag else BAR_FILL
        parts.append(
            f'<rect x="{cx - bar_w / 2:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{h:.1f}" fill="{fill}"/>')
        parts.append(
            f'<text x="{cx:.1f}" y="{y - 6:.1f}" text-anchor="middle" '
            f'font-size="11" fill="#222">{e.count}</text>')
        if e.inf_flag:
            parts.append(
                f'<text x="{cx:.1f}" y="{y - 20:.1f}" text-anchor="middle" '
                f'font-size="11" font-style="italic" fill="{BAR_FILL_INF}">Inf</text>')
    parts.append("</svg>")
    return "\n".join(parts)
