"""Interval chart: one horizontal bar per population from L to U with a
point marker at the estimated rank. Rows are ordered by estimated rank,
best at the top."""
from __future__ import annotations

import re

_ROW_H = 22
_BAR_H = 8
_TOP = 34
_BOTTOM = 18
_RIGHT = 16
_PLOT_W = 420
# characters XML 1.0 forbids anywhere in a document; left in a label they
# would make the chart unreadable, so they are drawn as U+FFFD
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _text(attrs: str, text: str) -> str:
    if not text:
        return f"<text {attrs} />"
    text = _NOT_XML.sub("\ufffd", text)
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<text {attrs}>{text}</text>"


def interval_chart(
    labels: list[str],
    lower: list[int],
    rank: list[int],
    upper: list[int],
    p: int,
) -> str:
    """The chart as an SVG document: one row per label, on an axis of the
    ranks 1..p of all p populations."""
    rows = len(labels)
    if not (len(lower) == len(rank) == len(upper) == rows):
        raise ValueError("labels, lower, rank, upper must have equal length")
    left = min(max(8 * max((len(s) for s in labels), default=1) + 14, 64), 220)
    width = left + _PLOT_W + _RIGHT
    height = _TOP + rows * _ROW_H + _BOTTOM

    # rank r maps onto the plot band; half-unit pad so bars at 1 and p
    # stay inside
    def sx(r: float) -> float:
        if p == 1:
            return left + _PLOT_W / 2
        return left + (r - 0.5) / p * _PLOT_W

    # axis with integer ticks, thinned when p is large
    axis_y = _TOP + rows * _ROW_H + 4
    step = max(1, (p + 9) // 10)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">'
        f'<line x1="{_fmt(sx(0.5))}" y1="{axis_y}" x2="{_fmt(sx(p + 0.5))}" '
        f'y2="{axis_y}" stroke="#444" />'
    ]
    for r in [*range(1, p, step), p]:
        parts.append(_text(f'x="{_fmt(sx(r))}" y="{axis_y + 12}" text-anchor="middle" '
                           'fill="#444"', str(r)))
    for row, j in enumerate(sorted(range(rows), key=lambda j: (rank[j], j))):
        cy = _TOP + row * _ROW_H + _ROW_H / 2
        x0 = sx(lower[j])
        parts.append(
            _text(f'x="{left - 8}" y="{_fmt(cy + 4)}" text-anchor="end"', labels[j])
            + f'<rect class="interval" x="{_fmt(x0)}" y="{_fmt(cy - _BAR_H / 2)}" '
            f'width="{_fmt(max(sx(upper[j]) - x0, 2.0))}" height="{_BAR_H}" fill="#9ecae1" />'
            f'<circle class="point" cx="{_fmt(sx(rank[j]))}" cy="{_fmt(cy)}" r="3.5" '
            'fill="#08519c" />'
        )
    return "".join(parts) + "</svg>\n"
