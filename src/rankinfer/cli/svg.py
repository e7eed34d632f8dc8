"""Interval chart: one horizontal bar per population from L to U with a
point marker at the estimated rank. Rows are ordered by estimated rank,
best at the top."""
from __future__ import annotations

import xml.etree.ElementTree as ET

_ROW_H = 22
_BAR_H = 8
_TOP = 34
_BOTTOM = 18
_RIGHT = 16
_PLOT_W = 420


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def interval_chart(
    labels: list[str],
    lower: list[int],
    rank: list[int],
    upper: list[int],
) -> str:
    p = len(labels)
    if not (len(lower) == len(rank) == len(upper) == p):
        raise ValueError("labels, lower, rank, upper must have equal length")
    left = min(max(8 * max((len(s) for s in labels), default=1) + 14, 64), 220)
    width = left + _PLOT_W + _RIGHT
    height = _TOP + p * _ROW_H + _BOTTOM

    # rank r maps onto the plot band; half-unit pad so bars at 1 and p
    # stay inside
    def sx(r: float) -> float:
        if p == 1:
            return left + _PLOT_W / 2
        return left + (r - 0.5) / p * _PLOT_W

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
            "font-family": "sans-serif",
            "font-size": "12",
        },
    )
    # axis with integer ticks, thinned when p is large
    axis_y = _TOP + p * _ROW_H + 4
    ET.SubElement(
        root,
        "line",
        {
            "x1": _fmt(sx(0.5)),
            "y1": _fmt(axis_y),
            "x2": _fmt(sx(p + 0.5)),
            "y2": _fmt(axis_y),
            "stroke": "#444",
        },
    )
    step = max(1, (p + 9) // 10)
    for r in range(1, p + 1):
        if (r - 1) % step and r != p:
            continue
        tick = ET.SubElement(
            root,
            "text",
            {
                "x": _fmt(sx(r)),
                "y": _fmt(axis_y + 12),
                "text-anchor": "middle",
                "fill": "#444",
            },
        )
        tick.text = str(r)

    order = sorted(range(p), key=lambda j: (rank[j], j))
    for row, j in enumerate(order):
        cy = _TOP + row * _ROW_H + _ROW_H / 2
        name = ET.SubElement(
            root,
            "text",
            {"x": str(left - 8), "y": _fmt(cy + 4), "text-anchor": "end"},
        )
        name.text = labels[j]
        x0 = sx(lower[j])
        x1 = sx(upper[j])
        ET.SubElement(
            root,
            "rect",
            {
                "class": "interval",
                "x": _fmt(x0),
                "y": _fmt(cy - _BAR_H / 2),
                "width": _fmt(max(x1 - x0, 2.0)),
                "height": _fmt(_BAR_H),
                "fill": "#9ecae1",
            },
        )
        ET.SubElement(
            root,
            "circle",
            {
                "class": "point",
                "cx": _fmt(sx(rank[j])),
                "cy": _fmt(cy),
                "r": "3.5",
                "fill": "#08519c",
            },
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        + ET.tostring(root, encoding="unicode")
        + "\n"
    )
