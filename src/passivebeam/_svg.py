"""Minimal deterministic SVG line plots (no plotting dependencies)."""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 720, 460
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 30, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot_svg(
    path,
    series: list[tuple[str, "list[float]", "list[float]"]],
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
) -> None:
    """Write a line plot with one polyline per (label, x, y) series.

    With ``logy`` the y values are plotted as log10; nonpositive points are
    dropped from log-scale series.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), math.log10(float(y)) if logy else float(y))
            for x, y in zip(xs, ys)
            if not logy or y > 0.0
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        cleaned = [("empty", [(0.0, 0.0), (1.0, 0.0)])]

    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def to_px(x, y):
        px = _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = _TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h
        return px, py

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2}" y="22" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>'
    )
    out.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        px, _ = to_px(tx, y_lo)
        out.append(
            f'<line x1="{px:.2f}" y1="{_TOP + plot_h}" x2="{px:.2f}" '
            f'y2="{_TOP + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        _, py = to_px(x_lo, ty)
        out.append(
            f'<line x1="{_LEFT - 5}" y1="{py:.2f}" x2="{_LEFT}" y2="{py:.2f}" stroke="black"/>'
        )
        label = _fmt(ty)
        out.append(
            f'<text x="{_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{_LEFT + plot_w / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>'
    )
    ylab = f"log10({ylabel})" if logy else ylabel
    out.append(
        f'<text x="18" y="{_TOP + plot_h / 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 18 {_TOP + plot_h / 2})">{ylab}</text>'
    )
    for i, (label, pts) in enumerate(cleaned):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y) for x, y in pts))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _TOP + 16 + 16 * i
        out.append(
            f'<line x1="{_LEFT + plot_w - 150}" y1="{ly - 4}" x2="{_LEFT + plot_w - 120}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_LEFT + plot_w - 112}" y="{ly}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
