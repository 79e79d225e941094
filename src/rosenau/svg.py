"""Static SVG plots by pure string emission; no graphics dependency.

Log-log decay plots with dashed reference slopes at -1/2, -3/4 and -1,
anchored at the first point of the first series.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence

WIDTH, HEIGHT = 720, 520
MARGIN = 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
GUIDE_SLOPES = (-0.5, -0.75, -1.0)


def _ticks(lo: float, hi: float) -> List[float]:
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    return [float(k) for k in range(first, last + 1)]


def plot_rows(rows: Sequence, quantity: str) -> str:
    """One SVG: log10(value) against log10(1+t), one polyline per epsilon."""
    series = {}
    for r in rows:
        if r.value > 0 and r.t > 0:
            series.setdefault(r.epsilon, []).append((r.t, r.value))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{quantity}</text>',
    ]
    if not series:
        parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle">'
                     'no positive data</text></svg>')
        return "\n".join(parts)

    xs = [math.log10(1.0 + t) for pts in series.values() for t, _ in pts]
    ys = [math.log10(v) for pts in series.values() for _, v in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-9:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-9:
        y_hi = y_lo + 1.0
    y_lo -= 0.2
    y_hi += 0.2

    def px(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts.append(f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
                 f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>')
    for xt in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(xt):.1f}" y1="{HEIGHT - MARGIN}" x2="{px(xt):.1f}" '
                     f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{px(xt):.1f}" y="{HEIGHT - MARGIN + 22}" text-anchor="middle" '
                     f'font-size="12">1e{int(xt)}</text>')
    for yt in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN - 6}" y1="{py(yt):.1f}" x2="{MARGIN}" '
                     f'y2="{py(yt):.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 10}" y="{py(yt):.1f}" text-anchor="end" '
                     f'font-size="12">1e{int(yt)}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 14}" text-anchor="middle" '
                 f'font-size="13">1 + t</text>')

    # dashed reference slopes through the first point of the first series
    eps0 = sorted(series)[0]
    t0, v0 = series[eps0][0]
    ax, ay = math.log10(1.0 + t0), math.log10(v0)
    for slope in GUIDE_SLOPES:
        y_end = ay + slope * (x_hi - ax)
        parts.append(f'<line x1="{px(ax):.1f}" y1="{py(ay):.1f}" x2="{px(x_hi):.1f}" '
                     f'y2="{py(y_end):.1f}" stroke="#999" stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{px(x_hi) - 4:.1f}" y="{py(y_end) - 4:.1f}" text-anchor="end" '
                     f'font-size="11" fill="#666">slope {slope:g}</text>')

    for i, eps in enumerate(sorted(series)):
        pts = sorted(series[eps])
        color = COLORS[i % len(COLORS)]
        path = " ".join(f"{px(math.log10(1 + t)):.1f},{py(math.log10(v)):.1f}" for t, v in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 16 * i + 12}" font-size="12" '
                     f'fill="{color}">eps={eps:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_plots(rows: Sequence, out_dir: str) -> Dict[str, str]:
    """Write ``<quantity>.svg`` into out_dir for every quantity in rows; quantity -> path."""
    paths = {q: os.path.join(out_dir, f"{q}.svg") for q in sorted({r.quantity for r in rows})}
    for quantity, path in paths.items():
        with open(path, "w") as fh:
            fh.write(plot_rows([r for r in rows if r.quantity == quantity], quantity))
    return paths
