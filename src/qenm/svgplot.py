"""Minimal native SVG emission: scatter plots with fit lines, lattice sketches.

Deliberately dependency-free so pipeline outputs stay self-contained.
"""

from __future__ import annotations

import numpy as np

from .lattice import SPARSITY, LatticeSpec, adjacency, dummy_mask, node_positions

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
W, H, MARGIN = 640.0, 480.0, 60.0     # scatter and series plots, pixels


def _write(path, width: float, height: float, body: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(_HEADER
                 + f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
                   f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
                 + "\n".join(body) + "\n</svg>\n")


def _frame(x0: float, x1: float, y0: float, y1: float, title: str, xlabel: str, ylabel: str):
    """Background, axes and labels of a W x H plot, and its data-to-pixel maps."""

    def px(x):
        return MARGIN + (x - x0) / (x1 - x0) * (W - 2 * MARGIN)

    def py(y):
        return H - MARGIN - (y - y0) / (y1 - y0) * (H - 2 * MARGIN)

    body = [
        f'<rect x="0" y="0" width="{W:.0f}" height="{H:.0f}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{H - MARGIN}" x2="{W - MARGIN}" y2="{H - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{H - MARGIN}" stroke="black"/>',
        f'<text x="{W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{W / 2}" y="{H - 14}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{H / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {H / 2})">{ylabel}</text>',
    ]
    return body, px, py


def scatter_svg(path, xs, ys, title: str = "", xlabel: str = "", ylabel: str = "",
                fit: tuple[float, float] | None = None, loglog: bool = False) -> None:
    """Scatter plot with an optional straight fit line (slope, intercept)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if loglog:
        xs, ys = np.log10(xs), np.log10(ys)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad_y = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad_y, y1 + pad_y
    body, px, py = _frame(x0, x1, y0, y1, title, xlabel, ylabel)
    for tick in np.linspace(x0, x1, 5):
        body.append(f'<text x="{px(tick):.1f}" y="{H - MARGIN + 18:.1f}" '
                    f'text-anchor="middle" font-size="11">{tick:.3g}</text>')
    for tick in np.linspace(y0, y1, 5):
        body.append(f'<text x="{MARGIN - 8:.1f}" y="{py(tick) + 4:.1f}" '
                    f'text-anchor="end" font-size="11">{tick:.3g}</text>')
    if fit is not None:
        slope, intercept = fit
        ya, yb = slope * x0 + intercept, slope * x1 + intercept
        body.append(f'<line x1="{px(x0):.1f}" y1="{py(ya):.1f}" x2="{px(x1):.1f}" '
                    f'y2="{py(yb):.1f}" stroke="#d62728" stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        body.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="4" fill="#1f77b4"/>')
    _write(path, W, H, body)


def series_svg(path, ts, series: dict[str, np.ndarray], title: str = "",
               ylabel: str = "") -> None:
    """Polyline plot of one or more time series over t."""
    ts = np.asarray(ts, dtype=float)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    allv = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    x0, x1 = float(ts.min()), float(ts.max() if ts.max() > ts.min() else ts.min() + 1)
    y0, y1 = float(allv.min()), float(allv.max())
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    body, px, py = _frame(x0, x1, y0, y1, title, "t", ylabel)
    for idx, (label, vals) in enumerate(series.items()):
        pts = " ".join(f"{px(t):.1f},{py(v):.1f}" for t, v in zip(ts, vals))
        color = colors[idx % len(colors)]
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(f'<text x="{W - MARGIN - 4:.1f}" y="{MARGIN + 16 * (idx + 1):.1f}" '
                    f'text-anchor="end" font-size="12" fill="{color}">{label}</text>')
    _write(path, W, H, body)


def lattice_svg(path, spec: LatticeSpec) -> None:
    """Honeycomb sketch: physical nodes solid, dummies hollow, bonds drawn."""
    pos = node_positions(spec)
    dummies = dummy_mask(spec)
    adj = adjacency(spec)
    scale, margin = 34.0, 40.0
    xs = pos[:, 0] * scale
    ys = pos[:, 1] * scale
    x_min, y_min = xs.min(), ys.min()
    w = xs.max() - x_min + 2 * margin
    h = ys.max() - y_min + 2 * margin

    def px(j):
        return xs[j] - x_min + margin

    def py(j):
        return h - (ys[j] - y_min + margin)

    body = [f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="white"/>']
    for j in range(spec.n_total):
        for l in range(SPARSITY):
            k = int(adj.neighbors[j, l])
            if k <= j:
                continue
            stroke = "#222222" if adj.valid[j, l] else "#cccccc"
            body.append(f'<line x1="{px(j):.1f}" y1="{py(j):.1f}" x2="{px(k):.1f}" '
                        f'y2="{py(k):.1f}" stroke="{stroke}" stroke-width="1.2"/>')
    for j in range(spec.n_total):
        fill = "none" if dummies[j] else "#1f77b4"
        body.append(f'<circle cx="{px(j):.1f}" cy="{py(j):.1f}" r="6" fill="{fill}" '
                    f'stroke="#333333"/>')
        body.append(f'<text x="{px(j):.1f}" y="{py(j) + 3.5:.1f}" text-anchor="middle" '
                    f'font-size="7">{j}</text>')
    _write(path, w, h, body)
