"""Minimal hand-rolled SVG emitters: line plots and category heatmaps.

CSV is the canonical output everywhere; these plots are advisory, so
they stay dependency-free and deterministic (fixed float formatting, no
wall-clock anywhere).
"""

from __future__ import annotations

import math

PALETTE = ["#2471a3", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#17a589"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_plot(path, series, *, title="", xlabel="", ylabel="", logy=False, width=640, height=440):
    """Polyline plot of [(xs, ys, label), ...]; logy clips at positive values."""
    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb

    # each series' plotted points: finite y (positive y as log10 y under logy)
    kept = []
    for xs, ys, _ in series:
        if logy:
            kept.append([(float(x), math.log10(y)) for x, y in zip(xs, ys) if y > 0 and math.isfinite(y)])
        else:
            kept.append([(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(y)])
    pts = [pt for points in kept for pt in points] or [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        X = sx(tx)
        out.append(f'<line x1="{_fmt(X)}" y1="{mt + ph}" x2="{_fmt(X)}" y2="{mt + ph + 4}" stroke="#333"/>')
        out.append(
            f'<text x="{_fmt(X)}" y="{mt + ph + 16}" text-anchor="middle" font-size="10">{tx:.3g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        Y = sy(ty)
        label = f"1e{ty:.2g}" if logy else f"{ty:.3g}"
        out.append(f'<line x1="{ml - 4}" y1="{_fmt(Y)}" x2="{ml}" y2="{_fmt(Y)}" stroke="#333"/>')
        out.append(
            f'<text x="{ml - 6}" y="{_fmt(Y + 3)}" text-anchor="end" font-size="10">{label}</text>'
        )
    out.append(
        f'<text x="{ml + pw // 2}" y="{height - 8}" text-anchor="middle" font-size="11">{xlabel}</text>'
    )
    out.append(
        f'<text x="14" y="{mt + ph // 2}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {mt + ph // 2})">{ylabel}</text>'
    )
    for i, ((_, _, label), points) in enumerate(zip(series, kept)):
        color = PALETTE[i % len(PALETTE)]
        coords = [f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points]
        if coords:
            out.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if label:
            out.append(
                f'<text x="{ml + pw - 6}" y="{mt + 14 + 13 * i}" text-anchor="end" '
                f'font-size="10" fill="{color}">{label}</text>'
            )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def heatmap(path, xs, ys, cells, colors, *, title="", xlabel="", ylabel="", width=640, height=440):
    """Category heatmap: cells[j][i] is a key of ``colors`` at (xs[i], ys[j])."""
    ml, mr, mt, mb = 64, 120, 28, 44
    pw, ph = width - ml - mr, height - mt - mb
    nx, ny = len(xs), len(ys)
    cw, chh = pw / max(nx, 1), ph / max(ny, 1)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(ml + pw) // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for j in range(ny):
        for i in range(nx):
            color = colors.get(cells[j][i], "#dddddd")
            out.append(
                f'<rect x="{_fmt(ml + i * cw)}" y="{_fmt(mt + (ny - 1 - j) * chh)}" '
                f'width="{_fmt(cw)}" height="{_fmt(chh)}" fill="{color}" stroke="#666" stroke-width="0.4"/>'
            )
    step_x = max(1, nx // 8)
    for i in range(0, nx, step_x):
        out.append(
            f'<text x="{_fmt(ml + (i + 0.5) * cw)}" y="{mt + ph + 16}" text-anchor="middle" '
            f'font-size="10">{xs[i]:.3g}</text>'
        )
    step_y = max(1, ny // 8)
    for j in range(0, ny, step_y):
        out.append(
            f'<text x="{ml - 6}" y="{_fmt(mt + (ny - 1 - j + 0.65) * chh)}" text-anchor="end" '
            f'font-size="10">{ys[j]:.3g}</text>'
        )
    out.append(
        f'<text x="{ml + pw // 2}" y="{height - 8}" text-anchor="middle" font-size="11">{xlabel}</text>'
    )
    out.append(
        f'<text x="14" y="{mt + ph // 2}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {mt + ph // 2})">{ylabel}</text>'
    )
    for i, (key, color) in enumerate(sorted(colors.items())):
        y = mt + 14 + 16 * i
        out.append(f'<rect x="{ml + pw + 10}" y="{y - 9}" width="12" height="12" fill="{color}"/>')
        out.append(f'<text x="{ml + pw + 26}" y="{y}" font-size="10">{key}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
