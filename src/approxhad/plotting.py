"""Static SVG of best-known kappa against the certified bounds.

Hand-built SVG so the output bytes are a pure function of the inputs:
registry points, the k = 2 clique floor sqrt(1 + 2/(n-1)) at orders not
divisible by 4, and the Bernstein rounding bound at the catalog's Hadamard
orders, finite at each: u = 1/sqrt(m) gives u e_n ~ (2/3) ln(2m)/sqrt(m) < 0.7.
"""

from __future__ import annotations

import math

from .constructions import build_catalog
from .lower_bound import kappa_floor
from .rounding import BernsteinCertificate
from .search import Registry

__all__ = ["plot_kappa_curve"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 20, 20, 45


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def plot_kappa_curve(registry: Registry, out_path: str) -> None:
    points = []
    for n in registry.orders():
        entry = registry.best(n)
        if entry is not None and math.isfinite(entry["kappa"]):
            points.append((n, entry["kappa"]))
    if not points:
        raise ValueError("registry is empty: nothing to plot")

    n_lo = min(n for n, _ in points)
    n_hi = max(n for n, _ in points)
    n_min, n_max = min(n_lo, max(2, n_lo - 1)), n_hi + 1

    floor = [
        (n, kappa_floor(n)) for n in range(max(3, n_min), n_max + 1) if n % 4 != 0
    ]
    bern = [(m, BernsteinCertificate(m, 1.0 / math.sqrt(m)).kappa_bound)
            for m in build_catalog(n_max).orders() if n_min <= m]

    y_vals = [k for _, k in points] + [k for _, k in floor] + [k for _, k in bern]
    y_max = max(y_vals) * 1.08
    y_min = 1.0

    def sx(n):
        return _ML + (n - n_min) / max(n_max - n_min, 1) * (_W - _ML - _MR)

    def sy(k):
        return _H - _MB - (k - y_min) / (y_max - y_min) * (_H - _MT - _MB)

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    x_step = max(1, (n_max - n_min) // 8)
    for n in range(n_min, n_max + 1, x_step):
        svg.append(
            f'<text x="{_fmt(sx(n))}" y="{_H - _MB + 16}" font-size="11" '
            f'text-anchor="middle">{n}</text>'
        )
    for i in range(6):
        k = y_min + i * (y_max - y_min) / 5
        svg.append(
            f'<text x="{_ML - 6}" y="{_fmt(sy(k) + 4)}" font-size="11" '
            f'text-anchor="end">{k:.2f}</text>'
        )
    svg.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" font-size="12" '
        'text-anchor="middle">order n</text>'
    )

    def polyline(pts, color, dash=""):
        if len(pts) < 2:
            return
        coords = " ".join(f"{_fmt(sx(n))},{_fmt(sy(k))}" for n, k in pts)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        svg.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}"{extra}/>'
        )

    polyline(floor, "#777777", dash="4,3")
    polyline(bern, "#cc5500", dash="6,3")
    for n, k in bern:
        svg.append(
            f'<circle cx="{_fmt(sx(n))}" cy="{_fmt(sy(k))}" r="2.5" fill="#cc5500"/>'
        )
    for n, k in points:
        svg.append(
            f'<circle cx="{_fmt(sx(n))}" cy="{_fmt(sy(k))}" r="3.5" fill="#004488"/>'
        )
    legend = [
        ("#004488", "best known kappa"),
        ("#777777", "clique floor sqrt(1+2/(n-1))"),
        ("#cc5500", "Bernstein rounding bound"),
    ]
    for i, (color, label) in enumerate(legend):
        y = _MT + 14 + 16 * i
        svg.append(f'<rect x="{_W - 260}" y="{y - 9}" width="10" height="10" fill="{color}"/>')
        svg.append(
            f'<text x="{_W - 244}" y="{y}" font-size="11">{label}</text>'
        )
    svg.append("</svg>")
    with open(out_path, "w") as f:
        f.write("\n".join(svg) + "\n")
