"""Minimal SVG line charts.

Just enough to emit the two figures the pipeline reports: an equity curve
against its benchmark, and VPIN under the price path. Charts are plain
text with fixed precision and a fixed palette, so identical inputs give
byte-identical files; there is deliberately no drawing dependency.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DataError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
MAX_POINTS = 2000  # polylines are thinned above this, keeping endpoints

Series = tuple[str, np.ndarray, np.ndarray]  # label, x, y


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _thin(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[0]
    if n <= MAX_POINTS:
        return x, y
    idx = np.unique(np.linspace(0, n - 1, MAX_POINTS).astype(np.int64))
    return x[idx], y[idx]


def _clean(series: Sequence[Series]) -> list[Series]:
    out = []
    for label, x, y in series:
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise DataError(f"series {label!r}: x and y lengths differ")
        keep = np.isfinite(x) & np.isfinite(y)
        if not keep.any():
            raise DataError(f"series {label!r} has no finite points")
        out.append((label, *_thin(x[keep], y[keep])))
    if not out:
        raise DataError("no series to plot")
    return out


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if hi == lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


class _Panel:
    """Maps one data rectangle onto one pixel rectangle."""

    def __init__(self, series: list[Series], left: float, top: float,
                 width: float, height: float):
        self.series = series
        self.left, self.top = left, top
        self.width, self.height = width, height
        xs = np.concatenate([s[1] for s in series])
        ys = np.concatenate([s[2] for s in series])
        self.x_lo, self.x_hi = float(xs.min()), float(xs.max())
        self.y_lo, self.y_hi = float(ys.min()), float(ys.max())
        if self.x_hi == self.x_lo:
            self.x_hi += 1.0
        if self.y_hi == self.y_lo:
            self.y_hi += 1.0

    def px(self, x: np.ndarray) -> np.ndarray:
        return self.left + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.width

    def py(self, y: np.ndarray) -> np.ndarray:
        return self.top + self.height \
            - (y - self.y_lo) / (self.y_hi - self.y_lo) * self.height

    def render(self, out: list[str], title: str) -> None:
        l, t, w, h = self.left, self.top, self.width, self.height
        out.append(f'<rect x="{l:.1f}" y="{t:.1f}" width="{w:.1f}" '
                   f'height="{h:.1f}" fill="none" stroke="#888"/>')
        out.append(f'<text x="{l:.1f}" y="{t - 8:.1f}" font-size="14" '
                   f'fill="#333">{_escape(title)}</text>')
        for tick in _ticks(self.y_lo, self.y_hi):
            y = float(self.py(np.array([tick]))[0])
            out.append(f'<line x1="{l - 4:.1f}" y1="{y:.1f}" x2="{l:.1f}" '
                       f'y2="{y:.1f}" stroke="#888"/>')
            out.append(f'<text x="{l - 8:.1f}" y="{y + 4:.1f}" font-size="11" '
                       f'fill="#555" text-anchor="end">{tick:.4g}</text>')
        for tick in _ticks(self.x_lo, self.x_hi):
            x = float(self.px(np.array([tick]))[0])
            out.append(f'<line x1="{x:.1f}" y1="{t + h:.1f}" x2="{x:.1f}" '
                       f'y2="{t + h + 4:.1f}" stroke="#888"/>')
            out.append(f'<text x="{x:.1f}" y="{t + h + 16:.1f}" font-size="11" '
                       f'fill="#555" text-anchor="middle">{tick:.4g}</text>')
        for i, (label, x, y) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            pts = " ".join(f"{px:.2f},{py:.2f}"
                           for px, py in zip(self.px(x), self.py(y)))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
            out.append(f'<text x="{l + w - 6:.1f}" y="{t + 16 + 14 * i:.1f}" '
                       f'font-size="12" fill="{color}" '
                       f'text-anchor="end">{_escape(label)}</text>')


def line_chart(path: str, title: str, series: Sequence[Series],
               width: int = 960, height: int = 360) -> None:
    """One panel, any number of overlaid series."""
    stacked_chart(path, [(title, series)], width, height)


def stacked_chart(path: str, panels: Sequence[tuple[str, Sequence[Series]]],
                  width: int = 960, panel_height: int = 240) -> None:
    """Vertically stacked panels sharing the page, one title each."""
    if not panels:
        raise DataError("no panels to plot")
    cleaned = [(title, _clean(series)) for title, series in panels]
    margin_l, margin_r, margin_t, margin_b, gap = 70, 20, 30, 40, 24
    total_h = margin_t + len(cleaned) * (panel_height + margin_b) \
        + (len(cleaned) - 1) * gap
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{total_h}" viewBox="0 0 {width} {total_h}">',
           f'<rect width="{width}" height="{total_h}" fill="#ffffff"/>']
    top = float(margin_t)
    for title, series in cleaned:
        panel = _Panel(series, margin_l, top,
                       width - margin_l - margin_r, panel_height)
        panel.render(out, title)
        top += panel_height + margin_b + gap
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
