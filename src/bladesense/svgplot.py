"""Minimal deterministic SVG emission: lines and scatter.

No plotting dependency; output is plain vector markup with fixed float
formatting so identical data produces identical bytes.
"""

from __future__ import annotations

import numpy as np

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(s: str) -> str:
    """``s`` as XML character data."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _pairs(template: str, sep: str, px, py) -> str:
    """``template`` (two ``%.6g`` fields) filled with each (x, y) point and
    joined by ``sep``: one ``%`` over Python floats, the same text as
    :func:`_fmt` per coordinate."""
    xy = np.column_stack([px, py]).ravel().tolist()
    return sep.join([template] * (len(xy) // 2)) % tuple(xy)


def _ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        # widened in proportion to |lo|, lest rounding absorb the widening
        half = 0.5 * max(1.0, abs(lo))
        lo, hi = lo - half, lo + half
    span = hi - lo
    step = 10.0 ** np.floor(np.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + 0.5 * step, step)


class _Canvas:
    """A plot box; on a log axis ``ylim`` must be positive."""

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim, ylim, log_y: bool = False):
        self.log_y = log_y
        self.x0, self.x1 = float(xlim[0]), float(xlim[1])
        y0, y1 = float(ylim[0]), float(ylim[1])
        if log_y:
            y0, y1 = np.log10(y0), np.log10(max(y1, y0 * 10))
        # a degenerate range is widened in proportion to its magnitude,
        # lest rounding absorb the widening
        if self.x1 <= self.x0:
            self.x1 = self.x0 + max(1.0, abs(self.x0))
        if y1 <= y0:
            y1 = y0 + max(1.0, abs(y0))
        self.y0, self.y1 = y0, y1
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{_text(title)}</text>',
            f'<text x="{(_ML + _W - _MR)/2}" y="{_H - 12}" text-anchor="middle">{_text(xlabel)}</text>',
            f'<text x="16" y="{(_MT + _H - _MB)/2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB)/2})">{_text(ylabel)}</text>',
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
        ]
        self._axes()

    def px(self, x):
        f = (np.asarray(x, dtype=float) - self.x0) / (self.x1 - self.x0)
        return _ML + f * (_W - _ML - _MR)

    def py(self, y):
        y = np.asarray(y, dtype=float)
        if self.log_y:
            # a value with no logarithm is drawn on the axis floor
            low = y <= 0
            y = np.where(low, self.y0, np.log10(np.where(low, 1.0, y)))
        f = (y - self.y0) / (self.y1 - self.y0)
        return _H - _MB - f * (_H - _MT - _MB)

    def _axes(self):
        for tx in _ticks(self.x0, self.x1):
            px = self.px(tx)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                f'y2="{_H - _MB + 5}" stroke="black"/>')
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" '
                f'text-anchor="middle">{_fmt(tx)}</text>')
        for ty in _ticks(self.y0, self.y1):
            py = _H - _MB - (ty - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)
            label = f"1e{_fmt(ty)}" if self.log_y else _fmt(ty)
            self.parts.append(
                f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                f'y2="{_fmt(py)}" stroke="black"/>')
            self.parts.append(
                f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" '
                f'text-anchor="end">{label}</text>')

    def legend(self, labels):
        for i, label in enumerate(labels):
            y = _MT + 14 + 16 * i
            color = _PALETTE[i % len(_PALETTE)]
            self.parts.append(
                f'<line x1="{_W - _MR - 140}" y1="{y}" x2="{_W - _MR - 116}" '
                f'y2="{y}" stroke="{color}" stroke-width="2"/>')
            self.parts.append(
                f'<text x="{_W - _MR - 110}" y="{y + 4}">{_text(label)}</text>')

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts))
            fh.write("\n")


def _finite_range(arrays, log=False):
    """The range of the finite values, of the positive ones on a log axis."""
    lo, hi = np.inf, -np.inf
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        good = arr[np.isfinite(arr) & (arr > 0 if log else True)]
        if good.size:
            lo, hi = min(lo, good.min()), max(hi, good.max())
    if not np.isfinite(lo):
        lo, hi = (1.0, 10.0) if log else (0.0, 1.0)
    return lo, hi


def line_plot(path, series, title="", xlabel="", ylabel="", log_y=False):
    """series: list of (label, x, y); colors follow the fixed palette. A
    point with a non-finite coordinate breaks its line: each run of finite
    points is a polyline of its own."""
    xlim = _finite_range([s[1] for s in series])
    ylim = _finite_range([s[2] for s in series], log=log_y)
    cv = _Canvas(title, xlabel, ylabel, xlim, ylim, log_y=log_y)
    for i, (_, x, y) in enumerate(series):
        px, py = cv.px(x), cv.py(y)
        finite = np.isfinite(px) & np.isfinite(py)
        ends = np.flatnonzero(np.diff(np.r_[0, finite, 0]))
        color = _PALETTE[i % len(_PALETTE)]
        for a, b in zip(ends[::2], ends[1::2]):
            pts = _pairs("%.6g,%.6g", " ", px[a:b], py[a:b])
            cv.parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.2"/>')
    cv.legend([s[0] for s in series])
    cv.save(path)


def scatter_plot(path, x, y, title="", xlabel="", ylabel=""):
    """One circle per point whose coordinates are both finite."""
    cv = _Canvas(title, xlabel, ylabel, _finite_range([x]), _finite_range([y]))
    px, py = cv.px(x), cv.py(y)
    drawn = np.isfinite(px) & np.isfinite(py)
    circles = _pairs(f'<circle cx="%.6g" cy="%.6g" r="1.5" '
                     f'fill="{_PALETTE[0]}" fill-opacity="0.5"/>',
                     "\n", px[drawn], py[drawn])
    if circles:
        cv.parts.append(circles)
    cv.save(path)
