"""Minimal standalone SVG rendering for experiment outputs.

Deliberately dependency-free: CSV is the canonical output and these plots,
quick-look companions, return their SVG text and open no file.  Output is
deterministic (no timestamps, fixed float formatting).
"""

from __future__ import annotations

import math
from itertools import groupby

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 52
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
_PAGE = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">\n'
         f'<rect width="{_W}" height="{_H}" fill="white"/>\n{{}}\n</svg>\n')


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    out = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-12 * abs(step):
        out.append(t)
        t += step
    return out


class _Frame:
    def __init__(self, xlim, ylim, ylog=False):
        """Axis limits, y in log10 with ``ylog``; an axis of length 0 gets length 1."""
        self.ylog = ylog
        if ylog:
            ylim = (math.log10(ylim[0]), math.log10(ylim[1]))
        (self.x0, self.x1), (self.y0, self.y1) = (
            (lo, hi if hi != lo else lo + 1.0) for lo, hi in (xlim, ylim))

    def px(self, x: float) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        if self.ylog:
            y = math.log10(y)
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)


def _axes(parts: list[str], frame: _Frame, xlabel: str, ylabel: str, title: str):
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for t in _ticks(frame.x0, frame.x1):
        px = frame.px(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(frame.y0, frame.y1):
        yv = 10.0 ** t if frame.ylog else t
        py = frame.py(yv)
        label = _fmt(yv) if not frame.ylog else f"1e{_fmt(t)}"
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 14}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) // 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + _H - _MB) // 2})">{ylabel}</text>')
    parts.append(f'<text x="{_W // 2}" y="20" font-size="14" '
                 f'text-anchor="middle">{title}</text>')


def _bad(y, ylog: bool) -> bool:
    """A sample that breaks the line: None, NaN, or not positive on a log axis."""
    return y is None or (isinstance(y, float) and math.isnan(y)) or (ylog and y <= 0)


def line_plot(series, xlabel: str, ylabel: str, title: str,
              ylog: bool = False) -> str:
    """A multi-series line plot's SVG text; None/NaN samples break the line."""
    good = [(xv, yv) for _, x, y in series for xv, yv in zip(x, y)
            if not _bad(yv, ylog)]
    if not good:
        raise ValueError("nothing to plot")
    xs, ys = zip(*good)
    frame = _Frame((min(xs), max(xs)), (min(ys), max(ys)), ylog=ylog)
    parts = []
    _axes(parts, frame, xlabel, ylabel, title)
    for i, (name, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        for bad, run in groupby(zip(x, y), key=lambda s: _bad(s[1], ylog)):
            if bad:
                continue
            seg = [f"{_fmt(frame.px(xv))},{_fmt(frame.py(yv))}" for xv, yv in run]
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>')
            else:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" '
                     f'x2="{_W - _MR - 105}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 100}" y="{ly}" '
                     f'font-size="11">{name}</text>')
    return _PAGE.format("\n".join(parts))


_CONTOUR = 1.0   # heatmap contour level: the RMCRB/RCRB = 1 line of fig5


def heatmap(x, y, z, xlabel: str, ylabel: str, title: str) -> str:
    """SVG text of the cell heatmap of z[i * len(x) + j] over (y[i], x[j])
    (row-major, the order of fig5's long CSV), with the level-1 contour drawn
    on the cell edges where the value crosses it."""
    finite = [v for v in z if v is not None and math.isfinite(v)]
    if not finite:
        raise ValueError("nothing to plot")
    zlo, zhi = min(finite), max(finite)
    if zhi == zlo:
        zhi = zlo + 1.0
    nx, ny = len(x), len(y)
    cw = (_W - _ML - _MR) / nx
    ch = (_H - _MT - _MB) / ny
    frame = _Frame((min(x), max(x)), (min(y), max(y)))
    parts = []
    for k, v in enumerate(z):
        i, j = divmod(k, nx)
        if v is None or not math.isfinite(v):
            fill = "#dddddd"
        else:
            u = (v - zlo) / (zhi - zlo)
            r = int(255 * u)
            b = int(255 * (1 - u))
            fill = f"rgb({r},{int(96 + 64 * (1 - abs(2 * u - 1)))},{b})"
        parts.append(f'<rect x="{_fmt(_ML + j * cw)}" y="{_fmt(_MT + (ny - 1 - i) * ch)}" '
                     f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="{fill}"/>')
    for di, dj in ((0, 1), (1, 0)):   # neighbours along x, then along y
        for i in range(ny - di):
            for j in range(nx - dj):
                a, b = z[i * nx + j], z[(i + di) * nx + j + dj]
                if a is not None and b is not None and (a - _CONTOUR) * (b - _CONTOUR) < 0:
                    px, py = _ML + (j + dj) * cw, _MT + (ny - 1 - i) * ch
                    parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(py)}" '
                                 f'x2="{_fmt(px + di * cw)}" y2="{_fmt(py + dj * ch)}" '
                                 f'stroke="black" stroke-width="1.2"/>')
    _axes(parts, frame, xlabel, ylabel, title)
    return _PAGE.format("\n".join(parts))
