"""Tiny deterministic SVG line plots; no plotting dependency.

Output is a plain string built with fixed float formatting, so identical
inputs produce byte-identical files. A polyline holds the M4 points of its
series (Jugel et al., PVLDB 7(10), 2014): in each 1-px column of the plot
area, the first, last, lowest and highest point. That draws the pixels of the
full series with at most 4 points per column, whatever its length. The full
series is in the CSV artifacts (`trace.csv`, `progress.csv`), not the plots.
"""

from __future__ import annotations

import math

import numpy as np

_COLOR = "#1f77b4"

_W, _H = 720, 460
_ML, _MR, _MT, _MB = 76, 22, 40, 52


def _nice_ticks(lo, hi, target=5):
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _log_ticks(lo, hi):
    ticks = []
    for k in range(math.floor(lo), math.ceil(hi) + 1):
        if lo - 1e-9 <= k <= hi + 1e-9:
            ticks.append(float(k))
    if len(ticks) < 2:
        ticks = [lo, hi]
    return ticks


def _fmt_tick(v, log):
    if log:
        return f"1e{int(round(v))}" if abs(v - round(v)) < 1e-9 else f"{10.0 ** v:.3g}"
    return f"{v:.6g}"


def _m4(xs, ys, last_col):
    """Indices, ascending and each once, of the M4 points of the pixel
    coordinates (xs, ys): in each run of equal columns min(floor(x), last_col),
    the first, last, lowest-y and highest-y point, ties going to the earliest."""
    col = np.minimum(np.floor(xs), last_col)
    new = col[1:] != col[:-1]
    starts = np.flatnonzero(np.r_[True, new])
    run = np.r_[0, np.cumsum(new)]
    keep = np.zeros(xs.size, dtype=bool)
    keep[starts] = keep[np.r_[starts[1:], xs.size] - 1] = True
    for reduce in (np.minimum, np.maximum):
        hit = np.flatnonzero(ys == reduce.reduceat(ys, starts)[run])
        keep[hit[np.r_[True, run[hit[1:]] != run[hit[:-1]]]]] = True
    return np.flatnonzero(keep)


def _range(v):
    """[min, max] of v, [0, 1] when v is empty; a zero-width range is padded
    each way by 0.5, or by |v| 2^-40 where 0.5 would round away."""
    lo, hi = (float(v.min()), float(v.max())) if v.size else (0.0, 1.0)
    pad = 0.0 if hi > lo else max(0.5, abs(lo) * 2.0 ** -40)
    return lo - pad, hi + pad


def plot_lines(label, xs, ys, title, xlabel, ylabel, log=False) -> str:
    """Render one line series to an SVG string, on log-log axes if `log`.

    Non-finite points, and nonpositive points on log axes, are dropped. Points
    are scaled as arrays, and only their M4 points are formatted.
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if log:
        keep &= (xs > 0) & (ys > 0)
    xs, ys = xs[keep], ys[keep]
    if log:
        xs, ys = np.log10(xs), np.log10(ys)
    (xlo, xhi), (ylo, yhi) = _range(xs), _range(ys)
    ypad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + pw * (x - xlo) / (xhi - xlo)

    def py(y):
        return _MT + ph * (yhi - y) / (yhi - ylo)

    ticks = _log_ticks if log else _nice_ticks
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
           'stroke="#444" stroke-width="1"/>']
    for t in ticks(xlo, xhi):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + ph}" '
                   'stroke="#ddd" stroke-width="0.7"/>')
        out.append(f'<text x="{x:.2f}" y="{_MT + ph + 16}" font-size="11" '
                   f'text-anchor="middle" fill="#333">{_fmt_tick(t, log)}</text>')
    for t in ticks(ylo, yhi):
        y = py(t)
        out.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + pw}" y2="{y:.2f}" '
                   'stroke="#ddd" stroke-width="0.7"/>')
        out.append(f'<text x="{_ML - 6}" y="{y + 4:.2f}" font-size="11" '
                   f'text-anchor="end" fill="#333">{_fmt_tick(t, log)}</text>')
    if xs.size:
        xs, ys = px(xs), py(ys)
        # the right edge, x = xhi, joins the last column of the plot area
        pick = _m4(xs, ys, _ML + pw - 1)
        coords = " ".join(map("{:.2f},{:.2f}".format, xs[pick].tolist(), ys[pick].tolist()))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{_COLOR}" '
                   'stroke-width="1.6"/>')
    ly = _MT + 16
    out.append(f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" x2="{_ML + pw - 110}" '
               f'y2="{ly - 4}" stroke="{_COLOR}" stroke-width="2"/>')
    out.append(f'<text x="{_ML + pw - 104}" y="{ly}" font-size="11" '
               f'fill="#333">{label}</text>')
    out.append(f'<text x="{_W / 2:.0f}" y="22" font-size="14" text-anchor="middle" '
               f'fill="#111">{title}</text>')
    out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 14}" font-size="12" '
               f'text-anchor="middle" fill="#333">{xlabel}</text>')
    out.append(f'<text x="16" y="{_MT + ph / 2:.0f}" font-size="12" '
               f'text-anchor="middle" fill="#333" '
               f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
