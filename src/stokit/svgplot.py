"""Dependency-free deterministic SVG rendering.

Output is a function of the input alone: fixed canvas geometry, fixed number
formatting, no timestamps, so identical data yields byte-identical documents
and file digests are meaningful.

Two plot kinds, picked by the bundle type: a LineBundle draws one polyline
per named series (optionally on a log y axis); a HeatmapBundle draws a
rectangle grid with a monotone value-to-color ramp as the contour
substitute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PANEL_W = 640
PANEL_H = 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 44, 52
_PLOT_W = PANEL_W - _MARGIN_L - _MARGIN_R
_PLOT_H = PANEL_H - _MARGIN_T - _MARGIN_B
_BASE_Y = _MARGIN_T + _PLOT_H  # pixel row of the x axis

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")

# Dark-blue -> teal -> yellow ramp; value order maps to ramp order, equal
# values to equal colors.
_RAMP = ((0.0, (68, 1, 84)), (0.25, (59, 82, 139)), (0.5, (33, 145, 140)),
         (0.75, (94, 201, 98)), (1.0, (253, 231, 37)))
_KNOTS = np.array([k for k, _ in _RAMP])
_CHANNELS = np.array([c for _, c in _RAMP], dtype=np.float64)
_HEX = np.array([ord(c) for c in "0123456789abcdef"], dtype=np.uint32)


@dataclass(frozen=True)
class Series:
    name: str
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class LineBundle:
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    log_y: bool = False


@dataclass(frozen=True)
class HeatmapBundle:
    title: str
    x_label: str
    y_label: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    values: np.ndarray  # rows map to y, columns to x


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """A polyline's ``points``: ``x,y`` pairs as `_fmt` writes them, joined by
    spaces, from one ``%`` over the interleaved coordinates."""
    xy = np.column_stack([xs, ys]).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)


def _label(v: float) -> str:
    return f"{v:.4g}"


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad
    pad = 1.0 if lo == 0.0 else 0.1 * abs(lo)
    return lo - pad, lo + pad


def _ramp_colors(t: np.ndarray) -> list:
    """``#rrggbb`` colors of t as nested lists, built as arrays with the scalar
    rule's rounding: channel round(a + w * (b - a)), half to even, in the first
    segment with t <= t1; NaN (from an overflowed span) gets the last color."""
    t = np.where(t <= _KNOTS[-1], t, _KNOTS[-1])
    seg = np.searchsorted(_KNOTS[1:], t)
    w = (t - _KNOTS[seg]) / (_KNOTS[seg + 1] - _KNOTS[seg])
    low = _CHANNELS[seg]
    rgb = np.rint(low + w[..., None] * (_CHANNELS[seg + 1] - low)).astype(np.int64)
    chars = np.full((*t.shape, 7), ord("#"), dtype=np.uint32)  # code points
    chars[..., 1:] = _HEX[(rgb[..., None] >> [4, 0] & 15).reshape(*t.shape, 6)]
    return chars.view("U7")[..., 0].tolist()


def _escape(text: str) -> str:
    """XML character data; the bytes of ``xml.sax.saxutils.escape``, whose
    import would pull ``urllib`` and ``email`` into every start-up."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x: float, y: float, content: str, anchor: str = "middle",
          size: int = 12, fill: str = "#000000", extra: str = "") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{fill}"{extra}>'
            f'{_escape(content)}</text>')


def _frame_and_title(title: str, x_label: str, y_label: str) -> list[str]:
    x0, x1 = _MARGIN_L, _MARGIN_L + _PLOT_W
    y0, y1 = _MARGIN_T, _MARGIN_T + _PLOT_H
    parts = [
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="#000000"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000000"/>',
        _text((x0 + x1) / 2, _MARGIN_T - 16, title, size=14),
        _text((x0 + x1) / 2, y1 + 38, x_label),
        _text(x0 - 52, (y0 + y1) / 2, y_label,
              extra=f' transform="rotate(-90 {_fmt(x0 - 52)} {_fmt((y0 + y1) / 2)})"'),
    ]
    return parts


def _px(v, lo: float, hi: float):
    """Pixel column of a value or array on an axis over [lo, hi]; an axis
    with lo == hi maps everything to its start, as does _py."""
    return _MARGIN_L + (0.0 if hi == lo else (v - lo) / (hi - lo)) * _PLOT_W


def _py(v, lo: float, hi: float):
    return _BASE_Y - (0.0 if hi == lo else (v - lo) / (hi - lo)) * _PLOT_H


def _tick_marks(x_range: tuple[float, float], y_range: tuple[float, float],
                y_text=_label) -> list[str]:
    """Five ticks with labels on each axis; ``y_text`` labels a y tick."""
    parts = []
    for t in np.linspace(*x_range, 5):
        x = _px(t, *x_range)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_BASE_Y}" x2="{_fmt(x)}" '
                     f'y2="{_BASE_Y + 5}" stroke="#000000"/>')
        parts.append(_text(x, _BASE_Y + 20, _label(t), size=11))
    for t in np.linspace(*y_range, 5):
        y = _py(t, *y_range)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(y)}" '
                     f'x2="{_MARGIN_L}" y2="{_fmt(y)}" stroke="#000000"/>')
        parts.append(_text(_MARGIN_L - 8, y + 4, y_text(t), anchor="end", size=11))
    return parts


def _panel_lines(bundle: LineBundle) -> list[str]:
    if not bundle.series:
        raise DomainError("line plot needs at least one series")
    for s in bundle.series:
        if len(s.x) != len(s.y) or len(s.x) == 0:
            raise DomainError(f"series {s.name!r} is empty or ragged")
        if not (np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.y))):
            raise DomainError(f"series {s.name!r} contains non-finite values")
        if bundle.log_y and np.any(np.asarray(s.y) <= 0.0):
            raise DomainError(
                f"series {s.name!r} has nonpositive values; log axis impossible")

    def transform_y(y):
        return np.log10(y) if bundle.log_y else np.asarray(y, dtype=np.float64)

    xs_all = np.concatenate([np.asarray(s.x, dtype=np.float64) for s in bundle.series])
    ys_all = np.concatenate([transform_y(s.y) for s in bundle.series])
    x_range = _axis_range(float(xs_all.min()), float(xs_all.max()))
    y_range = _axis_range(float(ys_all.min()), float(ys_all.max()))

    parts = _frame_and_title(bundle.title, bundle.x_label, bundle.y_label)
    parts += _tick_marks(x_range, y_range,
                         (lambda t: _label(10.0 ** t)) if bundle.log_y else _label)
    for idx, s in enumerate(bundle.series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = _points(_px(np.asarray(s.x, dtype=np.float64), *x_range),
                         _py(transform_y(s.y), *y_range))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{points}"/>')
        parts.append(_text(_MARGIN_L + _PLOT_W - 4, _MARGIN_T + 14 + 14 * idx,
                           s.name, anchor="end", size=11, fill=color))
    return parts


def _panel_heatmap(bundle: HeatmapBundle) -> list[str]:
    values = np.asarray(bundle.values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise DomainError("heatmap needs a nonempty 2-D value grid")
    if not np.all(np.isfinite(values)):
        raise DomainError("heatmap values contain non-finite entries")
    n_rows, n_cols = values.shape
    v_lo, v_hi = float(values.min()), float(values.max())
    span = v_hi - v_lo
    cell_w = _PLOT_W / n_cols
    cell_h = _PLOT_H / n_rows

    t = np.full(values.shape, 0.5) if span == 0.0 else (values - v_lo) / span
    xs = [_fmt(_MARGIN_L + j * cell_w) for j in range(n_cols)]
    size = f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}"'

    parts = _frame_and_title(bundle.title, bundle.x_label, bundle.y_label)
    # Row 0 sits at the bottom edge (low y value), matching plot orientation.
    for i, fills in enumerate(_ramp_colors(t)):
        y = _fmt(_BASE_Y - (i + 1) * cell_h)
        parts += [f'<rect class="cell" x="{x}" y="{y}" {size} fill="{fill}"/>'
                  for x, fill in zip(xs, fills)]
    return parts + _tick_marks(bundle.x_range, bundle.y_range)


def _panel(bundle) -> list[str]:
    if isinstance(bundle, LineBundle):
        return _panel_lines(bundle)
    if isinstance(bundle, HeatmapBundle):
        return _panel_heatmap(bundle)
    raise DomainError(f"cannot plot a {type(bundle).__name__}; "
                      "need a LineBundle or a HeatmapBundle")


def _document(body: list[str], width: int, height: int) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', head,
                      *body, "</svg>"]) + "\n"


def render_svg(bundle) -> str:
    """Render one chart as a standalone SVG 1.1 document; the bundle type
    picks the plot kind."""
    return _document(_panel(bundle), PANEL_W, PANEL_H)


def render_panels(bundles) -> str:
    """Stack bundles vertically into one standalone document."""
    bundles = list(bundles)
    if not bundles:
        raise DomainError("need at least one panel")
    body: list[str] = []
    for i, bundle in enumerate(bundles):
        body.append(f'<g transform="translate(0 {i * PANEL_H})">')
        body.extend(_panel(bundle))
        body.append("</g>")
    return _document(body, PANEL_W, PANEL_H * len(bundles))
