import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stokit import (DomainError, HeatmapBundle, LineBundle, Series,
                    render_panels, render_svg, svgplot)


def one_series(name="unit"):
    return Series(name, np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_single_series_has_exactly_one_polyline():
    svg = render_svg(LineBundle("t", "x", "y", (one_series(),)))
    assert svg.count("<polyline") == 1


def test_identical_input_is_byte_identical():
    a = render_svg(LineBundle("t", "x", "y", (one_series(),)))
    b = render_svg(LineBundle("t", "x", "y", (one_series(),)))
    assert a == b


def test_one_polyline_per_series():
    bundle = LineBundle("t", "x", "y", (one_series("a"), one_series("b"),
                                        one_series("c")))
    assert render_svg(bundle).count("<polyline") == 3


def test_heatmap_cell_count_and_color_mapping():
    values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
    svg = render_svg(HeatmapBundle("t", "x", "y", (0.0, 1.0), (0.0, 1.0),
                                   values))
    assert svg.count('class="cell"') == 9

    # equal values -> equal fill colors
    flat = np.array([[1.0, 5.0, 1.0]])
    svg2 = render_svg(HeatmapBundle("t", "x", "y", (0.0, 1.0), (0.0, 1.0),
                                    flat))
    cells = [line for line in svg2.splitlines() if 'class="cell"' in line]
    colors = [c.split('fill="')[1].split('"')[0] for c in cells]
    assert colors[0] == colors[2]
    assert colors[0] != colors[1]


def test_constant_heatmap_single_color():
    svg = render_svg(HeatmapBundle("t", "x", "y", (0.0, 1.0), (0.0, 1.0),
                                   np.full((2, 2), 3.3)))
    cells = [line for line in svg.splitlines() if 'class="cell"' in line]
    colors = {c.split('fill="')[1].split('"')[0] for c in cells}
    assert len(colors) == 1


def test_rejects_non_finite():
    bad = Series("bad", np.array([0.0, 1.0]), np.array([0.0, np.nan]))
    with pytest.raises(DomainError):
        render_svg(LineBundle("t", "x", "y", (bad,)))
    with pytest.raises(DomainError):
        render_svg(HeatmapBundle("t", "x", "y", (0.0, 1.0), (0.0, 1.0),
                                 np.array([[1.0, np.inf]])))


def test_rejects_empty():
    with pytest.raises(DomainError):
        render_svg(LineBundle("t", "x", "y", ()))
    with pytest.raises(DomainError):
        render_panels([])


def test_log_axis_requires_positive():
    s = Series("s", np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        render_svg(LineBundle("t", "x", "y", (s,), log_y=True))


def test_rejects_non_bundle():
    with pytest.raises(DomainError):
        render_svg(one_series())
    with pytest.raises(DomainError):
        render_panels([LineBundle("t", "x", "y", (one_series(),)), "lines"])


def test_panels_stack():
    doc = render_panels([
        LineBundle("a", "x", "y", (one_series(),)),
        HeatmapBundle("b", "x", "y", (0.0, 1.0), (0.0, 1.0), np.eye(2)),
    ])
    assert doc.count("<g transform=") == 2
    assert doc.count("<polyline") == 1
    assert doc.count('class="cell"') == 4
    assert doc.startswith('<?xml version="1.0"')
    assert doc.rstrip().endswith("</svg>")


def test_constant_series_renders():
    s = Series("flat", np.array([0.0, 1.0]), np.array([2.0, 2.0]))
    svg = render_svg(LineBundle("t", "x", "y", (s,)))
    assert svg.count("<polyline") == 1


def _ramp_color(t):
    """The scalar color rule, one t at a time."""
    ramp = svgplot._RAMP
    for (t0, c0), (t1, c1) in zip(ramp, ramp[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            r, g, b = (round(a + w * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    r, g, b = ramp[-1][1]
    return f"#{r:02x}{g:02x}{b:02x}"


def _per_cell_rects(values):
    """The heatmap's cells, each formatted from its own expressions."""
    fmt = svgplot._fmt
    n_rows, n_cols = values.shape
    v_lo, v_hi = float(values.min()), float(values.max())
    span = v_hi - v_lo
    cell_w, cell_h = svgplot._PLOT_W / n_cols, svgplot._PLOT_H / n_rows
    rects = []
    for i in range(n_rows):
        cy = svgplot._BASE_Y - (i + 1) * cell_h
        for j in range(n_cols):
            with np.errstate(over="ignore", invalid="ignore"):
                t = 0.5 if span == 0.0 else (values[i, j] - v_lo) / span
            rects.append(
                f'<rect class="cell" x="{fmt(svgplot._MARGIN_L + j * cell_w)}" '
                f'y="{fmt(cy)}" width="{fmt(cell_w)}" height="{fmt(cell_h)}" '
                f'fill="{_ramp_color(float(t))}"/>')
    return rects


# Cell values at the ramp knots and their neighbours; a grid holding both 0
# and 1 has exactly these values as its t.
_KNOT_VALUES = sorted({v for k in (0.0, 0.25, 0.5, 0.75, 1.0)
                       for v in (np.nextafter(k, -1.0), k, np.nextafter(k, 2.0))
                       if 0.0 <= v <= 1.0})
_GRID_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 6))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _unit_span(values):
    values.flat[0], values.flat[-1] = 0.0, 1.0
    return values


@settings(deadline=None)
@given(st.one_of(
    arrays(np.float64, _GRID_SHAPES,
           elements=st.sampled_from(_KNOT_VALUES)).map(_unit_span),
    arrays(np.float64, _GRID_SHAPES, elements=st.one_of(
        st.sampled_from(_KNOT_VALUES), st.floats(-4.0, 4.0), _FINITE))))
@example(np.array(_KNOT_VALUES).reshape(1, -1))
@example(np.full((3, 4), -2.5))
@example(np.array([[7.0]]))
@example(np.array([[-1e308, 1e308]]))
@example(np.array([[-1e308, 0.0, 1e308], [5e307, -5e307, 1.0]]))
def test_heatmap_cells_match_the_per_cell_rule(values):
    # Every cell's x, y, width, height and fill equal the scalar per-cell
    # expressions, including t on and next to the knots, a constant grid
    # (t = 0.5), a 1 x 1 grid and a span that overflows to inf (NaN t).
    with np.errstate(over="ignore", invalid="ignore"):
        svg = render_svg(HeatmapBundle("t", "x", "y", (0.0, 1.0), (0.0, 1.0),
                                       values))
    cells = [line for line in svg.splitlines() if 'class="cell"' in line]
    assert cells == _per_cell_rects(values)


def test_ramp_colors_match_the_scalar_rule():
    # Multiples of 2**-10 put channels exactly half way between integers,
    # where rounding half to even and half up differ.
    t = np.concatenate([_KNOT_VALUES, [np.nan], np.arange(1025) / 1024,
                        np.random.default_rng(3).uniform(0.0, 1.0, 20000)])
    assert svgplot._ramp_colors(t) == [_ramp_color(float(v)) for v in t]


# -0.0, exact halves at the second decimal (0.125, 2.375, -0.625), their
# neighbours, and magnitudes of 1e16 and up, where %.2f writes every digit.
_POINT_VALUES = [-0.0, 0.0, 0.125, -0.125, 2.375, -0.625, 0.005, 1e16, -1e16,
                 123456789012345678.0, 1e300, -1.7976931348623157e308,
                 *(float(np.nextafter(v, d)) for v in (0.125, 2.375) for d in (-1.0, 9.0))]


@given(st.lists(st.tuples(st.one_of(st.sampled_from(_POINT_VALUES), _FINITE),
                          st.one_of(st.sampled_from(_POINT_VALUES), _FINITE)),
                min_size=1, max_size=12))
def test_polyline_points_match_the_per_point_rule(pairs):
    xs, ys = np.array(pairs).T
    per_point = " ".join(f"{svgplot._fmt(a)},{svgplot._fmt(b)}" for a, b in pairs)
    assert svgplot._points(xs, ys) == per_point
