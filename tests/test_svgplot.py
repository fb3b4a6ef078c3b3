import numpy as np
import pytest

from stokit import (DomainError, HeatmapBundle, LineBundle, Series,
                    render_panels, render_svg)


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
