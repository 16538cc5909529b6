import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steklov_rect import DomainError, Edge, Rectangle

from _oracles import select_arclength_to_edge


def _walk(rect, s):
    """Reference map: walk the edges from (1, -alpha), subtracting each span in turn."""
    a = rect.alpha
    s = s % rect.perimeter
    if s < 2 * a:
        return Edge.RIGHT, -a + s
    s -= 2 * a
    if s < 2.0:
        return Edge.TOP, 1.0 - s
    s -= 2.0
    if s < 2 * a:
        return Edge.LEFT, a - s
    s -= 2 * a
    return Edge.BOTTOM, -1.0 + s


def near_corners(alpha):
    """The arc lengths of the four corners, 0 and the perimeter among them, and each one's
    neighbours an ulp either side."""
    c = np.array([0.0, 2 * alpha, 2 * alpha + 2.0, 4 * alpha + 2.0, 4.0 * (1.0 + alpha)])
    return np.concatenate([c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]).tolist()


ALPHAS = st.one_of(st.sampled_from([1.0, 0.9, 0.5, 0.37, 0.1, 1e-300]), st.floats(5e-324, 1.0))


@st.composite
def arclength_inputs(draw):
    """alpha and arc lengths: a float, a 0-d, 1-d or 2-d array, drawn near the corners, among
    -0.0, 5.6, +-inf and nan, within three perimeters of 0, or any double."""
    alpha = draw(ALPHAS)
    per = 4.0 * (1.0 + alpha)
    value = st.one_of(st.sampled_from(near_corners(alpha) + [-0.0, 5.6, math.inf, -math.inf, math.nan]),
                      st.floats(-3 * per, 3 * per), st.floats())
    values = draw(st.lists(value, min_size=1, max_size=40))
    form = draw(st.sampled_from(["float", "0-d", "1-d", "2-d"]))
    if form == "float":
        return alpha, values[0]
    if form == "0-d":
        return alpha, np.array(values[0])
    return alpha, np.array(values * 2).reshape(2, -1) if form == "2-d" else np.array(values)


class TestRectangle:
    def test_perimeter(self):
        assert Rectangle(0.25).perimeter == 5.0
        assert Rectangle(1.0).perimeter == 8.0

    def test_alpha_validation(self):
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                Rectangle(bad)

    def test_edge_geometry(self):
        rect = Rectangle(0.5)
        assert rect.edge_range(Edge.RIGHT) == (-0.5, 0.5)
        assert rect.edge_range(Edge.TOP) == (-1.0, 1.0)
        x, y = rect.edge_xy(Edge.LEFT, 0.2)
        assert (float(x), float(y)) == (-1.0, 0.2)

    def test_contains(self):
        rect = Rectangle(0.5)
        assert rect.contains(1.0, 0.5)
        assert not rect.contains(0.0, 0.500001)

    def test_boundary_point_validation(self):
        rect = Rectangle(0.5)
        with pytest.raises(DomainError):
            rect.boundary_point(Edge.RIGHT, 0.6)
        with pytest.raises(DomainError):
            rect.arclength_to_point(float("inf"))

    def test_arclength_roundtrip(self):
        for alpha in (0.4, 0.9, 0.37, 0.1, 1.0):
            rect = Rectangle(alpha)
            per = rect.perimeter
            corners = np.array([2 * alpha, 2 * alpha + 2.0, 4 * alpha + 2.0])
            near = [corners]
            for direction in (np.inf, -np.inf):
                c = corners
                for _ in range(4):
                    c = np.nextafter(c, direction)
                    near.append(c)
            s = np.concatenate([
                np.linspace(0.0, per, 37, endpoint=False),
                np.random.default_rng(7).uniform(0.0, per, 200),
                *near,
                [per, per + 0.3, 2 * per + 1.1],
            ])
            edges, t = rect.arclength_to_edge(s)
            for si, edge, ti in zip(s, edges, t):
                p = rect.arclength_to_point(float(si))
                want_edge, want_t = _walk(rect, float(si))
                assert (p.edge, p.t.hex()) == (want_edge, want_t.hex())
                assert (Edge(int(edge)), float(ti).hex()) == (want_edge, want_t.hex())
                assert rect.arclength_of(p.edge, p.t) == pytest.approx(float(si) % per, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(arclength_inputs())
    @example((0.9, 5.6))
    @example((0.5, np.array([math.nan, -0.0, 3.0, math.inf, 0.0, -math.inf, 6.0, 1.0])))
    def test_arclength_to_edge_matches_select(self, inputs):
        # the sorted runs give the edges and t of the whole-array select, bit for bit, in the
        # same types and shapes
        alpha, s = inputs
        got, want = Rectangle(alpha).arclength_to_edge(s), select_arclength_to_edge(alpha, s)
        for g, w in zip(got, want):
            assert (type(g), g.dtype, g.shape) == (type(w), w.dtype, w.shape)
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_arclength_walks_counterclockwise(self):
        rect = Rectangle(0.5)
        p0 = rect.arclength_to_point(0.0)
        assert (p0.x, p0.y) == (1.0, -0.5)  # start vertex
        p1 = rect.arclength_to_point(0.3)
        assert p1.edge == Edge.RIGHT and p1.y == pytest.approx(-0.2)
        p2 = rect.arclength_to_point(1.0 + 0.5)  # 0.5 into the top edge
        assert p2.edge == Edge.TOP and p2.x == pytest.approx(0.5)

    def test_corner_detection(self):
        rect = Rectangle(0.5)
        assert rect.is_corner(Edge.RIGHT, 0.5)
        assert rect.is_corner(Edge.TOP, -1.0)
        assert not rect.is_corner(Edge.TOP, -0.99)
