"""The centre value as the integral of the data against the rectangle's Poisson kernel at its centre
(_oracles.centre_by_kernel): exact values, the certified central values, and the a-priori central
tails against the worst error of a truncation (_oracles.centre_tail_gap)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steklov_rect import (
    AnalyticBoundaryFunction,
    Rectangle,
    SampledBoundaryFunction,
    builtin_boundary,
    central_value,
    expand_for_central,
)
from steklov_rect.bounds import rect_center_tail, square_center_tail

from _oracles import centre_by_kernel, centre_tail_gap

EPS = np.finfo(float).eps


def top_edge(alpha):
    """1 on the top edge, 0 on the others: data that jumps at two corners."""
    return AnalyticBoundaryFunction(lambda x, y: (y == alpha) * 1.0)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.05])
def test_kernel_mass_is_one(alpha):
    assert abs(centre_by_kernel(lambda x, y: np.ones_like(x), alpha) - 1.0) <= EPS


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("name", ["const:2.5", "coshcos:2", "x2-y2"])
def test_centre_values_of_harmonic_data(alpha, name):
    h = builtin_boundary(name)
    want = float(h.fn(0.0, 0.0))
    for data in (h.fn, h):  # as a rule, and as the library's boundary function
        assert abs(centre_by_kernel(data, alpha) - want) <= EPS * max(1.0, abs(want))


def test_centre_value_near_a_pole():
    # Re 1/(z - 1.003) is harmonic in the square, with its pole 0.003 from the right edge
    value = centre_by_kernel(lambda x, y: (x - 1.003) / ((x - 1.003) ** 2 + y * y), 1.0, panels=1000)
    assert abs(value + 1.0 / 1.003) <= 2 * EPS


def test_top_edge_indicator_on_the_square_is_a_quarter():
    # each edge of the square carries a quarter of the kernel's mass
    assert abs(centre_by_kernel(top_edge(1.0).fn, 1.0) - 0.25) <= EPS / 4


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.2])
def test_central_covers_the_top_edge_indicator(alpha):
    # the jumps fall on corners, where the quadrature panels end: every truncation is certified
    h = top_edge(alpha)
    exact = centre_by_kernel(h.fn, alpha)
    for m in range(31):
        r = central_value(expand_for_central(h, alpha, m))
        assert abs(r.value - exact) <= r.bound, m


SAMPLED_CASES = [(1.0, 3), (1.0, 6), (0.5, 3), (0.5, 6), (0.5, 12),
                 # the bound, 7.1e-15, has no term for the quadrature, whose panels straddle the splines'
                 # knots: the value is off by 2.8e-12 (ROADMAP item 2)
                 pytest.param(1.0, 12, marks=pytest.mark.xfail(strict=True, reason="knots not resolved"))]


@pytest.mark.parametrize("alpha,m", SAMPLED_CASES)
def test_central_covers_sampled_data(alpha, m):
    # the certificate is for the splines' harmonic extension, whose centre value the oracle takes
    # from the same splines (on panels 400 to an edge, which resolve the knots to rounding); that
    # value is the sampled function's to the splines' error
    rect = Rectangle(alpha)
    s = (np.arange(300) + 0.5) * rect.perimeter / 300
    pts = [rect.arclength_to_point(float(si)) for si in s]
    sampled = SampledBoundaryFunction(rect, s, [math.cosh(2 * p.x) * math.cos(2 * p.y) for p in pts])
    exact = centre_by_kernel(sampled, alpha, panels=400)
    assert abs(exact - 1.0) < 1e-7
    r = central_value(expand_for_central(sampled, alpha, m))
    assert abs(r.value - exact) <= r.bound


# at alpha = 1 and m = 12 the gap is 2.3e-17: the oracle's long double resolves it, a double would not
@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.05, 1.0), m=st.integers(0, 12))
@example(alpha=1.0, m=12)
@example(alpha=0.05, m=12)
@example(alpha=0.05, m=0)
def test_central_tails_cover_the_worst_truncation_error(alpha, m):
    tail = square_center_tail(m) if alpha == 1.0 else rect_center_tail(m, alpha)
    assert tail >= centre_tail_gap(alpha, m)
