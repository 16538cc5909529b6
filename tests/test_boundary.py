import csv
import dataclasses
import math
import os
import tracemalloc
import urllib.request
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import make_interp_spline

from steklov_rect import (
    AnalyticBoundaryFunction,
    BoundaryDataError,
    BoundaryFunction,
    Edge,
    EdgeCoverageError,
    Family,
    InvalidModeError,
    LinearCombination,
    ModeId,
    ModeTrace,
    Rectangle,
    SampledBoundaryFunction,
    SymmetryClass,
    builtin_boundary,
    central_value,
    coefficient,
    constant_function,
    expand_dirichlet,
    expand_for_central,
    first_modes,
    inner_product,
    load_boundary_csv,
    resolve,
)
from steklov_rect import boundary as bd
from steklov_rect.modes import _block_factors, _first_modes_table, _mode_table, evaluate
from steklov_rect.boundary import (BUILTIN_NAMES, _MAX_ORDER, _EdgeSpline, _boundary_grid,
                                   default_panels, edge_quadrature, project)

from _oracles import (apply_by_increments, boundary_integral, boundary_mean, fd_laplacian, fold_by_mirrors,
                      paired_inner_product, select_arclength_to_edge)


def class_one(j, alpha=1.0, fam=Family.X):
    return resolve(ModeId.separated(SymmetryClass.I, fam, j), alpha)


class TestQuadratureRule:
    def test_gauss_exactness(self):
        # order-n Gauss integrates polynomials of degree 2n-1 exactly per panel
        rect = Rectangle(1.0)
        pts, wts = edge_quadrature(rect, Edge.TOP, order=3, panels=1)
        poly = pts**5 + pts**4 + 1.0
        assert np.dot(wts, poly) == pytest.approx(2.0 / 5.0 + 2.0, rel=1e-14)
        # one degree beyond is no longer exact at a single panel
        beyond = np.dot(wts, pts**6)
        assert abs(beyond - 2.0 / 7.0) > 1e-6

    def test_panels_cover_edge(self):
        rect = Rectangle(0.5)
        pts, wts = edge_quadrature(rect, Edge.RIGHT, order=8, panels=5)
        assert wts.sum() == pytest.approx(1.0, rel=1e-14)  # edge length 2 * alpha
        assert pts.min() > -0.5 and pts.max() < 0.5

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.37, 0.1, 0.013])
    @pytest.mark.parametrize("edge", [Edge.RIGHT, Edge.TOP])
    @pytest.mark.parametrize("panels", [4, 5, 17, 93, 1000])
    def test_grid_is_mirror_symmetric_bit_for_bit(self, alpha, edge, panels):
        # project folds the data about t = 0 and takes each factor on t >= 0 only
        for order in (32, 5):
            pts, wts = edge_quadrature(Rectangle(alpha), edge, order, panels)
            assert np.array_equal(pts, -pts[::-1]) and np.array_equal(wts, wts[::-1])
            assert np.all(np.diff(pts) > 0)

    def test_order_above_the_cap_is_refused(self, monkeypatch):
        # nodes at a huge order would take minutes and gigabytes: refused before leggauss runs
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: pytest.fail(f"nodes at order {n}"))
        with pytest.raises(ValueError, match=str(_MAX_ORDER)):
            edge_quadrature(Rectangle(1.0), Edge.TOP, order=_MAX_ORDER + 1, panels=1)

    def test_default_panels_scale_with_frequency(self):
        assert default_panels(0.0) == 4
        assert default_panels(40.0) == math.ceil(40.0 / math.pi)

    def test_default_panels_refuses_a_grid_of_gigabytes(self):
        # x-family roots near 2.4e9 (alpha = 1e-9, coarse root tolerance) would
        # ask for 7.5e8 panels of 32 nodes per edge
        assert default_panels(1e5) == math.ceil(1e5 / math.pi)
        with pytest.raises(BoundaryDataError, match="quadrature panels"):
            default_panels(2.4e9)


class TestInnerProduct:
    def test_constant_normalization(self):
        one = constant_function(1.0)
        for alpha in (0.1, 0.5, 1.0):
            assert inner_product(one, one, rect=Rectangle(alpha)) == pytest.approx(1.0, rel=1e-14)

    def test_mode_orthogonality(self):
        a = ModeTrace(class_one(1))
        b = ModeTrace(class_one(2))
        assert abs(inner_product(a, b)) < 1e-10

    def test_symmetry_is_exact(self):
        u = AnalyticBoundaryFunction(lambda x, y: np.cos(1.3 * x) + y)
        v = AnalyticBoundaryFunction(lambda x, y: x * y + 0.5)
        rect = Rectangle(0.8)
        assert inner_product(u, v, rect=rect) == inner_product(v, u, rect=rect)

    def test_linearity(self):
        rect = Rectangle(0.7)
        u = AnalyticBoundaryFunction(lambda x, y: np.exp(0.3 * x) * np.cos(y))
        w = AnalyticBoundaryFunction(lambda x, y: x**2 - y)
        v = AnalyticBoundaryFunction(lambda x, y: np.sin(x + y))
        a, b = 2.25, -0.75
        lhs = inner_product(LinearCombination([(a, u), (b, w)]), v, rect=rect)
        rhs = a * inner_product(u, v, rect=rect) + b * inner_product(w, v, rect=rect)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_panel_doubling_converges(self):
        rect = Rectangle(1.0)
        u = AnalyticBoundaryFunction(lambda x, y: np.cos(np.pi * x / 2) * np.cosh(y))
        vals = [inner_product(u, u, rect=rect, panels=p) for p in (8, 16, 32)]
        assert abs(vals[1] - vals[0]) < 1e-12
        assert abs(vals[2] - vals[1]) < 1e-13

    def test_against_independent_quadrature(self):
        alpha = 0.6
        u = builtin_boundary("x2-y2")
        got = project(u, Rectangle(alpha), [])[0]
        want = boundary_mean(lambda x, y: x * x - y * y, alpha)
        assert got == pytest.approx(want, abs=1e-12)

    def test_alpha_mismatch_rejected(self):
        tr = ModeTrace(class_one(1, alpha=0.5))
        with pytest.raises(BoundaryDataError):
            inner_product(tr, constant_function(1.0), rect=Rectangle(1.0))

    def test_trace_on_another_rectangle_is_refused_on_the_grid(self):
        with pytest.raises(BoundaryDataError, match="defined on alpha=0.5, used with alpha=1.0"):
            project(ModeTrace(class_one(1, alpha=0.5)), Rectangle(1.0), [])

    def test_modes_of_another_rectangle_are_refused(self):
        # their coefficients on the square's grid would be wrong, with no error
        modes = first_modes(0.5, 12, classes=[SymmetryClass.I])
        with pytest.raises(InvalidModeError, match="another rectangle"):
            project(builtin_boundary("coshcos:2"), Rectangle(1.0), modes)
        with pytest.raises(InvalidModeError):
            project(builtin_boundary("coshcos:2"), Rectangle(0.5), [class_one(1, alpha=0.5), class_one(1)])

    def test_rect_needed_when_neither_function_carries_one(self):
        with pytest.raises(ValueError, match="rect must be given"):
            inner_product(builtin_boundary("x"), builtin_boundary("y"))


class TestNorm:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_data_not_finite_is_refused(self, value):
        # project and coefficient refuse such data as the solvers do, with no numpy warning
        h, mode = constant_function(value), first_modes(1.0, 3)[2]
        for call in (lambda: project(h, Rectangle(1.0), first_modes(1.0, 3)), lambda: coefficient(h, mode)):
            with pytest.raises(BoundaryDataError, match="^boundary data is not finite: mean = "):
                call()


class TestMean:
    def test_constant(self):
        assert project(constant_function(2.5), Rectangle(0.4), [])[0] == pytest.approx(2.5, rel=1e-14)

    def test_mode_trace_mean_zero(self):
        for j in (1, 3):
            mode = class_one(j)
            assert abs(project(ModeTrace(mode), mode.rect, [])[0]) < 1e-10

    def test_x2y2_mean_zero_on_square(self):
        # edges x = +-1 contribute 1 - y^2, edges y = +-1 contribute x^2 - 1
        assert abs(project(builtin_boundary("x2-y2"), Rectangle(1.0), [])[0]) < 1e-12

    # data odd along or across each pair of edges: its (even, even) fold, which the mean sums, is 0.0
    @pytest.mark.parametrize("name", ["x", "y", "xy", "x3-3xy2", "3x2y-y3", "4x3y-4xy3"])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_odd_data_has_exact_zero_mean(self, alpha, name):
        h = builtin_boundary(name)
        assert project(h, Rectangle(alpha), [])[0] == 0.0
        assert project(h, Rectangle(alpha), first_modes(alpha, 40))[0] == 0.0


class TestCoefficient:
    def test_self_coefficient_one(self):
        mode = class_one(2)
        assert coefficient(ModeTrace(mode), mode) == pytest.approx(1.0, abs=1e-9)

    def test_cross_coefficient_zero(self):
        assert abs(coefficient(ModeTrace(class_one(3)), class_one(1))) < 1e-9

    def test_constant_against_mode(self):
        assert abs(coefficient(constant_function(1.0), class_one(1))) < 1e-10


class TestCoefficients:
    """One grid per expansion: every coefficient, the mean and the norm from one evaluation of the data."""

    @staticmethod
    def data(alpha):
        waves = LinearCombination([
            (0.7, builtin_boundary("x2-y2")),
            (-0.4, builtin_boundary("x3-3xy2")),
            (0.3, builtin_boundary("coshcos:2.2")),
            (0.2, builtin_boundary("sinsinh:1.7")),
            (0.5, builtin_boundary("xy")),
        ])
        rect = Rectangle(alpha)
        s = np.linspace(0.0, rect.perimeter, 400, endpoint=False) + 1e-3
        pts = [rect.arclength_to_point(v) for v in s]
        sampled = SampledBoundaryFunction(rect, s, [p.x**3 - 3 * p.x * p.y**2 + p.y for p in pts])
        return [builtin_boundary("coscosh:1.3"), waves, sampled]

    @staticmethod
    def on_edges(h, rect):
        """h as a function of (x, y) on the boundary, for the oracle's edge-by-edge calls."""
        def fn(x, y):
            if np.all(x == 1.0):
                return h.edge_values(rect, Edge.RIGHT, y)
            if np.all(x == -1.0):
                return h.edge_values(rect, Edge.LEFT, y)
            return h.edge_values(rect, Edge.TOP if np.all(y == rect.alpha) else Edge.BOTTOM, x)
        return fn

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.37, 0.1, 0.013])
    def test_matches_independent_quadrature(self, alpha):
        rect = Rectangle(alpha)
        modes = [resolve(ModeId.constant(), alpha)] + first_modes(alpha, 80)
        kinds = {(m.symmetry_class, m.family) for m in modes if m.family is not None}
        # at alpha 0.013 no class I or IV x mode is among the first 200
        assert len(kinds) == (8 if alpha > 0.05 else 6)
        assert any(m.mode_id == ModeId.xy() for m in modes) == (alpha == 1.0)
        for h in self.data(alpha):
            fn, (_, norm, got) = self.on_edges(h, rect), project(h, rect, modes)
            # one 100-node Gauss panel per edge resolves nu <= 60; scipy's
            # nodes for n >= 140 carry ~1e-13 errors of their own
            want = [boundary_integral(lambda x, y: fn(x, y) * evaluate(m, x, y), alpha, n=100) / rect.perimeter
                    for m in modes]
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * norm
            assert [coefficient(h, m) for m in modes[::7]] == pytest.approx(want[::7], abs=1e-13 * norm)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.01])
    def test_one_grid_matches_per_mode_grids(self, alpha):
        # inner_product sizes a grid for each integral alone, edge by edge; the
        # difference from project's one grid is rounding only
        rect = Rectangle(alpha)
        modes = first_modes(alpha, 400)
        for h in self.data(alpha):
            norm = math.sqrt(inner_product(h, h, rect=rect))
            assert len({default_panels(h.freq_hint + m.nu) for m in modes}) > 40
            want = [inner_product(h, ModeTrace(m)) for m in modes]
            mean_h, norm_h, got = project(h, rect, modes)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * norm
            assert mean_h == pytest.approx(inner_product(h, constant_function(1.0), rect=rect), abs=1e-14 * norm)
            assert norm_h == pytest.approx(norm, rel=1e-14)

    @pytest.mark.parametrize("field,shift", [("nu", lambda nu: 1.01 * nu), ("log_scale", lambda s: s + 0.5)],
                             ids=["nu", "log_scale"])
    def test_each_mode_reads_its_own_values(self, field, shift):
        # a mode changed by dataclasses.replace is no longer the stream's: its coefficient is
        # taken with its own nu and log_scale, as inner_product takes it on the same grid
        alpha = 0.5
        rect = Rectangle(alpha)
        modes = first_modes(alpha, 120)
        k = next(i for i, m in enumerate(modes) if m.index == 3)
        modes[k] = dataclasses.replace(modes[k], **{field: shift(getattr(modes[k], field))})
        for h in self.data(alpha):
            panels = default_panels(h.freq_hint + max(m.nu for m in modes))
            want = [inner_product(h, ModeTrace(m), panels=panels) for m in modes]
            _, norm, got = project(h, rect, modes)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * norm
        stream = inner_product(h, ModeTrace(first_modes(alpha, 120)[k]), panels=panels)
        assert abs(got[k] - stream) > 1e-6 * norm

    def test_no_modes(self):
        assert project(constant_function(1.0), Rectangle(1.0), [])[2] == []

    @pytest.mark.parametrize("alpha", [1.0, 0.37])
    def test_factor_parity(self, alpha):
        # the fold in project trusts these parities: s(-x, y) and s(x, -y) by _mode_table
        modes = [resolve(ModeId.constant(), alpha)] + first_modes(alpha, 60)
        t = np.linspace(0.05, 0.95, 7)
        for mode in modes:
            [(*block, (even_x, even_y))] = _mode_table([mode]).blocks(t.size)
            fx, fy = _block_factors([mode], *block, t, alpha * t)
            gx, gy = _block_factors([mode], *block, -t, -alpha * t)
            assert np.array_equal(gx, fx if even_x else -fx)
            assert np.array_equal(gy, fy if even_y else -fy)

    @pytest.mark.parametrize("alpha,order,odd", [(1.0, 5, "long"), (0.5, 5, "long"), (1.0, 2, "long"),
                                                 (0.5, 2, "long"), (0.5, 5, "short"), (0.25, 2, "short")],
                             ids=["1.0", "0.5", "1.0-order2", "0.5-order2", "0.5-short", "0.25-short-order2"])
    def test_odd_grid_matches_per_mode_quadrature(self, alpha, order, odd):
        # an odd panel count centres a panel on t = 0; order 5 leaves its middle node without a
        # mirror. The pairs of edges have their own panel counts; the odd one is the long pair
        # (top and bottom, half-length 1) or the short one (half-length alpha)
        rect = Rectangle(alpha)
        spectrum = first_modes(alpha, 80)
        half = 1.0 if odd == "long" else alpha
        for h in self.data(alpha):
            freq, modes = next((f, spectrum[:k]) for k in range(20, 81)
                               if default_panels(half * (f := h.freq_hint + max(m.nu for m in spectrum[:k]))) % 2)
            panels = default_panels(alpha * freq), default_panels(freq)
            want = [paired_inner_product(h, ModeTrace(m), rect, order, *panels) for m in modes]
            _, norm, got = project(h, rect, modes, order)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * norm


    # data of one parity pattern and the coefficients its parities force to 0.0
    @pytest.mark.parametrize("name,classes,with_xy", [
        ("x2-y2", (SymmetryClass.II, SymmetryClass.III, SymmetryClass.IV), True),
        ("xy", (SymmetryClass.I, SymmetryClass.III, SymmetryClass.IV), False),
        ("x3-3xy2", (SymmetryClass.I, SymmetryClass.II, SymmetryClass.III), True),
        ("3x2y-y3", (SymmetryClass.I, SymmetryClass.II, SymmetryClass.IV), True),
        ("4x3y-4xy3", (SymmetryClass.I, SymmetryClass.III, SymmetryClass.IV), False),
    ])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_parity_forbidden_coefficients_are_exact_zeros(self, alpha, name, classes, with_xy):
        modes = first_modes(alpha, 200)
        got = project(builtin_boundary(name), Rectangle(alpha), modes)[2]
        zero = [c for c, m in zip(got, modes)
                if m.symmetry_class in classes or (with_xy and m.mode_id == ModeId.xy())]
        assert len(zero) >= 100
        assert zero == [0.0] * len(zero)

    @pytest.mark.parametrize("cls,alpha", [(SymmetryClass.I, 1.0), (SymmetryClass.IV, 1.0),
                                           (SymmetryClass.I, 0.1), (SymmetryClass.IV, 0.1)],
                             ids=["I", "IV", "I-0.1", "IV-0.1"])
    def test_high_mode_trace_is_orthonormal(self, cls, alpha):
        modes = first_modes(alpha, 1000)
        k = max(i for i, m in enumerate(modes) if m.symmetry_class == cls)
        assert modes[k].nu > 350
        got = np.array(project(ModeTrace(modes[k]), Rectangle(alpha), modes)[2])
        assert abs(got[k] - 1.0) <= 1e-12
        assert np.max(np.abs(np.delete(got, k))) <= 1e-12

    @pytest.mark.parametrize("alpha,data,modes", [
        (0.003, "coshcos:2", "central"),  # 918 panels per edge
        (1.0, "coshcos:300", 50),
        (0.5, "coshcos:300", 50),
    ])
    def test_no_overflow_or_invalid(self, alpha, data, modes):
        h = builtin_boundary(data)
        if modes == "central":
            modes = [term.mode for term in expand_for_central(h, alpha, 3).terms]
        else:
            modes = first_modes(alpha, modes)
        with np.errstate(over="raise", invalid="raise"):
            _, norm, got = project(h, Rectangle(alpha), modes)
        assert all(math.isfinite(c) and abs(c) <= norm for c in got)

    def test_peak_memory(self):
        rect, modes, h = Rectangle(0.1), first_modes(0.1, 400), builtin_boundary("coshcos:2")
        project(h, rect, modes)  # Gauss rule and imports cached
        tracemalloc.start()
        try:
            project(h, rect, modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75e6


class TestFoldOracle:
    """_fold's gathers and _apply's single writes give the bits of the mirror-and-concatenate fold
    and the += apply they replaced (_oracles), compared by tobytes, so -0.0 against 0.0 counts."""

    ODD = ("x", "y", "xy", "3x2y-y3", "x3-3xy2", "4x3y-4xy3", "sinhsin:0.9", "sinsinh:1.3")  # in x, y or both

    @classmethod
    def data(cls, alpha, which):
        rect = Rectangle(alpha)
        if which < len(cls.ODD):
            return builtin_boundary(cls.ODD[which])
        which -= len(cls.ODD)
        if which == 0:  # a part odd in x and one odd in y
            return LinearCombination([(0.7, builtin_boundary("x")), (-1.3, builtin_boundary("3x2y-y3"))])
        if which == 1:  # even in both
            return LinearCombination([(0.4, builtin_boundary("const:2.5")), (-0.8, builtin_boundary("coshcos:1.7")),
                                      (0.6, builtin_boundary("coscosh:2.2")), (1.1, builtin_boundary("x2-y2"))])
        lengths = np.array([2.0 * alpha, 2.0, 2.0 * alpha, 2.0])  # 60 samples an edge, off its corners
        s = (np.cumsum(lengths) - lengths)[:, None] + lengths[:, None] * (np.arange(60) + 0.5) / 60
        return SampledBoundaryFunction(rect, s.ravel(), np.cos(3.0 * s.ravel()) - 0.5 * s.ravel())

    @staticmethod
    def bits(mean, norm, folds, coeffs):
        return (np.array([mean, norm]).tobytes(), [{k: v.tobytes() for k, v in f.items()} for f in folds],
                np.asarray(coeffs).tobytes())

    @classmethod
    def assert_equal(cls, u, rect, table, order, panels):
        plan = lambda: bd._plan(table, rect.alpha, order, panels)  # a streamed plan's items are read once
        mean, norm, folds = bd._fold(u, rect, plan(), order)
        got = cls.bits(mean, norm, folds, bd._apply(plan(), folds))
        mean, norm, folds = fold_by_mirrors(u, rect, plan(), order)
        assert got == cls.bits(mean, norm, folds, apply_by_increments(plan(), folds))

    def test_gathers_past_65536_nodes(self):
        # 68262 nodes: the gathers' indices no longer fit uint16
        rect, u = Rectangle(1.0), self.data(1.0, len(self.ODD))
        table = _first_modes_table(1.0, 20, None)
        assert bd._plan(table, 1.0, 31, (1101, 1101)).gathers[0].dtype == np.uint32
        self.assert_equal(u, rect, table, 31, (1101, 1101))

    def test_apply_writes_the_sum_of_increments_into_zeros(self):
        # a slice whose parts on both pairs are -0.0: two += into zeros make 0.0 of them
        rows, across, tables = np.array([0]), np.array([-1.0]), (np.ones((1, 2)),)
        plan = bd._Plan(1, (), (), (), (), [(rows, pair, (True, True), across, tables) for pair in (0, 1)])
        folds = [{(True, True): np.zeros((1, 2))}] * 2
        assert bd._apply(plan, folds).tobytes() == apply_by_increments(plan, folds).tobytes() == np.zeros(1).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.one_of(st.just(1.0), st.floats(math.log(1e-3), 0.0).map(math.exp)),
        order=st.integers(2, 9),
        panels=st.tuples(st.integers(4, 13), st.integers(4, 13)),
        classes=st.sets(st.sampled_from(list(SymmetryClass)), min_size=1),
        count=st.integers(0, 12),
        constant=st.booleans(),
        which=st.integers(0, len(ODD) + 2),
        streamed=st.booleans(),
    )
    def test_fold_and_apply_equal_the_oracle(self, alpha, order, panels, classes, count, constant, which, streamed):
        rect, u = Rectangle(alpha), self.data(alpha, which)
        table = _first_modes_table(alpha, count, classes)
        if constant:
            table = _mode_table([resolve(ModeId.constant(), alpha), *table.modes])
        with mock.patch.object(bd, "_TABLE_VALUES", 0 if streamed else bd._TABLE_VALUES):
            self.assert_equal(u, rect, table, order, panels)
            # _project, on the panels of u's frequency
            got = bd._project(u, rect, table, order)
            freq = u.freq_hint + table.max_nu
            panels = default_panels(alpha * freq), default_panels(freq)
            mean, norm, folds = fold_by_mirrors(u, rect, bd._plan(table, alpha, order, panels), order)
            want = apply_by_increments(bd._plan(table, alpha, order, panels), folds) / rect.perimeter
        assert np.array(got[:2]).tobytes() == np.array([mean, norm]).tobytes()
        assert got[2].tobytes() == want.tobytes()


class EdgesOnly(BoundaryFunction):
    """Forwards edge_values only, so project takes the default path of _grid_values."""

    def __init__(self, h):
        self.h, self.rect, self.freq_hint = h, h.rect, h.freq_hint

    def edge_values(self, rect, edge, t):
        return self.h.edge_values(rect, edge, t)


class GridRecorder(EdgesOnly):
    """Records each grid project hands to _grid_values."""

    def __init__(self, h):
        super().__init__(h)
        self.grids = []

    def _grid_values(self, rect, grid):
        self.grids.append(grid)
        return super()._grid_values(rect, grid)


class TestGridValues:
    """project evaluates the data once on its whole grid, through BoundaryFunction._grid_values."""

    @staticmethod
    def data(alpha):
        rect = Rectangle(alpha)
        params = {"const": ":2.5", "coshcos": ":1.7", "sinhsin": ":0.9", "coscosh": ":2.2", "sinsinh": ":1.3"}
        builtins = [builtin_boundary(name + params.get(name, "")) for name in BUILTIN_NAMES]
        s = np.linspace(0.0, rect.perimeter, 200, endpoint=False) + 1e-3
        sampled = SampledBoundaryFunction(rect, s, np.cos(3.0 * s))
        inner = LinearCombination([(0.3, builtin_boundary("x2-y2")), (-1.1, builtin_boundary("coshcos:2"))])
        nested = LinearCombination([(0.7, builtin_boundary("xy")), (1.5, sampled),
                                    (-0.2, ModeTrace(first_modes(alpha, 5)[4])), (0.4, inner)])
        return builtins + [sampled, inner, nested]

    @pytest.mark.parametrize("alpha,panels,order", [(1.0, 4, 8), (0.37, 5, 7)])
    def test_equals_four_edge_calls_bit_for_bit(self, alpha, panels, order):
        rect = Rectangle(alpha)
        tv = edge_quadrature(rect, Edge.RIGHT, order, panels)[0]
        th = edge_quadrature(rect, Edge.TOP, order, panels)[0]
        grid = _boundary_grid(rect, tv, th)
        for h in self.data(alpha):
            want = np.concatenate([
                np.stack([h.edge_values(rect, Edge.RIGHT, tv), h.edge_values(rect, Edge.LEFT, tv)], axis=1).ravel(),
                np.stack([h.edge_values(rect, Edge.TOP, th), h.edge_values(rect, Edge.BOTTOM, th)], axis=1).ravel(),
            ])
            got = h._grid_values(rect, grid)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.013])
    def test_each_pair_is_sized_by_its_length(self, alpha):
        # a pair of edges of half-length L gets default_panels(L * freq) panels: one panel per
        # period of the highest frequency on the short pair as on the long one
        rect, h = Rectangle(alpha), GridRecorder(builtin_boundary("coshcos:2"))
        modes = first_modes(alpha, 40)
        project(h, rect, modes)
        [grid] = h.grids
        freq = h.freq_hint + max(m.nu for m in modes)
        panels = default_panels(alpha * freq), default_panels(freq)
        assert (panels[0] < panels[1]) == (alpha < 1.0)
        for got, edge, p in ((grid.tv, Edge.RIGHT, panels[0]), (grid.th, Edge.TOP, panels[1])):
            want = edge_quadrature(rect, edge, 32, p)[0]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_project_equals_default_path(self, alpha):
        rect = Rectangle(alpha)
        modes = [resolve(ModeId.constant(), alpha)] + first_modes(alpha, 60)
        for h in self.data(alpha):
            assert project(h, rect, modes) == project(EdgesOnly(h), rect, modes)


class TestRuleShape:
    """A rule's result is broadcast to the points' shape; one that cannot broadcast is refused."""

    @pytest.mark.parametrize("rule", [lambda x, y: 2.0, lambda x, y: np.float64(2.0), lambda x, y: [2.0]],
                             ids=["float", "numpy-scalar", "length-one"])
    def test_scalar_rule_equals_array_rule(self, rule):
        scalar, array = AnalyticBoundaryFunction(rule), AnalyticBoundaryFunction(lambda x, y: 0.0 * x + 2.0)
        rect = Rectangle(0.5)
        t = np.linspace(-0.4, 0.4, 5)
        assert scalar.edge_values(rect, Edge.TOP, t).tolist() == [2.0] * 5
        modes = first_modes(0.5, 20)
        assert project(scalar, rect, modes) == project(array, rect, modes)
        e = expand_dirichlet(scalar, 0.5, 20)
        assert e.mean_term == pytest.approx(2.0, rel=1e-15)
        assert max(abs(term.coefficient) for term in e.terms) <= 1e-15
        assert central_value(expand_for_central(scalar, 0.5, 3)).value == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("rule", [lambda x, y: np.ones(3), lambda x, y: x[:, None] * y],
                             ids=["wrong-length", "outer-product"])
    def test_misshaped_rule_is_refused(self, rule):
        h = AnalyticBoundaryFunction(rule)
        with pytest.raises(BoundaryDataError, match="boundary rule returned values of shape"):
            h.edge_values(Rectangle(1.0), Edge.RIGHT, np.linspace(-0.5, 0.5, 4))
        with pytest.raises(BoundaryDataError, match="for points of shape"):
            expand_dirichlet(h, 1.0, 10)



class TestFreqHint:
    """freq_hint sizes project's grid: a negative one would shrink it below what the modes need."""

    @pytest.mark.parametrize("hint", [-300.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_hint_is_refused(self, hint):
        with pytest.raises(ValueError, match="freq_hint must be finite and >= 0"):
            AnalyticBoundaryFunction(lambda x, y: x * y, freq_hint=hint)

    @pytest.mark.parametrize("hint", [0.0, 2.5, 300.0])
    def test_zero_and_positive_hints_work(self, hint):
        h = AnalyticBoundaryFunction(lambda x, y: np.cosh(2.0 * x) * np.cos(2.0 * y), freq_hint=hint)
        assert h.freq_hint == hint
        rect, modes = Rectangle(0.3), first_modes(0.3, 60)
        _, norm, got = project(h, rect, modes)
        want = project(builtin_boundary("coshcos:2"), rect, modes)[2]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * norm

    @staticmethod
    def subclass(hint):
        """cosh(2x) cos(2y) through edge_values, with freq_hint a class attribute no constructor checks."""
        class Hinted(BoundaryFunction):
            freq_hint = hint

            def edge_values(self, rect, edge, t):
                x, y = rect.edge_xy(edge, t)
                return np.cosh(2.0 * x) * np.cos(2.0 * y)

        return Hinted()

    @pytest.mark.parametrize("hint", [-300.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_subclass_hint_is_checked_where_it_is_read(self, hint):
        h, rect = self.subclass(hint), Rectangle(0.3)
        with pytest.raises(BoundaryDataError, match="freq_hint must be finite and >= 0"):
            project(h, rect, first_modes(0.3, 400))
        with pytest.raises(BoundaryDataError, match="freq_hint must be finite and >= 0"):
            inner_product(h, constant_function(1.0), rect)
        with pytest.raises(BoundaryDataError, match="freq_hint must be finite and >= 0"):
            expand_dirichlet(h, 0.3, 10)

    @pytest.mark.parametrize("hint", [0.0, 2.5, 300.0])
    def test_subclass_zero_and_positive_hints_work(self, hint):
        h, rect, modes = self.subclass(hint), Rectangle(0.3), first_modes(0.3, 60)
        _, norm, got = project(h, rect, modes)
        want = project(builtin_boundary("coshcos:2"), rect, modes)[2]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * norm
        assert inner_product(h, constant_function(1.0), rect) == pytest.approx(project(h, rect, [])[0], abs=1e-14)


@st.composite
def sorted_arclengths(draw):
    """alpha and strictly increasing arc lengths in [0, perimeter): a few between each two
    corners, and up to three at a corner or an ulp from one."""
    alpha = draw(st.one_of(st.sampled_from([1.0, 0.9, 0.5, 0.1]), st.floats(1e-3, 1.0)))
    c = [0.0, 2 * alpha, 2 * alpha + 2.0, 4 * alpha + 2.0, 4.0 * (1.0 + alpha)]
    s = [x for lo, hi in zip(c, c[1:]) for x in draw(st.lists(st.floats(lo, hi), min_size=2, max_size=15))]
    s += draw(st.lists(st.sampled_from([y for x in c for y in (x, np.nextafter(x, -1), np.nextafter(x, 9))]),
                       max_size=3))
    return alpha, np.unique([x for x in s if 0.0 <= x < c[-1]])


class TestSampledData:
    def make_csv(self, tmp_path, alpha, fn, n_per_edge=80, name="bdry.csv"):
        rect = Rectangle(alpha)
        per = rect.perimeter
        s = np.linspace(0.0, per, 4 * n_per_edge, endpoint=False)
        rows = ["# synthetic boundary samples", "arclength,value"]
        for si in s:
            p = rect.arclength_to_point(float(si))
            rows.append(f"{float(si)!r},{float(fn(p.x, p.y))!r}")
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_roundtrip_against_analytic(self, tmp_path):
        alpha = 0.5
        path = self.make_csv(tmp_path, alpha, lambda x, y: x * x - y * y)
        sampled = load_boundary_csv(path, alpha)
        rect = Rectangle(alpha)
        got = inner_product(sampled, sampled, rect=rect)
        want = inner_product(builtin_boundary("x2-y2"), builtin_boundary("x2-y2"), rect=rect)
        assert got == pytest.approx(want, abs=1e-7)

    def test_per_edge_constants_with_corner_jumps(self):
        # data discontinuous at corners is fine: no interpolation crosses them
        rect = Rectangle(1.0)
        levels = {Edge.RIGHT: 1.0, Edge.TOP: 2.0, Edge.LEFT: 3.0, Edge.BOTTOM: 4.0}
        ss, vs = [], []
        for edge, lvl in levels.items():
            lo, hi = rect.edge_range(edge)
            for t in np.linspace(lo + 0.05, hi - 0.05, 4):
                ss.append(rect.arclength_of(edge, float(t)))
                vs.append(lvl)
        order = np.argsort(ss)
        sampled = SampledBoundaryFunction(rect, np.array(ss)[order], np.array(vs)[order])
        assert project(sampled, rect, [])[0] == pytest.approx(2.5, rel=1e-12)

    def test_sample_at_corner_arclength(self):
        # 5.6 == fl(4 alpha + 2): the sum rounds onto the corner (-1, -alpha),
        # and the sample must stay there instead of landing inside an edge
        alpha = 0.9
        rect = Rectangle(alpha)
        assert 4 * alpha + 2.0 == 5.6
        s = np.sort(np.append(np.linspace(0.0, rect.perimeter, 40, endpoint=False), 5.6))
        pts = [rect.arclength_to_point(float(si)) for si in s]
        sampled = SampledBoundaryFunction(rect, s, [p.x**2 - p.y**2 for p in pts])
        for edge in Edge:
            t = np.linspace(*rect.edge_range(edge), 201)
            x, y = rect.edge_xy(edge, t)
            err = sampled.edge_values(rect, edge, t) - (x**2 - y**2)
            assert np.abs(err).max() < 1e-12, edge

    def test_samples_at_one_point_rejected(self):
        # distinct arc lengths just past the corner at s = 0.2 (alpha 0.1)
        # all round to the edge coordinate t = 1 of the top edge
        rect = Rectangle(0.1)
        corner = np.array([0.2, np.nextafter(0.2, 1.0), np.nextafter(np.nextafter(0.2, 1.0), 1.0)])
        s = np.concatenate(([0.05, 0.1], corner, [0.5, 1.0, 2.5, 2.6]))
        assert len(set(rect.arclength_to_edge(corner)[1].tolist())) == 1
        with pytest.raises(BoundaryDataError, match="one point of edge TOP"):
            SampledBoundaryFunction(rect, s, np.arange(s.size, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(sorted_arclengths())
    @example((0.9, np.array([0.1, 1.0, 2.0, 3.0, 4.0, 5.0, 5.6, 6.0, 7.0])))
    @example((0.1, np.array([0.05, 0.1, 0.2, 0.20000000000000004, 0.5, 1.0, 2.5, 2.6])))
    def test_knots_are_the_samples_mapped_and_sorted_by_t(self, inputs):
        # each edge's knots and values are its samples, mapped one by one and sorted by t, and
        # the first edge in order with too few samples or two on one point is refused
        alpha, s = inputs
        v = np.arange(s.size, dtype=float)
        edges, t = select_arclength_to_edge(alpha, s)
        want, refusal = {}, None
        for edge in Edge:
            order = np.argsort(t[edges == edge], kind="stable")
            ts, vs = t[edges == edge][order], v[edges == edge][order]
            if ts.size < 2:
                refusal = f"edge {edge.name} has {ts.size} samples"
            elif np.any(np.diff(ts) == 0):
                refusal = f"two samples fall on one point of edge {edge.name}"
            if refusal:
                with pytest.raises(BoundaryDataError, match=refusal):
                    SampledBoundaryFunction(Rectangle(alpha), s, v)
                return
            want[edge] = ts, vs
        got = SampledBoundaryFunction(Rectangle(alpha), s, v)
        for edge, (ts, vs) in want.items():
            assert np.array_equal(got._splines[edge].t.view(np.int64), ts.view(np.int64))
            assert np.array_equal(got._splines[edge].y, vs)

    def test_missing_edge_rejected(self):
        rect = Rectangle(1.0)
        s = np.array([0.1, 0.5, 2.5, 3.0, 4.5, 5.0])  # nothing on the bottom edge
        with pytest.raises(EdgeCoverageError):
            SampledBoundaryFunction(rect, s, np.ones_like(s))

    def test_values_of_another_length_rejected(self):
        with pytest.raises(BoundaryDataError, match="equal length"):
            SampledBoundaryFunction(Rectangle(1.0), [0.1, 0.2], [1.0])

    def test_nonmonotone_rejected(self):
        rect = Rectangle(1.0)
        with pytest.raises(BoundaryDataError):
            SampledBoundaryFunction(rect, [0.0, 0.5, 0.4, 2.0], [1, 2, 3, 4])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arc,val\n0.0,1.0\n")
        with pytest.raises(BoundaryDataError):
            load_boundary_csv(path, 1.0)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("arclength,value\n0.0,1.0\n0.5,oops\n")
        with pytest.raises(BoundaryDataError):
            load_boundary_csv(path, 1.0)

    @pytest.mark.parametrize("s, v", [("1.5", "nan"), ("1.5", "inf"), ("nan", "1.0")])
    def test_non_finite_sample_rejected(self, tmp_path, s, v):
        rows = ["arclength,value", "0.5,1.0", f"{s},{v}"]
        rows += [f"{si},1.0" for si in (2.5, 3.5, 4.5, 5.5, 6.5, 7.5)]
        path = tmp_path / "nonfinite.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(BoundaryDataError, match="finite"):
            load_boundary_csv(path, 1.0)

    def test_out_of_range_arclength_rejected(self):
        rect = Rectangle(0.25)
        with pytest.raises(BoundaryDataError):
            SampledBoundaryFunction(rect, [0.0, rect.perimeter], [1.0, 2.0])


def _csv_reader_parse(path):
    """The loader's earlier parse (csv.reader, float per cell), kept as its oracle.
    A line of only spaces or tabs is blank, and a comment is a line whose first non-blank
    character is '#', before any unquoting."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#"))]
    assert [c.strip().lower() for c in rows[0]][:2] == ["arclength", "value"]
    try:
        return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]
    except (IndexError, ValueError) as exc:
        raise BoundaryDataError(f"{path}: bad row") from exc


_SAMPLES = [(0.25 + 0.625 * k, math.sin(1.0 + k)) for k in range(12)]
_MANY_SAMPLES = [(0.25 + 0.0125 * k, math.sin(1.0 + 0.05 * k)) for k in range(600)]


def _layout(fmt, comment_every=0, samples=_SAMPLES, before=None):
    """The samples as CSV text; the line `before[k]`, if given, goes just before sample k."""
    rows = ["arclength,value"]
    for k, (a, v) in enumerate(samples):
        if comment_every and k % comment_every == 0:
            rows.append("  # a comment between samples, 1,2")
        if before and k in before:
            rows.append(before[k])
        rows.append(fmt.format(a=repr(a), v=repr(v)))
    return "\n".join(rows) + "\n"


def _assert_same_data(got, want):
    rect = Rectangle(1.0)
    for edge in Edge:
        t = np.linspace(*rect.edge_range(edge), 33)
        assert np.array_equal(got.edge_values(rect, edge, t), want.edge_values(rect, edge, t))


class TestLoadCsv:
    @pytest.mark.parametrize(
        "text",
        [
            _layout("{a},{v}"),
            _layout("{a},{v}", comment_every=3),
            "# leading comment\n\n" + _layout("{a},{v}").replace("\n", "\n\n", 4),
            "# one\n\n  # two, indented\n\n" + _layout("{a},{v}"),
            _layout("{a},{v},extra,7"),
            _layout('"{a}","{v}"'),
            _layout(" {a} ,\t{v}  "),
            _layout("{a},{v}").replace("arclength,value", '"Arclength", VALUE ,note'),
            _layout("{a},{v}\r"),
            _layout("{a},{v}").replace("\n", "\r"),
            "# exported\r\n" + _layout("{a},{v}").replace("\n", "\r\n"),
            _layout("{a},{v}").replace("value\n", "value\n# units: none\n", 1),
            _layout("{a},{v}") + "\t",
            _layout("{a},{v}").replace("\n2.75,", "\n \t \n2.75,"),
            _layout("{a},{v}", comment_every=3).replace("1,2\n", "1,2\n  \n", 2),
            "# exported\r\n" + _layout("{a},{v}").replace("\n", "\r\n") + "\t\r\n",
            _layout("{a},{v}", before={10: "# a late comment"}),
            _layout("{a},{v}", samples=_MANY_SAMPLES, before={450: "  # a late comment\n \t "}),
            " \n" + _layout("{a},{v}"),
            "\t\r\n# exported\r\n \r\n" + _layout("{a},{v}").replace("\n", "\r\n"),
        ],
        ids=["plain", "comments", "blank-lines", "leading-comments-only", "extra-columns", "quoted",
             "whitespace", "header-variants", "crlf", "cr", "crlf-leading-comment",
             "comment-after-header", "tab-last-line", "indented-blank-line", "blank-next-to-comment",
             "crlf-tab-line", "late-comment", "late-comment-and-blank-line", "leading-blank-line",
             "crlf-leading-blank-lines"],
    )
    def test_matches_csv_reader_parse(self, tmp_path, text):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        want = SampledBoundaryFunction(Rectangle(1.0), *_csv_reader_parse(path))
        _assert_same_data(load_boundary_csv(path, 1.0), want)

    @pytest.mark.parametrize(
        "name, text, parses",
        [
            ("samples.csv", _layout("{a},{v}"), [str]),
            ("samples.csv", "# one\n\n" + _layout("{a},{v}").replace("\n", "\r\n"), [str]),
            ("samples.csv", _layout("{a},{v},#tag # tag"), [str]),
            ("samples.csv", _layout("{a},{v}", comment_every=3), [str, list]),
            ("samples.csv", _layout("{a},{v}").replace("value\n", "value\n\t# units: none\n", 1), [str, list]),
            ("samples.csv", _layout("{a},{v}").replace("\n2.75,", "\n \t \n2.75,"), [str, list]),
            ("samples.csv.gz", _layout("{a},{v}"), [list]),
            (None, _layout("{a},{v}"), [list]),
        ],
        ids=["plain", "leading-comment", "hash-after-data", "comments", "comment-after-header",
             "blank-line", "gz-name", "pipe"],
    )
    def test_numpy_parses_by_name_until_it_fails(self, tmp_path, monkeypatch, name, text, parses):
        # numpy parses a file it opens itself in C chunks; a blank or comment line after the
        # header fails there, and the filtered lines are parsed instead
        loadtxt, seen = np.loadtxt, []

        def record(rows, *args, **kwargs):
            seen.append(type(rows))
            return loadtxt(rows, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", record)
        want = SampledBoundaryFunction(Rectangle(1.0), *zip(*_SAMPLES))
        if name is None:  # a pipe, as with `--data <(generate-samples)`
            read_end, write_end = os.pipe()
            with os.fdopen(write_end, "w") as fh:
                fh.write(text)
            try:
                _assert_same_data(load_boundary_csv(f"/dev/fd/{read_end}", 1.0), want)
            finally:
                os.close(read_end)
        else:
            (tmp_path / name).write_text(text)
            _assert_same_data(load_boundary_csv(tmp_path / name, 1.0), want)
        assert seen == parses

    @pytest.mark.parametrize("comment_every", [0, 3])
    def test_byte_order_mark_accepted(self, tmp_path, comment_every):
        text = _layout("{a},{v}", comment_every)
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        _assert_same_data(load_boundary_csv(tmp_path / "bom.csv", 1.0),
                          load_boundary_csv(tmp_path / "plain.csv", 1.0))

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(_layout("{a},{v}").encode() + b"# caf\xe9\n")
        with pytest.raises(BoundaryDataError, match="latin1.csv: not UTF-8"):
            load_boundary_csv(path, 1.0)

    def test_compressed_suffix_read_as_plain_text(self, tmp_path):
        # numpy would gunzip a path ending in .gz; the loader never decompresses
        text = _layout("{a},{v}")
        (tmp_path / "samples.csv").write_text(text)
        (tmp_path / "samples.csv.gz").write_text(text)
        _assert_same_data(load_boundary_csv(tmp_path / "samples.csv.gz", 1.0),
                          load_boundary_csv(tmp_path / "samples.csv", 1.0))

    def test_url_like_path_is_a_local_file(self, tmp_path, monkeypatch):
        # numpy would fetch a path that parses as a URL; this one names a local file
        def no_fetch(*args, **kwargs):
            raise AssertionError(f"fetched {args}")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "f.csv").write_text(_layout("{a},{v}"))
        want = SampledBoundaryFunction(Rectangle(1.0), *zip(*_SAMPLES))
        _assert_same_data(load_boundary_csv("http://host/f.csv", 1.0), want)

    @pytest.mark.parametrize(
        "bad_row", ["1.0", "1.0,oops", "1.0,", "oops,1.0", "1.0,2.0 # inline comment", '"#1",2.0']
    )
    def test_bad_row_names_path(self, tmp_path, bad_row):
        path = tmp_path / "bad-row.csv"
        path.write_text(_layout("{a},{v}") + bad_row + "\n")
        with pytest.raises(BoundaryDataError):
            _csv_reader_parse(path)
        with pytest.raises(BoundaryDataError, match="bad-row.csv"):
            load_boundary_csv(path, 1.0)

    def test_bad_row_after_blank_line_keeps_its_row_number(self, tmp_path):
        # a line of only spaces or tabs is skipped, and numpy counts rows without blank lines
        # or comments; the failed parse by name leaves no trace in the message
        messages = []
        for name, blank in (("clean", ""), ("blank", " \t\n"), ("comment", "  # a note\n")):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "bad-row.csv"
            path.write_text(_layout("{a},{v}") + blank + "1.0,oops\n")
            with pytest.raises(BoundaryDataError, match="bad-row.csv: bad row") as info:
                load_boundary_csv(path, 1.0)
            messages.append(str(info.value).replace(str(tmp_path / name), ""))
        assert messages[2] == messages[1] == messages[0]

    def test_header_only_is_coverage_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("arclength,value\n# nothing else\n")
        with pytest.raises(EdgeCoverageError):
            load_boundary_csv(path, 1.0)

    def test_header_and_blank_lines_is_coverage_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("arclength,value\n \n\t\n")
        with pytest.raises(EdgeCoverageError):
            load_boundary_csv(path, 1.0)


# 20,000 samples, some 530 kB of text: far past any buffer that reads the head of a file
_LONG_ROWS = [f"{(k + 0.5) * 8.0 / 20_000!r},{math.sin(k / 100)!r}" for k in range(20_000)]


def _assert_same_splines(got, want):
    for edge in Edge:
        g, w = got._splines[edge], want._splines[edge]
        assert all(np.array_equal(a, b) for a, b in ((g.t, w.t), (g.y, w.y), (g.s, w.s))), edge


class TestLoadCsvPastTheHead:
    """Files whose header comes late, or whose rows must be filtered, read to the end."""

    @pytest.mark.parametrize(
        "lines",
        [
            ["arclength,value", *_LONG_ROWS, "# a comment after the data"],
            ["arclength,value", *_LONG_ROWS[:10_000], " \t", *_LONG_ROWS[10_000:]],
            # 70,000 bytes of comment lines before the header, past 64 KiB
            ["# a comment before the header ...."] * 2000 + ["arclength,value", *_LONG_ROWS],
        ],
        ids=["late-comment", "blank-line-in-the-middle", "header-after-64-KiB"],
    )
    def test_equals_the_clean_file(self, tmp_path, lines):
        (tmp_path / "clean.csv").write_text("\n".join(["arclength,value", *_LONG_ROWS]) + "\n")
        (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
        _assert_same_splines(load_boundary_csv(tmp_path / "samples.csv", 1.0),
                             load_boundary_csv(tmp_path / "clean.csv", 1.0))

    def test_non_utf8_last_line(self, tmp_path):
        path = tmp_path / "late-latin1.csv"
        path.write_bytes("\n".join(["arclength,value", *_LONG_ROWS[:-1]]).encode()
                         + b"\n7.9998,0.5 # caf\xe9\n")
        with pytest.raises(BoundaryDataError, match="late-latin1.csv: not UTF-8"):
            load_boundary_csv(path, 1.0)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("where", ["comment-before-header", "last-row"])
    def test_non_utf8_offset_is_the_files(self, tmp_path, bom, where):
        # the reads decode 8 KB and more at a time; the offset counts from the start of the file
        comments = "".join(f"# comment {k}\n" for k in range(1000)).encode()
        rows = "\n".join(["arclength,value", *_LONG_ROWS]).encode()
        if where == "comment-before-header":
            head, tail = bom + comments + b"# caf", b"\n" + rows + b"\n"
        else:
            head, tail = bom + rows + b"\n7.9999,0.5 # caf", b"\n"
        assert len(head) > 8192
        path = tmp_path / "late-latin1.csv"
        path.write_bytes(head + b"\xe9" + tail)
        with pytest.raises(BoundaryDataError, match=f"not UTF-8 text: byte 0xe9 at offset {len(head)} "):
            load_boundary_csv(path, 1.0)


def _jittered(rng, n, lo=-1.0, hi=1.0):
    """n increasing positions, one in each of n equal cells of [lo, hi]."""
    return lo + (np.arange(n) + rng.uniform(0.1, 0.9, n)) * ((hi - lo) / n)


def _mp_spline(t, y, x):
    """The interpolant at x, in 50 digits: slopes from a dense solve of the
    defining conditions (continuous second derivative at interior samples,
    one cubic on each pair of end intervals), then the Hermite cubic."""
    with mpmath.workdps(50):
        t = [mpmath.mpf(v) for v in t]
        y = [mpmath.mpf(v) for v in y]
        n = len(t)
        h = [t[i + 1] - t[i] for i in range(n - 1)]
        d = [(y[i + 1] - y[i]) / h[i] for i in range(n - 1)]
        if n == 2:
            s = [d[0], d[0]]
        elif n == 3:
            c = (d[1] - d[0]) / (t[2] - t[0])
            s = [d[0] + c * (ti - t[0] + ti - t[1]) for ti in t]
        else:
            a, b = mpmath.zeros(n, n), mpmath.zeros(n, 1)
            for i in range(1, n - 1):
                # p''(t_i) from the left piece equals p''(t_i) from the right one
                a[i, i - 1], a[i, i], a[i, i + 1] = 2 / h[i - 1], 4 / h[i - 1] + 4 / h[i], 2 / h[i]
                b[i] = 6 * d[i - 1] / h[i - 1] + 6 * d[i] / h[i]
            for row, j in ((0, 0), (n - 1, n - 3)):
                # equal third derivatives on pieces j and j + 1
                for k, sign in ((j, 1), (j + 1, -1)):
                    a[row, k] += sign * 6 / h[k] ** 2
                    a[row, k + 1] += sign * 6 / h[k] ** 2
                    b[row] += sign * 12 * d[k] / h[k] ** 2
            s = list(mpmath.lu_solve(a, b))
        out = []
        for xv in x:
            xv = mpmath.mpf(xv)
            i = min(sum(1 for ti in t[1:] if ti <= xv), n - 2)
            dx = xv - t[i]
            c2 = (3 * d[i] - 2 * s[i] - s[i + 1]) / h[i]
            c3 = (s[i] + s[i + 1] - 2 * d[i]) / h[i] ** 2
            out.append(float(y[i] + dx * (s[i] + dx * (c2 + dx * c3))))
        return np.array(out)


class TestEdgeSpline:
    """The per-edge interpolant of sampled data against scipy and mpmath."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 1000, 25000])
    def test_matches_scipy_inside_samples(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            t, y = _jittered(rng, n), rng.normal(size=n)
            x = np.linspace(t[0], t[-1], 4001)
            want = make_interp_spline(t, y, k=min(3, n - 1))(x)
            assert np.abs(_EdgeSpline(t, y)(x) - want).max() <= 1e-14 * np.abs(y).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 1000, 25000])
    def test_reproduces_polynomials_over_whole_edge(self, n):
        # cubic from 4 samples up, the parabola from 3, the line from 2,
        # extrapolated ends included
        rng = np.random.default_rng(100 + n)
        coef = rng.normal(size=min(3, n - 1) + 1)
        t = _jittered(rng, n)
        x = np.linspace(-1.0, 1.0, 4001)
        want = np.polynomial.polynomial.polyval(x, coef)
        got = _EdgeSpline(t, np.polynomial.polynomial.polyval(t, coef))(x)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
    def test_no_farther_from_exact_spline_than_scipy(self, n):
        rng = np.random.default_rng(200 + n)
        x = np.linspace(-1.0, 1.0, 201)
        for _ in range(3):
            t, y = _jittered(rng, n), rng.normal(size=n)
            exact = _mp_spline(t, y, x)
            err = np.abs(_EdgeSpline(t, y)(x) - exact).max()
            err_scipy = np.abs(make_interp_spline(t, y, k=min(3, n - 1))(x) - exact).max()
            # at the rounding floor either side may be the closer one
            assert err <= max(err_scipy, 4 * np.finfo(float).eps * np.abs(exact).max())

    def test_uneven_positions_within_a_few_eps(self):
        # sorted uniform positions leave some second gaps far shorter than the first; an end
        # slope taken by dividing by that gap was up to 7.6e4 eps of max |y| off
        eps = np.finfo(float).eps
        for seed in range(40):
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(4, 41))))
            y = 100.0 * (np.cos(3.0 * t) + t**3)
            x = np.linspace(t[0], t[-1], 101)
            err = np.abs(_EdgeSpline(t, y)(x) - _mp_spline(t, y, x)).max()
            assert err <= 10 * eps * np.abs(y).max(), (seed, err / (eps * np.abs(y).max()))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_far_extrapolation_closer_than_scipy(self, seed):
        # 40 samples of smooth data end 30 spacings short of the edge's end
        t = _jittered(np.random.default_rng(seed), 40, -1.0, 1.0 - 60.0 / 70.0)
        y = np.sin(3.0 * t) + t**2
        x = np.linspace(-1.0, 1.0, 201)
        exact = _mp_spline(t, y, x)
        err = np.abs(_EdgeSpline(t, y)(x) - exact).max()
        assert err < np.abs(make_interp_spline(t, y, k=3)(x) - exact).max()


class TestBuiltins:
    def test_constant(self):
        f = builtin_boundary("const:7")
        assert f.edge_values(Rectangle(1.0), Edge.TOP, np.array([0.0, 0.5]))[1] == 7.0

    def test_oscillatory_frequency_hint(self):
        f = builtin_boundary("coshcos:2.5")
        assert f.freq_hint == 2.5

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            builtin_boundary("nope")
        with pytest.raises(ValueError):
            builtin_boundary("const")  # missing parameter
        with pytest.raises(ValueError):
            builtin_boundary("x:3")  # spurious parameter

    # ident -> the rule as written, freq_hint and name
    FORMULAS = {
        "const:7": (lambda x, y: np.full_like(x, 7.0), 0.0, "const:7.0"),
        "const:-2.5e-3": (lambda x, y: np.full_like(x, -2.5e-3), 0.0, "const:-0.0025"),
        "x": (lambda x, y: x + 0.0 * y, 0.0, "x"),
        "y": (lambda x, y: y + 0.0 * x, 0.0, "y"),
        "xy": (lambda x, y: x * y, 0.0, "xy"),
        "x2-y2": (lambda x, y: x * x - y * y, 0.0, "x2-y2"),
        "x3-3xy2": (lambda x, y: x * x * x - 3 * x * y * y, 0.0, "x3-3xy2"),
        "3x2y-y3": (lambda x, y: 3 * x * x * y - y * y * y, 0.0, "3x2y-y3"),
        "x4-6x2y2+y4": (lambda x, y: x * x * x * x - 6 * x * x * y * y + y * y * y * y, 0.0, "x4-6x2y2+y4"),
        "4x3y-4xy3": (lambda x, y: 4 * x * x * x * y - 4 * x * y * y * y, 0.0, "4x3y-4xy3"),
        "coshcos:1.5": (lambda x, y: np.cosh(1.5 * x) * np.cos(1.5 * y), 1.5, "coshcos:1.5"),
        "coshcos:-2.5": (lambda x, y: np.cosh(-2.5 * x) * np.cos(-2.5 * y), 2.5, "coshcos:-2.5"),
        "sinhsin:1.5": (lambda x, y: np.sinh(1.5 * x) * np.sin(1.5 * y), 1.5, "sinhsin:1.5"),
        "sinhsin:-0.9": (lambda x, y: np.sinh(-0.9 * x) * np.sin(-0.9 * y), 0.9, "sinhsin:-0.9"),
        "coscosh:1.5": (lambda x, y: np.cos(1.5 * x) * np.cosh(1.5 * y), 1.5, "coscosh:1.5"),
        "coscosh:-2.2": (lambda x, y: np.cos(-2.2 * x) * np.cosh(-2.2 * y), 2.2, "coscosh:-2.2"),
        "sinsinh:1.5": (lambda x, y: np.sin(1.5 * x) * np.sinh(1.5 * y), 1.5, "sinsinh:1.5"),
        "sinsinh:-1.1": (lambda x, y: np.sin(-1.1 * x) * np.sinh(-1.1 * y), 1.1, "sinsinh:-1.1"),
    }

    def test_formulas_cover_every_builtin(self):
        assert {ident.partition(":")[0] for ident in self.FORMULAS} == set(BUILTIN_NAMES)
        assert BUILTIN_NAMES == ("3x2y-y3", "4x3y-4xy3", "const", "coscosh", "coshcos", "sinhsin", "sinsinh",
                                 "x", "x2-y2", "x3-3xy2", "x4-6x2y2+y4", "xy", "y")

    @pytest.mark.parametrize("ident", list(FORMULAS))
    def test_rule_is_the_written_formula(self, ident):
        rule, hint, name = self.FORMULAS[ident]
        f = builtin_boundary(ident)
        rng = np.random.default_rng(11)
        # signed zeros on either axis: odd data must give exact zeros of the same sign
        x = np.concatenate([rng.uniform(-1.0, 1.0, 257), [0.0, -0.0, 0.0, -0.0, 0.5]])
        y = np.concatenate([rng.uniform(-1.0, 1.0, 257), [0.0, 0.0, -0.0, -0.0, -0.0]])
        assert f.fn(x, y).tobytes() == rule(x, y).tobytes()
        assert (f.freq_hint, f.name) == (hint, name)

    @pytest.mark.parametrize("ident,message", [
        ("nope", "unknown builtin 'nope'; choices: 3x2y-y3, 4x3y-4xy3, const, coscosh, coshcos, sinhsin, "
                 "sinsinh, x, x2-y2, x3-3xy2, x4-6x2y2+y4, xy, y"),
        ("x:1", "builtin 'x' takes no parameter"),
        ("const", "builtin 'const' needs a value, e.g. const:7"),
        ("const:", "builtin 'const' needs a value, e.g. const:7"),
        ("const:abc", "could not convert string to float: 'abc'"),
        ("const:inf", "builtin 'const' needs a finite parameter, got 'inf'"),
        ("coshcos", "builtin 'coshcos' needs a frequency, e.g. coshcos:2.5"),
        ("coshcos:nan", "builtin 'coshcos' needs a finite parameter, got 'nan'"),
        ("sinsinh:1e400", "builtin 'sinsinh' needs a finite parameter, got '1e400'"),
    ])
    def test_malformed_ident_message(self, ident, message):
        with pytest.raises(ValueError) as info:
            builtin_boundary(ident)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name",
        ["x", "y", "xy", "x2-y2", "x3-3xy2", "3x2y-y3", "x4-6x2y2+y4", "4x3y-4xy3",
         "coshcos:1.7", "sinhsin:0.9", "coscosh:2.2", "sinsinh:1.1"],
    )
    def test_every_builtin_is_harmonic(self, name):
        f = builtin_boundary(name)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-0.8, 0.8, 25)
        ys = rng.uniform(-0.8, 0.8, 25)
        lap = fd_laplacian(f.fn, xs, ys, h=1e-4)
        assert np.abs(lap).max() < 1e-5
