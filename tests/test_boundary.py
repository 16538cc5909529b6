import math

import numpy as np
import pytest

from steklov_rect import (
    AnalyticBoundaryFunction,
    BoundaryDataError,
    Edge,
    EdgeCoverageError,
    Family,
    LinearCombination,
    ModeId,
    ModeTrace,
    Rectangle,
    SampledBoundaryFunction,
    SymmetryClass,
    boundary_norm,
    builtin_boundary,
    coefficient,
    coefficients,
    constant_function,
    first_modes,
    inner_product,
    load_boundary_csv,
    mean,
    resolve,
)
from steklov_rect.boundary import default_panels, edge_quadrature

from _oracles import boundary_mean, fd_laplacian


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

    def test_default_panels_scale_with_frequency(self):
        assert default_panels(0.0) == 4
        assert default_panels(40.0) == math.ceil(40.0 / math.pi)


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
        got = mean(u, rect=Rectangle(alpha))
        want = boundary_mean(lambda x, y: x * x - y * y, alpha)
        assert got == pytest.approx(want, abs=1e-12)

    def test_alpha_mismatch_rejected(self):
        tr = ModeTrace(class_one(1, alpha=0.5))
        with pytest.raises(BoundaryDataError):
            inner_product(tr, constant_function(1.0), rect=Rectangle(1.0))


class TestNorm:
    def test_nan_data_has_nan_norm(self):
        assert math.isnan(boundary_norm(constant_function(math.nan), rect=Rectangle(1.0)))


class TestMean:
    def test_constant(self):
        assert mean(constant_function(2.5), rect=Rectangle(0.4)) == pytest.approx(2.5, rel=1e-14)

    def test_mode_trace_mean_zero(self):
        for j in (1, 3):
            assert abs(mean(ModeTrace(class_one(j)))) < 1e-10

    def test_x2y2_mean_zero_on_square(self):
        # edges x = +-1 contribute 1 - y^2, edges y = +-1 contribute x^2 - 1
        assert abs(mean(builtin_boundary("x2-y2"), rect=Rectangle(1.0))) < 1e-12


class TestCoefficient:
    def test_self_coefficient_one(self):
        mode = class_one(2)
        assert coefficient(ModeTrace(mode), mode) == pytest.approx(1.0, abs=1e-9)

    def test_cross_coefficient_zero(self):
        assert abs(coefficient(ModeTrace(class_one(3)), class_one(1))) < 1e-9

    def test_constant_against_mode(self):
        assert abs(coefficient(constant_function(1.0), class_one(1))) < 1e-10


class TestCoefficients:
    """The batched path gives inner_product's numbers bit for bit."""

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

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_equals_inner_product(self, alpha):
        modes = [resolve(ModeId.constant(), alpha)] + first_modes(alpha, 80)
        kinds = {(m.symmetry_class, m.family) for m in modes if m.family is not None}
        assert len(kinds) == 8
        assert any(m.mode_id == ModeId.xy() for m in modes) == (alpha == 1.0)
        for h in self.data(alpha):
            assert len({default_panels(h.freq_hint + m.nu) for m in modes}) > 5
            want = [inner_product(h, ModeTrace(m)) for m in modes]
            assert coefficients(h, modes) == want
            assert [coefficient(h, m) for m in modes[::7]] == want[::7]

    def test_no_modes(self):
        assert coefficients(constant_function(1.0), []) == []


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
        assert mean(sampled, rect=rect) == pytest.approx(2.5, rel=1e-12)

    def test_missing_edge_rejected(self):
        rect = Rectangle(1.0)
        s = np.array([0.1, 0.5, 2.5, 3.0, 4.5, 5.0])  # nothing on the bottom edge
        with pytest.raises(EdgeCoverageError):
            SampledBoundaryFunction(rect, s, np.ones_like(s))

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
