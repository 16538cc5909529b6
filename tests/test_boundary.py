import csv
import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

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
from steklov_rect.modes import evaluate
from steklov_rect.boundary import _EdgeSpline, default_panels, edge_quadrature, project

from _oracles import boundary_integral, boundary_mean, fd_laplacian


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

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_matches_independent_quadrature(self, alpha):
        rect = Rectangle(alpha)
        modes = [resolve(ModeId.constant(), alpha)] + first_modes(alpha, 80)
        kinds = {(m.symmetry_class, m.family) for m in modes if m.family is not None}
        assert len(kinds) == 8
        assert any(m.mode_id == ModeId.xy() for m in modes) == (alpha == 1.0)
        for h in self.data(alpha):
            fn, norm = self.on_edges(h, rect), boundary_norm(h, rect=rect)
            # one 100-node Gauss panel per edge resolves nu <= 60; scipy's
            # nodes for n >= 140 carry ~1e-13 errors of their own
            want = [boundary_integral(lambda x, y: fn(x, y) * evaluate(m, x, y), alpha, n=100) / rect.perimeter
                    for m in modes]
            got = coefficients(h, modes)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * norm
            assert [coefficient(h, m) for m in modes[::7]] == pytest.approx(want[::7], abs=1e-13 * norm)

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    def test_one_grid_matches_per_mode_grids(self, alpha):
        # inner_product sizes a grid for each mode alone, as coefficients did
        # before it shared one grid; the difference is rounding only
        rect = Rectangle(alpha)
        modes = first_modes(alpha, 400)
        for h in self.data(alpha):
            norm = boundary_norm(h, rect=rect)
            assert len({default_panels(h.freq_hint + m.nu) for m in modes}) > 40
            want = [inner_product(h, ModeTrace(m)) for m in modes]
            mean_h, norm_h, got = project(h, rect, modes)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * norm
            assert mean_h == pytest.approx(mean(h, rect=rect), abs=1e-14 * norm)
            assert norm_h == pytest.approx(norm, rel=1e-14)
            assert got == coefficients(h, modes)

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


def _csv_reader_parse(path):
    """The loader's earlier parse (csv.reader, float per cell), kept as its oracle."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    assert [c.strip().lower() for c in rows[0]][:2] == ["arclength", "value"]
    try:
        return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]
    except (IndexError, ValueError) as exc:
        raise BoundaryDataError(f"{path}: bad row") from exc


_SAMPLES = [(0.25 + 0.625 * k, math.sin(1.0 + k)) for k in range(12)]


def _layout(fmt, comment_every=0):
    rows = ["arclength,value"]
    for k, (a, v) in enumerate(_SAMPLES):
        if comment_every and k % comment_every == 0:
            rows.append("  # a comment between samples, 1,2")
        rows.append(fmt.format(a=repr(a), v=repr(v)))
    return "\n".join(rows) + "\n"


class TestLoadCsv:
    @pytest.mark.parametrize(
        "text",
        [
            _layout("{a},{v}"),
            _layout("{a},{v}", comment_every=3),
            "# leading comment\n\n" + _layout("{a},{v}").replace("\n", "\n\n", 4),
            _layout("{a},{v},extra,7"),
            _layout('"{a}","{v}"'),
            _layout(" {a} ,\t{v}  "),
            _layout("{a},{v}").replace("arclength,value", '"Arclength", VALUE ,note'),
            _layout("{a},{v}\r"),
        ],
        ids=["plain", "comments", "blank-lines", "extra-columns", "quoted", "whitespace",
             "header-variants", "crlf"],
    )
    def test_matches_csv_reader_parse(self, tmp_path, text):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        want = SampledBoundaryFunction(Rectangle(1.0), *_csv_reader_parse(path))
        got = load_boundary_csv(path, 1.0)
        rect = Rectangle(1.0)
        for edge in Edge:
            t = np.linspace(*rect.edge_range(edge), 33)
            assert np.array_equal(got.edge_values(rect, edge, t), want.edge_values(rect, edge, t))

    @pytest.mark.parametrize(
        "bad_row", ["1.0", "1.0,oops", "1.0,", "oops,1.0", "1.0,2.0 # inline comment"]
    )
    def test_bad_row_names_path(self, tmp_path, bad_row):
        path = tmp_path / "bad-row.csv"
        path.write_text(_layout("{a},{v}") + bad_row + "\n")
        with pytest.raises(BoundaryDataError):
            _csv_reader_parse(path)
        with pytest.raises(BoundaryDataError, match="bad-row.csv"):
            load_boundary_csv(path, 1.0)

    def test_header_only_is_coverage_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("arclength,value\n# nothing else\n")
        with pytest.raises(EdgeCoverageError):
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
