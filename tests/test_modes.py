import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov_rect import (
    CornerError,
    DomainError,
    Edge,
    Family,
    InvalidModeError,
    ModeId,
    ModeKind,
    Rectangle,
    SymmetryClass,
    eigenvalue,
    evaluate,
    first_modes,
    inner_product,
    log_normalization_integral,
    ModeTrace,
    normal_derivative,
    normalization_integral,
    resolve,
    spectrum,
)
from steklov_rect.modes import gradient

from _oracles import boundary_integral, fd_laplacian, raw_profile

TABLE1_NU = (2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578)
TABLE1_DELTA = (2.32363775, 5.49761947, 8.63937929, 11.7809724, 14.9225651, 18.0641578)
TABLE2_CENTER = (0.36925721, 1.6382475e-2, 7.079865e-4, 3.0594874e-5, 1.3221244e-6, 5.7134174e-8)
TABLE3_C = (1.7043861e-2, 3.35481862e-5, 6.26556108e-8, 1.17005787e-10, 2.18501606e-13, 4.08039237e-16)


def class_one(j, alpha=1.0, fam=Family.X):
    return resolve(ModeId.separated(SymmetryClass.I, fam, j), alpha)


def profile_flags(cls, fam):
    return cls.even_x, cls.even_y, fam == Family.X


class TestEigenvalue:
    def test_table1_deltas(self):
        for nu, delta in zip(TABLE1_NU, TABLE1_DELTA):
            assert eigenvalue(SymmetryClass.I, Family.X, nu, 1.0) == pytest.approx(delta, rel=5e-8)

    def test_large_index_delta_equals_nu(self):
        assert eigenvalue(SymmetryClass.I, Family.X, 18.0641578, 1.0) == pytest.approx(
            18.0641578, abs=5e-7
        )

    def test_constant_mode_delta_zero(self):
        assert resolve(ModeId.constant(), 0.7).delta == 0.0

    def test_assignment_matches_normal_over_trace(self):
        # independent check: D_nu s = delta * s on both edge pairs for every
        # (class, family), with the raw profile differentiated numerically
        h = 1e-6
        for cls in SymmetryClass:
            for fam in Family:
                mode = resolve(ModeId.separated(cls, fam, 2), 0.6)
                fn = raw_profile(*profile_flags(cls, fam), mode.nu)
                ts = np.linspace(-0.55, 0.55, 7)
                big = max(abs(fn(1.0, t * 0.6)) for t in ts)
                for t in ts:
                    y = t * 0.6
                    dx = (fn(1.0, y) - fn(1.0 - h, y)) / h
                    assert abs(dx - mode.delta * fn(1.0, y)) < 2e-4 * (1 + mode.delta) * big
                big = max(abs(fn(t, 0.6)) for t in ts)
                for t in ts:
                    dy = (fn(t, 0.6) - fn(t, 0.6 - h)) / h
                    assert abs(dy - mode.delta * fn(t, 0.6)) < 2e-4 * (1 + mode.delta) * big


class TestNormalizationIntegral:
    def test_square_class_i_values(self):
        for nu, c in zip(TABLE1_NU, TABLE3_C):
            total = normalization_integral(SymmetryClass.I, Family.X, nu, 1.0)
            assert 1.0 / total == pytest.approx(c, rel=1e-6)

    def test_matches_quadrature_every_class(self):
        for cls in SymmetryClass:
            for fam in Family:
                for alpha in (0.37, 1.0):
                    mode = resolve(ModeId.separated(cls, fam, 3), alpha)
                    fn = raw_profile(*profile_flags(cls, fam), mode.nu)
                    oracle = boundary_integral(lambda x, y: fn(x, y) ** 2, alpha)
                    closed = normalization_integral(cls, fam, mode.nu, alpha)
                    assert closed == pytest.approx(oracle, rel=1e-10)

    def test_printed_form_with_wrong_hyperbolic_argument_fails(self):
        # the second bracket must carry sinh(2 nu), not sinh(2 nu alpha);
        # at alpha = 1 the two coincide, away from it only the former matches
        alpha = 0.5
        mode = class_one(1, alpha)
        nu = mode.nu
        fn = raw_profile(True, True, True, nu)
        oracle = boundary_integral(lambda x, y: fn(x, y) ** 2, alpha)
        literal = 2 * alpha * np.cosh(nu) ** 2 * (1 + np.sinc(2 * nu * alpha / np.pi)) + np.cos(
            nu * alpha
        ) ** 2 * (2 + np.sinh(2 * nu * alpha) / nu)
        corrected = normalization_integral(SymmetryClass.I, Family.X, nu, alpha)
        assert corrected == pytest.approx(oracle, rel=1e-10)
        assert abs(literal - oracle) / oracle > 1e-3

    def test_log_path_has_no_overflow_limit(self):
        # the integral itself leaves the double range near nu = 350
        assert math.isfinite(log_normalization_integral(SymmetryClass.I, Family.X, 400.0, 1.0))


class TestResolve:
    def test_constant(self):
        mode = resolve(ModeId.constant(), 0.3)
        assert (mode.nu, mode.delta, mode.norm_sq, mode.scale) == (0.0, 0.0, 1.0, 1.0)

    def test_xy_mode(self):
        mode = resolve(ModeId.xy(), 1.0)
        assert mode.delta == 1.0
        assert mode.scale == math.sqrt(3.0)
        assert mode.norm_sq == pytest.approx(1.0 / 3.0, rel=1e-15)
        # hand integral cross-checked by quadrature
        oracle = boundary_integral(lambda x, y: (x * y) ** 2, 1.0) / 8.0
        assert mode.norm_sq == pytest.approx(oracle, rel=1e-12)

    def test_xy_requires_square(self):
        with pytest.raises(InvalidModeError):
            resolve(ModeId.xy(), 0.99)

    def test_first_class_i_mode(self):
        mode = class_one(1)
        assert mode.nu == pytest.approx(TABLE1_NU[0], rel=5e-8)
        assert mode.delta == pytest.approx(TABLE1_DELTA[0], rel=5e-8)
        assert mode.scale == pytest.approx(TABLE2_CENTER[0], rel=1e-7)
        assert mode.scale**2 * mode.norm_sq == pytest.approx(1.0, rel=1e-14)

    def test_resolve_is_deterministic(self):
        a = resolve(ModeId.separated(SymmetryClass.III, Family.Y, 4), 0.62)
        b = resolve(ModeId.separated(SymmetryClass.III, Family.Y, 4), 0.62)
        assert (a.nu, a.delta, a.scale) == (b.nu, b.delta, b.scale)

    def test_mode_id_validation(self):
        with pytest.raises(InvalidModeError):
            ModeId(ModeKind.CONSTANT, symmetry_class=SymmetryClass.I)
        with pytest.raises(InvalidModeError):
            ModeId.separated(SymmetryClass.I, Family.X, 0)


class TestEvaluate:
    def test_center_values_table2(self):
        for j, expected in enumerate(TABLE2_CENTER, start=1):
            assert evaluate(class_one(j), 0.0, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_other_classes_vanish_at_origin(self):
        for cls in (SymmetryClass.II, SymmetryClass.III, SymmetryClass.IV):
            mode = resolve(ModeId.separated(cls, Family.X, 1), 1.0)
            assert evaluate(mode, 0.0, 0.0) == 0.0
        assert evaluate(resolve(ModeId.xy(), 1.0), 0.0, 0.0) == 0.0

    def test_center_coefficient_identity(self):
        # on the square, s(0,0)^2 = 8 / I(1, nu_j), tying tables 2 and 3
        for j, c in enumerate(TABLE3_C, start=1):
            assert evaluate(class_one(j), 0.0, 0.0) ** 2 == pytest.approx(8 * c, rel=1e-6)

    def test_matches_raw_profile_times_scale(self):
        rng = np.random.default_rng(7)
        for cls in SymmetryClass:
            for fam in Family:
                mode = resolve(ModeId.separated(cls, fam, 2), 0.73)
                fn = raw_profile(*profile_flags(cls, fam), mode.nu)
                xs = rng.uniform(-1, 1, 20)
                ys = rng.uniform(-0.73, 0.73, 20)
                got = evaluate(mode, xs, ys)
                np.testing.assert_allclose(got, mode.scale * fn(xs, ys), rtol=1e-12, atol=1e-300)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(class_one(1), 1.2, 0.0)
        with pytest.raises(DomainError):
            evaluate(class_one(1, alpha=0.5), 0.0, 0.7)

    def test_overflow_safe_for_huge_nu(self):
        # alpha = 0.1 drives nu ~ j * pi / alpha into territory where
        # cosh(nu)**2 overflows; normalized values must stay finite
        mode = resolve(ModeId.separated(SymmetryClass.I, Family.X, 30), 0.1)
        assert mode.nu > 900.0
        vals = [evaluate(mode, x, 0.05) for x in (0.0, 0.5, 0.999, 1.0)]
        assert all(math.isfinite(v) for v in vals)
        assert max(abs(v) for v in vals) < 100.0
        edge = evaluate(mode, *mode.rect.edge_xy(Edge.RIGHT, np.linspace(-0.1, 0.1, 64)))
        assert np.all(np.isfinite(edge))

    def test_harmonicity_by_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-4
        for alpha in (1.0, 0.5):
            for mode in first_modes(alpha, 10):
                bound_t = np.linspace(-0.99, 0.99, 400)
                max_tr = max(
                    np.abs(evaluate(mode, *mode.rect.edge_xy(e, bound_t * (alpha if e in (Edge.RIGHT, Edge.LEFT) else 1.0)))).max()
                    for e in Edge
                )
                xs = rng.uniform(-0.9, 0.9, 100)
                ys = rng.uniform(-0.9 * alpha, 0.9 * alpha, 100)
                lap = fd_laplacian(lambda a, b: evaluate(mode, a, b), xs, ys, h)
                if mode.kind == ModeKind.SEPARATED:
                    limit = 1e-5 * mode.nu**2 * max_tr
                else:
                    limit = 1e-7
                assert np.abs(lap).max() < limit


class TestBoundaryOperations:
    def test_constant_trace(self):
        mode = resolve(ModeId.constant(), 0.8)
        p = Rectangle(0.8).boundary_point(Edge.TOP, 0.3)
        assert evaluate(mode, p.x, p.y) == 1.0

    def test_trace_value_on_right_edge(self):
        mode = class_one(1)
        p = Rectangle(1.0).boundary_point(Edge.RIGHT, 0.0)
        expected = mode.scale * np.cosh(mode.nu)  # profile value at (1, 0)
        assert evaluate(mode, p.x, p.y) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.98265, rel=1e-4)

    def test_even_symmetry_of_trace(self):
        mode = class_one(2)
        top = evaluate(mode, *mode.rect.edge_xy(Edge.TOP, np.array([0.4, -0.4])))
        assert top[0] == top[1]

    def test_normal_derivative_steklov_identity(self):
        rng = np.random.default_rng(11)
        for alpha in (1.0, 0.5):
            rect = Rectangle(alpha)
            for mode in first_modes(alpha, 12):
                for edge in Edge:
                    lo, hi = rect.edge_range(edge)
                    t = float(rng.uniform(lo + 1e-3, hi - 1e-3))
                    p = rect.boundary_point(edge, t)
                    dn = normal_derivative(mode, p)
                    assert dn == pytest.approx(mode.delta * evaluate(mode, p.x, p.y), abs=1e-9 * (1 + mode.delta))

    def test_normal_derivative_against_finite_differences(self):
        mode = resolve(ModeId.separated(SymmetryClass.IV, Family.Y, 2), 0.7)
        rect = Rectangle(0.7)
        p = rect.boundary_point(Edge.RIGHT, 0.22)
        dx, dy = gradient(mode, p.x, p.y)
        h = 1e-6
        fd = (evaluate(mode, 1.0, 0.22) - evaluate(mode, 1.0 - h, 0.22)) / h
        assert dx == pytest.approx(fd, rel=1e-5)

    def test_xy_normal_derivative(self):
        mode = resolve(ModeId.xy(), 1.0)
        p = Rectangle(1.0).boundary_point(Edge.RIGHT, 0.37)
        assert normal_derivative(mode, p) == pytest.approx(evaluate(mode, p.x, p.y), rel=1e-15)

    def test_corner_error(self):
        mode = class_one(1)
        p = Rectangle(1.0).boundary_point(Edge.RIGHT, 1.0)
        with pytest.raises(CornerError):
            normal_derivative(mode, p)

    def test_constant_normal_derivative_zero(self):
        mode = resolve(ModeId.constant(), 1.0)
        p = Rectangle(1.0).boundary_point(Edge.BOTTOM, 0.1)
        assert normal_derivative(mode, p) == 0.0


class TestOrthonormality:
    def test_boundary_normalization(self):
        for alpha in (1.0, 0.62):
            for mode in first_modes(alpha, 15):
                tr = ModeTrace(mode)
                assert inner_product(tr, tr) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_pairs_are_orthogonal(self):
        # equal eigenvalues on the square: the determining equation itself is
        # the orthogonality condition for the paired families
        for j in (1, 2):
            a = ModeTrace(class_one(j, fam=Family.X))
            b = ModeTrace(class_one(j, fam=Family.Y))
            assert abs(inner_product(a, b)) < 1e-10
        xy = ModeTrace(resolve(ModeId.xy(), 1.0))
        ii = ModeTrace(resolve(ModeId.separated(SymmetryClass.II, Family.X, 1), 1.0))
        assert abs(inner_product(xy, ii)) < 1e-10

    def test_cross_class_orthogonality(self):
        a = ModeTrace(resolve(ModeId.separated(SymmetryClass.III, Family.X, 1), 0.5))
        b = ModeTrace(resolve(ModeId.separated(SymmetryClass.I, Family.X, 2), 0.5))
        assert abs(inner_product(a, b)) < 1e-10


class TestScalingLaw:
    def test_eigenvalue_scales_inversely_with_size(self):
        # transplant a mode to the rectangle scaled by L: s_L(x,y) = s(x/L, y/L)
        # satisfies the same problem with eigenvalue delta / L
        mode = resolve(ModeId.separated(SymmetryClass.I, Family.X, 2), 0.5)
        L = 2.5
        xb, yb = L * 1.0, L * 0.21  # on the scaled right edge
        dx, _ = gradient(mode, xb / L, yb / L)
        dn_scaled = dx / L
        trace_scaled = evaluate(mode, xb / L, yb / L)
        assert dn_scaled / trace_scaled == pytest.approx(mode.delta / L, rel=1e-12)


class TestEnumeration:
    def test_first_modes_square_order(self):
        modes = first_modes(1.0, 8)
        labels = [
            (m.kind, m.symmetry_class, m.family, m.index) for m in modes
        ]
        assert labels[:3] == [
            (ModeKind.SEPARATED, SymmetryClass.III, Family.X, 1),
            (ModeKind.SEPARATED, SymmetryClass.IV, Family.Y, 1),
            (ModeKind.XY, None, None, None),
        ]
        assert labels[3] == (ModeKind.SEPARATED, SymmetryClass.I, Family.X, 1)
        assert labels[4] == (ModeKind.SEPARATED, SymmetryClass.I, Family.Y, 1)
        deltas = [m.delta for m in modes]
        assert deltas == sorted(deltas)
        assert modes[0].delta == pytest.approx(0.6882527423362673, rel=1e-10)

    def test_first_modes_class_filter(self):
        modes = first_modes(1.0, 6, classes=[SymmetryClass.I])
        assert all(m.symmetry_class == SymmetryClass.I for m in modes)
        assert [m.index for m in modes] == [1, 1, 2, 2, 3, 3]

    def test_spectrum_includes_constant_and_sorts(self):
        modes = spectrum(1.0, 1)
        assert modes[0].kind == ModeKind.CONSTANT
        deltas = [m.delta for m in modes]
        assert deltas == sorted(deltas)
        assert deltas[1] == pytest.approx(0.6882527423362673, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        count=st.integers(0, 200),
        classes=st.one_of(st.none(), st.sets(st.sampled_from(list(SymmetryClass)), min_size=1)),
    )
    def test_first_modes_is_prefix_of_spectrum(self, alpha, count, classes):
        # spectrum(alpha, count) holds the first count modes of every stream,
        # so its first count non-constant modes are the answer, ties included.
        # It also solves x-family roots up to count * pi / alpha, where the
        # default tolerance is below the spacing of doubles (TestArraySolve
        # covers that failure), so both sides use tol = 1e-10.
        modes = first_modes(alpha, count, classes=classes, tol=1e-10)
        whole = [m for m in spectrum(alpha, count, classes=classes, tol=1e-10) if m.kind != ModeKind.CONSTANT]
        assert [m.mode_id for m in modes] == [m.mode_id for m in whole[:count]]
        assert [m.nu for m in modes] == [m.nu for m in whole[:count]]

    def test_first_modes_ties_on_square(self):
        # classes III and IV (and I and II at the same index) tie exactly on the square
        modes = first_modes(1.0, 60)
        assert len({m.delta for m in modes}) < len(modes)
        assert modes == [m for m in spectrum(1.0, 60) if m.kind != ModeKind.CONSTANT][:60]

    def test_first_modes_empty_filter(self):
        assert first_modes(0.5, 0, classes=[]) == []
        with pytest.raises(InvalidModeError, match="only 0 modes"):
            first_modes(0.5, 3, classes=[])
