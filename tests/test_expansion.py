import json
import math
import sys

import numpy as np
import pytest

from steklov_rect import (
    AnalyticBoundaryFunction,
    BoundaryDataError,
    ExpansionTerm,
    Family,
    IncompatibleDataError,
    LinearCombination,
    ModeId,
    ModeKind,
    ModeTrace,
    SteklovExpansion,
    SymmetryClass,
    builtin_boundary,
    central_value,
    constant_function,
    energy_tail,
    evaluate,
    evaluate_interior,
    expand_dirichlet,
    expand_for_central,
    expansion_from_dict,
    expansion_to_dict,
    load_expansion,
    resolve,
    save_expansion,
    solve_neumann,
    solve_robin,
)
from steklov_rect.geometry import DomainError

from _oracles import boundary_mean


def class_one(j, alpha=1.0, fam=Family.X):
    return resolve(ModeId.separated(SymmetryClass.I, fam, j), alpha)


class TestExpandDirichlet:
    def test_constant_data(self):
        e = expand_dirichlet(constant_function(5.0), 1.0, 8)
        assert e.mean_term == pytest.approx(5.0, rel=1e-14)
        assert max(abs(t.coefficient) for t in e.terms) < 1e-10

    def test_reproduces_single_mode(self):
        target = class_one(2)
        e = expand_dirichlet(ModeTrace(target), 1.0, 12)
        for t in e.terms:
            want = 1.0 if t.mode.mode_id == target.mode_id else 0.0
            assert t.coefficient == pytest.approx(want, abs=1e-9)

    def test_even_even_data_excites_only_class_one(self):
        h = builtin_boundary("x2-y2")
        e = expand_dirichlet(h, 1.0, 20)
        assert abs(e.mean_term) < 1e-12
        for t in e.terms:
            if t.mode.kind != ModeKind.SEPARATED or t.mode.symmetry_class != SymmetryClass.I:
                assert abs(t.coefficient) < 1e-12
            elif t.mode.index == 1:
                assert abs(t.coefficient) > 0.1

    def test_coefficients_match_independent_quadrature(self):
        h = builtin_boundary("x2-y2")
        e = expand_dirichlet(h, 1.0, 6, classes=[SymmetryClass.I])
        for t in e.terms:
            mode = t.mode
            want = boundary_mean(
                lambda x, y: (x * x - y * y)
                * np.asarray(__import__("steklov_rect").evaluate(mode, x, y)),
                1.0,
                n=220,
            )
            assert t.coefficient == pytest.approx(want, abs=1e-11)

    def test_terms_sorted_by_eigenvalue(self):
        e = expand_dirichlet(builtin_boundary("xy"), 1.0, 15)
        deltas = [t.mode.delta for t in e.terms]
        assert deltas == sorted(deltas)


class TestEvaluateInterior:
    def test_constant(self):
        e = expand_dirichlet(constant_function(3.25), 0.5, 4)
        assert evaluate_interior(e, 0.2, -0.1) == pytest.approx(3.25, rel=1e-12)

    def test_reproduces_mode_inside(self):
        target = class_one(1)
        e = expand_dirichlet(ModeTrace(target), 1.0, 10)
        got = evaluate_interior(e, 0.3, -0.2)
        want = __import__("steklov_rect").evaluate(target, 0.3, -0.2)
        assert got == pytest.approx(want, abs=1e-8)

    def test_harmonic_polynomial_value(self):
        e = expand_dirichlet(builtin_boundary("x2-y2"), 1.0, 20, classes=[SymmetryClass.I])
        assert evaluate_interior(e, 0.5, 0.25) == pytest.approx(0.1875, abs=1e-6)

    def test_domain_error(self):
        e = expand_dirichlet(constant_function(1.0), 0.5, 2)
        with pytest.raises(DomainError):
            evaluate_interior(e, 0.0, 0.9)

    def test_projection_idempotence(self):
        h = builtin_boundary("x2-y2")
        e = expand_dirichlet(h, 1.0, 12, classes=[SymmetryClass.I])
        nu_max = max(t.mode.nu for t in e.terms)
        resampled = AnalyticBoundaryFunction(
            lambda x, y: evaluate_interior(e, x, y), freq_hint=nu_max
        )
        e2 = expand_dirichlet(resampled, 1.0, 12, classes=[SymmetryClass.I])
        assert e2.mean_term == pytest.approx(e.mean_term, abs=1e-10)
        for t1, t2 in zip(e.terms, e2.terms):
            assert t1.mode.mode_id == t2.mode.mode_id
            assert t2.coefficient == pytest.approx(t1.coefficient, abs=1e-8)


class TestEvaluateInteriorTermByTerm:
    """evaluate_interior equals mean_term + sum c * evaluate(mode) in term order, bit for bit."""

    @staticmethod
    def term_by_term(e, x, y):
        out = np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, e.mean_term)
        for t in e.terms:
            out = out + t.coefficient * evaluate(t.mode, x, y)
        return out

    @staticmethod
    def points(alpha):
        rng = np.random.default_rng(7)
        gx, gy = np.meshgrid(np.linspace(-0.6, 0.6, 23), alpha * np.linspace(-0.6, 0.6, 19))
        sx, sy = rng.uniform(-1.0, 1.0, 300), alpha * rng.uniform(-1.0, 1.0, 300)
        rep = np.array([0.3, -0.2, 0.3, 0.0, -0.0, 0.3])
        return [
            (gx, gy),
            (sx, sy),
            (0.3, -0.2 * alpha),
            (0.0, -0.0),
            (np.linspace(-1.0, 1.0, 9)[:, None], alpha * np.linspace(-1.0, 1.0, 7)[None, :]),
            (rep, alpha * rep[::-1]),
            (np.array([1.0, -1.0, 0.5, -1.0]), np.array([alpha, -alpha, alpha, 0.0])),
        ]

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_equals_term_by_term(self, alpha):
        h = LinearCombination([
            (1.5, constant_function(1.0)),
            (0.7, builtin_boundary("x2-y2")),
            (0.3, builtin_boundary("sinsinh:1.7")),
            (0.5, builtin_boundary("xy")),
        ])
        for e in (expand_dirichlet(h, alpha, 120), expand_dirichlet(h, alpha, 0)):
            for x, y in self.points(alpha):
                got = evaluate_interior(e, x, y)
                want = self.term_by_term(e, x, y)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_signed_zero_coordinates_stay_apart(self):
        # sin(nu * -0.0) = -0.0, so the term's sign reaches a -0.0 mean term
        mode = resolve(ModeId.separated(SymmetryClass.IV, Family.Y, 1), 1.0)
        e = SteklovExpansion(1.0, "dirichlet", None, -0.0, (ExpansionTerm(mode, 0.5),), 32)
        got = evaluate_interior(e, np.array([-0.0, 0.0, -0.0]), 0.1)
        assert np.signbit(got).tolist() == [True, False, True]

    def test_point_outside_raises(self):
        e = expand_dirichlet(builtin_boundary("x2-y2"), 0.5, 10)
        with pytest.raises(DomainError):
            evaluate_interior(e, np.array([0.0, 0.2]), np.array([0.1, 0.6]))


class TestCentralValue:
    def test_constant_any_truncation(self):
        for m in (0, 1, 4):
            e = expand_for_central(constant_function(1.0), 1.0, m)
            res = central_value(e)
            assert res.value == pytest.approx(1.0, rel=1e-13)
            assert res.m == m
            assert res.bound >= 0.0

    def test_eigenmode_data_is_exact(self):
        nu1 = class_one(1).nu
        h = builtin_boundary(f"coshcos:{nu1!r}")
        e = expand_for_central(h, 1.0, 3)
        res = central_value(e)
        assert res.value == pytest.approx(1.0, abs=1e-9)  # cosh(0) cos(0)
        assert abs(1.0 - res.value) <= res.bound

    def test_matches_full_interior_evaluation(self):
        # classes II-IV vanish identically at the origin, so the class-I-only
        # sum equals the full truncated series there, bit for bit
        e = expand_dirichlet(builtin_boundary("coshcos:1"), 1.0, 25)
        assert central_value(e).value == evaluate_interior(e, 0.0, 0.0)

    def test_square_bound_formula(self):
        h = builtin_boundary("coshcos:1")
        for m in (3, 4, 5):
            e = expand_for_central(h, 1.0, m)
            res = central_value(e)
            nu_m = [t.mode.nu for t in e.terms if t.mode.family == Family.X][-1]
            parts = [e.mean_term] + [t.coefficient * t.mode.scale for t in e.terms]
            rounding = (2 * m + 2) * sys.float_info.epsilon * sum(abs(p) for p in parts)
            want = 0.41 * math.exp(-nu_m) * res.data_norm + rounding
            assert res.bound == pytest.approx(want, rel=1e-12)
            assert abs(1.0 - res.value) <= res.bound

    def test_square_tail_takes_the_expansion_root(self, monkeypatch):
        # from m = 3 on the tail needs nu_m, which the expansion already holds
        import steklov_rect.bounds as bounds_module

        e = expand_for_central(builtin_boundary("coshcos:1"), 1.0, 5)
        want = central_value(e)
        monkeypatch.setattr(bounds_module, "solve_nu", lambda *args: pytest.fail("root solved again"))
        assert central_value(e) == want

    def test_rectangle_bound_certifies(self):
        h = builtin_boundary("coshcos:1")
        alpha = 0.5
        reference = central_value(expand_for_central(h, alpha, 40)).value
        for m in (2, 4, 6):
            res = central_value(expand_for_central(h, alpha, m))
            assert abs(res.value - reference) <= res.bound
        # the certificate shrinks geometrically
        b = [central_value(expand_for_central(h, alpha, m)).bound for m in (2, 4, 6)]
        assert b[2] < 0.1 * b[1] < 0.01 * b[0]

    def test_loaded_expansion_has_no_certificate(self):
        e = expand_for_central(builtin_boundary("coshcos:1"), 1.0, 3)
        doc = expansion_to_dict(e)
        res = central_value(expansion_from_dict(doc))
        assert math.isinf(res.bound) and res.data_norm is None


class TestHarmonicExactness:
    # each harmonic polynomial excites only the classes matching its parity;
    # restricted expansions converge to the exact values inside the rectangle
    CASES = [
        ("x", [SymmetryClass.IV], lambda x, y: x),
        ("y", [SymmetryClass.III], lambda x, y: y),
        ("xy", [SymmetryClass.II], lambda x, y: x * y),
        ("x3-3xy2", [SymmetryClass.IV], lambda x, y: x**3 - 3 * x * y * y),
        ("3x2y-y3", [SymmetryClass.III], lambda x, y: 3 * x * x * y - y**3),
        ("x4-6x2y2+y4", [SymmetryClass.I], lambda x, y: x**4 - 6 * x * x * y * y + y**4),
    ]

    @pytest.mark.parametrize("name,classes,exact", CASES)
    def test_interior_convergence(self, name, classes, exact):
        rng = np.random.default_rng(42)
        e = expand_dirichlet(builtin_boundary(name), 1.0, 34, classes=classes)
        xs = rng.uniform(-0.8, 0.8, 20)
        ys = rng.uniform(-0.8, 0.8, 20)
        got = np.array([evaluate_interior(e, x, y) for x, y in zip(xs, ys)])
        assert np.abs(got - exact(xs, ys)).max() < 1e-6

    def test_error_shrinks_with_truncation(self):
        h = builtin_boundary("x3-3xy2")
        pt = (0.72, -0.55)
        errs = []
        for M in (6, 14, 30):
            e = expand_dirichlet(h, 1.0, M, classes=[SymmetryClass.IV])
            errs.append(abs(evaluate_interior(e, *pt) - (pt[0] ** 3 - 3 * pt[0] * pt[1] ** 2)))
        assert errs[2] < errs[1] < errs[0]

    def test_quartic_central_certificate(self):
        # nonzero boundary mean, exact central value 0: the certified radius
        # must cover the truncation error
        h = builtin_boundary("x4-6x2y2+y4")
        for m in (3, 4, 5):
            res = central_value(expand_for_central(h, 1.0, m))
            assert abs(res.value - 0.0) <= res.bound


class TestRobin:
    def test_t_one_is_dirichlet_bit_for_bit(self):
        h = builtin_boundary("3x2y-y3")
        d = expand_dirichlet(h, 1.0, 10)
        r = solve_robin(h, 1.0, 1.0, 10)
        assert r.mean_term == d.mean_term
        for td, tr in zip(d.terms, r.terms):
            assert tr.coefficient == td.coefficient  # exact float equality

    def test_constant_data(self):
        r = solve_robin(constant_function(3.0), 1.0, 0.5, 6)
        assert r.mean_term == pytest.approx(6.0, rel=1e-14)
        assert max(abs(t.coefficient) for t in r.terms) < 1e-12
        assert evaluate_interior(r, 0.1, 0.2) == pytest.approx(6.0, rel=1e-12)

    def test_single_mode_weight(self):
        mode = class_one(1)
        r = solve_robin(ModeTrace(mode), 1.0, 0.5, 8)
        target = [t for t in r.terms if t.mode.mode_id == mode.mode_id]
        # 1 / ((1 - t) delta_1 + t) with delta_1 = 2.32363775
        assert target[0].coefficient == pytest.approx(0.601750296042341, abs=1e-9)

    def test_rejects_bad_t(self):
        h = constant_function(1.0)
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                solve_robin(h, 1.0, t, 4)


class TestNeumann:
    def test_mode_data_inverts_eigenvalue(self):
        mode = class_one(1)
        n = solve_neumann(ModeTrace(mode), 1.0, 8)
        assert n.mean_term == 0.0
        target = [t for t in n.terms if t.mode.mode_id == mode.mode_id]
        assert target[0].coefficient == pytest.approx(1.0 / mode.delta, abs=1e-9)

    def test_incompatible_data_rejected(self):
        with pytest.raises(IncompatibleDataError):
            solve_neumann(constant_function(1.0), 1.0, 4)

    def test_non_finite_data_rejected(self):
        # abs(nan) > limit is False, so the compatibility check alone lets nan through
        with pytest.raises(BoundaryDataError):
            solve_neumann(constant_function(math.nan), 1.0, 4)

    def test_robin_limit(self):
        eta = LinearCombination(
            [(1.0, ModeTrace(resolve(ModeId.separated(SymmetryClass.III, Family.X, 1), 1.0))),
             (0.5, ModeTrace(class_one(2)))]
        )
        n = solve_neumann(eta, 1.0, 12)
        errs = []
        for t in (1e-2, 1e-4, 1e-6):
            r = solve_robin(eta, 1.0, t, 12)
            err = max(
                abs(tr.coefficient - tn.coefficient) / max(abs(tn.coefficient), 1e-9)
                for tr, tn in zip(r.terms, n.terms)
            )
            errs.append(err)
        assert errs[0] < 2e-2 and errs[1] < 2e-4 and errs[2] < 2e-6
        assert errs[2] < errs[1] < errs[0]


class TestEnergyTail:
    def test_constant_expansion(self):
        e = expand_dirichlet(constant_function(2.0), 1.0, 0)
        res = energy_tail(e)
        assert res.total == pytest.approx(4.0, rel=1e-12)
        assert res.tail_ratio == 0.0

    def test_single_mode(self):
        mode = class_one(1)
        e = expand_dirichlet(ModeTrace(mode), 1.0, 1, classes=[SymmetryClass.I])
        res = energy_tail(e)
        assert res.total == pytest.approx(1.0 + mode.delta, abs=1e-8)

    def test_finite_expansion_has_negligible_tail(self):
        # data made of low modes only: the top-eigenvalue quintile holds noise
        eta = LinearCombination(
            [(1.0, ModeTrace(class_one(1))), (0.5, ModeTrace(class_one(1, fam=Family.Y)))]
        )
        res = energy_tail(expand_dirichlet(eta, 1.0, 20))
        assert res.tail_ratio < 1e-12

    def test_polynomial_tail_shrinks_with_truncation(self):
        # x^2 - y^2 has algebraically decaying coefficients (the corner kinks
        # of its normal derivative); the tail share falls but only slowly
        h = builtin_boundary("x2-y2")
        r20 = energy_tail(expand_dirichlet(h, 1.0, 20, classes=[SymmetryClass.I]))
        r40 = energy_tail(expand_dirichlet(h, 1.0, 40, classes=[SymmetryClass.I]))
        assert r20.tail_ratio < 2e-3
        assert r40.tail_ratio < r20.tail_ratio


class TestRobinResidual:
    def test_boundary_condition_recovered(self):
        # (1 - t) * FD normal derivative + t * trace approaches eta as the
        # truncation grows; decay is algebraic for data that is smooth per
        # edge but corner-kinked
        from _oracles import fd_normal_derivative

        t = 0.4
        eta = builtin_boundary("coshcos:1.3")
        rect_pts = [(1.0, 0.3, 1.0, 0.0), (0.2, 1.0, 0.0, 1.0), (-1.0, -0.45, -1.0, 0.0)]
        res = []
        for M in (8, 32):
            sol = solve_robin(eta, 1.0, t, M)
            worst = 0.0
            for x, y, nx, ny in rect_pts:
                dn = fd_normal_derivative(lambda a, b: evaluate_interior(sol, a, b), x, y, nx, ny)
                tr = evaluate_interior(sol, x, y)
                worst = max(worst, abs((1 - t) * dn + t * tr - float(eta.fn(x, y))))
            res.append(worst)
        assert res[1] < 0.5 * res[0]
        assert res[1] < 0.05


class TestSerialization:
    def test_roundtrip_identical_json(self, tmp_path):
        e = solve_robin(builtin_boundary("x2-y2"), 0.75, 0.3, 9)
        doc = expansion_to_dict(e)
        text1 = json.dumps(doc, indent=2)
        e2 = expansion_from_dict(json.loads(text1))
        text2 = json.dumps(expansion_to_dict(e2), indent=2)
        assert text1 == text2
        for t1, t2 in zip(e.terms, e2.terms):
            assert t1.coefficient == t2.coefficient
            assert t1.mode.nu == t2.mode.nu
            assert t1.mode.scale == t2.mode.scale

    def test_file_roundtrip_preserves_values(self, tmp_path):
        e = expand_dirichlet(builtin_boundary("coshcos:1"), 1.0, 14)
        path = tmp_path / "exp.json"
        save_expansion(e, path)
        e2 = load_expansion(path)
        assert e2.kind == "dirichlet" and e2.t is None
        assert e2.quad_order == e.quad_order
        assert evaluate_interior(e2, 0.4, -0.3) == evaluate_interior(e, 0.4, -0.3)

    def test_xy_term_roundtrip(self):
        e = expand_dirichlet(builtin_boundary("xy"), 1.0, 5)
        doc = expansion_to_dict(e)
        xy_rows = [t for t in doc["terms"] if t["family"] is None]
        assert len(xy_rows) == 1 and xy_rows[0]["class"] == "II"
        e2 = expansion_from_dict(doc)
        assert evaluate_interior(e2, 0.5, 0.5) == pytest.approx(0.25, abs=1e-8)
