import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steklov_rect import (
    AnalyticBoundaryFunction,
    BoundaryDataError,
    ExpansionTerm,
    Family,
    IncompatibleDataError,
    InvalidModeError,
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
from steklov_rect import boundary as bd
from steklov_rect.boundary import project
from steklov_rect.bounds import rect_center_tail
from steklov_rect.expansion import _FACTOR_SETS, _FACTOR_VALUES, _axis, _central_table, _class_one_prefix, _kept_factors
from steklov_rect.geometry import Rectangle
from steklov_rect.geometry import DomainError
from steklov_rect.modes import _first_table

from _oracles import boundary_mean


AXIS_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]), st.floats(-1.0, 1.0))
POLYNOMIALS = ("x", "y", "xy", "x2-y2", "x3-3xy2", "3x2y-y3", "x4-6x2y2+y4", "4x3y-4xy3")
WAVES = ("coshcos", "sinhsin", "coscosh", "sinsinh")


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


@pytest.mark.parametrize("build,message", [
    (lambda h: expand_dirichlet(h, 1.0, -1), "M must be >= 0, got -1"),
    (lambda h: solve_robin(h, 1.0, 0.5, -1), "M must be >= 0, got -1"),
    (lambda h: solve_neumann(h, 1.0, -1), "M must be >= 0, got -1"),
    (lambda h: expand_for_central(h, 1.0, -1), "m must be >= 0, got -1"),
], ids=["dirichlet", "robin", "neumann", "central"])
def test_negative_truncation_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build(builtin_boundary("x"))


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
    """evaluate_interior equals mean_term + sum c * evaluate(mode) to the rounding of the sum.

    The terms are summed in another order (by block, and as matrix products
    on grids), so the check is the recursive-summation bound
    (M + 1) eps (|mean| + sum |c_j s_j(x, y)|), point by point.
    """

    @staticmethod
    def term_by_term(e, x, y):
        """The sum in term order and the sum of the magnitudes of its terms."""
        out = np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, e.mean_term)
        magnitude = np.abs(out)
        for t in e.terms:
            part = t.coefficient * evaluate(t.mode, x, y)
            out, magnitude = out + part, magnitude + np.abs(part)
        return out, magnitude

    def assert_within_rounding(self, e, x, y):
        got = evaluate_interior(e, x, y)
        want, magnitude = self.term_by_term(e, x, y)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= (e.truncation_M + 1) * sys.float_info.epsilon * magnitude)

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

    @staticmethod
    def data():
        return LinearCombination([
            (1.5, constant_function(1.0)),
            (0.7, builtin_boundary("x2-y2")),
            (0.3, builtin_boundary("sinsinh:1.7")),
            (0.5, builtin_boundary("xy")),
        ])

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_equals_term_by_term(self, alpha):
        for e in (expand_dirichlet(self.data(), alpha, 120), expand_dirichlet(self.data(), alpha, 0)):
            for x, y in self.points(alpha):
                self.assert_within_rounding(e, x, y)
        self.assert_within_rounding(expand_dirichlet(self.data(), alpha, 400), *self.points(alpha)[0])

    def test_grid_and_scattered_points_agree(self):
        # the same points as a meshgrid (one matrix product per block) and
        # shuffled flat (factors multiplied point by point)
        alpha = 0.5
        e = expand_dirichlet(self.data(), alpha, 400)
        gx, gy = np.meshgrid(np.linspace(-0.9, 0.9, 31), alpha * np.linspace(-0.9, 0.9, 27))
        order = np.random.default_rng(3).permutation(gx.size)
        sx, sy = gx.ravel()[order], gy.ravel()[order]
        on_grid, scattered = evaluate_interior(e, gx, gy).ravel()[order], evaluate_interior(e, sx, sy)
        _, magnitude = self.term_by_term(e, sx, sy)
        assert np.all(np.abs(on_grid - scattered) <= 401 * sys.float_info.epsilon * magnitude)

    @pytest.mark.parametrize("x, y", [(np.array([]), np.array([])), (np.zeros((0, 3)), 0.1), ([], 0.2)])
    def test_no_points(self, x, y):
        e = expand_dirichlet(self.data(), 0.5, 40)
        got = evaluate_interior(e, x, y)
        assert got.shape == np.broadcast(np.asarray(x), np.asarray(y)).shape

    def test_signed_zero_coordinates_stay_apart(self):
        # sin(nu * -0.0) = -0.0: each factor sees the coordinate's own sign
        xs, ix = _axis(np.array([-0.0, 0.0, -0.0]))
        assert xs.size == 2
        assert np.signbit(xs[ix]).tolist() == [True, False, True]
        mode = resolve(ModeId.separated(SymmetryClass.IV, Family.Y, 1), 1.0)
        e = SteklovExpansion(1.0, None, -0.0, (ExpansionTerm(mode, 0.5),), 32)
        self.assert_within_rounding(e, np.array([-0.0, 0.0, -0.0]), 0.1)

    @staticmethod
    def assert_axis_matches_unique(a):
        keys, inv = np.unique(a.ravel().view(np.int64), return_inverse=True)
        xs, ix = _axis(a)
        assert xs.view(np.int64).tolist() == keys.tolist()
        assert ix.tolist() == inv.ravel().tolist()

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(AXIS_VALUES, max_size=40), rows=st.sampled_from([1, 2]), copies=st.integers(1, 4),
           transpose=st.booleans(), edit=st.none() | st.tuples(st.integers(0, 10**3), AXIS_VALUES))
    @example(values=[], rows=1, copies=1, transpose=False, edit=None)
    @example(values=[], rows=2, copies=3, transpose=True, edit=None)
    @example(values=[-0.0, 0.0, -0.0, 0.0], rows=2, copies=1, transpose=False, edit=None)
    @example(values=[0.5, -0.0, 0.0, 0.5], rows=1, copies=3, transpose=False, edit=None)
    @example(values=[0.5, -0.0, 0.0, 0.5], rows=1, copies=3, transpose=True, edit=None)
    @example(values=[0.5, -0.0, 0.0, 0.5], rows=1, copies=3, transpose=False, edit=(9, 0.25))
    @example(values=[0.5, -0.0, 0.0, 0.5], rows=1, copies=3, transpose=True, edit=(5, 0.0))
    @example(values=[0.5, -0.0, 0.0, 0.5], rows=1, copies=1, transpose=True, edit=None)
    def test_axis_matches_unique(self, values, rows, copies, transpose, edit):
        # `rows` rows of values stacked `copies` times, or their transpose: with one row, every
        # row (or column) is the first, as in a meshgrid; an edit changes one element
        a = np.tile(np.array(values[: len(values) // rows * rows], dtype=float).reshape(rows, -1), (copies, 1))
        a = a.T.copy() if transpose else a
        if edit is not None and a.size:
            a.flat[edit[0] % a.size] = edit[1]
        self.assert_axis_matches_unique(a)

    @pytest.mark.parametrize("indexing", ["xy", "ij"])
    def test_axis_of_a_tensor_grid_matches_unique(self, indexing):
        xs, ys = np.array([0.3, -0.0, 0.0, -0.5, 0.3, 1.0]), np.array([0.1, 0.0, -0.0, 0.1])
        for a in (*np.meshgrid(xs, ys, indexing=indexing), *np.broadcast_arrays(xs[:, None], ys[None, :])):
            self.assert_axis_matches_unique(a)
            for copy in (a.copy(), a.T.copy()):
                copy[-1, -1] = 0.7  # one element off the line: the full sort
                self.assert_axis_matches_unique(copy)

    @pytest.mark.parametrize("field,shift", [("nu", lambda nu: 1.01 * nu), ("log_scale", lambda s: s + 0.5)],
                             ids=["nu", "log_scale"])
    def test_each_term_reads_its_own_mode(self, field, shift):
        # a term whose mode is not the stream's (an expansion loaded from JSON, or changed by
        # dataclasses.replace) is evaluated with its own nu and log_scale
        alpha = 0.5
        e = expand_dirichlet(self.data(), alpha, 120)
        for x, y in self.points(alpha):  # e's factors at these points are kept from here on
            evaluate_interior(e, x, y)
        k = max(range(len(e.terms)), key=lambda i: abs(e.terms[i].coefficient) if e.terms[i].mode.index else 0)
        mode = e.terms[k].mode
        shifted = dataclasses.replace(mode, **{field: shift(getattr(mode, field))})
        terms = e.terms[:k] + (dataclasses.replace(e.terms[k], mode=shifted),) + e.terms[k + 1:]
        e2 = dataclasses.replace(e, terms=terms)
        for x, y in self.points(alpha):
            self.assert_within_rounding(e2, x, y)
        gx, gy = self.points(alpha)[0]
        assert np.max(np.abs(evaluate_interior(e2, gx, gy) - evaluate_interior(e, gx, gy))) > 1e-6
        # both expansions keep factors at the same points: each warm call reads its own entry
        for x, y in self.points(alpha):
            _kept_factors.cache_clear()
            bits = lambda f: np.asarray(evaluate_interior(f, x, y)).tobytes()
            cold = [bits(e), bits(e2)]
            assert [bits(e2), bits(e2), bits(e)] == [cold[1], cold[1], cold[0]]
            assert _kept_factors.cache_info()[:2] == (3, 2)  # (hits, misses)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_kept_grouping_changes_no_value(self, alpha):
        # the solvers hand their mode set's table to the expansion; every other construction
        # builds its own from its terms, a table of equal modes that gives the same bits
        h = builtin_boundary("coshcos:2")
        gx, gy = self.points(alpha)[0]
        px, py = np.array([0.0, 0.3, -0.7]), np.array([0.0, -0.2 * alpha, 0.5 * alpha])
        for e in (expand_dirichlet(h, alpha, 400), solve_robin(h, alpha, 0.3, 400),
                  solve_neumann(builtin_boundary("x3-3xy2"), alpha, 400)):
            assert e._table.modes == tuple(t.mode for t in e.terms)
            points = ((gx, gy), (px, py))
            kept = [evaluate_interior(e, x, y).tobytes() for x, y in points]  # e's factors are kept from here on
            for bare in (dataclasses.replace(e, terms=e.terms), expansion_from_dict(expansion_to_dict(e))):
                assert bare == dataclasses.replace(e, data_norm=bare.data_norm)
                assert bare._table is not e._table and bare._table.modes == e._table.modes
                for (x, y), want in zip(points, kept):
                    assert evaluate_interior(bare, x, y).tobytes() == want == evaluate_interior(e, x, y).tobytes()
        e = expand_for_central(h, alpha, 5)
        assert e._table.modes == tuple(t.mode for t in e.terms)

    def test_point_outside_raises(self):
        e = expand_dirichlet(builtin_boundary("x2-y2"), 0.5, 10)
        with pytest.raises(DomainError):
            evaluate_interior(e, np.array([0.0, 0.2]), np.array([0.1, 0.6]))


class TestKeptFactors:
    """An expansion keeps its factors per (mode table contents, alpha, block width, distinct coordinates)."""

    @staticmethod
    def grid(alpha, n=40):
        return np.meshgrid(np.linspace(-0.6, 0.6, n), alpha * np.linspace(-0.6, 0.6, n - 3))

    @staticmethod
    def expansion(alpha):
        return expand_dirichlet(TestEvaluateInteriorTermByTerm.data(), alpha, 400)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_warm_equals_cold(self, alpha):
        e = self.expansion(alpha)
        bare = dataclasses.replace(e, terms=e.terms)
        rng = np.random.default_rng(11)
        scattered = rng.uniform(-0.9, 0.9, 150), alpha * rng.uniform(-0.9, 0.9, 150)
        for x, y in (self.grid(alpha), scattered):
            _kept_factors.cache_clear()
            cold = evaluate_interior(e, x, y).tobytes()
            assert _kept_factors.cache_info()[:2] == (0, 1)  # (hits, misses)
            warm = evaluate_interior(e, x, y).tobytes()
            assert _kept_factors.cache_info()[:2] == (1, 1)
            assert cold == warm == evaluate_interior(bare, x, y).tobytes()

    def test_other_grid_or_table_misses(self):
        e = self.expansion(0.5)
        gx, gy = self.grid(0.5)
        _kept_factors.cache_clear()
        want = evaluate_interior(e, gx, gy).tobytes()
        assert evaluate_interior(e, gx.copy(), gy + 0.0).tobytes() == want  # the same bits: a hit
        assert _kept_factors.cache_info()[:2] == (1, 1)
        assert np.any(gy == 0.0)
        evaluate_interior(e, gx, np.where(gy == 0.0, -0.0, gy))  # equal values, but not equal bits
        assert _kept_factors.cache_info()[:2] == (1, 2)
        # a table built again from the same modes has the same contents: it finds e's entry
        _first_table.cache_clear()
        e2 = self.expansion(0.5)
        assert e2._table is not e._table and e2._table.modes == e._table.modes
        assert evaluate_interior(e2, gx, gy).tobytes() == want
        assert _kept_factors.cache_info()[:2] == (2, 2)
        sx, sy = np.linspace(-0.6, 0.6, 150), 0.5 * np.linspace(0.6, -0.6, 150)
        evaluate_interior(e, sx, sy)
        # the same distinct coordinates at more points: narrower blocks
        sx, sy = np.r_[sx, sx[:10]], np.r_[sy, sy[:10]]
        assert evaluate_interior(e, sx, sy).tobytes() == evaluate_interior(dataclasses.replace(e), sx, sy).tobytes()
        # the replaced expansion builds a table of its own, of e's contents, and finds e's entry
        assert _kept_factors.cache_info()[:2] == (3, 4)

    def test_kept_sets_are_bounded(self):
        e = self.expansion(0.5)
        bare = dataclasses.replace(e, terms=e.terms)
        n = _FACTOR_VALUES // (2 * len(e.terms)) + 1  # the smallest n x n grid past the bound
        big = np.meshgrid(np.linspace(-0.6, 0.6, n), 0.5 * np.linspace(-0.6, 0.6, n))
        _kept_factors.cache_clear()
        assert evaluate_interior(e, *big).tobytes() == evaluate_interior(bare, *big).tobytes()
        assert _kept_factors.cache_info()[1:] == (0, _FACTOR_SETS, 0)  # (misses, maxsize, currsize)
        for n in range(10, 10 + 2 * _FACTOR_SETS):
            evaluate_interior(e, *self.grid(0.5, n))
            assert _kept_factors.cache_info().currsize == min(n - 9, _FACTOR_SETS)


class TestKeptTables:
    """Every expansion keeps its projection tables per (mode table, grid), under one budget of
    values; public project keeps nothing."""

    # per solver, two data sets of different freq_hint: one mode set, two grids
    SOLVES = [(lambda h, alpha: expand_dirichlet(h, alpha, 400), ("coshcos:2", "coshcos:9")),
              (lambda h, alpha: solve_robin(h, alpha, 0.3, 400), ("coshcos:2", "coshcos:9")),
              (lambda h, alpha: solve_neumann(h, alpha, 400), ("x3-3xy2", "sinsinh:9"))]
    CENTRAL = [(lambda h, alpha: expand_for_central(h, alpha, 3), ("coshcos:2", "coshcos:9")),
               (lambda h, alpha: expand_for_central(h, alpha, 12), ("coshcos:2", "coshcos:9"))]

    @staticmethod
    def bits(e):
        return np.array([e.mean_term, e.data_norm, *(term.coefficient for term in e.terms)]).tobytes()

    def solves(self, alpha, calls=SOLVES):
        return [self.bits(solve(builtin_boundary(name), alpha)) for solve, names in calls for name in names]

    @staticmethod
    def assert_within_budget():
        kept = bd._kept_tables
        assert kept.charged == sum(charge for charge, _ in kept.entries.values()) <= kept.budget

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_warm_equals_cold_equals_streamed(self, alpha, monkeypatch):
        kept = bd._kept_tables
        kept.clear()
        cold = self.solves(alpha, self.SOLVES + self.CENTRAL)
        # the Robin solves read the Dirichlet grids; each central set takes one grid per frequency
        assert kept.hits >= 2 and kept.misses == len(kept.entries) >= 6
        misses = kept.misses
        assert self.solves(alpha, self.SOLVES + self.CENTRAL) == cold
        assert kept.misses == misses
        monkeypatch.setattr(bd, "_TABLE_VALUES", 0)  # nothing kept: each slice built and dropped in turn
        assert self.solves(alpha, self.SOLVES + self.CENTRAL) == cold
        assert kept.misses == misses

    def test_second_round_misses_nothing(self):
        kept = bd._kept_tables
        kept.clear()
        for alpha in (1.0, 0.5, 0.1):
            self.solves(alpha)
        misses = kept.misses
        assert misses == len(kept.entries)
        self.assert_within_budget()
        for alpha in (1.0, 0.5, 0.1):
            self.solves(alpha)
        assert kept.misses == misses

    def test_public_project_keeps_nothing_and_central_expansions_hit(self):
        h = builtin_boundary("coshcos:2")
        modes = [term.mode for term in expand_dirichlet(h, 0.5, 400).terms]
        kept = bd._kept_tables
        kept.clear()
        project(h, Rectangle(0.5), modes)
        assert (kept.hits, kept.misses, len(kept.entries)) == (0, 0, 0)
        for m in (3, 3, 12):
            expand_for_central(h, 0.5, m)
        assert (kept.hits, kept.misses, len(kept.entries)) == (1, 2, 2)

    def test_central_sweep_keeps_every_solver_entry(self):
        # central values of 4 rectangles, m = 0..12 and 3 frequencies between the M = 400 solves
        # of 3 rectangles: the charges never pass the budget and no solver entry is dropped
        kept = bd._kept_tables
        kept.clear()
        solved = (1.0, 0.5, 0.1)
        for alpha in solved:
            self.solves(alpha)
        misses = kept.misses
        for i, alpha in enumerate((1.0, 0.5, 0.2, 0.1)):
            for m in range(13):
                for name in ("coshcos:2", "coshcos:9", "coshcos:20"):
                    central_value(expand_for_central(builtin_boundary(name), alpha, m))
                    self.assert_within_budget()
            misses = kept.misses
            self.solves(solved[i % 3])
            assert kept.misses == misses
        for alpha in solved:
            self.solves(alpha)
        assert kept.misses == misses

    def test_empty_central_sets_stay_within_budget(self):
        # m = 0 has no modes, so each of 1000 data frequencies takes an entry that holds no array;
        # each is still charged at least the memory it takes, so such entries cannot grow past the budget
        kept = bd._kept_tables
        data = [AnalyticBoundaryFunction(lambda x, y: 1.0 + 0.0 * x, freq_hint=(k - 0.5) * math.pi)
                for k in range(4, 1004)]  # 4 to 1003 panels a pair
        expand_for_central(data[0], 1.0, 0, order=2)
        kept.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for h in data:
                assert expand_for_central(h, 1.0, 0, order=2).mean_term == pytest.approx(1.0)
                self.assert_within_budget()
            taken = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept.misses == len(kept.entries) == 1000
        assert taken <= 8 * kept.charged  # bytes, against 8-byte values

    def test_oldest_entries_make_room(self, monkeypatch):
        h = builtin_boundary("coshcos:2")
        kept = bd._kept_tables
        charges = {}
        for alpha in (0.5, 1.0, 0.1):
            kept.clear()
            expand_dirichlet(h, alpha, 400)
            (charges[alpha], _), = kept.entries.values()
        # room for the alpha = 0.5 entry and one other
        monkeypatch.setattr(kept, "budget", charges[0.5] + max(charges[1.0], charges[0.1]))
        kept.clear()
        expand_dirichlet(h, 0.5, 400)
        expand_dirichlet(h, 1.0, 400)
        expand_dirichlet(h, 0.5, 400)  # a hit: now the most recently used
        expand_dirichlet(h, 0.1, 400)  # drops the alpha = 1 entry, the least recently used
        assert (kept.hits, kept.misses) == (1, 3)
        assert [key[1] for key in kept.entries] == [0.5, 0.1]
        self.assert_within_budget()

    def test_threads_keep_the_charges_consistent(self, monkeypatch):
        # misses and hits from more threads than cores, with a budget that forces evictions
        kept = bd._kept_tables
        kept.clear()
        monkeypatch.setattr(kept, "budget", 40_000)
        h = builtin_boundary("coshcos:2")
        want = {(alpha, m): self.bits(expand_for_central(h, alpha, m)) for alpha in (1.0, 0.5) for m in range(13)}
        errors = []

        def work(seed):
            try:
                for k in np.random.default_rng(seed).permutation(8 * len(want)) % len(want):
                    alpha, m = list(want)[k]
                    assert self.bits(expand_for_central(h, alpha, m)) == want[alpha, m]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        assert kept.hits + kept.misses == 6 * 8 * len(want) + len(want)
        self.assert_within_budget()

    def test_entry_over_the_bound_is_not_kept(self):
        h = builtin_boundary("coshcos:2")
        kept = bd._kept_tables
        kept.clear()
        e = expand_dirichlet(h, 0.5, 700)  # about 170 000 values
        assert (kept.hits, kept.misses) == (0, 0)
        assert self.bits(expand_dirichlet(h, 0.5, 700)) == self.bits(e)
        assert len(kept.entries) == 0
        expand_dirichlet(h, 0.5, 400)
        assert len(kept.entries) == 1

    def test_entries_are_keyed_by_table_contents(self):
        # 70 central sets through the 64 kept mode sets: the second pass rebuilds every table, and
        # each new table of the same modes finds the entry the first pass kept
        h = builtin_boundary("coshcos:2")
        kept = bd._kept_tables
        kept.clear()
        _central_table.cache_clear()
        sets = [(alpha, m) for alpha in (1.0, 0.9, 0.7, 0.5, 0.3, 0.2, 0.1) for m in range(3, 13)]
        first = [self.bits(expand_for_central(h, alpha, m)) for alpha, m in sets]
        assert (kept.hits, kept.misses, len(kept.entries)) == (0, 70, 70)
        second = [self.bits(expand_for_central(h, alpha, m)) for alpha, m in sets]
        assert _central_table.cache_info()[:2] == (0, 140)  # (hits, misses): every table built twice
        assert (kept.hits, kept.misses, len(kept.entries)) == (70, 70, 70)
        assert second == first
        self.assert_within_budget()

    # data of every parity pattern: classes I (with the mean), II, IV and III
    MIX = LinearCombination([(1.0, builtin_boundary("coshcos:2")), (0.5, builtin_boundary("sinhsin:1.5")),
                             (0.3, builtin_boundary("x")), (0.2, builtin_boundary("y")), (0.7, builtin_boundary("xy"))])

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("classes", [[c] for c in SymmetryClass] + [[SymmetryClass.I, SymmetryClass.IV]],
                             ids=lambda classes: "+".join(c.value for c in classes))
    def test_folds_only_the_parities_the_tables_read(self, alpha, classes):
        rect = Rectangle(alpha)
        kept = bd._kept_tables
        norm = math.sqrt(bd.inner_product(self.MIX, self.MIX, rect, panels=16))
        mean = bd.inner_product(self.MIX, constant_function(1.0), rect, panels=16)
        # (even x, even y) of the modes, and of the mean; the vertical pair reads them as (even y, even x)
        evens = {(c.even_x, c.even_y) for c in classes} | {(True, True)}
        for M in (1, 7, 50):
            kept.clear()
            cold = expand_dirichlet(self.MIX, alpha, M, classes=classes)
            warm = expand_dirichlet(self.MIX, alpha, M, classes=classes)
            assert (kept.hits, kept.misses) == (1, 1)
            (_, plan), = kept.entries.values()
            assert plan.parities == ({(ey, ex) for ex, ey in evens}, evens)
            streamed = project(self.MIX, rect, [term.mode for term in cold.terms])
            assert self.bits(warm) == self.bits(cold) == np.array([streamed[0], streamed[1], *streamed[2]]).tobytes()
            assert abs(cold.mean_term - mean) <= 1e-14 * norm and abs(cold.data_norm - norm) <= 1e-14 * norm

    def test_central_mode_sets_are_kept(self):
        h = builtin_boundary("coshcos:2")
        _central_table.cache_clear()
        a, b = expand_for_central(h, 0.5, 6), expand_for_central(constant_function(2.0), 0.5, 6)
        assert a._table is b._table and _central_table.cache_info()[:2] == (1, 1)  # (hits, misses)
        _central_table.cache_clear()
        assert self.bits(expand_for_central(h, 0.5, 6)) == self.bits(a)
        assert expand_for_central(h, 0.5, 6)._table is not a._table


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
        # sum equals the full truncated series there, up to the rounding
        # term of the certificate (the two sums add in different orders)
        e = expand_dirichlet(builtin_boundary("coshcos:1"), 1.0, 25)
        parts = [e.mean_term] + [t.coefficient * t.mode.scale for t in e.terms
                                 if t.mode.symmetry_class == SymmetryClass.I]
        rounding = (len(parts) + 1) * sys.float_info.epsilon * sum(abs(p) for p in parts)
        assert abs(central_value(e).value - evaluate_interior(e, 0.0, 0.0)) <= rounding

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

    @pytest.mark.parametrize("m", range(1, 7))
    def test_square_tail_reads_the_expansion_root(self, m, monkeypatch):
        # the tail reads nu_m (from m = 3 on) or nu_{m+1} from the class-I stream the
        # expansion was built from, so the bound is the formula on that root bit for bit
        import steklov_rect.modes as modes_module

        h = builtin_boundary("coshcos:1")
        for e in (expand_for_central(h, 1.0, m), expand_dirichlet(h, 1.0, 2 * m, classes=[SymmetryClass.I])):
            res = central_value(e)
            fam_x, fam_y = ([e.terms[r] for r in _class_one_prefix(e, fam)] for fam in Family)
            assert res.m == m
            if m >= 3:
                per_norm = 0.41 * math.exp(-fam_x[m - 1].mode.nu)
            else:
                per_norm = 9.06 * math.exp(-class_one(m + 1).nu) / (1.0 - math.exp(-math.pi))
            magnitude = abs(e.mean_term) + sum(abs(t.coefficient * t.mode.scale) for t in fam_x + fam_y)
            rounding = (len(fam_x) + len(fam_y) + 2) * sys.float_info.epsilon * magnitude
            assert res.bound == per_norm * res.data_norm + rounding
            with monkeypatch.context() as patch:
                patch.setattr(modes_module, "solve_nu", lambda *args: pytest.fail("root solved again"))
                assert central_value(e) == res

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

    def test_robin_tail_formula(self):
        # class I y j = 1 at alpha = 0.1 has delta near 0.8, so a Robin
        # coefficient can exceed its Dirichlet one; the omitted modes' root
        # windows start at nu = pi/2 (family y) and 5 pi (family x)
        alpha, t = 0.1, 0.05
        e = solve_robin(builtin_boundary("coshcos:1"), alpha, t, 0)
        res = central_value(e)
        divisor = (1.0 - t) * (math.pi / 2) * math.tanh(alpha * math.pi / 2) + t
        rounding = 2 * sys.float_info.epsilon * abs(e.mean_term)
        want = rect_center_tail(0, alpha) * e.data_norm / divisor + rounding
        assert res.m == 0 and divisor < 0.3
        assert res.bound == pytest.approx(want, rel=1e-6)

    def test_dirichlet_tail_unchanged_by_robin_t_one(self):
        h = builtin_boundary("coshcos:1")
        for alpha in (1.0, 0.5):
            assert central_value(solve_robin(h, alpha, 1.0, 12)) == central_value(expand_dirichlet(h, alpha, 12))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1])
    def test_robin_certificate_on_exact_solutions(self, alpha, t):
        # eta = trace of a class-I mode s solves to s / ((1-t) delta + t), whose
        # center value is scale / ((1-t) delta + t); m runs below and past the mode
        for fam in Family:
            for j in (1, 2):
                mode = class_one(j, alpha, fam)
                exact = mode.scale / ((1.0 - t) * mode.delta + t)
                for M in range(0, 7):
                    res = central_value(solve_robin(ModeTrace(mode), alpha, t, M, classes=[SymmetryClass.I]))
                    assert abs(res.value - exact) <= res.bound

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.one_of(st.just(1.0), st.floats(math.log(0.02), 0.0).map(math.exp)),
        m=st.integers(0, 12),
        polys=st.lists(st.sampled_from(POLYNOMIALS), min_size=2, max_size=2),
        waves=st.lists(st.tuples(st.sampled_from(WAVES), st.floats(0.1, 8.0)), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dirichlet_certificate_holds(self, alpha, m, polys, waves, seed):
        parts = [builtin_boundary(name) for name in polys]
        parts += [builtin_boundary(f"{kind}:{nu!r}") for kind, nu in waves]
        weights = np.random.default_rng(seed).standard_normal(len(parts)).tolist()
        h = LinearCombination(list(zip(weights, parts)))
        exact = sum(w * float(f.fn(0.0, 0.0)) for w, f in zip(weights, parts))
        res = central_value(expand_for_central(h, alpha, m))
        assert res.m == m
        assert abs(res.value - exact) <= res.bound

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.78])
    def test_certificate_covers_exact_data_up_to_m_60(self, alpha):
        # a root off by ulps leaves the constant with coefficients near 1e-13 on other modes,
        # far above a bound that falls below 1e-14 by m = 40
        mix = LinearCombination([(0.7, builtin_boundary("x2-y2")), (-1.3, builtin_boundary("coshcos:2")),
                                 (2.0, builtin_boundary("const:1"))])
        for h, exact in ((builtin_boundary("const:1"), 1.0), (mix, 0.7)):
            uncovered = [m for m in range(1, 61)
                         if not abs((res := central_value(expand_for_central(h, alpha, m))).value - exact) <= res.bound]
            assert uncovered == []

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

    def test_overflowing_mean_term_rejected(self):
        # mean / t = 1 / 1e-310 overflows: the solution does not exist in doubles
        with pytest.raises(IncompatibleDataError, match=r"mean / t = 1\.000e\+00 / 1\.000e-310"):
            solve_robin(constant_function(1.0), 1.0, 1e-310, 3)
        # data of zero mean keeps a finite mean term at the same t
        assert math.isfinite(solve_robin(builtin_boundary("x"), 1.0, 1e-310, 3).mean_term)


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

    @pytest.mark.parametrize("solve,kind,t", [
        (lambda h: expand_dirichlet(h, 0.5, 12), "dirichlet", None),
        (lambda h: solve_robin(h, 0.5, 0.25, 12), "robin", 0.25),
        (lambda h: solve_neumann(h, 0.5, 12), "robin", 0.0),
    ], ids=["dirichlet", "robin", "neumann"])
    def test_kind_follows_t(self, solve, kind, t):
        e = solve(builtin_boundary("x3-3xy2"))
        assert (e.kind, e.t) == (kind, t)
        doc = expansion_to_dict(e)
        assert doc["kind"] == kind and doc.get("t") == t
        assert expansion_to_dict(expansion_from_dict(json.loads(json.dumps(doc)))) == doc

    @pytest.mark.parametrize("kind,t", [("dirichlet", 0.5), ("neumann", None), ("robin", None), ("dirichlet", 0.0),
                                        ("robin", 1.5), ("robin", -0.25), ("robin", math.nan)])
    def test_kind_contradicting_t_is_refused(self, kind, t):
        doc = {"alpha": 1.0, "kind": kind, "mean_term": 0.0, "terms": [], "quadrature_order": 32}
        if t is not None:
            doc["t"] = t
        with pytest.raises(ValueError):
            expansion_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("nu", math.nan), ("nu", math.inf), ("delta", math.nan),
                                           ("delta", -math.inf), ("coefficient", math.nan),
                                           ("coefficient", math.inf), ("mean_term", math.nan),
                                           ("mean_term", -math.inf)])
    def test_non_finite_number_is_refused(self, key, value):
        doc = expansion_to_dict(expand_dirichlet(builtin_boundary("coshcos:2"), 0.5, 12))
        row = next(row for row in doc["terms"] if row["family"] is not None)
        (doc if key == "mean_term" else row)[key] = value
        with pytest.raises(ValueError, match=f"{key} must be (positive and )?finite"):
            expansion_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("t", [1.5, -0.1, math.nan, math.inf])
    def test_t_outside_unit_interval_is_refused_on_construction(self, t):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            SteklovExpansion(1.0, t, 0.0, (), 32)

    @pytest.mark.parametrize("mean_term,data_norm", [
        (1.0, -1.0), (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (-math.inf, None)])
    def test_bad_mean_term_or_data_norm_is_refused_on_construction(self, mean_term, data_norm):
        # central_value would certify a negative or NaN bound from them
        message = "data_norm must be finite and >= 0" if math.isfinite(mean_term) else "mean_term must be finite"
        with pytest.raises(ValueError, match=message):
            SteklovExpansion(1.0, None, mean_term, (), 32, data_norm)
        e = expand_for_central(builtin_boundary("coshcos:2"), 0.5, 3)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(e, mean_term=mean_term, data_norm=data_norm)
        assert central_value(SteklovExpansion(1.0, None, 0.5, (), 32, 0.0)).bound >= 0.0

    def test_term_of_another_rectangle_is_refused(self):
        # the modes would be evaluated outside their rectangle, and central_value take the square's tail
        e = expand_dirichlet(builtin_boundary("coshcos:2"), 0.5, 40)
        with pytest.raises(InvalidModeError, match="another rectangle than alpha=1.0"):
            dataclasses.replace(e, alpha=1.0)
        with pytest.raises(InvalidModeError):
            SteklovExpansion(0.5, None, 0.0, (ExpansionTerm(class_one(1, alpha=0.5), 1.0),
                                              ExpansionTerm(class_one(1), 1.0)), 32)
        assert dataclasses.replace(e, alpha=0.5) == e

    @pytest.mark.parametrize("t,kind", [(None, "dirichlet"), (0.0, "robin"), (0.25, "robin"), (1.0, "robin")])
    def test_t_in_unit_interval_or_none_builds(self, t, kind):
        assert SteklovExpansion(1.0, t, 0.0, (), 32).kind == kind

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_constant_term_roundtrip(self, alpha):
        # the constant mode is written as class I without a family, the xy mode as class II
        mode = resolve(ModeId.constant(), alpha)
        e = SteklovExpansion(alpha, None, 0.0, (ExpansionTerm(mode, 2.0),), 32)
        doc = expansion_to_dict(e)
        e2 = expansion_from_dict(json.loads(json.dumps(doc)))
        assert e2.terms[0].mode == mode
        assert evaluate_interior(e2, 0.5, 0.5 * alpha) == 2.0
        assert expansion_to_dict(e2) == doc

    def test_family_less_term_of_another_class_is_refused(self):
        doc = expansion_to_dict(expand_dirichlet(builtin_boundary("xy"), 1.0, 5))
        next(row for row in doc["terms"] if row["family"] is None)["class"] = "III"
        with pytest.raises(ValueError, match="class III term needs a family"):
            expansion_from_dict(doc)

    def test_xy_term_roundtrip(self):
        e = expand_dirichlet(builtin_boundary("xy"), 1.0, 5)
        doc = expansion_to_dict(e)
        xy_rows = [t for t in doc["terms"] if t["family"] is None]
        assert len(xy_rows) == 1 and xy_rows[0]["class"] == "II"
        e2 = expansion_from_dict(doc)
        assert evaluate_interior(e2, 0.5, 0.5) == pytest.approx(0.25, abs=1e-8)


class TestCoefficientArray:
    """A solver's expansion holds its coefficients as one array beside its mode table and builds its
    terms only when they are read; every other construction derives both from its terms."""

    @staticmethod
    def data(alpha, names, nu, seed, mean_zero):
        parts = [builtin_boundary(f"{name}:{nu!r}" if name in WAVES else name) for name in names]
        h = LinearCombination(list(zip(np.random.default_rng(seed).standard_normal(len(parts)).tolist(), parts)))
        if not mean_zero:
            return h
        return LinearCombination([(1.0, h), (-project(h, Rectangle(alpha), [])[0], constant_function(1.0))])

    @staticmethod
    def points(alpha, seed):
        rng = np.random.default_rng(seed)
        grid = np.meshgrid(np.linspace(-0.9, 0.9, 7), alpha * np.linspace(-0.9, 0.9, 5))
        return grid, (rng.uniform(-0.9, 0.9, 30), alpha * rng.uniform(-0.9, 0.9, 30))

    @staticmethod
    def outputs(e, points, certified=True):
        """The bytes of everything computed from e; without certified, what does not read data_norm."""
        res = central_value(e)
        return ([evaluate_interior(e, x, y).tobytes() for x, y in points],
                repr((res.value, res.m) + ((res.bound, res.data_norm) if certified else ())),
                repr(energy_tail(e)), json.dumps(expansion_to_dict(e)))

    @settings(max_examples=40, deadline=None)
    @given(
        solver=st.sampled_from(["dirichlet", "robin", "neumann", "central"]),
        alpha=st.floats(0.1, 1.0),
        M=st.integers(0, 60),
        t=st.floats(0.05, 1.0),
        names=st.lists(st.sampled_from(("const:1",) + POLYNOMIALS + WAVES), min_size=1, max_size=3),
        nu=st.floats(0.1, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_construction_gives_the_same_bits(self, solver, alpha, M, t, names, nu, seed):
        h = self.data(alpha, names, nu, seed, solver == "neumann")
        solve = {"dirichlet": lambda: expand_dirichlet(h, alpha, M), "robin": lambda: solve_robin(h, alpha, t, M),
                 "neumann": lambda: solve_neumann(h, alpha, M), "central": lambda: expand_for_central(h, alpha, M // 2)}
        e = solve[solver]()
        points = self.points(alpha, seed)
        want = self.outputs(e, points)  # before e's terms are read
        built = SteklovExpansion(e.alpha, e.t, e.mean_term, e.terms, e.quad_order, e.data_norm)
        for other in (built, dataclasses.replace(e, terms=e.terms)):
            assert other == e and hash(other) == hash(e) and repr(other) == repr(e)
            assert self.outputs(other, points) == want
        loaded = expansion_from_dict(json.loads(json.dumps(expansion_to_dict(e))))
        assert loaded == dataclasses.replace(e, data_norm=None)
        assert self.outputs(loaded, points, certified=False) == self.outputs(e, points, certified=False)

    def test_a_solve_builds_no_term_until_terms_are_read(self, monkeypatch):
        made, init = [], ExpansionTerm.__init__

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(ExpansionTerm, "__init__", counted)
        h = builtin_boundary("coshcos:2")
        solved = [expand_dirichlet(h, 0.5, 60), solve_robin(h, 0.5, 0.3, 60),
                  solve_neumann(builtin_boundary("x3-3xy2"), 0.5, 60), expand_for_central(h, 0.5, 6)]
        for e in solved:
            for x, y in self.points(0.5, 1):
                evaluate_interior(e, x, y)
            central_value(e), energy_tail(e), expansion_to_dict(e), e.truncation_M
        assert made == []
        for e in solved:
            terms = e.terms
            assert len(made) == e.truncation_M and e.terms is terms  # built once, then kept
            assert [term.coefficient for term in terms] == e._coefficients.tolist()
            made.clear()
