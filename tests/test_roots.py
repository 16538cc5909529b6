import math

import numpy as np
import pytest

from steklov_rect import (
    DeterminingEquation,
    Family,
    NonConvergenceError,
    PoleProximityError,
    SymmetryClass,
    bracket,
    residual,
    solve_nu,
)

from _oracles import root_in

# First six positive roots of tan(nu) + tanh(nu) = 0, printed to 9 digits.
TABLE1_NU = (2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578)

ALL_ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0)
ALL_EQS = [(cls, fam) for cls in SymmetryClass for fam in Family]


def eq_of(cls, fam, alpha):
    return DeterminingEquation(cls, fam, alpha)


class TestResidual:
    def test_vanishes_at_table_roots(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        assert abs(residual(eq, 2.36502037)) < 1e-7

    def test_value_past_first_pole(self):
        # oracle: tan(pi/2 + 0.2) + tanh(pi/2 + 0.2) evaluated directly
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        assert residual(eq, math.pi / 2 + 0.2) == pytest.approx(-3.9894582386632624, rel=1e-12)

    def test_class_ii_vanishes_at_zero_limit(self):
        # nu = 0 solves tan = tanh but is excluded as not strictly positive
        eq = eq_of(SymmetryClass.II, Family.X, 1.0)
        assert abs(residual(eq, 1e-7)) < 1e-18

    def test_pole_guard(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        with pytest.raises(PoleProximityError):
            residual(eq, math.pi / 2 * (1.0 + 1e-12))

    def test_rejects_nonpositive_nu(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        with pytest.raises(ValueError):
            residual(eq, 0.0)

    def test_matches_direct_formulas(self):
        # one spot check per (class, family): the residual is the documented
        # tan(a nu) +/- tanh/coth(b nu) combination
        direct = {
            (SymmetryClass.I, Family.X): lambda a, v: np.tan(a * v) + np.tanh(v),
            (SymmetryClass.I, Family.Y): lambda a, v: np.tan(v) + np.tanh(a * v),
            (SymmetryClass.II, Family.X): lambda a, v: np.tan(a * v) - np.tanh(v),
            (SymmetryClass.II, Family.Y): lambda a, v: np.tan(v) - np.tanh(a * v),
            (SymmetryClass.III, Family.X): lambda a, v: np.tan(a * v) - 1.0 / np.tanh(v),
            (SymmetryClass.III, Family.Y): lambda a, v: np.tan(v) + 1.0 / np.tanh(a * v),
            (SymmetryClass.IV, Family.X): lambda a, v: np.tan(a * v) + 1.0 / np.tanh(v),
            (SymmetryClass.IV, Family.Y): lambda a, v: np.tan(v) - 1.0 / np.tanh(a * v),
        }
        for (cls, fam), fn in direct.items():
            for alpha in (0.37, 1.0):
                eq = eq_of(cls, fam, alpha)
                for nu in (0.7, 2.9):
                    assert residual(eq, nu) == pytest.approx(fn(alpha, nu), rel=1e-14)


class TestBracket:
    def test_square_class_i_windows(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        assert bracket(eq, 1) == pytest.approx((math.pi / 2, math.pi))
        lo, hi = bracket(eq, 2)
        assert (lo, hi) == pytest.approx((1.5 * math.pi, 2 * math.pi))
        assert lo < 5.49780392 < hi

    def test_tan_coth_first_window(self):
        # tan nu = coth nu has its first root before the first pole
        eq = eq_of(SymmetryClass.IV, Family.Y, 1.0)
        lo, hi = bracket(eq, 1)
        assert lo == 0.0 and hi == pytest.approx(math.pi / 2)
        assert lo < 0.9375520343559806 < hi

    def test_class_ii_x_small_root_window(self):
        # for alpha < 1 the tan = +tanh equation has a root below the first pole
        eq = eq_of(SymmetryClass.II, Family.X, 0.75)
        lo, hi = bracket(eq, 1)
        assert lo == 0.0 and hi == pytest.approx(math.pi / 1.5)
        assert lo < 0.76023099515296 < hi
        # at alpha = 1 that root merges into nu = 0 and indexing shifts
        eq1 = eq_of(SymmetryClass.II, Family.X, 1.0)
        lo1, hi1 = bracket(eq1, 1)
        assert lo1 == pytest.approx(math.pi)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            bracket(eq_of(SymmetryClass.I, Family.X, 1.0), 0)


class TestSolveNu:
    def test_table1(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        for j, expected in enumerate(TABLE1_NU, start=1):
            nu = solve_nu(eq, j)
            assert nu == pytest.approx(expected, rel=5e-8)

    def test_spacing_reaches_pi(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        d6 = solve_nu(eq, 6) - solve_nu(eq, 5)
        assert d6 == pytest.approx(3.14159265, rel=5e-8)

    def test_family_y_rectangle_root(self):
        # oracle: brentq on tan(nu) + tanh(nu/2) in (pi/2, pi)
        eq = eq_of(SymmetryClass.I, Family.Y, 0.5)
        assert solve_nu(eq, 1) == pytest.approx(2.442886300519586, abs=1e-10)

    @pytest.mark.parametrize("cls,fam", ALL_EQS)
    @pytest.mark.parametrize("alpha", ALL_ALPHAS)
    def test_bracketing_soundness_and_monotonicity(self, cls, fam, alpha):
        eq = eq_of(cls, fam, alpha)
        prev = 0.0
        for j in range(1, 51):
            lo, hi = bracket(eq, j)
            nu = solve_nu(eq, j, tol=1e-10)
            assert lo < nu < hi
            assert nu > prev
            prev = nu

    @pytest.mark.parametrize("alpha", ALL_ALPHAS)
    def test_asymptotic_spacing_x_dominant(self, alpha):
        eq = eq_of(SymmetryClass.I, Family.X, alpha)
        nus = [solve_nu(eq, j) for j in range(5, 11)]
        for a, b in zip(nus, nus[1:]):
            assert abs((b - a) - math.pi / alpha) < 1e-9

    def test_refinement_consistency(self):
        eq = eq_of(SymmetryClass.III, Family.Y, 0.6)
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            a = solve_nu(eq, 3, tol=tol)
            b = solve_nu(eq, 3, tol=tol / 2)
            assert abs(a - b) <= tol

    def test_coarse_tol_is_coarse(self):
        # a requested tolerance is also roughly the accuracy delivered, so
        # coarse runs are visibly coarse (the tables command relies on this)
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        coarse = solve_nu(eq, 1, tol=1e-4)
        fine = solve_nu(eq, 1, tol=1e-12)
        assert abs(coarse - fine) > 1e-9
        assert abs(coarse - fine) <= 1e-4

    def test_matches_independent_oracle(self):
        cases = [
            (SymmetryClass.III, Family.X, 0.37, 3, lambda v: np.tan(0.37 * v) - 1 / np.tanh(v)),
            (SymmetryClass.IV, Family.X, 0.25, 2, lambda v: np.tan(0.25 * v) + 1 / np.tanh(v)),
            (SymmetryClass.II, Family.Y, 0.8, 4, lambda v: np.tan(v) - np.tanh(0.8 * v)),
        ]
        for cls, fam, alpha, j, fn in cases:
            eq = eq_of(cls, fam, alpha)
            lo, hi = bracket(eq, j)
            assert solve_nu(eq, j) == pytest.approx(root_in(fn, lo, hi), abs=1e-11)

    def test_nonconvergence_below_double_precision(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        with pytest.raises(NonConvergenceError):
            solve_nu(eq, 1, tol=1e-300)

    def test_rejects_bad_args(self):
        eq = eq_of(SymmetryClass.I, Family.X, 1.0)
        with pytest.raises(ValueError):
            solve_nu(eq, 0)
        with pytest.raises(ValueError):
            solve_nu(eq, 1, tol=0.0)
        with pytest.raises(ValueError):
            DeterminingEquation(SymmetryClass.I, Family.X, 1.5)


# ---------------------------------------------------------------------------
# The per-root scalar solver that solve_nu replaced, kept as a reference: the
# array solver must run the same iteration for every root.

def _scalar_residual(eq, nu):
    theta = eq.tan_scale * nu
    k = math.floor(theta / math.pi)
    if abs(theta - (k + 0.5) * math.pi) < 1e-8 * max(1.0, abs(theta)):
        raise PoleProximityError(nu)
    hyp = (lambda u: 1.0 / math.tanh(u)) if eq.uses_coth else math.tanh
    return math.tan(theta) + eq.sign * hyp(eq.hyp_scale * nu)


def _scalar_endpoints(eq, lo, hi):
    span = hi - lo
    nudge = max(2.0 * 1e-8 * max(1.0, hi * eq.tan_scale) / eq.tan_scale, 1e-13 * span)
    for _ in range(8):
        a, b = max(lo + nudge, 1e-300), hi - nudge
        try:
            fa, fb = _scalar_residual(eq, a), _scalar_residual(eq, b)
        except PoleProximityError:
            nudge *= 4.0
            continue
        if math.copysign(1.0, fa) != math.copysign(1.0, fb):
            return a, b, fa
        nudge *= 0.25
    raise AssertionError("no sign change")


def scalar_solve_nu(eq, j, tol=1e-12):
    lo, hi = bracket(eq, j)
    lo, hi, flo = _scalar_endpoints(eq, float(lo), float(hi))
    coarse = max(tol, 1e-9) if tol >= 1e-9 else 1e-6
    while hi - lo > coarse:
        mid = 0.5 * (lo + hi)
        fm = _scalar_residual(eq, mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    if tol >= 1e-9:
        return x
    a, b, s = eq.tan_scale, eq.hyp_scale, eq.sign
    for _ in range(60):
        f = _scalar_residual(eq, x)
        if math.copysign(1.0, f) == math.copysign(1.0, flo):
            lo = x
        else:
            hi = x
        t = math.tan(a * x)
        if b * x > 350.0:
            dhyp = 0.0
        elif eq.uses_coth:
            dhyp = -b / math.sinh(b * x) ** 2
        else:
            dhyp = b / math.cosh(b * x) ** 2
        step = f / (a * (1.0 + t * t) + s * dhyp)
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
            step = x_new - x
        x = x_new
        if (0.0 < abs(step) <= 0.25 * tol) or (hi - lo) <= tol:
            return x
    raise NonConvergenceError(j)


class TestArraySolve:
    """solve_nu on index arrays runs the scalar iteration root by root."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.37, 0.1])
    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    def test_within_one_ulp_of_scalar_solver(self, alpha, tol):
        js = np.arange(1, 201)
        for cls, fam in ALL_EQS:
            eq = eq_of(cls, fam, alpha)
            got = solve_nu(eq, js, tol)
            want = np.array([scalar_solve_nu(eq, j, tol) for j in range(1, 201)])
            assert got.shape == js.shape
            assert np.all(np.abs(got - want) <= np.spacing(want)), (cls, fam)

    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_same_nonconvergence_cases(self, alpha):
        streams_failing = 0
        for cls, fam in ALL_EQS:
            eq = eq_of(cls, fam, alpha)
            failing = []
            for j in range(1, 41):
                try:
                    scalar_solve_nu(eq, j)
                except NonConvergenceError:
                    failing.append(j)
            if failing:
                streams_failing += 1
                with pytest.raises(NonConvergenceError, match=f"j={failing[0]} "):
                    solve_nu(eq, np.arange(1, 41))
            else:
                solve_nu(eq, np.arange(1, 41))
            for j in range(1, 41):
                if j in failing:
                    with pytest.raises(NonConvergenceError):
                        solve_nu(eq, j)
                else:
                    solve_nu(eq, j)
        # the x-family polish cannot reach the default tolerance at these alphas
        assert streams_failing == 4

    def test_scalar_and_array_agree(self):
        eq = eq_of(SymmetryClass.IV, Family.Y, 0.3)
        js = np.array([[3, 1], [7, 2]])
        got = solve_nu(eq, js)
        assert got.shape == (2, 2)
        assert all(got[i, k] == solve_nu(eq, int(js[i, k])) for i in range(2) for k in range(2))
        assert isinstance(solve_nu(eq, 3), float)
        assert solve_nu(eq, np.arange(1, 1)).shape == (0,)

    def test_rejects_bad_index_in_array(self):
        with pytest.raises(ValueError):
            solve_nu(eq_of(SymmetryClass.I, Family.X, 1.0), np.array([1, 0, 2]))
