import math
import warnings

import mpmath
import numpy as np
import pytest

from steklov_rect import (
    DeterminingEquation,
    Family,
    ModeKind,
    NonConvergenceError,
    PoleProximityError,
    SymmetryClass,
    bracket,
    residual,
    solve_nu,
    spectrum,
)
from steklov_rect.roots import DEFAULT_TOL, _check_root_tol

from _oracles import mp_root, root_in, ulps

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
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                solve_nu(eq, 1, tol=tol)
        with pytest.raises(ValueError):
            DeterminingEquation(SymmetryClass.I, Family.X, 1.5)

    @pytest.mark.parametrize("alpha", [1e-9, 1e-12, 1e-15])
    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    def test_root_inside_pole_guard_band(self, alpha, tol):
        # tan(nu) = -/+ coth(alpha nu) puts the class III/IV y roots j = 1 about
        # alpha * pi/2 above/below the pole pi/2, inside residual's guard band
        for cls, side in ((SymmetryClass.III, 1), (SymmetryClass.IV, -1)):
            with mpmath.workdps(50):
                a = mpmath.mpf(alpha)
                # the equation times cos(nu) sinh(alpha nu): no poles near the root
                fn = lambda v: mpmath.sin(v) * mpmath.sinh(a * v) + side * mpmath.cos(v) * mpmath.cosh(a * v)
                want = mpmath.findroot(fn, (mpmath.mpf(1.5), mpmath.mpf(1.6)), solver="anderson")
                assert side * (want - mpmath.pi / 2) > 0
                assert abs(solve_nu(eq_of(cls, Family.Y, alpha), 1, tol) - want) <= tol

    def test_root_within_an_ulp_of_pole(self):
        # at alpha = 1e-16 the class III y root lies 1.6e-16 above the pole pi/2, less than an ulp
        eq = eq_of(SymmetryClass.III, Family.Y, 1e-16)
        nu = solve_nu(eq, 1)
        assert nu > math.pi / 2
        assert ulps(nu, mp_root(eq, mpmath.pi / 2)) <= 0.5

    @pytest.mark.parametrize("cls", [SymmetryClass.I, SymmetryClass.IV])
    def test_root_near_the_largest_double(self, cls):
        # at alpha = 2e-308 the x root j = 1 is 3 pi / (4 alpha) = 1.18e308, and the ends of its
        # bracket (7.9e307, 1.6e308) add up past the largest double
        eq = eq_of(cls, Family.X, 2e-308)
        lo, hi = bracket(eq, 1)
        assert math.isinf(lo + hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu = solve_nu(eq, 1, tol=1e300)
        assert ulps(nu, mp_root(eq, (mpmath.mpf(lo) + hi) / 2)) <= 2.0


class TestArraySolve:
    """solve_nu on index arrays, against a 50-digit mpmath oracle."""

    @pytest.mark.parametrize("alpha,jmax", [(1.0, 200), (0.7, 200), (0.37, 200), (0.3, 200), (0.1, 200),
                                            (0.01, 200), (0.001, 30)])
    def test_spectrum_within_4_ulp_of_oracle(self, alpha, jmax):
        # tol 1e-10 is above the spacing of doubles at every root here (nu < 1e5); the default
        # 1e-12 refuses roots past nu = 8192
        modes = [m for m in spectrum(alpha, jmax, tol=1e-10) if m.kind is ModeKind.SEPARATED]
        assert len(modes) == 8 * jmax
        worst = max(ulps(m.nu, mp_root(m.equation, m.nu)) for m in modes)
        assert worst <= 4.0

    @pytest.mark.parametrize("alpha", sorted({*np.linspace(0.001, 0.999, 37).tolist(), *(1.0 - 10.0**-k for k in range(1, 16))}))
    def test_first_class_ii_x_root(self, alpha):
        # tan(alpha nu) = tanh(nu) has a root in window 0 that merges into nu = 0 as alpha -> 1
        eq = eq_of(SymmetryClass.II, Family.X, alpha)
        nu = solve_nu(eq, 1)
        assert 0.0 < nu < math.pi / (2 * alpha)
        assert ulps(nu, mp_root(eq, nu)) <= 20.0

    @pytest.mark.parametrize("alpha,last", [(0.1, 261), (0.01, 26), (0.001, 2)])
    def test_refusal_boundary(self, alpha, last):
        # the class I x roots cross nu = 8192, where doubles are 2**-39 = 1.8e-12 apart, after index last
        eq = eq_of(SymmetryClass.I, Family.X, alpha)
        nus = solve_nu(eq, np.arange(1, last + 1))
        assert np.spacing(nus[-1]) <= DEFAULT_TOL
        assert solve_nu(eq, last) == nus[-1]
        with pytest.raises(NonConvergenceError, match=f"j={last + 1} ") as info:
            solve_nu(eq, np.arange(1, last + 3))
        nu = solve_nu(eq, last + 1, tol=2.0**-39)
        message = str(info.value)
        assert "class I, family x" in message and f"nu={nu!r}" in message
        assert f"doubles are {2.0**-39!r} apart" in message
        assert message.endswith(f"accepted is {float(np.spacing(solve_nu(eq, last + 2, tol=1.0)))!r}")
        with pytest.raises(NonConvergenceError):
            solve_nu(eq, last + 1)

    @pytest.mark.parametrize("alpha", [1e-310, 1e-320, 5e-324])
    def test_refusal_of_a_root_past_the_largest_double(self, alpha):
        # at a subnormal alpha the bracket, and the root, pass the largest double: no tol accepts
        # them, so the refusal says the root overflows and suggests no tol
        eq = eq_of(SymmetryClass.I, Family.X, alpha)
        for tol in (DEFAULT_TOL, 1e300):
            with pytest.raises(NonConvergenceError) as info:
                solve_nu(eq, np.arange(1, 3), tol=tol)
            assert str(info.value).endswith("root j=1 overflows doubles at this alpha")
            assert "tol" not in str(info.value) and "nan" not in str(info.value)

    def test_refusal_names_the_overflowing_root_and_no_tol(self):
        # at alpha = 1e-306 root 1 (near 2.4e306) is finite but coarse and a later one overflows:
        # the refusal names that one, since no tol would accept it
        eq = eq_of(SymmetryClass.I, Family.X, 1e-306)
        assert math.isfinite(solve_nu(eq, 1, tol=1e300))
        with pytest.raises(NonConvergenceError, match=r"root j=\d+ overflows doubles at this alpha$") as info:
            solve_nu(eq, np.arange(1, 200))
        assert "tol" not in str(info.value)

    def test_refusal_names_the_first_stream_and_the_largest_spacing(self):
        # two streams lie past tol: the message names class I y, the first in tie-break order, at
        # its lowest such index, and the spacing at the largest root as the smallest tol accepted
        roots = [(eq_of(SymmetryClass.III, Family.X, 0.5), 2, 9000.0), (eq_of(SymmetryClass.I, Family.Y, 0.5), 5, 20000.0),
                 (eq_of(SymmetryClass.I, Family.Y, 0.5), 4, 10000.0), (eq_of(SymmetryClass.I, Family.X, 0.5), 1, 3.0)]
        with pytest.raises(NonConvergenceError) as info:
            _check_root_tol(iter(roots), 40000.0, DEFAULT_TOL)
        assert str(info.value) == (
            "class I, family y, alpha=0.5 (tan(1.0*nu) = -tanh(0.5*nu)): root j=4 at nu=10000.0 lies where "
            f"doubles are {2.0**-39!r} apart, wider than tol=1e-12; the smallest root tol (--root-tol) "
            f"accepted is {2.0**-37!r}")
        _check_root_tol(iter(roots), 40000.0, 2.0**-37)

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
