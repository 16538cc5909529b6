import mpmath
import numpy as np
import pytest

from steklov_rect import stable


@pytest.mark.parametrize("even", [True, False])
@pytest.mark.parametrize("u", [1e-12, -1e-8, 1e-3, 0.1, -1.0, 30.0, 400.0, 2400.3, -2400.3, 4000.7])
def test_signed_exp_hyp_matches_mpmath(u, even):
    # exp(log_amp) * cosh(u) or sinh(u) to a few ulp, also where the amplitude
    # cancels the growth (log_amp near -|u|, a normalized mode at its edge) and
    # at small u, where sinh must not round exp(-2u) first
    hyp = mpmath.cosh if even else mpmath.sinh
    for log_amp in (0.0, -5.0, -abs(u) + 0.7, -abs(u) - 3.1):
        with mpmath.workdps(50):
            want = float(mpmath.exp(mpmath.mpf(log_amp)) * hyp(mpmath.mpf(u)))  # inf past the double range
        with np.errstate(over="ignore"):
            got = float(stable.signed_exp_hyp(u, log_amp, even))
        assert got == want if np.isinf(want) else abs(got - want) <= 4 * np.spacing(abs(want)), (log_amp, got)
