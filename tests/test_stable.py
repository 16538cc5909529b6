import mpmath
import pytest

from steklov_rect import stable


@pytest.mark.parametrize("u", [1e-12, 1e-8, 1e-6, 1e-3, 0.1, 1.0, 30.0, 400.0])
def test_log_sinh_matches_mpmath(u):
    # log(sinh(u)) to a few ulp of its magnitude: at small u the log of
    # 1 - exp(-2u) must not round exp(-2u) first
    with mpmath.workdps(50):
        want = float(mpmath.log(mpmath.sinh(mpmath.mpf(u))))
    assert abs(float(stable.log_sinh(u)) - want) <= 4e-16 * max(1.0, abs(want))
