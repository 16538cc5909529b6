import math

import pytest

from steklov_rect import (
    BoundKind,
    check_rect_bounds,
    check_square_bounds,
    nu_orderings,
    reproduce_tables,
)

RECT_ALPHAS = (0.1, 0.25, 0.5, 0.75)


def test_one_root_solve_per_family(monkeypatch):
    import steklov_rect.bounds as bounds_module
    import steklov_rect.modes as modes_module

    calls = []
    for module in (bounds_module, modes_module):
        solve = module.solve_nu
        monkeypatch.setattr(module, "solve_nu", lambda eq, j, tol, solve=solve: calls.append(j) or solve(eq, j, tol))
    check_square_bounds(20)
    check_rect_bounds(0.5, 20)
    nu_orderings(0.5, 20)
    reproduce_tables()
    assert [len(j) for j in calls] == [20, 20, 20, 20, 20, 6]


class TestSquareBounds:
    def test_strict_up_to_fifty(self):
        records = check_square_bounds(50)
        assert len(records) == 100
        assert all(r.ok for r in records)

    def test_first_coefficient_record(self):
        rec = [r for r in check_square_bounds(1) if r.kind == BoundKind.SQUARE_CJ][0]
        assert rec.actual_value == pytest.approx(1.7043861e-2, rel=1e-6)
        assert rec.bound_value == pytest.approx(2.56 * math.exp(-2 * 2.36502037), rel=1e-7)
        assert rec.bound_value == pytest.approx(0.02259485, rel=1e-6)

    def test_sixth_center_value_record(self):
        rec = [r for r in check_square_bounds(6) if r.kind == BoundKind.SQUARE_CENTER][-1]
        assert rec.actual_value == pytest.approx(5.7134174e-8, rel=1e-6)
        assert rec.bound_value == pytest.approx(4.53 * math.exp(-18.0641578), rel=1e-6)
        assert rec.actual_value < rec.bound_value

    def test_coefficient_ratio_near_geometric_limit(self):
        recs = [r for r in check_square_bounds(10) if r.kind == BoundKind.SQUARE_CJ]
        cs = [r.actual_value for r in recs]
        assert cs[1] / cs[0] == pytest.approx(1.9683443e-3, rel=1e-6)
        assert cs[1] / cs[0] < math.exp(-2 * math.pi) * 1.06
        for j in range(4, 9):
            assert cs[j] / cs[j - 1] == pytest.approx(math.exp(-2 * math.pi), rel=1e-7)

    def test_ratio_actual_to_bound_keeps_the_right_exponent(self):
        # the bound is tight up to an O(1) factor; a wrong exponent in either
        # side would drive the log gap linearly in nu
        for rec in check_square_bounds(30):
            gap = rec.log_bound - rec.log_actual
            assert 0.0 < gap < 0.5 * rec.nu + 4.0


class TestRectBounds:
    @pytest.mark.parametrize("alpha", RECT_ALPHAS)
    def test_strict_up_to_thirty(self, alpha):
        records = check_rect_bounds(alpha, 30)
        assert len(records) == 90
        assert all(r.ok for r in records)

    def test_underflowing_records_still_check(self):
        # alpha = .1, j = 30 puts both sides far below the double range; the
        # log-space comparison still works while the float views saturate
        records = [r for r in check_rect_bounds(0.1, 30) if r.j == 30]
        strong = [r for r in records if r.kind == BoundKind.RECT_C1_STRONG][0]
        assert strong.actual_value == 0.0 and strong.bound_value == 0.0
        assert strong.ok

    def test_tightness_by_kind(self):
        for alpha in (0.25, 0.75):
            for rec in check_rect_bounds(alpha, 12):
                gap = rec.log_bound - rec.log_actual
                assert gap > 0.0
                if rec.kind == BoundKind.RECT_C1_SMALL_ALPHA:
                    # this bound trades the exponent 2 nu for 2 alpha nu, so
                    # its slack grows like 2 (1 - alpha) nu
                    assert gap < 2.0 * (1.0 - alpha) * rec.nu + math.log(4.0 * rec.nu) + 4.0
                else:
                    assert gap < 0.5 * rec.nu + 4.0

    def test_alpha_near_one_approaches_square(self):
        # c_1j(alpha) -> c_j linearly in (1 - alpha) with slope about 2 nu_j,
        # since nu_j scales like 1/alpha and c ~ exp(-2 nu)
        square = {r.j: r for r in check_square_bounds(3) if r.kind == BoundKind.SQUARE_CJ}
        near = [r for r in check_rect_bounds(0.999, 3) if r.kind == BoundKind.RECT_C1_STRONG]
        far = [r for r in check_rect_bounds(0.99, 3) if r.kind == BoundKind.RECT_C1_STRONG]
        for rec_near, rec_far in zip(near, far):
            want = square[rec_near.j].actual_value
            rate = 2.0 * square[rec_near.j].nu
            assert rec_near.actual_value == pytest.approx(want, rel=2.0 * rate * 1e-3)
            assert abs(rec_far.actual_value - want) > abs(rec_near.actual_value - want)

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            check_rect_bounds(1.0, 5)


class TestNuOrdering:
    @pytest.mark.parametrize("alpha", RECT_ALPHAS)
    def test_verified_chain(self, alpha):
        # alpha*nu2 < alpha*nu1 < nu2 < nu1 holds at every index; nu2 sits
        # above alpha*nu1 by a gap of about exp(-2 alpha nu2), positive at
        # every index but collapsing below double resolution at large j
        for j, a_nu2, a_nu1, nu2, nu1 in nu_orderings(alpha, 30):
            assert a_nu2 < a_nu1 and nu2 < nu1
            predicted = math.exp(-2.0 * alpha * nu2)
            noise = 5e-12 * max(1.0, nu2)
            gap = nu2 - a_nu1
            assert gap > -noise
            assert gap < 3.0 * predicted + noise
            if predicted > 100.0 * noise:
                assert gap > 0.0


class TestTables:
    def test_all_rows_within_tolerance(self):
        report = reproduce_tables()
        assert report.ok
        assert len(report.rows) == 37

    def test_spot_rows(self):
        rows = {r.label: r for r in reproduce_tables().rows}
        assert rows["nu_1"].computed == pytest.approx(2.36502037, rel=5e-8)
        assert rows["delta_1"].computed == pytest.approx(2.32363775, rel=5e-8)
        assert rows["center_3"].computed == pytest.approx(7.079865e-4, rel=1e-6)
        assert rows["relerr_m3"].computed == pytest.approx(7.26e-5, rel=1e-2)
        assert rows["c_6/c_5"].computed == pytest.approx(1.8674427e-3, rel=1e-7)

    def test_coarse_roots_fail(self):
        report = reproduce_tables(root_tol=1e-4)
        assert not report.ok
        assert any(r.label.startswith("nu_") for r in report.failures)

    def test_csv_and_text_render(self):
        report = reproduce_tables()
        csv = report.to_csv()
        assert csv.splitlines()[0] == "name,computed,published,rel_dev"
        assert len(csv.splitlines()) == 38
        text = report.to_text()
        assert "all within tolerance" in text
