"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 10 is split: the coefficient bounds pass; the published
inter-family root ordering is reversed in reality and that part is an
expected failure (see the strict xfail and the project notes).
"""

import math
import sys
import time

import numpy as np
import pytest

from steklov_rect import (
    DeterminingEquation,
    Edge,
    Family,
    LinearCombination,
    ModeId,
    ModeTrace,
    Rectangle,
    SymmetryClass,
    builtin_boundary,
    central_value,
    check_rect_bounds,
    check_square_bounds,
    evaluate,
    expand_dirichlet,
    expand_for_central,
    evaluate_interior,
    first_modes,
    inner_product,
    normal_derivative,
    normalization_integral,
    nu_orderings,
    resolve,
    solve_nu,
    solve_neumann,
    solve_robin,
)

from _oracles import boundary_integral, raw_profile

TABLE1_NU = (2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578)
TABLE1_DELTA = (2.32363775, 5.49761947, 8.63937929, 11.7809724, 14.9225651, 18.0641578)
TABLE2_CENTER = (0.36925721, 1.6382475e-2, 7.079865e-4, 3.0594874e-5, 1.3221244e-6, 5.7134174e-8)
TABLE3_C = (1.7043861e-2, 3.35481862e-5, 6.26556108e-8, 1.17005787e-10, 2.18501606e-13, 4.08039237e-16)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def class_one(j: int, alpha: float = 1.0, fam: Family = Family.X):
    return resolve(ModeId.separated(SymmetryClass.I, fam, j), alpha)


def test_criterion_01_table1_roots_and_eigenvalues():
    t0 = time.perf_counter()
    eq = DeterminingEquation(SymmetryClass.I, Family.X, 1.0)
    nus = [solve_nu(eq, j) for j in range(1, 7)]
    deltas = [nu * math.tanh(nu) for nu in nus]
    elapsed = time.perf_counter() - t0
    ok = all(
        abs(nu - want) / want <= 5e-8 for nu, want in zip(nus, TABLE1_NU)
    ) and all(abs(d - want) / want <= 5e-8 for d, want in zip(deltas, TABLE1_DELTA))
    ok = ok and elapsed < 1.0
    report(1, ok, f"first-6 roots and eigenvalues at 5e-8 relative in {elapsed * 1e3:.1f} ms")
    assert ok


def test_criterion_02_table2_center_values():
    vals = [class_one(j).scale for j in range(1, 7)]
    ok = all(abs(v - want) / want <= 1e-6 for v, want in zip(vals, TABLE2_CENTER))
    report(2, ok, "center mode values at 1e-6 relative")
    assert ok


def test_criterion_03_table3_coefficients_and_closed_form():
    cs = [
        1.0 / normalization_integral(SymmetryClass.I, Family.X, class_one(j).nu, 1.0)
        for j in range(1, 7)
    ]
    ok = all(abs(c - want) / want <= 1e-6 for c, want in zip(cs, TABLE3_C))
    ratio = cs[5] / cs[4]
    ok = ok and abs(ratio - 1.8674427e-3) / 1.8674427e-3 <= 1e-7

    # closed-form audit away from the square: the second bracket must carry
    # sinh(2 nu); the same expression with sinh(2 nu alpha) fails the oracle
    alpha = 0.5
    nu = class_one(1, alpha).nu
    fn = raw_profile(True, True, True, nu)
    oracle = boundary_integral(lambda x, y: fn(x, y) ** 2, alpha)
    corrected = normalization_integral(SymmetryClass.I, Family.X, nu, alpha)
    literal = 2 * alpha * np.cosh(nu) ** 2 * (1 + np.sinc(2 * nu * alpha / np.pi)) + np.cos(
        nu * alpha
    ) ** 2 * (2 + np.sinh(2 * nu * alpha) / nu)
    ok = ok and abs(corrected - oracle) / oracle <= 1e-10
    ok = ok and abs(literal - oracle) / oracle > 1e-10
    report(3, ok, "coefficients at 1e-6, ratio at 1e-7, closed form audited at alpha=0.5")
    assert ok


def test_criterion_04_square_decay_bounds_strict():
    records = check_square_bounds(50)
    ok = len(records) == 100 and all(r.ok for r in records)
    report(4, ok, "c_j < 2.56 e^-2nu and s_j(0,0) < 4.53 e^-nu strict for j = 1..50")
    assert ok


def test_criterion_05_central_value_certificate():
    t0 = time.perf_counter()
    nu1 = class_one(1).nu
    cases = [
        ("x2-y2", 0.0),
        ("x3-3xy2", 0.0),
        ("coshcos:1", 1.0),
        (f"coshcos:{nu1!r}", 1.0),
    ]
    ok = True
    max_ratio = 0.0
    for name, exact in cases:
        h = builtin_boundary(name)
        errs = []
        norm = None
        for m in (3, 4, 5):
            e = expand_for_central(h, 1.0, m)
            res = central_value(e)
            nu_m = [t.mode.nu for t in e.terms if t.mode.family == Family.X][-1]
            bound = 0.41 * math.exp(-nu_m) * res.data_norm
            err = abs(exact - res.value)
            ok = ok and err <= bound
            # the reported bound adds the rounding of the 2m + 1 summed terms and of the 2m coefficients
            parts = [e.mean_term] + [t.coefficient * t.mode.scale for t in e.terms]
            bound += (2 * m + 2) * sys.float_info.epsilon * sum(abs(p) for p in parts)
            bound += 2 * m * sys.float_info.epsilon * res.data_norm * sum(t.mode.scale for t in e.terms)
            ok = ok and abs(res.bound - bound) <= 1e-12 * bound
            errs.append(err)
            norm = res.data_norm
        # the successive-error ratio is meaningful only above roundoff: data
        # whose expansion is exact at the origin leaves errors at noise level
        floor = 1e-13 * (1.0 + norm)
        for lo, hi in zip(errs, errs[1:]):
            if lo > floor and hi > floor:
                ratio = hi / lo
                max_ratio = max(max_ratio, ratio)
                ok = ok and ratio <= 0.0475
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(
        5,
        ok,
        f"certified central values for 4 data sets, m=3..5, worst error ratio "
        f"{max_ratio:.4f} <= 0.0475, in {elapsed:.2f} s",
    )
    assert ok


def test_criterion_06_gram_matrix_identity():
    modes = [resolve(ModeId.constant(), 1.0)] + first_modes(1.0, 24)
    traces = [ModeTrace(m) for m in modes]
    n = len(modes)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            g = inner_product(traces[i], traces[j], order=32)
            worst = max(worst, abs(g - (1.0 if i == j else 0.0)))
    ok = worst <= 1e-8
    report(6, ok, f"25-mode Gram matrix within {worst:.2e} of identity (tol 1e-8)")
    assert ok


def test_criterion_07_steklov_property_random_boundary_points():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for alpha in (0.5, 1.0):
        rect = Rectangle(alpha)
        modes = [resolve(ModeId.constant(), alpha)] + first_modes(alpha, 24)
        for mode in modes:
            dense = np.linspace(-0.999, 0.999, 1001)
            max_tr = max(
                np.abs(
                    evaluate(mode, *mode.rect.edge_xy(e, dense * (alpha if e in (Edge.RIGHT, Edge.LEFT) else 1.0)))
                ).max()
                for e in Edge
            )
            limit = 1e-9 * (1.0 + abs(mode.delta)) * max_tr
            for _ in range(100):
                edge = Edge(int(rng.integers(1, 5)))
                lo, hi = rect.edge_range(edge)
                pad = 1e-9 * (hi - lo)
                t = float(rng.uniform(lo + pad, hi - pad))
                p = rect.boundary_point(edge, t)
                resid = abs(normal_derivative(mode, p) - mode.delta * evaluate(mode, p.x, p.y))
                worst = max(worst, resid / ((1.0 + abs(mode.delta)) * max_tr))
                ok = ok and resid < limit
    report(7, ok, f"normal derivative = delta * trace at random boundary points, worst "
                  f"{worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_08_harmonic_polynomial_convergence():
    h = builtin_boundary("x2-y2")
    rng = np.random.default_rng(77)

    def max_err(M, margin):
        e = expand_dirichlet(h, 1.0, M, classes=[SymmetryClass.I])
        lim = 1.0 - margin
        xs = rng.uniform(-lim, lim, 50)
        ys = rng.uniform(-lim, lim, 50)
        got = np.array([evaluate_interior(e, x, y) for x, y in zip(xs, ys)])
        return float(np.abs(got - (xs**2 - ys**2)).max())

    err_02 = max_err(30, 0.2)
    err_01 = max_err(60, 0.1)
    ok = err_02 < 1e-6 and err_01 < 1e-6
    report(8, ok, f"x^2-y^2 expansion: max err {err_02:.2e} at margin 0.2 (M=30), "
                  f"{err_01:.2e} at margin 0.1 (M=60)")
    assert ok


def test_criterion_09_robin_neumann_consistency():
    data = builtin_boundary("3x2y-y3")
    d = expand_dirichlet(data, 1.0, 12)
    r1 = solve_robin(data, 1.0, 1.0, 12)
    bitwise = d.mean_term == r1.mean_term and all(
        td.coefficient == tr.coefficient for td, tr in zip(d.terms, r1.terms)
    )

    eta = LinearCombination(
        [
            (1.0, ModeTrace(resolve(ModeId.separated(SymmetryClass.III, Family.X, 1), 1.0))),
            (0.5, ModeTrace(class_one(2))),
            (0.25, ModeTrace(resolve(ModeId.separated(SymmetryClass.IV, Family.Y, 1), 1.0))),
        ]
    )
    n = solve_neumann(eta, 1.0, 12)
    r = solve_robin(eta, 1.0, 1e-6, 12)
    continuity = True
    for tr, tn in zip(r.terms, n.terms):
        if abs(tn.coefficient) > 1e-9:
            continuity = continuity and abs(tr.coefficient - tn.coefficient) / abs(tn.coefficient) <= 2e-6
        else:
            continuity = continuity and abs(tr.coefficient - tn.coefficient) <= 1e-9
    ok = bitwise and continuity
    report(9, ok, "t=1 Robin == Dirichlet bit-for-bit; t=1e-6 Robin -> Neumann within 2e-6")
    assert ok


def test_criterion_10_rectangle_coefficient_bounds():
    ok = True
    for alpha in (0.1, 0.25, 0.5, 0.75):
        records = check_rect_bounds(alpha, 30)
        ok = ok and len(records) == 90 and all(r.ok for r in records)
    report(10, ok, "rectangle decay bounds strict for alpha in {0.1,0.25,0.5,0.75}, j = 1..30")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the published inter-family ordering nu2_j < alpha*nu1_j is reversed: "
    "the family-2 root exceeds alpha times the family-1 root by ~exp(-2*alpha*nu2) "
    "at every index (see notes); the verified ordering is tested in test_bounds",
)
def test_criterion_10_published_root_ordering():
    ok = True
    detail = ""
    for alpha in (0.1, 0.25, 0.5, 0.75):
        for j, a_nu2, a_nu1, nu2, nu1 in nu_orderings(alpha, 30):
            if not (a_nu2 < nu2 < a_nu1 < nu1):
                ok = False
                if not detail:
                    detail = (
                        f"first violation at alpha={alpha}, j={j}: "
                        f"nu2={nu2:.10g} > alpha*nu1={a_nu1:.10g}"
                    )
    report(10, ok, f"published ordering alpha*nu2 < nu2 < alpha*nu1 < nu1; {detail}")
    assert ok
