import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import steklov_rect.bounds as bnd
from steklov_rect import (
    DeterminingEquation,
    Family,
    Rectangle,
    SymmetryClass,
    builtin_boundary,
    central_value,
    evaluate,
    evaluate_interior,
    expand_for_central,
    solve_nu,
    solve_robin,
)
from steklov_rect.boundary import _MAX_ORDER
from steklov_rect.cli import main

from _oracles import rect_tail_series

TABLE1_NU = (2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_child(*argv, timeout=30, stdin_text=None):
    """The CLI in a child process under a time limit and a 2 GiB address-space limit.

    A hang then fails the test with TimeoutExpired, and a runaway allocation
    with a MemoryError, instead of stalling the suite or swamping the host.
    """
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "steklov_rect.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=limit_memory, input=stdin_text)


class TestSpectrum:
    def test_square_class_one_matches_reference(self, capsys):
        rc, out, _ = run(capsys, "spectrum", "--alpha", "1", "--classes", "I", "--jmax", "6",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        seps = [m for m in doc["modes"] if m["index"] is not None]
        xs = [m for m in seps if m["family"] == "x"]
        assert len(seps) == 12 and len(xs) == 6
        for row, want in zip(xs, TABLE1_NU):
            assert row["nu"] == pytest.approx(want, rel=5e-8)

    def test_lowest_nonzero_eigenvalue(self, capsys):
        rc, out, _ = run(capsys, "spectrum", "--alpha", "1", "--jmax", "1", "--format", "json")
        assert rc == 0
        deltas = [m["delta"] for m in json.loads(out)["modes"]]
        assert deltas[0] == 0.0
        nonzero = [d for d in deltas if d > 0]
        assert min(nonzero) == pytest.approx(0.6882527423362673, rel=1e-9)

    def test_alpha_out_of_range_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "spectrum", "--alpha", "2")
        assert rc == 2
        assert "alpha" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "spectrum", "--bogus")[0] == 2

    def test_deterministic_output(self, capsys):
        rc1, out1, _ = run(capsys, "spectrum", "--jmax", "3", "--format", "csv")
        rc2, out2, _ = run(capsys, "spectrum", "--jmax", "3", "--format", "csv")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_text_format(self, capsys):
        rc, out, _ = run(capsys, "spectrum", "--jmax", "1")
        assert rc == 0
        assert out.splitlines()[1].split()[:3] == ["class", "family", "index"]

    def test_alpha_just_below_one(self, capsys):
        # at 1 - 2**-53 the class II x root j=1 lies at nu = 1.3e-8, next to the
        # root nu = 0 it merges into at alpha = 1; its mode tends to xy
        rc, out, err = run(capsys, "spectrum", "--alpha", "0.9999999999999999", "--jmax", "1",
                           "--format", "json")
        assert rc == 0, err
        near_xy = [m for m in json.loads(out)["modes"] if (m["class"], m["family"]) == ("II", "x")]
        assert near_xy[0]["nu"] < 1e-7
        assert near_xy[0]["delta"] == pytest.approx(1.0, rel=1e-12)

    def test_header_echoes_alpha_exactly(self, capsys):
        # 9 digits would print alpha=1, the square, whose xy mode this spectrum lacks
        rc, out, _ = run(capsys, "spectrum", "--alpha", "0.9999999999999999", "--jmax", "1")
        assert rc == 0
        assert out.splitlines()[0] == "spectrum  alpha=0.9999999999999999  jmax=1"
        rc, out, _ = run(capsys, "spectrum", "--alpha", "0.5", "--jmax", "1")
        assert out.splitlines()[0] == "spectrum  alpha=0.5  jmax=1"


class TestCentral:
    def test_constant_data(self, capsys):
        rc, out, _ = run(capsys, "central", "--builtin", "const:7", "--m", "3",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(7.0, rel=1e-13)
        assert abs(doc["value"] - 7.0) <= doc["bound"]

    def test_vacuous_bound_warns_on_stderr(self, capsys, caplog):
        # at alpha = 0.05 the m = 3 tail bound exceeds the data norm: the bound is 59.5,
        # |value| + ||h|| only 5.4; the warning goes to stderr, stdout and exit code are as before
        argv = ("central", "--builtin", "coshcos:3", "--alpha", "0.05", "--m", "3")
        child = run_child(*argv)
        rc, out, _ = run(capsys, *argv)
        assert child.returncode == rc == 0
        assert child.stdout == out
        [line] = child.stderr.splitlines()
        assert line.startswith("warning: the certified bound 59.52") and "5.3676" in line
        assert [r.levelname for r in caplog.records] == ["WARNING"]

    @pytest.mark.parametrize("argv", [("--builtin", "coshcos:2", "--alpha", "0.5", "--m", "3"),
                                      ("--builtin", "coshcos:40", "--alpha", "0.2")])
    def test_covered_bound_prints_nothing_to_stderr(self, argv):
        # coshcos:40: a bound of 9.8e13 on a value of 7.8e11, but below the data norm 3.4e16
        child = run_child("central", *argv)
        assert child.returncode == 0
        assert child.stdout and child.stderr == ""

    def test_csv_row_is_plain_numbers(self, capsys):
        rc, out, _ = run(capsys, "central", "--builtin", "coshcos:2", "--alpha", "0.2", "--m", "3",
                         "--format", "csv")
        rc_json, out_json, _ = run(capsys, "central", "--builtin", "coshcos:2", "--alpha", "0.2",
                                   "--m", "3", "--format", "json")
        assert rc == rc_json == 0
        header, row = out.splitlines()
        doc = json.loads(out_json)
        assert dict(zip(header.split(","), map(float, row.split(",")))) == {
            key: doc[key] for key in ("value", "m", "bound", "data_norm")}

    def test_bound_covers_rounding(self, capsys):
        # at m = 12 the truncation tail (3.8e-17 per unit of the norm) is
        # below the error rounding leaves in most of these values, so only
        # the rounding term of the bound can cover them
        errors = []
        for c in ("1", "7", "3", "0.1", "-2.5", "1e3"):
            rc, out, _ = run(capsys, "central", "--builtin", f"const:{c}", "--alpha", "1", "--m", "12",
                             "--format", "json")
            assert rc == 0
            doc = json.loads(out)
            assert abs(doc["value"] - float(c)) <= doc["bound"]
            errors.append(abs(doc["value"] - float(c)) / doc["data_norm"])
        assert max(errors) > 1e-16

    @pytest.mark.parametrize("builtin", ["3x2y-y3", "x", "4x3y-4xy3"])
    @pytest.mark.parametrize("alpha", ["1", "0.5", "0.1"])
    def test_odd_data_has_exact_zero_value(self, capsys, builtin, alpha):
        # the boundary mean and the class-I coefficients of data odd in x or y are exact zeros
        rc, out, _ = run(capsys, "central", "--builtin", builtin, "--alpha", alpha, "--m", "3", "--format", "json")
        assert rc == 0
        assert json.loads(out)["value"] == 0.0

    def test_x2y2_within_published_coefficient(self, capsys):
        rc, out, _ = run(capsys, "central", "--builtin", "x2-y2", "--m", "3",
                         "--alpha", "1", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert abs(doc["value"]) <= 7.26e-5 * doc["data_norm"] * 1.01
        assert doc["m"] == 3

    def test_sampled_data_on_rectangle(self, capsys, tmp_path):
        alpha = 0.5
        rect = Rectangle(alpha)
        s = np.linspace(0.0, rect.perimeter, 400, endpoint=False)
        lines = ["arclength,value"]
        for si in s:
            p = rect.arclength_to_point(float(si))
            lines.append(f"{float(si)!r},{float(np.cosh(p.x) * np.cos(p.y))!r}")
        path = tmp_path / "bdry.csv"
        path.write_text("\n".join(lines) + "\n")

        rc, out, _ = run(capsys, "central", "--data", str(path), "--alpha", "0.5",
                         "--m", "4", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        reference = central_value(expand_for_central(builtin_boundary("coshcos:1"), alpha, 40))
        assert abs(doc["value"] - reference.value) <= doc["bound"]

    def test_sampled_grid_through_corners(self, capsys, tmp_path):
        # a 0.1 arc-length grid at alpha 0.9 has a sample at 5.6 == fl(4 alpha + 2),
        # on the corner (-1, -alpha); x^2 - y^2 vanishes at the center
        rect = Rectangle(0.9)
        lines = ["arclength,value"]
        for k in range(76):
            p = rect.arclength_to_point(k / 10)
            lines.append(f"{k / 10!r},{p.x**2 - p.y**2!r}")
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")

        rc, out, _ = run(capsys, "central", "--data", str(path), "--alpha", "0.9",
                         "--m", "6", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert abs(doc["value"]) <= doc["bound"]

    def test_data_from_a_pipe(self, capsys, tmp_path):
        # a pipe reads only once, as with `--data <(generate-samples)`
        rect = Rectangle(1.0)
        lines = ["# samples of x^2 - y^2", "arclength,value"]
        for k in range(80):
            p = rect.arclength_to_point(k / 10 + 0.05)
            lines.append(f"{k / 10 + 0.05!r},{p.x**2 - p.y**2!r}")
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        rc, want, _ = run(capsys, "central", "--data", str(path), "--alpha", "1", "--m", "3")
        assert rc == 0
        proc = run_child("central", "--data", "/dev/stdin", "--alpha", "1", "--m", "3",
                         stdin_text=path.read_text())
        assert (proc.returncode, proc.stdout) == (0, want)

    def test_small_alpha_bound_covers_the_whole_series(self, capsys):
        # at alpha = 0.003 the y-family terms shrink only by exp(-0.003 pi) each
        rc, out, _ = run(capsys, "central", "--builtin", "coshcos:2", "--alpha", "0.003", "--m", "1",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["bound"] >= doc["data_norm"] * rect_tail_series(1, 0.003)

    def test_lines_of_spaces_or_tabs_are_blank(self, capsys, tmp_path):
        rect = Rectangle(1.0)
        rows = []
        for k in range(80):
            p = rect.arclength_to_point(k / 10 + 0.05)
            rows.append(f"{k / 10 + 0.05!r},{p.x**2 - p.y**2!r}\n")
        clean, blank = tmp_path / "clean.csv", tmp_path / "blank.csv"
        clean.write_text("arclength,value\n" + "".join(rows))
        blank.write_text("arclength,value\n" + "".join(rows[:40]) + " \t \n" + "".join(rows[40:]) + "\t")
        outs = [run(capsys, "central", "--data", str(path), "--alpha", "1", "--m", "3") for path in (clean, blank)]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_requires_exactly_one_source(self, capsys):
        assert run(capsys, "central")[0] == 2
        assert run(capsys, "central", "--builtin", "x", "--data", "f.csv")[0] == 2

    def test_unknown_builtin(self, capsys):
        assert run(capsys, "central", "--builtin", "wavelet")[0] == 2

    def test_missing_file_is_data_error(self, capsys):
        assert run(capsys, "central", "--data", "/nonexistent/b.csv")[0] == 1

    @pytest.mark.parametrize("text", ["", "\n\n# a comment\n  # another\n\n"], ids=["empty", "blank-and-comments"])
    def test_file_without_header_is_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        rc, out, err = run(capsys, "central", "--data", str(path))
        assert (rc, out) == (1, "")
        assert err == f"error: {path}: empty boundary data file\n"

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arclength,value\n0.0,1.0\n0.0,2.0\n")
        assert run(capsys, "central", "--data", str(path))[0] == 1


class TestBadValues:
    """Out-of-range or non-finite flags exit 2, non-finite data exits 1; both with a message."""

    @staticmethod
    def assert_clean_error(rc, err, want_rc):
        assert rc == want_rc
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("central", "--builtin", "x2-y2", "--root-tol", "-1"),
        ("central", "--builtin", "x2-y2", "--root-tol", "nan"),
        ("spectrum", "--root-tol", "inf"),
        ("solve", "--mode", "dirichlet", "--builtin", "x", "--quad-order", "1"),
        ("solve", "--mode", "dirichlet", "--builtin", "x", "--quad-order", str(_MAX_ORDER + 1)),
        ("central", "--builtin", "const:nan"),
        ("central", "--builtin", "const:inf"),
        ("central", "--builtin", "coshcos:nan"),
        ("solve", "--mode", "neumann", "--builtin", "const:nan"),
        ("central", "--builtin", "coshcos"),
        ("central", "--builtin", "x2-y2", "--m", "-1"),
        ("solve", "--mode", "dirichlet", "--builtin", "x", "--m", "-1"),
        ("spectrum", "--jmax", "-1"),
        ("spectrum", "--classes", "V"),
    ])
    def test_usage_error(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        self.assert_clean_error(rc, err, want_rc=2)

    @pytest.mark.parametrize("argv", [
        ("tables", "--alpha", "0.5"),
        ("tables", "--quad-order", "8"),
        ("tables", "--root-tol", "1e-4"),
        ("spectrum", "--quad-order", "8"),
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize("classes", ["", ",", " , "])
    def test_empty_class_list_is_usage_error(self, capsys, classes):
        rc, out, err = run(capsys, "spectrum", "--classes", classes)
        self.assert_clean_error(rc, err, want_rc=2)
        assert "--classes" in err and out == ""

    @pytest.mark.parametrize("point", ["nan,0", "0,inf", "-inf,0"])
    def test_non_finite_eval_point_is_usage_error(self, capsys, point):
        # a finite point outside the rectangle is a numerical failure (exit 1), a non-finite one a bad flag
        rc, out, err = run(capsys, "solve", "--mode", "dirichlet", "--builtin", "x2-y2", "--m", "4",
                           f"--eval=0,0;{point}")
        self.assert_clean_error(rc, err, want_rc=2)
        assert out == "" and f"chunk {point!r}" in err and "outside" not in err

    def test_overflowing_data_is_data_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning that escapes raises here
            rc, _, err = run(capsys, "central", "--builtin", "coshcos:800")
        self.assert_clean_error(rc, err, want_rc=1)
        assert len(err.splitlines()) == 1
        assert "not finite" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--mode", "dirichlet", "--builtin", "coshcos:700", "--m", "4"),
        ("central", "--builtin", "sinhsin:710", "--m", "2"),
    ])
    def test_finite_data_whose_mean_square_overflows_is_data_error(self, capsys, argv):
        # every value is finite (|h| <= cosh 710 < 1.2e308); only the squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run(capsys, *argv)
        self.assert_clean_error(rc, err, want_rc=1)
        assert len(err.splitlines()) == 1
        assert "boundary data is finite, but its mean square overflows: mean = " in err
        assert "not finite" not in err

    def test_root_within_an_ulp_of_pole(self, capsys):
        # at alpha = 1e-16 the class III y root lies less than an ulp above the tangent pole
        # pi/2; the root tolerance lets the class III x roots near 7.9e15 solve
        rc, out, err = run(capsys, "spectrum", "--alpha", "1e-16", "--jmax", "1", "--root-tol", "10",
                           "--classes", "III", "--format", "json")
        assert rc == 0 and err == ""
        rows = {(r["class"], r["family"]): r for r in json.loads(out)["modes"]}
        assert rows["III", "y"]["nu"] == solve_nu(DeterminingEquation(SymmetryClass.III, Family.Y, 1e-16), 1)
        assert rows["III", "y"]["nu"] > math.pi / 2

    def test_root_inside_pole_guard_band(self, capsys):
        # at alpha = 1e-9 the class III/IV y roots lie 1.6e-9 from the tangent
        # pole pi/2, inside its guard band
        rc, out, err = run(capsys, "spectrum", "--alpha", "1e-9", "--jmax", "1", "--root-tol", "1e-3",
                           "--format", "json")
        assert rc == 0 and err == ""
        rows = {(r["class"], r["family"]): r for r in json.loads(out)["modes"]}
        assert abs(rows["III", "y"]["nu"] - math.pi / 2) <= 1e-3
        assert abs(rows["IV", "y"]["nu"] - math.pi / 2) <= 1e-3

    def test_tiny_alpha_stalled_bisection_is_clean_error(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--alpha", "1e-300", "--jmax", "1")
        self.assert_clean_error(rc, err, want_rc=1)
        nu = solve_nu(DeterminingEquation(SymmetryClass.I, Family.X, 1e-300), 1, tol=1e300)
        assert err == (f"error: class I, family x, alpha=1e-300 (tan(1e-300*nu) = -tanh(1.0*nu)): root j=1 at "
                       f"nu={nu!r} lies where doubles are {float(np.spacing(nu))!r} apart, wider than tol=1e-12; "
                       f"the smallest root tol (--root-tol) accepted is {float(np.spacing(nu))!r}\n")
        assert out == ""

    @pytest.mark.parametrize("argv", [("spectrum", "--alpha", "5e-324", "--jmax", "1"),
                                      ("spectrum", "--alpha", "1e-310", "--jmax", "1"),
                                      ("central", "--builtin", "coshcos:2", "--alpha", "1e-320")])
    def test_brackets_past_the_largest_double_are_clean_error(self, capsys, argv):
        # pi / (2 alpha) overflows at a subnormal alpha: the refusal says so and names no root tol,
        # since no tol the CLI accepts could meet it
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning that escapes raises here
            rc, out, err = run(capsys, *argv)
        self.assert_clean_error(rc, err, want_rc=1)
        alpha = argv[argv.index("--alpha") + 1]
        assert err == (f"error: class I, family x, alpha={float(alpha)!r} (tan({float(alpha)!r}*nu) = -tanh(1.0*nu)): "
                       "root j=1 overflows doubles at this alpha\n")
        assert "tol" not in err and "nan" not in err and out == ""

    @pytest.mark.parametrize("alpha,m", [("1e-306", "60"), ("1e-310", "3")])
    def test_tiny_alpha_solve_prints_no_warning(self, capsys, alpha, m):
        # the 60 modes at alpha = 1e-306 are of the y families; the class III x root j = 1
        # (nu = 7.9e305), which the selection solves and leaves out, refuses nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "solve", "--mode", "dirichlet", "--builtin", "x2-y2", "--alpha", alpha,
                               "--m", m, "--eval", "0,0")
        assert (rc, err) == (0, "") and f"M={m}" in out

    def test_root_near_the_largest_double_prints_no_warning(self, capsys):
        # the class I and IV x roots j = 1 are 1.18e308, past half the largest double: their
        # brackets' ends add up to inf, and so do 2 b nu in the solve and 2 u in the normalization
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "spectrum", "--alpha", "2e-308", "--jmax", "1", "--root-tol", "1e300")
        assert (rc, err) == (0, "")
        assert [ln.split()[:4] for ln in out.splitlines() if "1.17809725e+308" in ln] == [
            ["I", "x", "1", "1.17809725e+308"], ["IV", "x", "1", "1.17809725e+308"]]

    def test_normalization_of_tiny_sinh_factors(self, capsys):
        # the class II y mode at alpha = 1e-300 has sinh(alpha nu) = 3.1e-300, whose square underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "spectrum", "--alpha", "1e-300", "--jmax", "1", "--root-tol", "1e300",
                               "--classes", "II", "--format", "json")
        assert (rc, err) == (0, "")
        row = next(r for r in json.loads(out)["modes"] if r["family"] == "y")
        with mpmath.workdps(700):
            nu, a = mpmath.mpf(row["nu"]), mpmath.mpf("1e-300")
            # 2 * [sinh(a nu)^2 * int sin(nu x)^2 dx + sin(nu)^2 * int sinh(nu y)^2 dy] over the half-sides 1, a
            norm = 2 * (mpmath.sinh(a * nu) ** 2 * (1 - mpmath.sin(2 * nu) / (2 * nu))
                        + mpmath.sin(nu) ** 2 * (mpmath.sinh(2 * nu * a) / (2 * nu) - a))
            want = float(mpmath.sqrt(4 * (1 + a) / norm))
        assert abs(row["scale"] - want) <= 1e-12 * want

    def test_stalled_bisection_is_clean_error(self):
        # near nu = 2.4e7 doubles are 3.7e-9 apart, wider than the root tolerance 1e-9
        proc = run_child("spectrum", "--alpha", "1e-7", "--jmax", "1", "--root-tol", "1e-9")
        self.assert_clean_error(proc.returncode, proc.stderr, want_rc=1)
        assert "root j=1 at nu=23561944.90192" in proc.stderr
        assert "doubles are 3.725290298461914e-09 apart, wider than tol=1e-09" in proc.stderr
        assert proc.stderr.endswith("(--root-tol) accepted is 3.725290298461914e-09\n")

    def test_roots_beyond_quadrature_are_clean_error(self):
        # the class-I x roots near 2.4e9 would need 7.5e8 quadrature panels per edge
        proc = run_child("central", "--builtin", "x2-y2", "--alpha", "1e-9", "--m", "1", "--root-tol", "1e-3")
        self.assert_clean_error(proc.returncode, proc.stderr, want_rc=1)
        assert "quadrature panels" in proc.stderr

    def test_non_utf8_data_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"arclength,value\n0.5,1.0\n# caf\xe9\n1.5,\xff\n")
        rc, _, err = run(capsys, "central", "--data", str(path), "--alpha", "1", "--m", "3")
        self.assert_clean_error(rc, err, want_rc=1)
        assert "latin1.csv: not UTF-8" in err

    def test_nan_sample_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("arclength,value\n" + "".join(
            f"{s},{'nan' if s == 1.5 else 1.0}\n" for s in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5)))
        rc, _, err = run(capsys, "central", "--data", str(path))
        self.assert_clean_error(rc, err, want_rc=1)
        assert "finite" in err


class TestSolve:
    def test_robin_t1_equals_dirichlet(self, capsys):
        rc1, out1, _ = run(capsys, "solve", "--mode", "robin", "--t", "1",
                           "--builtin", "x2-y2", "--m", "8", "--format", "json")
        rc2, out2, _ = run(capsys, "solve", "--mode", "dirichlet",
                           "--builtin", "x2-y2", "--m", "8", "--format", "json")
        assert rc1 == rc2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert [t["coefficient"] for t in d1["expansion"]["terms"]] == [
            t["coefficient"] for t in d2["expansion"]["terms"]
        ]
        assert d1["expansion"]["mean_term"] == d2["expansion"]["mean_term"]

    def test_robin_constant_scales_by_t(self, capsys):
        rc, out, _ = run(capsys, "solve", "--mode", "robin", "--t", "0.5",
                         "--builtin", "const:3", "--m", "4", "--eval", "0,0",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["expansion"]["mean_term"] == pytest.approx(6.0, rel=1e-13)
        assert doc["values"][0]["value"] == pytest.approx(6.0, rel=1e-12)

    def test_robin_overflowing_mean_term(self, capsys):
        rc, out, err = run(capsys, "solve", "--mode", "robin", "--t", "1e-310", "--builtin", "const:1",
                           "--m", "3", "--eval", "0,0", "--format", "json")
        TestBadValues.assert_clean_error(rc, err, want_rc=1)
        assert "mean / t" in err and "1.000e-310" in err
        assert out == ""

    def test_neumann_incompatible(self, capsys):
        rc, _, err = run(capsys, "solve", "--mode", "neumann", "--builtin", "const:1")
        assert rc == 1
        assert "mean" in err

    def test_t_out_of_range(self, capsys):
        assert run(capsys, "solve", "--mode", "robin", "--t", "1.5", "--builtin", "x")[0] == 2
        assert run(capsys, "solve", "--mode", "robin", "--t", "0", "--builtin", "x")[0] == 2

    @pytest.mark.parametrize("mode", ["dirichlet", "neumann"])
    def test_t_without_robin_is_usage_error(self, capsys, mode):
        rc, out, err = run(capsys, "solve", "--mode", mode, "--t", "0.5", "--builtin", "x")
        TestBadValues.assert_clean_error(rc, err, want_rc=2)
        assert "--t" in err and out == ""

    def test_robin_t_defaults_to_one(self, capsys):
        argv = ("solve", "--mode", "robin", "--builtin", "coshcos:1.5", "--m", "6", "--eval", "0.2,0.3")
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv, "--t", "1")
        assert rc1 == rc2 == 0
        assert out1 == out2 and "t=1" in out1

    def test_eval_points(self, capsys):
        rc, out, _ = run(capsys, "solve", "--mode", "dirichlet", "--builtin", "x2-y2",
                         "--m", "40", "--eval", "0.5,0.25;0,0", "--format", "json")
        assert rc == 0
        vals = json.loads(out)["values"]
        assert vals[0]["value"] == pytest.approx(0.1875, abs=1e-4)
        assert vals[1]["value"] == pytest.approx(0.0, abs=1e-6)

    def test_eval_points_match_evaluate_interior(self, capsys):
        pts = [(0.5, 0.25), (0.0, -0.0), (0.5, 0.25), (-1.0, 0.3), (0.1, -0.7)]
        rc, out, _ = run(capsys, "solve", "--mode", "robin", "--t", "0.4", "--builtin", "sinsinh:1.3",
                         "--alpha", "0.8", "--m", "30", "--format", "json",
                         "--eval", ";".join(f"{x},{y}" for x, y in pts))
        assert rc == 0
        e = solve_robin(builtin_boundary("sinsinh:1.3"), 0.8, 0.4, 30)
        got = [(v["x"], v["y"], v["value"]) for v in json.loads(out)["values"]]
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        assert got == list(zip(xs, ys, evaluate_interior(e, xs, ys).tolist()))
        # a point alone takes the other contraction, so it agrees to the sum's rounding
        for (x, y), v in zip(pts, got):
            parts = [e.mean_term] + [t.coefficient * evaluate(t.mode, x, y) for t in e.terms]
            bound = len(parts) * sys.float_info.epsilon * sum(abs(p) for p in parts)
            assert abs(evaluate_interior(e, x, y) - v[2]) <= bound

    def test_empty_eval_chunk_is_skipped(self, capsys):
        rc, out, _ = run(capsys, "solve", "--mode", "dirichlet", "--builtin", "x2-y2", "--m", "8",
                         "--eval", "0,0;;0.1,0.1", "--format", "json")
        assert rc == 0
        assert [(v["x"], v["y"]) for v in json.loads(out)["values"]] == [(0.0, 0.0), (0.1, 0.1)]

    def test_eval_outside_domain(self, capsys):
        rc, _, err = run(capsys, "solve", "--mode", "dirichlet", "--builtin", "x",
                         "--eval", "2,0")
        assert rc == 1

    def test_bad_eval_syntax(self, capsys):
        assert run(capsys, "solve", "--mode", "dirichlet", "--builtin", "x",
                   "--eval", "1;2")[0] == 2

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "solve", "--mode", "dirichlet", "--builtin", "xy",
                         "--m", "3", "--eval", "0.1,0.1", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("record,class,family")
        kinds = {l.split(",")[0] for l in lines[1:]}
        assert kinds == {"mean", "term", "value"}


class TestTables:
    def test_default_run_passes(self, capsys):
        rc, out, _ = run(capsys, "tables")
        assert rc == 0
        assert "all within tolerance" in out

    def test_shifted_published_value_fails(self, capsys, monkeypatch):
        # roots are at full precision whatever --root-tol is, so a shifted published value
        # is what makes a row fail
        monkeypatch.setattr(bnd, "TABLE1_NU", (2.3650213,) + bnd.TABLE1_NU[1:])
        rc, out, err = run(capsys, "tables")
        assert rc == 1
        assert err.startswith("FAIL nu_1: computed ") and len(err.splitlines()) == 1
        assert out.endswith("37 rows, FAILURES PRESENT\n")

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "tables", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "name,computed,published,rel_dev"
        assert len(lines) == 38

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        rc, out, _ = run(capsys, "tables", "--format", "csv", "--out", str(path))
        assert rc == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "name,computed,published,rel_dev"

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "tables", "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 37 and all(r["ok"] for r in rows)


def csv_cell(v, none):
    return none if v is None else repr(v) if isinstance(v, float) else str(v)


def text_cell(v):
    return "-" if v is None else f"{v:.9g}" if isinstance(v, float) else str(v)


def mode_text(r, last, width):
    # a space opens each right-aligned column, so a cell that fills it stays apart
    return (f"{r['class']:<6}{text_cell(r['family']):<8}{text_cell(r['index']):<7}"
            f" {text_cell(r['nu']):>14} {text_cell(r['delta']):>14} {text_cell(r[last]):>{width - 1}}")


class TestLayouts:
    """The csv and text tables, line by line, rebuilt from the json of the same call: csv floats
    as repr, text floats with 9 significant digits, nulls as - (text, spectrum csv) or empty."""

    def outputs(self, capsys, *argv):
        got = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("json", "csv", "text")}
        assert len({(rc, err) for rc, _, err in got.values()}) == 1
        return json.loads(got["json"][1]), got["csv"][1], got["text"][1]

    @pytest.mark.parametrize("argv,title", [
        (("--alpha", "1"), "spectrum  alpha=1  jmax=6"),
        (("--alpha", "0.5", "--classes", "II,III", "--jmax", "4"), "spectrum  alpha=0.5  jmax=4"),
    ], ids=["square", "classes"])
    def test_spectrum(self, capsys, argv, title):
        doc, csv, text = self.outputs(capsys, "spectrum", *argv)
        rows = doc["modes"]
        if argv[1] == "1":
            assert {(r["class"], r["family"], r["index"]) for r in rows if r["family"] is None} == {
                ("I", None, None), ("II", None, None)}
        else:
            assert {r["class"] for r in rows} == {"II", "III"}
        want_csv = ["class,family,index,nu,delta,scale"] + [
            ",".join(csv_cell(r[k], "-") for k in ("class", "family", "index", "nu", "delta", "scale"))
            for r in rows]
        assert csv == "\n".join(want_csv) + "\n"
        want_text = [title, f"{'class':<6}{'family':<8}{'index':<7}{'nu':>15}{'delta':>15}{'scale':>15}"]
        want_text += [mode_text(r, "scale", 15) for r in rows]
        assert text == "\n".join(want_text) + "\n"

    @pytest.mark.parametrize("argv,title", [
        (("--mode", "dirichlet", "--builtin", "x2-y2", "--m", "12", "--eval", "0,0;0.25,0.1;-0.3,0.2"),
         "dirichlet solution  alpha=1  M=12"),
        (("--mode", "robin", "--t", "0.3", "--builtin", "coshcos:2", "--alpha", "0.5", "--m", "8"),
         "robin solution  alpha=0.5  M=8  t=0.3"),
        (("--mode", "dirichlet", "--builtin", "x2-y2", "--alpha", "1e-310", "--m", "3", "--eval", "0,0;0.25,0;-0.3,0"),
         "dirichlet solution  alpha=1e-310  M=3"),
    ], ids=["dirichlet-eval", "robin", "full-width"])
    def test_solve(self, capsys, argv, title):
        doc, csv, text = self.outputs(capsys, "solve", *argv)
        e, values = doc["expansion"], doc["values"]
        assert len(values) == (3 if "--eval" in argv else 0)
        if e["alpha"] == 1.0:
            assert any(r["family"] is None for r in e["terms"])  # the xy mode
        want_csv = ["record,class,family,index,nu,delta,coefficient,x,y,value",
                    f"mean,,,,,,{e['mean_term']!r},,,"]
        want_csv += [",".join(["term"] + [csv_cell(r[k], "") for k in ("class", "family", "index", "nu", "delta",
                                                                        "coefficient")] + ["", "", ""])
                     for r in e["terms"]]
        want_csv += [f"value,,,,,,,{v['x']!r},{v['y']!r},{v['value']!r}" for v in values]
        assert csv == "\n".join(want_csv) + "\n"
        want_text = [title, f"mean term = {e['mean_term']:.9g}",
                     f"{'class':<6}{'family':<8}{'index':<7}{'nu':>15}{'delta':>15}{'coefficient':>16}"]
        want_text += [mode_text(r, "coefficient", 16) for r in e["terms"]]
        want_text += [f"value at ({v['x']:.9g}, {v['y']:.9g}) = {v['value']:.9g}" for v in values]
        assert text == "\n".join(want_text) + "\n"

    def test_tables(self, capsys):
        assert run(capsys, "tables")[0] == 0
        rows, csv, text = self.outputs(capsys, "tables")
        assert all(r["ok"] for r in rows)
        want_csv = ["name,computed,published,rel_dev"]
        want_csv += [f"{r['name']},{r['computed']!r},{r['published']!r},{r['rel_dev']!r}" for r in rows]
        assert csv == "\n".join(want_csv) + "\n"
        want_text = [f"{'name':<22}{'computed':>16}{'published':>16}{'rel_dev':>12}  ok"]
        want_text += [f"{r['name']:<22}{r['computed']:>16.9g}{r['published']:>16.9g}{r['rel_dev']:>12.2e}  "
                      f"{'yes' if r['ok'] else 'NO'}" for r in rows]
        assert text == "\n".join(want_text + ["", "37 rows, all within tolerance"]) + "\n"


_NO_SCIPY = """
import sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]
import steklov_rect
assert not loaded(), loaded()
import steklov_rect.cli
assert not loaded(), loaded()
assert steklov_rect.cli.main(["central", "--data", sys.argv[1], "--alpha", "0.5", "--m", "3"]) == 0
assert not loaded(), loaded()
"""


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is a test-only dependency; importing it would cost most of a CLI call
    rect = Rectangle(0.5)
    s = (np.arange(200) + 0.5) * (rect.perimeter / 200)
    path = tmp_path / "samples.csv"
    rows = "".join(f"{a!r},{v!r}\n" for a, v in zip(s.tolist(), np.cos(s).tolist()))
    path.write_text("arclength,value\n" + rows)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_NUMPY_POLYNOMIAL = """
import sys
import steklov_rect.cli
assert steklov_rect.cli.main(["spectrum", "--alpha", sys.argv[1]]) == 0
assert "numpy.polynomial" not in sys.modules
"""


@pytest.mark.parametrize("alpha", ["1", "0.8"])
def test_spectrum_never_imports_numpy_polynomial(alpha):
    # class II x j = 1 at 0.7 <= alpha < 1 sums its own series; numpy.polynomial would cost a
    # few milliseconds of every such call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_POLYNOMIAL, alpha], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
