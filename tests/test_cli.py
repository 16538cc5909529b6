import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from steklov_rect import (
    Rectangle,
    builtin_boundary,
    central_value,
    evaluate_interior,
    expand_for_central,
    solve_robin,
)
from steklov_rect.cli import main

TABLE1_NU = (2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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


class TestCentral:
    def test_constant_data(self, capsys):
        rc, out, _ = run(capsys, "central", "--builtin", "const:7", "--m", "3",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(7.0, rel=1e-13)
        assert abs(doc["value"] - 7.0) <= doc["bound"]

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

    def test_requires_exactly_one_source(self, capsys):
        assert run(capsys, "central")[0] == 2
        assert run(capsys, "central", "--builtin", "x", "--data", "f.csv")[0] == 2

    def test_unknown_builtin(self, capsys):
        assert run(capsys, "central", "--builtin", "wavelet")[0] == 2

    def test_missing_file_is_data_error(self, capsys):
        assert run(capsys, "central", "--data", "/nonexistent/b.csv")[0] == 1

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
        ("central", "--builtin", "const:nan"),
        ("central", "--builtin", "const:inf"),
        ("central", "--builtin", "coshcos:nan"),
        ("solve", "--mode", "neumann", "--builtin", "const:nan"),
    ])
    def test_usage_error(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        self.assert_clean_error(rc, err, want_rc=2)

    def test_overflowing_data_is_data_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning that escapes raises here
            rc, _, err = run(capsys, "central", "--builtin", "coshcos:800")
        self.assert_clean_error(rc, err, want_rc=1)
        assert len(err.splitlines()) == 1
        assert "not finite" in err

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

    def test_neumann_incompatible(self, capsys):
        rc, _, err = run(capsys, "solve", "--mode", "neumann", "--builtin", "const:1")
        assert rc == 1
        assert "mean" in err

    def test_t_out_of_range(self, capsys):
        assert run(capsys, "solve", "--mode", "robin", "--t", "1.5", "--builtin", "x")[0] == 2
        assert run(capsys, "solve", "--mode", "robin", "--t", "0", "--builtin", "x")[0] == 2

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
        assert got == [(x, y, evaluate_interior(e, x, y)) for x, y in pts]

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

    def test_coarse_roots_fail(self, capsys):
        rc, _, err = run(capsys, "tables", "--root-tol", "1e-4")
        assert rc == 1
        assert "FAIL" in err

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
