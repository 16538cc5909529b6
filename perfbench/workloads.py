"""The benchmark's workloads: seeded inputs, one operation at a time, checked outputs.

Each workload builds its inputs from the seed and hands out rounds of
operations. A round always holds the same operations in the same order, so a
run of whole rounds attempts every operation the same number of times. An
operation's run() is the timed call into the program; check() compares its
output with the independent computations in reference.py.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import steklov_rect as sr

import reference as ref
from reference import CheckError, Harmonic, require


class OpFailed(Exception):
    """The program reported a failure (exception or nonzero exit)."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


_CLASS = {sr.SymmetryClass.I: "I", sr.SymmetryClass.II: "II", sr.SymmetryClass.III: "III", sr.SymmetryClass.IV: "IV"}
_FAMILY = {sr.Family.X: "x", sr.Family.Y: "y"}


def library_data(h: Harmonic) -> sr.BoundaryFunction:
    return sr.LinearCombination([(w, sr.builtin_boundary(name)) for w, name in h.builtin_names()])


def check_terms(e: sr.SteklovExpansion, count: int) -> None:
    """Every mode of an in-process expansion against the reference, in eigenvalue order."""
    require(len(e.terms) == count, f"expansion holds {len(e.terms)} terms, expected {count}")
    last = -1.0
    for term in e.terms:
        m = term.mode
        if m.kind == sr.ModeKind.XY:
            require(e.alpha == 1.0 and m.delta == 1.0, "xy mode off the square or with delta != 1")
        else:
            ref.check_mode(_CLASS[m.symmetry_class], _FAMILY[m.family], m.index, e.alpha,
                           m.nu, m.delta, m.scale)
        require(m.delta >= last, "expansion terms out of eigenvalue order")
        last = m.delta
        require(math.isfinite(term.coefficient), "non-finite coefficient")


def check_central(value: float, bound: float, data_norm: float, h: Harmonic, alpha: float) -> None:
    norm = h.boundary_norm(alpha)
    require(abs(data_norm - norm) <= 1e-10 * norm, f"data norm {data_norm!r} vs reference {norm!r}")
    exact = float(h.value(0.0, 0.0))
    allowance = ref.CENTRAL_ALLOWANCE * norm
    require(abs(value - exact) <= bound + allowance,
            f"central value {value!r} vs exact {exact!r}: error {abs(value - exact):.3e} > "
            f"bound {bound:.3e} + allowance {allowance:.3e}")


def random_mix(rng, polys, waves, nu_range) -> Harmonic:
    terms = [(float(rng.normal()), name, None) for name in polys]
    terms += [(float(rng.normal()), name, float(rng.uniform(*nu_range))) for name in waves]
    return Harmonic(terms)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(self.name)])
        self.workdir = workdir
        self.root = root

    def round(self) -> list[Op]:
        raise NotImplementedError


class CentralBatch(Workload):
    """Certified central values of random harmonic mixes: 4 alphas x m = 3..12."""

    name = "central-batch"
    ALPHAS = (1.0, 0.5, 0.2, 0.1)
    MS = tuple(range(3, 13))

    def round(self) -> list[Op]:
        ops = []
        for alpha in self.ALPHAS:
            for m in self.MS:
                polys = [str(p) for p in self.rng.choice(ref.CUBIC_BASIS[1:], size=2, replace=False)]
                h = random_mix(self.rng, ["const:1", *polys], ["coshcos", "coscosh"], (0.5, 3.0))
                ops.append(self._op(h, alpha, m))
        return ops

    @staticmethod
    def _op(h: Harmonic, alpha: float, m: int) -> Op:
        data = library_data(h)

        def run():
            e = sr.expand_for_central(data, alpha, m)
            return e, sr.central_value(e)

        def check(out):
            e, res = out
            require(res.m == m, f"central value used m={res.m}, expected {m}")
            check_terms(e, 2 * m)
            check_central(res.value, res.bound, res.data_norm, h, alpha)

        return Op(f"central alpha={alpha} m={m}", run, check)


class DirichletGrid(Workload):
    """M = 400 Dirichlet, Robin and Neumann solves, each evaluated on a 100x100 grid.

    Dirichlet data is a random mix of polynomials and waves, so the grid sees
    the truncation error. Robin and Neumann data come from u = c + a random
    mix of Steklov eigenfunctions, whose normal derivative is delta times
    their trace; the data is then again a mix of builtins with reweighted
    coefficients, and the solution is u itself.
    """

    name = "dirichlet-grid"
    ALPHAS = (1.0, 0.5, 0.1)
    M = 400
    GRID = 100
    # Truncation at M = 400 on the inner half of the rectangle, relative to
    # max(1, max |u| on the grid). Observed at most ~1e-10 (alpha = 0.1).
    TOL = 1e-8

    def round(self) -> list[Op]:
        ops = []
        for alpha in self.ALPHAS:
            waves = [str(w) for w in self.rng.choice(list(ref.WAVES), size=2, replace=False)]
            u = random_mix(self.rng, ["const:1", "x2-y2", "x3-3xy2"], waves, (1.0, 3.0))
            ops.append(self._op(alpha, "dirichlet", u, u, 1.0))
            t = float(self.rng.uniform(0.1, 0.9))
            ops.append(self._op(alpha, "robin", *self._eigen_data(alpha, t), t))
            ops.append(self._op(alpha, "neumann", *self._eigen_data(alpha, 0.0), 0.0))
        return ops

    def _eigen_data(self, alpha: float, t: float) -> tuple[Harmonic, Harmonic]:
        """(data, solution) for (1-t) * normal derivative + t * trace = data.

        The waves are coshcos at j = 1 and coscosh, sinsinh at j in 1..3, so
        the data's highest frequency, which sets the quadrature panels,
        hardly depends on the seed. Eigenfunctions have boundary mean 0, so
        without the constant u is also the mean-zero Neumann solution.
        """
        c = float(self.rng.normal()) if t else 0.0
        u_terms, data_terms = [(c, "const:1", None)], [(t * c, "const:1", None)]
        for name, j in (("coshcos", 1), ("coscosh", self.rng.integers(1, 4)), ("sinsinh", self.rng.integers(1, 4))):
            cls, fam = ref.WAVE_MODES[name]
            nu = ref.root(cls, fam, alpha, int(j))
            # unit size on the boundary
            w = float(self.rng.normal()) / math.cosh(nu * (1.0 if fam == "x" else alpha))
            u_terms.append((w, name, nu))
            data_terms.append((w * ((1.0 - t) * ref.eigenvalue(cls, fam, alpha, nu) + t), name, nu))
        drop_const = slice(0 if t else 1, None)
        return Harmonic(data_terms[drop_const]), Harmonic(u_terms[drop_const])

    def _op(self, alpha: float, kind: str, data_h: Harmonic, expected: Harmonic, t: float) -> Op:
        xs = np.linspace(-0.5, 0.5, self.GRID)
        ys = np.linspace(-0.5 * alpha, 0.5 * alpha, self.GRID)
        X, Y = np.meshgrid(xs, ys)
        M = self.M
        data = library_data(data_h)
        if kind == "dirichlet":
            solve = lambda: sr.expand_dirichlet(data, alpha, M)
        elif kind == "robin":
            solve = lambda: sr.solve_robin(data, alpha, t, M)
        else:
            solve = lambda: sr.solve_neumann(data, alpha, M)

        def run():
            e = solve()
            return e, sr.evaluate_interior(e, X, Y)

        def check(out):
            e, values = out
            check_terms(e, M)
            check_grid(values, expected.value(X, Y), self.TOL)

        return Op(f"{kind} alpha={alpha}", run, check)


def check_grid(values, exact, tol: float) -> None:
    values = np.asarray(values)
    require(values.shape == exact.shape, f"grid shape {values.shape} != {exact.shape}")
    err = float(np.max(np.abs(values - exact)))
    limit = tol * max(1.0, float(np.max(np.abs(exact))))
    require(err <= limit, f"grid error {err:.3e} > {limit:.3e}")


class SampledCsv(Workload):
    """Load a 100k-sample CSV, certify its central value, evaluate an M = 50 expansion."""

    name = "sampled-csv"
    ALPHAS = (1.0, 0.5, 0.1)
    SAMPLES = 100_000
    CENTRAL_M = 6
    M = 50
    # Truncation of the M = 50 series at the evaluation points, relative to
    # the data norm: 15 to 40x the largest error seen on 25 random cubics
    # per alpha (6.6e-4 of the norm at alpha = 0.1).
    TOL = {1.0: 5e-6, 0.5: 5e-5, 0.1: 1e-2}

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.inputs = []
        for alpha in self.ALPHAS:
            h = ref.random_cubic(self.rng)
            path = workdir / f"samples-{alpha}.csv"
            ref.write_samples_csv(path, h, alpha, self.SAMPLES, self.rng)
            pts = [(0.0, 0.0)] + [(float(self.rng.uniform(-0.5, 0.5)), float(self.rng.uniform(-0.4, 0.4) * alpha))
                                  for _ in range(3)]
            self.inputs.append((alpha, h, path, np.array(pts)))

    def round(self) -> list[Op]:
        return [self._op(*inp) for inp in self.inputs]

    def _op(self, alpha: float, h: Harmonic, path: Path, pts) -> Op:
        def run():
            data = sr.boundary.load_boundary_csv(path, alpha)
            central = sr.central_value(sr.expand_for_central(data, alpha, self.CENTRAL_M))
            e = sr.expand_dirichlet(data, alpha, self.M)
            return central, e, sr.evaluate_interior(e, pts[:, 0], pts[:, 1])

        def check(out):
            central, e, values = out
            check_central(central.value, central.bound, central.data_norm, h, alpha)
            check_terms(e, self.M)
            exact = h.value(pts[:, 0], pts[:, 1])
            err = float(np.max(np.abs(np.asarray(values) - exact)))
            limit = self.TOL[alpha] * h.boundary_norm(alpha)
            require(err <= limit, f"M={self.M} values off by {err:.3e} > {limit:.3e}")

        return Op(f"csv alpha={alpha}", run, check)


class CliSession(Workload):
    """A fixed mix of steklov-rect subprocess calls, the way a user runs them."""

    name = "cli-session"
    SPECTRUM_ALPHAS = (1.0, 0.5, 0.1)
    CSV_SAMPLES = 2000
    ROBIN_M = 24
    # spectrum --alpha 0.001 --jmax 3 fails today (absolute root tolerance)
    TINY_ALPHA = 0.001

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.traced = False
        self.on_dump: Callable[[dict], None] | None = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("STEKLOV_THREADS", None)
        rng = self.rng
        self.calls: list[tuple[list[str], Callable[[str], None]]] = []
        for alpha in self.SPECTRUM_ALPHAS:
            self.calls.append(self._spectrum(alpha, 6))

        alpha = float(rng.choice([1.0, 0.5, 0.2]))
        m = int(rng.integers(3, 13))
        kind = str(rng.choice(["x2-y2", "const", "coshcos", "coscosh"]))
        if kind == "const":
            c = float(rng.normal())
            h, builtin = Harmonic([(c, "const:1", None)]), f"const:{c!r}"
        elif kind == "x2-y2":
            h, builtin = Harmonic([(1.0, "x2-y2", None)]), "x2-y2"
        else:
            nu = float(rng.uniform(0.5, 3.0))
            h = Harmonic([(1.0, kind, nu)])
            builtin = h.builtin_names()[0][1]
        self.calls.append(self._central(["--builtin", builtin], h, alpha, m))

        alpha = float(rng.choice([1.0, 0.5, 0.2]))
        m = int(rng.integers(3, 13))
        h = ref.random_cubic(rng)
        path = workdir / "session.csv"
        ref.write_samples_csv(path, h, alpha, self.CSV_SAMPLES, rng)
        self.calls.append(self._central(["--data", str(path.relative_to(root))], h, alpha, m))

        self.calls.append(self._robin(rng))
        self.calls.append((["tables", "--format", "json"], self._check_tables))
        self.calls.append(self._spectrum(self.TINY_ALPHA, 3))

    # -- calls -------------------------------------------------------------

    def _spectrum(self, alpha: float, jmax: int):
        args = ["spectrum", "--alpha", repr(alpha), "--jmax", str(jmax), "--format", "json"]

        def check(stdout: str):
            rows = json.loads(stdout)["modes"]
            want = 1 + (1 if alpha == 1.0 else 0) + 8 * jmax
            require(len(rows) == want, f"spectrum lists {len(rows)} modes, expected {want}")
            last = -1.0
            for r in rows:
                if r["family"] is None:
                    if r["class"] == "I":
                        require((r["nu"], r["delta"], r["scale"]) == (0.0, 0.0, 1.0), "constant mode row")
                    else:
                        require(alpha == 1.0 and r["delta"] == 1.0
                                and abs(r["scale"] - math.sqrt(3.0)) <= 1e-15, "xy mode row")
                else:
                    ref.check_mode(r["class"], r["family"], r["index"], alpha, r["nu"], r["delta"], r["scale"])
                require(r["delta"] >= last, "spectrum out of eigenvalue order")
                last = r["delta"]

        return args, check

    def _central(self, data_args: list[str], h: Harmonic, alpha: float, m: int):
        args = ["central", *data_args, "--alpha", repr(alpha), "--m", str(m), "--format", "json"]

        def check(stdout: str):
            doc = json.loads(stdout)
            require(doc["m"] == m, f"central used m={doc['m']}, expected {m}")
            check_central(doc["value"], doc["bound"], doc["data_norm"], h, alpha)

        return args, check

    def _robin(self, rng):
        """Robin data that is one Steklov eigenfunction, so the solution is exact."""
        alpha = float(rng.choice([1.0, 0.5]))
        t = float(rng.uniform(0.2, 0.8))
        builtins = {("I", "x"): "coshcos", ("I", "y"): "coscosh", ("II", "x"): "sinhsin", ("II", "y"): "sinsinh"}
        order = [(c, f, j) for _, c, f, j in ref.spectrum_order(alpha, 12)]
        pick = [key for key in order[: self.ROBIN_M // 2] if (key[0], key[1]) in builtins and key[2] <= 2]
        cls, fam, j = pick[int(rng.integers(len(pick)))]
        nu = ref.root(cls, fam, alpha, j)
        delta = ref.eigenvalue(cls, fam, alpha, nu)
        eta = Harmonic([(1.0, builtins[(cls, fam)], nu)])
        pts = [(float(rng.uniform(-0.6, 0.6)), float(rng.uniform(-0.6, 0.6) * alpha)) for _ in range(3)]
        args = ["solve", "--mode", "robin", "--t", repr(t), "--builtin", eta.builtin_names()[0][1],
                "--alpha", repr(alpha), "--m", str(self.ROBIN_M),
                "--eval=" + ";".join(f"{x!r},{y!r}" for x, y in pts), "--format", "json"]
        weight = (1.0 - t) * delta + t

        def check(stdout: str):
            doc = json.loads(stdout)
            terms = doc["expansion"]["terms"]
            require(len(terms) == self.ROBIN_M, f"robin expansion holds {len(terms)} terms")
            for r in terms:
                if r["family"] is not None:
                    ref.check_mode(r["class"], r["family"], r["index"], alpha, r["nu"], r["delta"])
            values = doc["values"]
            require(len(values) == len(pts), "robin solve returned the wrong number of values")
            for (x, y), v in zip(pts, values):
                exact = float(eta.value(x, y)) / weight
                require(abs(v["value"] - exact) <= 1e-10 * (1.0 + abs(exact)),
                        f"robin value at ({x}, {y}): {v['value']!r} vs exact {exact!r}")

        return args, check

    @staticmethod
    def _check_tables(stdout: str) -> None:
        rows = {r["name"]: r for r in json.loads(stdout)}
        require(set(rows) == set(ref.PUBLISHED), "tables report a different set of rows")
        for name, (published, tol) in ref.PUBLISHED.items():
            got = rows[name]["computed"]
            require(abs(got - published) <= tol * abs(published),
                    f"table {name}: {got!r} vs published {published!r}")
        for j in range(1, 7):
            ref.check_mode("I", "x", j, 1.0, rows[f"nu_{j}"]["computed"])

    # -- ops -----------------------------------------------------------------

    def round(self) -> list[Op]:
        return [self._op(args, check) for args, check in self.calls]

    def _op(self, args: list[str], check: Callable[[str], None]) -> Op:
        dump = self.workdir / "trace-dump.json"

        def run():
            if self.traced:
                cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(dump), *args]
            else:
                cmd = [sys.executable, "-m", "steklov_rect.cli", *args]
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
                                  timeout=120)
            if self.traced and dump.exists():
                self.on_dump(json.loads(dump.read_text()))
                dump.unlink()
            if proc.returncode != 0:
                raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout

        return Op(" ".join(args[:3]), run, check)


WORKLOADS = {cls.name: cls for cls in (CliSession, CentralBatch, DirichletGrid, SampledCsv)}
