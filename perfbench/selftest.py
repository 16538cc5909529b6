"""Fast self-test of the benchmark (about 30 s).

Usage: python3 perfbench/selftest.py

1. The reference roots reproduce the published table 1 values.
2. Every workload runs one round with every output checked.
3. Every check rejects a perturbed answer: a shifted root or
   normalization, a central value moved past its allowance, a grid or
   point value off by its tolerance, a table entry off by its tolerance.
4. run.py prints exactly the metrics BENCHMARK.json names, traced and
   untraced, and exits nonzero without a result where there are no sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(check, out, what: str) -> None:
    try:
        check(out)
    except ref.CheckError:
        expect(True, f"rejects {what}")
    else:
        expect(False, f"rejects {what}")


def past_allowance(bound: float, norm: float) -> float:
    """A shift that takes any value within bound + allowance of the exact one beyond it."""
    return 2.02 * (bound + ref.CENTRAL_ALLOWANCE * norm)


def shift_first_root(e, rel=1e-9):
    t0 = e.terms[0]
    mode = dataclasses.replace(t0.mode, nu=t0.mode.nu * (1.0 + rel))
    return dataclasses.replace(e, terms=(dataclasses.replace(t0, mode=mode),) + e.terms[1:])


def test_reference() -> None:
    for j in range(1, 7):
        nu = ref.root("I", "x", 1.0, j)
        want, tol = ref.PUBLISHED[f"nu_{j}"]
        expect(abs(nu - want) <= tol * want, f"reference nu_{j} = {nu:.9f} matches the published table")
    rejects(lambda nu: ref.check_mode("I", "x", 3, 1.0, nu), ref.root("I", "x", 1.0, 3) * (1 + 1e-9),
            "a root shifted by 1e-9 relative")
    nu = ref.root("III", "y", 0.1, 2)
    s = ref.scale("III", "y", 0.1, nu)
    rejects(lambda v: ref.check_mode("III", "y", 2, 0.1, nu, scale_value=v), s * (1 + 1e-9),
            "a normalization off by 1e-9 relative")


def run_round(workload) -> list:
    outs = []
    for op in workload.round():
        try:
            out = op.run()
        except wl.OpFailed as exc:
            print(f"     {op.label}: failed as documented: {str(exc)[:80]}")
            continue
        op.check(out)
        outs.append((op, out))
    expect(True, f"{workload.name}: one round of {len(outs)} checked operations")
    return outs


def test_central_batch(workdir: Path) -> None:
    w = wl.CentralBatch(1, workdir, ROOT)
    op, (e, res) = run_round(w)[-1]
    moved = dataclasses.replace(res, value=res.value + past_allowance(res.bound, res.data_norm))
    rejects(op.check, (e, moved), "a central value moved past bound + allowance")
    rejects(op.check, (shift_first_root(e), res), "an expansion mode with a shifted root")
    rejects(op.check, (e, dataclasses.replace(res, data_norm=res.data_norm * 1.001)), "a wrong data norm")


def test_dirichlet_grid(workdir: Path) -> None:
    w = wl.DirichletGrid(1, workdir, ROOT)
    w.ALPHAS = (0.1,)
    for op, (e, values) in run_round(w):
        off = np.array(values, copy=True)
        off[37, 61] += 1.1 * w.TOL * max(1.0, float(np.max(np.abs(values))))
        rejects(op.check, (e, off), f"{op.label}: one grid value off by the tolerance")
    rejects(op.check, (shift_first_root(e), values), f"{op.label}: a shifted root")


def test_sampled_csv(workdir: Path) -> None:
    w = wl.SampledCsv(1, workdir, ROOT)
    w.inputs = w.inputs[-1:]
    (op, (central, e, values)), = run_round(w)
    alpha, h, _, pts = w.inputs[0]
    off = h.value(pts[:, 0], pts[:, 1])
    off[1] += 1.01 * w.TOL[alpha] * h.boundary_norm(alpha)
    rejects(op.check, (central, e, off), "an interior value off by the truncation tolerance")
    moved = dataclasses.replace(central, value=central.value + past_allowance(central.bound, central.data_norm))
    rejects(op.check, (moved, e, values), "a CSV central value moved past bound + allowance")


def test_cli_session(workdir: Path) -> None:
    w = wl.CliSession(1, workdir, ROOT)
    outs = run_round(w)
    expect(len(outs) == len(w.calls) - 1, "cli-session: only spectrum --alpha 0.001 fails")
    for op, stdout in outs:
        doc = json.loads(stdout)
        if op.label.startswith("spectrum"):
            row = next(r for r in doc["modes"] if r["family"] is not None)
            row["nu"] *= 1 + 1e-9
        elif op.label.startswith("central"):
            doc["value"] += past_allowance(doc["bound"], doc["data_norm"])
        elif op.label.startswith("solve"):
            doc["values"][0]["value"] *= 1 + 2e-10
            doc["values"][0]["value"] += 2e-10
        else:
            doc[0]["computed"] *= 1 + 1e-7
        rejects(op.check, json.dumps(doc), f"{op.label}: a perturbed answer")


def run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "central-batch", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def test_command() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_benchmark(ROOT, trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        names = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(proc.returncode == 0 and result["correct"] and got == names,
               f"run.py --trace {trace} prints every {key} metric with its unit")
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        proc = run_benchmark(Path(tmp), 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py fails without sources, printing no result")


def main() -> int:
    (HERE / "work").mkdir(exist_ok=True)
    test_reference()
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        for test in (test_central_batch, test_dirichlet_grid, test_sampled_csv, test_cli_session):
            test(Path(tmp))
    test_command()
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
