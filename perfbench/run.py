"""Run one benchmark workload and print its result as the last line of stdout.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout (the program is imported from src/).
With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
workload runs half its time untraced and half traced, and the result holds
the per-layer metrics and the tracing overhead.

Times (setup_s, op_s, op_p90_s, trace.overhead_pct) are reported at the
reference machine speed: a fixed calibration kernel is timed between
operations, and each operation's time is scaled by the kernel's reference
time over its time around that operation. Shared hosts drift by up to 2x
over minutes; the kernel drifts with them, so the scaled time follows the
program, not the host. setup_s is scaled the same way, by a calibration
run in each import child right after its import. --out appends the result,
with its workload, seed and the untraced operation times, as one JSON line
to FILE (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
IMPORT_PROBES = 3

# Typical calibration() time on the machine the reference figures in
# README.md were measured on; operation times are reported at this speed.
CALIBRATION_REF_S = 5.0e-3
CALIBRATION_EVERY_S = 0.2


def calibration() -> float:
    """Median wall time of three passes of a fixed kernel of numpy and plain-Python work.

    The kernel does not use the program, so its time only follows the speed
    of the machine, which drifts on shared hosts by up to 2x over minutes.
    """
    import numpy as np

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = np.linspace(-1.0, 1.0, 3200)
        total = 0.0
        for k in range(40):
            total += float(np.dot(np.cosh(0.01 * k * x), np.cos(k * x)))
        for i in range(20000):
            total += i * i % 7
        table = {i: math.sqrt(i) for i in range(3000)}
        total += len(table)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)




def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("STEKLOV_THREADS", None)
    return env


def measure_setup() -> float:
    """Time for a fresh interpreter to import steklov_rect, at the reference speed.

    Each child times its import and then one calibration(), whose time
    scales the import to the reference speed; the median over the children
    is returned. One untimed import first compiles the bytecode cache, which
    a user pays only once per installation.
    """
    code = ("import time; t = time.perf_counter(); import steklov_rect; d = time.perf_counter() - t; "
            f"import sys; sys.path.insert(0, {str(HERE)!r}); from run import calibration; "
            "print(d, calibration())")
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True)
        if i:
            seconds, cal = map(float, proc.stdout.split())
            times.append(seconds * CALIBRATION_REF_S / cal)
    return statistics.median(times)


def measure_imports() -> tuple[float, float]:
    """Median import time of steklov_rect.cli and the scipy share of it (-X importtime)."""
    code = ("import time; t = time.perf_counter(); import steklov_rect.cli; "
            "print(time.perf_counter() - t)")
    total, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, check=True)
        total.append(float(proc.stdout.strip().splitlines()[-1]))
        us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
                name = fields[2].strip()
                if name == "scipy" or name.startswith("scipy."):
                    us += int(fields[0])
        scipy.append(us * 1e-6)
    return statistics.median(total), statistics.median(scipy)


class Tally:
    def __init__(self):
        self.times: list[float] = []
        self.labels: list[str] = []
        self.calibration: list[float] = []
        self.next_calibration: list[int] = []  # per operation, the calibration pass after it
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0

    def scaled_times(self) -> list[float]:
        """Operation times at the reference speed.

        Each operation is divided by the speed around it: the median of the
        calibration pass that followed it and its two neighbours, over
        CALIBRATION_REF_S.
        """
        cal = self.calibration
        return [t * CALIBRATION_REF_S / statistics.median(cal[max(0, i - 1):i + 2])
                for t, i in zip(self.times, self.next_calibration)]


def run_rounds(workload, seconds: float, tally: Tally) -> None:
    """Whole rounds, one operation at a time, until the next round would overrun.

    A calibration pass follows an operation whenever CALIBRATION_EVERY_S has
    passed since the last one, outside the operations' timing.
    """
    from workloads import CheckError

    start = last_cal = time.perf_counter()
    tally.calibration.append(calibration())
    while True:
        t_round = time.perf_counter()
        for op in workload.round():
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the program failed this operation
                tally.failed += 1
                print(f"failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            t1 = time.perf_counter()
            tally.times.append(t1 - t0)
            tally.labels.append(op.label)
            tally.next_calibration.append(len(tally.calibration))
            if t1 - last_cal > CALIBRATION_EVERY_S:
                tally.calibration.append(calibration())
                last_cal = time.perf_counter()
            try:
                op.check(out)
            except CheckError as exc:
                tally.check_failures += 1
                print(f"WRONG: {op.label}: {exc}", file=sys.stderr)
        now = time.perf_counter()
        if now + (now - t_round) > start + seconds:
            tally.calibration.append(calibration())
            return


def p90(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "steklov_rect" / "__init__.py").is_file():
        print(f"error: no steklov_rect sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("STEKLOV_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        plain = Tally()
        if not args.trace:
            run_rounds(workload, args.seconds, plain)
            tallies = [plain]
            # Read before measure_setup starts its import children, so that on
            # cli-session only the workload's CLI calls count.
            rss_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
            ).ru_maxrss
            setup_s = measure_setup()
            scaled = plain.scaled_times()
            raw = {"op_s": statistics.median(plain.times), "op_p90_s": p90(plain.times),
                   "calibration_s": statistics.median(plain.calibration)}
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (statistics.median(scaled), "s"),
                "op_p90_s": (p90(scaled), "s"),
                "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            }
        else:
            import_s, scipy_s = measure_imports()
            run_rounds(workload, args.seconds / 2, plain)
            traced = Tally()
            tracer = Tracer()
            if args.workload == "cli-session":
                workload.traced, workload.on_dump = True, tracer.merge
                run_rounds(workload, args.seconds / 2, traced)
            else:
                tracer.install()
                try:
                    run_rounds(workload, args.seconds / 2, traced)
                finally:
                    tracer.uninstall()
            tallies = [plain, traced]
            metrics = {"cli.import_s": (import_s, "s"), "cli.import_scipy_s": (scipy_s, "s")}
            metrics.update(tracer.per_layer(max(1, traced.attempted)))
            overhead = statistics.median(traced.scaled_times()) / statistics.median(plain.scaled_times()) - 1.0
            raw = {"calibration_s": statistics.median(plain.calibration + traced.calibration)}
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": all(t.check_failures == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "result": result, "raw": raw, "ops": list(zip(plain.labels, plain.times))})
                     + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
