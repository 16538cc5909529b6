"""Run workloads over several seeds and append the results to one result set.

Usage:
    python3 perfbench/sweep.py --out perfbench/results/NAME.jsonl
        [--seeds 1-10] [--workloads cli-session,central-batch,...]

Run lengths come from BENCHMARK.json. Each run is a separate untraced run.py
process, exactly as the benchmark command runs it; compare.py reads the result
set. Per-layer figures come from single `run.py --trace 1` runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
                   "--out", args.out]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()[-300:]]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}", file=sys.stderr)
            status |= proc.returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
