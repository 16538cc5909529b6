"""Summarize one result set, or compare two, metric by metric.

Usage:
    python3 perfbench/compare.py A.jsonl            # spread of each metric in A
    python3 perfbench/compare.py A.jsonl B.jsonl    # B (change) against A (parent)

A result set is the JSON lines that run.py --out (or sweep.py) appends; only
untraced runs are read, in seed order. For one set, each end-to-end metric's spread is the
distance between its first and third quartiles as a share of its median,
held against the metric's bound. For two sets, the k-th
runs of each side form a pair and each metric gets a verdict:

  improved    B wins at least 9 of 10 pairs (ties count for neither), there
              are at least 10 pairs, and the medians differ in B's favour by
              more than A's own interquartile distance;
  worse       B's median is worse than A's by more than the bound;
  unresolved  neither, and the spread of A or B is wider than the bound,
              unless every run of B is better than every run of A;
  unchanged   otherwise.

The exit code is 1 when a spread exceeds its bound (one set), or when a
verdict is worse or the failed shares differ (two sets); otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} of the untraced runs in a result set."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out[rec["workload"]][rec["seed"]] = rec["result"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def verdict(a: list[float], b: list[float], bound: float, lower_better: bool) -> tuple[str, float]:
    """Verdict for change B against parent A, and the share of pairs B won."""
    sign = 1.0 if lower_better else -1.0
    better = lambda new, old: sign * (new - old) < 0
    wins = sum(better(y, x) for x, y in zip(a, b))
    share = wins / len(a)
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    gain = sign * (ma - mb)
    if len(a) >= 10 and share >= 0.9 and gain > qa3 - qa1:
        return "improved", share
    if -gain / ma > bound:
        return "worse", share
    if max(spread(a), spread(b)) > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved", share
    return "unchanged", share


def failed_shares(results: dict[int, dict]) -> set:
    return {Fraction(r["failed"], r["attempted"]) for r in results.values()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load(p) for p in argv]
    status = 0
    for wl in sorted(set.intersection(*(set(s) for s in sets))):
        n = min(len(s[wl]) for s in sets)
        runs = [[s[wl][k] for k in sorted(s[wl])[:n]] for s in sets]
        shares = [failed_shares(s[wl]) for s in sets]
        correct = all(r["correct"] for side in runs for r in side)
        print(f"\n{wl}: {n} runs a side, correct={correct}, "
              + ", ".join("failed share " + "/".join(sorted(map(str, sh))) for sh in shares))
        if not correct or any(len(sh) != 1 for sh in shares) or (len(sets) == 2 and shares[0] != shares[1]):
            status = 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in side] for side in runs]
            cols = []
            for v in vals:
                q1, med, q3 = quartiles(v)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(v):.3f}")
            line = f"  {name:<12} bound {bound:<5} " + " | ".join(cols)
            if len(sets) == 1:
                ok = spread(vals[0]) <= bound
                status |= 0 if ok else 1
                line += "  ok" if ok else "  SPREAD > BOUND"
            else:
                v, share = verdict(vals[0], vals[1], bound, m["better"] == "lower")
                status |= v == "worse"
                change = statistics.median(vals[1]) / statistics.median(vals[0]) - 1.0
                line += f"  change {100 * change:+.1f}%  B won {share:.0%}  -> {v}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
