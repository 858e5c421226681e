#!/usr/bin/env python3
"""Compare a parent checkout and a changed checkout on the benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Both sides run this directory's run.py, so the benchmark code is identical;
only the package under ./src of each checkout differs.  Every workload runs
in 10 pairs; pair i uses seed i on both sides, the seeds expected.json holds
answers for.  The parent runs first in even pairs and the change runs first
in odd ones.  Workloads, run length and bounds come from the BENCHMARK.json
next to this directory.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict:
  better      the change wins at least 9 of 10 pairs and the medians differ by
              more than the parent's interquartile range
  unresolved  not better, the parent's own spread (interquartile range over
              median) is wider than the metric's bound, and not every change
              run beats every parent run
  worse       the change's median is worse than the parent's by more than the bound
  within      none of these: no worse than the bound allows
A change that fails more operations than the parent on a workload gets no
`better` verdict there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better=True, fails_more=False):
    """Verdict and share of pairs won, by the rule in the module docstring."""
    # As costs, lower is better on both sides.
    sign = 1.0 if lower_is_better else -1.0
    parent = [sign * x for x in parent]
    change = [sign * x for x in change]
    share = sum(c < p for p, c in zip(parent, change)) / len(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    if share >= 0.9 and p_med - c_med > iqr and not fails_more:
        return "better", share
    if iqr > bound * abs(p_med) and max(change) >= min(parent):
        return "unresolved", share
    if c_med - p_med > bound * abs(p_med):
        return "worse", share
    return "within", share


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for seed in range(PAIRS):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed} ({order[0]} first): " + "  ".join(
                f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
                f"->{runs['change'][-1]['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        print(f"\n{workload}: failed operations parent {failed['parent']}, "
              f"change {failed['change']}")
        fails_more = failed["change"] > failed["parent"]
        if fails_more:
            print("  the change fails more operations: no gain can be claimed")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
              f" {'won':>5}  verdict (bound)")
        for m in metrics:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            v, share = verdict(p, c, m["bound"], m["better"] == "lower", fails_more)
            (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
            print(f"  {m['name']:<12} {p2:9.4g} [{p1:.4g}, {p3:.4g}]".ljust(44)
                  + f"{c2:9.4g} [{c1:.4g}, {c3:.4g}]".ljust(31)
                  + f"{share:5.0%}  {v} ({m['bound']:.0%}, {m['unit']})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
