#!/usr/bin/env python3
"""Write perfbench/expected.json from the package in ./src.

    python3 perfbench/make_expected.py

Run once, from the root of a checkout, at the commit whose answers become
the reference.  The file holds:
  * the order-3 search count, class count and a sample of its tables (the
    pool small-carriers draws order-3 inputs from);
  * the order-2 anchors: 25 tables, 17 classes, the 256-table census;
  * for seeds 0-9 of every workload, four hex digits of each operation's
    answer, in operation order.
Every answer is first checked against the oracle and the cross-checks;
nothing is written if any of them disagrees.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEEDS = range(10)
POOL_STRIDE = 27


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import dybmaps

    search3 = dybmaps.search_ternary_M1M2(
        3, "backtracking", limit=workloads.SEARCH_LIMIT, up_to_iso=True)
    search2 = dybmaps.search_ternary_M1M2(2, "exhaustive", up_to_iso=True)
    census2 = dybmaps.census_theorem31(2)
    reference = {
        "about": "Answers of the package at the commit named below; see make_expected.py.",
        "git_commit": run.git_commit(root),
        "enumerate": {
            "order3": {"limit": workloads.SEARCH_LIMIT, "total": search3.total,
                       "complete": search3.complete, "up_to_iso": search3.up_to_iso},
            "order2": {"total": search2.total, "up_to_iso": search2.up_to_iso},
            "census2": {"total": census2.total, "num_m1m2": census2.num_m1m2,
                        "agree": census2.agree},
        },
        "order3_pool": ["".join(map(str, t.table))
                        for t in search3.tables[::POOL_STRIDE]],
        "answers": {},
    }
    work = root / ".perfbench" / "work-reference"
    try:
        for name, wl in workloads.WORKLOADS.items():
            per_seed = {}
            for seed in REFERENCE_SEEDS:
                state = wl.setup(dybmaps, seed, work, reference)
                ops = wl.ops(state)
                answers, raws, _, _ = run.run_round(wl, ops)
                problems = wl.check(state, ops, raws, answers)
                bad = [(i, p) for i, p in enumerate(problems) if p]
                if bad:
                    print(f"{name} seed {seed}: {len(bad)} answers disagree; first {bad[0]}",
                          file=sys.stderr)
                    return 1
                per_seed[str(seed)] = "".join(workloads.short_digest(a) for a in answers)
                print(f"{name} seed {seed}: {len(ops)} operations", flush=True)
            reference["answers"][name] = per_seed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
