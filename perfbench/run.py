#!/usr/bin/env python3
"""Run one benchmark workload against the package in ./src and print its metrics.

    python3 perfbench/run.py --workload large-carriers --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout.  One process, one caller, closed loop:
each operation starts when the previous one has returned.  The workload's
fixed list of operations is repeated in rounds until the next round would
end more than --seconds after this script started; set-up and the check of
the first round's answers count too.  There is at least one round.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced rounds alternate and it carries
the per-layer metrics.  Every answer is checked (see workloads.py); `failed` counts operations whose answer
differs from the expected one, summed over rounds.

A result file with an environment stamp goes to .perfbench/results/ in the
checkout, and the traced run also writes the spans of its first traced round
there.  No CPU pinning and no cache dropping are used.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7

#: The CPU of a shared host runs the same Python code up to a third slower
#: for tens of seconds at a time.  Reported times are therefore scaled to a
#: reference speed: measured time x CAL_REFERENCE_S / calibration time, with
#: the calibration loop run between blocks of operations.  CAL_REFERENCE_S is
#: the median calibration time of 60 earlier runs on a shared 2-core x86-64 virtual
#: machine, so there scaled and unscaled figures agree on average.  Unscaled
#: values and this run's median calibration time go to the result file.
CAL_REFERENCE_S = 1.85e-3
CAL_EVERY_S = 0.05
CALIBRATIONS: list[float] = []
CAL_SMALL = tuple((7 * i + 3) % 8 for i in range(8**3))
CAL_LARGE = tuple((7919 * i + 13) % 32 for i in range(32**3))
CAL_JSON = json.dumps({"r": [[[[(a * b + c) % 12, (a + b * c) % 12] for c in range(12)]
                              for b in range(12)] for a in range(12)]})

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

#: Traced functions reported one by one; the ones with a work count also
#: report it and its rate over the function's busy time.
FUNCTIONS = {
    "binary.validate_left_quasigroup": None,
    "binary.classify_structure": None,
    "ternary.check_ternary_condition": "instances",
    "ternary.braid_check": "instances",
    "ternary.is_ternary_hom": "instances",
    "engine.build_dyb": None,
    "engine.verify_qdybe": "instances",
    "engine.verify_braiding": "instances",
    "engine.verify_invariance": "instances",
    "engine.verify_unitary": "instances",
    "engine.check_D_class": "instances",
    "engine.extract_mu_L": None,
    "engine.reconstruct_G": None,
    "engine.conjugation_selfcheck": None,
    "correspondence.build_correspondence": None,
    "correspondence.verify_irf_irf": None,
    "search.search_ternary_M1M2": "tables",
    "search.canonicalize": "relabelings",
    "search.census_theorem31": None,
    "serialize.load": None,
    "serialize.to_jsonable": None,
    "cli.main": None,
}


def per_layer_metrics():
    out = []
    for layer in spans.LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    for name, work in FUNCTIONS.items():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
        if work:
            out += [(f"{name}.{work}", "count"), (f"{name}.{work}_per_s", "1/s")]
    out += [("serialize.bytes_read", "B"), ("serialize.bytes_written", "B"),
            ("bench.untraced_wall_s", "s"), ("bench.traced_wall_s", "s"),
            ("bench.tracing_overhead_s", "s"), ("bench.unattributed_s", "s"),
            ("bench.spans", "count")]
    return out


PER_LAYER = tuple(per_layer_metrics())


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git.

    .git may be a directory or, in a linked worktree, a file whose
    `gitdir:` line names the worktree's own git directory; branch refs then
    live in the directory its `commondir` file names.
    """
    dot = root / ".git"
    gitdir = dot
    if dot.is_file():
        line = dot.read_text().strip()
        if not line.startswith("gitdir: "):
            return "unknown"
        gitdir = (root / line[8:]).resolve()
    head = gitdir / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    common = gitdir
    if (gitdir / "commondir").is_file():
        common = (gitdir / (gitdir / "commondir").read_text().strip()).resolve()
    for base in (gitdir, common):
        if (base / name).is_file():
            return (base / name).read_text().strip()
    packed = common / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def timed_import(root: Path) -> float:
    """Wall time of a fresh interpreter importing the package from ./src."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import dybmaps"],
        cwd=root, check=True,
    )
    return time.perf_counter() - t0


def _lookups(t, n, ranges):
    for a, b, c, d in product(*ranges):
        x = t[(a * n + b) * n + c]
        if t[(x * n + c) * n + d] == t[(a * n + b) * n + d]:
            pass


def _json_map():
    doc = json.loads(CAL_JSON)
    tuple(tuple(tuple(tuple(p) for p in row) for row in lam) for lam in doc["r"])


CAL_KERNELS = (
    lambda: _lookups(CAL_SMALL, 8, [range(8)] * 4),
    lambda: _lookups(CAL_LARGE, 32, [range(0, 32, 8), range(32), range(0, 32, 8), range(0, 32, 8)]),
    _json_map,
)


def calibrate() -> float:
    """Seconds for three fixed kernels, each the best of 3 runs.

    The kernels do what the package does: table lookups in a loop over a
    small and over a large table, and loading a map from JSON.  Their time
    tracks how fast this CPU runs such code at the moment.
    """
    clock = time.perf_counter
    total = 0.0
    for kernel in CAL_KERNELS:
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            kernel()
            best = min(best, clock() - t0)
        total += best
    CALIBRATIONS.append(total)
    return total


def run_round(wl, ops, rec=None):
    """Run every operation once.

    Returns each operation's answer, its raw outcome when the workload keeps
    them, its time, and its time scaled to the reference speed.  Answers are
    made between operations, outside the timing, so raw outcomes need not be
    held for the round.  The calibration loop runs between blocks of at
    least CAL_EVERY_S of operations; a block's times are scaled by
    CAL_REFERENCE_S over the mean of the calibrations on either side of it.
    """
    clock = time.perf_counter
    answers, raws, times, scaled = [], [], [], []
    cal_before, block_start, block_time = calibrate(), 0, 0.0
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op = i
        t0 = clock()
        try:
            raw = op["run"]()
        except Exception as exc:  # an escaped exception is a wrong answer, not a crash
            raw = workloads.Raised(exc)
        times.append(clock() - t0)
        block_time += times[-1]
        try:
            answers.append(wl.answer(op, raw))
        except (ValueError, KeyError, TypeError, OSError) as exc:  # output unreadable
            answers.append(("unreadable", type(exc).__name__, str(exc)[:200]))
        if wl.keeps_raws:
            raws.append(raw)
        if block_time >= CAL_EVERY_S or i == len(ops) - 1:
            cal_after = calibrate()
            factor = CAL_REFERENCE_S / ((cal_before + cal_after) / 2)
            scaled += [t * factor for t in times[block_start:]]
            cal_before, block_start, block_time = cal_after, i + 1, 0.0
    return answers, raws, times, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dybmaps" / "__init__.py").is_file():
        print("error: no src/dybmaps here; run from the root of a dybmaps checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import dybmaps

    wl = workloads.WORKLOADS[args.workload]
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        return measure(args, root, dybmaps, wl, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(args, wl, state, ops, raws, answers, reference):
    """Problems of each operation's first answer, by the oracle, the
    cross-checks and the reference file."""
    problems = wl.check(state, ops, raws, answers)
    ref = reference["answers"].get(wl.name, {}).get(str(args.seed))
    if ref is not None:
        for i, ans in enumerate(answers):
            if ref[4 * i:4 * i + 4] != workloads.short_digest(ans):
                problems[i].append("answer differs from the reference file")
    return problems


def measure(args, root, dybmaps, wl, work, out_dir) -> int:
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        cal_before = calibrate()
        t0 = time.perf_counter()
        timed_import(root)
        reference = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        state = wl.setup(dybmaps, args.seed, work, reference)
        setups_raw.append(time.perf_counter() - t0)
        setups.append(setups_raw[-1] * CAL_REFERENCE_S / ((cal_before + calibrate()) / 2))
    ops = wl.ops(state)

    rec = spans.Recorder()
    kinds = (False, True) if args.trace else (False,)
    walls = {False: [], True: []}
    scaled_walls = {False: [], True: []}
    op_times, op_raw = [[] for _ in ops], [[] for _ in ops]
    traced_stats, spans_out = [], None
    first_raws = first_answers = None
    later_mismatch = [0] * len(ops)
    problems = None
    rounds = 0
    while True:
        t_cycle = time.perf_counter()
        for traced in kinds:
            saved = spans.install(rec) if traced else None
            start = time.perf_counter()
            try:
                answers, raws, times, scaled = run_round(wl, ops, rec if traced else None)
            finally:
                if saved is not None:
                    spans.uninstall(saved)
            rounds += 1
            walls[traced].append(sum(times))
            scaled_walls[traced].append(sum(scaled))
            if traced:
                stats = spans.aggregate(rec.spans, sum(times))
                stats["serialize.bytes_written"] = sum(op.get("bytes_written", 0) for op in ops)
                traced_stats.append(stats)
                if spans_out is None:
                    spans_out = list(spans.span_rows(rec.spans, start))
                rec.clear()
            else:
                for i in range(len(ops)):
                    op_times[i].append(scaled[i])
                    op_raw[i].append(times[i])
            if first_answers is None:
                first_raws, first_answers = raws, answers
            else:
                for i, (a, b) in enumerate(zip(answers, first_answers)):
                    later_mismatch[i] += a != b
        cycle_s = time.perf_counter() - t_cycle
        if problems is None:
            # Checked now, so that the rounds fill what is left of --seconds.
            t_check = time.perf_counter()
            problems = check(args, wl, state, ops, first_raws, first_answers, reference)
            check_s = time.perf_counter() - t_check
            first_raws = None
        if time.perf_counter() - START + cycle_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(rounds if problems[i] else later_mismatch[i] for i in range(len(ops)))
    attempted = rounds * len(ops)

    def summary(setup_times, per_op_times):
        per_op = [statistics.median(t) for t in per_op_times]
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": statistics.quantiles(per_op, n=10)[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    e2e, e2e_raw = summary(setups, op_times), summary(setups_raw, op_raw)
    units = dict(END_TO_END)
    if args.trace:
        layer = spans.median_stats(traced_stats)
        layer["bench.untraced_wall_s"] = statistics.median(walls[False])
        # Scaled, so a change of CPU speed between the rounds does not show.
        layer["bench.tracing_overhead_s"] = (statistics.median(scaled_walls[True])
                                             - statistics.median(scaled_walls[False]))
        units = dict(PER_LAYER)
        values = {k: layer.get(k, 0.0) for k in units}
    else:
        layer = {}
        values = e2e
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "ops_per_round": len(ops),
        "rounds": rounds,
        "attempted": attempted,
        "check_s": check_s,
        "whole_run_s": time.perf_counter() - START,
        "calibration_s_median": statistics.median(CALIBRATIONS),
        "jobs": 1,
        "load": "closed loop, one caller",
        "limits": "no CPU pinning and no cache dropping; other processes on the host add noise",
    }
    report = {
        "stamp": stamp,
        "result": result,
        "end_to_end": e2e,
        "end_to_end_unscaled": e2e_raw,
        "setup_s_samples": setups,
        "setup_s_unscaled_samples": setups_raw,
        "round_walls_s": walls[False],
        "round_walls_scaled_s": scaled_walls[False],
        "traced_round_walls_s": walls[True],
        "error_rate": failed / attempted,
        "per_op_ms": [round(statistics.median(t) * 1e3, 4) for t in op_times],
        "problems": [(i, p) for i, p in enumerate(problems) if p][:50],
        "layers": dict(sorted(layer.items())),
    }
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if spans_out is not None:
        with open(out_dir / f"{name}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write('["id", "parent", "name", "start_s", "end_s", "self_s", "op"]\n')
            for row in spans_out:
                fh.write(json.dumps(row) + "\n")

    for k, v in e2e.items():
        print(f"{k:<12} {v:12.4f} {dict(END_TO_END)[k]}")
    print(f"error_rate   {failed / attempted:12.4f} ({failed} of {attempted} operations)")
    for i, p in report["problems"][:5]:
        print(f"op {i}: {'; '.join(p)[:300]}")
    if args.trace:
        self_sum = sum(layer.get(f"{m}.self_s", 0.0) for m in spans.LAYERS)
        print(f"traced wall {layer['bench.traced_wall_s']:.4f} s = layer self "
              f"{self_sum:.4f} s + unattributed {layer['bench.unattributed_s']:.4f} s; "
              f"tracing overhead {layer['bench.tracing_overhead_s']:+.4f} s")
    print(f"rounds {rounds}, {len(ops)} operations per round; result file {out_dir / name}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
