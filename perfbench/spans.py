"""Span recorder for the traced run.

`install` wraps every public function of the package's layer modules and
rebinds the wrapper under every name the `dybmaps` namespaces hold for it
(a module that did `from .ternary import check_ternary_condition` holds its
own name).  Nothing under `src/` changes; `uninstall` restores the names.

A span is (id, parent id, name, start, end, self time, operation index).
Self time is the span's duration minus the durations of its direct
children.  Work counts are computed after the round from the arguments and
result of each call, never inside a span, so they add no time to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

#: Package modules that do work; `errors` and `result` only define types.
LAYERS = ("binary", "ternary", "engine", "correspondence", "search", "serialize", "cli")

#: Quantified variables of each identity, in witness order.
TERNARY_ARITY = {"M1": 4, "M2": 4, "A11": 4, "A12": 2, "A21": 4, "A22": 2,
                 "A31": 4, "A32": 2, "U": 3}
BINARY_ARITY = {"LQ1": 4, "LQ22": 4, "LQ21": 4, "EX12": 3, "INV2": 2}


def scanned(result, radices) -> int:
    """Instances an exhaustive scan evaluated: all on a pass, else the
    lexicographic rank of the witness plus one."""
    if result.holds:
        return math.prod(radices)
    rank = 0
    for x, r in zip(result.witness, radices):
        rank = rank * r + x
    return rank + 1


def _d_class(args, res):
    n = args[0].set_order
    if res.holds:
        return n**4 + n**2
    if res.label == "composition":
        return scanned(res, (n,) * 4)
    return n**4 + scanned(res, (n,) * 2)


def _map_scan(k):
    def count(args, res):
        R = args[0]
        return scanned(res, (R.weight_order,) + (R.set_order,) * (k - 1))
    return count


def _file_size(args, res):
    return os.path.getsize(args[0])


#: Work count per traced function: (metric suffix, count(args, result)).
WORK = {
    "ternary.check_ternary_condition": (
        "instances", lambda a, r: scanned(r, (a[0].order,) * TERNARY_ARITY[a[1]])),
    "binary.check_binary_condition": (
        "instances", lambda a, r: scanned(r, (a[0].order,) * BINARY_ARITY[a[1]])),
    "ternary.braid_check": ("instances", lambda a, r: scanned(r, (a[0].order,) * 4)),
    "ternary.is_ternary_hom": ("instances", lambda a, r: scanned(r, (a[1].order,) * 3)),
    "engine.verify_qdybe": ("instances", _map_scan(4)),
    "engine.verify_braiding": ("instances", _map_scan(4)),
    "engine.verify_invariance": ("instances", _map_scan(3)),
    "engine.verify_unitary": ("instances", _map_scan(3)),
    "engine.check_D_class": ("instances", _d_class),
    "search.search_ternary_M1M2": ("tables", lambda a, r: r.total),
    "search.canonicalize": ("relabelings", lambda a, r: math.factorial(r[0].order)),
    "serialize.load": ("bytes_read", _file_size),
}


class Recorder:
    """Spans of the current round, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op = None

    def clear(self):
        self.spans = []
        self.next_id = 0


def _wrap(rec: Recorder, name: str, fn):
    keep = name in WORK
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.next_id
        rec.next_id = sid + 1
        stack = rec.stack
        parent = stack[-1] if stack else None
        frame = [sid, 0.0]
        stack.append(frame)
        result = None
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = clock()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            rec.spans.append((sid, parent[0] if parent else -1, name, t0, t1,
                              dur - frame[1], rec.op, (args, result) if keep else None))

    return traced


def install(rec: Recorder):
    """Rebind every public layer function in every dybmaps namespace."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"dybmaps.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(rec, f"{layer}.{attr}", obj)
    saved = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dybmaps" or modname.startswith("dybmaps.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    return saved


def uninstall(saved) -> None:
    for mod, attr, obj in saved:
        setattr(mod, attr, obj)


def aggregate(spans, wall: float) -> dict:
    """Per-function and per-layer calls, busy and self time, and work counts.

    Busy time counts only spans with no enclosing span of the same function
    (or layer), so nested calls are not counted twice.
    """
    info = {s[0]: (s[1], s[2]) for s in spans}

    def enclosed(parent, same):
        while parent != -1:
            parent, name = info[parent]
            if same(name):
                return True
        return False

    stats = defaultdict(float)
    for sid, parent, name, t0, t1, self_s, _, kept in spans:
        layer = name.split(".", 1)[0]
        dur = t1 - t0
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += self_s
        stats[f"{layer}.calls"] += 1
        stats[f"{layer}.self_s"] += self_s
        if not enclosed(parent, lambda other: other == name):
            stats[f"{name}.busy_s"] += dur
        if not enclosed(parent, lambda other: other.split(".", 1)[0] == layer):
            stats[f"{layer}.busy_s"] += dur
        if kept is not None and kept[1] is not None:
            suffix, count = WORK[name]
            key = f"serialize.{suffix}" if name == "serialize.load" else f"{name}.{suffix}"
            stats[key] += count(*kept)
    for name, (suffix, _) in WORK.items():
        busy = stats.get(f"{name}.busy_s", 0.0)
        if suffix in ("instances", "tables", "relabelings") and busy > 0:
            stats[f"{name}.{suffix}_per_s"] = stats[f"{name}.{suffix}"] / busy
    attributed = sum(s[5] for s in spans)
    stats["bench.traced_wall_s"] = wall
    stats["bench.unattributed_s"] = wall - attributed
    stats["bench.spans"] = len(spans)
    return dict(stats)


def median_stats(rounds: list[dict]) -> dict:
    keys = set().union(*rounds)
    return {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in keys}


def span_rows(spans, origin: float):
    """Spans as JSON-ready rows with times relative to the round start."""
    for sid, parent, name, t0, t1, self_s, op, _ in spans:
        yield [sid, parent, name, round(t0 - origin, 7), round(t1 - origin, 7),
               round(self_s, 7), op]
