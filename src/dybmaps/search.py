"""Enumeration and classification of small structures.

Enumerates left quasigroups ((n!)^n tables), quasigroups (Latin squares,
by row-wise backtracking) and ternary tables satisfying the two defining
identities, either exhaustively or by cell-wise backtracking.  All streams
emit in lexicographic table order so runs are reproducible and shardable.

No published count exists for the ternary search at any order; totals
reported here are regression values of this implementation.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator

import numpy as np

from .binary import BinaryTable, Bijection, LeftQuasigroup, validate_left_quasigroup
from .engine import Triple, build_dyb, verify_qdybe
from .errors import OrderTooLarge
from .ternary import TernaryTable, braid_check, check_ternary_condition, satisfies_m1m2

MAX_LEFT_QUASIGROUP_ORDER = 4
MAX_QUASIGROUP_ORDER = 5
MAX_TERNARY_EXHAUSTIVE_ORDER = 2
MAX_TERNARY_BACKTRACKING_ORDER = 3
MAX_CANONICAL_ORDER = 8


@dataclass
class SearchReport:
    """Outcome of a structure search.

    `complete` is False when a limit or deadline cut the walk short, in
    which case `total` counts only what was found.  `up_to_iso` and
    `representatives` (canonical forms, one per isomorphism class) are
    filled only when classification was requested.
    """

    target: str
    order: int
    mode: str
    total: int
    elapsed: float
    complete: bool = True
    up_to_iso: int | None = None
    representatives: list = field(default_factory=list)
    tables: list = field(default_factory=list)


@dataclass
class CensusReport:
    """Columnwise comparison of the two defining identities, the equation
    check on the unchecked build, and the braid check, over ternary tables."""

    order: int
    mode: str
    total: int
    num_m1m2: int
    agree: bool
    disagreements: list
    elapsed: float


def enumerate_left_quasigroups(n: int) -> Iterator[LeftQuasigroup]:
    """All tables whose rows are permutations, in lexicographic order."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > MAX_LEFT_QUASIGROUP_ORDER:
        raise OrderTooLarge(f"(n!)^n growth; refusing n = {n}")
    perms = list(permutations(range(n)))
    inverses = {}
    for perm in perms:
        back = [0] * n
        for v, w in enumerate(perm):
            back[w] = v
        inverses[perm] = tuple(back)
    for rows in product(perms, repeat=n):
        yield LeftQuasigroup(BinaryTable(rows), tuple(inverses[row] for row in rows))


def enumerate_quasigroups(n: int) -> Iterator[LeftQuasigroup]:
    """All Latin squares of order n, by row-wise backtracking, lexicographic."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > MAX_QUASIGROUP_ORDER:
        raise OrderTooLarge(f"Latin square growth; refusing n = {n}")
    perms = list(permutations(range(n)))
    rows: list[tuple[int, ...]] = []
    used = [set() for _ in range(n)]

    def walk(depth: int) -> Iterator[LeftQuasigroup]:
        if depth == n:
            yield validate_left_quasigroup(BinaryTable(tuple(rows)))
            return
        for perm in perms:
            if any(perm[c] in used[c] for c in range(n)):
                continue
            rows.append(perm)
            for c in range(n):
                used[c].add(perm[c])
            yield from walk(depth + 1)
            rows.pop()
            for c in range(n):
                used[c].discard(perm[c])

    yield from walk(0)


def _ternary_consistent(tab: list[int], n: int, quads) -> bool:
    """True unless some fully determined identity instance fails.

    Partial tables hold -1 in unset cells; an instance whose evaluation
    touches an unset cell is skipped, so pruning is sound.
    """
    for a, b, c, d in quads:
        x = tab[(a * n + b) * n + c]
        y = tab[(b * n + c) * n + d]
        if x >= 0:
            xcd = tab[(x * n + c) * n + d]
            if xcd >= 0:
                lhs = tab[(a * n + x) * n + xcd]
                if lhs >= 0 and y >= 0:
                    rhs = tab[(a * n + b) * n + y]
                    if rhs >= 0 and lhs != rhs:
                        return False
            if y >= 0 and xcd >= 0:
                aby = tab[(a * n + b) * n + y]
                if aby >= 0:
                    r2 = tab[(aby * n + y) * n + d]
                    if r2 >= 0 and xcd != r2:
                        return False
    return True


def _ternary_backtracking(
    n: int, limit: int | None, deadline: float | None
) -> tuple[list[TernaryTable], bool]:
    size = n**3
    quads = list(product(range(n), repeat=4))
    tab = [-1] * size
    found: list[TernaryTable] = []
    complete = True
    t0 = time.perf_counter()

    def walk(cell: int) -> bool:
        """Returns False to abort the whole search."""
        nonlocal complete
        if deadline is not None and time.perf_counter() - t0 > deadline:
            complete = False
            return False
        if cell == size:
            found.append(TernaryTable(n, tuple(tab)))
            if limit is not None and len(found) >= limit:
                complete = False
                return False
            return True
        for value in range(n):
            tab[cell] = value
            if _ternary_consistent(tab, n, quads):
                if not walk(cell + 1):
                    tab[cell] = -1
                    return False
            tab[cell] = -1
        return True

    walk(0)
    return found, complete


def _ternary_exhaustive_shard(args) -> list[tuple[int, ...]]:
    n, first = args
    size = n**3
    out = []
    for rest in product(range(n), repeat=size - 1):
        M = TernaryTable(n, (first,) + rest)
        if check_ternary_condition(M, "M1") and check_ternary_condition(M, "M2"):
            out.append(M.table)
    return out


def search_ternary_M1M2(
    n: int,
    mode: str = "exhaustive",
    limit: int | None = None,
    deadline: float | None = None,
    up_to_iso: bool = False,
    jobs: int = 1,
) -> SearchReport:
    """Find ternary tables satisfying both defining identities.

    Exhaustive mode scans all n^(n^3) candidates (n <= 2); backtracking
    mode fills cells in lexicographic order and prunes on any fully
    determined failing instance (n <= 3).  Where both run they emit the
    same tables in the same order.
    """
    t0 = time.perf_counter()
    if mode == "exhaustive":
        if n > MAX_TERNARY_EXHAUSTIVE_ORDER:
            raise OrderTooLarge(f"n^(n^3) growth; refusing n = {n}")
        if jobs > 1 and n > 1:
            with multiprocessing.Pool(jobs) as pool:
                shards = pool.map(
                    _ternary_exhaustive_shard, [(n, first) for first in range(n)]
                )
            flats = [flat for shard in shards for flat in shard]
            tables = [TernaryTable(n, flat) for flat in sorted(flats)]
        else:
            tables = [
                TernaryTable(n, flat)
                for first in range(n)
                for flat in _ternary_exhaustive_shard((n, first))
            ]
        if limit is not None:
            complete = limit >= len(tables)
            tables = tables[:limit]
        else:
            complete = True
    elif mode == "backtracking":
        if n > MAX_TERNARY_BACKTRACKING_ORDER:
            raise OrderTooLarge(f"3^(n^3) tree; refusing n = {n}")
        tables, complete = _ternary_backtracking(n, limit, deadline)
    else:
        raise ValueError(f"mode must be exhaustive or backtracking, got {mode!r}")

    report = SearchReport(
        target="ternary-m1m2",
        order=n,
        mode=mode,
        total=len(tables),
        elapsed=time.perf_counter() - t0,
        complete=complete,
        tables=tables,
    )
    if up_to_iso:
        _classify_up_to_iso(report)
    return report


def search_structures(
    target: str,
    n: int,
    mode: str = "exhaustive",
    limit: int | None = None,
    deadline: float | None = None,
    up_to_iso: bool = False,
    jobs: int = 1,
) -> SearchReport:
    """Uniform entry point over all search targets."""
    if target == "ternary-m1m2":
        return search_ternary_M1M2(
            n, mode=mode, limit=limit, deadline=deadline, up_to_iso=up_to_iso, jobs=jobs
        )
    if target == "left-quasigroups":
        stream = enumerate_left_quasigroups(n)
    elif target == "quasigroups":
        stream = enumerate_quasigroups(n)
    else:
        raise ValueError(f"unknown search target {target!r}")
    t0 = time.perf_counter()
    tables = []
    complete = True
    for lq in stream:
        if limit is not None and len(tables) >= limit:
            complete = False
            break
        tables.append(lq)
    report = SearchReport(
        target=target,
        order=n,
        mode="backtracking" if target == "quasigroups" else "exhaustive",
        total=len(tables),
        elapsed=time.perf_counter() - t0,
        complete=complete,
        tables=tables,
    )
    if up_to_iso:
        _classify_up_to_iso(report)
    return report


def _classify_up_to_iso(report: SearchReport) -> None:
    seen = {}
    for table in report.tables:
        canon, _ = canonicalize(table)
        key = canon.table if isinstance(canon, TernaryTable) else canon.rows
        if key not in seen:
            seen[key] = canon
    report.representatives = [seen[k] for k in sorted(seen)]
    report.up_to_iso = len(seen)


def canonicalize(x):
    """Lexicographically minimal relabeling and the automorphism count.

    Two tables are isomorphic (related by a bijective relabeling) exactly
    when their canonical forms are equal.  Scans all n! relabelings.
    """
    if isinstance(x, TernaryTable):
        n = x.order
        arr = np.array(x.table, dtype=np.int64).reshape(n, n, n)
        ndim = 3
    elif isinstance(x, (BinaryTable, LeftQuasigroup)):
        base = x.base if isinstance(x, LeftQuasigroup) else x
        n = base.order
        arr = np.array(base.rows, dtype=np.int64)
        ndim = 2
    else:
        raise TypeError(f"cannot canonicalize {type(x).__name__}")
    if n > MAX_CANONICAL_ORDER:
        raise OrderTooLarge(f"n! relabelings; refusing n = {n}")

    orig = arr.tobytes()
    best = None
    best_bytes = None
    aut = 0
    for perm in permutations(range(n)):
        sigma = np.array(perm, dtype=np.int64)
        inv = np.empty(n, dtype=np.int64)
        inv[sigma] = np.arange(n)
        if ndim == 2:
            cand = sigma[arr[np.ix_(inv, inv)]]
        else:
            cand = sigma[arr[np.ix_(inv, inv, inv)]]
        cb = cand.tobytes()
        if cb == orig:
            aut += 1
        if best_bytes is None or cb < best_bytes:
            best_bytes = cb
            best = cand
    flat = [int(v) for v in best.ravel()]
    if isinstance(x, TernaryTable):
        return TernaryTable(n, tuple(flat)), aut
    canon_rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    canon = BinaryTable(canon_rows)
    if isinstance(x, LeftQuasigroup):
        return validate_left_quasigroup(canon), aut
    return canon, aut


def _census_tables(tables, L: LeftQuasigroup, pi: Bijection) -> tuple[int, int, list]:
    """Total, M1-and-M2 count and disagreeing rows of the census over `tables`."""
    total = num_m1m2 = 0
    disagreements = []
    for M in tables:
        total += 1
        m12 = satisfies_m1m2(M)
        q = bool(verify_qdybe(build_dyb(Triple(L, M, pi), checked=False)))
        b = bool(braid_check(M))
        num_m1m2 += m12
        if not (m12 == q == b):
            disagreements.append((M.table, m12, q, b))
    return total, num_m1m2, disagreements


def _census_shard(args) -> tuple[int, int, list]:
    n, rows, pi_map, first = args
    tables = (TernaryTable(n, (first,) + rest) for rest in product(range(n), repeat=n**3 - 1))
    return _census_tables(
        tables, validate_left_quasigroup(BinaryTable.from_rows(rows)), Bijection.make(pi_map)
    )


def census_theorem31(
    n: int = 2,
    L: LeftQuasigroup | None = None,
    pi: Bijection | None = None,
    jobs: int = 1,
    sample: int | None = None,
    seed: int = 0,
) -> CensusReport:
    """Columnwise census over ternary tables of order n.

    For each table records whether (a) it satisfies both defining
    identities, (b) the unchecked build passes the equation check, and
    (c) the braid check passes, then asserts the three columns agree.
    Exhaustive for n <= 2; pass `sample` for a seeded random census at
    larger orders.
    """
    if L is None:
        L = validate_left_quasigroup(
            BinaryTable.from_rows([[(u + v) % n for v in range(n)] for u in range(n)])
        )
    if pi is None:
        pi = Bijection.identity(n)
    t0 = time.perf_counter()
    if sample is None:
        if n > MAX_TERNARY_EXHAUSTIVE_ORDER:
            raise OrderTooLarge(
                f"exhaustive census infeasible at n = {n}; pass sample="
            )
        shards_args = [(n, L.rows, pi.map, first) for first in range(n)]
        if jobs > 1 and n > 1:
            with multiprocessing.Pool(jobs) as pool:
                parts = pool.map(_census_shard, shards_args)
        else:
            parts = [_census_shard(a) for a in shards_args]
        total = sum(p[0] for p in parts)
        num_m1m2 = sum(p[1] for p in parts)
        disagreements = sorted(d for p in parts for d in p[2])
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        tables = (TernaryTable(n, tuple(rng.randrange(n) for _ in range(n**3)))
                  for _ in range(sample))
        total, num_m1m2, disagreements = _census_tables(tables, L, pi)
        mode = "sample"
    return CensusReport(
        order=n,
        mode=mode,
        total=total,
        num_m1m2=num_m1m2,
        agree=not disagreements,
        disagreements=disagreements,
        elapsed=time.perf_counter() - t0,
    )
