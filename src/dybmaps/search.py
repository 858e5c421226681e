"""Enumeration and classification of small structures.

Enumerates left quasigroups ((n!)^n tables), quasigroups (Latin squares,
by row-wise backtracking) and ternary tables satisfying the two defining
identities, either exhaustively or by cell-wise backtracking.  Every
target is a stream in lexicographic table order, and one collector applies
the limit and the deadline to all of them, so runs are reproducible.

No published count exists for the ternary search at any order; totals
reported here are regression values of this implementation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator

import numpy as np

from .binary import BinaryTable, Bijection, LeftQuasigroup, validate_left_quasigroup
from .engine import Triple, build_dyb, verify_qdybe
from .errors import OrderTooLarge
from .ternary import TernaryTable, braid_check, satisfies_m1m2

MAX_LEFT_QUASIGROUP_ORDER = 4
MAX_QUASIGROUP_ORDER = 5
MAX_TERNARY_EXHAUSTIVE_ORDER = 2
MAX_TERNARY_BACKTRACKING_ORDER = 3
MAX_CANONICAL_ORDER = 8


@dataclass
class SearchReport:
    """Outcome of a structure search.

    `complete` is True only when the whole stream was read before the
    limit or the deadline stopped it; otherwise `total` counts only what
    was found.  `up_to_iso` and `representatives` (canonical forms, one
    per isomorphism class) are filled only when classification was
    requested.
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


def _ternary_backtracking(n: int) -> Iterator[TernaryTable | None]:
    """Tables passing both identities, filling cells in lexicographic order
    and pruning on any fully determined failing instance.  Yields None at
    every inner node, so the collector reads the clock in barren subtrees."""
    size = n**3
    quads = list(product(range(n), repeat=4))
    tab = [-1] * size
    cell = 0
    while cell >= 0:
        tab[cell] += 1
        if tab[cell] == n:
            tab[cell] = -1
            cell -= 1
        elif _ternary_consistent(tab, n, quads):
            if cell < size - 1:
                cell += 1
                yield None
            else:
                yield TernaryTable(n, tuple(tab))


def _all_ternary_tables(n: int) -> Iterator[TernaryTable]:
    """All n^(n^3) ternary tables of order n, in lexicographic order."""
    return (TernaryTable(n, flat) for flat in product(range(n), repeat=n**3))


def _collect(target: str, n: int, mode: str, stream, limit, deadline, up_to_iso) -> SearchReport:
    """Run one table stream under `limit` and `deadline`.

    The stream yields tables in lexicographic order and may yield None
    between them.  The clock is read after every item: once `deadline`
    seconds have passed the search stops.  The report is `complete` only
    when the stream ran out before either bound stopped it; at the limit
    one more table is pulled to find out.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    t0 = time.perf_counter()
    tables = []
    complete = True
    for table in stream:
        if deadline is not None and time.perf_counter() - t0 >= deadline:
            complete = False
            break
        if table is None:
            continue
        if len(tables) == limit:
            complete = False
            break
        tables.append(table)
    report = SearchReport(
        target=target,
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


def search_ternary_M1M2(
    n: int,
    mode: str = "exhaustive",
    limit: int | None = None,
    deadline: float | None = None,
    up_to_iso: bool = False,
) -> SearchReport:
    """Find ternary tables satisfying both defining identities.

    Exhaustive mode scans all n^(n^3) candidates (n <= 2); backtracking
    mode fills cells in lexicographic order and prunes on any fully
    determined failing instance (n <= 3).  Where both run they emit the
    same tables in the same order.
    """
    if mode == "exhaustive":
        if n > MAX_TERNARY_EXHAUSTIVE_ORDER:
            raise OrderTooLarge(f"n^(n^3) growth; refusing n = {n}")
        stream = (M for M in _all_ternary_tables(n) if satisfies_m1m2(M))
    elif mode == "backtracking":
        if n > MAX_TERNARY_BACKTRACKING_ORDER:
            raise OrderTooLarge(f"3^(n^3) tree; refusing n = {n}")
        stream = _ternary_backtracking(n)
    else:
        raise ValueError(f"mode must be exhaustive or backtracking, got {mode!r}")
    return _collect("ternary-m1m2", n, mode, stream, limit, deadline, up_to_iso)


def search_structures(
    target: str,
    n: int,
    mode: str = "exhaustive",
    limit: int | None = None,
    deadline: float | None = None,
    up_to_iso: bool = False,
) -> SearchReport:
    """Uniform entry point over all search targets."""
    if target == "ternary-m1m2":
        return search_ternary_M1M2(n, mode, limit, deadline, up_to_iso)
    if target == "left-quasigroups":
        stream, mode = enumerate_left_quasigroups(n), "exhaustive"
    elif target == "quasigroups":
        stream, mode = enumerate_quasigroups(n), "backtracking"
    else:
        raise ValueError(f"unknown search target {target!r}")
    return _collect(target, n, mode, stream, limit, deadline, up_to_iso)


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


def census_theorem31(
    n: int = 2,
    L: LeftQuasigroup | None = None,
    pi: Bijection | None = None,
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
        tables = _all_ternary_tables(n)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        tables = (TernaryTable(n, tuple(rng.randrange(n) for _ in range(n**3)))
                  for _ in range(sample))
        mode = "sample"
    total, num_m1m2, disagreements = _census_tables(tables, L, pi)
    return CensusReport(
        order=n,
        mode=mode,
        total=total,
        num_m1m2=num_m1m2,
        agree=not disagreements,
        disagreements=disagreements,
        elapsed=time.perf_counter() - t0,
    )
