"""Enumeration and classification of small structures.

Enumerates left quasigroups ((n!)^n tables), quasigroups (Latin squares,
by row-wise backtracking) and ternary tables satisfying the two defining
identities, either exhaustively or by cell-wise backtracking.  SEARCHES
declares every search, each a stream in lexicographic table order, and
`search_structures` applies the limit and the deadline to all of them, so
runs are reproducible.

No published count exists for the ternary search at any order; totals
reported here are regression values of this implementation.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice, permutations, product
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .binary import BinaryTable, Bijection, LeftQuasigroup, validate_left_quasigroup
from .engine import _QDYBE, _dyb_pairs
from .errors import OrderMismatch, OrderTooLarge
from .kernel import FAILS, SLAB_POINTS, check_stack, probe
from .ternary import _BRAID, _TERNARY, M1M2, TernaryTable, satisfies_m1m2

MAX_CANONICAL_ORDER = 8

#: Bounds the (table, relabeling) pairs refined together, whole tables at a
#: time, and the entries gathered at once (surviving pairs x cells); so it
#: bounds the temporaries of `canonicalize` and of classification (README).
CANON_BLOCK = 8192


@dataclass
class SearchReport:
    """Outcome of a structure search.

    `complete` is True only when the whole stream was read before the
    limit or the deadline stopped it; otherwise `total` counts only what
    was found.  `nodes` counts the items the stream yielded: every table
    read, and in backtracking mode every inner node of the walk too.
    `up_to_iso` and `representatives` (canonical forms, one per
    isomorphism class) are filled only when classification was requested,
    and `classify_s` is then the time it took, apart from `elapsed`.
    """

    target: str
    order: int
    mode: str
    total: int
    elapsed: float
    complete: bool = True
    nodes: int = 0
    up_to_iso: int | None = None
    classify_s: float | None = None
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
    return _bounded("left-quasigroups", "exhaustive", n).stream(n)


def enumerate_quasigroups(n: int) -> Iterator[LeftQuasigroup]:
    """All Latin squares of order n, by row-wise backtracking, lexicographic."""
    return _bounded("quasigroups", "backtracking", n).stream(n)


def _left_quasigroups(n: int) -> Iterator[LeftQuasigroup]:
    perms, inverses = (a[:, :n].astype(np.int32) for a in _relabelings(n)[:2])
    # the n! tables that share their first n - 1 rows, gathered at once
    rows = np.empty((len(perms), n), np.intp)
    rows[:, -1] = np.arange(len(perms))
    for prefix in product(range(len(perms)), repeat=n - 1):
        rows[:, :-1] = prefix
        for mul, div in zip(perms[rows], inverses[rows]):
            yield LeftQuasigroup._of(mul, div)


def _quasigroups(n: int) -> Iterator[LeftQuasigroup]:
    perms, inverses = (a[:, :n].astype(np.int32) for a in _relabelings(n)[:2])
    # Bit c*n + v of a mask: the row puts value v in column c.
    masks = [sum(1 << c * n + v for c, v in enumerate(perm)) for perm in perms.tolist()]
    rows: list[int] = []

    def walk(used: int) -> Iterator[LeftQuasigroup]:
        if len(rows) == n:
            yield LeftQuasigroup._of(perms.take(rows, 0), inverses.take(rows, 0))
            return
        for perm, mask in enumerate(masks):
            if not mask & used:
                rows.append(perm)
                yield from walk(used | mask)
                rows.pop()

    yield from walk(0)


def _ternary_backtracking(n: int) -> Iterator[TernaryTable | None]:
    """Tables passing both identities, filling cells in lexicographic order
    with forward checking.  Yields None at every inner node, so the
    search reads the clock in barren subtrees.

    Every instance of M1 and M2 has its own probe, made once before the
    walk with the index terms that read only its point folded into
    constants (`kernel.probe`).  It waits on the watch list of the first
    unset cell its probe reads, and every cell keeps a domain, the bitmask
    of the values still possible there.  Setting cell k first probes the
    instance that last failed at k, then the instances on list k: one that
    fails prunes, one that holds drops out, and one still blocked moves to
    the list of its next unset cell j, always after k.  The moved instance
    is then probed once for each value of j's domain, with tab[j] set to
    it, and every value for which it fails leaves the domain; an empty
    domain prunes.  If no such probe stops at an unset cell, the instance
    holds for every value left and is retired: it goes on no list.  Moves,
    retirements (as ~j) and trimmed domains are recorded on k's trail, and
    the trail is undone, last entry first, before cell k takes its next
    value or is unset again.  Only values left in a cell's domain are tried.

    A probe fails only when every cell it reads is set, so an instance that
    fails once k is set would sit on list k anyway: probing the last
    failure first finds the same prunes, only sooner, and a domain loses
    only values that no table below the current prefix can take.
    """
    size = n**3
    tab = [-1] * size
    watch = [[] for _ in range(size)]
    for cond in M1M2:
        at = probe(_TERNARY[cond], mu=tab, n=n)
        for point in product(range(n), repeat=4):
            instance = at(*point)
            watch[instance()].append(instance)
    values = [[v for v in range(n) if mask >> v & 1] for mask in range(1 << n)]  # of each domain
    dom = [(1 << n) - 1] * size
    last = [watch[0][0]] * size  # any instance may stand in until one fails
    trail = [[] for _ in range(size)]
    cell = 0
    while cell >= 0:
        moved = trail[cell]
        while moved:
            j, d = moved.pop()
            if j < 0:
                dom[~j] = d
            else:
                dom[j] = d
                watch[j].pop()
        rest = dom[cell] >> tab[cell] + 1
        if not rest:
            tab[cell] = -1
            cell -= 1
            continue
        tab[cell] += (rest & -rest).bit_length()  # the next value in the domain
        if last[cell]() == FAILS:
            continue
        for instance in watch[cell]:
            j = instance()
            if j >= 0:
                d = before = dom[j]
                blocked = False
                for v in values[d]:
                    tab[j] = v
                    k = instance()
                    if k == FAILS:
                        d ^= 1 << v
                    elif k >= 0:
                        blocked = True
                tab[j] = -1
                dom[j] = d
                if blocked:
                    watch[j].append(instance)
                    moved.append((j, before))
                else:
                    moved.append((~j, before))  # retired: it holds for every value left
                if not d:
                    break
            elif j == FAILS:
                last[cell] = instance
                break
        else:
            if cell < size - 1:
                cell += 1
                yield None
            else:
                yield TernaryTable._of(np.array(tab, np.int32))


def _all_ternary_tables(n: int) -> Iterator[TernaryTable]:
    """All n^(n^3) ternary tables of order n, in lexicographic order."""
    return (TernaryTable._of(np.array(flat, np.int32)) for flat in product(range(n), repeat=n**3))


class Search(NamedTuple):
    """One search: the largest order it takes, what grows with the order
    (named when it refuses a larger one) and its stream of tables of order n."""

    max_order: int
    growth: str
    stream: Callable[[int], Iterator]


#: Every search, by target and mode; a target's first mode is its own.
#: Where a target has two modes they emit the same tables in the same order.
#: The streams take any order: each public entry point guards it once,
#: through `_bounded`.
SEARCHES = {
    "ternary-m1m2": {
        "exhaustive": Search(2, "n^(n^3) growth", lambda n: filter(satisfies_m1m2, _all_ternary_tables(n))),
        "backtracking": Search(3, "3^(n^3) tree", _ternary_backtracking),
    },
    "left-quasigroups": {"exhaustive": Search(4, "(n!)^n growth", _left_quasigroups)},
    "quasigroups": {"backtracking": Search(5, "Latin square growth", _quasigroups)},
}


def _bounded(target: str, mode: str, n: int, hint: str = "") -> Search:
    """The search of `target` in `mode`, if n is one of its orders; `hint`
    ends the message of OrderTooLarge."""
    if n < 1:
        raise ValueError("order must be >= 1")
    search = SEARCHES[target][mode]
    if n > search.max_order:
        raise OrderTooLarge(f"{search.growth}; refusing n = {n}{hint}")
    return search


def search_ternary_M1M2(
    n: int,
    mode: str = "exhaustive",
    limit: int | None = None,
    deadline: float | None = None,
    up_to_iso: bool = False,
) -> SearchReport:
    """The `ternary-m1m2` searches of SEARCHES, for the tables that satisfy
    both defining identities: all n^(n^3) candidates, or by backtracking."""
    return search_structures("ternary-m1m2", n, mode, limit, deadline, up_to_iso)


def search_structures(
    target: str,
    n: int,
    mode: str | None = None,
    limit: int | None = None,
    deadline: float | None = None,
    up_to_iso: bool = False,
) -> SearchReport:
    """Run one search of SEARCHES under `limit` and `deadline`.  `mode` None
    takes the target's own; an unknown target, a mode the target does not
    have or an order below 1 is a ValueError, an order above the mode's
    bound OrderTooLarge.

    The stream yields tables in lexicographic order and may yield None
    between them.  The clock is read after every item: once `deadline`
    seconds have passed the search stops.  The report is `complete` only
    when the stream ran out before either bound stopped it; at the limit
    one more table is pulled to find out.
    """
    # names are compared as tuples, so an unhashable one is unknown too
    if target not in tuple(SEARCHES):
        raise ValueError(f"unknown search target {target!r}")
    modes = SEARCHES[target]
    if mode is None:
        mode = next(iter(modes))
    elif mode not in tuple(modes):
        raise ValueError(f"target {target} is searched in {' or '.join(modes)} mode, got {mode!r}")
    stream = _bounded(target, mode, n).stream(n)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if deadline is not None and not deadline >= 0:  # NaN too
        raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
    t0 = time.perf_counter()
    tables = []
    complete = True
    nodes = 0
    for table in stream:
        nodes += 1
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
        nodes=nodes,
        tables=tables,
    )
    if up_to_iso:
        t0 = time.perf_counter()
        _classify_up_to_iso(report)
        report.classify_s = time.perf_counter() - t0
    return report


def _classify_up_to_iso(report: SearchReport) -> None:
    """Representatives of the classes of `report.tables`: the distinct
    canonical forms, in lexicographic order, computed in one batch."""
    tables = report.tables
    report.representatives = []
    if tables:
        n, axes = _shape(tables[0])
        forms, _ = _least_forms(_stack(tables, n, axes), n, axes)
        # Sorted rows, each kept unless it equals the one before.
        forms = forms[np.lexsort(forms.T[::-1])]
        distinct = np.ones(len(forms), bool)
        distinct[1:] = (forms[1:] != forms[:-1]).any(axis=1)
        report.representatives = _like(tables[0], n, forms[distinct])
    report.up_to_iso = len(report.representatives)


def canonicalize(x):
    """Lexicographically minimal relabeling and the automorphism count.

    Two tables are isomorphic (related by a bijective relabeling) exactly
    when their canonical forms are equal.  The form is fixed cell by cell
    in row-major order over all n! relabelings at once, keeping only the
    relabelings that reach the least entry so far (README: "How canonical
    forms are computed").  Those left at the end are one coset of the
    automorphism group, so their number is the automorphism count.
    """
    n, axes = _shape(x)
    forms, auts = _least_forms(_stack([x], n, axes), n, axes)
    return _like(x, n, forms)[0], int(auts[0])


def _shape(x) -> tuple[int, int]:
    """(order, number of arguments) of a table `canonicalize` takes."""
    if isinstance(x, TernaryTable):
        n, axes = x.order, 3
    elif isinstance(x, BinaryTable):
        n, axes = x.order, 2
    else:
        raise TypeError(f"cannot canonicalize {type(x).__name__}")
    if n > MAX_CANONICAL_ORDER:
        raise OrderTooLarge(f"n! relabelings; refusing n = {n}")
    return n, axes


def _stack(tables, n: int, axes: int) -> np.ndarray:
    """Tables of one kind and order as a (tables, n^axes) uint8 array, each
    row the entries in row-major order."""
    return np.array([t.array for t in tables], np.uint8).reshape(len(tables), n**axes)


def _like(x, n: int, forms: np.ndarray) -> list:
    """The tables of x's kind and order n whose entries, in row-major order,
    are the rows of `forms`: one conversion and one kind test per block."""
    tables = forms.astype(np.int32)
    if isinstance(x, TernaryTable):
        return list(map(TernaryTable._of, tables))
    tables = map(BinaryTable._of, tables.reshape(len(tables), n, n))
    return list(map(validate_left_quasigroup, tables) if isinstance(x, LeftQuasigroup) else tables)


@cache
def _relabelings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n! relabelings of 0..n-1 in lexicographic order, their inverses
    and the weights that read a run of relabeled entries as one number,
    all read-only and built on the first call.

    The relabelings and inverses are (n!, 8) uint8 arrays whose first n
    columns hold them: an 8-byte row moves as one word when pairs are
    gathered or compressed.  A run of `len(weights)` entries, read as one
    integer in base max(n, 2), orders runs of one length lexicographically; the
    integer is below 2^53, so a float64 dot product (BLAS) computes it
    exactly.
    """
    count = math.factorial(n)
    perms = np.zeros((count, MAX_CANONICAL_ORDER), np.uint8)
    flat = np.fromiter(chain.from_iterable(permutations(range(n))), np.uint8, count * n)
    perms[:, :n] = flat.reshape(count, n)
    inverses = np.zeros_like(perms)
    rows = np.arange(count)
    for v in range(n):
        inverses[rows, perms[:, v]] = v
    base, group = max(n, 2), 1
    while base ** (group + 1) <= 2**53:
        group += 1
    weights = float(base) ** np.arange(group - 1, -1, -1)
    perms.flags.writeable = inverses.flags.writeable = weights.flags.writeable = False
    return perms, inverses, weights


@cache
def _cells(n: int, axes: int) -> np.ndarray:
    """Read-only (axes, n^axes) array: column j holds the coordinates of
    cell j in row-major order."""
    cells = np.indices((n,) * axes, np.uint8).reshape(axes, -1)
    cells.flags.writeable = False
    return cells


def _least_forms(tables: np.ndarray, n: int, axes: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms and automorphism counts of a stack of tables,
    refined in chunks of max(1, `CANON_BLOCK` // n!) whole tables."""
    forms = np.empty_like(tables)
    auts = np.empty(len(tables), np.int64)
    step = max(1, CANON_BLOCK // math.factorial(n))
    for start in range(0, len(tables), step):
        chunk = slice(start, start + step)
        forms[chunk], auts[chunk] = _refine(tables[chunk], n, axes)
    return forms, auts


def _refine(tables, n, axes) -> tuple[np.ndarray, np.ndarray]:
    """Forms and automorphism counts of a chunk of tables, refined over all
    their (table, relabeling) pairs.

    The pairs are taken table by table, so each table's pairs are one run,
    starting at `heads`.  Per block, a pair survives only while its row
    equals the least row of its own table.  A relabeling s takes entry
    T[i, j, k] to s[T[s^-1 i, s^-1 j, s^-1 k]].
    """
    perms, inverses, weights = _relabelings(n)
    tab = np.repeat(np.arange(len(tables)), len(perms))
    rows = np.tile(np.arange(0, perms.size, perms.shape[1]), len(tables))  # each pair's start in perms.flat
    inverses = np.tile(inverses, (len(tables), 1))
    heads = _heads(tab)
    cells = _cells(n, axes)
    forms = np.empty_like(tables)
    size = tables.shape[1]
    group = len(weights)
    start = 0
    while start < size:
        count = len(tab)
        stop = min(size, start + max(1, CANON_BLOCK // count))
        block = cells[:, start:stop]
        index = inverses[:, block[0]].astype(np.intp)
        for axis in block[1:]:
            index *= n
            index += inverses[:, axis]
        if len(heads) > 1:
            index += tab[:, None] * size
        entries = tables.reshape(-1)[index]
        values = perms.reshape(-1)[entries + rows[:, None]]
        if count > len(heads):
            keep = np.ones(count, bool)
            for j in range(0, stop - start, group):
                run = values[:, j : j + group]
                keys = np.dot(run, weights[group - run.shape[1] :])
                if len(heads) == 1:
                    keep &= keys == keys[keep].min()
                else:
                    least = np.minimum.reduceat(np.where(keep, keys, np.inf), heads)
                    keep &= keys == least[tab]
            if not keep.all():
                # compress, not a boolean index: far cheaper on short rows
                tab, rows, inverses, values = (a.compress(keep, 0) for a in (tab, rows, inverses, values))
                if len(heads) > 1:
                    heads = _heads(tab)
        # Every table keeps at least one pair.
        forms[:, start:stop] = values[heads]
        start = stop
    return forms, np.bincount(tab, minlength=len(tables))


def _heads(tab: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the sorted array `tab` starts."""
    if tab[0] == tab[-1]:
        return np.zeros(1, np.intp)
    starts = np.ones(len(tab), bool)
    np.not_equal(tab[1:], tab[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _census_tables(tables, L: LeftQuasigroup, pi: Bijection) -> tuple[int, int, list]:
    """Total, M1-and-M2 count and disagreeing rows of the census over `tables`,
    read in stacks of as many tables as one slab of a four-variable check
    holds; each column of a stack is decided by one stacked verdict."""
    n = L.order
    tables = iter(tables)
    total = num_m1m2 = 0
    disagreements = []
    while stack := list(islice(tables, max(1, SLAB_POINTS // n**4))):
        T, mu = len(stack), np.stack([M.array for M in stack])
        m1, m2, b = (check_stack(ident, ("mu",), T, n=n, mu=mu)
                     for ident in (_TERNARY["M1"], _TERNARY["M2"], _BRAID))
        m12 = m1 & m2
        q = check_stack(_QDYBE, ("r",), T, n=n, h=n, phi=L.array, r=_dyb_pairs(L, mu, pi))
        total += T
        num_m1m2 += int(m12.sum())
        for t in np.flatnonzero((m12 != q) | (q != b)):
            disagreements.append((mu[t].tolist(), bool(m12[t]), bool(q[t]), bool(b[t])))
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
    Exhaustive up to the bound of the exhaustive ternary search; pass
    `sample` for a seeded random census at larger orders.  L and pi must be
    of order n (OrderMismatch).
    """
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be >= 0, got {sample}")
    if L is None:
        L = validate_left_quasigroup(
            BinaryTable.from_rows([[(u + v) % n for v in range(n)] for u in range(n)])
        )
    if pi is None:
        pi = Bijection.identity(n)
    if not L.order == n == pi.order:
        raise OrderMismatch(f"orders differ: L={L.order}, M={n}, pi={pi.order}")
    t0 = time.perf_counter()
    if sample is None:
        _bounded("ternary-m1m2", "exhaustive", n, "; pass sample=")
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
