import hashlib
import math
import random
import re
from functools import cache
from itertools import chain, islice, permutations, product

import numpy as np
import pytest
from conftest import TABLE1, cyclic, shift

from dybmaps import (
    Bijection,
    BinaryTable,
    LeftQuasigroup,
    OrderMismatch,
    OrderTooLarge,
    TernaryTable,
    canonicalize,
    census_theorem31,
    check_ternary_condition,
    classify_structure,
    enumerate_left_quasigroups,
    enumerate_quasigroups,
    make_constant_mu,
    make_mu_g,
    satisfies_m1m2,
    search_structures,
    search_ternary_M1M2,
    validate_left_quasigroup,
)
from dybmaps import Triple, braid_check, build_dyb, kernel, search, verify_qdybe
from dybmaps.search import _ternary_backtracking

#: Number of order-2 ternary tables passing both defining identities,
#: pinned by this implementation's exhaustive 256-table scan.
M1M2_COUNT_N2 = 25


def test_left_quasigroup_counts():
    assert sum(1 for _ in enumerate_left_quasigroups(1)) == 1
    assert sum(1 for _ in enumerate_left_quasigroups(2)) == 4
    assert sum(1 for _ in enumerate_left_quasigroups(3)) == 216


def test_left_quasigroup_stream_is_lexicographic_and_valid():
    seen = [L.rows for L in enumerate_left_quasigroups(2)]
    assert seen == sorted(seen)
    for L in enumerate_left_quasigroups(2):
        for u, v in product(range(2), repeat=2):
            assert L.mul(u, L.left_div(u, v)) == v


def test_left_quasigroup_order_guard():
    with pytest.raises(OrderTooLarge):
        next(enumerate_left_quasigroups(5))


def test_quasigroup_counts_and_cross_check():
    assert sum(1 for _ in enumerate_quasigroups(1)) == 1
    assert sum(1 for _ in enumerate_quasigroups(2)) == 2
    squares = [q.rows for q in enumerate_quasigroups(3)]
    assert len(squares) == 12
    assert TABLE1.rows in squares
    filtered = [
        L.rows
        for L in enumerate_left_quasigroups(3)
        if classify_structure(L.base).is_quasigroup
    ]
    assert sorted(squares) == sorted(filtered)
    with pytest.raises(OrderTooLarge):
        next(enumerate_quasigroups(6))


def reference_quasigroups(n):
    """The row-wise walk the integer masks replaced, kept as the reference:
    it scans a set of used values per column for every permutation."""
    perms = list(permutations(range(n)))
    rows = []
    used = [set() for _ in range(n)]

    def walk(depth):
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


@pytest.mark.parametrize("n, items", [(1, None), (2, None), (3, None), (4, None), (5, 1000)])
def test_quasigroup_stream_matches_the_set_scan(n, items):
    got = list(islice(enumerate_quasigroups(n), items))
    assert got == list(islice(reference_quasigroups(n), items))
    assert items is None or len(got) == items


def test_ternary_search_counts_and_mode_agreement():
    ex = search_ternary_M1M2(2, "exhaustive")
    bt = search_ternary_M1M2(2, "backtracking")
    assert ex.total == bt.total == M1M2_COUNT_N2
    assert [m.table for m in ex.tables] == [m.table for m in bt.tables]
    assert ex.complete and bt.complete
    one = search_ternary_M1M2(1, "exhaustive")
    assert one.total == 1


def rescan_consistent(tab, n):
    """True unless some fully determined M1 or M2 instance fails; -1 marks
    an unset cell.  The reference rescans every instance at every node."""
    for a, b, c, d in product(range(n), repeat=4):
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


def rescan_backtracking(n):
    """The reference walk: the same cell order, pruning only where a rescan
    finds a failing instance, with no watch lists and no domains."""
    size = n**3
    tab = [-1] * size
    cell = 0
    while cell >= 0:
        tab[cell] += 1
        if tab[cell] == n:
            tab[cell] = -1
            cell -= 1
        elif rescan_consistent(tab, n):
            if cell < size - 1:
                cell += 1
                yield None
            else:
                yield TernaryTable(n, tuple(tab))


def walk_nodes(walk, items=None, last=None):
    """The nodes a walk yields, each as the tuple of its set cells: an inner
    node's prefix, read from the generator's frame, or a table's entries.
    Stops after `items` items, or before the first node above `last`."""
    nodes = []
    for item in islice(walk, items):
        if item is None:
            state = walk.gi_frame.f_locals
            node = tuple(state["tab"][: state["cell"]])
        else:
            node = item.table
        if last is not None and node > last:
            break
        nodes.append(node)
    return nodes


@cache
def rescan_nodes(n, items):
    """The first `items` nodes of the rescan walk, and the same stretch of
    the forward-checking walk.  A walk is depth first with values in
    increasing order, so it yields its nodes in lexicographic order of
    their tuples, and the stretch ends at the rescan's last node."""
    want = walk_nodes(rescan_backtracking(n), items)
    got = walk_nodes(_ternary_backtracking(n), last=want[-1] if items else None)
    return want, got


@pytest.mark.parametrize("n, items", [(1, None), (2, None), (3, 20_000)])
def test_watched_walk_matches_the_rescan_node_for_node(n, items):
    # Forward checking prunes some inner nodes the rescan walk visits, so
    # the two agree on the tables and their order, not on every node.
    want, got = rescan_nodes(n, items)
    size = n**3
    assert [x for x in got if len(x) == size] == [x for x in want if len(x) == size]
    assert items is None or len(want) == items
    assert any(len(x) < size for x in got) == (n > 1)


@pytest.mark.parametrize("n, items", [(2, None), (3, 20_000)])
def test_every_inner_node_is_one_of_the_rescan_walk_in_order(n, items):
    want, got = rescan_nodes(n, items)
    rest = iter(want)
    assert all(node in rest for node in got)  # a subsequence of want
    assert len(got) < len(want)


@pytest.mark.parametrize("n, items", [(2, None), (3, 3000)])
def test_domains_lose_only_values_that_fail_an_instance(n, items):
    # At every inner node each set cell holds a value of its domain, and
    # each value missing from an unset cell's domain makes some fully
    # determined M1 or M2 instance fail.
    walk = _ternary_backtracking(n)
    trimmed = 0
    for item in islice(walk, items):
        if item is not None:
            continue
        state = walk.gi_frame.f_locals
        tab, dom, cell = state["tab"], state["dom"], state["cell"]
        assert all(dom[c] >> tab[c] & 1 for c in range(cell))
        for c, v in product(range(cell, n**3), range(n)):
            if not dom[c] >> v & 1:
                trimmed += 1
                assert not rescan_consistent([*tab[:c], v, *tab[c + 1 :]], n)
    assert trimmed > 0


@pytest.mark.parametrize("n, items", [(2, None), (3, 3000)])
def test_watch_lists_hold_exactly_the_blocked_instances(monkeypatch, n, items):
    # At every inner node, each listed instance is still blocked and sits
    # once on the list of the cell its probe stops at.  A blocked instance
    # that is on no list was retired: it holds for every value left in the
    # domain of that cell.
    made = {}  # each probe of the walk: (declaration, point)

    def recorded(ident, **env):
        at = kernel.probe(ident, **env)

        def instance(*point):
            x = at(*point)
            made[x] = (ident, point)
            return x

        return instance

    monkeypatch.setattr(search, "probe", recorded)
    walk = _ternary_backtracking(n)
    retired = 0
    for item in islice(walk, items):
        if item is not None:
            continue
        state = walk.gi_frame.f_locals
        tab, watch, dom, cell = state["tab"], state["watch"], state["dom"], state["cell"]
        listed = {}
        for j in range(cell, n**3):
            for x in watch[j]:
                assert x not in listed and x() == j
                listed[x] = j
        for x, (ident, point) in made.items():
            j = kernel.probe(ident, mu=tab, n=n)(*point)()
            if x in listed:
                assert listed[x] == j
            elif j >= 0:
                retired += 1
                for v in range(n):
                    if dom[j] >> v & 1:
                        at = kernel.probe(ident, mu=[*tab[:j], v, *tab[j + 1 :]], n=n)(*point)
                        assert at() == kernel.HOLDS
    assert len(made) == 2 * n**4
    assert retired > 0


def test_nodes_count_every_item_of_the_stream():
    # values of the forward-checking walk, read under the same collector;
    # the rescan walk yields 121 in place of 117 and 404 in place of 388
    assert search_ternary_M1M2(1, "backtracking").nodes == 1
    assert search_ternary_M1M2(2, "backtracking").nodes == 117
    assert search_ternary_M1M2(2, "backtracking", limit=10).nodes == 42
    assert search_ternary_M1M2(3, "backtracking", limit=120).nodes == 388
    assert search_ternary_M1M2(2, "exhaustive").nodes == M1M2_COUNT_N2
    assert search_structures("quasigroups", 3, limit=5).nodes == 6


def test_order_3_stream_to_8000_tables_is_pinned():
    # The search that perfbench's enumerate workload times: the walk must
    # reach the same 8,000 tables, in the same order, through the same nodes.
    rep = search_ternary_M1M2(3, "backtracking", limit=8000)
    assert (rep.total, rep.nodes, rep.complete) == (8000, 43930, False)
    digest = hashlib.sha256(bytes(chain.from_iterable(t.table for t in rep.tables))).hexdigest()
    assert digest == "22bb6b8045920e7f1cd0ffe7d7e245910ab68ee2ca3103efdc81ab170f2bbe7d"


def test_ternary_search_closure_at_order_2():
    found = {m.table for m in search_ternary_M1M2(2, "exhaustive").tables}
    for flat in product(range(2), repeat=8):
        assert (flat in found) == satisfies_m1m2(TernaryTable.from_flat(2, flat))


def test_known_families_appear_in_order2_search():
    found = {m.table for m in search_ternary_M1M2(2, "exhaustive").tables}
    Z2 = cyclic(2)
    for variant in (1, 2, 3):
        assert make_mu_g(Z2, variant).table in found
    for f in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert make_constant_mu(2, f, "first").table in found
        assert make_constant_mu(2, f, "third").table in found
    for f in ([0, 0], [0, 1], [1, 1]):  # the idempotent self-maps of 2 points
        assert make_constant_mu(2, f, "middle").table in found


def test_ternary_search_limits_and_deadline():
    limited = search_ternary_M1M2(2, "backtracking", limit=10)
    assert limited.total == 10 and not limited.complete
    sample = search_ternary_M1M2(3, "backtracking", limit=120)
    assert sample.total == 120 and not sample.complete
    for M in sample.tables[:20]:
        assert satisfies_m1m2(M)
    timed = search_ternary_M1M2(3, "backtracking", deadline=0.0)
    assert not timed.complete
    with pytest.raises(OrderTooLarge):
        search_ternary_M1M2(3, "exhaustive")
    with pytest.raises(OrderTooLarge):
        search_ternary_M1M2(4, "backtracking")
    with pytest.raises(ValueError):
        search_ternary_M1M2(2, "magic")


def test_modes_agree_at_every_limit_at_order_2():
    for limit in range(M1M2_COUNT_N2 + 2):
        ex = search_ternary_M1M2(2, "exhaustive", limit=limit)
        bt = search_ternary_M1M2(2, "backtracking", limit=limit)
        assert [m.table for m in ex.tables] == [m.table for m in bt.tables]
        assert ex.total == bt.total == min(limit, M1M2_COUNT_N2)
        assert ex.complete == bt.complete == (limit >= M1M2_COUNT_N2)


#: Every (target, mode) pair a search can run, each at the largest order it
#: allows, so a deadline check that only some paths make shows up.
SEARCH_PATHS = [(target, mode, run.max_order) for target, modes in search.SEARCHES.items()
                for mode, run in modes.items()]


@pytest.mark.parametrize("target, mode, n", SEARCH_PATHS)
def test_zero_deadline_is_incomplete_on_every_path(target, mode, n):
    for order in (1, n):
        rep = search_structures(target, order, mode=mode, deadline=0.0)
        assert not rep.complete and rep.total == 0


@pytest.mark.parametrize("target, mode, n", SEARCH_PATHS)
def test_negative_and_nan_deadlines_are_errors_on_every_path(target, mode, n):
    for deadline in (-1.0, -1e-9, -math.inf, math.nan):
        with pytest.raises(ValueError, match="deadline must be >= 0"):
            search_structures(target, n, mode=mode, deadline=deadline)


@pytest.mark.parametrize("target, mode, n", SEARCH_PATHS)
def test_order_zero_is_an_error_on_every_path(target, mode, n):
    with pytest.raises(ValueError, match="order must be >= 1"):
        search_structures(target, 0, mode=mode)


@pytest.mark.parametrize("target, mode, n", SEARCH_PATHS)
def test_limit_zero_and_negative_limits_on_every_path(target, mode, n):
    rep = search_structures(target, n, mode=mode, limit=0)
    assert rep.total == 0 and not rep.complete
    with pytest.raises(ValueError):
        search_structures(target, n, mode=mode, limit=-1)


@pytest.mark.parametrize("target, own, other", [
    ("left-quasigroups", "exhaustive", "backtracking"),
    ("quasigroups", "backtracking", "exhaustive"),
])
def test_search_structures_mode_is_the_targets_own_or_an_error(target, own, other):
    assert search_structures(target, 2).mode == own
    assert search_structures(target, 2, mode=own).mode == own
    with pytest.raises(ValueError):
        search_structures(target, 2, mode=other)


def test_search_structures_targets():
    rep = search_structures("left-quasigroups", 2)
    assert rep.total == 4
    rep = search_structures("quasigroups", 3, up_to_iso=True)
    assert rep.total == 12
    assert rep.up_to_iso <= rep.total
    rep = search_structures("ternary-m1m2", 2, mode="backtracking")
    assert rep.total == M1M2_COUNT_N2
    with pytest.raises(ValueError):
        search_structures("rings", 2)


def test_an_unhashable_target_or_mode_is_unknown():
    for target, mode in ((["rings"], None), ("quasigroups", ["backtracking"]), ("ternary-m1m2", {})):
        with pytest.raises(ValueError, match="unknown search target|is searched in"):
            search_structures(target, 2, mode=mode)


def test_canonicalize_projection_fixed_by_all_relabelings():
    M = make_constant_mu(2, [0, 1], "first")
    canon, aut = canonicalize(M)
    assert aut == 2
    again, _ = canonicalize(canon)
    assert again.table == canon.table


def test_canonicalize_identifies_relabeled_tables():
    sigma = (1, 2, 0)
    relabeled = [[0] * 3 for _ in range(3)]
    for u, v in product(range(3), repeat=2):
        relabeled[sigma[u]][sigma[v]] = sigma[TABLE1.rows[u][v]]
    a, _ = canonicalize(TABLE1.base)
    b, _ = canonicalize(BinaryTable.from_rows(relabeled))
    assert a.rows == b.rows
    one, aut = canonicalize(TernaryTable.from_flat(1, [0]))
    assert one.table == (0,) and aut == 1


def test_canonicalize_equivalences_exhaustively_at_order_2():
    # equal canonical forms iff related by a relabeling
    tables = [TernaryTable.from_flat(2, flat) for flat in product(range(2), repeat=8)]
    canon = {t.table: canonicalize(t)[0].table for t in tables}

    def relabel(t, sigma):
        inv = [0, 0]
        for i, s in enumerate(sigma):
            inv[s] = i
        return tuple(
            sigma[t.mu(inv[a], inv[b], inv[c])]
            for a, b, c in product(range(2), repeat=3)
        )

    for t in tables[:64]:
        orbit = {relabel(t, (0, 1)), relabel(t, (1, 0))}
        for other in tables[:64]:
            same = canon[t.table] == canon[other.table]
            assert same == (other.table in orbit)


def test_canonicalize_guards():
    with pytest.raises(OrderTooLarge):
        canonicalize(TernaryTable.from_flat(9, [0] * 729))
    with pytest.raises(TypeError):
        canonicalize([[0]])


def reference_canonicalize(x):
    """The n!-scan `canonicalize` replaced, kept as the reference: the
    least relabeling of x as a table of x's kind, the number of
    relabelings that fix x, and the index, in lexicographic order, of the
    first relabeling that gives the least one."""
    if isinstance(x, TernaryTable):
        n = x.order
        arr = np.array(x.table, dtype=np.int64).reshape(n, n, n)
    else:
        base = x.base if isinstance(x, LeftQuasigroup) else x
        n = base.order
        arr = np.array(base.rows, dtype=np.int64)
    orig = arr.tobytes()
    best = best_bytes = first = None
    aut = 0
    for i, perm in enumerate(permutations(range(n))):
        sigma = np.array(perm, dtype=np.int64)
        inv = np.empty(n, dtype=np.int64)
        inv[sigma] = np.arange(n)
        cand = sigma[arr[np.ix_(*[inv] * arr.ndim)]]
        cb = cand.tobytes()
        if cb == orig:
            aut += 1
        if best_bytes is None or cb < best_bytes:
            best_bytes, best, first = cb, cand, i
    flat = [int(v) for v in best.ravel()]
    if isinstance(x, TernaryTable):
        canon = TernaryTable(n, tuple(flat))
    else:
        canon = BinaryTable(tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))
        if isinstance(x, LeftQuasigroup):
            canon = validate_left_quasigroup(canon)
    return canon, aut, first


def assert_canonical_as_reference(x):
    canon, aut = canonicalize(x)
    want, want_aut, _ = reference_canonicalize(x)
    assert type(canon) is type(want)
    assert (canon, aut) == (want, want_aut)


def relabel_ternary(t: TernaryTable, sigma) -> TernaryTable:
    inv = [0] * t.order
    for i, s in enumerate(sigma):
        inv[s] = i
    return TernaryTable.from_function(t.order, lambda a, b, c: sigma[t.mu(inv[a], inv[b], inv[c])])


def relabel_binary(t: BinaryTable, sigma) -> BinaryTable:
    rows = [[0] * t.order for _ in range(t.order)]
    for u, v in product(range(t.order), repeat=2):
        rows[sigma[u]][sigma[v]] = sigma[t.rows[u][v]]
    return BinaryTable.from_rows(rows)


def random_left_quasigroup(rng, n):
    return validate_left_quasigroup(BinaryTable(tuple(tuple(rng.sample(range(n), n)) for _ in range(n))))


def random_tables(rng, n):
    """A ternary table, one over two values only (more ties), a binary
    table and a left quasigroup of order n."""
    yield TernaryTable(n, tuple(rng.randrange(n) for _ in range(n**3)))
    yield TernaryTable(n, tuple(rng.randrange(min(n, 2)) for _ in range(n**3)))
    yield BinaryTable(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
    yield random_left_quasigroup(rng, n)


# Block sizes far below the default split orders 3-6 into many blocks of
# one or a few cells, so ties are met at every order.  The ids are the
# names these cases have had since a chunk size was set beside the block;
# they are kept so that each case stays traceable by name.
@pytest.mark.parametrize("block", [
    pytest.param(None, id="None-None"),
    pytest.param(5, id="7-5"),
    pytest.param(1, id="1-1"),
    pytest.param(2, id="100-2"),
])
def test_canonicalize_matches_the_scan_on_random_tables(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(search, "CANON_BLOCK", block)
    rng = random.Random(f"canonical/{block}")
    for n in range(1, 7):
        for _ in range(4 if n < 6 else 1):
            for x in random_tables(rng, n):
                assert_canonical_as_reference(x)


@pytest.mark.parametrize("n", range(1, 9))
def test_forms_and_automorphism_counts_do_not_depend_on_the_block(monkeypatch, n):
    # The default holds several tables to a chunk up to order 6 (two chunks
    # of these 14 at order 6); blocks 1 and 5 hold at most five, and one
    # from order 3 on.
    rng = random.Random(f"blocks/{n}")
    drawn = [list(random_tables(rng, n)) for _ in range(6 if n < 7 else 1)]
    # Each stack opens with a table that every relabeling fixes.
    stacks = [
        [make_constant_mu(n, range(n), "first"), make_mu_g(cyclic(n), 1), *(d[k] for d in drawn for k in (0, 1))],
        [BinaryTable.from_rows([[u] * n for u in range(n)]), cyclic(n).base, *(d[k] for d in drawn for k in (2, 3))],
    ]
    for tables, axes in zip(stacks, (3, 2)):
        stack = search._stack(tables, n, axes)
        results = []
        for block in (None, 1, 5):
            if block is not None:
                monkeypatch.setattr(search, "CANON_BLOCK", block)
            forms, auts = search._least_forms(stack, n, axes)
            results.append((forms.tolist(), auts.tolist()))
        assert results[0] == results[1] == results[2]
        assert results[0][1][0] == math.factorial(n)


def test_canonicalize_constant_and_projection_tables():
    for n in range(1, 7):
        for f in ([0] * n, [n - 1] * n, list(range(n))):
            for position in ("first", "middle", "third"):
                assert_canonical_as_reference(make_constant_mu(n, f, position))
    assert_canonical_as_reference(make_constant_mu(7, [3] * 7, "middle"))
    assert_canonical_as_reference(make_constant_mu(7, range(7), "third"))
    # Order 8 in closed form: every relabeling fixes a projection, and the
    # constant table is fixed by the 7! relabelings that fix its value.
    # The projection's tie keeps all 8! pairs to the end.
    projection = make_constant_mu(8, range(8), "first")
    assert canonicalize(projection) == (projection, math.factorial(8))
    constant = make_constant_mu(8, [5] * 8, "third")
    assert canonicalize(constant) == (make_constant_mu(8, [0] * 8, "third"), math.factorial(7))


def test_canonicalize_least_form_found_in_the_last_chunk():
    # Only x -> 7 - x takes `late` back to the canonical form it was made
    # from, whose automorphism group is trivial; it is the last relabeling
    # of all, so the least form is reached by the last pair only.
    rng = random.Random("late")
    canon, aut = canonicalize(TernaryTable(8, tuple(rng.randrange(8) for _ in range(512))))
    late = relabel_ternary(canon, tuple(range(7, -1, -1)))
    want, want_aut, first = reference_canonicalize(late)
    assert first >= 7 * math.factorial(7)
    assert canonicalize(late) == (want, want_aut) == (canon, aut) == (canon, 1)


@pytest.mark.parametrize("n, count", [(7, 2), (8, 1)])
def test_canonicalize_relabeled_pairs(n, count):
    rng = random.Random(f"pairs/{n}")
    for k in range(count):
        t = relabel_ternary(make_mu_g(cyclic(n), 1 + k % 3), rng.sample(range(n), n))
        b = random_left_quasigroup(rng, n).base
        for x, y in ((t, relabel_ternary(t, rng.sample(range(n), n))),
                     (b, relabel_binary(b, rng.sample(range(n), n)))):
            assert canonicalize(x) == canonicalize(y)
            if n < 8:
                assert_canonical_as_reference(y)


def test_canonicalize_matches_the_scan_on_order_3_search_tables():
    tables, want = classified_search("ternary-m1m2", 3, "backtracking")
    for M, (form, aut, _) in zip(tables[:3000], want):
        assert canonicalize(M) == (form, aut)


def test_classification_time_is_reported_apart():
    plain = search_ternary_M1M2(2, "backtracking")
    assert plain.classify_s is None
    classified = search_ternary_M1M2(2, "backtracking", up_to_iso=True)
    assert classified.classify_s >= 0 and classified.up_to_iso == 17
    rep = search_structures("quasigroups", 3, up_to_iso=True)
    assert rep.classify_s >= 0 and rep.up_to_iso == 5


def cells(x) -> tuple:
    """Entries of a ternary or binary table in row-major order."""
    return x.table if isinstance(x, TernaryTable) else sum(x.rows, ())


#: Complete searches that tier-1 classifies: (target, order, mode).
CLASSIFIED = [
    ("ternary-m1m2", 3, "backtracking"),  # the first 8000 tables only
    ("left-quasigroups", 3, None),
    ("quasigroups", 4, None),
    ("ternary-m1m2", 2, "exhaustive"),
    ("ternary-m1m2", 2, "backtracking"),
]


@cache
def classified_search(target, n, mode):
    """The tables a search of CLASSIFIED finds, in stream order, and the
    per-table reference result (form, automorphism count, first index)."""
    limit = 8000 if (target, n) == ("ternary-m1m2", 3) else None
    tables = search_structures(target, n, mode=mode, limit=limit).tables
    return tables, [reference_canonicalize(t) for t in tables]


def reference_classes(forms):
    """One representative per class, in lexicographic order, deduplicated
    from per-table reference forms."""
    return list({cells(f): f for f in sorted(forms, key=cells)}.values())


# The default block, then blocks far below it, which refine one or two
# tables per chunk and about one cell at a time, so they run on a prefix
# of each search: at most `prefix` tables.  On 40 tables the default takes
# every cell in one block, and an order-3 ternary block then spans two runs
# of entries read as one number.  The ids are the names these cases have
# had since a chunk size was set beside the block; they are kept so that
# each case stays traceable by name.
@pytest.mark.parametrize("block, prefix", [
    pytest.param(None, None, id="None-None-None"),
    pytest.param(None, 40, id="None-None-40"),
    pytest.param(5, 300, id="7-5-300"),
    pytest.param(1, 40, id="1-1-40"),
    pytest.param(2, 1000, id="100-2-1000"),
])
@pytest.mark.parametrize("target, n, mode", CLASSIFIED)
def test_classification_matches_per_table_reference(monkeypatch, target, n, mode, block, prefix):
    tables, want = classified_search(target, n, mode)
    tables, want = tables[:prefix], want[:prefix]
    if block is not None:
        monkeypatch.setattr(search, "CANON_BLOCK", block)
    rep = search.SearchReport(target, n, mode, len(tables), 0.0, tables=tables)
    search._classify_up_to_iso(rep)
    classes = reference_classes([w[0] for w in want])
    assert rep.up_to_iso == len(classes)
    assert [type(r) for r in rep.representatives] == [type(c) for c in classes]
    assert rep.representatives == classes
    # Every table's form and automorphism count, not only the classes.
    order, axes = search._shape(tables[0])
    forms, auts = search._least_forms(search._stack(tables, order, axes), order, axes)
    assert [tuple(f) for f in forms.tolist()] == [cells(w[0]) for w in want]
    assert auts.tolist() == [w[1] for w in want]


@pytest.mark.parametrize("target, n, mode", CLASSIFIED)
def test_representatives_are_fixed_points_of_canonicalize(target, n, mode):
    tables, _ = classified_search(target, n, mode)
    rep = search.SearchReport(target, n, mode, len(tables), 0.0, tables=tables)
    search._classify_up_to_iso(rep)
    for r in rep.representatives:
        assert canonicalize(r)[0] == r


@pytest.mark.parametrize("target, mode, n", SEARCH_PATHS)
def test_empty_classification_on_every_path(target, mode, n):
    for rep in (search_structures(target, n, mode=mode, limit=0, up_to_iso=True),
                search_structures(target, n, mode=mode, deadline=0.0, up_to_iso=True)):
        assert rep.total == 0 and rep.up_to_iso == 0 and rep.representatives == []
        assert rep.classify_s is not None and rep.classify_s >= 0
    # Order 1: one table, one cell, one relabeling, one class.
    rep = search_structures(target, 1, mode=mode, up_to_iso=True)
    assert rep.complete and rep.total == rep.up_to_iso == 1
    assert rep.representatives == rep.tables
    assert canonicalize(rep.tables[0]) == (rep.tables[0], 1)


#: Isomorphism classes of quasigroups of orders 1-4, the published values
#: (OEIS A057991).  The left-quasigroup counts are this implementation's
#: regression values.
QUASIGROUP_CLASSES = {1: 1, 2: 1, 3: 5, 4: 35}
LEFT_QUASIGROUP_CLASSES = {1: 1, 2: 3, 3: 44}


@pytest.mark.parametrize("target, counts", [
    ("quasigroups", QUASIGROUP_CLASSES),
    ("left-quasigroups", LEFT_QUASIGROUP_CLASSES),
])
def test_class_counts_and_orbit_stabiliser(target, counts):
    for n, classes in counts.items():
        rep = search_structures(target, n, up_to_iso=True)
        assert rep.complete and rep.up_to_iso == classes
        # Each class holds n!/|Aut| labelled tables.
        assert sum(math.factorial(n) // canonicalize(r)[1] for r in rep.representatives) == rep.total


@pytest.mark.parametrize("mode", ["exhaustive", "backtracking"])
def test_orbit_stabiliser_on_the_order_2_ternary_search(mode):
    rep = search_ternary_M1M2(2, mode, up_to_iso=True)
    assert rep.complete and (rep.total, rep.up_to_iso) == (M1M2_COUNT_N2, 17)
    assert sum(2 // canonicalize(r)[1] for r in rep.representatives) == rep.total


def census_reference(tables, L, pi):
    """The census table by table, as `_census_tables` once computed it: the
    two identities, the equation on the unchecked build and the braid check."""
    total = num_m1m2 = 0
    disagreements = []
    for M in tables:
        total += 1
        m12 = satisfies_m1m2(M)
        q = bool(verify_qdybe(build_dyb(Triple(L, M, pi), checked=False)))
        b = bool(braid_check(M))
        num_m1m2 += m12
        if not (m12 == q == b):
            disagreements.append((M.array.tolist(), m12, q, b))
    return total, num_m1m2, disagreements


def as_stacks(tables):
    """The tables as the census reads them: (T, n^3) stacks of T tables."""
    T = search._stack_size(tables[0].order)
    return [np.stack([M.array for M in tables[i : i + T]]) for i in range(0, len(tables), T)]


def every_table(n):
    """All ternary tables of order n, in lexicographic order."""
    return [TernaryTable.from_flat(n, flat) for flat in product(range(n), repeat=n**3)]


def test_the_table_stacks_are_every_table_in_order():
    for n in (1, 2):
        stacks = list(search._ternary_stacks(n))
        assert [len(mu) for mu in stacks] == [n ** n**3]  # one stack holds them all
        assert all(mu.dtype == np.int32 and mu.shape[1] == n**3 for mu in stacks)
        assert [M.array.tolist() for M in every_table(n)] == np.concatenate(stacks).tolist()
        # the exhaustive search is the tables that pass both identities, in order
        passing = [M for M in every_table(n) if satisfies_m1m2(M)]
        assert search_ternary_M1M2(n, "exhaustive").tables == passing
    # order 3 (unguarded): stacks of 202 tables, each row the digits of its index
    first, second = islice(search._ternary_stacks(3), 2)
    assert len(first) == len(second) == search._stack_size(3) == 16384 // 81
    for i in (0, 1, 201, 202, 403):
        row = (first if i < 202 else second)[i % 202]
        assert row.tolist() == [i // 3 ** (26 - k) % 3 for k in range(27)]


def sampled_tables(n, sample, seed):
    """The tables `census_theorem31(n, sample=sample, seed=seed)` reads."""
    rng = random.Random(seed)
    return [TernaryTable(n, tuple(rng.randrange(n) for _ in range(n**3))) for _ in range(sample)]


@pytest.mark.parametrize("n", [1, 2])
def test_census_equals_the_table_by_table_reference_for_every_L_and_pi(n):
    tables = every_table(n)
    for L in enumerate_left_quasigroups(n):
        for p in permutations(range(n)):
            pi = Bijection.make(p)
            want = census_reference(tables, L, pi)
            assert search._census_tables(as_stacks(tables), L, pi) == want
            rep = census_theorem31(n, L=L, pi=pi)
            assert (rep.total, rep.num_m1m2, rep.disagreements) == want and rep.agree == (not want[2])


def one_cell_corruptions(tables, seed):
    rng = random.Random(seed)
    out = []
    for M in tables:
        flat = M.array.copy()
        cell = rng.randrange(len(flat))
        flat[cell] = (flat[cell] + 1 + rng.randrange(2)) % 3
        out.append(TernaryTable(3, flat))
    return out


def test_order_3_census_equals_the_table_by_table_reference():
    # A uniform sample has no table passing M1 and M2, so the positives are
    # the walk's first tables; 300 tables make two stacks.
    walked = search_ternary_M1M2(3, "backtracking", limit=150).tables
    corrupted = one_cell_corruptions(walked, 0)
    triples = [(cyclic(3), (0, 1, 2)), (shift(3), (1, 2, 0)), (TABLE1, (2, 1, 0))]
    for L, pi in ((L, Bijection.make(p)) for L, p in triples):
        for tables in (walked + corrupted, corrupted[::-1] + walked[::-1]):
            got = search._census_tables(as_stacks(tables), L, pi)
            assert got == census_reference(tables, L, pi)
            assert 150 <= got[1] < 300 and not got[2]  # some corruptions still pass
    for seed in (0, 7):
        rep = census_theorem31(3, sample=250, seed=seed)
        want = census_reference(sampled_tables(3, 250, seed), cyclic(3), Bijection.identity(3))
        assert (rep.total, rep.num_m1m2, rep.disagreements) == want and rep.agree


def test_census_exhaustive_n2():
    rep = census_theorem31(2)
    assert rep.total == 256
    assert rep.num_m1m2 == M1M2_COUNT_N2
    assert rep.agree and not rep.disagreements


def test_census_n1():
    rep = census_theorem31(1)
    assert rep.total == 1 and rep.num_m1m2 == 1 and rep.agree


def test_census_holds_for_projection_weight_structure():
    rep = census_theorem31(2, L=shift(2))
    assert rep.total == 256 and rep.agree


def test_census_sampled_order3():
    rep = census_theorem31(3, sample=50, seed=0)
    assert rep.total == 50 and rep.mode == "sample"
    assert rep.agree
    again = census_theorem31(3, sample=50, seed=0)
    assert rep.num_m1m2 == again.num_m1m2


def test_census_sample_size_is_not_negative():
    with pytest.raises(ValueError, match="sample must be >= 0"):
        census_theorem31(3, sample=-5)
    rep = census_theorem31(3, sample=0)
    assert (rep.mode, rep.total, rep.num_m1m2, rep.agree) == ("sample", 0, 0, True)


def test_census_refuses_an_L_or_pi_of_another_order_before_any_table(monkeypatch):
    monkeypatch.setattr(search, "_census_tables", None)  # the census loop would raise TypeError
    for kwargs, message in [({"L": cyclic(2)}, "L=2, M=3, pi=3"), ({"pi": Bijection.identity(4)}, "L=3, M=3, pi=4")]:
        for sample in (0, 5, None):
            with pytest.raises(OrderMismatch, match=f"^orders differ: {re.escape(message)}$"):
                census_theorem31(3, sample=sample, **kwargs)


def test_census_order_guard():
    with pytest.raises(OrderTooLarge):
        census_theorem31(3)


def test_each_entry_point_guards_the_order_once(monkeypatch):
    calls = []
    bounded = search._bounded
    monkeypatch.setattr(search, "_bounded", lambda *args: calls.append(args[:3]) or bounded(*args))
    search_structures("left-quasigroups", 2)
    search_structures("quasigroups", 3)
    search_ternary_M1M2(2, "backtracking")
    list(enumerate_left_quasigroups(2))
    list(enumerate_quasigroups(2))
    census_theorem31(2)
    census_theorem31(3, sample=1)
    assert calls == [
        ("left-quasigroups", "exhaustive", 2), ("quasigroups", "backtracking", 3),
        ("ternary-m1m2", "backtracking", 2), ("left-quasigroups", "exhaustive", 2),
        ("quasigroups", "backtracking", 2), ("ternary-m1m2", "exhaustive", 2),
    ]
    # the census refuses through the same guard, and names the way out
    with pytest.raises(OrderTooLarge, match=r"^n\^\(n\^3\) growth; refusing n = 3; pass sample=$"):
        census_theorem31(3)
    with pytest.raises(OrderTooLarge, match=r"^\(n!\)\^n growth; refusing n = 5$"):
        enumerate_left_quasigroups(5)
