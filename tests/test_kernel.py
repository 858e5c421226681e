"""The identity kernel: loop and slab evaluators, lexicographic witnesses."""

import dataclasses
import random
from itertools import product

import pytest
from conftest import cyclic, lq

from dybmaps import (
    BINARY_CONDITIONS,
    TERNARY_CONDITIONS,
    Bijection,
    TernaryTable,
    Triple,
    braid_check,
    build_correspondence,
    build_dyb,
    check_binary_condition,
    check_D_class,
    check_ternary_condition,
    classify_structure,
    conjugation_selfcheck,
    eval_xi,
    is_D_morphism,
    is_ternary_hom,
    make_constant_mu,
    make_mu_g,
    search_ternary_M1M2,
    verify_braiding,
    verify_invariance,
    verify_irf_irf,
    verify_qdybe,
    verify_unitary,
)
from dybmaps import binary, correspondence, engine, kernel, ternary
from dybmaps.engine import DynamicalMap
from dybmaps.kernel import FlatTable, Identity


def declared_identities() -> set:
    found = set()
    for mod in (binary, ternary, engine, correspondence):
        for value in vars(mod).values():
            for item in value.values() if isinstance(value, dict) else (value,):
                for x in item if isinstance(item, tuple) else (item,):
                    if isinstance(x, Identity):
                        found.add(x)
    return found


def random_lq(rng, n):
    rows = []
    for _ in range(n):
        row = list(range(n))
        rng.shuffle(row)
        rows.append(row)
    return lq(rows)


def corrupted(rng, table):
    """The table with one cell moved to another value."""
    t = list(table.table)
    i = rng.randrange(len(t))
    t[i] = (t[i] + rng.randrange(1, table.order)) % table.order
    return TernaryTable.from_flat(table.order, t)


def with_one_pair_changed(rng, R):
    r = [[list(row) for row in rows] for rows in R.r]
    lam, u, v = (rng.randrange(R.set_order) for _ in range(3))
    eta, xi = r[lam][u][v]
    r[lam][u][v] = ((eta + 1) % R.set_order, xi)
    return DynamicalMap(R.phi, tuple(tuple(tuple(row) for row in rows) for rows in r))


def every_check(n, seed):
    """Public results of every exhaustive check on seeded tables of order n:
    random ones, valid ones and valid ones with one cell corrupted."""
    rng = random.Random(f"{n}/{seed}")
    G = cyclic(n)
    L = random_lq(rng, n)
    pi = Bijection.make(rng.sample(range(n), n))
    valid = make_mu_g(G, 1)
    tables = [
        TernaryTable.from_flat(n, [rng.randrange(n) for _ in range(n**3)]),
        valid,
        corrupted(rng, valid),
    ]
    out = [classify_structure(H.base) for H in (G, L)]
    out += [check_binary_condition(H, c) for H in (G, L) for c in BINARY_CONDITIONS]
    for M in tables:
        out += [check_ternary_condition(M, c) for c in TERNARY_CONDITIONS]
        out += [braid_check(M), is_ternary_hom(pi, M, M)]
        for H in (G, L):
            R = build_dyb(Triple(H, M, pi), checked=False)
            for S in (R, with_one_pair_changed(rng, R)):
                out += [verify_qdybe(S), verify_braiding(S), verify_unitary(S)]
                out += [verify_invariance(S)] + [check_D_class(S, c) for c in engine.D_CLASSES]
                out.append(is_D_morphism(pi, (H, R), (H, S)))
            out.append(conjugation_selfcheck(Triple(H, M, pi)))
    inst = build_correspondence(L, G, valid, pi, Bijection.identity(n))
    J = [[list(row) for row in rows] for rows in inst.J]
    J[0][0][0], J[0][n - 1][n - 1] = J[0][n - 1][n - 1], J[0][0][0]
    J = tuple(tuple(tuple(row) for row in rows) for rows in J)
    out += [verify_irf_irf(inst), verify_irf_irf(dataclasses.replace(inst, J=J))]
    return out


def test_loop_and_slab_evaluators_agree_on_every_identity(monkeypatch):
    seen = set()
    results = {}
    for name, evaluate in (("loop", kernel._loop_first), ("slab", kernel._slab_first)):

        def first_failure(ident, env, evaluate=evaluate):
            seen.add(ident)
            return evaluate(ident, env)

        monkeypatch.setattr(kernel, "_first_failure", first_failure)
        results[name] = [every_check(n, seed) for n in range(2, 9) for seed in range(2)]
    # verdicts, witnesses and labels (and the booleans of the boolean checks)
    assert results["loop"] == results["slab"]
    flat = [r for case in results["loop"] for r in case]
    assert any(r is False or getattr(r, "holds", True) is False for r in flat)
    assert seen == declared_identities()


@pytest.fixture(scope="module")
def loop_results():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_first_failure", kernel._loop_first)
        return [every_check(n, seed) for n in range(2, 9) for seed in range(2)]


@pytest.mark.parametrize("budget", [1, 7, 64, 1000])
def test_slabs_of_every_cut_agree_with_the_loop(monkeypatch, loop_results, budget):
    # At the default budget every grid of orders 2-8 fits in one slab; these
    # budgets fix one or two leading variables and cut the next, unevenly.
    monkeypatch.setattr(kernel, "SLAB_POINTS", budget)
    monkeypatch.setattr(kernel, "_first_failure", kernel._slab_first)
    assert [every_check(n, seed) for n in range(2, 9) for seed in range(2)] == loop_results


def test_slabs_fix_the_fewest_leading_variables_and_never_cut_the_last(monkeypatch):
    monkeypatch.setattr(kernel, "SLAB_POINTS", 16384)
    assert kernel._cut((16, 16, 16, 16)) == (0, 4)
    assert kernel._cut((28, 28, 28, 28)) == (1, 20)
    assert kernel._cut((100, 100, 100, 100)) == (1, 1)
    assert kernel._cut((5, 200, 200)) == (1, 81)
    assert kernel._cut((40000,)) == (0, 40000)
    monkeypatch.setattr(kernel, "SLAB_POINTS", 1)
    assert kernel._cut((3, 4, 5, 6)) == (2, 1)
    assert kernel._cut((3, 4)) == (0, 1)


@pytest.mark.parametrize("budget", [1, 7, 64, 16384])
def test_a_last_variable_over_h_reads_single_entries(monkeypatch, budget):
    # t(a, b, c) strides by n, but c ranges over h < n: whole rows of n
    # would not line up with the grid, so a slab must not gather them.
    monkeypatch.setattr(kernel, "SLAB_POINTS", budget)
    n, h = 6, 4
    cell = Identity("a b c:h", "t(a, b, c) == s(a, b)")
    t = [0] * n**3
    for a, b, c in [(0, 0, 5), (1, 2, 3), (3, 0, 0)]:
        t[(a * n + b) * n + c] = 1
    env = {"n": n, "h": h, "t": tuple(t), "s": (0,) * n**2}
    assert kernel._slab_first(cell, env) == kernel._loop_first(cell, env) == (1, 2, 3)


def reference_witness(n, k, fails):
    return next((w for w in product(range(n), repeat=k) if fails(*w)), None)


def test_planted_witnesses_come_out_lexicographically_first():
    n = 16
    cell = Identity("a b c d", "t(a, b, c, d) == 0")
    for planted in ([(12, 0, 0, 0), (9, 3, 0, 5), (9, 3, 1, 0)], [(15, 15, 15, 15)]):
        t = [0] * n**4
        for a, b, c, d in planted:
            t[((a * n + b) * n + c) * n + d] = 1
        env = {"n": n, "t": FlatTable(t)}
        assert kernel._slab_first(cell, env) == min(planted)
        assert kernel._loop_first(cell, env) == min(planted)
        assert kernel.check(cell, "cell", **env).witness == min(planted)
    # a three-variable grid whose slabs hold several values of the first variable
    n = 20
    assert kernel.SLAB_POINTS // n**2 > 1
    cell = Identity("a b c", "t(a, b, c) == 0")
    t = [0] * n**3
    for a, b, c in [(19, 0, 0), (13, 5, 1), (13, 0, 19)]:
        t[(a * n + b) * n + c] = 1
    assert kernel._slab_first(cell, {"n": n, "t": tuple(t)}) == (13, 0, 19)


@pytest.mark.parametrize("last", [False, True])
def test_corrupted_cyclic_table_of_order_16_gives_the_first_witness(last):
    n = 16
    valid = make_mu_g(cyclic(n), 1)
    t = list(valid.table)
    i = len(t) - 1 if last else (9 * n + 4) * n + 11
    t[i] = (t[i] + 1) % n
    M = TernaryTable.from_flat(n, t)
    mu = M.mu
    for cond, fails in (
        ("M1", lambda a, b, c, d: mu(a, mu(a, b, c), mu(mu(a, b, c), c, d)) != mu(a, b, mu(b, c, d))),
        ("M2", lambda a, b, c, d: mu(mu(a, b, c), c, d) != mu(mu(a, b, mu(b, c, d)), mu(b, c, d), d)),
        ("A31", lambda a, b, c, d: mu(a, b, c) != mu(d, b, mu(a, d, c))),
    ):
        res = check_ternary_condition(M, cond)
        assert res.witness == reference_witness(n, 4, fails) is not None
        assert res.label == cond


def test_d_class_failing_both_laws_reports_composition():
    L = cyclic(2)
    R = build_dyb(Triple(L, make_constant_mu(2, [1, 0], "third"), Bijection.identity(2)), checked=False)
    # the normalisation law xi(lam, lam\lam, w) = w fails too
    assert any(eval_xi(R, lam, L.left_div(lam, lam), w) != w for lam, w in product(range(2), repeat=2))
    res = check_D_class(R, "D1")
    assert not res and res.label == "composition" and res.witness == (0, 0, 0, 0)


def m1_reference(mu, a, b, c, d):
    x = mu(a, b, c)
    return mu(a, x, mu(x, c, d)) == mu(a, b, mu(b, c, d))


def m2_reference(mu, a, b, c, d):
    y = mu(b, c, d)
    return mu(mu(a, b, c), c, d) == mu(mu(a, b, y), y, d)


def a12_reference(mu, a, b):
    return mu(a, a, b) == b


#: Each ternary declaration written out by hand, its lookups in the same order.
TERNARY_REFERENCES = {
    "M1": m1_reference,
    "M2": m2_reference,
    "A11": lambda mu, a, b, c, d: mu(a, b, mu(b, c, d)) == mu(a, c, d),
    "A12": a12_reference,
    "A21": lambda mu, a, b, c, d: mu(mu(a, b, c), c, d) == mu(a, b, d),
    "A22": lambda mu, a, b: mu(a, b, b) == a,
    "A31": lambda mu, a, b, c, d: mu(a, b, c) == mu(d, b, mu(a, d, c)),
    "A32": a12_reference,
    "U": lambda mu, a, b, c: mu(a, mu(a, b, c), c) == b,
}


def test_every_ternary_declaration_has_a_reference():
    assert TERNARY_REFERENCES.keys() == ternary._TERNARY.keys()


class Blocked(Exception):
    pass


def reference_probe(holds, tab, n, point):
    """HOLDS, FAILS, or the first unset cell read in the declaration's order."""

    def mu(a, b, c):
        i = (a * n + b) * n + c
        if tab[i] < 0:
            raise Blocked(i)
        return tab[i]

    try:
        return kernel.HOLDS if holds(mu, *point) else kernel.FAILS
    except Blocked as blocked:
        return blocked.args[0]


def probe_tables(n, rng):
    """Complete tables of order n: random, valid, corrupted and found by search."""
    valid = make_mu_g(cyclic(n), 1)
    found = search_ternary_M1M2(n, "backtracking", limit=40).tables
    return [
        *(TernaryTable.from_flat(n, [rng.randrange(n) for _ in range(n**3)]) for _ in range(4)),
        valid,
        corrupted(rng, valid),
        *found[:: max(1, len(found) // 8)],
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_probe_fails_exactly_where_check_fails(n):
    rng = random.Random(n)
    failed = 0
    for M in probe_tables(n, rng):
        tab = list(M.table)
        for cond, holds in TERNARY_REFERENCES.items():
            ident = ternary._TERNARY[cond]
            at = kernel.probe(ident, mu=tab, n=n)
            results = {point: at(*point)() for point in product(range(n), repeat=len(ident.variables))}
            assert set(results.values()) <= {kernel.HOLDS, kernel.FAILS}
            failing = [point for point, r in results.items() if r == kernel.FAILS]
            assert failing == [p for p in results if not holds(M.mu, *p)]
            assert check_ternary_condition(M, cond).witness == (failing[0] if failing else None)
            failed += len(failing)
    assert failed


@pytest.mark.parametrize("n", [2, 3])
def test_probe_on_partial_tables_stops_at_the_first_unset_cell(n):
    rng = random.Random(10 + n)
    for M in probe_tables(n, rng):
        for _ in range(6):
            tab = list(M.table)
            if rng.random() < 0.5:  # a prefix, as the search fills cells
                k = rng.randrange(n**3)
                tab[k:] = [-1] * (n**3 - k)
            else:
                for i in rng.sample(range(n**3), rng.randrange(1, n**3)):
                    tab[i] = -1
            for cond, holds in TERNARY_REFERENCES.items():
                ident = ternary._TERNARY[cond]
                at = kernel.probe(ident, mu=tab, n=n)
                for point in product(range(n), repeat=len(ident.variables)):
                    assert at(*point)() == reference_probe(holds, tab, n, point)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3)])
def test_probe_of_a_homomorphism_reads_one_argument_lookups_and_explicit_indices(n, m):
    # _HOM reads h(a), a one-argument lookup, and mu2[...], an index
    # written out, on complete tables.
    rng = random.Random(20 + n * m)
    for _ in range(6):
        mu = [rng.randrange(n) for _ in range(n**3)]
        mu2 = [rng.randrange(m) for _ in range(m**3)]
        h = [rng.randrange(m) for _ in range(n)]
        if n == m and rng.random() < 0.5:  # a homomorphism onto itself
            h, mu2 = list(range(n)), mu
        at = kernel.probe(ternary._HOM, mu=mu, mu2=mu2, h=h, n=n, m=m)
        results = {p: at(*p)() for p in product(range(n), repeat=3)}
        want = {(a, b, c): h[mu[(a * n + b) * n + c]] == mu2[(h[a] * m + h[b]) * m + h[c]]
                for a, b, c in results}
        assert results == {p: kernel.HOLDS if ok else kernel.FAILS for p, ok in want.items()}
        failing = [p for p, ok in want.items() if not ok]
        res = is_ternary_hom(h, TernaryTable(n, tuple(mu)), TernaryTable(m, tuple(mu2)))
        assert res.witness == (failing[0] if failing else None)


def test_probe_refuses_a_declaration_that_unpacks_a_pair():
    # A probe compares each value it reads with -1, which a pair cannot be.
    with pytest.raises(ValueError, match=r"cannot probe `a, b = r\(lam, u, v\)`.*not pairs"):
        kernel.probe(engine._UNITARY, r=[[-1] * 8, [-1] * 8], n=2, h=2)
