"""The identity kernel: loop and slab evaluators, lexicographic witnesses."""

import ast
import copy
import dataclasses
import pickle
import random
import re
import textwrap
from functools import cache
from itertools import product

import numpy as np
import pytest
from conftest import BIJ3, TABLE1, cyclic, lq, shift

from dybmaps import (
    BINARY_CONDITIONS,
    TERNARY_CONDITIONS,
    Bijection,
    BinaryTable,
    NotAPermutation,
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
from dybmaps.correspondence import CorrespondenceInstance
from dybmaps.engine import DynamicalMap
from dybmaps.kernel import Arrays, Identity


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
    J = inst.J.copy()
    J[:, 0, [0, n - 1], [0, n - 1]] = J[:, 0, [n - 1, 0], [n - 1, 0]]
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
        env = {"n": n, "t": np.array(t, np.int32)}
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


# --- Copies are rebuilt through the constructors that freeze --------------

COPIED = {
    "binary": lambda: TABLE1.base,
    "left-quasigroup": lambda: TABLE1,
    "ternary": lambda: make_mu_g(TABLE1, 1),
    "bijection": lambda: BIJ3[3],
    "map": lambda: build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 1), BIJ3[3])),
    "correspondence": lambda: build_correspondence(TABLE1, shift(3), make_mu_g(TABLE1, 1), BIJ3[0], BIJ3[3]),
}
COPIES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy, "deepcopy": copy.deepcopy}
CACHES = {"_tables", "phi", "r", "_invariance"}


def held(x):
    """The array objects x is or holds, and every numpy array among them."""
    parts = [getattr(x, f.name) for f in dataclasses.fields(x)] if dataclasses.is_dataclass(x) else [x]
    objects = [p for p in parts if isinstance(p, Arrays)]
    return objects, [getattr(o, a) for o in objects for a in o._arrays] + [p for p in parts if isinstance(p, np.ndarray)]


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("kind", COPIED)
def test_copies_keep_their_class_content_and_read_only_arrays(kind, how):
    x = COPIED[kind]()
    if isinstance(x, DynamicalMap):
        x.phi, x.r, x._tables, verify_invariance(x)
        assert CACHES <= vars(x).keys()
    y = COPIES[how](x)
    assert type(y) is type(x)
    (objects, arrays), (copied, copied_arrays) = held(x), held(y)
    assert copied == objects and list(map(hash, copied)) == list(map(hash, objects))
    assert len(copied_arrays) == len(arrays) and all(map(np.array_equal, copied_arrays, arrays))
    for a in copied_arrays:
        assert a.dtype == np.int32 and not a.flags.writeable
    if isinstance(y, DynamicalMap):
        assert not CACHES & vars(y).keys()
    if isinstance(y, CorrespondenceInstance):
        assert verify_irf_irf(y) == verify_irf_irf(x)


def test_repr_shows_each_array_as_a_list():
    assert repr(Bijection.make((1, 2, 0))) == "Bijection(map=[1, 2, 0], inverse=[2, 0, 1])"
    assert repr(TABLE1) == ("LeftQuasigroup(array=[[0, 2, 1], [1, 0, 2], [2, 1, 0]], "
                            "division=[[0, 2, 1], [1, 0, 2], [2, 1, 0]])")
    assert repr(TernaryTable(1, [0])) == "TernaryTable(array=[0])"
    # a map shows its two orders, not its n^2 h pairs
    assert repr(DynamicalMap(phi=[[0], [1]], r=[[[(0, 0)]], [[(0, 0)]]])) == "DynamicalMap(weight_order=2, set_order=1)"


@pytest.mark.parametrize("budget, fixed", [(16384, 0), (200, 0), (64, 0), (48, 1), (32, 1), (16, 1), (8, 2)])
def test_slabs_read_the_first_failure_off_sides_that_lack_axes(monkeypatch, budget, fixed):
    # With a leading variable fixed, s(a) is a 0-d side and t(a, d) a 1-d
    # one; a side that skips a variable has a size-1 axis there.  The first
    # failure is read off the side as it is, at 0 on every missing axis.
    monkeypatch.setattr(kernel, "SLAB_POINTS", budget)
    n = 4
    assert kernel._cut((n,) * 4)[0] == fixed
    rng = random.Random(f"axes/{budget}")
    for body in ("s(a) == 0", "t(a, d) == 0", "t(b, d) == 0", "t(c, b) == 0", "t(a, c) == s(b)", "s(d) == 0"):
        ident = Identity("a b c d", body)
        for density in (0.0, 0.1, 0.3):
            for _ in range(8):
                env = {"n": n, "t": tuple(int(rng.random() < density) for _ in range(n * n)),
                       "s": tuple(int(rng.random() < density) for _ in range(n))}
                assert kernel._slab_first(ident, env) == kernel._loop_first(ident, env)


# --- one witness with shared slab temporaries and the loop's head -------------

@cache
def with_planted_failure(ident):
    """`ident` with one more component, `planted(...) == 0` over all its
    variables: on tables where `ident` holds, it fails where `planted` is 1."""
    tree = ast.parse(textwrap.dedent(ident.body))
    equation = tree.body[-1].value
    lhs, rhs = (s.elts if isinstance(s, ast.Tuple) else [s] for s in (equation.left, equation.comparators[0]))
    equation.left = ast.Tuple([*lhs, ast.Call(ast.Name("planted"), [ast.Name(v) for v in ident.variables], [])])
    equation.comparators = [ast.Tuple([*rhs, ast.Constant(0)])]
    spec = " ".join(v if size == "n" else f"{v}:{size}" for v, size in zip(ident.variables, ident.sizes))
    return Identity(spec, ast.unparse(tree))


def planted_env(ident, env, point):
    """`env` for with_planted_failure(ident), failing at `point` alone."""
    first, *rest = kernel._sizes(ident, env)
    assert all(size <= env["n"] for size in rest)
    planted = np.zeros(first * env["n"] ** len(rest), np.int32)
    planted[np.ravel_multi_index(point, (first,) + (env["n"],) * len(rest))] = 1
    return {**env, "planted": planted}


def every_evaluator(ident, env):
    """The witness if the dispatcher, the loop and the slabs give one."""
    found = {kernel._first_failure(ident, env), kernel._loop_first(ident, env), kernel._slab_first(ident, env)}
    assert len(found) == 1, found
    return found.pop()


def checks_made(n):
    """(declaration, env) of every check that every_check makes at order n,
    and of the intertwining of the identity with a map and its change."""
    made = []

    def record(ident, env):
        made.append((ident, env))
        return kernel._loop_first(ident, env)

    G = cyclic(n)
    R = build_dyb(Triple(G, make_mu_g(G, 1), Bijection.identity(n)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_first_failure", record)
        every_check(n, 0)
        for S in (R, with_one_pair_changed(random.Random(n), R)):
            is_D_morphism(Bijection.identity(n), (G, R), (G, S))
    return made


@pytest.mark.parametrize("n", range(2, 8))
def test_shared_slab_temporaries_give_the_loops_witness_on_every_declaration(n):
    # every_check reaches every declaration on random, valid and corrupted
    # tables; where a check holds, a failure planted at a random point and
    # at the last one must come out as the witness.
    rng = random.Random(f"share/{n}")
    made = checks_made(n)
    assert {ident for ident, _ in made} == declared_identities()
    planted = 0
    for ident, env in made:
        if every_evaluator(ident, env) is not None:
            continue
        sizes = tuple(kernel._sizes(ident, env))
        for point in {tuple(rng.randrange(s) for s in sizes), tuple(s - 1 for s in sizes)}:
            assert every_evaluator(with_planted_failure(ident), planted_env(ident, env, point)) == point
            planted += 1
    assert planted > 100


def test_a_shared_subexpression_is_computed_once_at_its_first_use():
    body = ast.parse("a = t.take(x * n + y)\nb = s.take(x * n + y) + x * n\nreturn (a != b) | (x * n != b)").body
    share = kernel._Share(body)
    for statement in body:
        share.lines.append(ast.unparse(share.visit(statement)))
    assert share.lines == [
        "_s0 = x * n",
        "_s1 = _s0 + y",
        "a = t.take(_s1)",
        "b = s.take(_s1) + _s0",
        "return (a != b) | (_s0 != b)",
    ]


def swap_map(shift_):
    """R(lam)(u, v) = (v, u) over the shift, which solves the equation
    whatever the shift, h != n included."""
    h, n = shift_.shape
    _, u, v = np.indices((h, n, n))
    return DynamicalMap._of(shift_, np.stack((v, u)).astype(np.int32))


def head_cases():
    """(declaration, env that it holds on) for M1, the equation over h != n
    and LQ1, at orders 5-11."""
    for n in range(5, 12):
        yield ternary._TERNARY["M1"], {"n": n, "mu": make_mu_g(cyclic(n), 1).array}
        h = n + 1 if n % 2 else n - 1
        rng = random.Random(f"head/{n}")
        shift_ = np.array([[rng.randrange(h) for _ in range(n)] for _ in range(h)], np.int32)
        yield engine._QDYBE, swap_map(shift_)._tables
        G = cyclic(n)
        yield binary._BINARY["LQ1"], {"n": n, "mul": G.array, "ld": G.division}


@pytest.mark.parametrize("ident, env", head_cases())
def test_a_failure_in_the_head_after_it_or_last_is_the_witness(ident, env):
    assert every_evaluator(ident, env) is None
    sizes = tuple(kernel._sizes(ident, env))
    n = env["n"]
    for point in ((0, 0, n // 2, n - 1), (0, 1, 0, 0), tuple(s - 1 for s in sizes)):
        assert every_evaluator(with_planted_failure(ident), planted_env(ident, env, point)) == point


def routes(monkeypatch, ident, env):
    """The evaluators _first_failure runs, in order, and its witness."""
    calls = []
    loop, slab = kernel._loop_first, kernel._slab_first

    def loop_first(ident, env, head=False):
        calls.append("head" if head else "loop")
        return loop(ident, env, head)

    def slab_first(ident, env):
        calls.append("slab")
        return slab(ident, env)

    monkeypatch.setattr(kernel, "_loop_first", loop_first)
    monkeypatch.setattr(kernel, "_slab_first", slab_first)
    witness = kernel._first_failure(ident, env)
    monkeypatch.undo()
    return calls, witness


def test_four_variable_grids_of_one_slab_run_the_head_first(monkeypatch):
    assert 4**4 < kernel.CROSSOVER <= 5**4 and 11**4 <= kernel.SLAB_POINTS < 12**4
    m1 = ternary._TERNARY["M1"]
    # order: (evaluators of a pass, of a failure in the head)
    cases = {4: (["loop"], ["loop"]), 5: (["head", "slab"], ["head"]),
             11: (["head", "slab"], ["head"]), 12: (["slab"], ["slab"])}
    for n, (passes, fails_in_head) in cases.items():
        env = {"n": n, "mu": make_mu_g(cyclic(n), 1).array}
        assert routes(monkeypatch, m1, env) == (passes, None)
        # a failure in the head ends the check there; one after it goes on as a pass does
        planted = with_planted_failure(m1)
        assert routes(monkeypatch, planted, planted_env(m1, env, (0, 0, 1, 2))) == (fails_in_head, (0, 0, 1, 2))
        assert routes(monkeypatch, planted, planted_env(m1, env, (1, 0, 0, 0))) == (passes, (1, 0, 0, 0))
    # LQ1's n**3 grid, and the equation over h = 8 weights and n = 7
    G = cyclic(8)
    assert routes(monkeypatch, binary._BINARY["LQ1"], {"n": 8, "mul": G.array, "ld": G.division}) == (
        ["head", "slab"], None)
    assert routes(monkeypatch, engine._QDYBE, swap_map(np.zeros((8, 7), np.int32))._tables) == (
        ["head", "slab"], None)
    # three variables never run the head, whatever their grid
    for n in (7, 10, 25, 26):
        want = ["loop"] if n**3 < kernel.CROSSOVER else ["slab"]
        assert routes(monkeypatch, ternary._TERNARY["U"], {"n": n, "mu": make_mu_g(cyclic(n), 1).array}) == (
            want, None)


# --- numpy bools are integers 0 and 1 to every reader ---------------------------

T, F = np.True_, np.False_
Z2 = cyclic(2)
V2 = (Z2, build_dyb(Triple(Z2, make_mu_g(Z2, 1), Bijection.identity(2))))
M2 = make_constant_mu(2, [0, 1], "first")


@pytest.mark.parametrize("read, numpy_bools", [
    (lambda xs: TernaryTable(2, xs), [T, F, F, T, 1, 0, T, F]),
    (lambda xs: TernaryTable.from_flat(2, iter(xs)), [T, F, F, T, 1, 0, T, F]),
    (lambda xs: TernaryTable.from_function(2, lambda a, b, c: xs[(a * 2 + b) * 2 + c]), [F, T] * 4),
    (lambda xs: BinaryTable([xs[:2], xs[2:]]), [T, F, F, T]),
    (lambda xs: BinaryTable.from_rows(iter([iter(xs[:2]), iter(xs[2:])])), [F, T, T, 0]),
    (Bijection.make, [T, F]),
    (lambda xs: make_constant_mu(2, xs, "middle"), [F, T]),
    (lambda xs: is_ternary_hom(xs, M2, M2), [T, F]),
    (lambda xs: is_D_morphism(xs, V2, V2), [F, T]),
    (lambda xs: is_D_morphism(xs, V2, V2), [T, F]),
    (lambda xs: kernel.integer(xs[0]), [T]),
])
def test_every_integer_reader_reads_numpy_bools_as_0_and_1(read, numpy_bools):
    assert read(numpy_bools) == read([int(x) for x in numpy_bools])


def test_a_numpy_bool_out_of_range_is_refused_as_an_int_is():
    assert type(kernel.integer(T)) is int
    with pytest.raises(ValueError, match=re.escape("entry 0 = True out of range 0..0")):
        TernaryTable(1, [T])
    with pytest.raises(ValueError, match=re.escape("entry (0,0) = True out of range 0..0")):
        BinaryTable([[T]])
    with pytest.raises(NotAPermutation, match="^value 1 at position 1$"):
        Bijection.make([T, T])
    assert TernaryTable(1, [F]) == TernaryTable(1, [0]) and BinaryTable([[F]]) == BinaryTable([[0]])


def tables_to_stack(n: int, rng: random.Random) -> list[TernaryTable]:
    """Order-n tables that pass and fail the defining identities: the three
    variant tables of Z/n and a projection, each also with one cell changed,
    and five random tables."""
    valid = [make_mu_g(cyclic(n), v) for v in (1, 2, 3)] + [make_constant_mu(n, range(n), "first")]
    out = list(valid)
    for M in valid:
        flat = M.array.copy()
        cell = rng.randrange(n**3)
        flat[cell] = (flat[cell] + 1) % n
        out.append(TernaryTable(n, flat))
    return out + [TernaryTable(n, [rng.randrange(n) for _ in range(n**3)]) for _ in range(5)]


@pytest.mark.parametrize("n, budget, t_fixed", [
    (1, 16384, False), (2, 16384, False), (3, 16384, False), (4, 16384, False),
    (1, 5, False), (2, 40, False), (2, 7, True), (3, 40, True), (4, 40, True),
])
def test_stacked_verdicts_agree_with_check_table_by_table(monkeypatch, n, budget, t_fixed):
    # Below the default budget the 13 tables are cut into several chunks of
    # t, or each slab fixes t and reads one table.
    monkeypatch.setattr(kernel, "SLAB_POINTS", budget)
    tables = tables_to_stack(n, random.Random(n))
    fixed, step = kernel._cut((len(tables), n, n, n, n))
    assert (fixed > 0) == t_fixed and (t_fixed or budget == 16384 or step < len(tables))
    mu = np.stack([M.array for M in tables])
    for ident in (ternary._TERNARY["M1"], ternary._TERNARY["M2"], ternary._BRAID):
        want = [bool(kernel.check(ident, n=n, mu=M.array)) for M in tables]
        assert kernel.check_stack(ident, ("mu",), len(tables), n=n, mu=mu).tolist() == want
    L, pi = cyclic(n), Bijection.make(range(n)[::-1])
    maps = [build_dyb(Triple(L, M, pi), checked=False) for M in tables]
    r = engine._dyb_pairs(L, mu, pi)
    assert np.array_equal(r, np.stack([R.pairs for R in maps], axis=1))
    got = kernel.check_stack(engine._QDYBE, ("r",), len(tables), n=n, h=n, phi=L.array, r=r)
    assert got.tolist() == [bool(verify_qdybe(R)) for R in maps]
    assert any(got) and (n == 1 or not all(got))


def test_a_stacked_declaration_prepends_t_to_the_stacked_tables_only():
    stacked = kernel._stacked(engine._QDYBE, ("r",))
    assert stacked.variables == ("t", "lam", "u", "v", "w") and stacked.sizes == ("T", "h", "n", "n", "n")
    assert "a, b = r(t, lam, u, v)" in stacked.body and "r(t, phi(lam, b), a, w)" in stacked.body
    assert kernel._stacked(engine._QDYBE, ("r",)) is stacked
    with pytest.raises(ValueError, match="a stacked table is read by its arguments"):
        kernel._stacked(ternary._HOM, ("mu2",))
    with pytest.raises(ValueError, match="it reads t or T"):
        kernel._stacked(Identity("a b", "t(a, b) == 0"), ("t",))
