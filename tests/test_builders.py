"""The array builders against the per-entry loops they replaced, which are
kept here as references: `build_dyb`, `build_theta_dyb` and `extract_mu_L`
must give equal maps and tables on seeded random triples of orders 1-8 and
on relabelled Z/16 and Z/24, and so must the table builders (`make_mu_g`,
`make_constant_mu`, `direct_product`, `reconstruct_G`, `classify_structure`,
the gauge of `build_correspondence` and the structure of
`vertex_counterpart`), on S3 and K4 too.  The bytes `build -o` and
`extract -o` write for two triples are pinned by their sha256, as the
per-entry builders wrote them."""

import hashlib
import random
from itertools import product

import numpy as np
import pytest
from conftest import TABLE1, cyclic, klein, lq, s3

from dybmaps import (
    AlgebraError,
    Bijection,
    BinaryTable,
    DynamicalMap,
    LeftQuasigroup,
    StructureFlags,
    TernaryTable,
    Triple,
    build_correspondence,
    build_dyb,
    build_theta_dyb,
    classify_structure,
    direct_product,
    extract_mu_L,
    make_constant_mu,
    make_mu_g,
    reconstruct_G,
    serialize,
    validate_left_quasigroup,
    vertex_counterpart,
)
from dybmaps.cli import main


def reference_build_dyb(t: Triple):
    """(phi, r) of the triple construction, entry by entry."""
    n = t.L.order
    mul, ld, p, q, mt = t.L.rows, t.L.division.tolist(), t.pi.map.tolist(), t.pi.inverse.tolist(), t.M.table
    r = []
    for lam in range(n):
        lam_rows = []
        for u in range(n):
            lu = mul[lam][u]
            row = []
            for v in range(n):
                luv = mul[lu][v]
                xi = ld[lam][q[mt[(p[lam] * n + p[lu]) * n + p[luv]]]]
                eta = ld[mul[lam][xi]][luv]
                row.append((eta, xi))
            lam_rows.append(tuple(row))
        r.append(tuple(lam_rows))
    return mul, tuple(r)


def reference_build_theta_dyb(LP, G, pi: Bijection):
    """(phi, r) of the loop/group construction, entry by entry."""
    n = LP.order
    lmul, ld, gmul, gld, p, q = LP.rows, LP.division.tolist(), G.rows, G.division.tolist(), pi.map.tolist(), pi.inverse.tolist()
    e_g = classify_structure(G.base).identity
    ginv = tuple(gld[g][e_g] for g in range(n))
    theta, theta_inv = [], []
    for u in range(n):
        row = tuple(gmul[ginv[p[u]]][p[lmul[u][q[x]]]] for x in range(n))
        back = [-1] * n
        for x, y in enumerate(row):
            back[y] = x
        theta.append(row)
        theta_inv.append(tuple(back))
    r = []
    for lam in range(n):
        lam_rows = []
        for u in range(n):
            lu = lmul[lam][u]
            row = []
            for v in range(n):
                xi = q[theta_inv[lam][theta[lu][p[v]]]]
                row.append((ld[lmul[lam][xi]][lmul[lu][v]], xi))
            lam_rows.append(tuple(row))
        r.append(tuple(lam_rows))
    return lmul, tuple(r)


def reference_extract_mu_L(R: DynamicalMap) -> TernaryTable:
    """mu(a, b, c) = a * xi_a(a\\b)(b\\c), entry by entry, on a map whose
    weight shift is a left-quasigroup multiplication."""
    n = R.set_order
    mul = R.phi
    ld = lq(mul).division.tolist()
    return TernaryTable.from_function(n, lambda a, b, c: mul[a][R.r[a][ld[a][b]][ld[b][c]][1]])


def random_lq(rng, n):
    return lq([rng.sample(range(n), n) for _ in range(n)])


def random_triple(rng, n):
    """A random left quasigroup, any ternary table and a random bijection."""
    M = TernaryTable.from_flat(n, [rng.randrange(n) for _ in range(n**3)])
    return Triple(random_lq(rng, n), M, Bijection.make(rng.sample(range(n), n)))


def relabelled(G, s):
    """G carried along the permutation s: s(a) * s(b) = s(a * b)."""
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        rows[s[a]][s[b]] = s[G.rows[a][b]]
    return lq(rows)


def assert_builds_match(t: Triple):
    phi, r = reference_build_dyb(t)
    R = build_dyb(t, checked=False)
    assert R == DynamicalMap(phi=phi, r=r)
    assert (R.phi, R.r) == (phi, r)
    assert extract_mu_L(R) == reference_extract_mu_L(R)


@pytest.mark.parametrize("n", range(1, 9))
def test_build_and_extract_match_the_references_on_random_triples(n):
    rng = random.Random(f"builders/{n}")
    for _ in range(4):
        assert_builds_match(random_triple(rng, n))


@pytest.mark.parametrize("n", [16, 24])
def test_build_and_extract_match_the_references_on_relabelled_cyclic_groups(n):
    rng = random.Random(f"relabelled/{n}")
    G = relabelled(cyclic(n), rng.sample(range(n), n))
    pi = Bijection.make(rng.sample(range(n), n))
    assert_builds_match(Triple(G, make_mu_g(G, 1), pi))
    assert_builds_match(Triple(random_lq(rng, n), make_mu_g(G, 2), pi))
    assert_builds_match(random_triple(rng, n))


#: A loop of order 5 that is not a group: (1*1)*2 = 2, 1*(1*2) = 4.
LOOP5 = lq([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


def loop_group_pairs(rng):
    """(LP, G, pi): loops and groups of orders 1-8, 16 and 24, relabelled at
    random, with a random pi carrying unit to unit."""
    groups = [cyclic(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 16, 24)] + [klein(), s3()]
    loops = groups + [LOOP5]
    for LP in loops:
        for G in (H for H in groups if H.order == LP.order):
            n = LP.order
            LP2, G2 = (relabelled(H, rng.sample(range(n), n)) for H in (LP, G))
            e, f = (classify_structure(H.base).identity for H in (LP2, G2))
            rest = [x for x in range(n) if x != f]
            rng.shuffle(rest)
            image = iter(rest)
            yield LP2, G2, Bijection.make([f if x == e else next(image) for x in range(n)])


def test_theta_build_matches_the_reference():
    rng = random.Random("theta")
    seen = 0
    for LP, G, pi in loop_group_pairs(rng):
        phi, r = reference_build_theta_dyb(LP, G, pi)
        R = build_theta_dyb(LP, G, pi)
        assert R == DynamicalMap(phi=phi, r=r)
        assert R == build_dyb(Triple(LP, make_mu_g(G, 1), pi))
        seen += 1
    assert seen >= 15


#: sha256 of the files `build -o` and `extract -o` write for two triples,
#: as the per-entry builders wrote them.
PINNED = {
    "table1": ("1ccd7906ca550982c1992084f17e9bac79377d59c99cc445410ae6b9f28ba2f8",
               "30cddd001d4155c368732863f5a84b23185f98684d1f8fdd291de4217ce4b4c7"),
    "z12": ("9e8ecf76cdc016e5622e29883300e649340ce040147a6b4a89594319007cf4a6",
            "19ae4346e8969ae825e5631e246175fe75528ecfd8e70d4ebebcb5c7b62bd2e1"),
}


def pinned_triple(name):
    if name == "table1":
        return TABLE1, make_mu_g(TABLE1, 2), Bijection.make((1, 2, 0))
    G = relabelled(cyclic(12), [(5 * x + 3) % 12 for x in range(12)])
    return G, make_mu_g(cyclic(12), 1), Bijection.make([(7 * x + 2) % 12 for x in range(12)])


def written_digests(name, tmp_path):
    paths = []
    for part, obj in zip(("L", "M", "pi"), pinned_triple(name)):
        paths.append(tmp_path / f"{part}.json")
        serialize.dump(obj, paths[-1])
    R, E = tmp_path / "R.json", tmp_path / "E.json"
    assert main(["build", "--L", str(paths[0]), "--M", str(paths[1]), "--pi", str(paths[2]),
                 "-o", str(R)]) == 0
    assert main(["extract", str(R), "-o", str(E)]) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (R, E))


@pytest.mark.parametrize("name", PINNED)
def test_build_and_extract_write_the_pinned_bytes(name, tmp_path):
    assert written_digests(name, tmp_path) == PINNED[name]


# --- The table builders against their per-entry references ------------------

def reference_make_mu_g(G, variant):
    """The variant's table of a left quasigroup, entry by entry."""
    mul, ld = G.rows, G.division.tolist()
    fn = {1: lambda a, b, c: mul[a][ld[b][c]],
          2: lambda a, b, c: mul[c][ld[b][a]],
          3: lambda a, b, c: mul[b][ld[a][c]]}[variant]
    return TernaryTable.from_function(G.order, fn)


def reference_make_constant_mu(n, f, position):
    """mu(a, b, c) = f(a), f(b) or f(c), entry by entry."""
    k = ("first", "middle", "third").index(position)
    return TernaryTable.from_function(n, lambda *abc: f[abc[k]])


def reference_direct_product(M1, M2):
    """The componentwise table on pairs a1*n2 + a2, entry by entry."""
    n2 = M2.order

    def fn(a, b, c):
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        c1, c2 = divmod(c, n2)
        return M1.mu(a1, b1, c1) * n2 + M2.mu(a2, b2, c2)

    return TernaryTable.from_function(M1.order * n2, fn)


def reference_reconstruct_G(t, cls, lam):
    """(G, pi_prime) of reconstruct_G, entry by entry, once the class holds."""
    n, mul, ld, p, q, mu = t.L.order, t.L.rows, t.L.division.tolist(), t.pi.map.tolist(), t.pi.inverse.tolist(), t.M.mu
    if cls == "A1":
        star = lambda a, b: ld[lam][q[mu(p[mul[lam][a]], p[lam], p[mul[lam][b]])]]
    elif cls == "A2":
        star = lambda a, b: ld[lam][q[mu(p[mul[lam][b]], p[lam], p[mul[lam][a]])]]
    else:
        star = lambda a, b: ld[lam][q[mu(p[lam], p[mul[lam][a]], p[mul[lam][b]])]]
    rows = tuple(tuple(star(a, b) for b in range(n)) for a in range(n))
    return validate_left_quasigroup(BinaryTable(rows)), Bijection.make(ld[lam])


def reference_classify_structure(t):
    """The flags of a table, by sets of rows and columns and a unit scan."""
    n, rows, full = t.order, t.rows, set(range(t.order))
    rows_ok = all(set(row) == full for row in rows)
    is_q = rows_ok and all({rows[u][v] for u in range(n)} == full for v in range(n))
    identity = next((e for e in range(n) if all(rows[e][u] == u and rows[u][e] == u for u in range(n))), None)
    is_loop = is_q and identity is not None
    triples = list(product(range(n), repeat=3))
    assoc = all(rows[rows[a][b]][c] == rows[a][rows[b][c]] for a, b, c in triples)
    rdist = all(rows[rows[x][y]][z] == rows[rows[x][z]][rows[y][z]] for x, y, z in triples)
    return StructureFlags(rows_ok, is_q, is_loop, is_loop and assoc, rdist, identity if is_loop else None)


def reference_gauge(L1, L2, pi1, pi2):
    """J[lam1][u][v] of build_correspondence, entry by entry."""
    n, mul1, ld2 = L1.order, L1.rows, L2.division.tolist()
    p1, q2 = pi1.map.tolist(), pi2.inverse.tolist()
    rho = tuple(q2[p1[i]] for i in range(n))
    J = []
    for lam1 in range(n):
        lam_rows = []
        for u in range(n):
            row = []
            for v in range(n):
                t0 = mul1[lam1][v]
                r0, r1 = rho[t0], rho[mul1[t0][u]]
                row.append((ld2[rho[lam1]][r0], ld2[r0][r1]))
            lam_rows.append(tuple(row))
        if len({pair for r in lam_rows for pair in r}) != n * n:
            raise AlgebraError(f"gauge at weight {lam1} is not bijective")
        J.append(tuple(lam_rows))
    return tuple(J)


def pairs_of(J):
    """The array gauge J[:, lam1, u, v] as reference_gauge's nested pairs."""
    return tuple(tuple(map(tuple, map(zip, a, b))) for a, b in zip(*J.tolist()))


def reference_vertex_structure(G, pi):
    """u o v = pi^-1(pi(u) * pi(v)), entry by entry."""
    n, p, q, gmul = G.order, pi.map.tolist(), pi.inverse.tolist(), G.rows
    return lq([[q[gmul[p[u]][p[v]]] for v in range(n)] for u in range(n)])


def outcome(fn, *args):
    """What fn(*args) gives: its result, or its exception's type and message."""
    try:
        return fn(*args)
    except AlgebraError as exc:
        return type(exc), str(exc)


def builder_groups(rng):
    """Groups of orders 1-8, S3, K4 and relabelled Z/16 and Z/24."""
    yield from (cyclic(n) for n in range(1, 9))
    yield from (s3(), klein())
    yield from (relabelled(cyclic(n), rng.sample(range(n), n)) for n in (16, 24))


def builder_quasigroups(rng):
    """Seeded left quasigroups of orders 1-8 and the groups above."""
    for n in range(1, 9):
        yield from (random_lq(rng, n) for _ in range(3))
    yield from builder_groups(rng)


def test_make_mu_g_matches_the_reference():
    for G in builder_quasigroups(random.Random("mu_g")):
        for variant in (1, 2, 3):
            assert make_mu_g(G, variant, checked=False) == reference_make_mu_g(G, variant)


@pytest.mark.parametrize("position", ["first", "middle", "third"])
def test_make_constant_mu_matches_the_reference(position):
    rng = random.Random(f"constant/{position}")
    for n in [*range(1, 9), 16, 24]:
        for _ in range(3):
            if position == "middle":  # an idempotent f: a retraction onto a random image
                image = rng.sample(range(n), rng.randint(1, n))
                f = [x if x in image else rng.choice(image) for x in range(n)]
            else:
                f = [rng.randrange(n) for _ in range(n)]
            assert make_constant_mu(n, f, position) == reference_make_constant_mu(n, f, position)


def test_direct_product_matches_the_reference():
    rng = random.Random("product")
    factors = [make_mu_g(G, 1 + i % 3) for i, G in enumerate(builder_groups(rng)) if G.order <= 8]
    factors += [make_constant_mu(n, [rng.randrange(n) for _ in range(n)], "first") for n in (2, 3)]
    pairs = 0
    for M1, M2 in product(factors, repeat=2):
        if M1.order * M2.order <= 24:
            assert direct_product(M1, M2) == reference_direct_product(M1, M2)
            pairs += 1
    assert pairs > 40


def test_reconstruct_G_matches_the_reference():
    rng = random.Random("reconstruct")
    for G in builder_groups(rng):
        n = G.order
        for variant, cls in enumerate(("A1", "A2", "A3"), 1):
            t = Triple(random_lq(rng, n), make_mu_g(G, variant), Bijection.make(rng.sample(range(n), n)))
            for lam in sorted({0, n - 1, rng.randrange(n)}):
                assert reconstruct_G(t, cls, lam) == reference_reconstruct_G(t, cls, lam)


def test_classify_structure_matches_the_reference():
    rng = random.Random("classify")
    tables = [L.base for L in builder_quasigroups(rng)]
    tables += [LOOP5.base, shift_table(3)]
    tables += [BinaryTable.from_rows([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
               for n in range(1, 9) for _ in range(3)]
    for t in tables:
        assert classify_structure(t) == reference_classify_structure(t)
    assert {classify_structure(t).is_group for t in tables} == {True, False}
    assert {classify_structure(t).is_left_quasigroup for t in tables} == {True, False}


def shift_table(n):
    """The projection product u*v = v: a left quasigroup with no unit."""
    return BinaryTable.from_rows([list(range(n))] * n)


def test_gauge_and_vertex_structure_match_the_references():
    rng = random.Random("gauge")
    for G in builder_groups(rng):
        n = G.order
        L1, L2 = random_lq(rng, n), relabelled(G, rng.sample(range(n), n))
        pi1, pi2 = (Bijection.make(rng.sample(range(n), n)) for _ in range(2))
        inst = build_correspondence(L1, L2, make_mu_g(G, 1), pi1, pi2)
        assert pairs_of(inst.J) == reference_gauge(L1, L2, pi1, pi2)
        assert vertex_counterpart(L1, G, pi1)[0] == reference_vertex_structure(G, pi1)
        # a division with a repeat in its last row: the gauge is refused alike
        ldiv = L2.division.copy()
        ldiv[-1, 0] = ldiv[-1, -1]
        wrong = LeftQuasigroup._of(L2.array, ldiv)
        got = outcome(lambda: pairs_of(build_correspondence(L1, wrong, make_mu_g(G, 1), pi1, pi2).J))
        assert got == outcome(reference_gauge, L1, wrong, pi1, pi2)
        assert n == 1 or got[0] is AlgebraError
