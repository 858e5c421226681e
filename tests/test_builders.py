"""The array builders against the per-entry loops they replaced, which are
kept here as references: `build_dyb`, `build_theta_dyb` and `extract_mu_L`
must give equal maps and tables on seeded random triples of orders 1-8 and
on relabelled Z/16 and Z/24.  The bytes `build -o` and `extract -o` write
for two triples are pinned by their sha256, as the per-entry builders wrote
them."""

import hashlib
import random
from itertools import product

import pytest
from conftest import TABLE1, cyclic, klein, lq, s3

from dybmaps import (
    Bijection,
    DynamicalMap,
    TernaryTable,
    Triple,
    build_dyb,
    build_theta_dyb,
    classify_structure,
    extract_mu_L,
    make_mu_g,
    serialize,
)
from dybmaps.cli import main


def reference_build_dyb(t: Triple):
    """(phi, r) of the triple construction, entry by entry."""
    n = t.L.order
    mul, ld, p, q, mt = t.L.rows, t.L.ldiv, t.pi.map, t.pi.inverse, t.M.table
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
    lmul, ld, gmul, gld, p, q = LP.rows, LP.ldiv, G.rows, G.ldiv, pi.map, pi.inverse
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
    ld = lq(mul).ldiv
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
