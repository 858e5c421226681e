"""Acceptance suite: the ten exit criteria, one test each.

Each test prints a single pass line once its assertions hold (visible with
pytest -s); the stated runtime budgets are asserted with perf_counter.
"""

import time
from itertools import product

from conftest import BIJ3, TABLE1, corpus_triples, cyclic, klein, s3, shift

from dybmaps import (
    Bijection,
    TernaryTable,
    Triple,
    build_correspondence,
    build_dyb,
    build_theta_dyb,
    census_theorem31,
    check_ternary_condition,
    conjugation_selfcheck,
    enumerate_left_quasigroups,
    enumerate_quasigroups,
    eq26_family,
    eval_xi,
    extract_mu_L,
    is_constant_in_lambda,
    is_ternary_hom,
    make_mu_g,
    satisfies_m1m2,
    search_ternary_M1M2,
    verify_invariance,
    verify_irf_irf,
    verify_qdybe,
    verify_unitary,
    vertex_counterpart,
)

ID3 = Bijection.identity(3)


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_census_equivalence_at_order_2():
    t0 = time.perf_counter()
    rep = census_theorem31(2, L=cyclic(2), pi=Bijection.identity(2))
    elapsed = time.perf_counter() - t0
    assert rep.total == 256
    assert rep.agree, rep.disagreements[:3]
    assert elapsed < 5.0, f"census took {elapsed:.2f}s"
    _ok(1, f"256 tables, identity/equation/braid columns agree in {elapsed:.2f}s")


def test_criterion_02_all_order3_builds_solve_the_equation():
    M = make_mu_g(TABLE1, 1)
    t0 = time.perf_counter()
    builds = 0
    for L in enumerate_left_quasigroups(3):
        for pi in BIJ3:
            R = build_dyb(Triple(L, M, pi))
            assert verify_qdybe(R), (L.rows, pi.map)
            assert verify_invariance(R), (L.rows, pi.map)
            builds += 1
    elapsed = time.perf_counter() - t0
    assert builds == 1296
    assert elapsed < 60.0, f"builds took {elapsed:.2f}s"
    _ok(2, f"1296 builds pass equation + invariance in {elapsed:.2f}s")


def test_criterion_03_unitarity_equals_the_middle_inverse_identity():
    Z2, Z3 = cyclic(2), cyclic(3)
    id2, id3 = Bijection.identity(2), ID3
    n2 = search_ternary_M1M2(2, "exhaustive").tables
    assert len(n2) == 25
    for M in n2:
        built = verify_unitary(build_dyb(Triple(Z2, M, id2))).holds
        assert built == check_ternary_condition(M, "U").holds, M.table
    n3 = search_ternary_M1M2(3, "backtracking", limit=120).tables
    assert len(n3) >= 100
    for M in n3:
        built = verify_unitary(build_dyb(Triple(Z3, M, id3))).holds
        assert built == check_ternary_condition(M, "U").holds, M.table
    _ok(3, f"unitarity <=> identity U on {len(n2)} order-2 and {len(n3)} order-3 tables")


def test_criterion_04_unitarity_family_cases():
    assert verify_unitary(build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 1), ID3)))
    assert verify_unitary(build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 2), ID3)))
    S = s3()
    res = verify_unitary(build_dyb(Triple(S, make_mu_g(S, 1), Bijection.identity(6))))
    assert not res and res.witness is not None
    Z2 = cyclic(2)
    assert verify_unitary(build_dyb(Triple(Z2, make_mu_g(Z2, 3), Bijection.identity(2))))
    _ok(4, f"variant-1/2 pass, non-abelian order 6 fails at {res.witness}, variant-3 over Z/2 passes")


def test_criterion_05_extraction_roundtrip_for_all_order3_builds():
    M = make_mu_g(TABLE1, 1)
    for L in enumerate_left_quasigroups(3):
        for pi in BIJ3:
            R = build_dyb(Triple(L, M, pi))
            assert is_ternary_hom(pi, extract_mu_L(R), M), (L.rows, pi.map)
    _ok(5, "pi carries the extracted table onto M for all 1296 builds")


def test_criterion_06_translation_defect_path_agrees():
    Z4, K = cyclic(4), klein()
    pi = Bijection.identity(4)
    theta = build_theta_dyb(Z4, K, pi)
    direct = build_dyb(Triple(Z4, make_mu_g(K, 1), pi))
    assert theta.r == direct.r and theta.phi == direct.phi
    assert eval_xi(theta, 0, 1, 1) == 3
    _ok(6, "loop/group path equals the triple path entry-for-entry; spot value 3")


def test_criterion_07_gauge_identity_for_all_order3_instances():
    M = make_mu_g(TABLE1, 1)
    count = 0
    for L1 in (TABLE1, shift(3)):
        for L2 in (TABLE1, shift(3)):
            for p1 in BIJ3:
                for p2 in BIJ3:
                    inst = build_correspondence(L1, L2, M, p1, p2)
                    assert verify_irf_irf(inst), (L1.rows, L2.rows, p1.map, p2.map)
                    count += 1
    degenerate = build_correspondence(TABLE1, TABLE1, M, ID3, ID3)
    for lam, u, v in product(range(3), repeat=3):
        assert tuple(degenerate.J[:, lam, u, v].tolist()) == (v, u)
    assert degenerate.R1.r == degenerate.R2.r
    _ok(7, f"gauge identity holds on {count} instances; degenerate gauge is the swap")


def test_criterion_08_weight_dependent_family():
    R = eq26_family(TABLE1)
    assert R.r[0][1][2] == (2, 1)  # 1-based R(1)(2,3) = (3,2)
    assert R.r[1] != R.r[2]  # 1-based R(2) != R(3)
    assert verify_qdybe(R)
    built = build_dyb(Triple(shift(3), make_mu_g(TABLE1, 1), ID3))
    assert R.r == built.r and R.phi == built.phi
    _, Rp = vertex_counterpart(TABLE1, TABLE1, ID3)
    assert is_constant_in_lambda(Rp)
    _ok(8, "closed-form family matches the build, is weight-dependent, partner is weight-free")


def test_criterion_09_enumeration_regressions():
    assert sum(1 for _ in enumerate_left_quasigroups(2)) == 4
    assert sum(1 for _ in enumerate_left_quasigroups(3)) == 216
    assert sum(1 for _ in enumerate_quasigroups(3)) == 12
    ex = search_ternary_M1M2(2, "exhaustive")
    bt = search_ternary_M1M2(2, "backtracking")
    assert [m.table for m in ex.tables] == [m.table for m in bt.tables]
    t0 = time.perf_counter()
    rep = census_theorem31(2)
    elapsed = time.perf_counter() - t0
    assert rep.total == 256 and rep.agree
    assert elapsed < 5.0, f"census took {elapsed:.2f}s"
    _ok(9, f"counts 4/216/12, search modes agree ({ex.total} tables), census in {elapsed:.2f}s")


def test_criterion_10_conjugation_selfcheck_over_corpus():
    checked = 0
    unchecked = 0
    for t, satisfies in corpus_triples():
        assert conjugation_selfcheck(t), (t.L.rows, t.M.table, t.pi.map)
        if satisfies:
            checked += 1
        else:
            unchecked += 1
    assert unchecked >= 2  # the factorisations do not depend on the identities
    _ok(10, f"factorisations hold on {checked} conforming and {unchecked} non-conforming triples")
