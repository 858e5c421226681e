import random
import re
from itertools import permutations, product

import numpy as np
import pytest
from conftest import (
    BIJ3,
    NON_M1M2_FLAT,
    TABLE1,
    corpus_triples,
    cyclic,
    klein,
    lq,
    s3,
    shift,
)

from dybmaps import (
    Bijection,
    BinaryTable,
    ClassViolation,
    DynamicalMap,
    LeftQuasigroup,
    IndexOutOfRange,
    InvarianceViolated,
    M1M2Violation,
    NotAGroup,
    NotLeftQuasigroup,
    NotALoop,
    OrderMismatch,
    ShapeMismatch,
    TernaryTable,
    Triple,
    UnitNotPreserved,
    build_dyb,
    build_theta_dyb,
    check_D_class,
    check_binary_condition,
    conjugation_selfcheck,
    eq26_family,
    eval_eta,
    eval_xi,
    extract_mu_L,
    is_D_morphism,
    is_ternary_hom,
    make_constant_mu,
    make_mu_g,
    reconstruct_G,
    satisfies_m1m2,
    validate_left_quasigroup,
    verify_braiding,
    verify_invariance,
    verify_qdybe,
    verify_unitary,
)
from dybmaps import engine, kernel, serialize
from dybmaps.kernel import Identity, check

ID3 = Bijection.identity(3)


def identity_map(n):
    phi = tuple(tuple(range(n)) for _ in range(n))
    r = tuple(
        tuple(tuple((u, v) for v in range(n)) for u in range(n)) for _ in range(n)
    )
    return DynamicalMap(phi=phi, r=r)


def test_build_from_table1_is_identity_map():
    R = build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 1), ID3))
    for lam, u, v in product(range(3), repeat=3):
        assert R.r[lam][u][v] == (u, v)
    assert R.phi == TABLE1.rows


def test_build_over_projection_product_matches_closed_form():
    # 1-based R(1)(2,3) = (3,2)
    R = build_dyb(Triple(shift(3), make_mu_g(TABLE1, 1), ID3))
    assert R.r[0][1][2] == (2, 1)
    mul, ld = TABLE1.rows, TABLE1.division.tolist()
    for lam, u, v in product(range(3), repeat=3):
        assert R.r[lam][u][v] == (v, mul[lam][ld[u][v]])


def test_build_singleton():
    one = lq([[0]])
    R = build_dyb(Triple(one, TernaryTable.from_flat(1, [0]), Bijection.identity(1)))
    assert R.r[0][0][0] == (0, 0)


def test_build_rejects_order_mismatch_and_bad_table():
    with pytest.raises(OrderMismatch):
        Triple(TABLE1, make_mu_g(cyclic(2), 1), ID3)
    bad = TernaryTable.from_flat(2, NON_M1M2_FLAT)
    with pytest.raises(M1M2Violation):
        build_dyb(Triple(cyclic(2), bad, Bijection.identity(2)))
    build_dyb(Triple(cyclic(2), bad, Bijection.identity(2)), checked=False)


def test_eval_components():
    R = identity_map(3)
    for lam, u, v in product(range(3), repeat=3):
        assert eval_xi(R, lam, u, v) == v
        assert eval_eta(R, lam, v, u) == u
    Rq = build_dyb(Triple(shift(3), make_mu_g(TABLE1, 1), ID3))
    # 1-based: xi_1(2)(3) = 2 and eta_1(3)(2) = 3
    assert eval_xi(Rq, 0, 1, 2) == 1
    assert eval_eta(Rq, 0, 2, 1) == 2
    for lam, u, v in product(range(3), repeat=3):
        assert (eval_eta(Rq, lam, v, u), eval_xi(Rq, lam, u, v)) == Rq.r[lam][u][v]
        assert Rq.sigma(lam, u, v) == Rq.r[lam][u][v][::-1]
    with pytest.raises(IndexOutOfRange):
        eval_xi(Rq, 3, 0, 0)


@pytest.mark.parametrize("index", [(3, 0, 0), (0, 0, 3), (-1, 0, 0), (0, -1, 2)])
def test_point_lookups_of_a_map_refuse_an_index_outside_the_carrier(index):
    R = build_dyb(Triple(shift(3), make_mu_g(TABLE1, 1), ID3))
    lam, u, v = index
    for lookup in (lambda: R.sigma(lam, u, v), lambda: eval_xi(R, lam, u, v), lambda: eval_eta(R, lam, v, u)):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"(lam,u,v)=({lam},{u},{v})")):
            lookup()


def test_qdybe_holds_for_identity_and_fails_for_bad_build():
    assert verify_qdybe(identity_map(3))
    bad = TernaryTable.from_flat(2, NON_M1M2_FLAT)
    R = build_dyb(Triple(cyclic(2), bad, Bijection.identity(2)), checked=False)
    res = verify_qdybe(R)
    assert not res and res.witness == (1, 0, 0, 0)


def test_braiding_agrees_with_qdybe_over_all_order2_tables():
    Z2 = cyclic(2)
    id2 = Bijection.identity(2)
    for flat in product(range(2), repeat=8):
        M = TernaryTable.from_flat(2, flat)
        R = build_dyb(Triple(Z2, M, id2), checked=False)
        assert verify_braiding(R).holds == verify_qdybe(R).holds == satisfies_m1m2(M)


def test_swap_map_from_identity_middle_projection():
    for L in (cyclic(3), TABLE1, shift(3)):
        R = build_dyb(Triple(L, make_constant_mu(3, [0, 1, 2], "middle"), ID3))
        for lam, u, v in product(range(3), repeat=3):
            assert R.r[lam][u][v] == (v, u)
        assert verify_braiding(R)
        assert verify_unitary(R)


def test_invariance_of_all_builds_and_counterexample():
    # invariance holds by construction for every build, identities or not
    for t, _ in corpus_triples():
        assert verify_invariance(build_dyb(t, checked=False))
    # constant-zero map over Z/3 is not invariant; first failure at (0,0,1)
    n = 3
    phi = cyclic(3).rows
    r = tuple(
        tuple(tuple((0, 0) for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    res = verify_invariance(DynamicalMap(phi=phi, r=r))
    assert not res and res.witness == (0, 0, 1)
    # identity map over a non-commuting multiplication is not invariant
    res = verify_invariance(
        DynamicalMap(phi=s3().rows, r=identity_map(6).r)
    )
    assert not res


def test_invariance_needs_multiplication_shape():
    phi = ((0, 0), (0, 0))
    r = identity_map(2).r
    with pytest.raises(ShapeMismatch):
        verify_invariance(DynamicalMap(phi=phi, r=r))


def test_unitary_examples():
    assert verify_unitary(build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 1), ID3)))
    S = s3()
    res = verify_unitary(build_dyb(Triple(S, make_mu_g(S, 1), Bijection.identity(6))))
    assert not res and res.witness == (0, 1, 2)


def test_extract_recovers_generating_table():
    # identity map over Z/2 extracts the variant-1 table of Z/2
    Z2 = cyclic(2)
    R = build_dyb(Triple(Z2, make_mu_g(Z2, 1), Bijection.identity(2)))
    assert extract_mu_L(R).table == make_mu_g(Z2, 1).table
    # roundtrip through pi for a nontrivial triple
    t = Triple(TABLE1, make_mu_g(TABLE1, 1), Bijection.make((2, 0, 1)))
    muL = extract_mu_L(build_dyb(t))
    assert is_ternary_hom(t.pi, muL, t.M)
    assert satisfies_m1m2(muL)


def test_extract_refuses_non_invariant_input():
    phi = cyclic(3).rows
    r = tuple(
        tuple(tuple((0, 0) for _ in range(3)) for _ in range(3)) for _ in range(3)
    )
    with pytest.raises(InvarianceViolated):
        extract_mu_L(DynamicalMap(phi=phi, r=r))


def count_invariance_checks(monkeypatch) -> list:
    """A list that grows by one each time the invariance identity is evaluated."""
    calls, first_failure = [], kernel._first_failure

    def counting(ident, env):
        if ident is engine._INVARIANCE:
            calls.append(ident)
        return first_failure(ident, env)

    monkeypatch.setattr(kernel, "_first_failure", counting)
    return calls


def test_each_map_decides_invariance_once(monkeypatch):
    calls = count_invariance_checks(monkeypatch)
    t = Triple(TABLE1, make_mu_g(TABLE1, 1), Bijection.make((2, 0, 1)))
    R = build_dyb(t)
    assert verify_invariance(R)
    assert is_ternary_hom(t.pi, extract_mu_L(R), t.M)
    assert verify_invariance(R)
    assert len(calls) == 1
    # an equal map is another map, and decides its own
    assert verify_invariance(build_dyb(t)) and len(calls) == 2
    # a map that is not invariant: the exception carries the verdict's witness
    r = tuple(tuple(tuple((0, 0) for _ in range(3)) for _ in range(3)) for _ in range(3))
    bad = DynamicalMap(phi=cyclic(3).rows, r=r)
    res = verify_invariance(bad)
    assert not res and res.witness == (0, 0, 1)
    with pytest.raises(InvarianceViolated, match=r"invariance fails at \(0, 0, 1\)$"):
        extract_mu_L(bad)
    assert len(calls) == 3


def test_invariance_of_a_non_multiplication_still_raises_from_both_calls(monkeypatch):
    calls = count_invariance_checks(monkeypatch)
    R = DynamicalMap(phi=((0, 0), (0, 0)), r=identity_map(2).r)
    for _ in range(2):
        with pytest.raises(ShapeMismatch):
            verify_invariance(R)
        with pytest.raises(ShapeMismatch):
            extract_mu_L(R)
    assert calls == []


def quasigroup_ldiv(R: DynamicalMap) -> np.ndarray:
    """phi's left division derived row by row through validate_left_quasigroup."""
    return validate_left_quasigroup(BinaryTable(R.phi)).division


def test_weight_ldiv_equals_the_quasigroup_derivation():
    rng = random.Random(13)
    for n in range(2, 9):
        for _ in range(3):
            L = lq([rng.sample(range(n), n) for _ in range(n)])
            M = TernaryTable.from_flat(n, [rng.randrange(n) for _ in range(n**3)])
            built = build_dyb(Triple(L, M, Bijection.make(rng.sample(range(n), n))), checked=False)
            read = serialize.loads(serialize.dumps(built))
            for R in (built, DynamicalMap(phi=built.phi, r=built.r), read):
                assert np.array_equal(R.weight_ldiv, quasigroup_ldiv(R))
                assert R.weight_ldiv.dtype == np.int32 and not R.weight_ldiv.flags.writeable
            assert verify_invariance(read) and extract_mu_L(read) == extract_mu_L(built)


def test_a_phi_that_is_no_left_quasigroup_is_named_by_every_caller():
    phi = ((1, 2, 0), (0, 1, 2), (2, 0, 0))
    with pytest.raises(NotLeftQuasigroup) as refused:
        validate_left_quasigroup(BinaryTable(phi))
    assert str(refused.value) == "row 2 repeats value 0"
    want = "phi is not a left-quasigroup multiplication: row 2 repeats value 0"
    R = DynamicalMap(phi=phi, r=identity_map(3).r)
    for call in (verify_invariance, extract_mu_L, lambda R: check_D_class(R, "D2")):
        with pytest.raises(ShapeMismatch) as raised:
            call(R)
        assert str(raised.value) == want


def test_weight_free_invariant_maps_extract_valid_tables():
    # identity map over an abelian group
    R = DynamicalMap(phi=cyclic(3).rows, r=identity_map(3).r)
    assert verify_invariance(R)
    assert satisfies_m1m2(extract_mu_L(R))
    # swap map over a non-abelian group
    n = 6
    swap_r = tuple(
        tuple(tuple((v, u) for v in range(n)) for u in range(n)) for _ in range(n)
    )
    R = DynamicalMap(phi=s3().rows, r=swap_r)
    assert verify_invariance(R)
    M = extract_mu_L(R)
    assert satisfies_m1m2(M)
    assert M.table == make_constant_mu(6, list(range(6)), "middle").table


def test_d_class_membership_of_derived_families():
    for pi in BIJ3:
        for L in (TABLE1, shift(3)):
            R = build_dyb(Triple(L, make_mu_g(TABLE1, 1), pi))
            assert check_D_class(R, "D1")
    R2 = build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 2), ID3))
    assert check_D_class(R2, "D2")
    Z3 = cyclic(3)
    R3 = build_dyb(Triple(Z3, make_mu_g(Z3, 3), Bijection.identity(3)))
    assert check_D_class(R3, "D3")


def test_d_classes_discriminate_over_nonabelian_base():
    S = s3()
    id6 = Bijection.identity(6)
    verdicts = {}
    for variant in (1, 2, 3):
        R = build_dyb(Triple(S, make_mu_g(S, variant), id6))
        verdicts[variant] = tuple(check_D_class(R, c).holds for c in ("D1", "D2", "D3"))
    # over a group, variants 1 and 2 satisfy both two-sided classes; variant 3 neither
    assert verdicts[1] == (True, True, False)
    assert verdicts[2] == (True, True, False)
    assert verdicts[3] == (False, False, True)


def test_d_class_failure_is_witnessed():
    # the swap map fails the D1 normalisation unless xi is the identity
    R = build_dyb(Triple(cyclic(3), make_constant_mu(3, [0, 1, 2], "middle"), ID3))
    res = check_D_class(R, "D1")
    assert not res and res.label in ("composition", "normalisation")
    with pytest.raises(ValueError):
        check_D_class(R, "D4")


@pytest.mark.parametrize("basepoint", [0, 1, 2])
def test_reconstruct_a1_roundtrip(basepoint):
    t = Triple(TABLE1, make_mu_g(TABLE1, 1), ID3)
    R = build_dyb(t)
    G, pi_prime = reconstruct_G(t, "A1", basepoint)
    assert check_binary_condition(G, "LQ1")
    rebuilt = build_dyb(Triple(t.L, make_mu_g(G, 1), pi_prime))
    assert rebuilt.r == R.r
    assert is_ternary_hom(t.pi.compose(pi_prime.invert()), make_mu_g(G, 1), t.M)


def test_reconstruct_a2_and_a3_roundtrips():
    t2 = Triple(TABLE1, make_mu_g(TABLE1, 2), ID3)
    G2, pp2 = reconstruct_G(t2, "A2", 0)
    assert check_binary_condition(G2, "LQ1")
    assert build_dyb(Triple(t2.L, make_mu_g(G2, 2), pp2)).r == build_dyb(t2).r
    Z3 = cyclic(3)
    t3 = Triple(Z3, make_mu_g(Z3, 3), Bijection.identity(3))
    G3, pp3 = reconstruct_G(t3, "A3", 0)
    assert check_binary_condition(G3, "LQ22")
    assert check_binary_condition(G3, "LQ21")
    assert build_dyb(Triple(t3.L, make_mu_g(G3, 3), pp3)).r == build_dyb(t3).r


def test_reconstruct_basepoint_independence_up_to_hom():
    t = Triple(TABLE1, make_mu_g(TABLE1, 1), ID3)
    Ga, pa = reconstruct_G(t, "A1", 0)
    Gb, pb = reconstruct_G(t, "A1", 1)
    h = pb.compose(pa.invert())
    assert is_ternary_hom(h, make_mu_g(Ga, 1), make_mu_g(Gb, 1))


def test_reconstruct_singleton_and_violations():
    one = Triple(lq([[0]]), TernaryTable.from_flat(1, [0]), Bijection.identity(1))
    G, _ = reconstruct_G(one, "A1", 0)
    assert G.order == 1
    t = Triple(cyclic(2), make_constant_mu(2, [0, 0], "first"), Bijection.identity(2))
    with pytest.raises(ClassViolation):
        reconstruct_G(t, "A1", 0)
    with pytest.raises(IndexOutOfRange):
        reconstruct_G(one, "A1", 5)


def test_d_morphism():
    t = Triple(TABLE1, make_mu_g(TABLE1, 1), ID3)
    R = build_dyb(t)
    assert is_D_morphism(ID3, (t.L, R), (t.L, R))
    G, pp = reconstruct_G(t, "A1", 0)
    rebuilt = build_dyb(Triple(t.L, make_mu_g(G, 1), pp))
    assert is_D_morphism(ID3, (t.L, R), (t.L, rebuilt))
    # any non-homomorphism fails
    assert not is_D_morphism([1, 0, 2], (t.L, R), (t.L, R))
    assert not is_D_morphism([1, 1, 1], (t.L, R), (t.L, R))


def test_conjugation_selfcheck_over_corpus():
    for t, _ in corpus_triples():
        assert conjugation_selfcheck(t)


# The triple-leg factorisation that conjugation_selfcheck used to check
# besides the pair identity, through the three-step product map; kept as
# the reference the division law must agree with.
TRIPLE_FACTORISATION = Identity("lam u v w", """
    a1 = mul(lam, u); a2 = mul(a1, v); a3 = mul(a2, w)
    b1 = q(mu(p(lam), p(a1), p(a2))); c2 = q(mu(p(a1), p(a2), p(a3)))
    (ld(lam, b1), ld(b1, a2), ld(a2, a3), ld(lam, a1), ld(a1, c2), ld(c2, a3)) == (
        xi(lam, u, v), eta(lam, u, v), w, u, xi(a1, v, w), eta(a1, v, w))
""")


def factorisation_verdicts(t):
    """(pair identity, triple-leg identity) on the map of t, as
    conjugation_selfcheck reads it."""
    R = engine.build_dyb(t, checked=False)
    env = R._tables | {"mul": t.L.array.reshape(-1), "ld": t.L.division.reshape(-1), "mu": t.M.array,
                      "p": t.pi.map, "q": t.pi.inverse}
    return check(engine._PAIR_FACTORISATION, **env).holds, check(TRIPLE_FACTORISATION, **env).holds


def random_rows(rng, n):
    return [rng.sample(range(n), n) for _ in range(n)]


def random_triple(rng, n, ldiv=None):
    """A seeded triple of order n with an unchecked random M; with `ldiv`,
    L is built directly with that table as its left division."""
    base = BinaryTable.from_rows(random_rows(rng, n))
    L = validate_left_quasigroup(base) if ldiv is None else LeftQuasigroup._of(base.array, np.array(ldiv, np.int32))
    M = TernaryTable.from_flat(n, [rng.randrange(n) for _ in range(n**3)])
    return Triple(L, M, Bijection.make(rng.sample(range(n), n)))


def test_selfcheck_agrees_with_the_triple_leg_factorisation():
    rng = random.Random(12)
    valid = [t for t, _ in corpus_triples()]
    valid += [random_triple(rng, n) for n in range(2, 6) for _ in range(6)]
    for t in valid:
        assert factorisation_verdicts(t) == (True, True)
        assert conjugation_selfcheck(t) is True
    # in-range division tables that are not the left division of L
    wrong = []
    for n in range(2, 6):
        for _ in range(6):
            ldiv = tuple(map(tuple, random_rows(rng, n)))
            t = random_triple(rng, n, ldiv)
            if not np.array_equal(ldiv, validate_left_quasigroup(t.L.base).division):
                wrong.append(t)
    # and one that differs from the true one in two entries
    (a, b, c), *rest = TABLE1.division.tolist()
    wrong.append(Triple(LeftQuasigroup._of(TABLE1.array, np.array(((b, a, c), *rest), np.int32)), make_mu_g(TABLE1, 1), ID3))
    assert len(wrong) > 20
    for t in wrong:
        pair, triple = factorisation_verdicts(t)
        assert triple is False
        assert conjugation_selfcheck(t) is (pair and triple)


def test_selfcheck_fails_on_the_pair_identity_when_a_build_is_wrong(monkeypatch):
    build = engine.build_dyb

    def one_pair_changed(t, checked=True):
        R = build(t, checked)
        pairs = R.pairs.copy()
        pairs[1, 1, 0, 1] = (pairs[1, 1, 0, 1] + 1) % R.set_order
        return DynamicalMap._of(R.shift.copy(), pairs)

    t = Triple(TABLE1, make_mu_g(TABLE1, 1), Bijection.make((1, 2, 0)))
    assert conjugation_selfcheck(t)
    monkeypatch.setattr(engine, "build_dyb", one_pair_changed)
    pair, triple = factorisation_verdicts(t)
    assert (pair, triple) == (False, False)
    assert check(engine._LEFT_DIVISION, n=3, mul=t.L.array.reshape(-1), ld=t.L.division.reshape(-1))
    assert conjugation_selfcheck(t) is False


def test_theta_path_spot_value_and_agreement():
    Z4 = cyclic(4)
    K = klein()
    pi = Bijection.identity(4)
    R = build_theta_dyb(Z4, K, pi)
    assert eval_xi(R, 0, 1, 1) == 3
    assert R.r == build_dyb(Triple(Z4, make_mu_g(K, 1), pi)).r


def test_theta_path_z2_identity():
    Z2 = cyclic(2)
    R = build_theta_dyb(Z2, Z2, Bijection.identity(2))
    for lam, u, v in product(range(2), repeat=3):
        assert R.r[lam][u][v] == (u, v)


def test_theta_path_whole_small_corpus():
    Z4, K = cyclic(4), klein()
    unit_pis = [Bijection.make((0,) + p) for p in permutations((1, 2, 3))]
    for LP in (Z4, K):
        for G in (Z4, K):
            for pi in unit_pis:
                theta = build_theta_dyb(LP, G, pi)
                direct = build_dyb(Triple(LP, make_mu_g(G, 1), pi))
                assert theta.r == direct.r and theta.phi == direct.phi
    for n in (1, 2, 3):
        Z = cyclic(n)
        assert build_theta_dyb(Z, Z, Bijection.identity(n)).r == build_dyb(
            Triple(Z, make_mu_g(Z, 1), Bijection.identity(n))
        ).r


def test_theta_path_input_guards():
    with pytest.raises(NotALoop):
        build_theta_dyb(TABLE1, cyclic(3), ID3)
    with pytest.raises(NotAGroup):
        build_theta_dyb(cyclic(3), TABLE1, ID3)
    with pytest.raises(UnitNotPreserved):
        build_theta_dyb(cyclic(4), klein(), Bijection.make((1, 0, 2, 3)))
    with pytest.raises(OrderMismatch):
        build_theta_dyb(cyclic(2), klein(), Bijection.identity(2))


def test_is_D_morphism_reads_integers_only():
    V = (cyclic(2), build_dyb(Triple(cyclic(2), make_mu_g(cyclic(2), 1), Bijection.identity(2))))
    assert is_D_morphism([np.int64(0), True], V, V)
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 0.3")):
        is_D_morphism([0.3, 1.7], V, V)
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '1'")):
        is_D_morphism([0, "1"], V, V)


def test_is_D_morphism_refuses_a_map_of_another_order():
    Z2, Z3 = cyclic(2), cyclic(3)
    R_Z2 = build_dyb(Triple(Z2, make_mu_g(Z2, 1), Bijection.identity(2)))
    R_Z3 = build_dyb(Triple(Z3, make_mu_g(Z3, 1), Bijection.identity(3)))
    message = "map orders (3, 3) differ from the left quasigroup's order 2"
    for V, V2 in (((Z2, R_Z2), (Z2, R_Z3)), ((Z2, R_Z3), (Z2, R_Z2))):
        with pytest.raises(OrderMismatch, match=f"^{re.escape(message)}$"):
            is_D_morphism((0, 1), V, V2)
    # a map whose weights alone are of another order
    R_h3 = DynamicalMap([[0, 1]] * 3, [[[(0, 0), (1, 1)]] * 2] * 3)
    with pytest.raises(OrderMismatch, match=re.escape("map orders (3, 2) differ")):
        is_D_morphism((0, 1), (Z2, R_h3), (Z2, R_Z2))
    assert is_D_morphism((0, 1), (Z2, R_Z2), (Z2, R_Z2))


def test_reconstruct_G_and_is_D_morphism_guards():
    t = Triple(TABLE1, make_mu_g(TABLE1, 1), ID3)
    with pytest.raises(ValueError, match="^unknown class 'A4'$"):
        reconstruct_G(t, "A4")
    R = build_dyb(t)
    Z2 = cyclic(2)
    V2 = (Z2, build_dyb(Triple(Z2, make_mu_g(Z2, 1), Bijection.identity(2))))
    # an image outside L' is no morphism, whatever the maps
    assert is_D_morphism([0, 1, 2], (TABLE1, R), V2) is False
    assert is_D_morphism([0, 1], (TABLE1, R), (TABLE1, R)) is False


# --- A built map carries its weight division ----------------------------------

def valid_triple(rng, n):
    """A seeded triple of order n whose M satisfies M1 and M2."""
    t = random_triple(rng, n)
    return Triple(t.L, make_mu_g(cyclic(n), 1), t.pi)


def refuse(*args):
    raise AssertionError("a built map's weight division was derived again")


def test_a_built_map_carries_the_division_its_shift_derives(monkeypatch):
    rng = random.Random("weight_ldiv")
    for n in range(1, 7):
        for t in (random_triple(rng, n), valid_triple(rng, n)):
            R = build_dyb(t, checked=False)
            assert R.weight_ldiv is t.L.division
            derived = DynamicalMap._of(R.shift, R.pairs).weight_ldiv
            assert np.array_equal(R.weight_ldiv, derived)
            assert derived.dtype == R.weight_ldiv.dtype == np.int32
            assert not derived.flags.writeable and not R.weight_ldiv.flags.writeable
    # the checks that read the division do not validate the shift again
    monkeypatch.setattr(engine, "validate_left_quasigroup", refuse)
    R = build_dyb(valid_triple(rng, 4))
    assert verify_invariance(R) and all(check_D_class(R, c) for c in engine.D_CLASSES)
    assert extract_mu_L(R).order == 4


def test_theta_and_eq26_maps_carry_their_division_too(monkeypatch):
    # build_theta_dyb's shift is LP's multiplication; eq26_family's is the
    # projection product u.v = v, whose division is the product itself.
    Z5, ID5 = cyclic(5), Bijection.identity(5)
    maps = [build_theta_dyb(Z5, Z5, ID5), build_theta_dyb(s3(), s3(), Bijection.identity(6)),
            eq26_family(Z5), eq26_family(TABLE1)]
    assert maps[0].weight_ldiv is Z5.division
    results = []
    for R in maps:
        derived = DynamicalMap._of(R.shift, R.pairs)
        assert np.array_equal(R.weight_ldiv, derived.weight_ldiv)
        assert R.weight_ldiv.dtype == np.int32 and not R.weight_ldiv.flags.writeable
        results.append(division_checks(derived))
    monkeypatch.setattr(engine, "validate_left_quasigroup", refuse)
    assert [division_checks(R) for R in maps] == results


def division_checks(R):
    """The results of every check that reads the weight division."""
    return [verify_invariance(R), *(check_D_class(R, c) for c in engine.D_CLASSES), extract_mu_L(R)]


# --- Braiding and the equation are one predicate ------------------------------

def changed_in_one_pair(rng, R):
    pairs = R.pairs.copy()
    lam, u, v = rng.randrange(R.weight_order), rng.randrange(R.set_order), rng.randrange(R.set_order)
    slot = rng.randrange(2)
    pairs[slot, lam, u, v] = (pairs[slot, lam, u, v] + rng.randrange(1, R.set_order)) % R.set_order
    return DynamicalMap._of(R.shift, pairs)


def maps_of_every_kind(rng):
    """Builds of random and valid tables over n = h, and over h != n the
    swap with a random shift, which solves the equation whatever the shift,
    and uniform random maps; each solution also with one pair changed."""
    for n in range(2, 6):
        for t in (random_triple(rng, n), valid_triple(rng, n)):
            R = build_dyb(t, checked=False)
            yield from (R, changed_in_one_pair(rng, R))
    for h, n in ((1, 3), (2, 3), (3, 2), (4, 2), (5, 3), (2, 5), (3, 4)):
        for _ in range(8):
            shift_ = np.array([[rng.randrange(h) for _ in range(n)] for _ in range(h)], np.int32)
            _, u, v = np.indices((h, n, n))
            swap = DynamicalMap._of(shift_, np.stack((v, u)).astype(np.int32))
            noise = np.array([rng.randrange(n) for _ in range(2 * h * n * n)], np.int32)
            yield from (swap, changed_in_one_pair(rng, swap), DynamicalMap._of(shift_, noise.reshape(2, h, n, n)))


def test_braiding_and_the_equation_give_one_verdict_and_witness_on_both_evaluators():
    # Under sigma = swap o R the braiding's components are the equation's,
    # reordered, so the two declarations are one predicate.
    rng = random.Random("braid=qdybe")
    witnesses = []
    for R in maps_of_every_kind(rng):
        found = {evaluate(ident, R._tables) for ident in (engine._QDYBE, engine._BRAIDING)
                 for evaluate in (kernel._loop_first, kernel._slab_first)}
        assert len(found) == 1
        witnesses.append(found.pop())
        assert verify_braiding(R) == verify_qdybe(R)
    assert None in witnesses and len(set(witnesses)) >= 10
    assert any(w is not None and w[0] > 0 for w in witnesses)
