import dataclasses
import random
import re
from itertools import product

import numpy as np
import pytest
from conftest import BIJ3, TABLE1, cyclic, lq, shift

from dybmaps import (
    Bijection,
    DynamicalMap,
    LQ1Violation,
    M1M2Violation,
    NotQuasigroup,
    OrderMismatch,
    PreconditionFailed,
    ShapeMismatch,
    TernaryTable,
    Triple,
    build_correspondence,
    build_dyb,
    check_D_class,
    check_ternary_condition,
    direct_product,
    eq26_family,
    eval_xi,
    is_constant_in_lambda,
    make_constant_mu,
    make_mu_g,
    satisfies_m1m2,
    verify_irf_irf,
    verify_qdybe,
    vertex_counterpart,
    vertex_counterpart_from_map,
)
from dybmaps import kernel, ternary

ID3 = Bijection.identity(3)
MU1 = make_mu_g(TABLE1, 1)


def test_degenerate_gauge_is_the_swap():
    inst = build_correspondence(TABLE1, TABLE1, MU1, ID3, ID3)
    for lam, u, v in product(range(3), repeat=3):
        assert tuple(inst.J[:, lam, u, v].tolist()) == (v, u)
    assert verify_irf_irf(inst)


def test_gauge_is_bijective_per_weight():
    inst = build_correspondence(TABLE1, shift(3), MU1, ID3, BIJ3[3])
    for lam in range(3):
        pairs = {tuple(inst.J[:, lam, u, v].tolist()) for u in range(3) for v in range(3)}
        assert len(pairs) == 9


def test_identity_holds_for_all_order3_instances():
    count = 0
    for L1 in (TABLE1, shift(3)):
        for L2 in (TABLE1, shift(3)):
            for p1 in BIJ3:
                for p2 in BIJ3:
                    inst = build_correspondence(L1, L2, MU1, p1, p2)
                    assert verify_irf_irf(inst)
                    count += 1
    assert count == 144


def test_corrupted_gauge_is_detected():
    inst = build_correspondence(TABLE1, shift(3), MU1, ID3, ID3)
    J = inst.J.copy()
    J[:, 0, 0, [0, 1]] = J[:, 0, 0, [1, 0]]
    res = verify_irf_irf(dataclasses.replace(inst, J=J))
    assert not res and res.witness is not None


def test_gauge_is_one_read_only_int32_array():
    inst = build_correspondence(TABLE1, shift(3), MU1, ID3, BIJ3[3])
    assert inst.J.shape == (2, 3, 3, 3) and inst.J.dtype == np.int32
    assert not inst.J.flags.writeable
    with pytest.raises(ValueError):
        inst.J[0, 0, 0, 0] = 1
    # instances compare and hash by identity
    assert inst == inst and hash(inst) == hash(inst)
    assert inst != dataclasses.replace(inst)


def test_gauge_of_wrong_shape_or_entries_is_refused():
    inst = build_correspondence(TABLE1, shift(3), MU1, ID3, BIJ3[3])
    # a (2, 4, 4, 4) J once gave a false pass, a (2, 2, 2, 2) one an IndexError
    for shape in ((2, 4, 4, 4), (2, 2, 2, 2)):
        with pytest.raises(ShapeMismatch, match=re.escape(f"gauge of shape {shape}, expected (2, 3, 3, 3)")):
            dataclasses.replace(inst, J=np.zeros(shape, np.int32))
    with pytest.raises(ValueError, match="gauge entries must be integers, got dtype float64"):
        dataclasses.replace(inst, J=inst.J.astype(np.float64))
    for bad in (-1, 3):
        J = inst.J.copy()
        J[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match=re.escape("gauge entry out of range 0..2")):
            dataclasses.replace(inst, J=J)


def test_gauge_is_stored_read_only_int32_and_copied_only_when_needed():
    inst = build_correspondence(TABLE1, shift(3), MU1, ID3, BIJ3[3])
    assert dataclasses.replace(inst).J is inst.J
    for J in (inst.J.copy(), inst.J.astype(np.int64), inst.J.tolist()):
        again = dataclasses.replace(inst, J=J)
        assert again.J.dtype == np.int32 and not again.J.flags.writeable
        assert np.array_equal(again.J, inst.J) and again.J is not J
        assert verify_irf_irf(again)


def test_gauge_identity_at_order_12_reads_as_on_the_loop(monkeypatch):
    # 12^3 points: the default evaluator runs verify_irf_irf as slabs.
    rng = random.Random("gauge/12")
    n = 12
    L1 = lq([rng.sample(range(n), n) for _ in range(n)])
    pi1, pi2 = (Bijection.make(rng.sample(range(n), n)) for _ in range(2))
    inst = build_correspondence(L1, cyclic(n), make_mu_g(cyclic(n), 1), pi1, pi2)
    J = inst.J.copy()
    J[:, 5, [3, 7], [2, 9]] = J[:, 5, [7, 3], [9, 2]]
    bad = dataclasses.replace(inst, J=J)
    default = [verify_irf_irf(inst), verify_irf_irf(bad)]
    assert default[0] and not default[1] and default[1].witness[0] == 5
    monkeypatch.setattr(kernel, "_first_failure", kernel._loop_first)
    assert [verify_irf_irf(inst), verify_irf_irf(bad)] == default


def test_build_guards():
    with pytest.raises(OrderMismatch):
        build_correspondence(TABLE1, cyclic(2), MU1, ID3, ID3)
    from conftest import NON_M1M2_FLAT

    bad = TernaryTable.from_flat(2, NON_M1M2_FLAT)
    Z2 = cyclic(2)
    id2 = Bijection.identity(2)
    with pytest.raises(M1M2Violation):
        build_correspondence(Z2, Z2, bad, id2, id2)


def test_build_correspondence_decides_a_valid_table_in_one_check(monkeypatch):
    from conftest import NON_M1M2_FLAT

    calls, first_failure = [], kernel._first_failure

    def counting(ident, env):
        calls.append(ident)
        return first_failure(ident, env)

    monkeypatch.setattr(kernel, "_first_failure", counting)
    build_correspondence(TABLE1, shift(3), MU1, ID3, BIJ3[3])
    assert calls == [ternary._BRAID]

    # a failing table still raises the first failing condition with its witness
    bad = TernaryTable.from_flat(2, NON_M1M2_FLAT)
    first = next(r for r in (check_ternary_condition(bad, c) for c in ("M1", "M2")) if not r)
    Z2 = cyclic(2)
    id2 = Bijection.identity(2)
    with pytest.raises(M1M2Violation) as exc:
        build_correspondence(Z2, Z2, bad, id2, id2)
    assert (exc.value.condition, exc.value.witness) == (first.label, first.witness)


def two_loop_guard(M, error):
    """The hypothesis as the builders once required it: M1, then M2, each
    decided on its own."""
    for cond in ("M1", "M2"):
        check_ternary_condition(M, cond).require(error)


def raised(call):
    """(type, condition, witness, message) of what `call` raises."""
    with pytest.raises(PreconditionFailed) as exc:
        call()
    return type(exc.value), exc.value.condition, exc.value.witness, str(exc.value)


def tables_failing_the_hypothesis():
    """Every order-2 table that fails M1 or M2, and seeded one-cell
    corruptions of valid tables at orders 3-6, each order with tables that
    fail M1 alone, M2 alone and both."""
    for flat in product(range(2), repeat=8):
        M = TernaryTable.from_flat(2, flat)
        if not satisfies_m1m2(M):
            yield M
    for n in range(3, 7):
        rng = random.Random(f"guard/{n}")
        valid = [make_mu_g(cyclic(n), v) for v in (1, 2, 3)]
        valid += [make_constant_mu(n, range(n), p) for p in ("first", "third")]
        kinds = set()
        for k in range(40):
            flat = valid[k % len(valid)].array.copy()
            cell = rng.randrange(n**3)
            flat[cell] = (flat[cell] + rng.randrange(1, n)) % n
            M = TernaryTable(n, flat)
            kinds.add(tuple(bool(check_ternary_condition(M, c)) for c in ("M1", "M2")))
            yield M
        assert kinds == {(False, True), (True, False), (False, False)}


def test_the_one_pass_guard_raises_what_the_two_loop_guard_raises():
    count = 0
    for M in tables_failing_the_hypothesis():
        n = M.order
        L, pi, good = cyclic(n), Bijection.identity(n), make_mu_g(cyclic(n), 1)
        want = raised(lambda: two_loop_guard(M, M1M2Violation))
        assert raised(lambda: build_dyb(Triple(L, M, pi))) == want
        assert raised(lambda: build_correspondence(L, shift(n), M, pi, pi)) == want
        want = raised(lambda: two_loop_guard(M, PreconditionFailed))
        assert raised(lambda: direct_product(M, good)) == want
        assert raised(lambda: direct_product(good, M)) == want
        count += 1
    assert count == 2**8 - 25 + 4 * 40


def test_constant_in_lambda():
    n = 3
    phi = tuple(tuple(range(n)) for _ in range(n))
    r_id = tuple(
        tuple(tuple((u, v) for v in range(n)) for u in range(n)) for _ in range(n)
    )
    from dybmaps import DynamicalMap

    assert is_constant_in_lambda(DynamicalMap(phi=phi, r=r_id))
    assert not is_constant_in_lambda(eq26_family(TABLE1))
    assert is_constant_in_lambda(eq26_family(cyclic(1)))


def test_vertex_counterpart_fixed_point_case():
    Lp, Rp = vertex_counterpart(TABLE1, TABLE1, ID3)
    assert Lp.rows == TABLE1.rows
    assert is_constant_in_lambda(Rp)
    assert verify_qdybe(Rp)


def test_vertex_counterpart_all_order3_bases():
    for L in (TABLE1, shift(3), cyclic(3)):
        Lp, Rp = vertex_counterpart(L, TABLE1, BIJ3[4])
        assert is_constant_in_lambda(Rp)
        assert verify_qdybe(Rp)
        # the second output component collapses to the identity
        for lam, u, v in product(range(3), repeat=3):
            assert eval_xi(Rp, lam, u, v) == v
        inst = build_correspondence(L, Lp, make_mu_g(TABLE1, 1), BIJ3[4], BIJ3[4])
        assert verify_irf_irf(inst)


def test_vertex_counterpart_guard():
    from dybmaps import check_binary_condition, enumerate_left_quasigroups

    bad = next(
        L for L in enumerate_left_quasigroups(3) if not check_binary_condition(L, "LQ1")
    )
    with pytest.raises(LQ1Violation):
        vertex_counterpart(TABLE1, bad, ID3)


def test_vertex_counterpart_checks_lq1_once_and_builds_unchecked(monkeypatch):
    from conftest import GROUPS_LE6

    from dybmaps import check_binary_condition, enumerate_left_quasigroups, satisfies_m1m2
    from dybmaps import correspondence, engine, ternary

    # The guarantee it relies on: variant 1 of every LQ1 table passes M1 and M2.
    sample = [*enumerate_left_quasigroups(3), *GROUPS_LE6.values(), shift(4)]
    lq1 = [G for G in sample if check_binary_condition(G, "LQ1")]
    assert 0 < len(lq1) < len(sample)
    for G in lq1:
        assert satisfies_m1m2(make_mu_g(G, 1))
        pi = Bijection.make([*range(1, G.order), 0])
        Lp, Rp = vertex_counterpart(shift(G.order), G, pi)
        assert Rp == build_dyb(Triple(Lp, make_mu_g(G, 1), pi))

    calls = []
    for mod, name in ((correspondence, "check_binary_condition"), (ternary, "check_binary_condition"),
                      (engine, "check_ternary_condition"), (engine, "require_m1m2")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda x, cond, real=real: calls.append(cond) or real(x, cond))
    vertex_counterpart(TABLE1, TABLE1, ID3)
    assert calls == ["LQ1"]


def test_vertex_counterpart_from_bare_map():
    R = eq26_family(TABLE1)
    for basepoint in range(3):
        Lp, Rp = vertex_counterpart_from_map(shift(3), R, basepoint)
        assert is_constant_in_lambda(Rp)
        assert verify_qdybe(Rp)


def test_eq26_values_and_equality_with_build():
    R = eq26_family(TABLE1)
    # 1-based: R(1)(2,3) = (3,2); R(2)(1,1) = (1,2); R(3)(1,1) = (1,3)
    assert R.r[0][1][2] == (2, 1)
    assert R.r[1][0][0] == (0, 1)
    assert R.r[2][0][0] == (0, 2)
    built = build_dyb(Triple(shift(3), MU1, ID3))
    assert R.r == built.r and R.phi == built.phi
    assert verify_qdybe(R)
    assert check_D_class(R, "D1")


def test_eq26_weight_injectivity():
    R = eq26_family(TABLE1)
    assert len({R.r[lam] for lam in range(3)}) == 3
    one = eq26_family(cyclic(1))
    assert one.r[0][0][0] == (0, 0)


def test_eq26_guards():
    with pytest.raises(NotQuasigroup):
        eq26_family(lq([[0, 1], [0, 1]]))


def test_vertex_counterpart_refuses_mixed_orders():
    for L, G, pi in ((TABLE1, cyclic(2), ID3), (TABLE1, TABLE1, Bijection.identity(2))):
        with pytest.raises(OrderMismatch, match="^orders differ: "):
            vertex_counterpart(L, G, pi)


def reference_gauge(L1, L2, pi1, pi2):
    """J(lam1)(u, v) = (rho(lam1) \\ r0, r0 \\ r1), r0 = rho(lam1*v),
    r1 = rho((lam1*v)*u), point by point."""
    n = L1.order
    rho = [pi2.inverse[pi1(x)] for x in range(n)]
    J = np.empty((2, n, n, n), np.int64)
    for lam, u, v in product(range(n), repeat=3):
        r0 = rho[L1.mul(lam, v)]
        r1 = rho[L1.mul(L1.mul(lam, v), u)]
        J[:, lam, u, v] = L2.left_div(rho[lam], r0), L2.left_div(r0, r1)
    return J


def test_gauge_and_both_maps_are_those_of_the_definition():
    rng = random.Random("gauge/reference")
    for n in range(1, 6):
        for _ in range(3):
            L1, L2 = (lq([rng.sample(range(n), n) for _ in range(n)]) for _ in range(2))
            pi1, pi2 = (Bijection.make(rng.sample(range(n), n)) for _ in range(2))
            M = make_mu_g(cyclic(n), 1)
            inst = build_correspondence(L1, L2, M, pi1, pi2)
            assert inst.J.dtype == np.int32 and not inst.J.flags.writeable
            assert np.array_equal(inst.J, reference_gauge(L1, L2, pi1, pi2))
            assert verify_irf_irf(inst)
            # each map carries its left quasigroup's division, the one its shift derives
            for L, R, pi in ((L1, inst.R1, pi1), (L2, inst.R2, pi2)):
                assert R == build_dyb(Triple(L, M, pi)) and R.weight_ldiv is L.division
                assert np.array_equal(R.weight_ldiv, DynamicalMap._of(R.shift, R.pairs).weight_ldiv)
