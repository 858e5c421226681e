import re
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import NON_M1M2_FLAT, TABLE1, cyclic, klein, shift

from dybmaps import (
    Bijection,
    IdempotenceRequired,
    IndexOutOfRange,
    PreconditionFailed,
    TernaryTable,
    braid_check,
    check_ternary_condition,
    direct_product,
    is_ternary_hom,
    make_constant_mu,
    make_mu_g,
    satisfies_m1m2,
)


def all_tables(n):
    for flat in product(range(n), repeat=n**3):
        yield TernaryTable.from_flat(n, flat)


def test_mu1_of_table1_satisfies_defining_identities():
    M = make_mu_g(TABLE1, 1)
    assert check_ternary_condition(M, "M1")
    assert check_ternary_condition(M, "M2")
    assert check_ternary_condition(M, "A11")
    assert check_ternary_condition(M, "A12")


def test_constant_first_projection_satisfies_identities():
    for f in ([0, 1], [1, 0], [0, 0], [1, 1]):
        M = make_constant_mu(2, f, "first")
        assert satisfies_m1m2(M)
        M = make_constant_mu(2, f, "third")
        assert satisfies_m1m2(M)


def test_unitary_identity_fails_on_constant_first():
    M = make_constant_mu(2, [0, 1], "first")
    res = check_ternary_condition(M, "U")
    assert not res and res.witness == (0, 1, 0)


def test_mu_values_against_hand_evaluation():
    # 1-based mu(1,2,3) = 2 for both variants over TABLE1
    assert make_mu_g(TABLE1, 1).mu(0, 1, 2) == 1
    assert make_mu_g(TABLE1, 2).mu(0, 1, 2) == 1
    assert make_mu_g(cyclic(2), 3).mu(0, 1, 1) == 0


@pytest.mark.parametrize("index", [(0, 0, 2), (0, 2, 0), (2, 0, 0), (-1, 0, 0), (0, 0, -1), (0, -2, 1)])
def test_mu_refuses_an_index_outside_the_carrier(index):
    M = TernaryTable.from_flat(2, NON_M1M2_FLAT)
    message = f"({','.join(map(str, index))}) outside 0..1"
    with pytest.raises(IndexOutOfRange, match=f"^{re.escape(message)}$"):
        M.mu(*index)
    assert [M.mu(a, b, c) for a, b, c in product(range(2), repeat=3)] == list(NON_M1M2_FLAT)


def test_mu_g_precondition_enforced():
    from dybmaps import check_binary_condition, enumerate_left_quasigroups

    # the projection product passes LQ1, so variant 1 is accepted
    make_mu_g(shift(3), 1)
    bad = next(
        L for L in enumerate_left_quasigroups(3) if not check_binary_condition(L, "LQ1")
    )
    with pytest.raises(PreconditionFailed) as exc:
        make_mu_g(bad, 1)
    assert exc.value.condition == "LQ1"
    make_mu_g(bad, 1, checked=False)  # unchecked mode builds anyway


def test_mu_g_variant_range():
    with pytest.raises(ValueError):
        make_mu_g(TABLE1, 4)


def test_constant_middle_requires_idempotence():
    with pytest.raises(IdempotenceRequired):
        make_constant_mu(2, [1, 0], "middle")
    M = make_constant_mu(3, [0, 1, 2], "middle")
    assert satisfies_m1m2(M)
    M = make_constant_mu(3, [0, 0, 2], "middle")
    assert satisfies_m1m2(M)


def test_direct_product():
    one = TernaryTable.from_flat(1, [0])
    assert direct_product(one, one).order == 1
    Z2mu = make_mu_g(cyclic(2), 1)
    P = direct_product(Z2mu, Z2mu)
    assert P.order == 4
    assert satisfies_m1m2(P)
    # pairing with a singleton factor reproduces the other factor
    assert direct_product(Z2mu, one).table == Z2mu.table
    assert direct_product(one, Z2mu).table == Z2mu.table
    bad = TernaryTable.from_flat(2, NON_M1M2_FLAT)
    with pytest.raises(PreconditionFailed):
        direct_product(Z2mu, bad)


def test_direct_product_agrees_with_componentwise_evaluation():
    A = make_mu_g(cyclic(2), 1)
    B = make_constant_mu(3, [0, 1, 2], "third")
    P = direct_product(A, B)
    for a, b, c in product(range(6), repeat=3):
        a1, a2 = divmod(a, 3)
        b1, b2 = divmod(b, 3)
        c1, c2 = divmod(c, 3)
        assert P.mu(a, b, c) == A.mu(a1, b1, c1) * 3 + B.mu(a2, b2, c2)


def test_ternary_hom():
    M = make_constant_mu(2, [0, 1], "first")
    assert is_ternary_hom(Bijection.identity(2), M, M)
    assert is_ternary_hom([1, 0], M, M)  # first projection commutes with relabeling
    third = make_constant_mu(2, [0, 1], "third")
    res = is_ternary_hom([1, 0], M, third)
    assert not res and res.witness is not None
    with pytest.raises(ValueError):
        is_ternary_hom([0], M, M)


def test_braid_check_equals_identities_at_order_2():
    for M in all_tables(2):
        assert braid_check(M).holds == satisfies_m1m2(M)


def test_braid_check_random_sample_order_3():
    import random

    rng = random.Random(0)
    for _ in range(120):
        M = TernaryTable.from_flat(3, [rng.randrange(3) for _ in range(27)])
        assert braid_check(M).holds == satisfies_m1m2(M)


def test_braid_check_trivial_and_example():
    assert braid_check(TernaryTable.from_flat(1, [0]))
    assert braid_check(make_mu_g(TABLE1, 1))


def test_class_identities_contained_in_defining_identities_at_order_2():
    counts = {"A1": 0, "A2": 0, "A3": 0}
    for M in all_tables(2):
        for cls, conds in (("A1", ("A11", "A12")), ("A2", ("A21", "A22")), ("A3", ("A31", "A32"))):
            if all(check_ternary_condition(M, c) for c in conds):
                counts[cls] += 1
                assert satisfies_m1m2(M)
    assert all(v > 0 for v in counts.values())


def test_mu_g_over_klein_passes_identities():
    for variant in (1, 2, 3):
        assert satisfies_m1m2(make_mu_g(klein(), variant))


def test_mu_g_passes_identities_whenever_preconditions_do():
    from dybmaps import check_binary_condition, enumerate_left_quasigroups

    lq1 = lq22 = 0
    for L in enumerate_left_quasigroups(3):
        if check_binary_condition(L, "LQ1"):
            lq1 += 1
            assert satisfies_m1m2(make_mu_g(L, 1))
            assert satisfies_m1m2(make_mu_g(L, 2))
        if check_binary_condition(L, "LQ22") and check_binary_condition(L, "LQ21"):
            lq22 += 1
            assert satisfies_m1m2(make_mu_g(L, 3))
    assert lq1 > 0 and lq22 > 0


def test_unitarity_identity_on_derived_families():
    from conftest import s3

    assert check_ternary_condition(make_mu_g(TABLE1, 1), "U")
    assert check_ternary_condition(make_mu_g(TABLE1, 2), "U")
    res = check_ternary_condition(make_mu_g(s3(), 1), "U")
    assert not res  # the non-abelian order-6 group fails


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        check_ternary_condition(make_mu_g(TABLE1, 1), "M3")


def test_table_shape_validation():
    with pytest.raises(ValueError):
        TernaryTable.from_flat(2, [0] * 7)
    with pytest.raises(ValueError):
        TernaryTable.from_flat(2, [0] * 7 + [2])


# --- The API constructors read entries as integers, never by int() ----------

def test_from_flat_reads_integers_only():
    assert TernaryTable.from_flat(2, [np.int64(1), True] + [0] * 6).table == (1, 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 0.7")):
        TernaryTable.from_flat(2, [0.7] * 7 + ["1"])
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '1'")):
        TernaryTable.from_flat(2, [0] * 7 + ["1"])


def test_constructor_reads_integers_only():
    assert TernaryTable(2, (np.int64(1), True) + (0,) * 6).table == (1, 1, 0, 0, 0, 0, 0, 0)
    for bad, shown in ((1.9, "1.9"), (np.float64(1.0), repr(np.float64(1.0))), ("1", "'1'")):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {shown}")):
            TernaryTable(2, [bad] * 8)


def test_from_function_reads_integers_only():
    assert TernaryTable.from_function(2, lambda a, b, c: np.int32(a)) == make_constant_mu(2, [0, 1], "first")
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 1.0")):
        TernaryTable.from_function(2, lambda a, b, c: a if c == 0 else float(c))


def test_make_constant_mu_reads_integers_only():
    assert make_constant_mu(2, [np.int64(1), True], "middle").table == (1,) * 8
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 1.5")):
        make_constant_mu(2, [0, 1.5], "first")
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '1'")):
        make_constant_mu(2, [0, "1"], "third")


@pytest.mark.parametrize("position", ["first", "middle", "third"])
def test_make_constant_mu_refuses_the_orders_the_constructor_refuses(position):
    for n in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            make_constant_mu(n, [], position)
        with pytest.raises(ValueError, match="order must be >= 1"):
            TernaryTable(n, [])


def test_order_is_read_off_the_array_exactly():
    assert all(TernaryTable.order.fget(SimpleNamespace(array=range(n**3))) == n for n in range(1, 200_001))
    assert [make_constant_mu(n, [0] * n, "first").order for n in range(1, 9)] == list(range(1, 9))
    for n in range(1, 101):
        M = TernaryTable._of(np.zeros(n**3, np.int32))
        assert M.order == M.order == n


def test_is_ternary_hom_reads_integers_only():
    M = make_constant_mu(2, [0, 1], "first")
    assert is_ternary_hom([np.int64(1), False], M, M)
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 0.3")):
        is_ternary_hom([0.3, 1.7], M, M)
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '0'")):
        is_ternary_hom([1, "0"], M, M)


def test_make_constant_mu_and_is_ternary_hom_refuse_maps_off_the_carrier():
    for f in ([0, 2], [0], [0, 1, 0], [-1, 0]):
        with pytest.raises(ValueError, match="^f must map 0..n-1 into 0..n-1$"):
            make_constant_mu(2, f, "first")
    with pytest.raises(ValueError, match="^position must be first, middle or third, got 'last'$"):
        make_constant_mu(2, [0, 1], "last")
    M, small = make_constant_mu(3, [0, 1, 2], "first"), make_constant_mu(2, [0, 1], "first")
    with pytest.raises(ValueError, match="^h must land in the target carrier$"):
        is_ternary_hom([0, 1, 2], M, small)
