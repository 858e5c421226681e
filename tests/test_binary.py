import random
import re
from itertools import product

import numpy as np
import pytest
from conftest import GROUPS_LE6, TABLE1, cyclic, klein, lq, s3, shift

from dybmaps import (
    Bijection,
    BinaryTable,
    IndexOutOfRange,
    LeftQuasigroup,
    NotAPermutation,
    NotLeftQuasigroup,
    check_binary_condition,
    classify_structure,
    enumerate_left_quasigroups,
    validate_left_quasigroup,
)
from dybmaps.kernel import Identity, check


def test_table1_validates_with_expected_division():
    assert TABLE1.division.tolist() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    # 1-based row 2 divisions (2\1, 2\2, 2\3) = (2, 1, 3)
    assert TABLE1.division[1].tolist() == [1, 0, 2]


def test_singleton_and_projection_tables_validate():
    one = validate_left_quasigroup(BinaryTable.from_rows([[0]]))
    assert one.division.tolist() == [[0]]
    proj = validate_left_quasigroup(BinaryTable.from_rows([[0, 1], [0, 1]]))
    assert proj.order == 2
    flags = classify_structure(proj.base)
    assert flags.is_left_quasigroup and not flags.is_quasigroup


def test_repeated_row_entry_rejected():
    with pytest.raises(NotLeftQuasigroup) as exc:
        validate_left_quasigroup(BinaryTable.from_rows([[0, 0], [1, 0]]))
    assert exc.value.row == 0 and exc.value.value == 0


def test_malformed_tables_rejected():
    with pytest.raises(ValueError):
        BinaryTable.from_rows([])
    with pytest.raises(ValueError):
        BinaryTable.from_rows([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        BinaryTable.from_rows([[0], [0]])


def test_classify_table1():
    flags = classify_structure(TABLE1.base)
    assert flags.is_quasigroup
    assert not flags.is_loop and not flags.is_group
    assert flags.identity is None


def test_classify_z2_group():
    flags = classify_structure(cyclic(2).base)
    assert flags.is_group and flags.identity == 0


def test_classify_is_monotone_over_all_order3_tables():
    for L in enumerate_left_quasigroups(3):
        f = classify_structure(L.base)
        assert f.is_left_quasigroup
        if f.is_group:
            assert f.is_loop
        if f.is_loop:
            assert f.is_quasigroup
        assert (f.identity is not None) == f.is_loop


def test_left_divide_examples():
    # 1-based: 2\3 = 3 and 1\3 = 2
    assert TABLE1.left_div(1, 2) == 2
    assert TABLE1.left_div(0, 2) == 1
    for u, v in product(range(3), repeat=2):
        assert TABLE1.left_div(u, TABLE1.mul(u, v)) == v
        assert TABLE1.mul(u, TABLE1.left_div(u, v)) == v
    with pytest.raises(IndexOutOfRange):
        TABLE1.left_div(3, 0)


@pytest.mark.parametrize("x", [3, 7, -1, -3])
def test_bijection_refuses_a_point_outside_the_carrier(x):
    b = Bijection.make((2, 0, 1))
    with pytest.raises(IndexOutOfRange, match=f"^{re.escape(f'{x} outside 0..2')}$"):
        b(x)
    assert [b(u) for u in range(3)] == [2, 0, 1]


def test_binary_conditions_on_table1():
    assert check_binary_condition(TABLE1, "EX12")
    assert check_binary_condition(TABLE1, "LQ1")
    assert check_binary_condition(TABLE1, "LQ22")
    assert check_binary_condition(TABLE1, "LQ21")


def test_inv2_counterexample_on_z3():
    res = check_binary_condition(cyclic(3), "INV2")
    assert not res and res.witness == (0, 1)


def test_inv2_holds_on_z2_and_klein():
    assert check_binary_condition(cyclic(2), "INV2")
    assert check_binary_condition(klein(), "INV2")


@pytest.mark.parametrize("name", sorted(GROUPS_LE6))
@pytest.mark.parametrize("cond", ["LQ1", "LQ22", "LQ21"])
def test_groups_satisfy_translation_conditions(name, cond):
    assert check_binary_condition(GROUPS_LE6[name], cond)


def test_s3_fails_ex12():
    assert not check_binary_condition(s3(), "EX12")


def test_ex12_implies_lq1_at_order_3():
    hits = 0
    for L in enumerate_left_quasigroups(3):
        if check_binary_condition(L, "EX12"):
            hits += 1
            assert check_binary_condition(L, "LQ1")
    assert hits > 0


#: LQ1 over every a, the n^4 form its declaration at a = 0 replaced.
LQ1_EVERY_A = Identity("a a2 b c", "ld(mul(a, c), mul(mul(a, b), c)) == ld(mul(a2, c), mul(mul(a2, b), c))")


def test_lq1_matches_its_form_over_every_a():
    rng = random.Random("lq1")
    tables = [*enumerate_left_quasigroups(3), *GROUPS_LE6.values(), shift(5), cyclic(7), cyclic(8)]
    tables += [lq([rng.sample(range(n), n) for _ in range(n)]) for n in range(1, 9) for _ in range(25)]
    failed = 0
    for L in tables:
        want = check(LQ1_EVERY_A, "LQ1", n=L.order, mul=L.array.reshape(-1), ld=L.division.reshape(-1))
        assert check_binary_condition(L, "LQ1") == want
        failed += not want
    assert 0 < failed < len(tables)


def test_projection_product_satisfies_lq1():
    assert check_binary_condition(shift(3), "LQ1")


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        check_binary_condition(TABLE1, "nope")


def test_bijection_make_invert_compose():
    f = Bijection.make([1, 2, 0])
    assert f.invert().map.tolist() == [2, 0, 1]
    assert f.compose(f.invert()).map.tolist() == [0, 1, 2]
    g = Bijection.make([0, 2, 1])
    # compose(f, g)(x) = f(g(x))
    fm, gm = f.map.tolist(), g.map.tolist()
    assert f.compose(g).map.tolist() == [fm[gm[x]] for x in range(3)]
    with pytest.raises(NotAPermutation):
        Bijection.make([0, 0, 1])


def test_lq22_lq21_without_group_or_distributivity_exists():
    # the search can look for such structures; no count is asserted
    found = []
    for L in enumerate_left_quasigroups(3):
        if check_binary_condition(L, "LQ22") and check_binary_condition(L, "LQ21"):
            f = classify_structure(L.base)
            if not f.is_group and not f.is_right_distributive:
                found.append(L)
    for L in found:
        assert check_binary_condition(L, "LQ22")
        assert check_binary_condition(L, "LQ21")


# --- The API constructors read entries as integers, never by int() ----------

def test_from_rows_reads_integers_only():
    assert BinaryTable.from_rows([[np.int64(0), True], [np.int32(1), False]]).rows == ((0, 1), (1, 0))
    for bad, shown in ((1.9, "1.9"), ("1", "'1'"), (np.float64(0.0), repr(np.float64(0.0)))):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {shown}")):
            BinaryTable.from_rows([[0, bad], [1, 0]])


def test_constructor_reads_integers_only():
    assert BinaryTable([[np.int64(0), True], [np.int32(1), False]]).rows == ((0, 1), (1, 0))
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 0.5")):
        BinaryTable([[0.5, 1.7], [1.2, 0.0]])
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '1'")):
        BinaryTable(((0, 1), (1, "1")))


def test_bijection_make_reads_integers_only():
    assert Bijection.make([np.int64(1), False]).map.tolist() == [1, 0]
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 1.9")):
        Bijection.make([1.9, "0"])
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '0'")):
        Bijection.make([1, "0"])


@pytest.mark.parametrize("values, error, message", [
    ([1, 0, 1], NotAPermutation, "value 1 at position 2"),
    ([0, -1], NotAPermutation, "value -1 at position 1"),
    ([2**40, 0], NotAPermutation, "value 1099511627776 at position 0"),
    ([0, np.int64(2**40)], NotAPermutation, "value 1099511627776 at position 1"),
    ([1.9, 0], ValueError, "expected an integer, got 1.9"),
    ([0, "0"], ValueError, "expected an integer, got '0'"),
])
def test_bijection_make_refuses_with_the_same_type_and_message(values, error, message):
    with pytest.raises(error) as exc:
        Bijection.make(values)
    assert type(exc.value) is error and str(exc.value) == message


def test_bijection_has_no_unchecked_constructor():
    with pytest.raises(TypeError):
        Bijection((0, 0), (1, 1))


def test_bijection_identity_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0, got -2"):
        Bijection.identity(-2)
    assert Bijection.identity(0).order == 0


def test_left_quasigroup_is_a_table_with_its_division():
    assert issubclass(LeftQuasigroup, BinaryTable)
    assert not hasattr(TABLE1, "__dict__")
    assert not any(isinstance(getattr(TABLE1, a), BinaryTable) for a in LeftQuasigroup.__slots__)
    assert (TABLE1.order, TABLE1.rows, TABLE1.mul(1, 2)) == (3, ((0, 2, 1), (1, 0, 2), (2, 1, 0)), 2)
    assert type(TABLE1.base) is BinaryTable and TABLE1.base.array is TABLE1.array
    assert classify_structure(TABLE1) == classify_structure(TABLE1.base)
    assert TABLE1 != TABLE1.base and validate_left_quasigroup(TABLE1) == TABLE1
    for make in (lambda: LeftQuasigroup(TABLE1.base, TABLE1.division), lambda: LeftQuasigroup(TABLE1.rows),
                 lambda: LeftQuasigroup.from_rows(TABLE1.rows)):
        with pytest.raises(TypeError):
            make()


def test_mul_and_compose_refuse_what_they_cannot_read():
    for u, v in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"({u},{v}) outside 0..2")):
            TABLE1.base.mul(u, v)
    with pytest.raises(NotAPermutation, match="^cannot compose bijections of different orders$"):
        Bijection.identity(2).compose(Bijection.identity(3))
