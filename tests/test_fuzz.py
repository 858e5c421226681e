"""Property tests of the JSON boundary with hypothesis: round trips, one-entry
corruptions against the per-entry reference reader, the codec of maps and
tables against `json`, the CLI's exit-2 contract for malformed documents,
the table constructors' whole-table range checks against their entry
loops, and bijections against a pure-Python reference.  Example counts are
bounded and the examples derandomized, so that the suite stays fast and
repeatable."""

import contextlib
import io
import json

import numpy as np
import pytest
from test_serialize import KINDS, _set, read_as, reference_rejection, rejection

from dybmaps import Bijection, BinaryTable, DynamicalMap, IndexOutOfRange, TernaryTable, serialize
from dybmaps.cli import main
from dybmaps.kernel import integer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@st.composite
def documents(draw, kind=None):
    """A valid document of `kind` (any kind by default), small orders."""
    kind = kind or draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, n - 1)
    if kind == "binary":
        table = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        return {"kind": kind, "order": n, "table": table}
    if kind == "bijection":
        return {"kind": kind, "order": n, "map": draw(st.permutations(range(n)))}
    if kind == "ternary":
        return {"kind": kind, "order": n, "table": draw(st.lists(entry, min_size=n**3, max_size=n**3))}
    h = draw(st.integers(1, 3))
    phi = draw(st.lists(st.lists(st.integers(0, h - 1), min_size=n, max_size=n), min_size=h, max_size=h))
    pair = st.lists(entry, min_size=2, max_size=2)
    r = draw(st.lists(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n),
                      min_size=h, max_size=h))
    return {"kind": kind, "weight_order": h, "set_order": n, "phi": phi, "r": r}


#: Values for any field of a map: valid ones, out-of-range integers, other
#: JSON types, and lists that may or may not be pairs or rows.
ANY_VALUE = st.one_of(st.booleans(), st.floats(allow_nan=True), st.text(max_size=2), st.none(),
                      st.lists(st.integers(-1, 4), max_size=3),
                      st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=1),
                      st.integers(-2, 6), st.integers(2**31, 2**64))


def _paths(doc):
    """Every path to a value inside the fields of `doc`, the kind excepted."""
    def walk(value, path):
        yield path
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from walk(item, (*path, i))
    for key, value in doc.items():
        if key != "kind":
            yield from walk(value, (key,))


@FUZZ
@given(documents())
def test_fuzz_round_trip(doc):
    obj = serialize.from_jsonable(doc)
    assert serialize.to_jsonable(obj) == doc
    text = serialize.encode(doc)
    assert text.endswith("\n") and text.count("\n") == 1
    assert serialize.loads(text) == obj


@FUZZ
@given(st.data())
def test_fuzz_one_entry_corruption_matches_the_reference(data):
    doc = data.draw(documents("dynmap"))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    _set(doc, path, data.draw(ANY_VALUE))
    assert rejection(doc) == reference_rejection(doc)


# --- The map codec against json.dumps and json.loads ---------------------------

@st.composite
def maps(draw, max_weights=3, max_elements=120):
    """A map of random weight and set orders, filled from a drawn seed."""
    h, n = draw(st.integers(1, max_weights)), draw(st.integers(1, max_elements))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DynamicalMap(rng.integers(0, h, (h, n)), rng.integers(0, n, (h, n, n, 2)))


@FUZZ
@given(maps())
def test_fuzz_map_writer_matches_json_dumps(R):
    text = serialize.dumps(R)
    assert text == serialize.encode(serialize.to_jsonable(R))
    assert serialize.loads(text) == R
    assert serialize.loads(text.rstrip("\n")) == R


@st.composite
def tables(draw):
    """A binary table, bijection or ternary table of random order, filled
    from a drawn seed; orders up to 45 make ternary documents of several
    codec blocks."""
    kind, n = draw(st.sampled_from(["binary", "bijection", "ternary"])), draw(st.integers(1, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "binary":
        return BinaryTable(rng.integers(0, n, (n, n)))
    if kind == "bijection":
        return Bijection.make(rng.permutation(n).tolist())
    return TernaryTable(n, rng.integers(0, n, n**3))


@FUZZ
@given(tables())
def test_fuzz_table_writer_matches_json_dumps(T):
    text = serialize.dumps(T)
    doc = serialize.to_jsonable(T)
    assert text == serialize.encode(doc)
    for spelled in (text, text.rstrip("\n"), json.dumps(doc), json.dumps(doc) + "\n"):
        assert serialize._scan(spelled.encode()) == T
        assert serialize.loads(spelled) == T


def edits(text: str):
    """Every deletion of one character, every substitution and insertion of
    one from a small alphabet, and every move of one digit elsewhere."""
    alphabet = '059[]{},:" \n.-x\u00e9'
    for i in range(len(text) + 1):
        if i < len(text):
            yield text[:i] + text[i + 1:]
            yield from (text[:i] + c + text[i + 1:] for c in alphabet if c != text[i])
        yield from (text[:i] + c + text[i:] for c in alphabet)
    for i, c in enumerate(text):
        if c.isdigit():
            rest = text[:i] + text[i + 1:]
            yield from (rest[:j] + c + rest[j:] for j in range(len(rest) + 1) if j != i)


@settings(FUZZ, max_examples=6)
@given(maps(max_weights=2, max_elements=2))
def test_fuzz_edited_map_lines_read_as_json_reads_them(R):
    """The fast read accepts exactly the writer's lines: any edit gives the
    map or the error of json.loads and from_jsonable."""
    def reference(text):
        return serialize.from_jsonable(json.loads(text))

    for text in edits(serialize.dumps(R)):
        assert read_as(serialize.loads, text) == read_as(reference, text), repr(text)


#: Values that no field of a document of order at most 4 accepts.
NEVER_VALID = st.one_of(st.booleans(), st.floats(allow_nan=True), st.text(max_size=2), st.none(),
                        st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=1),
                        st.integers(-3, -1), st.integers(5, 2**70))
JSON = st.recursive(st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=3),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.sampled_from(["kind", "order", "table", "map", "phi", "r",
                                                       "binary", "dynmap"]), inner, max_size=4),
                    max_leaves=12)


@st.composite
def malformed(draw):
    """(kind, text): a document the reader rejects, for the command reading `kind`.
    One field set to a value no field accepts, valid text cut short, or any
    JSON value that is not a valid document."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    doc = draw(documents(kind))
    how = draw(st.sampled_from(("entry", "cut", "json")))
    if how == "entry":
        _set(doc, draw(st.sampled_from(list(_paths(doc)))), draw(NEVER_VALID))
        text = json.dumps(doc)
    elif how == "cut":
        text = json.dumps(doc)
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    else:
        doc = draw(JSON)
        text = json.dumps(doc)
    hypothesis.assume(rejection(doc) is not None)
    return kind, text


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-fuzz")
    for kind, obj in KINDS.items():
        serialize.dump(obj, d / f"{kind}.json")
    return d


@FUZZ
@given(case=malformed())
def test_fuzz_cli_exits_2_on_malformed_documents(cli_dir, case):
    kind, text = case
    bad = cli_dir / "bad.json"
    bad.write_text(text, encoding="utf-8")
    triple = {"--L": cli_dir / "binary.json", "--M": cli_dir / "ternary.json",
              "--pi": cli_dir / "bijection.json"}
    if kind == "binary":
        argv = ["validate", bad]
    elif kind == "dynmap":
        argv = ["verify", "--check", "qdybe", bad]
    else:
        triple["--M" if kind == "ternary" else "--pi"] = bad
        argv = ["build", *(str(x) for item in triple.items() for x in item)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(x) for x in argv])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


# --- The constructors' whole-table range checks against the entry loops -------
# Each loop reads an entry as an integer before its range test, so a float,
# a string or a list is refused however it compares.

def reference_ternary_check(n, table):
    for i, x in enumerate(table):
        if not 0 <= integer(x) < n:
            raise ValueError(f"entry {i} = {x} out of range 0..{n - 1}")


def reference_binary_check(rows):
    n = len(rows)
    for u, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {u} has length {len(row)}, expected {n}")
        for v, x in enumerate(row):
            if not 0 <= integer(x) < n:
                raise ValueError(f"entry ({u},{v}) = {x} out of range 0..{n - 1}")


def outcome(fn, *args):
    try:
        fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


#: Entries that `0 <= x < n` alone accepts or rejects in different ways,
#: beside the bounds -1 and n that each test adds.
ODD_ENTRIES = st.one_of(st.booleans(), st.floats(allow_nan=True),
                        st.sampled_from([0.5, 1.0, float("nan")]), st.text(max_size=1), st.none(),
                        st.lists(st.integers(0, 1), max_size=1),
                        st.lists(st.integers(0, 1), max_size=1).map(tuple))


def _with_odd_entries(data, values, n):
    values = list(values)
    odd = st.one_of(st.sampled_from([-1, n]), ODD_ENTRIES)
    for _ in range(data.draw(st.integers(0, 3))):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(odd)
    return tuple(values)


@FUZZ
@given(st.data())
def test_fuzz_ternary_constructor_matches_the_entry_loop(data):
    n = data.draw(st.integers(1, 3))
    table = _with_odd_entries(data, data.draw(st.lists(st.integers(0, n - 1), min_size=n**3, max_size=n**3)), n)
    assert outcome(TernaryTable, n, table) == outcome(reference_ternary_check, n, table)


@FUZZ
@given(st.data())
def test_fuzz_binary_constructor_matches_the_entry_loop(data):
    n = data.draw(st.integers(1, 4))
    rows = [_with_odd_entries(data, data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)), n)
            for _ in range(n)]
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, n - 1))] = data.draw(
            st.one_of(st.none(), st.integers(0, 1), st.lists(st.integers(0, n), max_size=n + 1).map(tuple)))
    rows = tuple(rows)
    assert outcome(BinaryTable, rows) == outcome(reference_binary_check, rows)


#: Tables whose fast test fails or raises, and the entry loop decides.
ODD_TERNARY = [(2, (0,) * 7 + (x,)) for x in (2, -1, 0.5, 1.0, True, float("nan"), [0], "0")] + [
    (2, (0, 5) + (0,) * 5 + ([0],)), (2, (0, float("nan")) + (1,) * 6)]
ODD_BINARY = [((0, 1), (1, x)) for x in (2, -1, 0.5, True, float("nan"), [0], None)] + [
    ((0, 2), None), ((0, 2), (0,)), ((0, 1), (0,)), ((0, 1), 5), ((0, [1]), (1, 0)), ((0, 1, 0), (1, 0))]


@pytest.mark.parametrize("n, table", ODD_TERNARY, ids=repr)
def test_ternary_constructor_matches_the_entry_loop(n, table):
    assert outcome(TernaryTable, n, table) == outcome(reference_ternary_check, n, table)


@pytest.mark.parametrize("rows", ODD_BINARY, ids=repr)
def test_binary_constructor_matches_the_entry_loop(rows):
    assert outcome(BinaryTable, rows) == outcome(reference_binary_check, rows)


def _reference_inverse(m: list[int]) -> list[int]:
    return [m.index(x) for x in range(len(m))]


@FUZZ
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_bijection_agrees_with_a_pure_python_reference(perms):
    a, b = map(list, perms)
    f, g = Bijection.make(a), Bijection.make(tuple(b))
    expected = {f: a, g: b, f.invert(): _reference_inverse(a), f.compose(g): [a[x] for x in b],
                g.compose(f).invert(): _reference_inverse([b[x] for x in a]), Bijection.identity(len(a)): sorted(a)}
    for h, m in expected.items():
        assert h.map.tolist() == m and h.inverse.tolist() == _reference_inverse(m)
        for array in (h.map, h.inverse):
            assert array.dtype == np.int32 and not array.flags.writeable
        assert h.order == len(m) and [h(x) for x in range(len(m))] == m
        assert all(type(h(x)) is int for x in range(len(m)))
        for x in (-1, len(m)):
            with pytest.raises(IndexOutOfRange):
                h(x)
        # equality and hashing by content, not by identity
        same = Bijection.make(m)
        assert h == same and hash(h) == hash(same) and same in expected
    assert (f == g) == (a == b) and (f != g) == (a != b)
    assert f.compose(f.invert()) == f.invert().compose(f) == Bijection.identity(len(a))
