import json
import random
import re
from unittest import mock

import numpy as np
import pytest
from conftest import TABLE1, corpus_triples, cyclic, lq

from dybmaps import (
    Bijection,
    BinaryTable,
    LeftQuasigroup,
    TernaryTable,
    Triple,
    build_dyb,
    make_mu_g,
    validate_left_quasigroup,
)
from dybmaps import serialize
from dybmaps.engine import DynamicalMap
from dybmaps.errors import AlgebraError, NotAPermutation


def test_binary_round_trip(tmp_path):
    path = tmp_path / "t.json"
    serialize.dump(TABLE1.base, path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "binary" and doc["order"] == 3
    assert serialize.load(path) == TABLE1.base


def test_left_quasigroup_serializes_as_binary():
    doc = serialize.to_jsonable(TABLE1)
    assert doc["kind"] == "binary"
    assert serialize.from_jsonable(doc) == TABLE1.base


def test_bijection_round_trip():
    b = Bijection.make((2, 0, 1))
    assert serialize.loads(serialize.dumps(b)) == b


def test_ternary_round_trip():
    M = make_mu_g(TABLE1, 2)
    doc = serialize.to_jsonable(M)
    assert doc["kind"] == "ternary" and len(doc["table"]) == 27
    assert serialize.from_jsonable(doc) == M


def test_dynmap_round_trip_over_corpus():
    for t, ok in corpus_triples():
        R = build_dyb(t, checked=False)
        back = serialize.loads(serialize.dumps(R))
        assert back == R


def test_bad_documents_rejected():
    with pytest.raises(ValueError):
        serialize.from_jsonable({"order": 2})
    with pytest.raises(ValueError):
        serialize.from_jsonable({"kind": "widget"})
    with pytest.raises(ValueError):
        serialize.from_jsonable({"kind": "binary", "order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError):
        serialize.from_jsonable(
            {"kind": "dynmap", "weight_order": 2, "set_order": 1,
             "phi": [[0]], "r": [[[[0, 0]]]]}
        )
    with pytest.raises(TypeError):
        serialize.to_jsonable(42)


@pytest.mark.parametrize("pair", [[0, 0, 5], [0], 0])
def test_malformed_dynmap_pair_is_named_by_position(pair):
    doc = serialize.to_jsonable(build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 1), Bijection.identity(3))))
    doc["r"][1][0][2] = pair
    message = f"r[1][0][2] must be a pair of integers, got {pair!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize.from_jsonable(doc)


#: Documents with a row that is not a list, and the message naming it.
NON_LIST_ROWS = [
    ({"kind": "binary", "order": 2, "table": [[0, 1], 0]}, "table[1] must be a list of integers, got 0"),
    ({"kind": "binary", "order": 2, "table": [[0, 1], "10"]},
     "table[1] must be a list of integers, got '10'"),
    ({"kind": "binary", "order": 1, "table": 0}, "table must be a list of lists, got 0"),
    ({"kind": "bijection", "order": 1, "map": 0}, "map must be a list of integers, got 0"),
    ({"kind": "ternary", "order": 1, "table": 0}, "table must be a list of integers, got 0"),
    ({"kind": "dynmap", "weight_order": 1, "set_order": 1, "phi": [0], "r": [[[[0, 0]]]]},
     "phi[0] must be a list of integers, got 0"),
    ({"kind": "dynmap", "weight_order": 1, "set_order": 1, "phi": [[0]], "r": [[0]]},
     "r[0][0] must be a list of pairs, got 0"),
    ({"kind": "dynmap", "weight_order": 1, "set_order": 1, "phi": [[0]], "r": [{"0": 0}]},
     "r[0] must be a list of lists, got {'0': 0}"),
]


@pytest.mark.parametrize("doc, message", NON_LIST_ROWS)
def test_non_list_row_is_named_by_position(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize.from_jsonable(doc)


def test_dynmap_output_range_checked():
    doc = {
        "kind": "dynmap",
        "weight_order": 1,
        "set_order": 1,
        "phi": [[0]],
        "r": [[[[0, 1]]]],
    }
    with pytest.raises(ValueError):
        serialize.from_jsonable(doc)


#: One order-1 document of each kind, and the paths to its integer fields.
ORDER1_DOCS = {
    "binary": ({"kind": "binary", "order": 1, "table": [[0]]},
               [("order",), ("table", 0, 0)]),
    "bijection": ({"kind": "bijection", "order": 1, "map": [0]},
                  [("order",), ("map", 0)]),
    "ternary": ({"kind": "ternary", "order": 1, "table": [0]},
                [("order",), ("table", 0)]),
    "dynmap": ({"kind": "dynmap", "weight_order": 1, "set_order": 1,
                "phi": [[0]], "r": [[[[0, 0]]]]},
               [("weight_order",), ("set_order",), ("phi", 0, 0),
                ("r", 0, 0, 0, 0), ("r", 0, 0, 0, 1)]),
}


def _non_integer_cases():
    for kind, (doc, paths) in ORDER1_DOCS.items():
        for path in paths:
            value = doc
            for key in path:
                value = value[key]
            for bad in (float(value), bool(value), str(value)):
                # The declared order of a binary table or bijection is only
                # compared with the shape, which already rejects a string.
                if path == ("order",) and kind in ("binary", "bijection") and isinstance(bad, str):
                    continue
                yield pytest.param(kind, path, bad, id=f"{kind}-{'.'.join(map(str, path))}-{bad!r}")


@pytest.mark.parametrize("kind, path, bad", _non_integer_cases())
def test_only_json_integers_accepted(kind, path, bad):
    doc = json.loads(json.dumps(ORDER1_DOCS[kind][0]))
    assert serialize.from_jsonable(doc) is not None
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValueError):
        serialize.from_jsonable(doc)


# --- The JSON boundary against a per-entry reference -------------------------


def reference_dynmap(doc: dict) -> DynamicalMap:
    """The dynmap reader as a loop over every entry, each check reading the
    orders from the rows: the reference for the messages of the reader.  Once
    reading has failed, a row that is not a list, or an entry of r that is
    not a pair, is named by its position instead."""
    try:
        phi = tuple(map(tuple, doc["phi"]))
        r = tuple(tuple(tuple(map(tuple, row)) for row in lam_rows) for lam_rows in doc["r"])
        if not phi or not phi[0]:
            raise ValueError("a dynamical map needs at least one weight and one element")
        if len(phi) != serialize._int(doc["weight_order"]) or len(phi[0]) != serialize._int(
            doc["set_order"]
        ):
            raise ValueError("declared orders disagree with table shapes")
        if len(r) != len(phi) or any(
            len(lam_rows) != len(phi[0])
            or any(len(row) != len(phi[0]) for row in lam_rows)
            for lam_rows in r
        ):
            raise ValueError("map table shape disagrees with declared orders")
        for lam_rows in r:
            for row in lam_rows:
                for a, b in row:
                    if type(a) is not int or type(b) is not int:
                        raise ValueError(f"expected integers, got the pair {[a, b]!r}")
                    if not (0 <= a < len(phi[0]) and 0 <= b < len(phi[0])):
                        raise ValueError("map output out of range")
        for row in phi:
            if len(row) != len(phi[0]):
                raise ValueError("weight-shift row length disagrees")
            for x in row:
                if not 0 <= serialize._int(x) < len(phi):
                    raise ValueError("weight shift out of range")
    except (TypeError, ValueError):
        reference_shape(doc["phi"], 2, "integers", "phi")
        reference_shape(doc["r"], 3, "pairs", "r")
        raise
    return DynamicalMap(phi=phi, r=r)


def reference_shape(value, depth, inner, name):
    """ValueError naming the first part of `value`, `depth` lists deep around
    `inner`, that is not a list, or an entry that should be a pair and is not."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of {inner if depth == 1 else 'lists'}, got {value!r}")
    for i, item in enumerate(value):
        if depth > 1:
            reference_shape(item, depth - 1, inner, f"{name}[{i}]")
        elif inner == "pairs" and not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"{name}[{i}] must be a pair of integers, got {item!r}")


def rejection(doc):
    """(exception type, message) with which from_jsonable rejects `doc`, or
    None if it reads it."""
    try:
        serialize.from_jsonable(doc)
    except (AlgebraError, TypeError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return None


def reference_rejection(doc):
    with mock.patch.object(serialize, "_dynmap", reference_dynmap):
        return rejection(doc)


def _map_doc(n: int) -> dict:
    """The document of a valid map of weight and set order n."""
    L = cyclic(n)
    return serialize.to_jsonable(build_dyb(Triple(L, make_mu_g(L, 1), Bijection.identity(n))))


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


def _corruptions(n: int):
    """(path, value) pairs that each make a valid order-n map invalid."""
    first, last = (0, 0, 0), (n - 1, n - 1, n - 1)
    for where in (first, last):
        for slot in (0, 1):
            for bad in (True, 1.0, "1", n, -1):
                yield ("r", *where, slot), bad
        for bad in ([0], [0, 1, 2]):
            yield ("r", *where), bad
    for where in ((0, 0), (n - 1, n - 1)):
        for bad in (n, -1, 1.0, True, "0"):
            yield ("phi", *where), bad
    yield ("phi", n - 1), list(range(n - 1))
    yield ("phi", 0), list(range(n + 1))


@pytest.mark.parametrize("path, bad", list(_corruptions(5)), ids=repr)
def test_reader_messages_match_the_reference(path, bad):
    doc = _map_doc(5)
    _set(doc, path, bad)
    expected = reference_rejection(doc)
    assert expected is not None
    assert rejection(doc) == expected


KINDS = {
    "binary": TABLE1.base,
    "bijection": Bijection.make((2, 0, 1)),
    "ternary": make_mu_g(TABLE1, 2),
    "dynmap": build_dyb(Triple(TABLE1, make_mu_g(TABLE1, 1), Bijection.identity(3))),
}


REQUIRED_FIELDS = [("ternary", "table"), ("ternary", "order"), ("binary", "table"), ("binary", "order"),
                   ("bijection", "map"), ("bijection", "order"), ("dynmap", "weight_order"),
                   ("dynmap", "set_order"), ("dynmap", "phi"), ("dynmap", "r")]


@pytest.mark.parametrize("kind, field", REQUIRED_FIELDS)
def test_missing_field_is_a_value_error_naming_kind_and_field(tmp_path, kind, field):
    doc = serialize.to_jsonable(KINDS[kind])
    del doc[field]
    message = f"{kind} document has no {field!r} field"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize.from_jsonable(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize.load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_dump_writes_one_compact_line_that_loads_back(tmp_path, kind):
    obj = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    serialize.dump(obj, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(serialize.to_jsonable(obj), separators=(",", ":")) + "\n"
    assert text.count("\n") == 1 and " " not in text
    assert json.loads(text)["kind"] == kind
    assert serialize.load(path) == obj


def _map_line_variants():
    """(name, bytes) of files of one map: its line, then the line re-encoded,
    re-spaced or broken."""
    line = serialize.dumps(KINDS["dynmap"])
    yield "line", line.encode()
    yield "no-newline", line.rstrip("\n").encode()
    yield "crlf", line.replace("\n", "\r\n").encode()
    yield "bom", b"\xef\xbb\xbf" + line.encode()
    yield "utf-16", line.encode("utf-16")
    yield "crlf-then-error", line.replace("{", "{\r\n\r", 1).replace('"r":', '"r" ').encode()
    yield "latin-1", line.replace('"kind"', '"k\xefnd"').encode("latin-1")
    yield "indented", json.dumps(json.loads(line), indent=1).encode()


MAP_FILES = dict(_map_line_variants())


@pytest.mark.parametrize("name", MAP_FILES)
def test_load_reads_files_as_read_text_and_json_loads_do(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(MAP_FILES[name])

    def outcome(read):
        try:
            return "map", read()
        except ValueError as exc:
            return type(exc), str(exc)

    expected = outcome(lambda: serialize.from_jsonable(json.loads(path.read_text(encoding="utf-8"))))
    assert outcome(lambda: serialize.load(path)) == expected
    if name in ("line", "no-newline", "indented"):
        assert expected == ("map", KINDS["dynmap"])


def test_deeply_nested_document_is_a_value_error():
    for text in ("[" * 100000, '{"kind":' * 100000):
        with pytest.raises(ValueError, match="^document nested too deeply: "):
            serialize.loads(text)


# --- Tables are values: equal, hashed and written by content ----------------

def value_tables(n):
    """A seeded binary table, left quasigroup and ternary table of order n,
    each made twice from the same entries."""
    rng = random.Random(f"values/{n}")
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    perms = [rng.sample(range(n), n) for _ in range(n)]
    flat = [rng.randrange(n) for _ in range(n**3)]
    return [(BinaryTable.from_rows(rows), BinaryTable(tuple(map(tuple, rows)))),
            (lq(perms), validate_left_quasigroup(BinaryTable(np.array(perms)))),
            (TernaryTable.from_flat(n, flat), TernaryTable(n, np.array(flat, np.int64)))]


@pytest.mark.parametrize("n", range(1, 9))
def test_tables_are_values(n):
    for x, y in value_tables(n):
        assert x is not y and x == y and hash(x) == hash(y)
        arrays = [x.array] + ([x.division] if isinstance(x, LeftQuasigroup) else [])
        for a in arrays:
            assert a.dtype == np.int32 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0
        if isinstance(x, TernaryTable):
            assert TernaryTable(n, x.table) == x
            assert x != TernaryTable(n, x.table[1:] + x.table[:1]) or len(set(x.table)) == 1
        else:
            assert BinaryTable(x.rows) == (x.base if isinstance(x, LeftQuasigroup) else x)
            if isinstance(x, LeftQuasigroup):
                assert LeftQuasigroup._of(x.array, x.division.copy()) == x
        assert serialize.loads(serialize.dumps(x)) == (x.base if isinstance(x, LeftQuasigroup) else x)
    assert len({x for x, _ in value_tables(n)} | {y for _, y in value_tables(n)}) == 3


# --- The array codec against json, for every kind and both spellings ---------


def codec_objects():
    """(name, object): one of each kind at orders 1, 3 and 12, so that entries
    of one and two digits occur, and tables whose documents span several
    blocks of the codec."""
    rng = np.random.default_rng(2024)
    for n in (1, 3, 12):
        yield f"binary-{n}", BinaryTable(rng.integers(0, n, (n, n)))
        yield f"bijection-{n}", Bijection.make(rng.permutation(n).tolist())
        yield f"ternary-{n}", TernaryTable(n, rng.integers(0, n, n**3))
        yield f"dynmap-2x{n}", DynamicalMap(rng.integers(0, 2, (2, n)), rng.integers(0, n, (2, n, n, 2)))
    yield "ternary-41", TernaryTable(41, rng.integers(0, 41, 41**3))
    yield "binary-300", BinaryTable(rng.integers(0, 300, (300, 300)))
    yield "bijection-30000", Bijection.make(rng.permutation(30000).tolist())


CODEC_OBJECTS = dict(codec_objects())


def spellings(doc: dict):
    """(name, text): `doc` in the package's compact spelling and in
    json.dumps's default one, each with and without its final newline."""
    for name, text in (("compact", serialize.encode(doc)), ("spaced", json.dumps(doc) + "\n")):
        yield name, text
        yield f"{name}-no-newline", text[:-1]


def read_as(read, arg):
    """What `read(arg)` gives: ("object", its type, the object) or the
    exception's type and message."""
    try:
        obj = read(arg)
    except (AlgebraError, TypeError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return "object", type(obj), obj


def assert_reads_as_json(path, text: str) -> None:
    """`loads` of `text` as str and as bytes, and `load` of a file holding
    it, each give what json.loads and from_jsonable give."""
    def reference(source):
        return serialize.from_jsonable(json.loads(source))

    path.write_bytes(text.encode("utf-8"))
    assert read_as(serialize.loads, text) == read_as(reference, text), repr(text)
    assert read_as(serialize.loads, text.encode()) == read_as(reference, text.encode()), repr(text)
    assert read_as(serialize.load, path) == read_as(reference, path.read_text(encoding="utf-8")), repr(text)


@pytest.mark.parametrize("name", CODEC_OBJECTS)
def test_codec_writes_the_compact_line_and_reads_both_spellings(tmp_path, name):
    obj = CODEC_OBJECTS[name]
    doc = serialize.to_jsonable(obj)
    assert serialize.dumps(obj) == serialize.encode(doc)
    for spelling, text in spellings(doc):
        # The codec itself reads each spelling, not only the JSON path.
        assert serialize._scan(text.encode()) == obj, spelling
        assert_reads_as_json(tmp_path / "doc.json", text)


def test_codec_writes_the_order_0_bijection(tmp_path):
    """The one valid object with an empty list, which the codec's slots
    would take for a list of one."""
    b = Bijection.identity(0)
    line = serialize.encode(serialize.to_jsonable(b))
    assert line == '{"kind":"bijection","order":0,"map":[]}\n'
    assert serialize.dumps(b) == line and serialize.loads(line) == b
    serialize.dump(b, tmp_path / "b.json")
    assert serialize.load(tmp_path / "b.json") == b == Bijection.make([])


def test_left_quasigroup_is_written_as_its_base():
    assert serialize.dumps(TABLE1) == serialize.encode(serialize.to_jsonable(TABLE1.base))


#: The bytes a mutation draws from.
MUTATION_ALPHABET = '0123456789[],:{}"-.e \t\n'


def mutations(text: str, rng: random.Random, count: int):
    """`count` copies of `text`, each with 1-3 bytes replaced, inserted or
    deleted at random."""
    for _ in range(count):
        out = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(out) + 1)
            how = rng.choice("rid") if i < len(out) else "i"
            c = rng.choice(MUTATION_ALPHABET)
            out = out[:i] + c + out[i + (how != "i"):] if how != "d" else out[:i] + out[i + 1:]
        yield out


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_documents_read_as_json_reads_them(tmp_path, kind):
    """Every mutation gives the object, or the exception type and message,
    of json.loads and from_jsonable, in either spelling."""
    rng = random.Random(f"mutations/{kind}")
    for _, text in spellings(serialize.to_jsonable(KINDS[kind])):
        for edited in mutations(text, rng, 250):
            assert_reads_as_json(tmp_path / "doc.json", edited)


def _last_entry(text: str, value: str) -> str:
    """`text` with its last number replaced by `value`."""
    return re.sub(r"[0-9]+(\]+\}\n?)$", lambda m: value + m[1], text)


def named_edits(kind: str, doc: dict, text: str):
    """(name, text): edits of a document's text that the codec must leave to
    the JSON path, or read as it reads them."""
    yield "digit in a key", text.replace('"kind"', '"ki1nd"', 1)
    yield "digit in the order key", text.replace('order"', 'ord3er"', 1)
    yield "digit in the kind", text.replace(f'"{kind}"', f'"{kind[:2]}7{kind[2:]}"', 1)
    yield "space in the kind", text.replace(f'"{kind}"', f'"{kind[:3]} {kind[3:]}"', 1)
    yield "space before a comma", re.sub(r"([0-9]),", r"\1 ,", text, count=1)
    yield "space before a bracket", re.sub(r"([0-9])\]", r"\1 ]", text, count=1)
    yield "space before a colon", text.replace('":', '" :', 1)
    yield "two spaces", text.replace(": ", ":  ", 1) if ": " in text else text.replace(":", ":  ", 1)
    yield "tab", re.sub(r"([0-9]), ?", "\\1,\t", text, count=1)
    yield "crlf", text.rstrip("\n") + "\r\n"
    yield "leading space", " " + text
    yield "trailing space", text.rstrip("\n") + " \n"
    for value in ("01", "00", "-0", "-1", "1.0", "1e0", "true", "null", '"1"', "1234567890"):
        yield f"entry {value}", _last_entry(text, value)
    yield "order 03", re.sub(r'order": ?', lambda m: m[0] + "0", text, count=1)
    yield "order 0", re.sub(r'order(": ?)[0-9]+', r"order\g<1>0", text, count=1)
    yield "order one more", re.sub(r'order(": ?)([0-9]+)', lambda m: f"order{m[1]}{int(m[2]) + 1}", text, count=1)
    yield "missing slot", _last_entry(text, "")
    yield "missing entry", re.sub(r"[0-9]+, ?([0-9]+\]+\}\n?)$", r"\1", text)
    yield "extra slot", re.sub(r"([0-9]+)(\]+\}\n?)$", r"\1,0\2", text)
    yield "extra key first", text.replace("{", '{"x":1,', 1)
    yield "extra key last", re.sub(r"\}(\n?)$", r',"x":1}\1', text)
    yield "bom", "\ufeff" + text
    yield "doubled", text + text
    yield "cut", text[: len(text) // 2]
    spaced = ", " in text
    respell = json.dumps if spaced else lambda d: json.dumps(d, separators=(",", ":"))
    end = "\n" if text.endswith("\n") else ""
    yield "reordered keys", respell(dict(reversed(list(doc.items())))) + end
    if kind == "binary":
        short = json.loads(json.dumps(doc))
        short["table"][1].pop()
        yield "short row", respell(short) + end
    if kind == "bijection":
        repeated = json.loads(json.dumps(doc))
        repeated["map"][1] = repeated["map"][0]
        yield "repeated value", respell(repeated) + end


@pytest.mark.parametrize("kind", KINDS)
def test_named_edits_read_as_json_reads_them(tmp_path, kind):
    seen = set()
    doc = serialize.to_jsonable(CODEC_OBJECTS[f"{kind}-12" if kind != "dynmap" else "dynmap-2x12"])
    for _, text in spellings(doc):
        for name, edited in named_edits(kind, doc, text):
            assert edited != text, name
            assert_reads_as_json(tmp_path / "doc.json", edited)
            seen.add(name)
    assert len(seen) >= 30


def test_repeated_bijection_value_keeps_its_message():
    for text in ('{"kind":"bijection","order":3,"map":[2,0,2]}\n',
                 '{"kind": "bijection", "order": 3, "map": [2, 0, 2]}'):
        with pytest.raises(NotAPermutation, match="^value 2 at position 2$"):
            serialize.loads(text)


def test_huge_declared_order_is_refused_before_any_skeleton(monkeypatch):
    """A short document declaring order 10^6 goes straight to the JSON path:
    its slot count is compared with its length before a skeleton is made."""
    def no_skeleton(*args):
        raise AssertionError("skeleton built")

    texts = []
    body = '{"kind": "ternary", "order": 1000000, "table": [0'
    texts.append(body + ", 0" * ((100 - len(body) - 3) // 3) + "]}\n")
    assert len(texts[0]) == 100
    for kind in ("binary", "bijection", "dynmap"):
        line = serialize.dumps(KINDS[kind])
        texts.append(re.sub(r'order":3', 'order":1000000', line))
    monkeypatch.setattr(serialize, "_skeleton", no_skeleton)
    for text in texts:
        assert "1000000" in text
        expected = read_as(lambda t: serialize.from_jsonable(json.loads(t)), text)
        assert expected[0] != "object"
        assert read_as(serialize.loads, text) == expected
