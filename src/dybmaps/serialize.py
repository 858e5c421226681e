"""JSON interchange for all table kinds.

Schemas (all 0-based):
  {"kind": "binary",    "order": n, "table": [[...], ...]}          row-major
  {"kind": "bijection", "order": n, "map": [...]}
  {"kind": "ternary",   "order": n, "table": [... n^3 entries ...]} flat (a*n+b)*n+c
  {"kind": "dynmap",    "weight_order": h, "set_order": n,
   "phi": [[...], ...], "r": [[[ [u2, v2], ...], ...], ...]}        r[lam][u][v]
"""

from __future__ import annotations

import json
from pathlib import Path

from .binary import BinaryTable, Bijection, LeftQuasigroup
from .engine import DynamicalMap
from .ternary import TernaryTable


def to_jsonable(obj) -> dict:
    if isinstance(obj, LeftQuasigroup):
        obj = obj.base
    if isinstance(obj, BinaryTable):
        return {
            "kind": "binary",
            "order": obj.order,
            "table": [list(row) for row in obj.rows],
        }
    if isinstance(obj, Bijection):
        return {"kind": "bijection", "order": obj.order, "map": list(obj.map)}
    if isinstance(obj, TernaryTable):
        return {"kind": "ternary", "order": obj.order, "table": list(obj.table)}
    if isinstance(obj, DynamicalMap):
        return {
            "kind": "dynmap",
            "weight_order": obj.weight_order,
            "set_order": obj.set_order,
            "phi": [list(row) for row in obj.phi],
            "r": [
                [[list(pair) for pair in row] for row in lam_rows]
                for lam_rows in obj.r
            ],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_INT = frozenset({int})


def _int(x) -> int:
    """x itself if it is a JSON integer; bools, floats and strings are rejected."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _ints(values) -> tuple:
    """The values as a tuple, all of them JSON integers.  The type test runs
    over the whole tuple at once, which is cheaper than an int() per entry."""
    out = tuple(values)
    if not _INT.issuperset(map(type, out)):
        bad = next(x for x in out if type(x) is not int)
        raise ValueError(f"expected an integer, got {bad!r}")
    return out


#: The nested lists of each kind: field, how many lists deep, and what the
#: innermost lists hold.
_SHAPES = {
    "binary": (("table", 2, "integers"),),
    "bijection": (("map", 1, "integers"),),
    "ternary": (("table", 1, "integers"),),
    "dynmap": (("phi", 2, "integers"), ("r", 3, "pairs")),
}


def from_jsonable(doc: dict):
    """The object a document describes.  Entries and orders must be JSON
    integers: ValueError for floats, bools and strings, as for any other
    schema violation.  A row that is not a list, or a map entry that is
    not a pair, is named by its position."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("document must be an object with a 'kind' key")
    kind = doc["kind"]
    if not (isinstance(kind, str) and kind in _SHAPES):
        raise ValueError(f"unknown kind {kind!r}")
    # A malformed row or pair is looked for only once reading has failed,
    # so valid documents pay nothing for the message.
    try:
        return _read(kind, doc)
    except (TypeError, ValueError):
        for name, depth, inner in _SHAPES[kind]:
            if name in doc:
                _require_shape(doc[name], depth, inner, name)
        raise


def _read(kind: str, doc: dict):
    if kind == "binary":
        t = BinaryTable(tuple(map(_ints, doc["table"])))
        if t.order != _int(doc.get("order", t.order)):
            raise ValueError("declared order disagrees with table shape")
        return t
    if kind == "bijection":
        b = Bijection.make(_ints(doc["map"]))
        if b.order != _int(doc.get("order", b.order)):
            raise ValueError("declared order disagrees with map length")
        return b
    if kind == "ternary":
        return TernaryTable(_int(doc["order"]), _ints(doc["table"]))
    return _dynmap(doc)


def _dynmap(doc: dict) -> DynamicalMap:
    phi = tuple(map(tuple, doc["phi"]))
    r = tuple(tuple(tuple(map(tuple, row)) for row in lam_rows) for lam_rows in doc["r"])
    R = DynamicalMap(phi=phi, r=r)
    # The orders are locals: the loops below would otherwise call the
    # properties twice per pair.  One loop that tests type and range per pair
    # beats whole-field passes (map(type), min, max) over the n^3 pairs by
    # about 2x, since those must first flatten the pairs into a new tuple.
    h, n = R.weight_order, R.set_order
    if h != _int(doc["weight_order"]) or n != _int(doc["set_order"]):
        raise ValueError("declared orders disagree with table shapes")
    if len(r) != h or any(
        len(lam_rows) != n or any(len(row) != n for row in lam_rows) for lam_rows in r
    ):
        raise ValueError("map table shape disagrees with declared orders")
    for lam_rows in r:
        for row in lam_rows:
            for a, b in row:
                if type(a) is not int or type(b) is not int:
                    raise ValueError(f"expected integers, got the pair {[a, b]!r}")
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError("map output out of range")
    for row in phi:
        if len(row) != n:
            raise ValueError("weight-shift row length disagrees")
        for x in row:
            if not 0 <= _int(x) < h:
                raise ValueError("weight shift out of range")
    return R


def _require_shape(value, depth: int, inner: str, name: str) -> None:
    """ValueError naming the first part of `value`, which should be `depth`
    lists deep around `inner` ("integers" or "pairs"), that is not a list,
    or an entry that should be a pair and is not."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of {inner if depth == 1 else 'lists'}, got {value!r}")
    for i, item in enumerate(value):
        if depth > 1:
            _require_shape(item, depth - 1, inner, f"{name}[{i}]")
        elif inner == "pairs" and not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"{name}[{i}] must be a pair of integers, got {item!r}")


def encode(doc) -> str:
    """`doc` as the package writes every document: one compact line and a
    newline.  Without an indent json.dumps runs its C encoder; with one it
    runs the pure-Python encoder, about 8x slower on a map."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def dumps(obj) -> str:
    return encode(to_jsonable(obj))


def loads(text: str):
    return from_jsonable(json.loads(text))


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    return loads(Path(path).read_text(encoding="utf-8"))
