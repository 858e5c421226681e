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
from .kernel import require_shape
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
            "phi": obj.shift.tolist(),
            "r": obj.pairs.transpose(1, 2, 3, 0).tolist(),
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
#: innermost lists hold.  A map's constructor names its own.
_SHAPES = {
    "binary": (("table", 2, "integers"),),
    "bijection": (("map", 1, "integers"),),
    "ternary": (("table", 1, "integers"),),
    "dynmap": (),
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
                require_shape(doc[name], depth, inner, name)
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
    def declared(h: int, n: int) -> None:
        if h != _int(doc["weight_order"]) or n != _int(doc["set_order"]):
            raise ValueError("declared orders disagree with table shapes")

    return DynamicalMap._read(doc["phi"], doc["r"], declared)


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
