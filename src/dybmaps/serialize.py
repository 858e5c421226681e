"""JSON interchange for all table kinds.

Schemas (all 0-based):
  {"kind": "binary",    "order": n, "table": [[...], ...]}          row-major
  {"kind": "bijection", "order": n, "map": [...]}
  {"kind": "ternary",   "order": n, "table": [... n^3 entries ...]} flat (a*n+b)*n+c
  {"kind": "dynmap",    "weight_order": h, "set_order": n,
   "phi": [[...], ...], "r": [[[ [u2, v2], ...], ...], ...]}        r[lam][u][v]

Every document is written as one compact line, `encode(to_jsonable(obj))`.
One codec makes and reads the documents of all four kinds straight from
their arrays (`_render`, `_scan`), in blocks of about 64 KiB, with no list
or int per entry.  It reads a document whose bytes without digits are
exactly its kind's skeleton at the declared orders, in one of two
spellings: the package's compact line, or json.dumps's default one, with
one space after each `,` and `:` and no other whitespace; either may end
with one newline.  Every other text (other whitespace, key order, extra
keys, a BOM, a leading zero, a sign, a float, an entry out of range) goes
through `json.loads` and `from_jsonable`, so its object or its error
message is theirs.  A declared order whose slot count exceeds the
document's length is left to json before any skeleton is made.  On a
2-core x86-64 VM (best of 20 calls, four processes each) the Z/28 ternary
table reads in 0.85-1.4 ms against 2.8-3.1 ms through json, and is written
in 1.05-1.6 ms against 1.7-1.8 ms; the Z/28 binary table reads in
0.08-0.14 ms against 0.16-0.22 ms and is written in 0.07-0.12 ms, as
through json.  A document of a few dozen numbers pays some twenty numpy
calls, 30-50 us more than json.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .binary import BinaryTable, Bijection
from .engine import DynamicalMap
from .kernel import require_shape
from .ternary import TernaryTable


def _numbers(obj) -> tuple[str, tuple[int, ...], list[np.ndarray]]:
    """(kind, orders, lists) of `to_jsonable(obj)`, its list fields as arrays
    in document order."""
    if isinstance(obj, DynamicalMap):
        return "dynmap", obj.shift.shape, [obj.shift, obj.pairs.transpose(1, 2, 3, 0)]
    if isinstance(obj, BinaryTable):
        return "binary", (obj.order,), [obj.array]
    if isinstance(obj, Bijection):
        return "bijection", (obj.order,), [obj.map]
    if isinstance(obj, TernaryTable):
        return "ternary", (obj.order,), [obj.array]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fields(kind: str, orders: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """The fields of a `kind` document after its kind, in document order,
    each with the lengths of its nested lists; an order is one number, ()."""
    if kind == "dynmap":
        h, n = orders
        return {"weight_order": (), "set_order": (), "phi": (h, n), "r": (h, n, n, 2)}
    (n,) = orders
    name, dims = {"binary": ("table", (n, n)), "bijection": ("map", (n,)),
                  "ternary": ("table", (n**3,))}[kind]
    return {"order": (), name: dims}


def to_jsonable(obj) -> dict:
    kind, orders, lists = _numbers(obj)
    doc = {"kind": kind}
    for name, value in zip(_fields(kind, orders), [*orders, *lists]):
        doc[name] = value if isinstance(value, int) else value.tolist()
    return doc


def _int(x) -> int:
    """x itself if it is a JSON integer; bools, floats and strings are rejected."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


#: The fields each kind must have, and of each nested list among them how
#: many lists deep it is and what its innermost lists hold.  A map's
#: constructor names its own.
_FIELDS = {
    "binary": {"table": (2, "integers"), "order": None},
    "bijection": {"map": (1, "integers"), "order": None},
    "ternary": {"table": (1, "integers"), "order": None},
    "dynmap": dict.fromkeys(("weight_order", "set_order", "phi", "r")),
}


def from_jsonable(doc: dict):
    """The object a document describes.  Entries and orders must be JSON
    integers: ValueError for floats, bools and strings, as for any other
    schema violation, a missing field included.  A row that is not a list,
    or a map entry that is not a pair, is named by its position."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("document must be an object with a 'kind' key")
    kind = doc["kind"]
    if not (isinstance(kind, str) and kind in _FIELDS):
        raise ValueError(f"unknown kind {kind!r}")
    for name in _FIELDS[kind]:
        if name not in doc:
            raise ValueError(f"{kind} document has no {name!r} field")
    # A malformed row or pair is looked for only once reading has failed,
    # so valid documents pay nothing for the message.
    try:
        return _read(kind, doc)
    except (TypeError, ValueError):
        for name, shape in _FIELDS[kind].items():
            if shape:
                require_shape(doc[name], *shape, name)
        raise


def _read(kind: str, doc: dict):
    if kind == "binary":
        t = BinaryTable(tuple(tuple(map(_int, row)) for row in doc["table"]))
        if t.order != _int(doc["order"]):
            raise ValueError("declared order disagrees with table shape")
        return t
    if kind == "bijection":
        b = Bijection.make(tuple(map(_int, doc["map"])))
        if b.order != _int(doc["order"]):
            raise ValueError("declared order disagrees with map length")
        return b
    if kind == "ternary":
        return TernaryTable(_int(doc["order"]), tuple(map(_int, doc["table"])))
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


def _parse(text):
    """json.loads, refusing a document nested too deeply for its recursion
    with ValueError, like any other malformed document."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"document nested too deeply: {exc}") from None


# --- Every kind's line, made and read in whole-array passes ------------------
#
# A document of a given kind and orders is fixed once its numbers are taken
# out: the skeleton.  Each number sits in a slot, between one of `[,:` (or a
# space) and one of `,]}`, and the slots come in document order: the
# orders, then the entries of each list field, row by row.  A document is
# read here when its digit-free bytes are the skeleton in the package's
# compact spelling or in json.dumps's default one (one space after each `,`
# and `:`), with or without a final newline, and each of its digit runs,
# none with a leading zero, fills a slot.  Both directions work in blocks of
# about _BLOCK bytes cut after a `,`, so that their temporaries stay small
# beside the document.

#: Compiled on first use, by re's cache, not at import.  Group 1 is the
#: spelling's space, 2 the kind, 3 and 4 the orders.
_HEAD = (rb'\{"kind":( ?)"(binary|bijection|ternary|dynmap)",\1"(?:weight_)?order":\1'
         rb'([1-9][0-9]{0,8}),(?:\1"set_order":\1([1-9][0-9]{0,8}),)?')
_DIGITS = b"0123456789"
_BEFORE, _AFTER = b"[,:", b",]}"
_BLOCK = 1 << 16


def _skeleton(kind: str, fields: dict, comma: bytes, colon: bytes) -> bytes:
    """The document with every number taken out, spelled with these
    separators and without a final newline.  Its largest list is one
    repeat, joined once.  It is made anew each time: 13 us for a map at
    h = n = 28, against about 1 ms to read it, where a cache would hold its
    bytes for good."""
    def nest(dims):
        if not dims:
            return [b""]
        inner = b"".join(nest(dims[1:]))
        return [b"[", (inner + comma) * (dims[0] - 1), inner, b"]"]

    parts = [b'{"kind"', colon, b'"', kind.encode(), b'"']
    for name, dims in fields.items():
        parts += [comma, b'"', name.encode(), b'"', colon, *nest(dims)]
    return b"".join(parts) + b"}"


def _blocks(data: bytes):
    """(lo, hi) cutting `data` into pieces of about _BLOCK bytes, each but
    the last ending with `,`, which no digit run crosses."""
    lo = 0
    while lo < len(data):
        hi = data.find(b",", lo + _BLOCK) + 1 or len(data)
        yield lo, hi
        lo = hi


def _among(x: np.ndarray, chars: bytes) -> np.ndarray:
    """Whether each byte of x is one of `chars`."""
    out = x == chars[0]
    for c in chars[1:]:
        out |= x == c
    return out


def _only(x: np.ndarray, chars: bytes) -> bool:
    """Whether every byte of x is one of `chars`: one C pass, where a test
    per char costs a numpy call each."""
    return not x.tobytes().translate(None, chars)


def _render(obj) -> bytes:
    """`encode(to_jsonable(obj))` as bytes, with no list or int per entry:
    the skeleton with each number's digits written at its slot, shifted by
    the digits of the numbers before it."""
    kind, orders, lists = _numbers(obj)
    if not all(a.size for a in lists):
        # The order-0 bijection's `[]` would read as the slot of a list of
        # one; its document has no entry to write.
        return encode(to_jsonable(obj)).encode()
    skel = _skeleton(kind, _fields(kind, orders), b",", b":")
    values = np.empty(len(orders) + sum(a.size for a in lists), np.int32)
    values[:len(orders)] = orders
    done = len(orders)
    for a in lists:
        values[done:done + a.size].reshape(a.shape)[...] = a
        done += a.size
    parts, done, top = [], 0, max(orders)
    for lo, hi in _blocks(skel):
        # With the byte after the block, so that a slot at its end is seen.
        window = np.frombuffer(skel, np.uint8, min(hi + 1, len(skel)) - lo, lo)
        seg = window[:hi - lo]
        slots = np.flatnonzero(_among(window[:-1], _BEFORE) & _among(window[1:], _AFTER)) + 1
        rest = values[done:done + len(slots)]
        done += len(slots)
        width = np.ones(len(rest), np.intp)
        power = 10
        while power <= top:
            width += rest >= power
            power *= 10
        at = slots + np.cumsum(width) - 1
        out = np.empty(len(seg) + int(width.sum()), np.uint8)
        digit = np.zeros(len(out), bool)
        # Last digits first; a number drops out once its quotient is 0.
        while len(rest):
            rest, last = np.divmod(rest, 10)
            out[at] = last + ord("0")
            digit[at] = True
            more = rest > 0
            rest, at = rest[more], at[more] - 1
        out[~digit] = seg
        parts.append(out.tobytes())
    parts.append(b"\n")
    return b"".join(parts)


def _scan(data):
    """The object whose document `data` is in either spelling, with or
    without its final newline, or None for any other value, which only the
    JSON parser then reads."""
    head = re.match(_HEAD, data) if isinstance(data, bytes) else None
    if head is None:
        return None
    kind = head[2].decode()
    orders = tuple(int(x) for x in head.group(3, 4) if x is not None)
    if len(orders) != (2 if kind == "dynmap" else 1):
        return None
    fields = _fields(kind, orders)
    slots = sum(math.prod(dims) for dims in fields.values())
    # Each number takes a byte, which bounds the skeleton by the document
    # before it is made; and the line ends with `}` or a newline, never
    # with a digit.
    if slots > len(data) or data[-1:].isdigit():
        return None
    space = head[1]
    if not _spelled(data, _skeleton(kind, fields, b"," + space, b":" + space)):
        return None
    b = np.frombuffer(data, np.uint8)
    values = np.empty(slots, np.int32)
    done = 0
    for lo, hi in _blocks(data):
        # From the byte before the block, so that every run has both neighbours.
        got = _run_values(b[max(lo - 1, 0):hi])
        if got is None:
            return None
        values[done:done + len(got)] = got
        done += len(got)
    # Runs in slots number at most the slots; fewer leave a slot empty.
    if done != slots:
        return None
    return _make(kind, orders, values)


def _spelled(data: bytes, skel: bytes) -> bool:
    """Whether `data` without its digits is `skel`, with or without a final
    newline; neither copy outlives the test."""
    free = data.translate(None, _DIGITS)
    return free.startswith(skel) and free[len(skel):] in (b"", b"\n")


def _run_values(seg: np.ndarray) -> np.ndarray | None:
    """The numbers of the digit runs in `seg`, whose first and last bytes are
    not digits, or None if a run is not in a slot or has a leading zero."""
    digit = seg - np.uint8(ord("0")) < 10
    before = np.flatnonzero(digit[1:] > digit[:-1])
    last = np.flatnonzero(digit[:-1] > digit[1:])
    width = last - before
    after = seg[1:]
    first = after[before]
    # In json.dumps's spelling a slot follows a space.
    if (width.max(initial=0) > 9 or not _only(seg[before], _BEFORE + b" ")
            or not _only(after[last], _AFTER) or ((first == ord("0")) & (width > 1)).any()):
        return None
    values = (first - np.uint8(ord("0"))).astype(np.int32)
    for k in range(1, int(width.max(initial=0))):
        live = np.flatnonzero(width > k)
        values[live] = values[live] * 10 + (after[before[live] + k] - ord("0"))
    return values


def _make(kind: str, orders: tuple[int, ...], values: np.ndarray):
    """The object of a document's numbers in slot order, or None if an entry
    is out of range.  A bijection is made by Bijection.make, which raises
    as the JSON path does for a repeated value."""
    n = orders[-1]
    if kind == "dynmap":
        h = orders[0]
        shift, out = values[2:2 + h * n], values[2 + h * n:]
        if shift.max() >= h or out.max() >= n:
            return None
        return DynamicalMap._of(shift.reshape(h, n).copy(),
                                np.ascontiguousarray(out.reshape(h, n, n, 2).transpose(3, 0, 1, 2)))
    entries = values[1:]
    if entries.max() >= n:
        return None
    if kind == "bijection":
        return Bijection.make(entries.tolist())
    if kind == "binary":
        return BinaryTable._of(entries.reshape(n, n))
    return TernaryTable._of(entries)


def dumps(obj) -> str:
    """`encode(to_jsonable(obj))`, made from the object's arrays."""
    return _render(obj).decode("ascii")


def loads(text):
    """The object of a document, given as str (or bytes, as json.loads takes)."""
    obj = _scan(text.encode("ascii") if isinstance(text, str) and text.isascii() else text)
    return obj if obj is not None else from_jsonable(_parse(text))


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    """The object of the document in the file `path`.  A document that
    `_scan` does not read is decoded as Path.read_text decodes, strict
    UTF-8 with universal newlines, so the JSON parser's messages keep their
    positions."""
    data = Path(path).read_bytes()
    obj = _scan(data)
    if obj is not None:
        return obj
    return from_jsonable(_parse(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")))
