"""JSON interchange for all table kinds.

Schemas (all 0-based):
  {"kind": "binary",    "order": n, "table": [[...], ...]}          row-major
  {"kind": "bijection", "order": n, "map": [...]}
  {"kind": "ternary",   "order": n, "table": [... n^3 entries ...]} flat (a*n+b)*n+c
  {"kind": "dynmap",    "weight_order": h, "set_order": n,
   "phi": [[...], ...], "r": [[[ [u2, v2], ...], ...], ...]}        r[lam][u][v]

Every document is written as one compact line, `encode(to_jsonable(obj))`.
A map's line is made and read straight from its arrays (`_render_map`,
`_read_map`); any other text goes through `json.loads` and `from_jsonable`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

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
            "table": obj.array.tolist(),
        }
    if isinstance(obj, Bijection):
        return {"kind": "bijection", "order": obj.order, "map": list(obj.map)}
    if isinstance(obj, TernaryTable):
        return {"kind": "ternary", "order": obj.order, "table": obj.array.tolist()}
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


#: The fields each kind must have, and of each nested list among them how
#: many lists deep it is and what its innermost lists hold.  A map's
#: constructor names its own.
_FIELDS = {
    "binary": {"table": (2, "integers")},
    "bijection": {"map": (1, "integers")},
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


def _parse(text):
    """json.loads, refusing a document nested too deeply for its recursion
    with ValueError, like any other malformed document."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"document nested too deeply: {exc}") from None


# --- A map's line, made and read in whole-array passes -----------------------
#
# The line of an h x n map is fixed once its numbers are taken out: the
# skeleton.  Each number sits in a slot, between one of `[,:` and one of
# `,]}`, and the slots come in document order: h, n, phi row by row, then
# each pair of r.  A document is that line exactly when its digit-free bytes
# are the skeleton and each of its 2 + hn + 2hn^2 digit runs, none with a
# leading zero, fills a slot.  Both directions work in blocks of about
# _BLOCK bytes cut after a `]`, which no slot follows, so that their
# temporaries stay small beside the document.

#: Compiled on first use, by re's cache, not at import.
_MAP_HEAD = rb'\{"kind":"dynmap","weight_order":([1-9][0-9]{0,8}),"set_order":([1-9][0-9]{0,8}),'
_DIGITS = b"0123456789"
_BEFORE, _AFTER = b"[,:", b",]}"
_BLOCK = 1 << 16


def _skeleton(h: int, n: int) -> bytes:
    """An h x n map's line, newline included, with every number taken out.
    It is made anew each time: 17 us at h = n = 28, against about 1 ms to
    read the map, where a cache would hold its bytes for good."""
    def rows(item: str, count: int) -> str:
        return "[" + ",".join([item] * count) + "]"

    phi, r = rows(rows("", n), h), rows(rows(rows("[,]", n), n), h)
    return f'{{"kind":"dynmap","weight_order":,"set_order":,"phi":{phi},"r":{r}}}\n'.encode("ascii")


def _blocks(data: bytes):
    """(lo, hi) cutting `data` into pieces of about _BLOCK bytes, each but
    the last ending with `]`."""
    lo = 0
    while lo < len(data):
        hi = data.find(b"]", lo + _BLOCK) + 1 or len(data)
        yield lo, hi
        lo = hi


def _among(x: np.ndarray, chars: bytes) -> np.ndarray:
    """Whether each byte of x is one of `chars`."""
    out = x == chars[0]
    for c in chars[1:]:
        out |= x == c
    return out


def _render_map(R: DynamicalMap) -> bytes:
    """`encode(to_jsonable(R))` as bytes, with no list or int per entry: the
    skeleton with each number's digits written at its slot, shifted by the
    digits of the numbers before it."""
    h, n = R.shift.shape
    skel = _skeleton(h, n)
    values = np.empty(2 + h * n * (1 + 2 * n), np.int32)
    values[:2] = h, n
    values[2:2 + h * n] = R.shift.ravel()
    values[2 + h * n:].reshape(h, n, n, 2)[...] = R.pairs.transpose(1, 2, 3, 0)
    parts, done = [], 0
    for lo, hi in _blocks(skel):
        seg = np.frombuffer(skel, np.uint8, hi - lo, lo)
        slots = np.flatnonzero(_among(seg[:-1], _BEFORE) & _among(seg[1:], _AFTER)) + 1
        rest = values[done:done + len(slots)]
        done += len(slots)
        width = np.ones(len(rest), np.intp)
        power = 10
        while power <= max(h, n):
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
    return b"".join(parts)


def _read_map(data) -> DynamicalMap | None:
    """The map whose line `data` is, with or without its final newline, or
    None for any other value, which only the JSON parser then reads."""
    head = re.match(_MAP_HEAD, data) if isinstance(data, bytes) else None
    if head is None:
        return None
    h, n = int(head[1]), int(head[2])
    runs = 2 + h * n * (1 + 2 * n)
    # Each number takes a byte, which bounds the skeleton by the document;
    # and the line ends with `}` or a newline, never with a digit.
    if runs > len(data) or data[-1:].isdigit():
        return None
    skel = _skeleton(h, n)
    if data.translate(None, _DIGITS) != (skel if data.endswith(b"\n") else skel[:-1]):
        return None
    b = np.frombuffer(data, np.uint8)
    values = np.empty(runs, np.int32)
    done = 0
    for lo, hi in _blocks(data):
        # From the byte before the block, so that every run has both neighbours.
        got = _run_values(b[max(lo - 1, 0):hi])
        if got is None:
            return None
        values[done:done + len(got)] = got
        done += len(got)
    # Runs in slots number at most the slots; fewer leave a slot empty.
    if done != runs:
        return None
    shift, out = values[2:2 + h * n], values[2 + h * n:]
    if shift.max() >= h or out.max() >= n:
        return None
    return DynamicalMap._of(shift.reshape(h, n).copy(),
                            np.ascontiguousarray(out.reshape(h, n, n, 2).transpose(3, 0, 1, 2)))


def _run_values(seg: np.ndarray) -> np.ndarray | None:
    """The numbers of the digit runs in `seg`, whose first and last bytes are
    not digits, or None if a run is not in a slot or has a leading zero."""
    digit = seg - np.uint8(ord("0")) < 10
    before = np.flatnonzero(digit[1:] > digit[:-1])
    last = np.flatnonzero(digit[:-1] > digit[1:])
    width = last - before
    after = seg[1:]
    first = after[before]
    if (width.max(initial=0) > 9 or not _among(seg[before], _BEFORE).all()
            or not _among(after[last], _AFTER).all() or ((first == ord("0")) & (width > 1)).any()):
        return None
    values = (first - np.uint8(ord("0"))).astype(np.int32)
    for k in range(1, int(width.max(initial=0))):
        live = np.flatnonzero(width > k)
        values[live] = values[live] * 10 + (after[before[live] + k] - ord("0"))
    return values


def dumps(obj) -> str:
    if isinstance(obj, DynamicalMap):
        return _render_map(obj).decode("ascii")
    return encode(to_jsonable(obj))


def loads(text):
    """The object of a document, given as str (or bytes, as json.loads takes)."""
    R = _read_map(text.encode("ascii") if isinstance(text, str) and text.isascii() else text)
    return R if R is not None else from_jsonable(_parse(text))


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    """The object of the document in the file `path`.  Anything but a map's
    line is decoded as Path.read_text decodes, strict UTF-8 with universal
    newlines, so the JSON parser's messages keep their positions."""
    data = Path(path).read_bytes()
    R = _read_map(data)
    if R is not None:
        return R
    return from_jsonable(_parse(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")))
