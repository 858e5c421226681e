"""Finite binary structures: Cayley tables, left quasigroups (a table with
its left division), bijections.

Elements are always 0-based indices 0..n-1.  Tables written in the
literature with 1-based labels translate by subtracting 1 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .errors import IndexOutOfRange, NotAPermutation, NotLeftQuasigroup
from .kernel import Arrays, Identity, check, in_range, integer
from .result import CheckResult

Rows = tuple[tuple[int, ...], ...]

#: Identities checkable on a left quasigroup, as lookups mul(u, v) = u*v and
#: ld(u, w) = u\w, the left division; witnesses in variable order.
_BINARY = {
    # (a*c)\((a*b)*c) is independent of a.  Where it is not, it differs
    # from its value at a = 0 for some a2, so the first failing (a, a2, b, c)
    # over all a has a = 0: a:1 gives the same verdict and witness in n^3.
    "LQ1": Identity("a:1 a2 b c", "ld(mul(a, c), mul(mul(a, b), c)) == ld(mul(a2, c), mul(mul(a2, b), c))"),
    "LQ22": Identity("a b c d", """
        bc, ac = mul(b, c), mul(a, c)
        mul(bc, ld(a, mul(ac, ld(bc, mul(b, d))))) == mul(b, ld(a, mul(ac, d)))
    """),
    "LQ21": Identity("a b c d", """
        ac = mul(a, c); bd = mul(b, d); acd = mul(ac, d)
        mul(ac, ld(mul(b, c), bd)) == mul(acd, ld(mul(b, ld(a, acd)), bd))
    """),
    "EX12": Identity("a b c", "mul(mul(a, b), c) == mul(mul(a, c), b)"),
    "INV2": Identity("a b", "mul(mul(a, b), b) == a"),
}
BINARY_CONDITIONS = tuple(_BINARY)
_ASSOCIATIVE = Identity("a b c", "mul(mul(a, b), c) == mul(a, mul(b, c))")
_RIGHT_DISTRIBUTIVE = Identity("x y z", "mul(mul(x, y), z) == mul(mul(x, z), mul(y, z))")


class BinaryTable(Arrays):
    """An n x n Cayley table over 0..n-1; the row index is the left operand.

    The table is one read-only (n, n) int32 array, `array`; `rows[u][v]` is
    the same as nested tuples, made anew on each use.  `BinaryTable(rows)`
    checks the shape of nested sequences and reads each entry as an integer
    in range (ValueError for any other entry, a float or a string included).
    """

    __slots__ = ("array",)
    _arrays = ("array",)

    def __init__(self, rows):
        n = len(rows)
        if n < 1:
            raise ValueError("order must be >= 1")
        try:
            entries = set(map(len, rows)) == {n} and in_range(chain.from_iterable(rows), n)
        except TypeError:  # a row without a length, named by the loop below
            entries = None
        if not entries:
            for u, row in enumerate(rows):
                if len(row) != n:
                    raise ValueError(f"row {u} has length {len(row)}, expected {n}")
                for v, x in enumerate(row):
                    if not 0 <= integer(x) < n:
                        raise ValueError(f"entry ({u},{v}) = {x} out of range 0..{n - 1}")
            entries = tuple(map(integer, chain.from_iterable(rows)))  # numpy bools, which in_range refuses
        self._bind(np.array(entries, np.int32).reshape(n, n))

    @classmethod
    def from_rows(cls, rows) -> BinaryTable:
        """The table of nested iterables of integers, generators included."""
        return cls(tuple(map(tuple, rows)))

    @property
    def order(self) -> int:
        return len(self.array)

    @property
    def rows(self) -> Rows:
        return tuple(map(tuple, self.array.tolist()))

    def mul(self, u: int, v: int) -> int:
        n = self.order
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"({u},{v}) outside 0..{n - 1}")
        return int(self.array[u, v])


class LeftQuasigroup(BinaryTable):
    """A table whose rows are permutations, with its left division.

    `division[u, w]`, a read-only (n, n) int32 array like `array`, is the
    unique v with u*v = w, and `base` is the table alone.
    validate_left_quasigroup is the one constructor: it checks the rows and
    derives the division.
    """

    __slots__ = ("division",)
    _arrays = ("array", "division")

    def __init__(self, *args):
        raise TypeError("a LeftQuasigroup is made by validate_left_quasigroup")

    @property
    def base(self) -> BinaryTable:
        return BinaryTable._of(self.array)

    def left_div(self, u: int, w: int) -> int:
        n = self.order
        if not (0 <= u < n and 0 <= w < n):
            raise IndexOutOfRange(f"({u},{w}) outside 0..{n - 1}")
        return int(self.division[u, w])


@dataclass(frozen=True)
class StructureFlags:
    """Classification of a binary table; implications group => loop =>
    quasigroup => left quasigroup hold by construction."""

    is_left_quasigroup: bool
    is_quasigroup: bool
    is_loop: bool
    is_group: bool
    is_right_distributive: bool
    identity: int | None


class Bijection(Arrays):
    """A permutation of 0..n-1 and its inverse, the read-only int32 arrays
    `map` and `inverse`; `make` is the one constructor that checks."""

    __slots__ = ("map", "inverse")
    _arrays = ("map", "inverse")

    @classmethod
    def make(cls, mapping) -> Bijection:
        """The bijection of a sequence of integers (ValueError for any other
        entry); NotAPermutation names the first value out of range or repeated."""
        m = tuple(map(integer, mapping))
        n = len(m)
        inv = [-1] * n
        for i, x in enumerate(m):
            if not 0 <= x < n or inv[x] != -1:
                raise NotAPermutation(f"value {x} at position {i}")
            inv[x] = i
        return cls._of(np.array(m, np.int32), np.array(inv, np.int32))

    @classmethod
    def identity(cls, n: int) -> Bijection:
        if n < 0:
            raise ValueError(f"order must be >= 0, got {n}")
        ident = np.arange(n, dtype=np.int32)
        return cls._of(ident, ident)

    @property
    def order(self) -> int:
        return len(self.map)

    def __call__(self, x: int) -> int:
        n = len(self.map)
        if not 0 <= x < n:
            raise IndexOutOfRange(f"{x} outside 0..{n - 1}")
        return int(self.map[x])

    def invert(self) -> Bijection:
        return Bijection._of(self.inverse, self.map)

    def compose(self, other: Bijection) -> Bijection:
        """Return self after other: (self.compose(other))(x) = self(other(x))."""
        if len(self.map) != len(other.map):
            raise NotAPermutation("cannot compose bijections of different orders")
        return Bijection._of(self.map.take(other.map), other.inverse.take(self.inverse))


@cache
def _permutation_rows(n: int) -> bytes:
    """The bytes of an (n, n) int32 array whose every row is 0..n-1."""
    return (np.arange(n * n, dtype=np.int32) % n).tobytes()


def validate_left_quasigroup(t: BinaryTable) -> LeftQuasigroup:
    """Check every row is a permutation and derive the left-division table,
    each row the inverse permutation of t's row (argsort).  A table whose
    sorted rows are not all 0..n-1 is read row by row, and NotLeftQuasigroup
    names its first row that repeats a value, and that value."""
    mul = t.array
    if np.sort(mul, axis=1).tobytes() != _permutation_rows(t.order):
        u, row = next((u, row) for u, row in enumerate(mul.tolist()) if len(set(row)) < len(row))
        raise NotLeftQuasigroup(u, next(w for v, w in enumerate(row) if w in row[:v]))
    return LeftQuasigroup._of(mul, mul.argsort(axis=1).astype(np.int32))


def classify_structure(t: BinaryTable) -> StructureFlags:
    """Exhaustively classify a table; never raises."""
    n = t.order
    mul = t.array
    rows_ok = np.sort(mul, axis=1).tobytes() == _permutation_rows(n)
    is_q = rows_ok and np.sort(mul.T, axis=1).tobytes() == _permutation_rows(n)

    # the first e with e*u = u*e = u for every u
    ids = np.arange(n)
    units = np.flatnonzero((mul == ids).all(axis=1) & (mul.T == ids).all(axis=1))
    identity = int(units[0]) if units.size else None
    is_loop = is_q and identity is not None

    assoc = check(_ASSOCIATIVE, n=n, mul=mul).holds
    rdist = check(_RIGHT_DISTRIBUTIVE, n=n, mul=mul).holds
    return StructureFlags(
        is_left_quasigroup=rows_ok,
        is_quasigroup=is_q,
        is_loop=is_loop,
        is_group=is_loop and assoc,
        is_right_distributive=rdist,
        identity=identity if is_loop else None,
    )


def check_binary_condition(G: LeftQuasigroup, cond: str) -> CheckResult:
    """Exhaustively test one of BINARY_CONDITIONS on a left quasigroup.

    On failure the witness is the lexicographically first failing variable
    tuple, in the variable order documented with each condition.
    """
    if cond not in _BINARY:
        raise ValueError(f"unknown binary condition {cond!r}")
    return check(_BINARY[cond], cond, n=G.order, mul=G.array, ld=G.division)
