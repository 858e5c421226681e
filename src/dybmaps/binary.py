"""Finite binary structures: Cayley tables, left quasigroups, bijections.

Elements are always 0-based indices 0..n-1.  Tables written in the
literature with 1-based labels translate by subtracting 1 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import IndexOutOfRange, NotAPermutation, NotLeftQuasigroup
from .kernel import Identity, check, flatten, in_range
from .result import CheckResult

Rows = tuple[tuple[int, ...], ...]

#: Identities checkable on a left quasigroup, as lookups mul(u, v) = u*v and
#: ld(u, w) = u\w, the left division; witnesses in variable order.
_BINARY = {
    # (a*c)\((a*b)*c) is independent of a
    "LQ1": Identity("a a2 b c", "ld(mul(a, c), mul(mul(a, b), c)) == ld(mul(a2, c), mul(mul(a2, b), c))"),
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


def _freeze_rows(rows) -> Rows:
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class BinaryTable:
    """An n x n Cayley table over 0..n-1; the row index is the left operand."""

    rows: Rows

    def __post_init__(self):
        n = len(self.rows)
        if n < 1:
            raise ValueError("order must be >= 1")
        try:
            fine = set(map(len, self.rows)) == {n} and in_range(chain.from_iterable(self.rows), n)
        except TypeError:  # a row without a length, named by the loop below
            fine = False
        if fine:
            return
        for u, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {u} has length {len(row)}, expected {n}")
            for v, x in enumerate(row):
                if not 0 <= x < n:
                    raise ValueError(f"entry ({u},{v}) = {x} out of range 0..{n - 1}")

    @classmethod
    def from_rows(cls, rows) -> BinaryTable:
        return cls(_freeze_rows(rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def mul(self, u: int, v: int) -> int:
        n = len(self.rows)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"({u},{v}) outside 0..{n - 1}")
        return self.rows[u][v]


@dataclass(frozen=True)
class LeftQuasigroup:
    """A validated table whose rows are permutations, with left division.

    `ldiv[u][w]` is the unique v with u*v = w.  It is precomputed because
    every downstream construction reads it inside inner loops.
    """

    base: BinaryTable
    ldiv: Rows

    @property
    def order(self) -> int:
        return self.base.order

    @property
    def rows(self) -> Rows:
        return self.base.rows

    def mul(self, u: int, v: int) -> int:
        return self.base.mul(u, v)

    def left_div(self, u: int, w: int) -> int:
        n = self.order
        if not (0 <= u < n and 0 <= w < n):
            raise IndexOutOfRange(f"({u},{w}) outside 0..{n - 1}")
        return self.ldiv[u][w]


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


@dataclass(frozen=True)
class Bijection:
    """A permutation of 0..n-1 together with its inverse."""

    map: tuple[int, ...]
    inverse: tuple[int, ...]

    @classmethod
    def make(cls, mapping) -> Bijection:
        m = tuple(int(x) for x in mapping)
        n = len(m)
        inv = [-1] * n
        for i, x in enumerate(m):
            if not 0 <= x < n or inv[x] != -1:
                raise NotAPermutation(f"value {x} at position {i}")
            inv[x] = i
        return cls(m, tuple(inv))

    @classmethod
    def identity(cls, n: int) -> Bijection:
        ident = tuple(range(n))
        return cls(ident, ident)

    @property
    def order(self) -> int:
        return len(self.map)

    def __call__(self, x: int) -> int:
        return self.map[x]

    def invert(self) -> Bijection:
        return Bijection(self.inverse, self.map)

    def compose(self, other: Bijection) -> Bijection:
        """Return self after other: (self.compose(other))(x) = self(other(x))."""
        if len(self.map) != len(other.map):
            raise NotAPermutation("cannot compose bijections of different orders")
        return Bijection.make(tuple(self.map[x] for x in other.map))


def validate_left_quasigroup(t: BinaryTable) -> LeftQuasigroup:
    """Check every row is a permutation and derive the left-division table."""
    n = t.order
    ldiv = []
    for u, row in enumerate(t.rows):
        back = [-1] * n
        for v, w in enumerate(row):
            if back[w] != -1:
                raise NotLeftQuasigroup(u, w)
            back[w] = v
        ldiv.append(tuple(back))
    return LeftQuasigroup(t, tuple(ldiv))


def classify_structure(t: BinaryTable) -> StructureFlags:
    """Exhaustively classify a table; never raises."""
    n = t.order
    rows = t.rows
    full = set(range(n))
    rows_ok = all(set(row) == full for row in rows)
    cols_ok = all({rows[u][v] for u in range(n)} == full for v in range(n))
    is_q = rows_ok and cols_ok

    identity = None
    for e in range(n):
        if all(rows[e][u] == u and rows[u][e] == u for u in range(n)):
            identity = e
            break
    is_loop = is_q and identity is not None

    mul = flatten(rows)
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
    return check(_BINARY[cond], cond, n=G.order, mul=flatten(G.rows), ld=flatten(G.ldiv))
