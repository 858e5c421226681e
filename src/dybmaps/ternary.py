"""Ternary operation tables and the identities imposed on them.

A ternary table stores mu(a,b,c) flat at index (a*n + b)*n + c.  The two
identities M1 and M2 are exactly what makes the derived pair/triple maps
satisfy the braid relation, hence what makes the constructed map a
dynamical Yang-Baxter map.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .binary import Bijection, LeftQuasigroup, check_binary_condition
from .errors import IdempotenceRequired, IndexOutOfRange, PreconditionFailed
from .kernel import Arrays, Identity, check, in_range, integer
from .result import CheckResult

#: Identities checkable on a ternary table mu(a, b, c), witnesses in variable
#: order; U makes the pair maps self-inverse (unitarity).
_A12 = Identity("a b", "mu(a, a, b) == b")
_TERNARY = {
    "M1": Identity("a b c d", "x = mu(a, b, c); mu(a, x, mu(x, c, d)) == mu(a, b, mu(b, c, d))"),
    "M2": Identity("a b c d", "y = mu(b, c, d); mu(mu(a, b, c), c, d) == mu(mu(a, b, y), y, d)"),
    "A11": Identity("a b c d", "mu(a, b, mu(b, c, d)) == mu(a, c, d)"),
    "A12": _A12,
    "A21": Identity("a b c d", "mu(mu(a, b, c), c, d) == mu(a, b, d)"),
    "A22": Identity("a b", "mu(a, b, b) == a"),
    "A31": Identity("a b c d", "mu(a, b, c) == mu(d, b, mu(a, d, c))"),
    "A32": _A12,
    "U": Identity("a b c", "mu(a, mu(a, b, c), c) == b"),
}
TERNARY_CONDITIONS = tuple(_TERNARY)
#: The two defining identities, which every build, gauge and search requires.
M1M2 = ("M1", "M2")

# The braid relation of braid_check, on the first two slots.
_BRAID = Identity("a x y z", """
    x1 = mu(a, x, y); y2 = mu(x, y, z); m1 = mu(x1, y, z); x2 = mu(a, x, y2)
    (mu(a, x1, m1), m1) == (x2, mu(x2, y2, z))
""")

# h(mu(a,b,c)) = mu'(h(a), h(b), h(c)), with mu' of order m.
_HOM = Identity("a b c", "h(mu(a, b, c)) == mu2[(h(a) * m + h(b)) * m + h(c)]")

#: Identities required of each derived-from-binary family.
MU_G_PRECONDITIONS = {1: ("LQ1",), 2: ("LQ1",), 3: ("LQ22", "LQ21")}


class TernaryTable(Arrays):
    """An n^3 operation table, flat, row-major in (a, b, c).

    The table is one read-only int32 array of its n^3 entries, `array`, and
    n is read off its length; `table` is the same as a tuple, made anew.
    `TernaryTable(n, table)` checks the length of a flat sequence and reads
    each entry as an integer in range (ValueError for any other entry, a
    float or a string included).
    """

    __slots__ = ("array",)
    _arrays = ("array",)

    def __init__(self, order: int, table):
        n = order
        if n < 1:
            raise ValueError("order must be >= 1")
        if len(table) != n**3:
            raise ValueError(f"table length {len(table)}, expected {n**3}")
        entries = in_range(table, n)
        if entries is None:
            for i, x in enumerate(table):
                if not 0 <= integer(x) < n:
                    raise ValueError(f"entry {i} = {x} out of range 0..{n - 1}")
            entries = tuple(map(integer, table))  # numpy bools, which in_range refuses
        self._bind(np.array(entries, np.int32))

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int, int], int]) -> TernaryTable:
        return cls.from_flat(n, (fn(a, b, c) for a, b, c in product(range(n), repeat=3)))

    @classmethod
    def from_flat(cls, n: int, entries) -> TernaryTable:
        """The table of a flat iterable of integers, a generator included."""
        return cls(n, tuple(entries))

    @property
    def order(self) -> int:
        return _cube_root(len(self.array))

    @property
    def table(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def mu(self, a: int, b: int, c: int) -> int:
        n = self.order
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise IndexOutOfRange(f"({a},{b},{c}) outside 0..{n - 1}")
        return int(self.array[(a * n + b) * n + c])


@cache
def _cube_root(size: int) -> int:
    return round(size ** (1 / 3))


def check_ternary_condition(M: TernaryTable, cond: str) -> CheckResult:
    """Exhaustively test one of TERNARY_CONDITIONS; witness is lexicographically first."""
    if cond not in _TERNARY:
        raise ValueError(f"unknown ternary condition {cond!r}")
    return check(_TERNARY[cond], cond, n=M.order, mu=M.array)


def satisfies_m1m2(M: TernaryTable) -> bool:
    return all(check_ternary_condition(M, cond) for cond in M1M2)


def require_m1m2(M: TernaryTable, error: type[Exception]) -> None:
    """Raise `error` unless M satisfies M1 and M2, in one pass: the braid
    relation at (a, x, y, z) is M1 and M2 there.  A table that fails it is
    checked again, M1 then M2, to name the failing condition and witness."""
    if not check(_BRAID, n=M.order, mu=M.array):
        for cond in M1M2:
            check_ternary_condition(M, cond).require(error)


def make_mu_g(G: LeftQuasigroup, variant: int, checked: bool = True) -> TernaryTable:
    """Derive a ternary table from a left quasigroup (G, *) with division \\.

    variant 1: mu(a,b,c) = a*(b\\c)
    variant 2: mu(a,b,c) = c*(b\\a)
    variant 3: mu(a,b,c) = b*(a\\c)

    Variants 1 and 2 need G to satisfy LQ1, variant 3 needs LQ22 and LQ21;
    those preconditions are what guarantees the result passes M1 and M2.
    `checked=False` skips the guard for experimentation with failing inputs.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    if checked:
        for cond in MU_G_PRECONDITIONS[variant]:
            check_binary_condition(G, cond).require(PreconditionFailed)
    mul, ld = G.array, G.division
    if variant == 1:  # mul[a, ld[b, c]]
        table = mul.take(ld, axis=1)
    elif variant == 2:  # mul[c, ld[b, a]]
        table = mul.T.take(ld.T, axis=0)
    else:  # mul[b, ld[a, c]]
        table = np.ascontiguousarray(mul.take(ld, axis=1).transpose(1, 0, 2))
    return TernaryTable._of(table.reshape(-1))


def make_constant_mu(n: int, f: Sequence[int], position: str) -> TernaryTable:
    """Projection-through-f table: mu(a,b,c) = f(a), f(b) or f(c).

    The middle position requires f to be idempotent (f(f(x)) = f(x)).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    fm = tuple(map(integer, f))
    if len(fm) != n or any(not 0 <= x < n for x in fm):
        raise ValueError("f must map 0..n-1 into 0..n-1")
    image = np.array(fm, np.int32)
    if position == "first":
        table = image.repeat(n * n)
    elif position == "third":
        table = np.tile(image, n * n)
    elif position == "middle":
        for x in range(n):
            if fm[fm[x]] != fm[x]:
                raise IdempotenceRequired(f"f(f({x})) = {fm[fm[x]]} != f({x}) = {fm[x]}")
        table = np.tile(image.repeat(n), n)
    else:
        raise ValueError(f"position must be first, middle or third, got {position!r}")
    return TernaryTable._of(table)


def direct_product(M1: TernaryTable, M2: TernaryTable) -> TernaryTable:
    """Componentwise operation on pairs, with pair (a1, a2) encoded as a1*n2 + a2."""
    for M in (M1, M2):
        require_m1m2(M, PreconditionFailed)
    n1, n2 = M1.order, M2.order
    # axes (a1, a2, b1, b2, c1, c2), so C order reads ((a*n + b)*n + c)
    # with a = a1*n2 + a2 and likewise b, c
    mu1 = M1.array.reshape(n1, 1, n1, 1, n1, 1)
    mu2 = M2.array.reshape(1, n2, 1, n2, 1, n2)
    return TernaryTable._of((mu1 * n2 + mu2).reshape(-1))


def is_ternary_hom(h, M: TernaryTable, M2: TernaryTable) -> CheckResult:
    """Check h(mu(a,b,c)) = mu'(h(a), h(b), h(c)) for all triples.

    `h` may be a Bijection or any sequence mapping M's carrier into M2's.
    """
    hm = h.map if isinstance(h, Bijection) else tuple(map(integer, h))
    if len(hm) != M.order:
        raise ValueError("h must be total on the source carrier")
    if any(not 0 <= x < M2.order for x in hm):
        raise ValueError("h must land in the target carrier")
    return check(_HOM, n=M.order, m=M2.order, h=hm, mu=M.array, mu2=M2.array)


def braid_check(M: TernaryTable) -> CheckResult:
    """Check s(a)_12 s s(a)_12 = s s(a)_12 s on all triples, for every a.

    Equivalent to M1 and M2 together; the two sides differ exactly in the
    first two slots, which reproduce the M1 and M2 instances at (a,x,y,z).
    """
    return check(_BRAID, n=M.order, mu=M.array)
