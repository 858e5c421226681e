r"""Construction and exhaustive verification of dynamical Yang-Baxter maps.

A dynamical map is a family R(lambda) of self-maps of X x X indexed by a
weight set H, together with a shift phi: H x X -> H.  The central
construction takes a triple (L, M, pi) of a left quasigroup, a ternary
table and a bijection and produces such a family over H = X = L with
phi(lambda, u) = lambda*u:

    xi_lam(u)(v)  = lam \ pi^-1( mu(pi(lam), pi(lam*u), pi((lam*u)*v)) )
    eta_lam(v)(u) = (lam * xi_lam(u)(v)) \ ((lam*u)*v)
    R(lam)(u, v)  = (eta_lam(v)(u), xi_lam(u)(v))

By construction (lam * xi) * eta = (lam*u)*v, the invariance condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .binary import (
    BinaryTable,
    Bijection,
    LeftQuasigroup,
    classify_structure,
    validate_left_quasigroup,
)
from .errors import (
    ClassViolation,
    IndexOutOfRange,
    InvarianceViolated,
    M1M2Violation,
    NotAGroup,
    NotALoop,
    NotLeftQuasigroup,
    OrderMismatch,
    ShapeMismatch,
    UnitNotPreserved,
)
from .kernel import Arrays, Identity, _axes, check, integer, require_shape
from .result import CheckResult
from .ternary import TernaryTable, check_ternary_condition, require_m1m2

D_CLASSES = ("D1", "D2", "D3")
A_CLASSES = ("A1", "A2", "A3")

#: Membership identities per reconstruction class.
A_CLASS_CONDITIONS = {"A1": ("A11", "A12"), "A2": ("A21", "A22"), "A3": ("A31", "A32")}

PairRows = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

# Identities on a map, as lookups into its arrays: phi(lam, u) is the
# weight shift, r(lam, u, v) the pair R(lam)(u, v) and eta, xi its two
# slots; in the invariance and class laws phi is the weight multiplication
# and ld its left division.
_QDYBE = Identity("lam:h u v w", """
    # left side: legs 12, then 13 shifted by slot 2, then 23
    a, b = r(lam, u, v)
    c, d = r(phi(lam, b), a, w)
    e, f = r(lam, b, d)
    # right side: legs 23 shifted by slot 1, then 13, then 12 shifted by slot 3
    p2, q2 = r(phi(lam, u), v, w)
    s2, t2 = r(lam, u, q2)
    x2, y2 = r(phi(lam, t2), s2, p2)
    (c, e, f) == (x2, y2, t2)
""")
_INVARIANCE = Identity("lam u v", "phi(phi(lam, xi(lam, u, v)), eta(lam, u, v)) == phi(phi(lam, u), v)")
_UNITARY = Identity("lam:h u v", "a, b = r(lam, u, v); c, d = r(lam, b, a); (c, d) == (v, u)")
_NORMALISED = Identity("lam w", "xi(lam, ld(lam, lam), w) == w")
#: (composition law, normalisation law) of each map class.
_D_LAWS = {
    "D1": (Identity("lam u v w", """
        lu = phi(lam, u); luv = ld(lam, phi(lu, v))
        xi(lam, u, xi(lu, v, w)) == xi(lam, luv, w)
    """), _NORMALISED),
    "D2": (Identity("lam u v w", """
        lu = phi(lam, u); lx = phi(lam, xi(lam, u, v)); luv = phi(lu, v)
        phi(lx, xi(lx, eta(lam, u, v), w)) == phi(lam, xi(lam, u, ld(lu, phi(luv, w))))
    """), Identity("lam u", "lu = phi(lam, u); xi(lam, u, ld(lu, lu)) == ld(lam, lam)")),
    "D3": (Identity("lam u v w", """
        lu = phi(lam, u); lv = phi(lam, v); inner = xi(lu, ld(lu, lam), w)
        phi(lam, xi(lam, v, ld(lv, phi(lu, inner)))) == phi(lu, xi(lu, ld(lu, lv), ld(lv, phi(lam, w))))
    """), _NORMALISED),
}
# is_D_morphism: f(u*v) = f(u)*'f(v), and R'(f(lam))(f(u), f(v)) = (f x f)(R(lam)(u, v)),
# with both primed structures of order m.
_HOMOMORPHISM = Identity("u v", "f(mul(u, v)) == mul2[f(u) * m + f(v)]")
_INTERTWINES = Identity("lam u v", """
    a, b = r(lam, u, v); c, d = r2[(f(lam) * m + f(u)) * m + f(v)]
    (c, d) == (f(a), f(b))
""")
# The identities of conjugation_selfcheck, with mul and ld those of L and
# p, q = pi, pi^-1.
_PAIR_FACTORISATION = Identity("lam u v", """
    x1 = mul(lam, u); x2 = mul(x1, v); y1 = q(mu(p(lam), p(x1), p(x2)))
    (ld(y1, x2), ld(lam, y1)) == (eta(lam, u, v), xi(lam, u, v))
""")
_LEFT_DIVISION = Identity("lam u", "ld(lam, mul(lam, u)) == u")


class DynamicalMap(Arrays):
    """A weight-indexed family of maps on X x X plus the weight shift.

    The map is two read-only int32 arrays: `shift[lam, u]`, of shape (h, n),
    is the shifted weight phi(lam, u), and `pairs[:, lam, u, v]`, of shape
    (2, h, n, n), is the output pair R(lam)(u, v) = (eta, xi), so `pairs[0]`
    holds eta and `pairs[1]` xi.  `phi[lam][u]` and `r[lam][u][v]` are the
    same as nested tuples, made on first use for callers that want them;
    no check reads them.

    `DynamicalMap(phi, r)` takes nested sequences (or arrays) of those
    shapes and raises ValueError for a map that is empty, ragged, or has an
    entry that is not an integer or is out of range, with the messages of
    the JSON reader.  It reads them once, entry by entry, and builds the
    arrays from the rows it read.
    """

    _arrays = ("shift", "pairs")

    def __init__(self, phi, r):
        self._bind(*_map_arrays(phi, r))

    @classmethod
    def _read(cls, phi, r, declared) -> DynamicalMap:
        """The map of phi and r, checked as the constructor checks them, with
        `declared(h, n)` run once the orders are read and before any entry
        is checked: the JSON reader compares a document's orders there."""
        return cls._of(*_map_arrays(phi, r, declared))

    @property
    def weight_order(self) -> int:
        return self.shift.shape[0]

    @property
    def set_order(self) -> int:
        return self.shift.shape[1]

    @cached_property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.shift.tolist()))

    @cached_property
    def r(self) -> PairRows:
        eta, xi = self.pairs.tolist()
        return tuple(tuple(map(tuple, map(zip, e, x))) for e, x in zip(eta, xi))

    def sigma(self, lam: int, u: int, v: int) -> tuple[int, int]:
        """The braiding companion: output of R(lam) with slots swapped."""
        _check_indices(self, lam, u, v)
        return (int(self.pairs[1, lam, u, v]), int(self.pairs[0, lam, u, v]))

    def __repr__(self) -> str:
        return f"DynamicalMap(weight_order={self.weight_order}, set_order={self.set_order})"

    @cached_property
    def _tables(self) -> dict:
        """The map as the identity kernel reads it, its arrays as they are:
        sizes n and h, phi(lam, u) the shift, r(lam, u, v) the pair
        R(lam)(u, v) as the pairs' two slots, and eta, xi those slots."""
        return {"n": self.set_order, "h": self.weight_order, "phi": self.shift,
                "r": self.pairs, "eta": self.pairs[0], "xi": self.pairs[1]}

    @cached_property
    def _equation(self) -> CheckResult:
        """The verdict of verify_qdybe and verify_braiding, decided once per map."""
        return check(_QDYBE, **self._tables)

    @cached_property
    def _invariance(self) -> CheckResult:
        """The verdict of verify_invariance, decided once per map."""
        return check(_INVARIANCE, **self._tables, ld=self.weight_ldiv)

    @cached_property
    def weight_ldiv(self) -> np.ndarray:
        """Left division of phi read as a multiplication: lam\\u at [lam, u]
        of an (n, n) array, like LeftQuasigroup.division.  A map from
        build_dyb carries its L's division; any other map derives it with
        validate_left_quasigroup on first use (ShapeMismatch unless phi is a
        left-quasigroup multiplication)."""
        if self.weight_order != self.set_order:
            raise ShapeMismatch(
                f"weight order {self.weight_order} != set order {self.set_order}"
            )
        try:
            L = validate_left_quasigroup(BinaryTable._of(self.shift))
        except NotLeftQuasigroup as exc:
            raise ShapeMismatch(f"phi is not a left-quasigroup multiplication: {exc}") from exc
        return L.division


def _map_arrays(phi, r, declared=None) -> tuple[np.ndarray, np.ndarray]:
    """(shift, pairs) of nested rows phi[lam][u] and r[lam][u][v], read entry
    by entry.  ValueError for the first problem in this order: no weight or
    element, the orders (`declared`), the shape of r, each pair's types and
    range, then each row of phi's length, types and range.  A row that is
    not a list, or an entry of r that is not a pair, is named by its
    position instead."""
    phi, r = (x.tolist() if isinstance(x, np.ndarray) else x for x in (phi, r))
    try:
        phi_rows = tuple(map(tuple, phi))
        r_rows = tuple(tuple(tuple(map(tuple, row)) for row in lam_rows) for lam_rows in r)
        if not phi_rows or not phi_rows[0]:
            raise ValueError("a dynamical map needs at least one weight and one element")
        h, n = len(phi_rows), len(phi_rows[0])
        if declared is not None:
            declared(h, n)
        if len(r_rows) != h or any(
            len(lam_rows) != n or any(len(row) != n for row in lam_rows) for lam_rows in r_rows
        ):
            raise ValueError("map table shape disagrees with declared orders")
        for lam_rows in r_rows:
            for row in lam_rows:
                for a, b in row:
                    if type(a) is not int or type(b) is not int:
                        raise ValueError(f"expected integers, got the pair {[a, b]!r}")
                    if not (0 <= a < n and 0 <= b < n):
                        raise ValueError("map output out of range")
        for row in phi_rows:
            if len(row) != n:
                raise ValueError("weight-shift row length disagrees")
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"expected an integer, got {x!r}")
                if not 0 <= x < h:
                    raise ValueError("weight shift out of range")
    except (TypeError, ValueError):
        require_shape(phi, 2, "integers", "phi")
        require_shape(r, 3, "pairs", "r")
        raise
    flat = chain.from_iterable
    pairs = np.fromiter(flat(flat(flat(r_rows))), np.int32, 2 * h * n * n).reshape(h, n, n, 2)
    return np.array(phi_rows, np.int32), np.ascontiguousarray(pairs.transpose(3, 0, 1, 2))


@dataclass(frozen=True)
class Triple:
    """Input triple: left quasigroup L, ternary table M, bijection pi: L -> M."""

    L: LeftQuasigroup
    M: TernaryTable
    pi: Bijection

    def __post_init__(self):
        if not (self.L.order == self.M.order == self.pi.order):
            raise OrderMismatch(
                f"orders differ: L={self.L.order}, M={self.M.order}, pi={self.pi.order}"
            )


def build_dyb(t: Triple, checked: bool = True) -> DynamicalMap:
    """Construct the dynamical map of a triple by direct evaluation.

    With `checked` (the default) the ternary table must satisfy M1 and M2,
    which is exactly the condition for the result to solve the dynamical
    Yang-Baxter equation.  `checked=False` builds from arbitrary tables so
    the failure direction can be exercised.
    """
    if checked:
        require_m1m2(t.M, M1M2Violation)
    R = DynamicalMap._of(t.L.array, _dyb_pairs(t.L, t.M.array, t.pi))
    R.weight_ldiv = t.L.division  # the shift is L's multiplication, so its division is L's
    return R


def _dyb_pairs(L: LeftQuasigroup, mu: np.ndarray, pi: Bijection) -> np.ndarray:
    """The pairs of the maps built from L, pi and the ternary tables of `mu`:
    (2, n, n, n) for one table's n^3 entries, (2, T, n, n, n) for a (T, n^3)
    stack of tables."""
    n = L.order
    mul, ld = L.array, L.division
    p, q = pi.map, pi.inverse
    lam, _, v = _axes((n, n, n))
    lam_n, lu = lam * n, mul[:, :, None]
    luv = mul.take(lu * n + v)
    pairs = np.empty((2, *mu.shape[:-1], n, n, n), dtype=np.int32)
    mu = mu.take((p[:, None, None] * n + p.take(lu)) * n + p.take(luv), axis=-1)
    xi = ld.take(lam_n + q.take(mu), out=pairs[1])
    ld.take(mul.take(lam_n + xi) * n + luv, out=pairs[0])
    return pairs


def eval_xi(R: DynamicalMap, lam: int, u: int, v: int) -> int:
    """Second output slot of R(lam)(u, v)."""
    _check_indices(R, lam, u, v)
    return int(R.pairs[1, lam, u, v])


def eval_eta(R: DynamicalMap, lam: int, v: int, u: int) -> int:
    """First output slot of R(lam)(u, v); note the (v, u) argument order."""
    _check_indices(R, lam, u, v)
    return int(R.pairs[0, lam, u, v])


def _check_indices(R: DynamicalMap, lam: int, u: int, v: int) -> None:
    if not (0 <= lam < R.weight_order and 0 <= u < R.set_order and 0 <= v < R.set_order):
        raise IndexOutOfRange(f"(lam,u,v)=({lam},{u},{v})")


def verify_qdybe(R: DynamicalMap) -> CheckResult:
    """Check the dynamical Yang-Baxter equation on every (lam, u, v, w).

    Legs 1 and 2 act on the first two slots, and so on; a leg whose weight
    argument carries a slot superscript reads that slot of the tuple it is
    applied to.  Both sides are evaluated right to left.  The verdict is
    decided on first use and kept on the map.
    """
    return R._equation


def verify_braiding(R: DynamicalMap) -> CheckResult:
    """Check the braid relation of sigma = swap o R.  Read with each pair's
    slots named in the other order, its components are the equation's,
    reordered, so it is verify_qdybe's verdict and witness, the one kept on
    the map (README: "How checks are evaluated")."""
    return R._equation


def verify_invariance(R: DynamicalMap) -> CheckResult:
    """Check (lam*xi)*eta = (lam*u)*v with * read off the weight shift, which
    must be a left-quasigroup multiplication (ShapeMismatch otherwise).  The
    verdict is decided on first use and kept on the map."""
    return R._invariance


def verify_unitary(R: DynamicalMap) -> CheckResult:
    """Check R(lam) swap R(lam) = swap for every weight."""
    return check(_UNITARY, **R._tables)


def extract_mu_L(R: DynamicalMap) -> TernaryTable:
    """Recover the ternary table mu(a,b,c) = a * xi_a(a\\b)(b\\c) from the map.

    Requires the invariance condition; on a map built from a triple the
    bijection pi carries this table homomorphically onto the original one.
    """
    inv = verify_invariance(R)
    if not inv:
        raise InvarianceViolated(f"invariance fails at {inv.witness}")
    n, ld = R.set_order, R.weight_ldiv
    a = _axes((n, n, n))[0]
    # mu(a, b, c) = a * xi(a, a\\b, b\\c)
    xi = R.pairs[1].take((a * n + ld[:, :, None]) * n + ld)
    return TernaryTable._of(R.shift.take(a * n + xi).reshape(-1))


def check_D_class(R: DynamicalMap, cls: str) -> CheckResult:
    """Exhaustively test membership of (L, R) in one of the map classes D1-D3.

    Each class pairs a four-variable composition law on the output
    components with a normalisation law; the failing sub-condition is
    named in the result label.
    """
    if cls not in D_CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    env = R._tables | {"ld": R.weight_ldiv}
    composition, normalisation = _D_LAWS[cls]
    return check(composition, "composition", **env) and check(normalisation, "normalisation", **env)


def reconstruct_G(
    t: Triple, cls: str, basepoint: int = 0
) -> tuple[LeftQuasigroup, Bijection]:
    """Rebuild a generating left quasigroup and bijection from a class member.

    For a triple whose ternary table satisfies the membership identities of
    `cls` (A1, A2 or A3), returns (G, pi_prime) such that the triple
    (L, derived table of G, pi_prime) is equivalent to `t`: the composite
    pi o pi_prime^-1 is a ternary homomorphism onto t.M and the rebuilt
    dynamical map coincides with the original.

    The basepoint is an arbitrary element of L; different choices give
    isomorphic results, not necessarily equal tables.
    """
    if cls not in A_CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    for cond in A_CLASS_CONDITIONS[cls]:
        check_ternary_condition(t.M, cond).require(ClassViolation)
    n = t.L.order
    if not 0 <= basepoint < n:
        raise IndexOutOfRange(f"basepoint {basepoint} outside 0..{n - 1}")
    p, q = t.pi.map, t.pi.inverse
    # a * b = lam \ pi^-1(mu(...)) at the basepoint lam, each mu reading
    # pl = pi(lam), pa = pi(lam*a) down the rows and pb = pi(lam*b) across
    pl = p[basepoint]
    pa = p.take(t.L.array[basepoint])[:, None]
    pb = pa.T
    if cls == "A1":
        cells = (pa * n + pl) * n + pb
    elif cls == "A2":
        cells = (pb * n + pl) * n + pa
    else:
        cells = (pl * n + pa) * n + pb
    ld = t.L.division[basepoint]
    G = validate_left_quasigroup(BinaryTable._of(ld.take(q.take(t.M.array.take(cells)))))
    # pi_prime(x) = basepoint \ x, whose inverse is x -> basepoint * x
    return G, Bijection._of(ld, t.L.array[basepoint])


def is_D_morphism(f, V, V2) -> bool:
    """Is f: L -> L' a multiplication-preserving map intertwining the two maps?

    V and V2 are (LeftQuasigroup, DynamicalMap) pairs, each map of its left
    quasigroup's order (OrderMismatch otherwise); f may be a Bijection or a
    sequence.  Checks f(u*v) = f(u)*'f(v) and
    R'(f(lam))(f(u), f(v)) = (f x f)(R(lam)(u, v)) for all inputs.
    """
    L, R = V
    L2, R2 = V2
    for H, S in (V, V2):
        if S.weight_order != H.order or S.set_order != H.order:
            raise OrderMismatch(f"map orders ({S.weight_order}, {S.set_order}) differ from "
                                f"the left quasigroup's order {H.order}")
    fm = f.map if isinstance(f, Bijection) else tuple(map(integer, f))
    if len(fm) != L.order or any(not 0 <= x < L2.order for x in fm):
        return False
    return bool(
        check(_HOMOMORPHISM, n=L.order, m=L2.order, f=fm, mul=L.array, mul2=L2.array)
        and check(_INTERTWINES, **R._tables, m=R2.set_order, f=fm, r2=R2.pairs)
    )


def conjugation_selfcheck(t: Triple) -> bool:
    """Recompute the map through its factorisation and compare.

    R(lam)(u, v) is the anchored pair map of M conjugated by the two-step
    product map (lam, u, v) -> (lam, lam*u, (lam*u)*v); the pair identity
    checks this on every (lam, u, v).  The three-step product map is the
    two-step one applied twice: with a1 = lam*u, a2 = a1*v and a3 = a2*w,
    the six components of the triple-leg factorisation at (lam, u, v, w) are
    the pair identity at (lam, u, v) and at (a1, v, w), a2\\a3 = w and
    lam\\a1 = u.  So besides the pair identity only the n^2 division law
    lam\\(lam*u) = u is checked.  Both hold for every triple by pure algebra,
    independent of M1/M2, so False indicates an implementation bug.
    """
    R = build_dyb(t, checked=False)
    env = R._tables | {"mul": t.L.array, "ld": t.L.division, "mu": t.M.array, "p": t.pi.map, "q": t.pi.inverse}
    return bool(check(_PAIR_FACTORISATION, **env) and check(_LEFT_DIVISION, **env))


def build_theta_dyb(LP: LeftQuasigroup, G: LeftQuasigroup, pi: Bijection) -> DynamicalMap:
    """Construct the map of a loop/group pair through translation defects.

    LP must be a loop and G a group, both left quasigroups, with pi
    carrying the unit of LP to the unit of G.  For each u the
    translation defect theta(u)(x) = pi(u)^-1 * pi(u * pi^-1(x)) is a
    bijection of G; the second output component is
    pi^-1(theta(lam)^-1(theta(lam*u)(pi(v)))) and the first follows from
    the invariance condition.  The result must agree entry-for-entry with
    the triple construction applied to (LP, variant-1 table of G, pi).
    """
    flags_lp = classify_structure(LP)
    if not flags_lp.is_loop:
        raise NotALoop("first structure has no two-sided unit or is not a quasigroup")
    flags_g = classify_structure(G)
    if not flags_g.is_group:
        raise NotAGroup("second structure is not an associative loop")
    if LP.order != G.order or pi.order != LP.order:
        raise OrderMismatch(
            f"orders differ: LP={LP.order}, G={G.order}, pi={pi.order}"
        )
    e_g = flags_g.identity
    if pi(flags_lp.identity) != e_g:
        raise UnitNotPreserved(f"pi({flags_lp.identity}) = {pi(flags_lp.identity)} != {e_g}")
    n = LP.order
    lmul, ld, gmul, gld = LP.array, LP.division, G.array, G.division
    p, q = pi.map, pi.inverse
    lam, u, v = np.ogrid[:n, :n, :n]
    # theta[u, x] = pi(u)^-1 * pi(u * pi^-1(x)), row by row a bijection of G
    theta = gmul[gld[p, e_g][:, None], p[lmul[:, q]]]
    theta_inv = validate_left_quasigroup(BinaryTable._of(theta)).division
    lu = lmul[lam, u]
    xi = q[theta_inv[lam, theta[lu, p[v]]]]
    eta = ld[lmul[lam, xi], lmul[lu, v]]
    R = DynamicalMap._of(lmul, np.stack((eta, xi)))
    R.weight_ldiv = ld  # the shift is LP's multiplication, so its division is LP's
    return R
