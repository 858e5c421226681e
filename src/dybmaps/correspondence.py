"""Gauge correspondence between two dynamical maps sharing a ternary table.

Two triples (L1, M, pi1) and (L2, M, pi2) over the same ternary table give
maps conjugate to each other through an explicit per-weight gauge map J on
pairs, held like a map's pairs as one (2, n, n, n) array.  When the second
map is weight-independent the relation is a vertex-IRF correspondence; any
map in class D1 admits one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .binary import BinaryTable, Bijection, LeftQuasigroup, check_binary_condition, classify_structure, validate_left_quasigroup
from .engine import DynamicalMap, Triple, build_dyb, extract_mu_L, reconstruct_G
from .errors import AlgebraError, LQ1Violation, M1M2Violation, NotQuasigroup, OrderMismatch, ShapeMismatch
from .kernel import Identity, _axes, check
from .result import CheckResult
from .ternary import M1M2, TernaryTable, check_ternary_condition, make_mu_g

# verify_irf_irf with the bijection J(lam1) applied to both sides; the inner
# swaps of (swap R2 swap) o (swap J swap) cancel.
_IRF_IRF = Identity("lam1 u v", """
    x, y = J(lam1, v, u)
    a, b = r1(lam1, u, v)
    s, t = J(lam1, a, b)
    c, d = r2(rho(lam1), x, y)
    (s, t) == (d, c)
""")


@dataclass(frozen=True, eq=False)
class CorrespondenceInstance:
    """Both maps of a shared ternary table plus the materialised gauge.

    The gauge is one read-only int32 array laid out like a map's `pairs`:
    `J[:, lam1, u, v]`, of shape (2, n, n, n), is the image pair of (u, v)
    in L2 x L2.  It is stored explicitly so a failing identity check
    localises to a concrete object, and `verify_irf_irf` reads it as it is.
    Construction (`dataclasses.replace` too) refuses a J of another shape
    (ShapeMismatch) or with entries that are not integers in 0..n-1
    (ValueError), and stores it read-only as int32, copied only if it is
    writable or of another dtype; pickling and copying rebuild through the
    constructor.  Instances compare and hash by identity.
    """

    L1: LeftQuasigroup
    L2: LeftQuasigroup
    M: TernaryTable
    pi1: Bijection
    pi2: Bijection
    R1: DynamicalMap
    R2: DynamicalMap
    J: np.ndarray

    def __post_init__(self):
        n, J = self.order, np.asarray(self.J)
        if J.shape != (2, n, n, n):
            raise ShapeMismatch(f"gauge of shape {J.shape}, expected {(2, n, n, n)}")
        if J.dtype.kind not in "iu":
            raise ValueError(f"gauge entries must be integers, got dtype {J.dtype}")
        if J.min() < 0 or J.max() >= n:
            raise ValueError(f"gauge entry out of range 0..{n - 1}")
        if J.flags.writeable or J.dtype != np.int32:
            J = J.astype(np.int32)
            J.setflags(write=False)
            object.__setattr__(self, "J", J)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def order(self) -> int:
        return self.L1.order


def build_correspondence(
    L1: LeftQuasigroup,
    L2: LeftQuasigroup,
    M: TernaryTable,
    pi1: Bijection,
    pi2: Bijection,
) -> CorrespondenceInstance:
    """Build both maps and the gauge J(lam1) = g2^-1 o (rho x rho) o g1 o swap,

    where g_i is the two-step product map (u, v) -> (lam u, (lam u) v) of
    L_i anchored at lam1 (for g1) and rho(lam1) (for g2).
    """
    orders = {L1.order, L2.order, M.order, pi1.order, pi2.order}
    if len(orders) != 1:
        raise OrderMismatch(f"orders differ: {sorted(orders)}")
    for cond in M1M2:
        check_ternary_condition(M, cond).require(M1M2Violation)
    n = M.order
    rho = pi2.inverse.take(pi1.map)
    # J(lam1)(u, v) = (rho(lam1) \ r0, r0 \ r1), r0 = rho(lam1*v), r1 = rho((lam1*v)*u)
    lam1, u, v = _axes((n, n, n))
    t0 = L1.array.take(lam1 * n + v)
    r0, r1 = rho.take(t0), rho.take(L1.array.take(t0 * n + u))
    J = np.empty((2, n, n, n), np.int32)
    J[0] = L2.division.take(rho.take(lam1) * n + r0)
    L2.division.take(r0 * n + r1, out=J[1])
    codes = np.sort((J[0] * n + J[1]).reshape(n, -1), axis=1)  # each weight's pairs, sorted
    repeats = np.flatnonzero((codes[:, 1:] == codes[:, :-1]).any(axis=1))
    if repeats.size:
        raise AlgebraError(f"gauge at weight {repeats[0]} is not bijective")
    J.setflags(write=False)

    return CorrespondenceInstance(
        L1=L1,
        L2=L2,
        M=M,
        pi1=pi1,
        pi2=pi2,
        R1=build_dyb(Triple(L1, M, pi1), checked=False),
        R2=build_dyb(Triple(L2, M, pi2), checked=False),
        J=J,
    )


def verify_irf_irf(c: CorrespondenceInstance) -> CheckResult:
    """Check R1(lam1) = J(lam1)^-1 o swap R2(rho lam1) swap o (swap J(lam1) swap)."""
    return check(_IRF_IRF, n=c.order, rho=c.pi2.inverse.take(c.pi1.map), J=c.J, r1=c.R1.pairs, r2=c.R2.pairs)


def is_constant_in_lambda(R: DynamicalMap) -> bool:
    """True iff R(lam) is the same map for every weight."""
    return bool((R.pairs == R.pairs[:, :1]).all())


def vertex_counterpart(
    L: LeftQuasigroup, G: LeftQuasigroup, pi: Bijection
) -> tuple[LeftQuasigroup, DynamicalMap]:
    """Weight-independent partner of the map built from (L, variant-1 of G, pi).

    Transports G's multiplication through pi onto L's carrier:
    u o v = pi^-1(pi(u) * pi(v)).  Over that structure the second output
    component collapses to the identity and the first loses its weight
    dependence, so the resulting map solves the ordinary Yang-Baxter
    equation and is gauge-conjugate to the original.  G must satisfy LQ1,
    checked once: it is what makes variant 1 of G satisfy M1 and M2, so
    neither `make_mu_g` nor `build_dyb` checks again.
    """
    if L.order != G.order or pi.order != L.order:
        raise OrderMismatch(f"orders differ: L={L.order}, G={G.order}, pi={pi.order}")
    check_binary_condition(G, "LQ1").require(LQ1Violation)
    p, q = pi.map, pi.inverse
    L_prime = validate_left_quasigroup(BinaryTable._of(q.take(G.array.take(p, 0).take(p, 1))))
    R_prime = build_dyb(Triple(L_prime, make_mu_g(G, 1, checked=False), pi), checked=False)
    return L_prime, R_prime


def vertex_counterpart_from_map(
    L: LeftQuasigroup, R: DynamicalMap, basepoint: int = 0
) -> tuple[LeftQuasigroup, DynamicalMap]:
    """vertex_counterpart for a bare class-D1 map, via reconstruction.

    Recovers a generating left quasigroup from the extracted ternary table
    at the given basepoint and delegates to vertex_counterpart.
    """
    M = extract_mu_L(R)
    t = Triple(L, M, Bijection.identity(L.order))
    G, pi_prime = reconstruct_G(t, "A1", basepoint)
    return vertex_counterpart(L, G, pi_prime)


def eq26_family(G: LeftQuasigroup) -> DynamicalMap:
    """The weight-dependent family R(lam)(u, v) = (v, lam*(u\\v)).

    G must be a quasigroup satisfying LQ1.  The family lives over G's
    carrier equipped with the projection product u.v = v, equals the
    triple construction for (that structure, variant-1 table of G, id)
    entry-for-entry, and determines lam whenever |G| > 1.
    """
    flags = classify_structure(G)
    if not flags.is_quasigroup:
        raise NotQuasigroup("columns are not permutations")
    check_binary_condition(G, "LQ1").require(LQ1Violation)
    n = G.order
    lam, _, v = np.ogrid[:n, :n, :n]
    pairs = np.empty((2, n, n, n), dtype=np.int32)
    pairs[0] = v
    pairs[1] = G.array[lam, G.division]
    R = DynamicalMap._of(np.tile(np.arange(n, dtype=np.int32), (n, 1)), pairs)
    R.weight_ldiv = R.shift  # the projection product u.v = v is its own division
    return R
