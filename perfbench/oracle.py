"""Reference answers computed independently of the package under test.

Every check the benchmark asks the package to make is restated here from
its definition and evaluated with NumPy over the whole variable grid.  The
mismatch array is scanned in C order, so its first set entry is the
lexicographically first failing tuple, the witness the package must report.
Each grid is split on its first variable, so memory stays near n^(k-1)
entries and the benchmark's peak RSS is not set by its own checking.

Tables are plain NumPy integer arrays:
  T[a, b, c]          ternary table mu(a, b, c)
  mul[u, v], ld[u, w] left quasigroup product and left division
  E[lam, u, v], X[lam, u, v], phi[lam, u]   map output pair (eta, xi) and shift
"""

from __future__ import annotations

import numpy as np


def first_witness(n_first, bad_of, shape):
    """Scan bad_of(x) for x = 0..n_first-1; return (x, rest...) of the first True."""
    for x in range(n_first):
        bad = np.broadcast_to(bad_of(x), shape)
        idx = np.flatnonzero(bad)
        if idx.size:
            return (x,) + tuple(int(i) for i in np.unravel_index(int(idx[0]), shape))
    return None


def check(witness, label=None):
    """Normalised verdict: (holds, witness, label) with label only on failure."""
    if witness is None:
        return (True, None, None)
    return (False, witness, label)


def ldiv_of(mul):
    n = mul.shape[0]
    ld = np.empty_like(mul)
    ld[np.arange(n)[:, None], mul] = np.arange(n)[None, :]
    return ld


# ---------------------------------------------------------------- ternary


def ternary_witness(T, cond):
    n = T.shape[0]
    if cond == "A12":
        b = np.arange(n)
        return first_witness(n, lambda a: T[a, a, b] != b, (n,))
    if cond == "U":
        b, c = np.ogrid[:n, :n]
        return first_witness(n, lambda a: T[a, T[a, b, c], c] != b, (n, n))
    b, c, d = np.ogrid[:n, :n, :n]
    if cond == "M1":
        def bad(a):
            x = T[a, b, c]
            return T[a, x, T[x, c, d]] != T[a, b, T[b, c, d]]
    elif cond == "M2":
        def bad(a):
            y = T[b, c, d]
            return T[T[a, b, c], c, d] != T[T[a, b, y], y, d]
    elif cond == "A11":
        def bad(a):
            return T[a, b, T[b, c, d]] != T[a, c, d]
    else:
        raise ValueError(cond)
    return first_witness(n, bad, (n, n, n))


def m1m2_witnesses(T):
    return ternary_witness(T, "M1"), ternary_witness(T, "M2")


def braid_witness(w1, w2):
    """The braid check fails exactly where M1 or M2 fails, so at the earlier witness."""
    found = [w for w in (w1, w2) if w is not None]
    return min(found) if found else None


def hom_witness(h, S, T):
    """First (a, b, c) with h(S(a,b,c)) != T(h(a), h(b), h(c))."""
    n = S.shape[0]
    b, c = np.ogrid[:n, :n]
    return first_witness(n, lambda a: h[S[a, b, c]] != T[h[a], h[b], h[c]], (n, n))


# ---------------------------------------------------------------- maps


def build_map(mul, ld, p, q, T):
    """(E, X) of the triple construction, with phi = mul."""
    lam, u, v = np.ogrid[:mul.shape[0], :mul.shape[0], :mul.shape[0]]
    lu = mul[lam, u]
    luv = mul[lu, v]
    X = ld[lam, q[T[p[lam], p[lu], p[luv]]]]
    E = ld[mul[lam, X], luv]
    return np.ascontiguousarray(E), np.ascontiguousarray(X)


def map_witness(E, X, phi, check_name):
    """Witness of verify_qdybe / verify_braiding / verify_unitary / verify_invariance."""
    h, n = phi.shape
    if check_name in ("unitary", "invariance"):
        u, v = np.ogrid[:n, :n]
        if check_name == "unitary":
            def bad(lam):
                a, b = E[lam, u, v], X[lam, u, v]
                return (E[lam, b, a] != v) | (X[lam, b, a] != u)
        else:
            def bad(lam):
                return phi[phi[lam, X[lam, u, v]], E[lam, u, v]] != phi[phi[lam, u], v]
        return first_witness(h, bad, (n, n))
    u, v, w = np.ogrid[:n, :n, :n]
    if check_name == "qdybe":
        def bad(lam):
            a, b = E[lam, u, v], X[lam, u, v]
            s = phi[lam, b]
            c, d = E[s, a, w], X[s, a, w]
            e, f = E[lam, b, d], X[lam, b, d]
            s = phi[lam, u]
            p2, q2 = E[s, v, w], X[s, v, w]
            s2, t2 = E[lam, u, q2], X[lam, u, q2]
            s = phi[lam, t2]
            x2, y2 = E[s, s2, p2], X[s, s2, p2]
            return (c != x2) | (e != y2) | (f != t2)
    elif check_name == "braid":
        # sigma(lam, x, y) = (X, E)
        def bad(lam):
            a, b = X[lam, u, v], E[lam, u, v]
            s = phi[lam, a]
            c, d = X[s, b, w], E[s, b, w]
            l1, l2 = X[lam, a, c], E[lam, a, c]
            s = phi[lam, u]
            p2, q2 = X[s, v, w], E[s, v, w]
            g, hh = X[lam, u, p2], E[lam, u, p2]
            s = phi[lam, g]
            m1, m2 = X[s, hh, q2], E[s, hh, q2]
            return (l1 != g) | (l2 != m1) | (d != m2)
    else:
        raise ValueError(check_name)
    return first_witness(h, bad, (n, n, n))


def d_class_check(E, X, mul, ld, cls):
    """Normalised verdict of check_D_class: composition law first, then normalisation."""
    n = mul.shape[0]
    u, v, w = np.ogrid[:n, :n, :n]
    if cls == "D1":
        def comp(lam):
            lu = mul[lam, u]
            return X[lam, u, X[lu, v, w]] != X[lam, ld[lam, mul[lu, v]], w]
    elif cls == "D2":
        def comp(lam):
            eta, xi = E[lam, u, v], X[lam, u, v]
            lx = mul[lam, xi]
            lu = mul[lam, u]
            luv = mul[lu, v]
            return mul[lx, X[lx, eta, w]] != mul[lam, X[lam, u, ld[lu, mul[luv, w]]]]
    elif cls == "D3":
        def comp(lam):
            lu, lv, lw = mul[lam, u], mul[lam, v], mul[lam, w]
            inner = X[lu, ld[lu, lam], w]
            lhs = mul[lam, X[lam, v, ld[lv, mul[lu, inner]]]]
            rhs = mul[lu, X[lu, ld[lu, lv], ld[lv, lw]]]
            return lhs != rhs
    else:
        raise ValueError(cls)
    wit = first_witness(n, comp, (n, n, n))
    if wit is not None:
        return check(wit, "composition")
    x = np.arange(n)
    if cls == "D2":
        def norm(lam):
            lu = mul[lam, x]
            return X[lam, x, ld[lu, lu]] != ld[lam, lam]
    else:
        def norm(lam):
            return X[lam, ld[lam, lam], x] != x
    return check(first_witness(n, norm, (n,)), "normalisation")


def extract_table(E, X, mul, ld):
    """mu(a, b, c) = a * xi_a(a\\b)(b\\c)."""
    n = mul.shape[0]
    a, b, c = np.ogrid[:n, :n, :n]
    return mul[a, X[a, ld[a, b], ld[b, c]]]


def reconstruct_a1(mul, ld, p, q, T, lam=0):
    """Generating table and bijection of class A1 at basepoint lam."""
    n = mul.shape[0]
    a, b = np.ogrid[:n, :n]
    G = ld[lam, q[T[p[mul[lam, a]], p[lam], p[mul[lam, b]]]]]
    return G, ld[lam]


def first_repeat(rows):
    """(row, value) of the first repeated value in a row, or None."""
    for u, row in enumerate(rows.tolist()):
        seen = set()
        for w in row:
            if w in seen:
                return u, w
            seen.add(w)
    return None


FLAG_KEYS = ("is_left_quasigroup", "is_quasigroup", "is_loop", "is_group",
             "is_right_distributive", "identity")


def structure_flags(mul):
    """Structure flags of a binary table, as the package reports them."""
    n = mul.shape[0]
    full = np.arange(n)
    rows_ok = bool(all((np.sort(r) == full).all() for r in mul))
    cols_ok = bool(all((np.sort(c) == full).all() for c in mul.T))
    identity = None
    for e in range(n):
        if (mul[e] == full).all() and (mul[:, e] == full).all():
            identity = e
            break
    is_q = rows_ok and cols_ok
    is_loop = is_q and identity is not None
    a, b, c = np.ogrid[:n, :n, :n]
    assoc = bool((mul[mul[a, b], c] == mul[a, mul[b, c]]).all())
    rdist = bool((mul[mul[a, b], c] == mul[mul[a, c], mul[b, c]]).all())
    return {
        "is_left_quasigroup": rows_ok,
        "is_quasigroup": is_q,
        "is_loop": is_loop,
        "is_group": is_loop and assoc,
        "is_right_distributive": rdist,
        "identity": identity if is_loop else None,
    }
