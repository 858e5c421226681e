"""The three benchmark workloads.

Each workload makes its inputs from the seed (`setup`), lists its
operations as closures that call the package (`ops`), turns the raw
outcome of one operation into a small comparable answer (`answer`), and
checks a first-round answer against the independent reference in
`oracle.py`, the cross-checks that need no reference, and the reference
file made from the package at the commit that defined the benchmark
(`check`).

Every call into the package goes through an attribute of the imported
`dybmaps` package or one of its modules at call time, so the traced run
can rebind those names.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
from itertools import permutations, product

import numpy as np

import oracle

VERIFY_CHECKS = ("qdybe", "braid", "invariance", "unitary", "d1", "d2", "d3")


def digest(*arrays) -> str:
    """Stable short hash of integer arrays, shape included."""
    h = hashlib.sha1()
    for arr in arrays:
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:20]


def short_digest(answer) -> str:
    """Four hex digits per answer; the reference file stores one per operation."""
    return hashlib.sha1(repr(answer).encode()).hexdigest()[:4]


def normal(res):
    """A CheckResult as (holds, witness, label)."""
    wit = None if res.witness is None else tuple(int(x) for x in res.witness)
    return (bool(res.holds), wit, res.label)


class Raised:
    """An exception escaped an operation; the answer records its type."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.text = str(exc)[:200]

    def answer(self):
        return ("raised", self.kind, self.text)


# ---------------------------------------------------------------- inputs


def perm(rng: random.Random, n: int) -> np.ndarray:
    return np.array(rng.sample(range(n), n), dtype=np.int64)


def cyclic(n: int) -> np.ndarray:
    return np.add.outer(np.arange(n), np.arange(n)) % n


def _s3() -> np.ndarray:
    ps = list(permutations(range(3)))
    return np.array(
        [[ps.index(tuple(p[q[i]] for i in range(3))) for q in ps] for p in ps]
    )


def direct_with_z4(g: np.ndarray) -> np.ndarray:
    """Direct product g x Z4 with pair (x, y) encoded as 4x + y."""
    x = np.arange(g.shape[0] * 4)
    a, b = x // 4, x % 4
    return g[a[:, None], a[None, :]] * 4 + np.add.outer(b, b) % 4


K4 = np.bitwise_xor.outer(np.arange(4), np.arange(4))
S3 = _s3()


def relabel_binary(mul: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty_like(mul)
    out[np.ix_(s, s)] = s[mul]
    return out


def relabel_ternary(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    out[np.ix_(s, s, s)] = s[t]
    return out


def variant_table(mul: np.ndarray, variant: int) -> np.ndarray:
    """The derived ternary tables of a left quasigroup, restated from their formulas."""
    n = mul.shape[0]
    ld = oracle.ldiv_of(mul)
    a, b, c = np.ogrid[:n, :n, :n]
    if variant == 1:
        return mul[a, ld[b, c]]
    if variant == 2:
        return mul[c, ld[b, a]]
    return mul[b, ld[a, c]]


def corrupt(rng: random.Random, t: np.ndarray) -> np.ndarray:
    """Copy of t with one seeded cell set to a different value."""
    n = t.shape[0]
    bad = t.copy()
    cell = rng.randrange(bad.size)
    bad.flat[cell] = (bad.flat[cell] + rng.randrange(1, n)) % n
    return bad


def random_left_quasigroup(rng: random.Random, n: int) -> np.ndarray:
    return np.array([rng.sample(range(n), n) for _ in range(n)], dtype=np.int64)


PROJECTIONS = ("first", "middle", "third")


def projection_table(rng: random.Random, n: int, position: str) -> np.ndarray:
    """mu(a,b,c) = f(a), f(b) or f(c); f is idempotent for the middle slot."""
    if position == "middle":
        image = rng.sample(range(n), rng.randint(1, n))
        f = np.array([x if x in image else rng.choice(image) for x in range(n)])
    else:
        f = np.array([rng.randrange(n) for _ in range(n)])
    a, b, c = np.ogrid[:n, :n, :n]
    idx = {"first": a, "middle": b, "third": c}[position]
    return np.broadcast_to(f[idx], (n, n, n)).copy()


# ---------------------------------------------------------------- large-carriers

#: Groups of order 16-28.  K4 x Z4 is abelian and not cyclic; S3 x Z4 is
#: non-abelian, so unitarity and class D3 fail on its variant-1 table.  Z28
#: rather than Z32, and no Z20, keep a round near 6 s, so a run holds 5-6
#: rounds and each operation's median has enough samples.
LARGE_GROUPS = (
    ("Z16", lambda: cyclic(16)),
    ("K4xZ4", lambda: direct_with_z4(K4)),
    ("Z24", lambda: cyclic(24)),
    ("S3xZ4", lambda: direct_with_z4(S3)),
    ("Z28", lambda: cyclic(28)),
)

_COND = re.compile(r"condition (\w+) fails at \(([^)]*)\)")
_INVARIANCE = re.compile(r"invariance fails at \(([^)]*)\)")
_REPEAT = re.compile(r"row (\d+) repeats value (\d+)")


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def parse_error(err: str) -> tuple:
    """The failed condition and witness named in a CLI error message."""
    m = _COND.search(err)
    if m:
        return (m.group(1), _ints(m.group(2)))
    m = _INVARIANCE.search(err)
    if m:
        return ("invariance", _ints(m.group(1)))
    m = _REPEAT.search(err)
    if m:
        return ("repeat", (int(m.group(1)), int(m.group(2))))
    return ("unparsed", err.strip()[:200])


def _write(path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


class Workload:
    name = ""
    #: Whether `check` needs the raw outcomes of the first round.
    keeps_raws = False


class LargeCarriers(Workload):
    """The CLI workflow on groups of order 16-28, in-process, stdout captured."""

    name = "large-carriers"

    def setup(self, dyb, seed: int, work, reference):
        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for gname, make in LARGE_GROUPS:
            g = make()
            n = g.shape[0]
            mul = relabel_binary(g, perm(rng, n))
            t = variant_table(g, 1)
            forms = {"ok": (t, perm(rng, n)), "bad": (corrupt(rng, t), perm(rng, n))}
            d = work / gname
            d.mkdir(parents=True, exist_ok=True)
            _write(d / "L.json", {"kind": "binary", "order": n, "table": mul.tolist()})
            for form, (tt, p) in forms.items():
                _write(d / f"M-{form}.json",
                       {"kind": "ternary", "order": n, "table": tt.ravel().tolist()})
                _write(d / f"pi-{form}.json", {"kind": "bijection", "order": n, "map": p.tolist()})
                cases.append({"group": gname, "form": form, "dir": d, "mul": mul, "t": tt, "p": p})
        return {"dyb": dyb, "cases": cases}

    def _calls(self, case):
        d, f = case["dir"], case["form"]
        L, M, pi = str(d / "L.json"), str(d / f"M-{f}.json"), str(d / f"pi-{f}.json")
        R, E, G = d / f"R-{f}.json", d / f"E-{f}.json", d / f"G-{f}.json"
        triple = ["--L", L, "--M", M, "--pi", pi]
        calls = [(("validate",), ["validate", L], None),
                 (("build", True), ["build", *triple, "-o", str(R)], R)]
        if f == "bad":
            calls.append(
                (("build", False), ["build", *triple, "--unchecked", "-o", str(R)], R))
        calls += [(("verify", c), ["verify", "--check", c, str(R)], None) for c in VERIFY_CHECKS]
        calls += [(("extract",), ["extract", str(R), "-o", str(E)], E),
                  (("reconstruct",), ["reconstruct", "--class", "a1", *triple, "-o", str(G)], G)]
        return calls

    def ops(self, state):
        cli = importlib.import_module("dybmaps.cli")
        out = []
        for case in state["cases"]:
            for kind, argv, path in self._calls(case):
                def run(argv=argv):
                    so, se = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                        code = cli.main(argv)
                    return code, so.getvalue(), se.getvalue()
                out.append({"case": case, "kind": kind, "path": path, "run": run})
        return out

    def answer(self, op, raw):
        """Also sets op["bytes_written"]: JSON bytes to stdout and the -o file."""
        op["bytes_written"] = 0
        if isinstance(raw, Raised):
            return raw.answer()
        code, so, se = raw
        op["bytes_written"] = len(so.encode())
        if code == 0 and op["path"] is not None:
            op["bytes_written"] += op["path"].stat().st_size
        kind = op["kind"][0]
        if kind == "verify" and code in (0, 1):
            doc = json.loads(so)
            wit = doc["counterexample"]
            return (code, doc["holds"], None if wit is None else tuple(wit), doc.get("condition"))
        if code != 0:
            return (code,) + parse_error(se)
        if kind == "validate":
            doc = json.loads(so)
            return (0, tuple((k, doc[k]) for k in sorted(oracle.FLAG_KEYS)))
        doc = json.loads(op["path"].read_text(encoding="utf-8"))
        if kind == "build":
            return (0, digest(doc["phi"]), digest(doc["r"]))
        if kind == "extract":
            return (0, digest(doc["table"]))
        return (0, digest(doc["G"]["table"]), digest(doc["pi_prime"]["map"]))

    def expected(self, state):
        """Oracle answers, one per operation, in the order of `ops`."""
        out = []
        for case in state["cases"]:
            mul, t, p = case["mul"], case["t"], case["p"]
            ld = oracle.ldiv_of(mul)
            q = np.argsort(p)
            E, X = oracle.build_map(mul, ld, p, q, t)
            built = (0, digest(mul), digest(np.stack([E, X], axis=-1)))
            for kind, _, _ in self._calls(case):
                if kind[0] == "validate":
                    flags = oracle.structure_flags(mul)
                    out.append((0, tuple((k, flags[k]) for k in sorted(oracle.FLAG_KEYS))))
                elif kind[0] == "build":
                    w1, w2 = oracle.m1m2_witnesses(t) if kind[1] else (None, None)
                    out.append((2, "M1", w1) if w1 else (2, "M2", w2) if w2 else built)
                elif kind[0] == "verify":
                    c = kind[1]
                    if c.startswith("d"):
                        holds, wit, label = oracle.d_class_check(E, X, mul, ld, c.upper())
                    else:
                        holds, wit, label = oracle.check(oracle.map_witness(E, X, mul, c))
                    out.append((0 if holds else 1, holds, wit, label))
                elif kind[0] == "extract":
                    inv = oracle.map_witness(E, X, mul, "invariance")
                    out.append((2, "invariance", inv) if inv else
                               (0, digest(oracle.extract_table(E, X, mul, ld).ravel())))
                else:
                    out.append(self._reconstruct(mul, ld, p, q, t))
        return out

    @staticmethod
    def _reconstruct(mul, ld, p, q, t):
        for cond in ("A11", "A12"):
            w = oracle.ternary_witness(t, cond)
            if w:
                return (2, cond, w)
        g, pi_prime = oracle.reconstruct_a1(mul, ld, p, q, t)
        rep = oracle.first_repeat(g)
        return (2, "repeat", rep) if rep else (0, digest(g), digest(pi_prime))

    def check(self, state, ops, raws, answers):
        """Problems per operation: any difference from the oracle answer."""
        return [
            [] if got == want else [f"expected {want!r}, got {got!r}"]
            for got, want in zip(answers, self.expected(state))
        ]


# ---------------------------------------------------------------- small-carriers

SMALL_ORDERS = (2, 3, 4, 5, 6)
SMALL_PER_ORDER = 400
D_CLASSES = ("D1", "D2", "D3")


def small_groups(n: int):
    return [cyclic(n)] + ([K4] if n == 4 else []) + ([S3] if n == 6 else [])


class SmallCarriers(Workload):
    """Thousands of random triples at orders 2-6 through the Python API."""

    name = "small-carriers"

    def setup(self, dyb, seed: int, work, reference):
        # The mix is fixed and only the tables are drawn from the seed, so
        # every seed asks for the same amount of work: per order, sources
        # cycle through the pool and 2 of every 5 tables get a corrupted
        # cell, evenly over the sources.
        rng = random.Random(f"{self.name}/{seed}")
        pool = [np.array(list(map(int, s)), dtype=np.int64).reshape(3, 3, 3)
                for s in reference["order3_pool"]]
        triples = []
        for n in SMALL_ORDERS:
            groups = small_groups(n)
            sources = ("mu_g", "projection", "order3") if n == 3 else ("mu_g", "mu_g", "projection")
            for j in range(SMALL_PER_ORDER):
                source, k = sources[j % 3], j // 3
                if source == "mu_g":
                    g = groups[k % len(groups)]
                    variant = 1 + (k // len(groups)) % 3
                    t = relabel_ternary(variant_table(g, variant), perm(rng, n))
                elif source == "projection":
                    t = projection_table(rng, n, PROJECTIONS[k % 3])
                else:
                    t = pool[rng.randrange(len(pool))]
                corrupted = j % 5 < 2
                if corrupted:
                    t = corrupt(rng, t)
                item = {"mul": random_left_quasigroup(rng, n), "p": perm(rng, n), "t": t,
                        "source": source, "corrupted": corrupted}
                if not corrupted:
                    item["mul2"] = random_left_quasigroup(rng, n)
                    item["p2"] = perm(rng, n)
                triples.append(item)
        for item in triples:
            item["obj"] = self._objects(dyb, item)
        return {"dyb": dyb, "triples": triples}

    @staticmethod
    def _objects(dyb, item):
        n = item["t"].shape[0]
        L = dyb.validate_left_quasigroup(dyb.BinaryTable.from_rows(item["mul"].tolist()))
        M = dyb.TernaryTable.from_flat(n, item["t"].ravel().tolist())
        pi = dyb.Bijection.make(item["p"].tolist())
        obj = {"L": L, "M": M, "pi": pi, "triple": dyb.Triple(L, M, pi)}
        if "mul2" in item:
            obj["L2"] = dyb.validate_left_quasigroup(
                dyb.BinaryTable.from_rows(item["mul2"].tolist()))
            obj["pi2"] = dyb.Bijection.make(item["p2"].tolist())
        return obj

    def ops(self, state):
        dyb = state["dyb"]
        out = []
        for item in state["triples"]:
            o = item["obj"]

            def run(o=o):
                M, t = o["M"], o["triple"]
                m12 = dyb.satisfies_m1m2(M)
                u = dyb.check_ternary_condition(M, "U")
                bc = dyb.braid_check(M)
                R = dyb.build_dyb(t, checked=False)
                checks = (dyb.verify_qdybe(R), dyb.verify_braiding(R),
                          dyb.verify_invariance(R), dyb.verify_unitary(R),
                          *(dyb.check_D_class(R, c) for c in D_CLASSES))
                E = dyb.extract_mu_L(R)
                h = dyb.is_ternary_hom(o["pi"], E, M)
                cs = dyb.conjugation_selfcheck(t)
                gauge = None
                if "L2" in o:
                    c = dyb.build_correspondence(o["L"], o["L2"], M, o["pi"], o["pi2"])
                    gauge = dyb.verify_irf_irf(c)
                return m12, u, bc, R, checks, E, h, cs, gauge

            out.append({"item": item, "run": run})
        return out

    def answer(self, op, raw):
        if isinstance(raw, Raised):
            return raw.answer()
        m12, u, bc, R, checks, E, h, cs, gauge = raw
        return (
            bool(m12), normal(u), normal(bc), digest(R.phi), digest(R.r),
            tuple(normal(c) for c in checks), digest(E.table), normal(h), bool(cs),
            None if gauge is None else normal(gauge),
        )

    @staticmethod
    def expected_one(item):
        mul, p, t = item["mul"], item["p"], item["t"]
        ld = oracle.ldiv_of(mul)
        q = np.argsort(p)
        w1, w2 = oracle.m1m2_witnesses(t)
        E, X = oracle.build_map(mul, ld, p, q, t)
        checks = tuple(oracle.check(oracle.map_witness(E, X, mul, c))
                       for c in ("qdybe", "braid", "invariance", "unitary"))
        checks += tuple(oracle.d_class_check(E, X, mul, ld, c) for c in D_CLASSES)
        ext = oracle.extract_table(E, X, mul, ld)
        return (
            w1 is None and w2 is None,
            oracle.check(oracle.ternary_witness(t, "U"), "U"),
            oracle.check(oracle.braid_witness(w1, w2)),
            digest(mul), digest(np.stack([E, X], axis=-1)), checks, digest(ext.ravel()),
            oracle.check(oracle.hom_witness(p, ext, t)),
            True,
            None if item["corrupted"] else (True, None, None),
        )

    def check(self, state, ops, raws, answers):
        problems = []
        for op, got in zip(ops, answers):
            want = self.expected_one(op["item"])
            bad = [] if got == want else [f"expected {want!r}, got {got!r}"]
            if got[0] != "raised":
                # Cross-checks that need no reference: M1 and M2 <=> equation
                # <=> braiding <=> braid check; U <=> unitary; invariance,
                # factorisation self-check and the extraction homomorphism hold.
                m12, u, bc, _, _, checks, _, h, cs, _ = got
                if not m12 == checks[0][0] == checks[1][0] == bc[0]:
                    bad.append("M1M2 / qdybe / braid / braid_check disagree")
                if u[0] != checks[3][0]:
                    bad.append("U and unitary disagree")
                if not (checks[2][0] and cs and h[0]):
                    bad.append("invariance, self-check or extraction homomorphism fails")
            problems.append(bad)
        return problems


# ---------------------------------------------------------------- enumerate

#: Tables found by the fixed-budget order-3 backtracking search.
SEARCH_LIMIT = 8000
#: Relabelled pairs per order, once for ternary and once for binary tables.
#: The counts put the median operation among order-6 and the 90th
#: percentile among order-7 canonical forms, so neither sits on a jump
#: between orders.
CANON_PAIRS = {6: 12, 7: 6, 8: 1}


def _flats(tables):
    return [tuple(t.table) for t in tables]


def _cells(table) -> tuple:
    """Entries of a ternary or binary table in row-major order."""
    return tuple(table.table) if hasattr(table, "table") else sum(table.rows, ())


class Enumerate(Workload):
    """The search layer alone: order-3 search to a fixed budget, order-2
    anchors, and canonical forms of relabelled pairs at orders 6-8."""

    name = "enumerate"
    keeps_raws = True

    def setup(self, dyb, seed: int, work, reference):
        rng = random.Random(f"{self.name}/{seed}")
        arrays = []
        for n, count in CANON_PAIRS.items():
            for k in range(count):
                t = relabel_ternary(variant_table(cyclic(n), 1 + k % 3), perm(rng, n))
                b = random_left_quasigroup(rng, n)
                arrays += [t, relabel_ternary(t, perm(rng, n)), b, relabel_binary(b, perm(rng, n))]
        tables = [dyb.TernaryTable.from_flat(a.shape[0], a.ravel().tolist()) if a.ndim == 3
                  else dyb.BinaryTable.from_rows(a.tolist()) for a in arrays]
        return {"dyb": dyb, "tables": tables, "reference": reference["enumerate"]}

    def ops(self, state):
        dyb = state["dyb"]
        out = [
            {"kind": "search3", "run": lambda: dyb.search_ternary_M1M2(
                3, "backtracking", limit=SEARCH_LIMIT, up_to_iso=True)},
            {"kind": "search2-exhaustive", "run": lambda: dyb.search_ternary_M1M2(
                2, "exhaustive", up_to_iso=True)},
            {"kind": "search2-backtracking", "run": lambda: dyb.search_ternary_M1M2(
                2, "backtracking", up_to_iso=True)},
            {"kind": "census2", "run": lambda: dyb.census_theorem31(2)},
        ]
        for table in state["tables"]:
            out.append({"kind": "canonicalize", "table": table,
                        "run": lambda table=table: dyb.canonicalize(table)})
        return out

    def answer(self, op, raw):
        if isinstance(raw, Raised):
            return raw.answer()
        kind = op["kind"]
        if kind.startswith("search"):
            return (raw.total, raw.complete, raw.up_to_iso,
                    digest(_flats(raw.tables)), digest(_flats(raw.representatives)))
        if kind == "census2":
            return (raw.total, raw.num_m1m2, raw.agree, len(raw.disagreements))
        canon, aut = raw
        return (type(canon).__name__, _cells(canon), int(aut))

    def check(self, state, ops, raws, answers):
        ref = state["reference"]
        order2 = [flat for flat in product(range(2), repeat=8)
                  if oracle.m1m2_witnesses(np.array(flat).reshape(2, 2, 2)) == (None, None)]
        first_canon = len(ops) - len(state["tables"])
        problems = []
        for i, (op, raw, got) in enumerate(zip(ops, raws, answers)):
            bad = []
            kind = op["kind"]
            if got[0] == "raised":
                bad.append(f"raised {got!r}")
            elif kind == "search3":
                want = ref["order3"]
                if (got[0], got[1], got[2]) != (want["total"], want["complete"], want["up_to_iso"]):
                    bad.append(f"order-3 search gave {got[:3]}, expected {want}")
                flats = _flats(raw.tables)
                if any(x >= y for x, y in zip(flats, flats[1:])):
                    bad.append("order-3 tables not in strictly increasing order")
                if any(oracle.m1m2_witnesses(np.array(f).reshape(3, 3, 3)) != (None, None)
                       for f in flats):
                    bad.append("an order-3 table fails M1 or M2")
                if len(raw.representatives) != got[2]:
                    bad.append("representative count differs from class count")
            elif kind.startswith("search2"):
                want = ref["order2"]
                if (got[0], got[1], got[2]) != (want["total"], True, want["up_to_iso"]):
                    bad.append(f"order-2 search gave {got[:3]}, expected {want}")
                if got[3] != digest(order2):
                    bad.append("order-2 tables differ from the reference scan")
            elif kind == "census2":
                want = ref["census2"]
                if got != (want["total"], len(order2), want["agree"], 0):
                    bad.append(f"census gave {got}, expected {want}")
            else:
                # Pairs are (table, relabelled table): same canonical form and
                # automorphism count; the form is never above the input.
                partner = first_canon + ((i - first_canon) ^ 1)
                if got != answers[partner]:
                    bad.append("canonical form or automorphism count changes under relabeling")
                if got[1] > _cells(op["table"]):
                    bad.append("canonical form is above the input table")
            problems.append(bad)
        return problems


WORKLOADS = {w.name: w for w in (LargeCarriers(), SmallCarriers(), Enumerate())}
