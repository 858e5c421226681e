"""Time each public call of the per-triple check sequence, order by order.

    PYTHONPATH=src python tests/scale_calls.py
    PYTHONPATH=src python tests/scale_calls.py 400 3

For each order from 2 to 6 it draws seeded triples (L, M, pi): L a random
left quasigroup, pi a random bijection, and M a variant table of Z/n or a
projection table through a random map, with one cell corrupted in 2 of every
5.  On each triple it makes the calls the benchmark's `small-carriers`
workload makes, in the same order: the table checks, the build, the seven
map checks, the extraction and its homomorphism check, the factorisation
self-check and, for the uncorrupted triples, the correspondence with a
second random (L2, pi2) and its gauge check.  It prints the seconds spent in
each call, per order and in all, so the call whose time moved shows.  The
arguments are the triples per order (default 400, as in the workload) and
the seed (default 0).  A first pass over 5 triples per order, not reported,
generates each check's code.  It uses the public API only, so it runs
unchanged against any checkout; it reports and gates nothing.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import random
import sys
import time
from collections import defaultdict

from dybmaps import (
    Bijection,
    BinaryTable,
    TernaryTable,
    Triple,
    braid_check,
    build_correspondence,
    build_dyb,
    check_D_class,
    check_ternary_condition,
    conjugation_selfcheck,
    extract_mu_L,
    is_ternary_hom,
    make_constant_mu,
    make_mu_g,
    satisfies_m1m2,
    validate_left_quasigroup,
    verify_braiding,
    verify_invariance,
    verify_irf_irf,
    verify_qdybe,
    verify_unitary,
)

ORDERS = (2, 3, 4, 5, 6)


def random_lq(rng: random.Random, n: int):
    return validate_left_quasigroup(BinaryTable.from_rows([rng.sample(range(n), n) for _ in range(n)]))


def random_bijection(rng: random.Random, n: int) -> Bijection:
    return Bijection.make(rng.sample(range(n), n))


def triples(rng: random.Random, n: int, count: int):
    """(L, M, pi, second) for `count` seeded triples of order n; `second` is
    (L2, pi2) for an uncorrupted table and None otherwise."""
    G = validate_left_quasigroup(BinaryTable.from_rows([[(u + v) % n for v in range(n)] for u in range(n)]))
    for j in range(count):
        if j % 3 < 2:
            M = make_mu_g(G, 1 + j // 3 % 3)
        else:
            M = make_constant_mu(n, [rng.randrange(n) for _ in range(n)], ("first", "third")[j // 3 % 2])
        corrupted = j % 5 < 2
        if corrupted:
            flat = list(M.table)
            i = rng.randrange(len(flat))
            flat[i] = (flat[i] + rng.randrange(1, n)) % n
            M = TernaryTable.from_flat(n, flat)
        L, pi = random_lq(rng, n), random_bijection(rng, n)
        yield L, M, pi, None if corrupted else (random_lq(rng, n), random_bijection(rng, n))


def run(count: int, seed: int) -> dict:
    """{call: {order: seconds}} over every triple of every order."""
    seconds = defaultdict(lambda: defaultdict(float))
    for n in ORDERS:
        rng = random.Random(f"{seed}/{n}")

        def timed(name, fn, *args):
            t0 = time.perf_counter()
            out = fn(*args)
            seconds[name][n] += time.perf_counter() - t0
            return out

        for L, M, pi, second in triples(rng, n, count):
            timed("satisfies_m1m2", satisfies_m1m2, M)
            timed("check_ternary_condition U", check_ternary_condition, M, "U")
            timed("braid_check", braid_check, M)
            t = Triple(L, M, pi)
            R = timed("build_dyb", build_dyb, t, False)
            for fn in (verify_qdybe, verify_braiding, verify_invariance, verify_unitary):
                timed(fn.__name__, fn, R)
            for cls in ("D1", "D2", "D3"):
                timed(f"check_D_class {cls}", check_D_class, R, cls)
            E = timed("extract_mu_L", extract_mu_L, R)
            timed("is_ternary_hom", is_ternary_hom, pi, E, M)
            timed("conjugation_selfcheck", conjugation_selfcheck, t)
            if second is not None:
                c = timed("build_correspondence", build_correspondence, L, second[0], M, pi, second[1])
                timed("verify_irf_irf", verify_irf_irf, c)
    return seconds


def main(argv: list[str]) -> None:
    count = int(argv[0]) if argv else 400
    seed = int(argv[1]) if len(argv) > 1 else 0
    run(5, seed)
    seconds = run(count, seed)
    print(f"{count} triples per order, seed {seed}; seconds per call")
    print(f"{'call':28s}" + "".join(f"{'n=' + str(n):>8s}" for n in ORDERS) + f"{'all':>9s}")
    rows = [*seconds.items(), ("all", {n: sum(s[n] for s in seconds.values()) for n in ORDERS})]
    for name, per in rows:
        print(f"{name:28s}" + "".join(f"{per[n]:8.3f}" for n in ORDERS) + f"{sum(per.values()):9.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
