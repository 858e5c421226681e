"""Time the whole pipeline on the cyclic group Z/n, stage by stage.

    PYTHONPATH=src python tests/scale_pipeline.py 64
    PYTHONPATH=src python tests/scale_pipeline.py 100

For each order it takes Z/n with its variant-1 ternary table and the
identity bijection through `make_mu_g`, the `M1` and `M2` checks that
`build_dyb` makes, the build itself, the seven map checks, `extract_mu_L`
and a JSON round trip.  It prints the wall seconds of each stage, its user
and system CPU seconds (`ru_utime`, `ru_stime`), so time the operating
system spends for the process, such as page faults, shows, and the peak
resident memory (`ru_maxrss`) after it, so the stage that sets the peak
shows.  The peak is the process's so far, so give one order per run to
read each order's own.  Every check holds on these maps, so each scans its
whole grid.  It uses the public API only, so it runs unchanged against any
checkout; it reports and gates nothing.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import resource
import sys
import time

from dybmaps import (
    Bijection,
    BinaryTable,
    Triple,
    build_dyb,
    check_D_class,
    extract_mu_L,
    make_mu_g,
    satisfies_m1m2,
    serialize,
    validate_left_quasigroup,
    verify_braiding,
    verify_invariance,
    verify_qdybe,
    verify_unitary,
)


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pipeline(n: int) -> list[tuple[str, float, float, float, float]]:
    """(stage, wall seconds, user seconds, system seconds, peak RSS in MB
    after it) for Z/n; raises if a check fails or the round trip differs."""
    times = []

    def stage(name, fn):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        out = fn()
        wall, r1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
        times.append((name, wall, r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime, peak_mb()))
        return out

    G = validate_left_quasigroup(BinaryTable.from_rows([[(u + v) % n for v in range(n)] for u in range(n)]))
    M = stage("make_mu_g", lambda: make_mu_g(G, 1))
    assert stage("M1+M2", lambda: satisfies_m1m2(M))
    R = stage("build_dyb", lambda: build_dyb(Triple(G, M, Bijection.identity(n)), checked=False))
    checks = {"qdybe": verify_qdybe, "braid": verify_braiding, "invariance": verify_invariance,
              "unitary": verify_unitary}
    checks |= {c: lambda R, c=c.upper(): check_D_class(R, c) for c in ("d1", "d2", "d3")}
    for name, check in checks.items():
        assert stage(name, lambda: check(R)), name
    assert stage("extract_mu_L", lambda: extract_mu_L(R)) == M
    text = stage("json dumps", lambda: serialize.dumps(R))
    assert stage("json loads", lambda: serialize.loads(text)) == R
    return times


def main(argv: list[str]) -> None:
    for n in map(int, argv or ["64"]):
        times = pipeline(n)
        wall, user, system = (sum(row[i] for row in times) for i in (1, 2, 3))
        print(f"Z/{n}: total {wall:.2f} s (user {user:.2f} s, system {system:.2f} s), "
              f"peak RSS {peak_mb():.0f} MB")
        print(f"  {'stage':14s} {'wall':>8s}   {'user':>7s}   {'system':>7s}   {'peak':>5s}")
        for name, t, u, s, peak in times:
            print(f"  {name:14s} {t:8.3f} s {u:7.3f} s {s:7.3f} s {peak:5.0f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
