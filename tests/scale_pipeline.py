"""Time the whole pipeline on the cyclic group Z/n, stage by stage.

    PYTHONPATH=src python tests/scale_pipeline.py 64
    PYTHONPATH=src python tests/scale_pipeline.py 100

For each order it takes Z/n with its variant-1 ternary table and the
identity bijection through `make_mu_g`, the `M1` and `M2` checks that
`build_dyb` makes, the build itself, the seven map checks, `extract_mu_L`
and a JSON round trip, and prints the seconds of each stage and the peak
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


def pipeline(n: int) -> list[tuple[str, float, float]]:
    """(stage, seconds, peak RSS in MB after it) for Z/n; raises if a check
    fails or the round trip differs."""
    times = []

    def stage(name, fn):
        t0 = time.perf_counter()
        out = fn()
        times.append((name, time.perf_counter() - t0, peak_mb()))
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
        print(f"Z/{n}: total {sum(t for _, t, _ in times):.2f} s, peak RSS {peak_mb():.0f} MB")
        for name, t, peak in times:
            print(f"  {name:14s} {t:8.3f} s  {peak:5.0f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
