"""Time the complete order-3 walk for tables satisfying M1 and M2.

    PYTHONPATH=src python tests/scale_walk.py

It runs `search_ternary_M1M2(3, "backtracking", up_to_iso=True)` with no
limit or deadline and prints the tables, nodes and `complete` of the walk,
the isomorphism classes, the sha256 of all tables' entries in the order the
walk found them, the walk's seconds (`elapsed`), the classification's
(`classify_s`), the peak resident memory (`ru_maxrss`), and the classes'
automorphism histogram, each class's count taken from `canonicalize` of
its representative.  The complete walk gives 102,250 tables, 1,533,186
nodes and 17,258 classes, with digest
57dda664cf952b7845f6bf7c8e91f5b009edf49f51efca1de5eb3db9f56fdcf3, and the
histogram {1: 16841, 2: 381, 3: 25, 6: 11} (automorphisms: classes).  It uses
the public API only, so it runs unchanged against any checkout; it reports
and gates nothing.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import resource
from collections import Counter
from itertools import chain

from dybmaps import canonicalize, search_ternary_M1M2


def main() -> None:
    rep = search_ternary_M1M2(3, "backtracking", up_to_iso=True)
    digest = hashlib.sha256(bytes(chain.from_iterable(t.table for t in rep.tables))).hexdigest()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"tables {rep.total}  nodes {rep.nodes}  complete {rep.complete}")
    print(f"classes {rep.up_to_iso}  sha256 {digest}")
    print(f"elapsed {rep.elapsed:.2f} s  classify_s {rep.classify_s:.2f} s  ru_maxrss {peak:.0f} MB")
    auts = Counter(canonicalize(r)[1] for r in rep.representatives)
    print(f"automorphisms {dict(sorted(auts.items()))}")


if __name__ == "__main__":
    main()
