"""Command-line surface.

Exit codes: 0 the input is valid / the property holds; 1 the property
fails (the JSON report carries the counterexample); 2 malformed input,
order mismatch or precondition failure.  Reports are JSON on stdout with
0-based element indices; diagnostics on stderr use 1-based labels.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import cache
from itertools import chain
from pathlib import Path

from . import serialize
from .binary import BinaryTable, Bijection, classify_structure, validate_left_quasigroup
from .correspondence import build_correspondence, is_constant_in_lambda, verify_irf_irf
from .engine import (
    A_CLASSES,
    D_CLASSES,
    DynamicalMap,
    Triple,
    build_dyb,
    check_D_class,
    extract_mu_L,
    reconstruct_G,
    verify_braiding,
    verify_invariance,
    verify_qdybe,
    verify_unitary,
)
from .errors import AlgebraError
from .search import SEARCHES, census_theorem31, search_structures
from .ternary import TernaryTable

#: What `verify --check` runs, by the name it takes.  Each entry looks its
#: function up when it is called, so a name rebound later (by a tracer or a
#: test) is the one that runs.
VERIFY = {
    "qdybe": lambda R: verify_qdybe(R),
    "braid": lambda R: verify_braiding(R),
    "invariance": lambda R: verify_invariance(R),
    "unitary": lambda R: verify_unitary(R),
    **{c.lower(): lambda R, c=c: check_D_class(R, c) for c in D_CLASSES},
}
VERIFY_CHECKS = tuple(VERIFY)


def _emit(doc, out: str | Path | None = None) -> None:
    """Write `doc` to the file `out`, or to stdout, as serialize.encode does."""
    _write(serialize.encode(doc), out)


def _write(text: str, out: str | Path | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _one_based(t) -> tuple:
    return tuple(x + 1 for x in t)


def _load_as(path: str, cls, what: str):
    obj = serialize.load(path)
    if not isinstance(obj, cls):
        raise ValueError(f"{path}: expected a {what} document")
    return obj


def _load_lq(path: str):
    return validate_left_quasigroup(_load_as(path, BinaryTable, "binary"))


def _load_triple(args) -> Triple:
    return Triple(
        _load_lq(args.L),
        _load_as(args.M, TernaryTable, "ternary"),
        _load_as(args.pi, Bijection, "bijection"),
    )


def _cmd_classify(args) -> int:
    """`classify`, and `validate`, which first requires a left quasigroup."""
    table = _load_as(args.file, BinaryTable, "binary")
    if args.command == "validate":
        validate_left_quasigroup(table)
    _emit(dataclasses.asdict(classify_structure(table)))
    return 0


def _cmd_build(args) -> int:
    R = build_dyb(_load_triple(args), checked=not args.unchecked)
    _write(serialize.dumps(R), args.output)
    return 0


def _cmd_verify(args) -> int:
    res = VERIFY[args.check](_load_as(args.file, DynamicalMap, "dynmap"))
    doc = {
        "check": args.check,
        "holds": res.holds,
        "counterexample": None if res.holds else list(res.witness),
    }
    if res.label and not res.holds:
        doc["condition"] = res.label
    _emit(doc)
    if not res.holds:
        print(
            f"check {args.check} fails at {_one_based(res.witness)} (1-based)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_extract(args) -> int:
    R = _load_as(args.file, DynamicalMap, "dynmap")
    _write(serialize.dumps(extract_mu_L(R)), args.output)
    return 0


def _cmd_reconstruct(args) -> int:
    G, pi_prime = reconstruct_G(_load_triple(args), args.cls.upper(), args.basepoint)
    _emit(
        {
            "class": args.cls,
            "basepoint": args.basepoint,
            "G": serialize.to_jsonable(G),
            "pi_prime": serialize.to_jsonable(pi_prime),
        },
        args.output,
    )
    return 0


def _cmd_search(args) -> int:
    report = search_structures(
        args.target,
        args.order,
        mode=args.mode,
        limit=args.limit,
        deadline=args.deadline,
        up_to_iso=args.up_to_iso,
    )
    summary = {
        "target": report.target,
        "order": report.order,
        "mode": report.mode,
        "total": report.total,
        "complete": report.complete,
        "nodes": report.nodes,
        "up_to_iso": report.up_to_iso,
        "elapsed": report.elapsed,
        "classify_s": report.classify_s,
    }
    if args.emit:
        outdir = Path(args.emit)
        outdir.mkdir(parents=True, exist_ok=True)
        emitted = report.representatives if args.up_to_iso else report.tables
        for i, table in enumerate(emitted):
            serialize.dump(table, outdir / f"rep-{i:05d}.json")
        summary["emitted"] = len(emitted)
        _emit(summary, outdir / "summary.json")
    _emit(summary)
    return 0


def _cmd_correspond(args) -> int:
    inst = build_correspondence(
        _load_lq(args.L1),
        _load_lq(args.L2),
        _load_as(args.M, TernaryTable, "ternary"),
        _load_as(args.pi1, Bijection, "bijection"),
        _load_as(args.pi2, Bijection, "bijection"),
    )
    res = verify_irf_irf(inst)
    doc = {
        "irf_irf": res.holds,
        "vertex": is_constant_in_lambda(inst.R2),
        "counterexample": None if res.holds else list(res.witness),
    }
    _emit(doc)
    if not res.holds:
        print(
            f"gauge identity fails at {_one_based(res.witness)} (1-based)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_census(args) -> int:
    L = _load_lq(args.L) if args.L else None
    pi = _load_as(args.pi, Bijection, "bijection") if args.pi else None
    report = census_theorem31(args.order, L=L, pi=pi, sample=args.sample, seed=args.seed)
    doc = {
        "order": report.order,
        "mode": report.mode,
        "total": report.total,
        "num_m1m2": report.num_m1m2,
        "agree": report.agree,
        "disagreements": [
            {"table": list(t), "m1m2": a, "qdybe": b, "braid": c}
            for t, a, b, c in report.disagreements
        ],
        "elapsed": report.elapsed,
    }
    _emit(doc)
    return 0 if report.agree else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every call parses into
    a fresh namespace, so one call's arguments never reach the next."""
    parser = argparse.ArgumentParser(
        prog="dybmaps",
        description="Construct, verify, search and relate dynamical Yang-Baxter maps on finite carriers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a table is a left quasigroup, print flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify", help="print structure flags for any table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build", help="build the dynamical map of a triple")
    p.add_argument("--L", required=True, help="binary JSON for the left quasigroup")
    p.add_argument("--M", required=True, help="ternary JSON")
    p.add_argument("--pi", required=True, help="bijection JSON")
    p.add_argument("--unchecked", action="store_true", help="skip the identity guard on M")
    p.add_argument("-o", "--output", help="write the dynmap JSON here instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run one exhaustive check on a dynmap")
    p.add_argument("--check", required=True, choices=VERIFY_CHECKS)
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extract", help="recover the ternary table of an invariant map")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("reconstruct", help="rebuild a generating structure from a class member")
    p.add_argument("--class", dest="cls", required=True, choices=[c.lower() for c in A_CLASSES])
    p.add_argument("--lambda", dest="basepoint", type=int, default=0,
                   help="basepoint element (default 0)")
    p.add_argument("--L", required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("search", help="enumerate structures of a given order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--target", required=True, choices=tuple(SEARCHES))
    every_mode = dict.fromkeys(chain.from_iterable(SEARCHES.values()))  # in declaration order
    own = ", ".join(f"{next(iter(modes))} for {target}" for target, modes in SEARCHES.items())
    p.add_argument("--mode", choices=tuple(every_mode), default=None, help=f"default: the target's own ({own})")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--deadline", type=float, default=None, help="soft time bound in seconds")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--emit", help="directory for per-representative JSON files")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("correspond", help="gauge-relate two triples over one ternary table")
    p.add_argument("--L1", required=True)
    p.add_argument("--L2", required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--pi1", required=True)
    p.add_argument("--pi2", required=True)
    p.set_defaults(func=_cmd_correspond)

    p = sub.add_parser("census", help="columnwise identity/equation/braid census")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--L", help="binary JSON (default: cyclic table)")
    p.add_argument("--pi", help="bijection JSON (default: identity)")
    p.add_argument("--sample", type=int, default=None, help="sampled census size for larger orders")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
