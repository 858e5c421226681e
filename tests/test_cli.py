import json
import re

import pytest
from conftest import TABLE1, s3, shift

from dybmaps import (
    Bijection,
    BinaryTable,
    DynamicalMap,
    TernaryTable,
    Triple,
    build_dyb,
    extract_mu_L,
    make_mu_g,
    search_structures,
)
from dybmaps import CheckResult, cli, search, serialize
from dybmaps.cli import VERIFY_CHECKS, build_parser, main
from dybmaps.kernel import Identity


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / f"{name}.json"
        serialize.dump(obj, p)
        paths[name] = str(p)
        return str(p)

    write("t1", TABLE1.base)
    write("shift3", shift(3).base)
    write("mu1", make_mu_g(TABLE1, 1))
    write("id3", Bijection.identity(3))
    write("s3", s3().base)
    write("mu1s3", make_mu_g(s3(), 1))
    write("id6", Bijection.identity(6))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "binary", "order": 2, "table": [[0, 0], [1, 0]]}))
    paths["bad"] = str(bad)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, files):
    code, out, _ = run(capsys, "validate", files["t1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["is_quasigroup"] and not doc["is_loop"]


def test_validate_repeated_entry_exits_2(capsys, files):
    code, _, err = run(capsys, "validate", files["bad"])
    assert code == 2
    assert "error" in err


def test_validate_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 2
    capsys.readouterr()


def test_classify_accepts_non_left_quasigroup(capsys, files):
    code, out, _ = run(capsys, "classify", files["bad"])
    assert code == 0
    assert not json.loads(out)["is_left_quasigroup"]


def test_build_verify_cycle(capsys, files, tmp_path):
    out_file = str(tmp_path / "R.json")
    code, _, _ = run(
        capsys, "build", "--L", files["t1"], "--M", files["mu1"],
        "--pi", files["id3"], "-o", out_file,
    )
    assert code == 0
    for check in ("qdybe", "braid", "invariance", "unitary", "d1"):
        code, out, _ = run(capsys, "verify", "--check", check, out_file)
        assert code == 0, check
        assert json.loads(out)["holds"]


def test_verify_empty_dynmap_exits_2(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(
        {"kind": "dynmap", "weight_order": 0, "set_order": 0, "phi": [], "r": []}))
    code, _, err = run(capsys, "verify", "--check", "qdybe", str(p))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("pair", [[0, 0, 5], [0], 0])
def test_verify_malformed_pair_is_named(capsys, tmp_path, pair):
    p = tmp_path / "bad-pair.json"
    p.write_text(json.dumps({"kind": "dynmap", "weight_order": 1, "set_order": 1,
                             "phi": [[0]], "r": [[[pair]]]}))
    code, _, err = run(capsys, "verify", "--check", "qdybe", str(p))
    assert code == 2
    assert err == f"error: r[0][0][0] must be a pair of integers, got {pair!r}\n"


@pytest.mark.parametrize("command, doc, message", [
    ("validate", {"kind": "binary", "order": 2, "table": [[0, 1], 0]},
     "table[1] must be a list of integers, got 0"),
    ("classify", {"kind": "ternary", "order": 1, "table": 0}, "table must be a list of integers, got 0"),
    ("verify", {"kind": "dynmap", "weight_order": 1, "set_order": 1, "phi": [0], "r": [[[[0, 0]]]]},
     "phi[0] must be a list of integers, got 0"),
    ("verify", {"kind": "dynmap", "weight_order": 1, "set_order": 1, "phi": [[0]], "r": [[0]]},
     "r[0][0] must be a list of pairs, got 0"),
])
def test_non_list_row_is_named(capsys, tmp_path, command, doc, message):
    p = tmp_path / "bad-row.json"
    p.write_text(json.dumps(doc))
    argv = [command, str(p)] if command != "verify" else [command, "--check", "qdybe", str(p)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_field_exits_2_naming_kind_and_field(capsys, tmp_path):
    p = tmp_path / "no-table.json"
    p.write_text(json.dumps({"kind": "ternary", "order": 2}))
    assert run(capsys, "classify", str(p)) == (2, "", "error: ternary document has no 'table' field\n")


def _order2_rows():
    """phi and r of a valid map of order 2, as nested lists."""
    R = build_dyb(Triple(shift(2), make_mu_g(shift(2), 3), Bijection.identity(2)))
    return [list(row) for row in R.phi], [[[list(pair) for pair in row] for row in rows] for rows in R.r]


def _set_entry(rows, path, value):
    for key in path[:-1]:
        rows = rows[key]
    rows[path[-1]] = value


#: Malformed maps of order 2, each one change away from a valid one, and the
#: message both the constructor and the JSON reader give.
MALFORMED_MAPS = {
    "ragged": ("r", (0, 1), [[0, 1]], "map table shape disagrees with declared orders"),
    "five": ("r", (1, 0, 1), [0, 5], "map output out of range"),
    "minus-one": ("r", (0, 0, 0), [-1, 0], "map output out of range"),
    "shift": ("phi", (1, 0), 2, "weight shift out of range"),
    "bool": ("r", (1, 1, 1), [True, 0], "expected integers, got the pair [True, 0]"),
    "triple": ("r", (0, 1, 0), [0, 1, 1], "r[0][1][0] must be a pair of integers, got [0, 1, 1]"),
}


@pytest.mark.parametrize("case", MALFORMED_MAPS)
def test_malformed_map_is_refused_by_the_constructor_and_verify(capsys, tmp_path, case):
    field, path, value, message = MALFORMED_MAPS[case]
    phi, r = _order2_rows()
    _set_entry(phi if field == "phi" else r, path, value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DynamicalMap(phi=phi, r=r)
    p = tmp_path / "bad-map.json"
    p.write_text(json.dumps({"kind": "dynmap", "weight_order": 2, "set_order": 2, "phi": phi, "r": r}))
    for check in VERIFY_CHECKS:
        assert run(capsys, "verify", "--check", check, str(p)) == (2, "", f"error: {message}\n")


#: The nested-tuple views of maps and tables, which no command should build.
TUPLE_VIEWS = ((DynamicalMap, "r"), (DynamicalMap, "phi"), (TernaryTable, "table"),
               (BinaryTable, "rows"))


def test_check_paths_build_no_tuple_view(capsys, files, tmp_path, monkeypatch):
    def no_view(self):
        raise AssertionError(f"a nested-tuple view of a {type(self).__name__} was built")

    def guard():
        for cls, name in TUPLE_VIEWS:
            monkeypatch.setattr(cls, name, property(no_view))

    guard()
    for L, M, pi in (("t1", "mu1", "id3"), ("s3", "mu1s3", "id6")):
        for command in ("validate", "classify"):
            assert run(capsys, command, files[L])[0] == 0
        out_file = tmp_path / f"R-{L}.json"
        triple = ("--L", files[L], "--M", files[M], "--pi", files[pi])
        for unchecked in ((), ("--unchecked",)):
            code, _, _ = run(capsys, "build", *triple, *unchecked, "-o", str(out_file))
            assert code == 0
        for check in VERIFY_CHECKS:
            assert run(capsys, "verify", "--check", check, str(out_file))[0] in (0, 1)
        assert run(capsys, "extract", str(out_file))[0] == 0
        assert run(capsys, "reconstruct", "--class", "a1", *triple)[0] == 0
        monkeypatch.undo()
        R = serialize.load(out_file)
        extract_mu_L(R)
        assert not {"r", "phi"} & set(vars(R))
        guard()


def test_verify_failure_reports_counterexample(capsys, files, tmp_path):
    out_file = str(tmp_path / "R6.json")
    run(capsys, "build", "--L", files["s3"], "--M", files["mu1s3"],
        "--pi", files["id6"], "-o", out_file)
    code, out, err = run(capsys, "verify", "--check", "unitary", out_file)
    assert code == 1
    assert out == '{"check":"unitary","holds":false,"counterexample":[0,1,2]}\n'
    assert "(1, 2, 3)" in err  # 1-based display


def test_one_parser_carries_no_arguments_from_call_to_call(capsys, files, tmp_path):
    # The parser is built once per process; each call still parses afresh.
    assert build_parser() is build_parser()
    M = str(tmp_path / "bad_mu.json")
    serialize.dump(TernaryTable.from_function(3, lambda a, b, c: (a + b + c) % 3), M)
    code, out, _ = run(capsys, "build", "--unchecked", "--L", files["t1"], "--M", M, "--pi", files["id3"])
    assert code == 0 and json.loads(out)["kind"] == "dynmap"
    code, out, err = run(capsys, "build", "--L", files["t1"], "--M", M, "--pi", files["id3"])
    assert (code, out) == (2, "")
    assert err == "error: condition M1 fails at (0, 0, 1, 0)\n"
    R6 = str(tmp_path / "R6.json")
    run(capsys, "build", "--L", files["s3"], "--M", files["mu1s3"], "--pi", files["id6"], "-o", R6)
    for check, code in (("unitary", 1), ("qdybe", 0), ("unitary", 1), ("qdybe", 0)):
        got, out, _ = run(capsys, "verify", "--check", check, R6)
        assert got == code and json.loads(out)["check"] == check


def test_build_order_mismatch_exits_2(capsys, files, tmp_path):
    p = str(tmp_path / "id2.json")
    serialize.dump(Bijection.identity(2), p)
    code, _, err = run(
        capsys, "build", "--L", files["t1"], "--M", files["mu1"], "--pi", p
    )
    assert code == 2 and "error" in err


def test_build_pi_entry_beyond_int32_exits_2(capsys, files, tmp_path):
    p = tmp_path / "pi.json"
    p.write_text('{"kind":"bijection","order":3,"map":[0,1099511627776,2]}\n')
    code, out, err = run(capsys, "build", "--L", files["t1"], "--M", files["mu1"], "--pi", str(p))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "1099511627776" in err and "Traceback" not in err


def test_extract_round_trip(capsys, files, tmp_path):
    out_file = str(tmp_path / "R.json")
    run(capsys, "build", "--L", files["t1"], "--M", files["mu1"],
        "--pi", files["id3"], "-o", out_file)
    code, out, _ = run(capsys, "extract", out_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ternary"
    assert doc["table"] == list(make_mu_g(TABLE1, 1).table)


def test_reconstruct(capsys, files):
    code, out, _ = run(
        capsys, "reconstruct", "--class", "a1", "--lambda", "1",
        "--L", files["t1"], "--M", files["mu1"], "--pi", files["id3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["G"]["kind"] == "binary"
    assert doc["pi_prime"]["kind"] == "bijection"
    assert doc["basepoint"] == 1


def test_search_summary_and_emit(capsys, files, tmp_path):
    emit = tmp_path / "out"
    code, out, _ = run(
        capsys, "search", "--order", "2", "--target", "ternary-m1m2",
        "--mode", "backtracking", "--up-to-iso", "--emit", str(emit),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 25 and doc["complete"]
    assert doc["nodes"] == 117
    assert doc["up_to_iso"] == 17
    assert doc["classify_s"] >= 0
    assert (emit / "summary.json").read_text(encoding="utf-8") == out
    assert doc["emitted"] == 17
    reps = search_structures("ternary-m1m2", 2, mode="backtracking", up_to_iso=True).representatives
    for i, rep in enumerate(reps):
        path = emit / f"rep-{i:05d}.json"
        assert path.read_text(encoding="utf-8") == serialize.dumps(rep)
        assert serialize.load(path) == rep


def test_search_left_quasigroups_up_to_iso_emits_the_classes(capsys, tmp_path):
    emit = tmp_path / "classes"
    code, out, _ = run(
        capsys, "search", "--target", "left-quasigroups", "--order", "3",
        "--up-to-iso", "--emit", str(emit),
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["total"], doc["up_to_iso"]) == (216, 44)
    paths = sorted(emit.glob("rep-*.json"))
    assert len(paths) == 44
    assert all(json.loads(p.read_text())["kind"] == "binary" for p in paths)
    rows = [serialize.load(p).rows for p in paths]
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_search_negative_limit_exits_2(capsys):
    code, out, err = run(
        capsys, "search", "--order", "2", "--target", "ternary-m1m2", "--limit", "-3"
    )
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("target, mode, n", [
    ("ternary-m1m2", "exhaustive", 2),
    ("ternary-m1m2", "backtracking", 3),
    ("left-quasigroups", "exhaustive", 4),
    ("quasigroups", "backtracking", 5),
])
@pytest.mark.parametrize("deadline", ["-1", "nan"])
def test_search_bad_deadline_exits_2(capsys, target, mode, n, deadline):
    code, out, err = run(capsys, "search", "--order", str(n), "--target", target,
                         "--mode", mode, "--deadline", deadline)
    assert (code, out) == (2, "")
    assert err == f"error: deadline must be >= 0 seconds, got {float(deadline)}\n"


def test_census_negative_sample_exits_2(capsys):
    code, out, err = run(capsys, "census", "--order", "3", "--sample", "-5")
    assert (code, out, err) == (2, "", "error: sample must be >= 0, got -5\n")
    code, out, _ = run(capsys, "census", "--order", "3", "--sample", "0")
    assert code == 0 and json.loads(out)["total"] == 0


def test_census_of_an_L_or_pi_of_another_order_exits_2(capsys, files, tmp_path):
    serialize.dump(shift(2).base, tmp_path / "shift2.json")
    for flag, path, message in [("--L", str(tmp_path / "shift2.json"), "L=2, M=3, pi=3"),
                                ("--pi", files["id6"], "L=3, M=3, pi=6")]:
        for sample in ("0", "3"):
            code, out, err = run(capsys, "census", "--order", "3", flag, path, "--sample", sample)
            assert (code, out, err) == (2, "", f"error: orders differ: {message}\n")


def test_search_left_quasigroups(capsys):
    code, out, _ = run(capsys, "search", "--order", "3", "--target", "left-quasigroups")
    assert code == 0
    assert json.loads(out)["total"] == 216


@pytest.mark.parametrize("target, own, other", [
    ("left-quasigroups", "exhaustive", "backtracking"),
    ("quasigroups", "backtracking", "exhaustive"),
])
def test_search_mode_the_target_lacks_exits_2(capsys, target, own, other):
    code, out, _ = run(capsys, "search", "--order", "2", "--target", target)
    assert code == 0 and json.loads(out)["mode"] == own
    code, out, err = run(capsys, "search", "--order", "2", "--target", target, "--mode", other)
    assert code == 2 and out == "" and err.startswith("error:")


def test_search_ternary_default_mode_is_exhaustive(capsys):
    code, out, _ = run(capsys, "search", "--order", "2", "--target", "ternary-m1m2")
    doc = json.loads(out)
    assert code == 0 and doc["mode"] == "exhaustive" and doc["nodes"] == doc["total"] == 25
    assert "classify_s" in doc and doc["classify_s"] is None


def test_correspond(capsys, files):
    code, out, _ = run(
        capsys, "correspond", "--L1", files["t1"], "--L2", files["shift3"],
        "--M", files["mu1"], "--pi1", files["id3"], "--pi2", files["id3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["irf_irf"] is True
    assert doc["vertex"] is False  # the projection-side family is weight-dependent
    assert doc["counterexample"] is None


def test_correspond_vertex_true_for_degenerate(capsys, files):
    code, out, _ = run(
        capsys, "correspond", "--L1", files["t1"], "--L2", files["t1"],
        "--M", files["mu1"], "--pi1", files["id3"], "--pi2", files["id3"],
    )
    assert code == 0
    assert json.loads(out)["vertex"] is True  # identity family is weight-free


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--order", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 256 and doc["agree"]


def test_census_sampled(capsys):
    code, out, _ = run(capsys, "census", "--order", "3", "--sample", "20", "--seed", "7")
    assert code == 0
    assert json.loads(out)["mode"] == "sample"


def test_reports_and_files_are_one_compact_line(capsys, files, tmp_path):
    R_file, E_file = tmp_path / "R.json", tmp_path / "E.json"
    code, out, _ = run(capsys, "build", "--L", files["t1"], "--M", files["mu1"],
                       "--pi", files["id3"], "-o", str(R_file))
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "verify", "--check", "qdybe", str(R_file))
    assert (code, out) == (0, '{"check":"qdybe","holds":true,"counterexample":null}\n')
    code, out, _ = run(capsys, "extract", str(R_file), "-o", str(E_file))
    assert (code, out) == (0, "")
    M = make_mu_g(TABLE1, 1)
    for path, obj in ((R_file, build_dyb(Triple(TABLE1, M, Bijection.identity(3)))), (E_file, M)):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(serialize.to_jsonable(obj), separators=(",", ":")) + "\n"
        assert serialize.load(path) == obj


def test_emitted_json_reparses(capsys, files, tmp_path):
    out_file = str(tmp_path / "R.json")
    run(capsys, "build", "--L", files["t1"], "--M", files["mu1"],
        "--pi", files["id3"], "-o", out_file)
    R = serialize.load(out_file)
    assert serialize.loads(serialize.dumps(R)) == R


@pytest.mark.parametrize("entry", [1.0, True, "1"])
def test_validate_non_integer_entry_exits_2(capsys, tmp_path, entry):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"kind": "binary", "order": 2, "table": [[0, 1], [entry, 0]]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("reader", ["validate", "verify", "build --L", "build --M", "build --pi"])
def test_deeply_nested_document_exits_2(capsys, files, tmp_path, reader):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000)
    if reader == "validate":
        argv = ["validate", str(bad)]
    elif reader == "verify":
        argv = ["verify", "--check", "qdybe", str(bad)]
    else:
        triple = {"--L": files["t1"], "--M": files["mu1"], "--pi": files["id3"]}
        triple[reader.split()[1]] = str(bad)
        argv = ["build", *(x for item in triple.items() for x in item)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: document nested too deeply") and err.count("\n") == 1


def _respaced_copies(path, tmp_path):
    """The document at `path` indented, and with its keys in reverse order."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    indented, reordered = tmp_path / "indented.json", tmp_path / "reordered.json"
    indented.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    reordered.write_text(json.dumps(dict(reversed(doc.items()))), encoding="utf-8")
    return indented, reordered


@pytest.mark.parametrize("L, M, pi", [("t1", "mu1", "id3"), ("s3", "mu1s3", "id6")])
def test_verify_and_extract_read_other_spellings_of_a_map_alike(capsys, files, tmp_path, L, M, pi):
    line = tmp_path / "R.json"
    assert run(capsys, "build", "--L", files[L], "--M", files[M], "--pi", files[pi],
               "-o", str(line))[0] == 0
    copies = _respaced_copies(line, tmp_path)
    for path in copies:
        assert path.read_bytes() != line.read_bytes()
    for check in VERIFY_CHECKS:
        expected = run(capsys, "verify", "--check", check, str(line))
        for path in copies:
            assert run(capsys, "verify", "--check", check, str(path)) == expected, (check, path)
    expected = run(capsys, "extract", str(line), "-o", str(tmp_path / "E.json"))
    for path in copies:
        out = tmp_path / f"E-{path.stem}.json"
        assert run(capsys, "extract", str(path), "-o", str(out)) == expected
        assert out.read_bytes() == (tmp_path / "E.json").read_bytes()


def test_correspond_failing_gauge_identity_exits_1(capsys, files, monkeypatch):
    monkeypatch.setattr(cli, "verify_irf_irf", lambda inst: CheckResult(False, (0, 2, 1)))
    code, out, err = run(
        capsys, "correspond", "--L1", files["t1"], "--L2", files["shift3"],
        "--M", files["mu1"], "--pi1", files["id3"], "--pi2", files["id3"],
    )
    assert code == 1
    assert out == '{"irf_irf":false,"vertex":false,"counterexample":[0,2,1]}\n'
    assert err == "gauge identity fails at (1, 3, 2) (1-based)\n"


def test_census_disagreement_is_reported_and_exits_1(capsys, monkeypatch):
    # a braid declaration that fails on every table: mu(a, x, y) is never n
    monkeypatch.setattr(search, "_BRAID", Identity("a x y z", "mu(a, x, y) == n"))
    code, out, err = run(capsys, "census", "--order", "2")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["agree"] is False and doc["total"] == 256
    # every table that satisfies M1 and M2 now disagrees with its braid column
    assert len(doc["disagreements"]) == doc["num_m1m2"] > 0
    for row in doc["disagreements"]:
        assert (row["m1m2"], row["qdybe"], row["braid"]) == (True, True, False) and len(row["table"]) == 8


def test_verify_of_a_ternary_document_exits_2(capsys, files):
    assert run(capsys, "verify", "--check", "qdybe", files["mu1"]) == (
        2, "", f"error: {files['mu1']}: expected a dynmap document\n")


@pytest.mark.parametrize("check", ["invariance", "d1", "d2", "d3"])
def test_verify_of_a_map_with_more_weights_than_elements_exits_2(capsys, tmp_path, check):
    p = tmp_path / "h2n1.json"
    serialize.dump(DynamicalMap(phi=[[0], [1]], r=[[[(0, 0)]], [[(0, 0)]]]), p)
    assert run(capsys, "verify", "--check", check, str(p)) == (2, "", "error: weight order 2 != set order 1\n")
