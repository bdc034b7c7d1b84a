"""End-to-end CLI behaviour: output formats, exit codes, cache handling."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import asmref
import asmref.claims as claims
import asmref.cli as cli
import asmref.extension as extension
from asmref.combinat import total_asm_count
from asmref.config import Budget
from asmref import documents, triangles
from asmref.documents import TableCache, TableDocument, document_from_entries, table_document
from asmref.reports import VerificationReport, Witness
from asmref.triangles import RefinedTable, build_table

from reference_tables import EXTENDED_MATRICES, REFINED_TRIANGLE


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_pretty_row(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--d", "1")
    assert code == 0
    assert out == "42 105 135 105 42\n"


def test_count_single_indices(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--indices", "2,3")
    assert code == 0
    assert out.strip() == "23"


def test_count_indices_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--indices", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "14"
    assert data["meta"]["tool"] == "asmref"


def test_count_d_and_indices_conflict(capsys):
    code, out, err = run(capsys, "count", "--n", "4", "--d", "1", "--indices", "2")
    assert code == 2
    assert out == ""
    assert err == "error: --d and --indices are mutually exclusive\n"


def test_count_json_and_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--d", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "refined"
    assert "generated" not in data["meta"]
    code, out, _ = run(capsys, "count", "--n", "3", "--d", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "indices,value"


def test_count_budget_exceeded_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--n", "17", "--d", "1")
    assert code == 2
    assert "budget" in err.lower() or "exceeds" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "22", "--indices", "1"),
        ("count", "--n", "17", "--d", "3"),
        ("verify", "conj4", "--n", "20"),
        ("verify", "conj4", "--n", "17"),
        ("verify", "conj3", "--n", "20"),
        ("verify", "conj3", "--n", "7", "--d", "7"),
        ("verify", "alpha-identities", "--n", "7"),
        ("verify", "theorem4", "--n", "19..20"),
        ("verify", "theorem4", "--n", "17"),
        ("verify", "gn-reflection", "--n", "20"),
    ],
    ids=[
        "count-indices", "count-depth-3", "verify-conj4", "verify-conj4-past-the-tables",
        "verify-conj3",
        "verify-conj3-depth-7", "verify-alpha-identities", "verify-theorem4-range",
        "verify-theorem4-past-the-tables", "verify-gn-reflection",
    ],
)
def test_budget_exceeded_before_counting(capsys, fail_if_counting, argv):
    asmref.clear_caches()
    fail_if_counting()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget" in err
    if argv[0] == "verify":
        # the claim, the order that was rejected (the top of the range) and,
        # for a claim that takes a depth, the depth given or its default
        claim, order = argv[1], argv[3].split("..")[-1]
        default_depth = {"conj3": 3, "conj4": 3, "gn-reflection": 2}
        depth = argv[5] if "--d" in argv else default_depth.get(claim)
        at = f"n={order}" if depth is None else f"n={order} d={depth}"
        # theorem4 and conj4 read the table of the order before they walk
        cap = "refined counts" if claim in ("theorem4", "conj4") else "row transfer over "
        assert err.startswith(f"error: {claim} {at}: {cap}")


@pytest.mark.parametrize(
    "claim, orders, summary",
    [
        ("theorem4", "15..16", "theorem4: PASS (15..16)"),
        ("conj4", "15..16", "conj4: PASS (15..16)"),
        ("conj3", "17", "conj3: PASS (17..17)"),
    ],
    ids=["theorem4", "conj4", "conj3"],
)
def test_verify_at_the_edge_of_the_walk_bound(capsys, claim, orders, summary):
    # theorem4 walks at depth 2, and the conjectures at their default depth 3
    code, out, err = run(capsys, "verify", claim, "--n", orders)
    assert (code, err) == (0, "")
    assert out.strip().endswith(summary)


def test_verify_conj3_at_depth_2_past_the_tables(capsys):
    # conj3 reads the expansion at every depth, so only the walk bound holds it
    code, out, err = run(capsys, "verify", "conj3", "--n", "17", "--d", "2")
    assert (code, err) == (0, "")
    assert out.strip().endswith("conj3: PASS (17..17)")


def test_verify_conj1_beyond_its_default_range(capsys):
    code, out, err = run(capsys, "verify", "conj1", "--n", "11..14")
    assert code == 0
    assert out.strip().endswith("conj1: PASS (11..14)")
    assert err == ""


@pytest.mark.parametrize(
    "claim, orders, depth, summary",
    [("conj3", "5..6", "4", "conj3: PASS (5..6)"), ("conj4", "6", "5", "conj4: PASS (6..6)")],
)
def test_verify_conjectures_beyond_depth_3(capsys, claim, orders, depth, summary):
    code, out, err = run(capsys, "verify", claim, "--n", orders, "--d", depth)
    assert code == 0
    assert out.strip().endswith(summary)
    assert err == ""


def test_conj1_budget_exceeded_before_solving(capsys, monkeypatch):
    def solve(*args):
        raise AssertionError("solving started")

    for name in ("_full_rank", "refined_table", "solve_integer_system"):
        monkeypatch.setattr(extension, name, solve)
    code, out, err = run(capsys, "verify", "conj1", "--n", "17")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_count_tables_of_every_depth_share_one_budget(capsys):
    # every depth of an order is read from the same sweep, so one cap holds
    code, out, _ = run(capsys, "count", "--n", "10", "--d", "3", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 120
    for row in rows:
        indices, value = row.split(",")
        indices = indices.replace(" ", ",")
        code, single, _ = run(capsys, "count", "--n", "10", "--indices", indices)
        assert code == 0
        assert single == f"{value}\n"
    code, out, _ = run(capsys, "count", "--n", "6", "--d", "4")
    assert code == 0
    assert len(out.splitlines()) == 15


def test_extend_pretty_grid(capsys):
    code, out, _ = run(capsys, "extend", "--n", "4")
    assert code == 0
    rows = [tuple(int(v) for v in line.split()) for line in out.strip().splitlines()]
    assert tuple(rows) == EXTENDED_MATRICES[4]


def test_extend_csv(capsys):
    code, out, _ = run(capsys, "extend", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "indices,value"
    assert f"3 1,{EXTENDED_MATRICES[3][2][0]}" in lines


def test_verify_single_order(capsys):
    code, out, _ = run(capsys, "verify", "theorem2", "--n", "4")
    assert code == 0
    assert "theorem2 n=4: PASS" in out
    assert out.strip().endswith("PASS (4..4)")


def test_verify_range_json(capsys):
    code, out, _ = run(capsys, "verify", "special-values", "--n", "3..5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["range"] == [3, 5]
    assert len(data["reports"]) == 3


def test_verify_unknown_claim_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-claim"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_empty_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem1", "--n", "5..3"])
    assert exc.value.code == 2
    capsys.readouterr()
    # an order that is not an integer is named in the option's own terms
    for text in ("x", "3..x", "..3"):
        code, out, err = outcome(capsys, ("verify", "theorem1", "--n", text))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"asmref verify: error: argument --n: order range must be N or LO..HI, got {text!r}"
        )


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationReport(
        "theorem1", "n=4", False, (Witness((1, 1), 0, 1),)
    )
    monkeypatch.setattr(claims, "verify_theorem1", lambda matrix: failing)
    code, out, _ = run(capsys, "verify", "theorem1", "--n", "4")
    assert code == 1
    assert "FAIL" in out
    assert "(1, 1)" in out


def test_verify_product_formulas_order_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "product-formulas", "--n", "0")
    assert code == 2
    assert "FAIL" not in out
    assert err.startswith("error: ")


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "zw-chain", "--n", "3..4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "claim,checked,passed"
    assert all(line.endswith("true") for line in lines[1:])


def test_appendix_a_pretty(capsys):
    code, out, _ = run(capsys, "appendix-a")
    assert code == 0
    assert "42 105 135 105 42".replace(" ", "") in out.replace(" ", "")
    assert "extended array, order 7:" in out


def test_appendix_a_json(capsys):
    code, out, _ = run(capsys, "appendix-a", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "appendix-a"
    for n, row in REFINED_TRIANGLE.items():
        assert [int(v) for v in data["triangle"][str(n)]] == list(row)
    for n, rows in EXTENDED_MATRICES.items():
        got = [[int(v) for v in r] for r in data["matrices"][str(n)]]
        assert got == [list(r) for r in rows]


def test_appendix_a_csv(capsys):
    code, out, _ = run(capsys, "appendix-a", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert "triangle 5 3,135" in lines
    assert "matrix 4 4 1,-7" in lines


@pytest.mark.parametrize("cached", [False, True])
def test_a_cold_appendix_a_runs_one_sweep(monkeypatch, capsys, tmp_path, cached):
    real = triangles._column_sweep
    orders = []

    def sweep(n):
        orders.append(n)
        return real(n)

    monkeypatch.delenv("ASMREF_CACHE", raising=False)
    asmref.clear_caches()
    monkeypatch.setattr(triangles, "_column_sweep", sweep)
    argv = ["appendix-a"] + (["--cache-dir", str(tmp_path)] if cached else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert orders == [7]
    assert out.startswith("singly refined counts, orders 1..7:\n")


def test_cache_transparency(tmp_path, capsys):
    args = ("count", "--n", "5", "--d", "2", "--format", "json",
            "--cache-dir", str(tmp_path))
    code1, cold, _ = run(capsys, *args)
    assert code1 == 0
    assert (tmp_path / "refined-n5-d2.json").exists()
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0
    assert cold == warm


def edit_cached_entry(path, indices, value, sign=False):
    """Set one entry of a cached table file; sign stores the digest of the edit."""
    data = json.loads(path.read_text())
    for entry in data["entries"]:
        if entry[0] == list(indices):
            entry[1] = str(value)
    if sign:
        data["meta"]["sha256"] = TableDocument.from_json_dict(data).digest()
    path.write_text(json.dumps(data))


def test_cache_is_actually_read(tmp_path, capsys):
    args = ("count", "--n", "4", "--d", "2", "--cache-dir", str(tmp_path),
            "--format", "csv")
    run(capsys, *args)
    # an entry without a product formula, signed with its digest, is trusted
    edit_cached_entry(tmp_path / "refined-n4-d2.json", (1, 2), 999, sign=True)
    _, out, _ = run(capsys, *args)
    assert "1 2,999" in out.splitlines()


@pytest.mark.parametrize("sign", [False, True], ids=["digest", "product-formula"])
def test_corrupt_cached_row_is_recomputed(tmp_path, capsys, sign):
    args = ("count", "--n", "5", "--d", "1", "--cache-dir", str(tmp_path))
    path = tmp_path / "refined-n5-d1.json"
    run(capsys, *args)
    edit_cached_entry(path, (2,), 106, sign)
    code, out, _ = run(capsys, *args)
    assert (code, out) == (0, "42 105 135 105 42\n")
    # the rejected file is overwritten with the recomputed table
    assert TableCache(tmp_path).load("refined", 5, 1).int_entries()[(2,)] == 105


@pytest.mark.parametrize(
    "indices, sign", [((1, 2), False), ((4, 5), True)], ids=["digest", "product-formula"]
)
def test_corrupt_cached_depth_2_table_keeps_theorem2_passing(tmp_path, capsys, indices, sign):
    args = ("verify", "theorem2", "--n", "5", "--cache-dir", str(tmp_path))
    path = tmp_path / "refined-n5-d2.json"
    run(capsys, *args)
    edit_cached_entry(path, indices, 1, sign)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == "theorem2 n=5: PASS\ntheorem2: PASS (5..5)\n"
    assert TableCache(tmp_path).load("refined", 5, 2).int_entries()[indices] != 1


def make_malformed(path, kind):
    """Spoil a cached table file so that it no longer parses as a document."""
    if kind == "not-utf-8":
        path.write_bytes(b"\xff" + path.read_bytes())
        return
    if kind == "nested-too-deep":
        path.write_text("[" * 100_000)
        return
    data = json.loads(path.read_text())
    if kind == "index-not-int":
        data["entries"][0][0] = ["x"]
    else:  # an entry of three elements
        data["entries"][0].append("1")
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "kind", ["not-utf-8", "index-not-int", "three-element-entry", "nested-too-deep"]
)
@pytest.mark.parametrize(
    "argv, d",
    [
        (("count", "--n", "5", "--d", "1"), 1),
        (("extend", "--n", "5"), 2),
        (("verify", "theorem2", "--n", "5"), 2),
    ],
    ids=["count", "extend", "verify"],
)
def test_malformed_cache_file_is_recomputed(tmp_path, capsys, argv, d, kind):
    _, cold, _ = run(capsys, *argv)
    args = argv + ("--cache-dir", str(tmp_path))
    run(capsys, *args)
    make_malformed(tmp_path / f"refined-n5-d{d}.json", kind)
    assert TableCache(tmp_path).load("refined", 5, d) is None
    assert run(capsys, *args) == (0, cold, "")
    # the unreadable file is overwritten with the recomputed, signed table
    assert TableCache(tmp_path).load("refined", 5, d) is not None


def store_invalid_table(cache, edit):
    """Sign an order-5 depth-2 table whose keys or counts make it no table."""
    entries = dict(build_table(5, 2).entries)
    if edit == "negative-count":
        entries[(1, 2)] = -7
    else:
        bad = (2, 1) if edit == "swapped-index" else (1, 6)
        entries = {bad if key == (1, 2) else key: value for key, value in entries.items()}
    cache.store(document_from_entries(5, 2, "refined", entries))


@pytest.mark.parametrize("edit", ["swapped-index", "index-out-of-range", "negative-count"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "5", "--d", "2", "--format", "csv"),
        ("extend", "--n", "5"),
        ("verify", "theorem2", "--n", "5"),
    ],
    ids=["count", "extend", "verify"],
)
def test_signed_cached_table_that_is_no_table_is_recomputed(tmp_path, capsys, argv, edit):
    _, cold, _ = run(capsys, *argv)
    cache = TableCache(tmp_path)
    store_invalid_table(cache, edit)
    assert cache.load("refined", 5, 2) is not None  # its digest matches
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, cold, "")
    # the file is overwritten with the recomputed table
    doc = cache.load("refined", 5, 2)
    assert RefinedTable(5, 2, doc.int_entries()) == build_table(5, 2)


def test_a_cached_table_past_the_cap_is_refused(tmp_path, capsys, fail_if_counting):
    # a valid order-17 table, stored under a raised cap, is refused at the
    # default cap exactly as an uncached one is: the cap is checked first
    extension.refined_table(17, 2, TableCache(tmp_path), Budget(table_max_n=17))
    assert TableCache(tmp_path).load("refined", 17, 2) is not None
    fail_if_counting()
    for argv in (("count", "--n", "17", "--d", "2"), ("verify", "theorem1", "--n", "17")):
        cached = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert cached == run(capsys, *argv)
        code, out, err = cached
        assert (code, out) == (2, "")
        assert "refined counts at n=17 exceed the budget cap 16" in err


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ASMREF_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "count", "--n", "4", "--d", "1")
    assert code == 0
    assert (tmp_path / "refined-n4-d1.json").exists()


def test_an_empty_cache_dir_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an empty --cache-dir would be Path("."), the working directory; an empty
    # $ASMREF_CACHE keeps meaning no cache
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ASMREF_CACHE", raising=False)
    code, out, err = outcome(capsys, ("count", "--n", "3", "--cache-dir", ""))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "asmref count: error: argument --cache-dir: the cache directory must not be empty"
    )
    monkeypatch.setenv("ASMREF_CACHE", "")
    assert run(capsys, "count", "--n", "3") == (0, "2 3 2\n", "")
    assert list(tmp_path.iterdir()) == []


def test_concurrent_writers_never_change_an_answer(tmp_path, capsys):
    # four threads store and load one document in one directory: a load sees
    # a whole stored document or none, and no temporary file is left behind
    doc = table_document(build_table(9, 2))
    cache = TableCache(tmp_path)
    loads = []

    def store_and_load():
        for _ in range(50):
            cache.store(doc)
            loads.append(cache.load("refined", 9, 2))

    threads = [threading.Thread(target=store_and_load) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside a store or a load
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 200  # no thread raised
    unstamped = [None if d is None else replace(d, generated=None, sha256=None) for d in loads]
    assert all(d is None or d == doc for d in unstamped)
    assert [p.name for p in tmp_path.iterdir()] == ["refined-n9-d2.json"]
    cold = run(capsys, "count", "--n", "9", "--d", "2")
    assert cold[0] == 0
    assert run(capsys, "count", "--n", "9", "--d", "2", "--cache-dir", str(tmp_path)) == cold


def write_totals_b_file(path, lo: int, hi: int, corrupt: int | None = None):
    lines = []
    for i in range(lo, hi + 1):
        value = total_asm_count(i)
        if corrupt == i:
            value += 1
        lines.append(f"{i} {value}")
    path.write_text("\n".join(lines) + "\n")


def test_oeis_check_pass(tmp_path, capsys):
    path = tmp_path / "b005130.txt"
    write_totals_b_file(path, 0, 9)
    code, out, _ = run(capsys, "oeis-check", "--which", "totals", "--b-file", str(path))
    assert code == 0
    assert "A005130 totals: PASS (10 terms)" in out


def test_oeis_check_mismatch(tmp_path, capsys):
    path = tmp_path / "b005130.txt"
    write_totals_b_file(path, 0, 9, corrupt=5)
    code, out, _ = run(capsys, "oeis-check", "--which", "totals", "--b-file", str(path))
    assert code == 1
    assert "mismatch at index 5" in out


def test_oeis_check_refined_row(tmp_path, capsys):
    path = tmp_path / "b048601.txt"
    # the first-column refined counts shift the totals down by one
    lines = [f"{n} {total_asm_count(n - 1)}" for n in range(1, 10)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "oeis-check", "--which", "refined-row-1", "--b-file", str(path)
    )
    assert code == 0
    assert "PASS" in out


def test_oeis_check_empty_overlap_warns(tmp_path, capsys):
    path = tmp_path / "bseq.txt"
    path.write_text("-3 1\n-2 1\n")
    code, out, _ = run(capsys, "oeis-check", "--which", "totals", "--b-file", str(path))
    assert code == 0
    assert "WARNING" in out


def test_oeis_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bseq.txt"
    path.write_text("1 2 3\n")
    code, _, err = run(capsys, "oeis-check", "--b-file", str(path))
    assert code == 2
    assert "index value" in err


def test_oeis_check_file_that_is_not_utf_8(tmp_path, capsys):
    path = tmp_path / "b005130.txt"
    path.write_bytes(b"0 1\n1 \xff\n")
    code, out, err = run(capsys, "oeis-check", "--b-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err


def test_oeis_check_negative_limit_is_usage_error(tmp_path, capsys):
    path = tmp_path / "b005130.txt"
    write_totals_b_file(path, 0, 9)
    code, out, err = run(capsys, "oeis-check", "--b-file", str(path), "--limit", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--limit" in err


@pytest.mark.parametrize("which", ["totals", "refined-row-1"])
def test_oeis_check_refuses_an_index_past_its_bound_before_computing(
    tmp_path, capsys, monkeypatch, which
):
    def computed(*args):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(cli, "total_asm_count", computed)
    monkeypatch.setattr(cli, "refined_asm_count", computed)
    path = tmp_path / "b005130.txt"
    path.write_text("2000 1\n")
    code, out, err = run(capsys, "oeis-check", "--which", which, "--b-file", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: oeis-check computes indices up to {cli.OEIS_MAX_INDEX}, got 2000; "
        "--limit checks a prefix\n"
    )


def test_oeis_check_prints_a_mismatch_at_its_bound(tmp_path, capsys):
    # the total at the bound has 4276 digits, within Python's default str conversion cap
    path = tmp_path / "b005130.txt"
    path.write_text(f"{cli.OEIS_MAX_INDEX} 1\n")
    code, out, _ = run(capsys, "oeis-check", "--b-file", str(path))
    assert code == 1
    assert out.startswith(f"mismatch at index {cli.OEIS_MAX_INDEX}: file has 1, computed 699")


def write_terms(path, which: str, lo: int, hi: int, checked: int | None = None):
    """A b-file of the sequence which over lo..hi; each term below it or past checked is 1."""
    shift = 0 if which == "totals" else 1
    last = hi if checked is None else checked
    path.write_text("".join(
        f"{i} {total_asm_count(i - shift) if shift <= i <= last else 1}\n"
        for i in range(lo, hi + 1)
    ))


@pytest.mark.parametrize("which, lo", [("totals", 0), ("refined-row-1", 1)])
def test_oeis_check_admits_the_index_at_its_bound(tmp_path, capsys, monkeypatch, which, lo):
    monkeypatch.setattr(cli, "OEIS_MAX_INDEX", 5)
    path = tmp_path / "b005130.txt"
    write_terms(path, which, lo, 5)
    code, out, _ = run(capsys, "oeis-check", "--which", which, "--b-file", str(path))
    assert (code, out) == (0, f"A005130 {which}: PASS ({6 - lo} terms)\n")
    write_terms(path, which, lo, 6)
    code, out, err = run(capsys, "oeis-check", "--which", which, "--b-file", str(path))
    assert (code, out) == (2, "")
    assert "up to 5, got 6" in err


@pytest.mark.parametrize(
    "which, limit, code", [("totals", 6, 0), ("refined-row-1", 5, 0), ("refined-row-1", 6, 2)]
)
def test_oeis_check_bounds_the_prefix_that_limit_checks(
    tmp_path, capsys, monkeypatch, which, limit, code
):
    # the refined row starts at index 1, so its sixth term is index 6
    monkeypatch.setattr(cli, "OEIS_MAX_INDEX", 5)
    path = tmp_path / "b005130.txt"
    write_terms(path, which, 0, 2000, checked=6)
    argv = ("oeis-check", "--which", which, "--b-file", str(path), "--limit", str(limit))
    assert run(capsys, *argv)[0] == code


def test_oeis_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "oeis-check", "--b-file", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err


def test_oeis_check_requires_exactly_one_source(tmp_path, capsys):
    code, out, err = run(capsys, "oeis-check")
    assert code == 2
    assert out == ""
    assert err == "error: exactly one of --b-file or --fetch is required\n"
    path = tmp_path / "b.txt"
    path.write_text("0 1\n")
    code, out, err = run(
        capsys, "oeis-check", "--b-file", str(path), "--fetch", "A005130"
    )
    assert code == 2
    assert out == ""
    assert err == "error: exactly one of --b-file or --fetch is required\n"


def test_oeis_check_fetch_file_url(tmp_path, capsys):
    source = tmp_path / "b005130.txt"
    write_totals_b_file(source, 0, 7)
    cache_dir = tmp_path / "cache"
    code, out, _ = run(
        capsys,
        "oeis-check",
        "--which", "totals",
        "--fetch", source.as_uri(),
        "--cache-dir", str(cache_dir),
    )
    assert code == 0
    assert "PASS" in out
    assert (cache_dir / url_entry(source)).exists()


def test_oeis_check_fetch_stores_only_a_file_that_parses(tmp_path, capsys, monkeypatch):
    source = tmp_path / "source" / "b005130.txt"
    source.parent.mkdir()
    cache_dir = tmp_path / "cache"
    argv = ("oeis-check", "--fetch", source.as_uri(), "--cache-dir", str(cache_dir))

    def cached_files():
        return sorted(p.name for p in cache_dir.iterdir()) if cache_dir.exists() else []

    source.write_text("<html>busy</html>\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert cached_files() == []
    # an interrupted store leaves no file either
    write_totals_b_file(source, 0, 7)

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(documents.os, "replace", interrupted)
    assert run(capsys, *argv)[0] == 2
    monkeypatch.undo()
    assert cached_files() == []
    # once the source is fixed, the next run fetches it again and keeps it
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "A005130 totals: PASS (8 terms)\n")
    assert cached_files() == [url_entry(source)]
    assert (cache_dir / url_entry(source)).read_text() == source.read_text()


def url_entry(source) -> str:
    """The cache entry of a fetched URL: the file's stem and a digest of the whole URL."""
    digest = hashlib.sha256(source.as_uri().encode()).hexdigest()[:16]
    return f"{source.stem}-{digest}.txt"


def test_oeis_check_fetch_keys_a_url_by_the_whole_url(tmp_path, capsys):
    # two sources with one file name: the second, whose term 3 is one too
    # large, is read and fails instead of answering from the first one's entry
    cache_dir = tmp_path / "cache"
    sources = [tmp_path / part / "b005130.txt" for part in ("a", "b")]
    for source, corrupt in zip(sources, (None, 3)):
        source.parent.mkdir()
        write_totals_b_file(source, 0, 7, corrupt)
    argv = ("oeis-check", "--which", "totals", "--cache-dir", str(cache_dir), "--fetch")
    code, out, _ = run(capsys, *argv, sources[0].as_uri())
    assert (code, out) == (0, "A005130 totals: PASS (8 terms)\n")
    code, out, _ = run(capsys, *argv, sources[1].as_uri())
    assert code == 1
    assert "FAIL" in out
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(map(url_entry, sources))


def test_oeis_check_fetch_replaces_a_stored_file_that_does_not_parse(tmp_path, capsys):
    source = tmp_path / "b005130.txt"
    write_totals_b_file(source, 0, 7)
    cache_dir = tmp_path / "cache"
    argv = ("oeis-check", "--which", "totals", "--fetch", source.as_uri(), "--cache-dir", str(cache_dir))
    assert run(capsys, *argv)[:2] == (0, "A005130 totals: PASS (8 terms)\n")
    entry = cache_dir / url_entry(source)
    entry.write_text("<html>busy</html>\n")
    assert run(capsys, *argv)[:2] == (0, "A005130 totals: PASS (8 terms)\n")
    assert entry.read_text() == source.read_text()


def test_oeis_check_fetch_replaces_a_stored_file_that_is_not_utf_8(tmp_path, capsys):
    source = tmp_path / "b005130.txt"
    write_totals_b_file(source, 0, 6)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    entry = cache_dir / url_entry(source)
    entry.write_bytes(b"\xff0 1\n")
    argv = ("oeis-check", "--which", "totals", "--fetch", source.as_uri(), "--cache-dir", str(cache_dir))
    assert run(capsys, *argv) == (0, "A005130 totals: PASS (7 terms)\n", "")
    assert entry.read_bytes() == source.read_bytes()


def test_oeis_check_fetch_keeps_utf_8_under_a_non_utf_8_locale(tmp_path):
    # without PYTHONUTF8=0 the C locale turns on Python's UTF-8 mode
    source = tmp_path / "b005130.txt"
    terms = "".join(f"{i} {total_asm_count(i)}\n" for i in range(7))
    source.write_bytes(f"# A005130 — alternating sign matrices\n{terms}".encode())
    cache_dir = tmp_path / "cache"
    env = dict(
        with_src_path(os.environ), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
    )
    argv = ("oeis-check", "--fetch", source.as_uri(), "--cache-dir", str(cache_dir))
    for _ in range(2):  # the first run downloads and keeps the file, the second reads it
        result = subprocess.run(
            [sys.executable, "-m", "asmref", *argv], env=env, capture_output=True
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            0, b"A005130 totals: PASS (7 terms)\n", b""
        )
    assert (cache_dir / url_entry(source)).read_bytes() == source.read_bytes()


def test_oeis_check_fetch_reads_an_a_number_from_its_b_file_entry(tmp_path, capsys, monkeypatch):
    import urllib.request

    def offline(url):
        raise AssertionError(f"fetched {url}")

    monkeypatch.setattr(urllib.request, "urlopen", offline)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    write_totals_b_file(cache_dir / "b005130.txt", 0, 6)
    code, out, _ = run(
        capsys, "oeis-check", "--which", "totals", "--fetch", "A005130", "--cache-dir", str(cache_dir)
    )
    assert (code, out) == (0, "A005130 totals: PASS (7 terms)\n")


def test_oeis_check_fetch_gives_up_on_a_server_that_never_answers(tmp_path, capsys, monkeypatch):
    # the listener's backlog takes the connection, and nothing ever answers it
    monkeypatch.setattr(cli, "FETCH_TIMEOUT_S", 0.5)
    monkeypatch.setenv("no_proxy", "*")  # the request goes to the listener under any proxy setting
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    with socket.create_server(("127.0.0.1", 0)) as server:
        url = f"http://127.0.0.1:{server.getsockname()[1]}/b005130.txt"
        start = time.perf_counter()
        code, out, err = run(capsys, "oeis-check", "--fetch", url, "--cache-dir", str(cache_dir))
        elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "timed out" in err
    assert elapsed < 5
    assert list(cache_dir.iterdir()) == []


@pytest.mark.parametrize("target", ["foo", "A", "A12x", "B005130", "A-5"])
def test_oeis_check_fetch_rejects_text_that_is_neither_an_a_number_nor_a_url(
    tmp_path, capsys, target
):
    # a stored entry under the name the text would map to is never read
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    write_totals_b_file(cache_dir / f"b{target.upper()[1:]}.txt", 0, 2)
    code, out, err = run(capsys, "oeis-check", "--fetch", target, "--cache-dir", str(cache_dir))
    assert (code, out) == (2, "")
    assert err == f"error: --fetch takes an A-number or a URL, got {target!r}\n"


def test_importing_the_cli_loads_no_url_library():
    # urllib.request pulls in http, email and ssl; only --fetch needs it
    env = with_src_path(os.environ)
    script = (
        "import sys; before = 'urllib.request' in sys.modules; import asmref.cli; "
        "print(before, 'urllib.request' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    before, after = result.stdout.split()
    assert after == before


def with_src_path(environ) -> dict:
    """environ with the package's source directory first on PYTHONPATH."""
    src = str(Path(asmref.__file__).resolve().parents[1])
    return dict(environ, PYTHONPATH=os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")])))


def test_oeis_check_fetch_requires_cache(tmp_path, capsys):
    source = tmp_path / "b005130.txt"
    write_totals_b_file(source, 0, 5)
    code, _, err = run(capsys, "oeis-check", "--fetch", source.as_uri())
    assert code == 2
    assert "cache" in err


def test_oeis_check_json_and_limit(tmp_path, capsys):
    path = tmp_path / "b005130.txt"
    write_totals_b_file(path, 0, 9)
    code, out, _ = run(
        capsys,
        "oeis-check", "--which", "totals", "--b-file", str(path),
        "--limit", "4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["checked"] == 4
    assert data["passed"] is True
    assert data["mismatches"] == []


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "count", "--n", "4")[0] == 0
    after_first = len(built)
    assert run(capsys, "verify", "theorem2", "--n", "4")[0] == 0
    assert len(built) == after_first


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error's SystemExit included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_outcome(capsys, argv):
    """What argv gives on a parser that no earlier call has used."""
    cli.build_parser.cache_clear()
    return outcome(capsys, argv)


@pytest.mark.parametrize(
    "before, after",
    [
        (("count", "--n", "5", "--d", "2", "--format", "json"), ("count", "--n", "5")),
        # json, as the pretty report of conj3 does not show the depth
        (
            ("verify", "conj3", "--n", "5", "--d", "4", "--format", "json"),
            ("verify", "conj3", "--n", "5", "--format", "json"),
        ),
        (("verify", "nosuch"), ("count", "--n", "5", "--indices", "2,3")),
    ],
    ids=["format-and-depth", "claim-depth", "after-usage-error"],
)
def test_no_option_carries_over_to_the_next_call(capsys, before, after):
    expected = {argv: first_outcome(capsys, argv) for argv in (before, after)}
    cli.build_parser.cache_clear()
    for argv in (before, after, before, after):
        assert outcome(capsys, argv) == expected[argv], argv


def test_no_cache_dir_carries_over_to_the_next_call(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ASMREF_CACHE", raising=False)
    argv = ("count", "--n", "5")
    expected = first_outcome(capsys, argv)
    assert outcome(capsys, argv + ("--cache-dir", str(tmp_path)))[0] == 0
    stored = list(tmp_path.iterdir())
    assert stored
    for path in stored:
        path.unlink()
    assert outcome(capsys, argv) == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")], ids=["top", "verify"])
def test_help_follows_the_terminal_width_of_each_call(capsys, monkeypatch, argv):
    helps = {}
    for columns in ("120", "60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = outcome(capsys, argv)
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(list(argv))
        assert (code, out) == (0, capsys.readouterr().out), columns
        helps[columns] = out
    assert helps["60"] != helps["120"]


def test_verify_conj2_below_order_3_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "conj2", "--n", "2")
    assert (code, out, err) == (2, "", "error: conj2 n=2: order must be at least 3, got 2\n")


def test_verify_conj3_with_a_depth_past_the_order_is_a_usage_error(capsys):
    # 4**8000 has 4817 digits, past str()'s default limit of 4300: the depth is
    # checked before the report names the number of index tuples
    err = "error: conj3 n=4 d=8000: depth must lie in 1..4, got 8000\n"
    assert run(capsys, "verify", "conj3", "--n", "4", "--d", "8000") == (2, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--n", "-1"), "error: conj4 n=-1 d=1: order must be positive, got -1\n"),
        (("--n", "4", "--d", "-1"), "error: conj4 n=4 d=-1: depth must lie in 1..4, got -1\n"),
    ],
    ids=["order", "depth"],
)
def test_verify_conj4_with_a_negative_order_or_depth_is_a_usage_error(capsys, argv, err):
    assert run(capsys, "verify", "conj4", *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [("count", "--n", "5"), ("extend", "--n", "4"), ("appendix-a",), ("oeis-check", "--fetch", "A005130")],
    ids=lambda argv: argv[0],
)
def test_seed_is_an_option_of_verify_only(capsys, argv):
    code, out, err = outcome(capsys, (*argv, "--seed", "3"))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed 3" in err
    code, out, _ = run(capsys, "verify", "alpha-identities", "--n", "2", "--seed", "3")
    assert (code, out.splitlines()[-1]) == (0, "alpha-identities: PASS (2..2)")


def test_verify_names_the_claim_and_order_of_any_error(capsys):
    # the order-1 table of depth 2 is rejected, and the range runs n = 2 first
    code, out, err = run(capsys, "verify", "theorem1", "--n", "1..2")
    assert (code, out) == (2, "")
    assert err.startswith("error: theorem1 n=1: ")


@pytest.mark.parametrize(
    "argv",
    [("extend",)]
    + [
        ("verify", claim)
        for claim in (
            "theorem1", "theorem2", "theorem4", "special-values", "zw-chain", "ilse",
            "triangular-system",
        )
    ],
    ids=" ".join,
)
def test_order_1_of_a_depth_2_command_names_the_order(capsys, argv):
    # the depth is the program's choice there, so the order is the error;
    # theorem2 is stated from order 3 and checks that floor first
    prefix = f"error: {argv[1]} n=1: " if argv[0] == "verify" else "error: "
    floor = 3 if argv == ("verify", "theorem2") else 2
    err = f"{prefix}order must be at least {floor}, got 1\n"
    assert run(capsys, *argv, "--n", "1") == (2, "", err)


def test_count_at_order_1_names_the_depth_it_was_given(capsys):
    err = "error: depth must lie in 1..1, got 2\n"
    assert run(capsys, "count", "--n", "1", "--d", "2") == (2, "", err)


AT_LEAST_2 = "n={n}: order must be at least 2, got {n}"
AT_LEAST_3 = "n={n}: order must be at least 3, got {n}"
POSITIVE = "n={n}: order must be positive, got {n}"
D1_AT_LEAST_2 = "n={n} d=1: order must be at least 2, got {n}"
D1_POSITIVE = "n={n} d=1: order must be positive, got {n}"
PASS = "PASS"

# what `verify CLAIM --n N` without --d gives at N = -1, 0, 1 and 2: an error,
# after "error: CLAIM ", with exit 2 and nothing on stdout; or PASS, with exit 0
# and "CLAIM: PASS (N..N)" last on stdout.  A claim that takes a depth runs at
# min(N, its default) and at 1 below order 1.
LOW_ORDERS = {
    "theorem1": (AT_LEAST_2, AT_LEAST_2, AT_LEAST_2, PASS),
    "theorem2": (AT_LEAST_3, AT_LEAST_3, AT_LEAST_3, AT_LEAST_3),
    "theorem4": (AT_LEAST_2, AT_LEAST_2, AT_LEAST_2, PASS),
    "special-values": (AT_LEAST_2, AT_LEAST_2, AT_LEAST_2, PASS),
    "ilse": (AT_LEAST_2, AT_LEAST_2, AT_LEAST_2, PASS),
    "zw-chain": (AT_LEAST_2, AT_LEAST_2, AT_LEAST_2, PASS),
    "conj1": (AT_LEAST_3, AT_LEAST_3, AT_LEAST_3, AT_LEAST_3),
    "conj2": (AT_LEAST_3, AT_LEAST_3, AT_LEAST_3, AT_LEAST_3),
    "conj3": (D1_AT_LEAST_2, D1_AT_LEAST_2, D1_AT_LEAST_2, PASS),
    "conj4": (D1_POSITIVE, D1_POSITIVE, PASS, PASS),
    "alpha-identities": (POSITIVE, POSITIVE, PASS, PASS),
    "gn-reflection": (D1_POSITIVE, D1_POSITIVE, PASS, PASS),
    "triangular-system": (AT_LEAST_2, AT_LEAST_2, AT_LEAST_2, PASS),
    "bijection": (POSITIVE, POSITIVE, PASS, PASS),
    "product-formulas": (POSITIVE, POSITIVE, PASS, PASS),
}


def test_the_low_order_table_names_every_claim():
    assert list(LOW_ORDERS) == list(claims.CLAIMS)


@pytest.mark.parametrize(
    "claim, n, expected",
    [
        pytest.param(claim, n, expected, id=f"{claim} {n}")
        for claim, row in LOW_ORDERS.items()
        for n, expected in zip((-1, 0, 1, 2), row)
    ],
)
def test_every_claim_at_the_low_orders(capsys, fail_if_counting, claim, n, expected):
    if expected == PASS:
        code, out, err = run(capsys, "verify", claim, "--n", str(n))
        assert (code, out.splitlines()[-1], err) == (0, f"{claim}: PASS ({n}..{n})", "")
        return
    # a refused order is refused before anything is counted
    asmref.clear_caches()
    fail_if_counting()
    err = f"error: {claim} {expected.format(n=n)}\n"
    assert run(capsys, "verify", claim, "--n", str(n)) == (2, "", err)


def test_conj3_at_order_2_runs_at_depth_2(capsys):
    code, out, _ = run(capsys, "verify", "conj3", "--n", "2", "--format", "json")
    assert code == 0
    assert [report["checked"] for report in json.loads(out)["reports"]] == [
        "n=2, d=2, all 4 index tuples"
    ]
    assert run(capsys, "verify", "conj3", "--n", "2") == (
        0, "conj3 n=2: PASS\nconj3: PASS (2..2)\n", ""
    )


def test_conj4_at_orders_1_and_2_runs_at_depths_1_and_2(capsys):
    code, out, _ = run(capsys, "verify", "conj4", "--n", "1..2", "--format", "json")
    assert code == 0
    assert [report["checked"] for report in json.loads(out)["reports"]] == [
        "n=1, d=1, all 1 increasing tuples", "n=2, d=2, all 1 increasing tuples",
    ]
    assert run(capsys, "verify", "conj4", "--n", "1..2") == (
        0, "conj4 n=1: PASS\nconj4 n=2: PASS\nconj4: PASS (1..2)\n", ""
    )


def test_a_given_depth_is_passed_on_unchanged(capsys):
    err = "error: conj4 n=2 d=3: depth must lie in 1..2, got 3\n"
    assert run(capsys, "verify", "conj4", "--n", "2", "--d", "3") == (2, "", err)


def test_verify_names_the_claim_and_order_of_a_cache_write_error(tmp_path, capsys):
    # the cache directory lies under a regular file, so storing the table fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    asmref.clear_caches()
    argv = ("verify", "theorem1", "--n", "3", "--cache-dir", str(blocker / "sub"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: theorem1 n=3: [Errno ")
    assert err.endswith(f"{str(blocker / 'sub')!r}\n")


def test_verify_names_the_claim_and_order_of_a_decode_error(capsys, monkeypatch):
    def undecodable(n):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(claims, "verify_bijection", undecodable)
    err = (
        "error: bijection n=1: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )
    assert run(capsys, "verify", "bijection", "--n", "1") == (2, "", err)


EVERY_SUBCOMMAND = (
    ("count", "--n", "4", "--d", "2"),
    ("count", "--n", "4", "--indices", "2,3"),
    ("extend", "--n", "4"),
    ("verify", "theorem2", "--n", "3..4"),
    ("appendix-a",),
    ("oeis-check", "--b-file", "B_FILE"),
)


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=" ".join)
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_every_subcommand_takes_every_format(argv, fmt, tmp_path, capsys):
    write_totals_b_file(tmp_path / "b005130.txt", 0, 6)
    argv = [str(tmp_path / "b005130.txt") if a == "B_FILE" else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["meta"]["tool"] == "asmref"
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert len(header) >= 2 and rows
        assert all(len(row) == len(header) for row in rows)


def test_oeis_check_csv_lists_the_compared_terms(tmp_path, capsys):
    path = tmp_path / "b005130.txt"
    write_totals_b_file(path, 0, 9, corrupt=5)
    argv = ("oeis-check", "--b-file", str(path), "--limit", "7")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert (code, run(capsys, *argv)[0]) == (1, 1)
    rows = [(i, total_asm_count(i) + (i == 5), total_asm_count(i)) for i in range(7)]
    assert out == "index,file,computed\n" + "".join(f"{i},{v},{e}\n" for i, v, e in rows)


def test_oeis_check_csv_follows_which(tmp_path, capsys):
    path = tmp_path / "b048601.txt"
    # refined-row-1 starts at index 1: the term at 0 is not compared
    path.write_text("0 1\n" + "".join(f"{n} {total_asm_count(n - 1)}\n" for n in range(1, 5)))
    argv = ("oeis-check", "--which", "refined-row-1", "--b-file", str(path))
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert (code, run(capsys, *argv)[0]) == (0, 0)
    assert out.splitlines() == ["index,file,computed"] + [
        f"{n},{total_asm_count(n - 1)},{total_asm_count(n - 1)}" for n in range(1, 5)
    ]


def test_oeis_check_csv_of_an_empty_overlap_is_its_header(tmp_path, capsys):
    path = tmp_path / "bseq.txt"
    path.write_text("-3 1\n-2 1\n")
    code, out, _ = run(capsys, "oeis-check", "--b-file", str(path), "--format", "csv")
    assert (code, out) == (0, "index,file,computed\n")
