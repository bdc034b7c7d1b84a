"""scripts/export_tables.py: the documents it writes, the count it reports, its errors."""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from asmref import build_table, extend_matrix
from asmref.documents import TableCache, matrix_document, table_document

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "export_tables.py"


@pytest.fixture(scope="module")
def export():
    spec = importlib.util.spec_from_file_location("export_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_every_written_document_loads_as_the_computed_table(export, tmp_path, capsys):
    assert export([str(tmp_path), "--max-n", "4"]) == 0
    expected = {}
    for n in range(1, 5):
        for d in (1, 2):
            if d <= n:
                expected[("refined", n, d)] = table_document(build_table(n, d))
        if n >= 2:
            expected[("extended", n, 2)] = matrix_document(extend_matrix(build_table(n, 2)))
    assert capsys.readouterr().out == f"wrote {len(expected)} documents to {tmp_path}\n"
    assert len(list(tmp_path.glob("*.json"))) == len(expected)
    cache = TableCache(tmp_path)
    for key, doc in expected.items():
        loaded = cache.load(*key)
        assert loaded is not None, key
        assert replace(loaded, generated=None, sha256=None) == doc, key


def test_documents_already_in_the_directory_are_not_counted(export, tmp_path, capsys):
    assert export([str(tmp_path), "--max-n", "4"]) == 0
    capsys.readouterr()
    assert export([str(tmp_path), "--max-n", "2"]) == 0
    # refined n1 d1, n2 d1, n2 d2 and extended n2
    assert capsys.readouterr().out == f"wrote 4 documents to {tmp_path}\n"


def test_a_depth_given_twice_is_written_and_counted_once(export, tmp_path, capsys):
    assert export([str(tmp_path), "--max-n", "4", "--depths", "2", "1", "2", "1"]) == 0
    # refined n1..4 at d1, n2..4 at d2, and extended n2..4
    assert capsys.readouterr().out == f"wrote 10 documents to {tmp_path}\n"
    assert len(list(tmp_path.glob("*.json"))) == 10


@pytest.mark.parametrize("argv, message", [
    (["--max-n", "17", "--depths", "17"], "error: refined counts at n=17 exceed the budget cap 16\n"),
    (["--max-n", "2", "--depths", "0"], "error: depth must lie in 1..1, got 0\n"),
])
def test_an_asmref_error_is_a_usage_error(export, tmp_path, capsys, argv, message):
    assert export([str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"wrote 0 documents to {tmp_path}\n", message)


def test_an_error_reports_the_documents_written_before_it(export, tmp_path, capsys):
    assert export([str(tmp_path), "--max-n", "17", "--depths", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"wrote 16 documents to {tmp_path}\n"
    assert captured.err == "error: refined counts at n=17 exceed the budget cap 16\n"
    assert len(list(tmp_path.glob("*.json"))) == 16
