"""Table documents, the disk cache, and reference-sequence parsing."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from asmref import documents
from asmref.documents import (
    OeisReference,
    TOOL_VERSION,
    TableCache,
    TableDocument,
    document_from_entries,
    parse_b_file,
)
from asmref.errors import BFileError, ValidationError


SAMPLE_ENTRIES = {(1,): 2, (2,): 3, (3,): 2}


def sample_doc() -> TableDocument:
    return document_from_entries(3, 1, "refined", SAMPLE_ENTRIES)


def test_json_round_trip():
    doc = sample_doc()
    again = TableDocument.from_json_text(doc.to_json_text())
    assert again == doc
    assert again.int_entries() == SAMPLE_ENTRIES


def test_unstamped_json_has_no_timestamp():
    data = json.loads(sample_doc().to_json_text())
    assert set(data["meta"]) == {"tool", "version"}
    stamped = replace(sample_doc(), generated="2009-03-30T00:00:00+00:00")
    assert "generated" in json.loads(stamped.to_json_text())["meta"]


def test_json_text_is_deterministic():
    assert sample_doc().to_json_text() == sample_doc().to_json_text()
    assert sample_doc().to_json_text().endswith("\n")


def test_csv_rendering():
    text = sample_doc().to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "indices,value"
    assert "1,2" in lines[1]


def test_entry_count_is_validated():
    with pytest.raises(ValidationError):
        document_from_entries(3, 1, "refined", {(1,): 2})
    with pytest.raises(ValidationError):
        document_from_entries(2, 2, "extended", {(1, 1): 0})


def test_entries_must_be_canonical_decimals():
    with pytest.raises(ValidationError):
        TableDocument(
            n=1, d=1, kind="refined", entries=(((1,), "007"),)
        )
    with pytest.raises(ValidationError):
        TableDocument(n=1, d=1, kind="refined", entries=(((1,), "1.5"),))
    with pytest.raises(ValidationError):
        TableDocument(n=1, d=1, kind="refined", entries=(((1,), "-0"),))
    TableDocument(n=1, d=1, kind="refined", entries=(((1,), "-7"),))


def test_malformed_json_rejected():
    with pytest.raises(ValidationError):
        TableDocument.from_json_text("{not json")
    with pytest.raises(ValidationError):
        TableDocument.from_json_text(json.dumps({"n": 3}))


def test_cache_round_trip(tmp_path):
    cache = TableCache(tmp_path)
    assert cache.load("refined", 3, 1) is None
    cache.store(sample_doc())
    loaded = cache.load("refined", 3, 1)
    assert loaded is not None
    assert loaded.int_entries() == SAMPLE_ENTRIES
    # stored files carry a timestamp even when the source document had none,
    # and the digest of their entries
    assert loaded.generated is not None
    assert loaded.sha256 == sample_doc().digest()


def test_cache_keeps_a_given_timestamp(tmp_path):
    cache = TableCache(tmp_path)
    stamp = "2009-03-30T00:00:00+00:00"
    cache.store(replace(sample_doc(), generated=stamp))
    assert cache.load("refined", 3, 1).generated == stamp


class _FailingHandle:
    """A file handle that writes the first half of the text, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_store_keeps_previous_document(tmp_path, monkeypatch, failure):
    cache = TableCache(tmp_path)
    cache.store(sample_doc())
    path = cache.path_for("refined", 3, 1)
    before = path.read_text()
    if failure == "write":
        monkeypatch.setattr(
            documents, "open", lambda *a: _FailingHandle(open(*a)), raising=False
        )
    else:
        def replace(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(documents.os, "replace", replace)
    changed = document_from_entries(3, 1, "refined", {(1,): 5, (2,): 6, (3,): 5})
    with pytest.raises(OSError):
        cache.store(changed)
    monkeypatch.undo()
    assert path.read_text() == before
    assert cache.load("refined", 3, 1).int_entries() == SAMPLE_ENTRIES
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_rejects_version_mismatch(tmp_path):
    cache = TableCache(tmp_path)
    cache.store(sample_doc())
    path = cache.path_for("refined", 3, 1)
    data = json.loads(path.read_text())
    data["meta"]["version"] = "0.0.0"
    path.write_text(json.dumps(data))
    assert cache.load("refined", 3, 1) is None


@pytest.mark.parametrize("edit", ["entry", "digest", "no-digest"])
def test_cache_rejects_entries_that_do_not_match_their_digest(tmp_path, edit):
    cache = TableCache(tmp_path)
    cache.store(sample_doc())
    path = cache.path_for("refined", 3, 1)
    data = json.loads(path.read_text())
    if edit == "entry":
        data["entries"][1][1] = "4"
    elif edit == "digest":
        data["meta"]["sha256"] = "0" * 64
    else:
        del data["meta"]["sha256"]
    path.write_text(json.dumps(data))
    assert TableDocument.from_json_text(path.read_text()) is not None
    assert cache.load("refined", 3, 1) is None


def test_digest_depends_on_every_entry():
    digest = sample_doc().digest()
    assert len(digest) == 64
    assert digest == sample_doc().digest()
    for key in SAMPLE_ENTRIES:
        changed = document_from_entries(3, 1, "refined", {**SAMPLE_ENTRIES, key: 9})
        assert changed.digest() != digest


def test_unknown_kind_is_rejected():
    entries = tuple(((i, j), "0") for i in (1, 2) for j in (1, 2))
    with pytest.raises(ValidationError):
        TableDocument(2, 2, "coefficients", entries)


def test_cache_file_of_an_unknown_kind_is_a_miss(tmp_path):
    cache = TableCache(tmp_path)
    entries = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 0}
    cache.store(document_from_entries(2, 2, "extended", entries))
    # the same signed file, claiming a kind the cache does not know
    data = json.loads(cache.path_for("extended", 2, 2).read_text())
    data["kind"] = "coefficients"
    cache.path_for("coefficients", 2, 2).write_text(json.dumps(data))
    assert cache.load("coefficients", 2, 2) is None
    assert cache.load("extended", 2, 2).int_entries() == entries


def test_cache_rejects_corrupt_file(tmp_path):
    cache = TableCache(tmp_path)
    path = cache.path_for("refined", 3, 1)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("garbage")
    assert cache.load("refined", 3, 1) is None


def test_cache_key_mismatch(tmp_path):
    cache = TableCache(tmp_path)
    cache.store(sample_doc())
    assert cache.load("refined", 4, 1) is None
    assert cache.load("extended", 3, 1) is None


def test_parse_b_file():
    text = "# comment\n0 1\n1 1\n2 2\n\n3 7\n"
    assert parse_b_file(text) == [(0, 1), (1, 1), (2, 2), (3, 7)]


def test_parse_b_file_errors():
    with pytest.raises(BFileError):
        parse_b_file("0 1 2\n")
    with pytest.raises(BFileError):
        parse_b_file("zero one\n")


def test_reference_from_b_file():
    ref = OeisReference.from_b_file("1 1\n2 2\n3 7\n", "A005130")
    assert ref.offset == 1
    assert list(ref.items()) == [(1, 1), (2, 2), (3, 7)]


def test_reference_requires_contiguous_indices():
    with pytest.raises(BFileError):
        OeisReference.from_b_file("1 1\n3 7\n", "A005130")
    with pytest.raises(BFileError):
        OeisReference.from_b_file("# only comments\n", "A005130")


def test_tool_version_matches_package():
    import asmref

    assert TOOL_VERSION == asmref.__version__
    # the version a release declares is the one its cached documents carry
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]*)"$', pyproject, re.MULTILINE) == [TOOL_VERSION]
