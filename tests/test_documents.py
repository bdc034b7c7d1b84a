"""Table documents, the disk cache, and reference-sequence parsing."""

from __future__ import annotations

import itertools
import json
import math
import re
import time
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
    matrix_document,
    parse_b_file,
    table_document,
)
from asmref.errors import BFileError, ValidationError
from asmref.extension import extended_matrix, refined_table
from asmref.triangles import build_table

from oracles import list_entries_digest


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
    message = r"^a refined table at n=3, d=1 needs 3 entries, got 1$"
    with pytest.raises(ValidationError, match=message):
        document_from_entries(3, 1, "refined", {(1,): 2})
    message = r"^a extended table at n=2, d=2 needs 4 entries, got 1$"
    with pytest.raises(ValidationError, match=message):
        document_from_entries(2, 2, "extended", {(1, 1): 0})


CAP = documents._MAX_ENTRY_COUNT

#: Headers on either side of the cap, for each kind
COUNTED_HEADERS = {
    "refined": [(67, 33), (68, 34), (2**32, 2), (2**33, 2), (CAP, 1), (CAP + 1, 1), (CAP + 1, CAP)],
    "extended": [(2, 64), (2, 65), (3, 40), (3, 41), (2**32, 2), (2**32 + 1, 2), (CAP + 1, 1)],
}


@pytest.mark.parametrize("kind", ["refined", "extended"])
def test_entry_count_is_exact_up_to_its_cap(kind):
    exact = math.comb if kind == "refined" else pow
    for n, d in list(itertools.product(range(13), range(15))) + COUNTED_HEADERS[kind]:
        count = documents._entry_count(kind, n, d)
        assert count == exact(n, d) or (count is None and exact(n, d) > CAP), (n, d)


# Headers whose counts are past any number of entries a file can hold; the
# counts of the first two are too large to compute.
HUGE_HEADERS = [
    ("extended", 10, 10**9),
    ("refined", 10**9, 5 * 10**8),
    ("refined", 10**18, 3),
]


@pytest.mark.parametrize("kind, n, d", HUGE_HEADERS)
def test_a_header_past_its_entries_is_refused_at_once(kind, n, d):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"needs (more than )?\d+ entries, got 0$"):
        TableDocument(n=n, d=d, kind=kind, entries=())
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("kind, n, d", HUGE_HEADERS)
def test_a_cached_header_past_its_entries_is_a_miss_at_once(tmp_path, kind, n, d):
    cache = TableCache(tmp_path)
    meta = {"tool": "asmref", "version": TOOL_VERSION}
    header = {"kind": kind, "n": n, "d": d, "entries": [], "meta": meta}
    path = cache.path_for("refined", 10, 2)
    path.write_text(json.dumps(header))
    start = time.perf_counter()
    assert cache.load("refined", 10, 2) is None
    assert time.perf_counter() - start < 1
    # the provider rebuilds the table over the file
    assert refined_table(10, 2, cache).entries == build_table(10, 2).entries
    assert cache.load("refined", 10, 2) is not None


@pytest.mark.parametrize(
    "header",
    [
        '"kind": "extended", "n": 0, "d": -1',  # 0**-1 divides by zero
        '"kind": "refined", "n": -3, "d": 2',
        '"kind": "refined", "n": 1e400, "d": 2',  # an infinite float
    ],
)
def test_a_cached_header_out_of_range_is_a_miss(tmp_path, header):
    cache = TableCache(tmp_path)
    text = '{%s, "entries": [], "meta": {"tool": "asmref", "version": "%s"}}'
    cache.path_for("refined", 3, 2).write_text(text % (header, TOOL_VERSION))
    assert cache.load("refined", 3, 2) is None


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


@pytest.mark.parametrize(
    "doc",
    [table_document(build_table(n, d)) for n in (1, 4, 7) for d in (1, 2, 3) if d <= n]
    + [matrix_document(extended_matrix(n)) for n in (3, 4, 6)]  # signed entries
    + [document_from_entries(2, 2, "extended", {(1, 1): -5, (1, 2): 0, (2, 1): 7, (2, 2): -1})],
    ids=lambda doc: f"{doc.kind}-n{doc.n}-d{doc.d}",
)
def test_digest_is_the_digest_of_the_entries_as_lists(doc):
    assert doc.digest() == list_entries_digest(doc.entries)


#: refined-n4-d2.json as stored by the cache when the digest rebuilt every
#: index tuple as a list; a cache filled then must still load as a hit.
EARLIER_FILE = {
    "d": 2,
    "entries": [
        [[1, 2], "2"], [[1, 3], "3"], [[1, 4], "2"], [[2, 3], "4"], [[2, 4], "3"], [[3, 4], "2"],
    ],
    "kind": "refined",
    "meta": {
        "generated": "2009-03-30T00:00:00+00:00",
        "sha256": "bab49a30087c219f256ad0975e0ede667f14bbe12ea38dedbfd853ec5358b72f",
        "tool": "asmref",
        "version": "0.1.0",
    },
    "n": 4,
}


def test_a_file_signed_by_the_list_digest_loads_as_a_hit(tmp_path):
    cache = TableCache(tmp_path)
    text = json.dumps(EARLIER_FILE, indent=2, sort_keys=True) + "\n"
    cache.path_for("refined", 4, 2).write_text(text)
    loaded = cache.load("refined", 4, 2)
    assert loaded is not None
    assert loaded.int_entries() == build_table(4, 2).entries
    # storing the table again writes the same file
    cache.store(replace(table_document(build_table(4, 2)), generated=loaded.generated))
    assert cache.path_for("refined", 4, 2).read_text() == text


def test_a_str_directory_is_a_path_directory(tmp_path):
    as_str, as_path = TableCache(str(tmp_path / "str")), TableCache(tmp_path / "path")
    doc = replace(sample_doc(), generated="2009-03-30T00:00:00+00:00")
    for cache in (as_str, as_path):
        assert cache.load("refined", 3, 1) is None
        cache.store(doc)
    text = as_path.path_for("refined", 3, 1).read_text()
    assert as_str.path_for("refined", 3, 1).read_text() == text
    assert as_str.load("refined", 3, 1) == as_path.load("refined", 3, 1)
    assert TableCache(str(tmp_path / "path")).load("refined", 3, 1) == as_path.load("refined", 3, 1)
    as_str.write("b.txt", "1 1\n")
    assert as_str.read("b.txt", str) == "1 1\n"
    assert as_str.read("missing.txt", str) is None


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
