"""Table documents, their serialization formats, disk caching, and b-files.

All numeric values cross the serialization boundary as decimal strings so that
exact integers of any size survive a round trip unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import AsmrefError, BFileError, ValidationError

TOOL_NAME = "asmref"
TOOL_VERSION = "0.1.0"

_KINDS = ("refined", "extended")

T = TypeVar("T")


def with_meta(
    payload: dict, tool: str = TOOL_NAME, version: str = TOOL_VERSION, **fields: str | None
) -> dict:
    """payload in the tool's JSON envelope, replacing any meta it has.

    The meta object names the tool and its version and holds each further
    field that is set.
    """
    meta = {"tool": tool, "version": version}
    meta.update((name, value) for name, value in fields.items() if value is not None)
    return {**payload, "meta": meta}


#: More entries than a file can hold; no larger entry count is computed.
_MAX_ENTRY_COUNT = 2**64


def _entry_count(kind: str, n: int, d: int) -> int | None:
    """C(n, d) entries for a refined table and n**d for an extended one, or None when too many.

    With k = min(d, n - d) for C(n, d) = C(n, k), and k = d for n**d, both
    counts are at least n and at least 2**k once n >= 2 and k >= 1.  So a
    header such as d = 10**9 is refused from n and k alone, where computing
    its count would not end; a count that is computed has at most 64 factors.
    """
    k = min(d, n - d) if kind == "refined" else d
    if n >= 2 and k >= 1 and (n > _MAX_ENTRY_COUNT or k > 64):
        return None
    return math.comb(n, d) if kind == "refined" else n**d


def _check_decimal(text: str) -> str:
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise ValidationError(f"not a decimal integer: {text!r}") from None
    if str(value) != text:
        raise ValidationError(f"not a canonical decimal integer: {text!r}")
    return text


@dataclass(frozen=True)
class TableDocument:
    """One complete table of exact values with decimal-string entries."""

    n: int
    d: int
    kind: str
    entries: tuple[tuple[tuple[int, ...], str], ...]
    tool: str = TOOL_NAME
    version: str = TOOL_VERSION
    generated: str | None = None
    sha256: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.n < 0 or self.d < 0:
            raise ValidationError(f"n and d must be nonnegative, got n={self.n}, d={self.d}")
        expected = _entry_count(self.kind, self.n, self.d)
        if len(self.entries) != expected:
            needs = f"more than {_MAX_ENTRY_COUNT}" if expected is None else expected
            raise ValidationError(
                f"a {self.kind} table at n={self.n}, d={self.d} needs {needs} "
                f"entries, got {len(self.entries)}"
            )
        for indices, value in self.entries:
            if len(indices) != self.d:
                raise ValidationError(f"index tuple {indices} does not have depth {self.d}")
            _check_decimal(value)

    def int_entries(self) -> dict[tuple[int, ...], int]:
        return {indices: int(value) for indices, value in self.entries}

    def digest(self) -> str:
        """sha256 of the entries in their canonical JSON form."""
        # JSON writes a tuple as an array, so this is the text of the entries as lists
        text = json.dumps(self.entries)
        return hashlib.sha256(text.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        payload = {
            "n": self.n,
            "d": self.d,
            "kind": self.kind,
            "entries": [[list(indices), value] for indices, value in self.entries],
        }
        return with_meta(
            payload, self.tool, self.version, generated=self.generated, sha256=self.sha256
        )

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        lines = ["indices,value"]
        for indices, value in self.entries:
            lines.append(f"{' '.join(str(i) for i in indices)},{value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "TableDocument":
        try:
            meta = data["meta"]
            entries = tuple(
                (tuple(map(int, indices)), str(value))
                for indices, value in data["entries"]
            )
            return cls(
                n=int(data["n"]),
                d=int(data["d"]),
                kind=str(data["kind"]),
                entries=entries,
                tool=str(meta["tool"]),
                version=str(meta["version"]),
                generated=meta.get("generated"),
                sha256=meta.get("sha256"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int of inf
            raise ValidationError(f"malformed table document: {exc}") from exc

    @classmethod
    def from_json_text(cls, text: str) -> "TableDocument":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ValidationError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def document_from_entries(
    n: int, d: int, kind: str, entries: dict[tuple[int, ...], int]
) -> TableDocument:
    """Build a document from integer entries."""
    return TableDocument(
        n=n,
        d=d,
        kind=kind,
        entries=tuple((indices, str(value)) for indices, value in entries.items()),
    )


def table_document(table) -> TableDocument:
    """The document of a refined counting table."""
    return document_from_entries(table.n, table.d, "refined", dict(table.entries))


def matrix_document(matrix) -> TableDocument:
    """The document of an extended square array."""
    cells = range(1, matrix.n + 1)
    entries = {(i, j): matrix.entry(i, j) for i in cells for j in cells}
    return document_from_entries(matrix.n, 2, "extended", entries)


def _cache_name(kind: str, n: int, d: int) -> str:
    return f"{kind}-n{n}-d{d}.json"


@dataclass(frozen=True)
class TableCache:
    """Directory-backed cache of table documents, keyed by kind, n, d, version.

    The directory is a str or a Path; a read joins it to the file name as text.
    """

    directory: str | Path

    def path_for(self, kind: str, n: int, d: int) -> Path:
        return Path(self.directory) / _cache_name(kind, n, d)

    def load(self, kind: str, n: int, d: int) -> TableDocument | None:
        """The cached document, or None when missing, stale, unreadable, or corrupt.

        A file that is not UTF-8 text or not a table document is unreadable;
        a document is corrupt when its entries do not match its stored digest.
        """
        doc = self.read(_cache_name(kind, n, d), TableDocument.from_json_text)
        if doc is None or (doc.kind, doc.n, doc.d, doc.version) != (kind, n, d, TOOL_VERSION):
            return None
        return doc if doc.sha256 == doc.digest() else None

    def store(self, doc: TableDocument) -> None:
        """Write the document atomically with the digest of its entries.

        It is stamped with the time if it has none.
        """
        stamp = doc.generated or datetime.now(timezone.utc).isoformat(timespec="seconds")
        doc = replace(doc, generated=stamp, sha256=doc.digest())
        self.write(_cache_name(doc.kind, doc.n, doc.d), doc.to_json_text())

    def read(self, name: str, parse: Callable[[str], T]) -> T | None:
        """parse of the named file's text, or None if it is missing, not UTF-8 or rejected."""
        try:
            # os.path.join and open, not pathlib: a warm load makes many reads
            with open(os.path.join(self.directory, name), encoding="utf-8") as handle:
                text = handle.read()
            return parse(text)
        except (OSError, UnicodeDecodeError, AsmrefError):
            return None

    def write(self, name: str, text: str) -> None:
        """Keep text as the named file, written atomically."""
        Path(self.directory).mkdir(parents=True, exist_ok=True)
        write_atomically(Path(self.directory) / name, text)


def write_atomically(path: Path, text: str) -> None:
    """Write text as UTF-8 to a temporary file beside path and rename it over path.

    A failed or concurrent write never leaves a partial file at path.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(text.encode())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def parse_b_file(text: str) -> list[tuple[int, int]]:
    """Parse b-file lines of the form "index value"; '#' comment lines allowed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise BFileError(f"line {lineno}: {exc}") from exc
    return out


@dataclass(frozen=True)
class OeisReference:
    """A parsed reference sequence: id plus contiguously indexed integer terms."""

    sequence_id: str
    offset: int
    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("a reference sequence needs at least one term")

    @classmethod
    def from_b_file(cls, text: str, sequence_id: str) -> "OeisReference":
        pairs = parse_b_file(text)
        if not pairs:
            raise BFileError("b-file holds no terms")
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if b != a + 1:
                raise BFileError(f"indices must be contiguous, got {a} then {b}")
        return cls(
            sequence_id=sequence_id,
            offset=pairs[0][0],
            terms=tuple(v for _, v in pairs),
        )

    def items(self) -> Iterator[tuple[int, int]]:
        return enumerate(self.terms, self.offset)
