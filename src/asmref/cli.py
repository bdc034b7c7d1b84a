"""Command-line interface: tables, the extension, verification, sequence checks.

Exit codes: 0 on success, 1 on a mathematical mismatch (a failed verification
or a reference-sequence disagreement), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from pathlib import Path

from .claims import CLAIMS
from .combinat import as_size, refined_asm_count, total_asm_count
from .config import DEFAULT_SEED
from .documents import (
    OeisReference,
    TableCache,
    TableDocument,
    matrix_document,
    table_document,
    with_meta,
)
from .errors import AsmrefError, BudgetError
from .extension import extended_matrix, refined_table
from .reports import VerificationReport
from .triangles import refined_count


def _parse_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if sep else lo_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order range must be N or LO..HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"indices must be comma-separated ints: {text!r}")


def _parse_cache_dir(text: str) -> Path:
    # Path("") is the working directory, which an empty value must not select
    if not text:
        raise argparse.ArgumentTypeError("the cache directory must not be empty")
    return Path(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every main() call; do not modify it.

    Sharing is safe because parse_args returns a fresh Namespace each call and
    the help formatter reads the terminal width when help is printed.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("pretty", "json", "csv"), default="pretty",
        help="output format (default pretty)",
    )
    common.add_argument(
        "--cache-dir", type=_parse_cache_dir, default=None,
        help="cache directory for computed tables (default $ASMREF_CACHE, unset = no cache)",
    )

    parser = argparse.ArgumentParser(
        prog="asmref",
        description="Exact refined enumeration of alternating sign matrices "
        "and verification of the identities governing it.",
        epilog="examples:\n"
        "  asmref count --n 5 --d 1\n"
        "  asmref count --n 5 --indices 2,3\n"
        "  asmref extend --n 5 --format json\n"
        "  asmref verify theorem1 --n 3..12\n"
        "  asmref appendix-a\n"
        "  asmref oeis-check --which totals --b-file b005130.txt\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser(
        "count", parents=[common], help="print refined counting tables"
    )
    p_count.add_argument("--n", type=int, required=True, help="matrix order")
    p_count.add_argument("--d", type=int, default=None, help="refinement depth (default 1)")
    p_count.add_argument(
        "--indices", type=_parse_indices, default=None,
        help="comma-separated column indices for a single count",
    )

    p_extend = sub.add_parser(
        "extend", parents=[common], help="print the extended square array"
    )
    p_extend.add_argument("--n", type=int, required=True, help="matrix order")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="verify one claim over a range of orders"
    )
    p_verify.add_argument("claim", choices=sorted(CLAIMS), help="claim to check")
    p_verify.add_argument(
        "--n", type=_parse_range, default=None, metavar="LO..HI",
        help="order range, e.g. 5 or 3..12 (default: the claim's full range)",
    )
    p_verify.add_argument(
        "--d", type=int, default=None, help="depth, for conj3, conj4 and gn-reflection only"
    )
    p_verify.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"seed for the rational sample points (default {DEFAULT_SEED})",
    )

    sub.add_parser(
        "appendix-a", parents=[common],
        help="print the reference tables: the singly refined triangle and the "
        "extended arrays for orders 3..7",
    )

    p_oeis = sub.add_parser(
        "oeis-check", parents=[common],
        help="compare computed counts against a reference sequence b-file",
    )
    p_oeis.add_argument(
        "--which", choices=("totals", "refined-row-1"), default="totals",
        help="what to compare (default totals)",
    )
    p_oeis.add_argument("--b-file", type=Path, default=None, help="path to a local b-file")
    p_oeis.add_argument(
        "--fetch", default=None, metavar="ID_OR_URL",
        help="download the b-file (e.g. A005130, or any URL); needs a cache dir",
    )
    p_oeis.add_argument(
        "--limit", type=int, default=None, help="check at most this many terms"
    )
    return parser


def _cache_from(args) -> TableCache | None:
    directory = args.cache_dir or os.environ.get("ASMREF_CACHE")
    return TableCache(directory) if directory else None


def _print_json(payload: dict) -> None:
    """Print payload as JSON in the tool's envelope, replacing any meta it has."""
    print(json.dumps(with_meta(payload), indent=2, sort_keys=True))


def _print_csv(header: str, rows: list[tuple]) -> None:
    print(header)
    for row in rows:
        print(",".join(str(v) for v in row))


def _print_document(doc: TableDocument, fmt: str) -> None:
    """Print a table document as its own JSON (in its meta envelope) or CSV."""
    sys.stdout.write(doc.to_json_text() if fmt == "json" else doc.to_csv_text())


def _grid_lines(rows: tuple[tuple[int, ...], ...]) -> list[str]:
    width = max(len(str(v)) for row in rows for v in row)
    return ["  ".join(str(v).rjust(width) for v in row) for row in rows]


def _cmd_count(args, cache: TableCache | None) -> int:
    if args.indices is not None and args.d is not None:
        raise AsmrefError("--d and --indices are mutually exclusive")
    if args.indices is not None:
        value = refined_count(args.n, args.indices)
        if args.format == "json":
            _print_json({"n": args.n, "indices": list(args.indices), "value": str(value)})
        elif args.format == "csv":
            _print_csv("indices,value", [(" ".join(map(str, args.indices)), value)])
        else:
            print(value)
        return 0
    table = refined_table(args.n, 1 if args.d is None else args.d, cache)
    if args.format != "pretty":
        _print_document(table_document(table), args.format)
    elif table.d == 1:
        print(" ".join(str(table.entries[(k,)]) for k in range(1, table.n + 1)))
    else:
        width = max(len(str(v)) for v in table.entries.values())
        for indices, value in table.entries.items():
            print(f"{' '.join(map(str, indices))}  {str(value).rjust(width)}")
    return 0


def _cmd_extend(args, cache: TableCache | None) -> int:
    matrix = extended_matrix(args.n, cache)
    if args.format != "pretty":
        _print_document(matrix_document(matrix), args.format)
    else:
        print("\n".join(_grid_lines(matrix.rows)))
    return 0


_APPENDIX_TRIANGLE_MAX = 7
_APPENDIX_MATRIX_ORDERS = (3, 4, 5, 6, 7)


def _cmd_appendix_a(args, cache: TableCache | None) -> int:
    # highest order first: its column sweep answers every lower order
    rows = {
        n: [refined_count(n, (k,)) for k in range(1, n + 1)]
        for n in range(_APPENDIX_TRIANGLE_MAX, 0, -1)
    }
    triangle = {n: rows[n] for n in range(1, _APPENDIX_TRIANGLE_MAX + 1)}
    matrices = {n: extended_matrix(n, cache).rows for n in _APPENDIX_MATRIX_ORDERS}

    if args.format == "json":
        _print_json({
            "kind": "appendix-a",
            "triangle": {str(n): [str(v) for v in row] for n, row in triangle.items()},
            "matrices": {
                str(n): [[str(v) for v in row] for row in rows]
                for n, rows in matrices.items()
            },
        })
        return 0
    if args.format == "csv":
        rows = [
            (f"triangle {n} {k}", v) for n, row in triangle.items() for k, v in enumerate(row, 1)
        ]
        for n, grid in matrices.items():
            for i, row in enumerate(grid, 1):
                rows += [(f"matrix {n} {i} {j}", v) for j, v in enumerate(row, 1)]
        _print_csv("indices,value", rows)
        return 0

    print(f"singly refined counts, orders 1..{_APPENDIX_TRIANGLE_MAX}:")
    cell = max(
        len(str(v)) for row in triangle.values() for v in row
    )
    full = _APPENDIX_TRIANGLE_MAX * (cell + 2) - 2
    for n in range(1, _APPENDIX_TRIANGLE_MAX + 1):
        line = "  ".join(str(v).rjust(cell) for v in triangle[n])
        print(line.center(full).rstrip())
    for n in _APPENDIX_MATRIX_ORDERS:
        print(f"\nextended array, order {n}:")
        print("\n".join(_grid_lines(matrices[n])))
    return 0


def _cmd_verify(args, cache: TableCache | None) -> int:
    claim = CLAIMS[args.claim]
    if args.d is not None and claim.depth is None:
        raise AsmrefError(f"{args.claim} takes no --d")
    lo, hi = args.n or claim.orders

    def reports_at(n: int) -> list[VerificationReport]:
        d = min(max(n, 1), claim.depth) if args.d is None and claim.depth else args.d
        try:
            return claim.run(n, d, args.seed, cache)
        except (AsmrefError, OSError, UnicodeDecodeError) as exc:
            # every error of an order names the claim and the order; a
            # UnicodeDecodeError cannot be rebuilt from one string, so an I/O
            # or decode error is re-raised as an AsmrefError
            at = f"n={n}" if d is None else f"n={n} d={d}"
            error = type(exc) if isinstance(exc, AsmrefError) else AsmrefError
            raise error(f"{args.claim} {at}: {exc}") from exc

    # highest order first: its column sweep answers every lower order
    by_order = {n: reports_at(n) for n in range(hi, lo - 1, -1)}
    results: list[tuple[int, VerificationReport]] = [
        (n, report) for n in range(lo, hi + 1) for report in by_order[n]
    ]
    all_passed = all(report.passed for _, report in results)

    if args.format == "json":
        _print_json({
            "claim": args.claim,
            "range": [lo, hi],
            "passed": all_passed,
            "reports": [dict(report.to_dict(), n=n) for n, report in results],
        })
    elif args.format == "csv":
        _print_csv("claim,checked,passed", [
            (report.claim, report.checked.replace(",", ";"), str(report.passed).lower())
            for _, report in results
        ])
    else:
        for n, report in results:
            status = "PASS" if report.passed else "FAIL"
            name = report.claim if report.claim == args.claim else f"{args.claim}:{report.claim}"
            print(f"{name} n={n}: {status}")
            for witness in report.witnesses[:5]:
                print(f"  at {witness.indices}: {witness.lhs} != {witness.rhs}")
        print(f"{args.claim}: {'PASS' if all_passed else 'FAIL'} ({lo}..{hi})")
    return 0 if all_passed else 1


def _sequence_id(stem: str) -> str:
    """The sequence a b-file's stem names: b<digits> is A<digits>."""
    return f"A{stem[1:]}" if stem.startswith("b") and stem[1:].isdigit() else stem


def _fetch_b_file(target: str, cache: TableCache | None) -> OeisReference:
    if target.startswith(("http://", "https://", "file://")):
        url = target
        stem = Path(Path(target).name or "sequence").stem
        sequence_id = _sequence_id(stem)
        # two sources with the same file name are two entries
        name = f"{stem}-{hashlib.sha256(url.encode()).hexdigest()[:16]}.txt"
    else:
        sequence_id = target.upper()
        if not re.fullmatch("A[0-9]+", sequence_id):
            raise AsmrefError(f"--fetch takes an A-number or a URL, got {target!r}")
        url = f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"
        name = f"b{sequence_id[1:]}.txt"
    if cache is None:
        raise AsmrefError("--fetch needs a cache directory (--cache-dir or $ASMREF_CACHE)")
    parse = functools.partial(OeisReference.from_b_file, sequence_id=sequence_id)
    reference = cache.read(name, parse)  # a stored file that does not parse is fetched again
    if reference is None:
        # imported here: it loads http, email and ssl, which only a download needs
        import urllib.request

        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            text = response.read().decode("utf-8")
        # only a download that parses is kept, so a bad one is fetched again next time
        reference = parse(text)
        cache.write(name, text)
    return reference


#: The highest index oeis-check computes.  The total at 194 has 4276 digits and
#: the one at 195 has 4321, past Python's default cap of 4300 on int-to-str
#: conversion: a b-file could not hold that term, and a mismatch could not be
#: printed.  A 0..194 file checks in 0.6 s (Python 3.11, one core of a shared
#: Xeon host).  A constant, not a Budget field: the CLI passes no Budget, so no
#: caller could change it.
OEIS_MAX_INDEX = 194

#: Seconds --fetch waits for the server to connect or to send more data.  A
#: server that accepts and never answers would hang the run without it; the
#: timeout is an OSError, so the run exits 2 with its message.
FETCH_TIMEOUT_S = 30


def _cmd_oeis_check(args, cache: TableCache | None) -> int:
    if (args.b_file is None) == (args.fetch is None):
        raise AsmrefError("exactly one of --b-file or --fetch is required")
    if args.limit is not None:
        as_size(args.limit, "--limit", 0)
    if args.b_file is not None:
        text = args.b_file.read_text(encoding="utf-8")
        reference = OeisReference.from_b_file(text, _sequence_id(args.b_file.stem))
    else:
        reference = _fetch_b_file(args.fetch, cache)

    lowest = 0 if args.which == "totals" else 1
    terms = [(index, value) for index, value in reference.items() if index >= lowest][:args.limit]
    if terms and terms[-1][0] > OEIS_MAX_INDEX:
        raise BudgetError(
            f"oeis-check computes indices up to {OEIS_MAX_INDEX}, "
            f"got {terms[-1][0]}; --limit checks a prefix"
        )
    count = total_asm_count if args.which == "totals" else lambda n: refined_asm_count(n, 1)
    compared = [(index, value, count(index)) for index, value in terms]
    mismatches = [term for term in compared if term[1] != term[2]]
    checked = len(compared)

    if args.format == "json":
        _print_json({
            "sequence": reference.sequence_id,
            "which": args.which,
            "checked": checked,
            "passed": not mismatches and checked > 0,
            "empty_overlap": checked == 0,
            "mismatches": [
                {"index": i, "file": str(v), "computed": str(e)}
                for i, v, e in mismatches
            ],
        })
    elif args.format == "csv":
        _print_csv("index,file,computed", compared)
    else:
        for index, value, expected in mismatches:
            print(f"mismatch at index {index}: file has {value}, computed {expected}")
        if checked == 0:
            print(f"{reference.sequence_id} {args.which}: WARNING empty overlap")
        else:
            status = "PASS" if not mismatches else "FAIL"
            print(f"{reference.sequence_id} {args.which}: {status} ({checked} terms)")
    return 1 if mismatches else 0


_COMMANDS = {
    "count": _cmd_count,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
    "appendix-a": _cmd_appendix_a,
    "oeis-check": _cmd_oeis_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _cache_from(args))
    except (AsmrefError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

