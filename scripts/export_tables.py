#!/usr/bin/env python3
"""Export counting tables and extended arrays as JSON documents.

Writes refined-n{N}-d{D}.json and extended-n{N}-d2.json files (timestamped)
into the output directory for the requested orders, and reports how many it
wrote; a depth given twice is written once.  An order or depth out of range,
or over the budget, stops the run: it still reports the documents written
before, then prints "error: ..." on stderr and exits 2, as the asmref CLI does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from asmref import build_table, extend_matrix
from asmref.documents import TableCache, matrix_document, table_document
from asmref.errors import AsmrefError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--depths", type=int, nargs="*", default=[1, 2])
    args = parser.parse_args(argv)

    cache = TableCache(args.out_dir)
    written = 0
    error = None
    try:
        for n in range(1, args.max_n + 1):
            for d in sorted(set(args.depths)):
                if d > n:
                    continue
                table = build_table(n, d)
                cache.store(table_document(table))
                written += 1
                if d == 2:
                    cache.store(matrix_document(extend_matrix(table)))
                    written += 1
    except (AsmrefError, OSError) as exc:
        error = exc
    print(f"wrote {written} documents to {args.out_dir}")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
