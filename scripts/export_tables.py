#!/usr/bin/env python3
"""Export counting tables and extended arrays as JSON documents.

Writes refined-n{N}-d{D}.json and extended-n{N}-d2.json files (timestamped)
into the output directory for the requested orders.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from asmref import build_table, extend_matrix
from asmref.documents import TableCache, matrix_document, table_document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--depths", type=int, nargs="*", default=[1, 2])
    args = parser.parse_args(argv)

    cache = TableCache(args.out_dir)
    for n in range(1, args.max_n + 1):
        for d in args.depths:
            if d > n:
                continue
            table = build_table(n, d)
            cache.store(table_document(table))
            if d == 2:
                cache.store(matrix_document(extend_matrix(table)))
    count = len(list(args.out_dir.glob("*.json")))
    print(f"wrote {count} documents to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
