#!/usr/bin/env python3
"""Run every claim at its default range and summarize the outcomes.

Exit status 0 when everything passes, 1 otherwise.  Pass --cache-dir to
reuse computed tables across claims.
"""

from __future__ import annotations

import argparse
import sys
import time

from asmref.claims import CLAIMS
from asmref.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--claims", nargs="*", choices=sorted(CLAIMS), default=sorted(CLAIMS),
        metavar="CLAIM", help="subset of claims to run (default: all)",
    )
    args = parser.parse_args(argv)

    failures = []
    for claim in args.claims:
        argv_claim = ["verify", claim]
        if args.cache_dir:
            argv_claim += ["--cache-dir", args.cache_dir]
        if args.seed is not None:
            argv_claim += ["--seed", str(args.seed)]
        started = time.monotonic()
        code = cli_main(argv_claim)
        elapsed = time.monotonic() - started
        print(f"== {claim}: exit {code} in {elapsed:.1f}s\n")
        if code != 0:
            failures.append(claim)

    if failures:
        print("FAILED claims:", ", ".join(failures))
        return 1
    print(f"all {len(args.claims)} claims passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
