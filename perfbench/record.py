"""Record the exit code and stdout digest of every op into expected.json.

    python3 perfbench/record.py

The recorded outputs are the reference that every benchmark run checks its
ops against; record them only from a commit whose outputs are known good.
Every op runs twice at the default seed 1729, and both runs must print the
same; in tables-warm the first run has an empty cache and the second a filled
one.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile

import workloads
from child import import_asmref
from run import WORK


def main() -> int:
    asmref = import_asmref()
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="record-", dir=WORK)
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            slow = workloads.SLOW_OPS.get(workload, ())
            for _ in range(2):
                for template in workloads.op_templates(workload) + list(slow):
                    asmref.clear_caches()
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = asmref.cli.main(workloads.argv_for(template, 1729, cache))
                    record = {"exit": code, "sha256": workloads.digest(out.getvalue())}
                    if expected.setdefault(template, record) != record:
                        sys.exit(f"error: `{template}` gave two different outputs")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} ops in {workloads.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
