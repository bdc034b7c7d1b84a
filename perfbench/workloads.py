"""The three workloads: their op lists, pass counts and output checks.

An op is one ``asmref.cli.main(argv)`` call.  Op lists hold argv templates in
which ``{seed}`` and ``{cache}`` stand for the run's seed and cache directory;
the template text is also the key of the op's recorded exit code and stdout
digest in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

WORKLOADS = ("tables-cold", "poly-claims", "tables-warm")

#: Wall time of one untraced pass, measured on a 2-vCPU Xeon under Python 3.11.
#: It fixes how many passes a run of --seconds makes, so that the op count of
#: a run depends on --seconds alone and never on the speed of the code.
NOMINAL_PASS_S = {"tables-cold": 12.5, "poly-claims": 8.0, "tables-warm": 2.8}

#: The modules each workload is meant to exercise; the traced run fails its
#: coverage check when one of them records no span.
COVERAGE = {
    "tables-cold": ("triangles", "extension", "combinat", "cli"),
    "poly-claims": ("polynomials", "linalg", "triangles", "extension", "cli"),
    "tables-warm": ("documents", "cli"),
}

TABLE_CLAIMS = (
    "theorem1", "theorem2", "special-values", "triangular-system", "conj2",
    "ilse", "zw-chain", "product-formulas", "bijection",
)

#: Default ranges of the polynomial claims, run one order per op.  The order-5
#: identity suite is in SLOW_OPS instead.
POLY_CLAIMS = (
    ("alpha-identities", range(1, 5)),
    ("gn-reflection", range(1, 6)),
    ("theorem4", range(3, 9)),
    ("conj3", range(4, 7)),
    ("conj4", range(4, 7)),
    ("conj1", range(3, 11)),
)
SEEDED_CLAIMS = ("alpha-identities", "gn-reflection")

#: Ops too slow to repeat within a run: the order-5 identity suite takes 22 to
#: 29 s, and a single sample of it varies by 20% with the load on the host, so
#: it runs once, traced, at the end of a traced run (--trace 1) and takes no
#: part in the end-to-end metrics.
SLOW_OPS = {"poly-claims": ("verify alpha-identities --n 5 --seed {seed}",)}

#: An op faster than this is repeated back to back until its repeats have
#: taken this long, so that its median latency rests on several samples.
REPEAT_S = 0.2
MAX_REPEATS = 50

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def op_templates(workload: str) -> list[str]:
    """The op list of one pass, as argv templates."""
    if workload == "tables-cold":
        ops = []
        for n in range(8, 14):
            ops += [
                f"count --n {n} --d 1",
                f"count --n {n} --d 2",
                f"count --n {n} --indices 2,{n}",
                f"extend --n {n}",
            ]
        return ops + [f"verify {claim}" for claim in TABLE_CLAIMS]
    if workload == "poly-claims":
        return [
            f"verify {claim} --n {n}" + (" --seed {seed}" if claim in SEEDED_CLAIMS else "")
            for claim, orders in POLY_CLAIMS
            for n in orders
        ]
    if workload == "tables-warm":
        ops = []
        for n in range(3, 11):
            ops += [
                f"count --n {n} --d 1 --cache-dir {{cache}}",
                f"count --n {n} --d 2 --cache-dir {{cache}}",
                f"extend --n {n} --cache-dir {{cache}}",
            ]
        return ops + ["appendix-a --cache-dir {cache}"]
    raise ValueError(f"unknown workload {workload!r}")


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_PASS_S[workload]))


def argv_for(template: str, seed: int, cache: str | None) -> list[str]:
    return template.format(seed=seed, cache=cache).split()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# Product formulas, written here apart from asmref.combinat so that the checks
# do not share code (or lru_caches) with the program under test.
def total_asm(n: int) -> int:
    value = 1
    for m in range(1, n):
        value = value * factorial(3 * m + 1) * factorial(m) // (
            factorial(2 * m) * factorial(2 * m + 1)
        )
    return value


def refined_row(n: int) -> list[int]:
    """A(n, 1..n) from A(n, 1) = A(n-1) and the ratio of neighbouring entries."""
    row = [Fraction(total_asm(n - 1))]
    for k in range(1, n):
        row.append(row[-1] * (n - k) * (n + k - 1) / (k * (2 * n - k - 1)))
    if any(v.denominator != 1 for v in row):
        raise ArithmeticError(f"non-integral refined row at n={n}")
    return [int(v) for v in row]


def _ints(text: str) -> list[list[int]]:
    return [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]


def _check_count_d1(n: int, out: str) -> list[str]:
    (row,) = _ints(out)
    problems = []
    if row != refined_row(n):
        problems.append(f"d=1 row differs from the product formula: {row}")
    if sum(row) != total_asm(n):
        problems.append(f"row sum {sum(row)} != total {total_asm(n)}")
    return problems


def _check_count_d2(n: int, out: str) -> list[str]:
    # A(n; i, n) counts the order n-1 matrices refined at column i
    last = {i: value for i, j, value in _ints(out) if j == n}
    if last != dict(enumerate(refined_row(n - 1), 1)):
        return [f"last column {last} differs from the order {n - 1} product formula"]
    return []


def _check_indices(n: int, out: str) -> list[str]:
    (value,) = _ints(out)[0]
    expected = refined_row(n - 1)[1]
    return [] if value == expected else [f"count {value} != product formula {expected}"]


def _check_extend(n: int, out: str) -> list[str]:
    last = _ints(out)[-1]
    row = refined_row(n - 1)
    expected = [-sum(row[j - 1:]) for j in range(1, n + 1)]
    return [] if last == expected else [f"last row {last} != partial sums {expected}"]


_VERIFY_SUMMARY = re.compile(r"^(\S+): PASS \(\d+\.\.\d+\)$")


def check_output(template: str, code: int, out: str, expected: dict) -> list[str]:
    """Every problem found with one op's exit code and stdout."""
    record = expected.get(template)
    if record is None:
        return [f"no recorded output for {template!r}"]
    problems = []
    if code != record["exit"]:
        problems.append(f"exit code {code} != {record['exit']}")
    if digest(out) != record["sha256"]:
        problems.append("stdout differs from the recorded output")
    words = template.split()
    n = int(words[words.index("--n") + 1]) if "--n" in words else None
    try:
        if words[0] == "verify":
            lines = out.splitlines()
            match = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
            if not match or match.group(1) != words[1]:
                problems.append("no PASS summary line")
        elif words[0] == "extend":
            problems += _check_extend(n, out)
        elif words[0] == "count" and "--indices" in words:
            problems += _check_indices(n, out)
        elif words[0] == "count":
            d = words[words.index("--d") + 1]
            problems += (_check_count_d1 if d == "1" else _check_count_d2)(n, out)
    except (ValueError, IndexError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems
