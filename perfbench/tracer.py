"""Span tracing of asmref from outside the program, for the traced run.

The package imports functions by name (``from .triangles import alpha_count``),
so each traced function is replaced in every ``asmref`` module that holds it,
not only in the module that defines it; methods are replaced on their class.
Spans (name, start, end, parent, op) are kept in flat arrays in memory and
written out once the run is over.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

#: (module, attribute or Class.method, span name).  Several functions may share
#: a span name when they form one layer (the verifiers of one module, say).
TARGETS = (
    ("triangles", "build_table", "triangles.build_table"),
    ("triangles", "alpha_count", "triangles.alpha_count"),
    ("triangles", "refined_count", "triangles.refined_count"),
    ("triangles", "enumerate_asms", "triangles.enumerate_asms"),
    ("triangles", "complete_monotone_triangles", "triangles.enumerate_asms"),
    ("triangles", "asm_to_mt", "triangles.enumerate_asms"),
    ("triangles", "mt_to_asm", "triangles.enumerate_asms"),
    ("polynomials", "alpha_polynomial", "polynomials.alpha_polynomial"),
    ("polynomials", "PolyMulti.evaluate", "polynomials.evaluate"),
    ("polynomials", "gn_poly", "polynomials.gn_poly"),
    ("polynomials", "expand_in_binomial_basis", "polynomials.expand"),
    ("polynomials", "verify_alpha_identities", "polynomials.identities"),
    ("polynomials", "verify_gn_reflection", "polynomials.identities"),
    ("linalg", "solve_integer_system", "linalg.solve"),
    ("linalg", "invert_matrix", "linalg.invert"),
    ("extension", "extend_matrix", "extension.extend_matrix"),
    ("extension", "verify_theorem1", "extension.verify"),
    ("extension", "verify_theorem2", "extension.verify"),
    ("extension", "verify_special_values", "extension.verify"),
    ("extension", "verify_ilse", "extension.verify"),
    ("extension", "verify_zw_chain", "extension.verify"),
    ("extension", "verify_conjecture2", "extension.verify"),
    ("extension", "verify_conjecture3", "extension.verify"),
    ("extension", "verify_conjecture4", "extension.verify"),
    ("extension", "verify_triangular_system", "extension.verify"),
    ("extension", "explicit_formula", "extension.explicit_formula"),
    ("extension", "solve_sufficiency", "extension.solve_sufficiency"),
    ("extension", "sufficiency_system", "extension.solve_sufficiency"),
    ("combinat", "binom", "combinat.binom"),
    ("combinat", "binom_plus", "combinat.binom_plus"),
    ("combinat", "binom_at", "combinat.binom_at"),
    ("combinat", "harmonic", "combinat.harmonic"),
    ("combinat", "total_asm_count", "combinat.total_asm_count"),
    ("combinat", "refined_asm_count", "combinat.refined_asm_count"),
    ("documents", "TableCache.load", "documents.load"),
    ("documents", "TableCache.store", "documents.store"),
    ("cli", "main", "cli.main"),
)

MODULES = ("triangles", "polynomials", "linalg", "extension", "combinat", "documents", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(args, result) runs outside it."""
        self.names.append(name)
        name_id = len(self.names) - 1
        span_name, parent, op, start, end = (
            self.span_name, self.parent, self.op, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "asmref") -> int:
        """Wrap every binding of every target; returns the number of bindings."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        originals = []
        for module_name, attr, name in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                holder = getattr(module, cls_name)
                original = holder.__dict__[method]
                holders = [(holder, method)]
            else:
                original = getattr(module, attr)
                holders = [
                    (mod, key) for mod in modules
                    for key, value in vars(mod).items() if value is original
                ]
            wrapper = self.wrap(name, original, self._after(name))
            self._bindings += [(holder, key, original, wrapper) for holder, key in holders]
            originals.append(original)
        self.enable()
        # every binding must now go through a wrapper
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is original for original in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} was left unwrapped")
        return len(self._bindings)

    def enable(self) -> None:
        for holder, key, _, wrapper in self._bindings:
            setattr(holder, key, wrapper)

    def disable(self) -> None:
        for holder, key, original, _ in self._bindings:
            setattr(holder, key, original)

    def _after(self, name: str):
        counters = self.counters
        if name == "documents.load":
            def after(args, doc):
                counters["documents.load.hits" if doc is not None else "documents.load.misses"] += 1
        elif name == "documents.store":
            def after(args, _):
                cache, doc = args
                counters["documents.store.bytes"] += cache.path_for(doc.kind, doc.n, doc.d).stat().st_size
        elif name == "linalg.solve":
            def after(args, result):
                counters["linalg.solve.unknowns"] += result.num_unknowns
        else:
            after = None
        return after

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        count = len(self.start)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(count):
            name = self.names[self.span_name[i]]
            self_s[name] += end[i] - start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path, origin: float) -> None:
        """All spans as gzipped CSV, times in seconds from origin."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,op,name,start_s,end_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.parent[i]},{self.op[i]},{self.names[self.span_name[i]]},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n"
                )
