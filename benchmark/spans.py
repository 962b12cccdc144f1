"""Spans around the program's public functions, installed from outside.

Tracer.install swaps each target function for a wrapper in every loaded
module of the package that holds it (modules import functions by name, so
one swap per holder is needed); uninstall puts the originals back.  Spans
stay in memory as [name, parent, op, start, end] lists.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = (
    ("gauss", "crossings_of", "gauss.crossings"),
    ("presentation", "knot_presentation", "presentation.build"),
    ("presentation", "reduce_with_trace", "presentation.reduce"),
    ("coloring", "enumerate_colorings", "coloring.scan"),
    ("coloring", "enumerate_colorings_oracle", "coloring.oracle"),
    ("invariant", "boltzmann_sum", "invariant.boltzmann"),
    ("invariant", "yb_invariant", "invariant.yb"),
    ("invariant", "yb_invariant_suite", "invariant.suite"),
    ("cohomology", "cocycle_matrix", "cohomology.cocycle_matrix"),
    ("cohomology", "coboundary_basis", "cohomology.basis"),
    ("cohomology", "cohomology_basis", "cohomology.basis"),
    ("cohomology", "reduced_cohomology_basis", "cohomology.basis"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "RankTracker.add", "linalg.rank_tracker"),
    ("search", "propagate", "search.propagate"),
    ("search", "complete_partial", "search.branch"),
    ("search", "enumerate_biquandles", "search.enumerate"),  # its complete_partial counts
    ("core", "validate_biquandle", "core.validate"),
)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None
        self._swaps: list[tuple[object, str, object, object]] = []
        self._survivors = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, self._op, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself; op names the operation
        that all spans below it belong to."""
        if op is not None:
            self._op = op
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counters read where the work happens.
    def _after_presentation_reduce(self, args, result):
        self._survivors = len(result[0].generators)

    def _after_coloring_scan(self, args, result):
        # the reduction just run inside this scan fixed the survivor count
        self.counts["coloring.candidates"] += args[1].n ** self._survivors
        self.counts["coloring.found"] += len(result)

    def _after_linalg_rref(self, args, result):
        self.counts["linalg.rref_cells"] += args[0].rows * args[0].cols

    def _after_search_branch(self, args, result):
        self.counts["search.solutions"] += len(result)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == self.package or k.startswith(self.package + "."))]
        for mod_name, attr, name in TARGETS:
            holder = sys.modules[f"{self.package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(holder, cls_name)
                orig = cls.__dict__[meth]
                self._swap(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(holder, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._swap(mod, key, orig, wrapper)

    def _swap(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._swaps.append((owner, key, orig, wrapper))

    def uninstall(self) -> None:
        for owner, key, orig, _wrapper in reversed(self._swaps):
            setattr(owner, key, orig)
        self._swaps.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name."""
        child = defaultdict(float)
        for _name, parent, _op, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        selfs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, _parent, _op, start, end) in enumerate(self.spans):
            selfs[name] += (end - start) - child[i]
            calls[name] += 1
        return selfs, calls

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()
