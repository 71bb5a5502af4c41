"""Spans around calls into the package's public functions, recorded from
outside the package.

A function is traced by replacing its name in every ``abelianizer`` module
namespace that binds it, because ``correspondence`` and ``cli`` import by
name.  Spans stay in memory (name, start, end, parent) until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# The public functions whose calls are timed, by module.  The store's
# get/put run about 10^6 times per workload and are too hot to wrap; its
# counters come from MemoStore.stats() instead.
LAYERS = {
    "abelian_gw": ("check_wdvv", "gw_invariant", "three_point", "small_quantum_product",
                   "gw_of_classes", "two_point"),
    "correspondence": ("evaluate_formula", "i_bracket", "generate_formula",
                       "naive_vs_corrected", "assemble_and_check_wdvv", "check_two_point"),
    "cohomology": ("lift", "cup", "martin_integral"),
    "partitions": ("schur_polynomial", "rim_hook_reduce"),
    "grassmannian": ("quantum_cup", "schur_expand_product", "three_point", "fundamental_solution"),
    "jfunctions": ("i_function", "solve_c_coefficients"),
}
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
STORE_IO = ("abelian_gw.store.load", "abelian_gw.store.save")


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every LAYERS function and MemoStore.load/save in place."""
        import abelianizer.cli  # noqa: F401  (so that its by-name bindings are replaced too)

        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "abelianizer" or name.startswith("abelianizer."))]
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"abelianizer.{mod}")
            for fn in fns:
                orig = getattr(module, fn)
                wrapped = self.wrap(f"{mod}.{fn}", orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapped)
        store_cls = importlib.import_module("abelianizer.abelian_gw").MemoStore
        store_cls.load = self.wrap(STORE_IO[0], store_cls.load)
        store_cls.save = self.wrap(STORE_IO[1], store_cls.save)

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        return [(self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
                for i in range(len(self.start))]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, s, e, p in self.spans():
                fh.write(f"{name}\t{s!r}\t{e!r}\t{p}\n")


def layer_times(spans) -> dict[str, dict]:
    """Per name: calls, total_s and self_s.

    A span's self time is its duration minus the part of it that its child
    spans cover.  total_s counts only the outermost span of a recursive
    chain of one name, so no interval is counted twice.
    """
    n = len(spans)
    covered = [0.0] * n
    reach = [None] * n  # right end of the merged child intervals so far
    for i in sorted(range(n), key=lambda j: spans[j][1]):
        _, s, e, p = spans[i]
        if p < 0:
            continue
        _, ps, pe, _ = spans[p]
        s, e = max(s, ps), min(e, pe)
        if reach[p] is not None:
            s = max(s, reach[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    out: dict[str, dict] = {}
    for i, (name, s, e, p) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (e - s) - covered[i]
        q = p
        while q >= 0 and spans[q][0] != name:
            q = spans[q][3]
        if q < 0:
            row["total_s"] += e - s
    return out


def computed_calls(spans, name: str, child: str) -> int:
    """Number of `name` spans that have at least one direct `child` span."""
    reached = {sp[3] for sp in spans if sp[0] == child and sp[3] >= 0}
    return sum(1 for i in reached if spans[i][0] == name)
