"""Spans around relcomplex's public functions, kept in memory for the traced run.

The wrappers live here, in the benchmark; nothing under ``src/`` changes.
A function that other modules import by name (``from .homology import
homology``) is replaced in every relcomplex module that holds it, because a
call looks the name up in the caller's namespace.  Modules come from
``sys.modules``: ``import relcomplex.homology as m`` would bind the
function ``homology`` that the package re-exports, not the module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> (module, public functions measured as that span)
FUNCTIONS = {
    "cli": ("cli", ["main"]),
    "formats.parse": ("formats", ["parse", "to_complex", "to_poset", "to_relation", "to_topology"]),
    "formats.report": ("formats", ["write_report"]),
    "relations.dowker": ("relations", ["k_complex", "l_complex"]),
    "relations.other": ("relations", ["canonical_relation", "find_morphism", "are_equivalent"]),
    "posets.complex": ("posets", ["order_complex", "poset_dowker_complex"]),
    "posets.topology": ("posets", ["order_to_topology", "topology_to_order"]),
    "posets.other": ("posets", ["realize_as_poset_k_complex", "lattice_condition_witness"]),
    "collapses.sequence": ("collapses", ["collapse_leq_to_strict", "greedy_collapse"]),
    "collapses.verify": ("collapses", ["verify_sequence", "apply_step"]),
    "homology.self": ("homology", ["homology", "same_homology"]),
    "homology.boundary": ("homology", ["boundary_matrices"]),
    "homology.snf": ("homology", ["smith_normal_form"]),
    "closed_relations.verify": ("closed_relations", ["verify_closed_relation", "fiber"]),
}
# span name -> SimplicialComplex method, wrapped on the class
METHODS = {"complexes.construct": "__init__", "complexes.facets": "facets"}


def _nonzeros(matrices) -> int:
    return sum(len(row) - row.count(0) for m in matrices for row in m.entries)


# function name -> how it adds to the counters: (counts, args, result)
COUNTERS = {
    "main": lambda c, a, r: c.update({"cli.calls": 1}),
    "parse": lambda c, a, r: c.update({"formats.bytes_read": len(a[0].encode("utf-8"))}),
    "write_report": lambda c, a, r: c.update({"formats.bytes_written": len(r.encode("utf-8"))}),
    "__init__": lambda c, a, r: c.update({"complexes.constructed": 1}),
    "k_complex": lambda c, a, r: c.update({"relations.faces": len(r.faces)}),
    "l_complex": lambda c, a, r: c.update({"relations.faces": len(r.faces)}),
    "order_to_topology": lambda c, a, r: c.update({"posets.opens": len(r.opens)}),
    "topology_to_order": lambda c, a, r: c.update({"posets.opens": len(a[0].opens)}),
    "collapse_leq_to_strict": lambda c, a, r: c.update({"collapses.steps": len(r.steps)}),
    "greedy_collapse": lambda c, a, r: c.update({"collapses.steps": len(r[1].steps)}),
    "homology": lambda c, a, r: c.update({"homology.calls": 1}),
    "boundary_matrices": lambda c, a, r: c.update(
        {"homology.matrix_cells": sum(m.rows * m.cols for m in r), "homology.nonzeros": _nonzeros(r)}
    ),
    "fiber": lambda c, a, r: c.update({"closed_relations.fibers": 1}),
}


def _metric(span: str) -> str:
    return "cli.self_ms" if span == "cli" else f"{span}_ms"


# every per-layer metric the traced run prints, with its unit
TIMES = [_metric(span) for span in list(FUNCTIONS) + list(METHODS)]
COUNTS = [
    "cli.calls", "formats.bytes_read", "formats.bytes_written", "complexes.constructed",
    "relations.faces", "posets.opens", "collapses.steps", "homology.calls",
    "homology.matrix_cells", "homology.nonzeros", "closed_relations.fibers",
]
UNITS = dict({name: "ms" for name in TIMES}, **{name: "count" for name in COUNTS})


class Tracer:
    """Records (name, start, end, parent span, job id) for every wrapped call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.job = -1

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, span: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        count = COUNTERS.get(fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.job)
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the measured functions wherever relcomplex modules look them up."""
        modules = [m for name, m in sys.modules.items() if name == "relcomplex" or name.startswith("relcomplex.")]
        for span, (module, names) in FUNCTIONS.items():
            mod = sys.modules[f"relcomplex.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        cls = sys.modules["relcomplex.complexes"].SimplicialComplex
        for span, method in METHODS.items():
            setattr(cls, method, self._wrap(span, getattr(cls, method)))

    def layer_metrics(self) -> dict:
        """Self time per span name (ms) and the counters, totalled over the run."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total = dict.fromkeys(UNITS, 0)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            total[_metric(name)] += (end - start - covered[i]) * 1e3
        total.update(self.counts)
        return {name: {"value": total[name], "unit": UNITS[name]} for name in UNITS}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
