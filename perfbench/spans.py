"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the ``partmorse``
modules with wrappers that record a span per call: name, start, end and
the index of the enclosing span.  A function is replaced in every module
namespace that binds it, because modules call each other through their own
imported names (``construction`` and ``morse`` both bind
``patchwork_matching``) and through lazy imports that read the defining
module at call time (``matching_report`` imports ``validate_matching``
from ``morse``).  Calls too frequent for a span, such as
``ComplexAction.cell_image``, are only counted.  Spans stay in memory and
are written out once, after the workload.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "partmorse"

# span name -> (module, attribute path); the module is the one that
# defines the function, methods are given as "Class.method"
SPAN_TARGETS = {
    "setpart.enumerate_proper": ("setpart", "enumerate_proper"),
    "ordercomplex.proper_part_complex": ("ordercomplex", "proper_part_complex"),
    "ordercomplex.boundary_columns": ("ordercomplex", "OrderComplex.boundary_columns"),
    "perm.generate": ("perm", "PermGroup.generate"),
    "perm.complex_action": ("perm", "ComplexAction.__init__"),
    "perm.quotient_complex": ("perm", "QuotientComplex.__init__"),
    "perm.quotient_boundary_columns": ("perm", "QuotientComplex.boundary_columns"),
    "perm.orbits": ("perm", "orbits"),
    "construction.build_main_matching": ("construction", "build_main_matching"),
    "construction.fiber_zero_matching": ("construction", "fiber_zero_matching"),
    "construction.quotient_critical_cells": ("construction", "quotient_critical_cells"),
    "construction.matching_report": ("construction", "matching_report"),
    "morse.equivariant_patchwork_matching": ("morse", "equivariant_patchwork_matching"),
    "morse.patchwork_matching": ("morse", "patchwork_matching"),
    "morse.matching_init": ("morse", "Matching.__init__"),
    "morse.validate_matching": ("morse", "validate_matching"),
    "morse.find_cycle": ("morse", "find_cycle"),
    "morse.check_equivariance": ("morse", "check_equivariance"),
    "morse.closure_matching": ("morse", "closure_matching"),
    "morse.cone_matching": ("morse", "cone_matching"),
    "morse.quotient_matching": ("morse", "quotient_matching"),
    "morse.morse_data": ("morse", "morse_data"),
    "homology.homology_of": ("homology", "homology_of"),
    "homology.smith_normal_form": ("homology", "smith_normal_form"),
}

COUNTER_TARGETS = {
    "perm.cell_image_calls": ("perm", "ComplexAction.cell_image"),
}

# sizes counted by Tracer._after
SIZE_COUNTERS = (
    "ordercomplex.cells",
    "ordercomplex.boundary_nnz",
    "perm.group_order",
    "perm.vertex_maps",
    "perm.quotient_cells",
    "construction.pairs",
    "homology.snf_nnz",
    "homology.rank",
    "homology.torsion_factors",
    "homology.max_factor",
)

# counts read off span call numbers
CALL_COUNTS = {
    "morse.find_cycle_calls": "morse.find_cycle",
    "morse.matching_inits": "morse.matching_init",
    "homology.snf_calls": "homology.smith_normal_form",
}


def _nnz(matrix) -> int:
    if isinstance(matrix, tuple) and len(matrix) == 2 and isinstance(matrix[1], list):
        return sum(1 for col in matrix[1] for v in col.values() if v)
    return sum(1 for row in matrix for v in row if v)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(SIZE_COUNTERS, 0)
        self._call_cells: dict[str, list[int]] = {}
        self._seen_matchings: set[int] = set()
        self.installed: dict[str, int] = {}  # span name -> bindings replaced

    # -- size counters, run after the wrapped call returns ------------

    def _after(self, name, args, kwargs, out):
        c = self.counts
        if name == "ordercomplex.proper_part_complex":
            c["ordercomplex.cells"] += sum(out.f_vector())
        elif name == "ordercomplex.boundary_columns":
            c["ordercomplex.boundary_nnz"] += sum(len(col) for col in out)
        elif name == "perm.generate":
            c["perm.group_order"] += out.order
        elif name == "perm.complex_action":
            c["perm.vertex_maps"] += len(args[0].vertex_maps)
        elif name == "perm.quotient_complex":
            c["perm.quotient_cells"] += args[0].total_cells()
        elif name == "construction.build_main_matching":
            # the matching is cached, so count each one once
            if id(out) not in self._seen_matchings:
                self._seen_matchings.add(id(out))
                c["construction.pairs"] += len(out.pairs)
        elif name == "homology.smith_normal_form":
            c["homology.snf_nnz"] += _nnz(args[0])
            c["homology.rank"] += len(out)
            c["homology.torsion_factors"] += sum(1 for f in out if f > 1)
            c["homology.max_factor"] = max(c["homology.max_factor"], max(out, default=0))

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock, after = self.spans, self.stack, time.perf_counter, self._after

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            after(name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, name, fn):
        cell = self._call_cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every binding of every target in the loaded package."""
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for table, make in ((SPAN_TARGETS, self._span_wrapper), (COUNTER_TARGETS, self._counter_wrapper)):
            for name, (mod_name, path) in table.items():
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(make(name, raw.__func__)))
                    else:
                        setattr(cls, meth, make(name, raw))
                    self.installed[name] = 1
                    continue
                original = getattr(owner, path)
                wrapped = make(name, original)
                replaced = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            replaced += 1
                self.installed[name] = replaced

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of its direct child spans, per name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: 0.0 for name in SPAN_TARGETS}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[k]
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Span time per name, counting a recursive call once."""
        out = {name: 0.0 for name in SPAN_TARGETS}
        for name, start, end, parent in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out = {name: 0 for name in SPAN_TARGETS}
        for rec in self.spans:
            out[rec[0]] += 1
        return out

    def counters(self) -> dict[str, int]:
        out = dict(self.counts)
        for name, cell in self._call_cells.items():
            out[name] = cell[0]
        calls = self.calls()
        for name, span in CALL_COUNTS.items():
            out[name] = calls[span]
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path, wall_s: float):
        doc = {
            "wall_s": wall_s,
            "root_span_s": self.root_time(),
            "self_s": self.self_times(),
            "inclusive_s": self.inclusive_times(),
            "calls": self.calls(),
            "counters": self.counters(),
            "bindings_replaced": self.installed,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
