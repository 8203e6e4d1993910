"""In-process tracing of the package's layers, from outside the package.

``installed(tracer)`` wraps each function named in ``LAYERS`` in its
defining module and in every package module that bound the same object
with ``from ... import`` (``cli.mod_2s_group``, ``tower.cokernel``, ...),
and restores the originals on exit.  Methods are wrapped on their class.
Each wrapped call records one span: name, start, end and the span that
was open when it began.  Spans stay in memory, in flat arrays, until the
run writes them out with ``write_spans``.

``abelian.smith_normal_form`` times the elimination kernel
``abelian._snf_ext``: ``kernel``, ``cokernel``, ``image``,
``inverse_limit`` and the public ``smith_normal_form`` wrapper all call
it, and nothing in the package calls the public wrapper.

``verify`` is not wrapped: ``verify._CHECKS`` binds the check functions
at import, so the benchmark calls the public ``check_*`` functions itself
through ``Tracer.call`` under the span name ``verify.<check_id>``.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

PACKAGE = "etale_quadrics"

# module -> wrapped public functions (Class.method for methods)
LAYERS = {
    "cli": ("main",),
    "quadrics": (
        "decompose_motive",
        "assemble_cohomology",
        "nonalgebraic_report",
        "boundary_predicates",
    ),
    "graded": ("Graded2Group.from_entries", "Graded2Group.at", "Graded2Group.profiles"),
    "rost": ("rost_etale_table", "torsion_degrees", "chow_torsion_degrees"),
    "mod2": ("rost_etale_mod2", "cycle_image_mod2"),
    "tower": (
        "mod_2s_group",
        "transition_maps",
        "integral_cohomology",
        "etale_2adic",
        "CoefficientTower.limit",
        "CoefficientTower.les_order_identity",
    ),
    "abelian": ("kernel", "cokernel", "image", "inverse_limit", "smith_normal_form"),
    "presentations": ("graded_ranks", "compare_with_assembly"),
}

# span -> the module attribute it wraps, where that is not the span's name
TARGETS = {"abelian.smith_normal_form": "_snf_ext"}


class Tracer:
    """Spans, counters and maxima of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        nid = self._id(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()
        self._observe(name, args, result)
        return result

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "quadrics.assemble_cohomology":
            self.counters["quadrics.entries"] += len(result.entries)
        elif name.startswith("abelian."):
            for arg in args:
                for h in arg if isinstance(arg, (list, tuple)) else (arg,):
                    if hasattr(h, "domain") and hasattr(h, "codomain"):
                        cells = h.domain.ngens * h.codomain.ngens
                        self.maxima["abelian.max_hom_cells"] = max(
                            self.maxima["abelian.max_hom_cells"], cells
                        )

    def totals(self) -> dict[str, float]:
        """<span>.calls, <span>.s (inclusive; none of the wrapped functions
        calls itself, so no span nests in one of its own name),
        <module>.self_s (span time minus direct child spans), the counters
        and the maxima, summed over every recorded span."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            selfs[nid] += dur[i] - child[i]
            incl[nid] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] += calls[nid]
            out[f"{name}.s"] += incl[nid]
            out[f"{name.split('.')[0]}.self_s"] += selfs[nid]
        out.update(self.counters)
        out.update(self.maxima)
        return out

    def write_spans(self, path) -> None:
        """One JSON line [name, start, end, parent index] per span, in the
        order the spans began; parent is -1 for a top-level span."""
        with open(path, "w") as fh:
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(json.dumps([self.names[nid], s, e, p]) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYERS function for the duration of the block."""
    modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
    undo = []
    try:
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for qual in names:
                span = f"{layer}.{qual}"
                owner, _, attr = qual.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(tracer.wrap(span, raw.__func__))
                    else:
                        new = tracer.wrap(span, raw)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(mod, TARGETS.get(span, attr))
                new = tracer.wrap(span, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            undo.append((m, key, val))
                            setattr(m, key, new)
        yield tracer
    finally:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)
