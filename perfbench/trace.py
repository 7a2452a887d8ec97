"""Span tracing from outside lcak, and the per-layer metrics built on it.

The tracer wraps public functions of the lcak modules (module functions are
rebound in every lcak namespace that imported them, methods on their class).
Each wrapped call records one span ``[name, item, parent, start_ns, end_ns,
error]``; the benchmark opens a root span named ``item`` around each item, so
every span has a parent and all spans of one item share its item id.  Spans
stay in memory until :func:`dump` writes them out.

Self time of a span is its duration minus the durations of its direct
children (calls are strictly nested in one thread, so children never
overlap).  A module's self time is the sum over its traced functions.
"""
from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import os
import pstats
import sys
import time

# metric name -> (module, class or None, attribute)
TARGETS = {
    "arith.nullspace": ("arith", None, "nullspace"),
    "arith.solve_least_squares": ("arith", None, "solve_least_squares"),
    "arith.determinant": ("arith", None, "determinant"),
    "arith.invert": ("arith", None, "invert"),
    "arith.is_positive_definite": ("arith", None, "is_positive_definite"),
    "algebra.jacobi_residual": ("algebra", "LieAlgebra", "jacobi_residual"),
    "algebra.bracket": ("algebra", "LieAlgebra", "bracket"),
    "forms.KForm.d": ("forms", "KForm", "d"),
    "forms.KForm.wedge": ("forms", "KForm", "wedge"),
    "forms.KForm.contract": ("forms", "KForm", "contract"),
    "hermitian.structure_init": ("hermitian", "AlmostHermitianStructure", "__init__"),
    "hermitian.lee_form": ("hermitian", "AlmostHermitianStructure", "lee_form"),
    "hermitian.nijenhuis": ("hermitian", "AlmostHermitianStructure", "nijenhuis"),
    "hermitian.codifferential": ("hermitian", "AlmostHermitianStructure", "codifferential"),
    "connection.levi_civita": ("connection", None, "levi_civita"),
    "connection.curvature_of": ("connection", None, "curvature_of"),
    "connection.covariant_one_form": ("connection", None, "covariant_one_form"),
    "connection.covariant_J": ("connection", None, "covariant_J"),
    "connection.star_ricci": ("connection", None, "star_ricci"),
    "conditions.classify_metric": ("conditions", None, "classify_metric"),
    "conditions.verify_equivalences": ("conditions", None, "verify_equivalences"),
    "conditions.check_first_kind": ("conditions", None, "check_first_kind"),
    "conditions.automorphism_algebra": ("conditions", None, "automorphism_algebra"),
    "conditions.check_adapted": ("conditions", None, "check_adapted"),
    "conditions.symplectic_feasibility": ("conditions", None, "symplectic_feasibility"),
    "almostabelian.build_almost_abelian": ("almostabelian", None, "build_almost_abelian"),
    "almostabelian.classify_4d": ("almostabelian", None, "classify_4d"),
    "almostabelian.lee_form_aa": ("almostabelian", None, "lee_form_aa"),
    "specfile.load_spec": ("specfile", None, "load_spec"),
    "specfile.run_report": ("specfile", None, "run_report"),
    "specfile.Report.to_json": ("specfile", "Report", "to_json"),
    "fuzzing.fuzz": ("fuzzing", None, "fuzz"),
}

# modules reported as a rollup only: every public function they define
ROLLUP_ONLY = ("identities",)

MODULES = ("arith", "algebra", "forms", "hermitian", "connection", "conditions",
           "almostabelian", "identities", "specfile", "fuzzing")

FEASIBILITY = "conditions.symplectic_feasibility"


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_ms"] = "ms"
    for mod in MODULES:
        out[f"{mod}.self_ms"] = "ms"
        out[f"{mod}.self_share"] = "fraction"
        out[f"{mod}.errors"] = "count"
    out["arith.fraction_calls"] = "count"
    out["conditions.eigh_calls"] = "count"
    out["tracing.item_ms"] = "ms"
    out["tracing.overhead_frac"] = "fraction"
    return out


class Tracer:
    """Records spans around the wrapped lcak functions while installed."""

    def __init__(self):
        self.spans = []          # [name, item, parent, start_ns, end_ns, error]
        self.stack = []          # indices of open spans
        self.item = None
        self.eigh_in_feasibility = 0
        self._patches = []       # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        self.spans.append([name, self.item, parent, time.perf_counter_ns(), None, False])
        self.stack.append(sid)
        return sid

    def _close(self, sid, error):
        span = self.spans[sid]
        span[4] = time.perf_counter_ns()
        span[5] = error
        self.stack.pop()

    def run_item(self, item_id, fn, *args):
        """Call ``fn(*args)`` inside the root span of one item."""
        self.item = item_id
        sid = self._open("item")
        try:
            return fn(*args)
        except BaseException:
            self.spans[sid][5] = True
            raise
        finally:
            self._close(sid, self.spans[sid][5])
            self.item = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            error = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                tracer._close(sid, error)
        return traced

    # -- installing the wrappers ---------------------------------------------------

    def _targets(self):
        for name, (mod, cls, attr) in TARGETS.items():
            module = importlib.import_module(f"lcak.{mod}")
            yield name, (getattr(module, cls) if cls else module), attr
        for mod in ROLLUP_ONLY:
            module = importlib.import_module(f"lcak.{mod}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    yield f"{mod}.{attr}", module, attr

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        namespaces = [m for key, m in sys.modules.items()
                      if key == "lcak" or key.startswith("lcak.")]
        for name, owner, attr in self._targets():
            original = inspect.getattr_static(owner, attr)
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            if inspect.ismodule(owner):
                # rebind `from .module import f` copies too
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original and ns is not owner:
                            self._patch(ns, key, wrapped)
        import numpy.linalg
        eigh = numpy.linalg.eigh
        tracer = self

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            if any(tracer.spans[s][0] == FEASIBILITY for s in tracer.stack):
                tracer.eigh_in_feasibility += 1
            return eigh(*args, **kwargs)
        self._patch(numpy.linalg, "eigh", counted_eigh)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------------

    def totals(self):
        """Per span name: calls, self_ns; per module: self_ns, errors; and
        the summed duration of the item root spans."""
        child_ns = [0] * len(self.spans)
        for name, _item, parent, start, end, _err in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls, self_ns, mod_self, mod_errors = {}, {}, {}, {}
        item_ns = 0
        for sid, (name, _item, parent, start, end, err) in enumerate(self.spans):
            if name == "item":
                item_ns += end - start
                continue
            own = end - start - child_ns[sid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            mod = name.split(".", 1)[0]
            mod_self[mod] = mod_self.get(mod, 0) + own
            # an exception leaves the layer when the caller is another module
            caller = self.spans[parent][0] if parent is not None else "item"
            if err and caller.split(".", 1)[0] != mod:
                mod_errors[mod] = mod_errors.get(mod, 0) + 1
        return calls, self_ns, mod_self, mod_errors, item_ns


def dump(path, spans, header):
    """Write spans (``parent`` is an index into the same list) as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "span_fields": ["name", "item", "parent", "start_ns",
                                             "end_ns", "error"],
                   "spans": spans}, fh, separators=(",", ":"))
        fh.write("\n")


def per_layer_metrics(tracer, items, fraction_calls, overhead_frac):
    """Per-item averages of the traced counts and self times."""
    calls, self_ns, mod_self, mod_errors, item_ns = tracer.totals()
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0) / items
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / items
    for mod in MODULES:
        out[f"{mod}.self_ms"] = mod_self.get(mod, 0) / 1e6 / items
        out[f"{mod}.self_share"] = mod_self.get(mod, 0) / item_ns if item_ns else 0.0
        out[f"{mod}.errors"] = mod_errors.get(mod, 0) / items
    out["arith.fraction_calls"] = fraction_calls
    out["conditions.eigh_calls"] = tracer.eigh_in_feasibility / items
    out["tracing.item_ms"] = item_ns / 1e6 / items
    out["tracing.overhead_frac"] = overhead_frac
    return out


def count_fraction_calls(fn):
    """Run ``fn()`` under cProfile; return the calls into the ``fractions``
    module (counts only, its timings are not used)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    suffix = os.sep + "fractions.py"
    return sum(stat[1] for (filename, _line, _func), stat
               in pstats.Stats(prof).stats.items() if filename.endswith(suffix))
