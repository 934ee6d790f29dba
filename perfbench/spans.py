"""Spans and counts around each layer's public entry points, from outside.

`install(tracer)` rebinds every site through which the program reaches a
traced function: module attributes (including names bound by
`from .x import y`), the `intersect.FORMULAS` entries, class attributes
of `CycleClass`, `ProjBundle` and the dataclasses whose `__post_init__`
validates input, and the cached `_inv_tangent_power`.  The returned
function restores every binding.  Nothing in the program is edited.

Spans are kept in memory as parallel arrays (name, parent, op, start,
end); a span's self time is its duration minus the durations of its
direct children.  Counts that do not depend on timing (calls per span
name, term products, peak term count, ambient equality tests, cache
misses) are what later changes cite, so they must repeat exactly for the
same inputs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

from workloads import FORMULA_NAMES

# span name -> (module, attribute path) of every function it covers
SPANS: dict[str, list[tuple[str, str]]] = {
    "chow.mul": [("chow", "CycleClass.__mul__")],
    "chow.inverse": [("chow", "CycleClass.inverse")],
    "chow.pow": [("chow", "CycleClass.__pow__")],
    "chow.add": [("chow", "CycleClass.__add__")],
    "chow.component": [("chow", "CycleClass.component")],
    "chow.parse": [("chow", "parse_class")],
    "chow.render": [("chow", "CycleClass.render")],
    "bundles.tensor_line": [("bundles", "tensor_line")],
    "bundles.dual": [("bundles", "dual")],
    "bundles.ctor": [("bundles", "BundleClass.__post_init__")],
    "strata.validate": [("strata", "StratifiedHypersurface.__post_init__")],
    "strata.gamma": [("strata", "gamma_weights")],
    "charclass.virtual": [("charclass", "virtual_class")],
    "charclass.milnor_pp": [("charclass", "milnor_pp")],
    "charclass.mu_route": [("charclass", "mu_class"), ("charclass", "aluffi_milnor")],
    "lecycles.convert": [("lecycles", "le_to_milnor"), ("lecycles", "milnor_to_le")],
    "intersect.inv_tangent": [("intersect", "_inv_tangent_power")],
    "projbundle.milnor_general": [("projbundle", "milnor_general")],
    "projbundle.identities": [("projbundle", "verify_tangent_identities"),
                              ("projbundle", "grothendieck_residual")],
    "projbundle.pushforward": [("chow", "ProjBundle.pushforward")],
    "scenario.parse": [("scenario", "parse_scenario"), ("scenario", "load_scenario_file")],
    "scenario.compute": [("scenario", "run_compute")],
    "scenario.report": [("scenario", "ScenarioReport.to_json"),
                        ("scenario", "ScenarioReport.to_text")],
    "cli.main": [("cli", "main")],
}
FORMULA_SPANS = {f"intersect.{name}": name for name in FORMULA_NAMES}
VERIFY_SUITES = ("ring", "bundle", "classes", "lecycles", "intersect", "projbundle")
AMBIENT_CLASSES = ("ProjSpace", "MultiProj", "ProjBundle")
PACKAGE = "milnor_classes"


def span_names() -> list[str]:
    return (list(SPANS) + list(FORMULA_SPANS)
            + [f"verify.{s}" for s in VERIFY_SUITES])


class Tracer:
    """In-memory span store plus the exact counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.term_products = 0
        self.peak_terms = 0
        self.ambient_eq_calls = 0

    def clear(self) -> None:
        """Drop recorded spans and counts; wrappers already made stay valid."""
        for store in (self.span_name, self.parent, self.op, self.start, self.end):
            del store[:]
        self.stack.clear()
        self.current_op = -1
        self.term_products = 0
        self.peak_terms = 0
        self.ambient_eq_calls = 0

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        """fn, recording one span per call under the given name."""
        idx = self.name_index(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            stack = tracer.stack
            tracer.span_name.append(idx)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                stack.pop()

        return traced

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds per span name, and every exact count."""
        count = len(self.start)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        self_s = {name: 0.0 for name in self.names}
        calls = {name: 0 for name in self.names}
        for sid in range(count):
            name = self.names[self.span_name[sid]]
            self_s[name] += self.end[sid] - self.start[sid] - child[sid]
            calls[name] += 1
        counts = {f"{name}_calls": v for name, v in calls.items()}
        counts["chow.term_products"] = self.term_products
        counts["chow.peak_terms"] = self.peak_terms
        counts["chow.ambient_eq_calls"] = self.ambient_eq_calls
        from milnor_classes.intersect import _inv_tangent_power

        counts["intersect.inv_tangent_misses"] = _inv_tangent_power.cache_info().misses
        return self_s, counts

    def dump(self, path: Path) -> None:
        """Write self times, counts and spans ([id, parent, op, name, start, end])."""
        self_s, counts = self.summary()
        rows = [[sid, self.parent[sid], self.op[sid], self.span_name[sid],
                 self.start[sid], self.end[sid]] for sid in range(len(self.start))]
        path.write_text(json.dumps({"self_s": self_s, "counts": counts,
                                    "names": self.names, "spans": rows}))


def _modules():
    return {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def install(tracer: Tracer):
    """Rebind every traced entry point; returns the function that undoes it."""
    mods = _modules()
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind_everywhere(original, wrapped):
        # every module namespace that bound the function by name
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    rebind(mod, attr, wrapped)

    for name, sites in SPANS.items():
        for modname, path in sites:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mods[modname], owner_name)
                counted = _with_counts(tracer, name, owner.__dict__[attr])
                rebind(owner, attr, tracer.wrap(name, counted))
            else:
                original = getattr(mods[modname], attr)
                rebind_everywhere(original, tracer.wrap(name, original))

    formulas = mods["intersect"].FORMULAS
    for name, key in FORMULA_SPANS.items():
        original = formulas[key]
        undo.append((formulas, key, original))
        formulas[key] = tracer.wrap(name, original)

    verify = mods["verify"]
    suite_wrappers = {s: tracer.wrap(f"verify.{s}", verify.run_suite) for s in VERIFY_SUITES}
    run_suite = verify.run_suite

    def traced_run_suite(suite, seed):
        return suite_wrappers.get(suite, run_suite)(suite, seed)

    rebind_everywhere(run_suite, traced_run_suite)

    chow = mods["chow"]
    for cls_name in AMBIENT_CLASSES:
        cls = getattr(chow, cls_name)
        rebind(cls, "__eq__", _counting_eq(tracer, cls.__dict__["__eq__"]))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    return restore


def _with_counts(tracer: Tracer, name: str, fn):
    """Add the term counters to the chow methods that produce classes."""
    if name == "chow.mul":
        @functools.wraps(fn)
        def mul(a, b):
            result = fn(a, b)
            if not isinstance(b, int):
                tracer.term_products += len(a.coeffs) * len(b.coeffs)
            tracer.peak_terms = max(tracer.peak_terms, len(result.coeffs))
            return result
        return mul
    if name in ("chow.inverse", "chow.pow"):
        @functools.wraps(fn)
        def producing(*args):
            result = fn(*args)
            tracer.peak_terms = max(tracer.peak_terms, len(result.coeffs))
            return result
        return producing
    return fn


def _counting_eq(tracer: Tracer, eq):
    @functools.wraps(eq)
    def counted(a, b):
        tracer.ambient_eq_calls += 1
        return eq(a, b)
    return counted
