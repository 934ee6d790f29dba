"""Scenario files: parsing, validation, computation dispatch, reports.

A scenario file is a JSON document naming one ambient space, a list of
hypersurfaces (strata and/or Le-cycle data, optional Segre descriptor of
the singular locus, optional oracle and expected values), an optional
intersection block, an optional general-case block and optional tasks.
parse_scenario checks the whole document and returns typed values only;
run_compute reads those, and its only input error is a --formula choice
that `check_formulas` rejects before anything is computed.  ROUTES states
each route to a Milnor class once: its --formula group, the data it needs
and the result keys it adds; `runs` decides from it which routes a run
computes, and `check_formulas` which --formula choices leave a requested
check unrun.  Reports carry a human-readable table and a machine-readable
JSON rendering with canonical class text as values; identical inputs yield
byte-identical reports once timing is suppressed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Collection

from .chow import AmbientSpace, CycleClass, MultiProj, ProjSpace, int_text, parse_class
from .bundles import BundleClass, direct_sum, line_bundle, trivial_bundle
from .charclass import (
    ClassBundle3,
    aluffi_milnor,
    class_triple,
    hypersurface_classes,
    mu_class,
    segre_builtin,
)
from .intersect import FORMULAS, IntersectionScenario, agree, cross_validate
from .lecycles import le_to_milnor
from .projbundle import GeneralCaseInput, make_bundle_ring, milnor_general
from .strata import (
    StratifiedHypersurface,
    Stratum,
    linear_closure,
    point_closure,
)


class ScenarioError(ValueError):
    """Invalid scenario data; carries the offending field path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


# -- parsing -------------------------------------------------------------------

TASK_KINDS = ("hypersurfaces", "intersection", "general_case")
# Every route to a Milnor class: its --formula group (None: always runs), the
# data fields each hypersurface it reads must have, and the hypersurface result
# keys it adds.  intersect.FORMULAS are the intersection routes.
ROUTES = {
    "classes": (None, (), ("virt", "csm", "milnor", "chi")),
    "thm41": ("thm41", (), ()),
    "cor11": ("cor11", (), ()),
    "cor12": ("cor12", (), ()),
    "pp_ais": ("pp", ("strata",), ()),
    "pp_full": ("pp", ("strata",), ()),
    "le": (None, ("strata", "le_cycles"), ("milnor-le",)),
    "aluffi": ("aluffi", ("strata", "sing_segre"), ("mu-class", "milnor-aluffi")),
}
# the route behind each result key an `expected` block may name
RESULT_ROUTES = {key: route for route, (_, _, keys) in ROUTES.items() for key in keys}
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value: Any, kind: type, fieldpath: str) -> Any:
    """A JSON object, list or string field of the expected type."""
    if not isinstance(value, kind):
        raise ScenarioError(fieldpath, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _checked(fieldpath: str, fn: Callable, *args: Any) -> Any:
    """fn(*args), with a ValueError it raises reported at fieldpath."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ScenarioError(fieldpath, str(exc)) from exc


def _keyed(data: Any, allowed: Collection[str], fieldpath: str, what: str) -> dict:
    """A JSON object each of whose keys is one of allowed."""
    for key in sorted(_typed(data, dict, fieldpath)):
        if key not in allowed:
            raise ScenarioError(f"{fieldpath}.{key}",
                                f"unknown {what}; choose from {sorted(allowed)}")
    return data


def _require(mapping: dict, key: str, fieldpath: str) -> Any:
    if key not in _typed(mapping, dict, fieldpath):
        raise ScenarioError(f"{fieldpath}.{key}", "missing required field")
    return mapping[key]


def _int(value: Any, fieldpath: str) -> int:
    """An integer field; bools, floats and numeric text are input errors."""
    if type(value) is not int:
        raise ScenarioError(fieldpath, f"expected an integer, got {value!r}")
    return value


def _int_tuple(values: Any, fieldpath: str) -> tuple[int, ...]:
    return tuple(_int(v, f"{fieldpath}[{i}]")
                 for i, v in enumerate(_typed(values, list, fieldpath)))


def _name(data: dict, fieldpath: str) -> str:
    return _typed(_require(data, "name", fieldpath), str, f"{fieldpath}.name")


def parse_ambient(data: Any, fieldpath: str = "ambient") -> AmbientSpace:
    kind = _require(data, "kind", fieldpath)
    if kind == "proj":
        cls, arg = ProjSpace, _int(_require(data, "n", fieldpath), f"{fieldpath}.n")
    elif kind == "multiproj":
        cls, arg = MultiProj, _int_tuple(_require(data, "dims", fieldpath),
                                         f"{fieldpath}.dims")
    else:
        raise ScenarioError(f"{fieldpath}.kind",
                            f"unknown ambient kind {kind!r} (proj or multiproj)")
    _keyed(data, ("kind", "n" if cls is ProjSpace else "dims"), fieldpath, "field")
    return _checked(fieldpath, cls, arg)


def _parse_class(ambient: AmbientSpace, text: Any, fieldpath: str) -> CycleClass:
    if not isinstance(text, str):
        raise ScenarioError(fieldpath, f"expected canonical class text, got {text!r}")
    return _checked(fieldpath, parse_class, ambient, text)


def _parse_stratum(ambient: AmbientSpace, data: dict, lb: BundleClass,
                   fieldpath: str) -> Stratum:
    _keyed(data, ("name", "dim", "milnor_fiber_chi", "contained_in", "closure", "csm_closure"),
           fieldpath, "field")
    name = _name(data, fieldpath)
    dim = _int(_require(data, "dim", fieldpath), f"{fieldpath}.dim")
    chif = _int(_require(data, "milnor_fiber_chi", fieldpath),
                f"{fieldpath}.milnor_fiber_chi")
    cpath = f"{fieldpath}.contained_in"
    contained = frozenset(_typed(c, str, f"{cpath}[{k}]") for k, c in
                          enumerate(_typed(data.get("contained_in", []), list, cpath)))
    closure_spec = data.get("closure")
    kpath = f"{fieldpath}.closure"
    if closure_spec is None:
        if contained:
            raise ScenarioError(kpath, "singular strata need closure data")
        closure_class, csm = lb.c1(), None
    elif closure_spec == "point":
        closure_class, csm = point_closure(ambient, 1)
    elif isinstance(closure_spec, dict) and "points" in closure_spec:
        count = _int(_keyed(closure_spec, ("points",), kpath, "field")["points"],
                     f"{kpath}.points")
        closure_class, csm = _checked(kpath, point_closure, ambient, count)
    elif isinstance(closure_spec, dict) and "linear" in closure_spec:
        m = _int(_keyed(closure_spec, ("linear",), kpath, "field")["linear"],
                 f"{kpath}.linear")
        closure_class, csm = _checked(kpath, linear_closure, ambient, m)
    elif isinstance(closure_spec, dict) and "class" in closure_spec:
        _keyed(closure_spec, ("class", "csm"), kpath, "field")
        closure_class = _parse_class(ambient, closure_spec["class"], f"{kpath}.class")
        csm = _parse_class(ambient, _require(closure_spec, "csm", kpath), f"{kpath}.csm")
    else:
        raise ScenarioError(kpath, f"unknown closure shorthand {closure_spec!r}")
    oracle_csm = data.get("csm_closure")
    if oracle_csm is not None:
        csm = _parse_class(ambient, oracle_csm, f"{fieldpath}.csm_closure")
    return Stratum(name=name, dim=dim, milnor_fiber_chi=chif,
                   closure_class=closure_class, csm_closure=csm,
                   contained_in=contained)


class HypersurfaceSpec:
    __slots__ = ("name", "hyp", "line_bundle", "le", "segre", "oracle_csm", "oracle_chi",
                 "expected")

    def __init__(self, name: str, hyp: StratifiedHypersurface | None,
                 line_bundle: BundleClass, le: CycleClass | None, segre: CycleClass | None,
                 oracle_csm: CycleClass | None, oracle_chi: int | None):
        self.name = name
        self.hyp = hyp                      # None when only Le data is given
        self.line_bundle = line_bundle
        self.le = le                        # total Le class, sum of the Lambda_k
        self.segre = segre
        self.oracle_csm = oracle_csm
        self.oracle_chi = oracle_chi
        self.expected: dict[str, int | CycleClass] = {}  # "chi" -> int, other keys -> class


class IntersectionSpec:
    __slots__ = ("members", "expected", "support")

    def __init__(self, members: list[HypersurfaceSpec], expected: CycleClass | None,
                 support: list[CycleClass] | None):
        self.members = members              # the named hypersurfaces, in order
        self.expected = expected
        self.support = support


class GeneralCaseSpec:
    __slots__ = ("input", "expected")

    def __init__(self, input: GeneralCaseInput, expected: CycleClass | None):
        self.input = input
        self.expected = expected


class Scenario:
    __slots__ = ("name", "ambient", "hypersurfaces", "intersection", "general_case", "tasks")

    def __init__(self, name: str, ambient: AmbientSpace,
                 hypersurfaces: list[HypersurfaceSpec],
                 intersection: IntersectionSpec | None, general_case: GeneralCaseSpec | None,
                 tasks: list[str]):
        self.name = name
        self.ambient = ambient
        self.hypersurfaces = hypersurfaces
        self.intersection = intersection
        self.general_case = general_case
        self.tasks = tasks                  # TASK_KINDS entries, in report order


def _parse_hypersurface(ambient: AmbientSpace, hdata: Any,
                        fieldpath: str) -> HypersurfaceSpec:
    _keyed(hdata, ("name", "multidegree", "strata", "le_cycles", "sing_segre", "oracle",
                   "expected"), fieldpath, "field")
    hname = _name(hdata, fieldpath)
    multideg = _int_tuple(_require(hdata, "multidegree", fieldpath),
                          f"{fieldpath}.multidegree")
    lb = _checked(f"{fieldpath}.multidegree", line_bundle, ambient, multideg)
    if min(multideg) < 0 or not lb.c1():
        # a hypersurface is an effective nonzero divisor; line_bundle itself
        # stays permissive, since twists use negative degrees.  An entry on a
        # P^0 factor does not count: its hyperplane class is 0.
        raise ScenarioError(f"{fieldpath}.multidegree",
                            f"{list(multideg)} is not the class of a hypersurface: entries "
                            "must be >= 0 and the class nonzero")

    hyp = None
    if "strata" in hdata:
        strata = tuple(
            _parse_stratum(ambient, s, lb, f"{fieldpath}.strata[{j}]")
            for j, s in enumerate(_typed(hdata["strata"], list, f"{fieldpath}.strata")))
        names = {s.name for s in strata}
        for j, s in enumerate(strata):
            unknown = s.contained_in - names
            if unknown:
                raise ScenarioError(
                    f"{fieldpath}.strata[{j}].contained_in",
                    f"unknown stratum name(s) {sorted(unknown)}")
        hyp = _checked(f"{fieldpath}.strata", StratifiedHypersurface,
                       hname, ambient, lb, strata)

    le = None
    if "le_cycles" in hdata:
        # entry k is Lambda_k, homogeneous of codimension n - k; their sum
        # fixes every entry, so the spec keeps only the total class
        n = ambient.dimension
        le = ambient.zero()
        for k, v in _typed(hdata["le_cycles"], dict, f"{fieldpath}.le_cycles").items():
            kpath = f"{fieldpath}.le_cycles[{k}]"
            if k not in map(str, range(n + 1)):  # no int(k): k may have any length
                raise ScenarioError(kpath, f"key must be an integer in 0..{n}")
            lam = _parse_class(ambient, v, kpath)
            if lam != lam.component(n - int(k)):
                raise ScenarioError(kpath, f"Lambda_{k} must be homogeneous of "
                                    f"codimension {n - int(k)}")
            le = le + lam
    if hyp is None and le is None:
        raise ScenarioError(fieldpath, "needs strata and/or le_cycles data")

    segre = None
    if "sing_segre" in hdata:
        sdata = _keyed(hdata["sing_segre"], ("center", "arg"), f"{fieldpath}.sing_segre",
                       "field")
        center = _require(sdata, "center", f"{fieldpath}.sing_segre")
        arg = _int(_require(sdata, "arg", f"{fieldpath}.sing_segre"),
                   f"{fieldpath}.sing_segre.arg")
        segre = _checked(f"{fieldpath}.sing_segre", segre_builtin, ambient, center, arg)

    oracle = _keyed(hdata.get("oracle", {}), ("chi", "csm"), f"{fieldpath}.oracle",
                    "oracle key")
    oracle_csm = (None if "csm" not in oracle else
                  _parse_class(ambient, oracle["csm"], f"{fieldpath}.oracle.csm"))
    oracle_chi = (None if "chi" not in oracle else
                  _int(oracle["chi"], f"{fieldpath}.oracle.chi"))
    spec = HypersurfaceSpec(name=hname, hyp=hyp, line_bundle=lb, le=le, segre=segre,
                            oracle_csm=oracle_csm, oracle_chi=oracle_chi)
    epath = f"{fieldpath}.expected"
    expected = _keyed(hdata.get("expected", {}), RESULT_ROUTES, epath, "result key")
    for key, want in sorted(expected.items()):
        kpath = f"{epath}.{key}"
        if not runs(RESULT_ROUTES[key], set(), [spec]):
            needs = ROUTES[RESULT_ROUTES[key]][1]
            raise ScenarioError(kpath, f"needs {' and '.join(needs)} data")
        spec.expected[key] = (_int(want, kpath) if key == "chi"
                              else _parse_class(ambient, want, kpath))
    return spec


def _parse_intersection(ambient: AmbientSpace, block: Any,
                        specs: list[HypersurfaceSpec]) -> IntersectionSpec:
    _keyed(block, ("hypersurfaces", "expected", "support"), "intersection", "field")
    names = _typed(_require(block, "hypersurfaces", "intersection"), list,
                   "intersection.hypersurfaces")
    by_name = {s.name: s for s in specs}
    for j, ref in enumerate(names):
        if _typed(ref, str, f"intersection.hypersurfaces[{j}]") not in by_name:
            raise ScenarioError(f"intersection.hypersurfaces[{j}]",
                                f"unknown hypersurface {ref!r}")
        if ref in names[:j]:  # X cap X is not a transversal intersection
            raise ScenarioError(f"intersection.hypersurfaces[{j}]", f"{ref!r} is named twice")
    if len(names) < 2:
        raise ScenarioError("intersection.hypersurfaces",
                            f"an intersection needs r >= 2 hypersurfaces, got {len(names)}")
    exp = _keyed(block.get("expected", {}), ("milnor",), "intersection.expected", "result key")
    expected = (None if "milnor" not in exp else
                _parse_class(ambient, exp["milnor"], "intersection.expected.milnor"))
    support = block.get("support")
    if support is not None:
        support = [_parse_class(ambient, text, f"intersection.support[{j}]") for j, text
                   in enumerate(_typed(support, list, "intersection.support"))]
    return IntersectionSpec([by_name[ref] for ref in names], expected, support)


def _parse_general_case(block: Any) -> GeneralCaseSpec:
    _keyed(block, ("base", "bundle", "milnor_tilde", "expected"), "general_case", "field")
    base = parse_ambient(_require(block, "base", "general_case"), "general_case.base")
    bpath = "general_case.bundle"
    bdata = _typed(_require(block, "bundle", "general_case"), dict, bpath)
    _keyed(bdata, ("line_multidegrees",) if "line_multidegrees" in bdata else ("rank", "chern"),
           bpath, "field")
    if "line_multidegrees" in bdata:
        e = trivial_bundle(base, 0)
        lpath = f"{bpath}.line_multidegrees"
        for j, degs in enumerate(_typed(bdata["line_multidegrees"], list, lpath)):
            e = direct_sum(e, _checked(f"{lpath}[{j}]", line_bundle, base,
                                       _int_tuple(degs, f"{lpath}[{j}]")))
    elif "rank" in bdata and "chern" in bdata:
        chern = _parse_class(base, bdata["chern"], f"{bpath}.chern")
        e = _checked(bpath, BundleClass, base, _int(bdata["rank"], f"{bpath}.rank"), chern)
    else:
        raise ScenarioError(bpath, "needs line_multidegrees or rank+chern")
    ring = _checked(bpath, make_bundle_ring, base, e)
    mtilde = _parse_class(ring, _require(block, "milnor_tilde", "general_case"),
                          "general_case.milnor_tilde")
    expected = (None if "expected" not in block else
                _parse_class(base, block["expected"], "general_case.expected"))
    return GeneralCaseSpec(GeneralCaseInput(ring, mtilde), expected)


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    """Check a scenario document and build every value the compute stage reads."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario", "top level must be a JSON object")
    # derivation and expect_fail are notes for the reader; nothing reads them
    _keyed(data, ("name", "derivation", "expect_fail", "ambient", "hypersurfaces",
                  "intersection", "general_case", "tasks"), "scenario", "field")
    ambient = parse_ambient(_require(data, "ambient", "scenario"))
    hyps: list[HypersurfaceSpec] = []
    for i, hdata in enumerate(_typed(data.get("hypersurfaces", []), list, "hypersurfaces")):
        spec = _parse_hypersurface(ambient, hdata, f"hypersurfaces[{i}]")
        if any(h.name == spec.name for h in hyps):
            raise ScenarioError(f"hypersurfaces[{i}].name", f"duplicate name {spec.name!r}")
        hyps.append(spec)
    intersection = (None if data.get("intersection") is None else
                    _parse_intersection(ambient, data["intersection"], hyps))
    general = (None if data.get("general_case") is None else
               _parse_general_case(data["general_case"]))

    present = {"hypersurfaces": bool(hyps), "intersection": intersection is not None,
               "general_case": general is not None}
    if not any(present.values()):
        raise ScenarioError("scenario", "nothing to compute: give hypersurfaces, "
                            "an intersection or a general_case block")
    tasks = []
    for i, task in enumerate(_typed(data.get("tasks", []), list, "tasks")):
        # "verify" is the intersection cross-check; both renderings of the
        # report are always produced, so there is no "report" task
        kind = ("intersection" if "verify" in _typed(task, dict, f"tasks[{i}]")
                else task.get("compute"))
        if "report" in task or kind not in TASK_KINDS:
            raise ScenarioError(f"tasks[{i}]", f"unknown task {task!r}: use "
                                f"{{'compute': {'|'.join(TASK_KINDS)}}} or {{'verify': ...}}")
        if not present[kind]:
            raise ScenarioError(f"tasks[{i}]", f"no {kind} block to compute")
        tasks.append(kind)
    return Scenario(name=_typed(data.get("name", name), str, "name"), ambient=ambient,
                    hypersurfaces=hyps, intersection=intersection, general_case=general,
                    tasks=tasks or [kind for kind in TASK_KINDS if present[kind]])


def load_scenario_file(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deeply
        raise ScenarioError(str(p), f"invalid JSON: {exc}") from exc
    return parse_scenario(data, name=p.stem)


# -- report --------------------------------------------------------------------


class ReportSection:
    __slots__ = ("kind", "title", "results", "verdicts", "notes")

    def __init__(self, kind: str, title: str):
        self.kind = kind
        self.title = title
        self.results: dict[str, str] = {}
        self.verdicts: dict[str, bool] = {}
        self.notes: list[str] = []


class ScenarioReport:
    __slots__ = ("name", "sections", "timing_ms")

    def __init__(self, name: str):
        self.name = name
        self.sections: list[ReportSection] = []
        self.timing_ms: float | None = None

    @property
    def ok(self) -> bool:
        return all(v for s in self.sections for v in s.verdicts.values())

    def to_text(self) -> str:
        lines = [f"scenario: {self.name}"]
        for s in self.sections:
            lines.append(f"== {s.title} ==")
            for k, v in s.results.items():
                lines.append(f"{k}: {v}")
            for k, v in s.verdicts.items():
                lines.append(f"{k}: {'yes' if v else 'no'}"
                             if k == "formulas-agree"
                             else f"verdict {k}: {'PASS' if v else 'FAIL'}")
            for note in s.notes:
                lines.append(f"note: {note}")
        lines.append(f"summary: {'PASS' if self.ok else 'FAIL'}")
        if self.timing_ms is not None:
            lines.append(f"timing-ms: {self.timing_ms:.1f}")
        return "\n".join(lines) + "\n"

    def to_json_doc(self) -> dict:
        doc: dict[str, Any] = {
            "name": self.name,
            "sections": [
                {"kind": s.kind, "title": s.title, "results": s.results,
                 "verdicts": s.verdicts, "notes": s.notes}
                for s in self.sections],
            "ok": self.ok,
        }
        if self.timing_ms is not None:
            doc["timing_ms"] = round(self.timing_ms, 1)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2) + "\n"


# -- computation ---------------------------------------------------------------


def _hyp_class_triple(spec: HypersurfaceSpec) -> ClassBundle3:
    """Class triple for one hypersurface, Milnor class from strata or Le data.

    The oracle CSM class, when supplied, takes precedence.
    """
    if spec.hyp is not None:
        return hypersurface_classes(spec.hyp, spec.oracle_csm)
    return class_triple(spec.line_bundle, le_to_milnor(spec.le, spec.line_bundle),
                        spec.oracle_csm)


def _hypersurface_section(spec: HypersurfaceSpec, cb: ClassBundle3,
                          formulas: set[str]) -> ReportSection:
    sec = ReportSection(kind="hypersurface", title=f"hypersurface {spec.name}")
    sec.results["virt"] = cb.virt.render()
    sec.results["csm"] = cb.csm.render()
    sec.results["milnor"] = cb.milnor.render()
    sec.results["chi"] = int_text(cb.csm.degree())
    if spec.oracle_csm is not None:
        # meaningful only against an independently supplied CSM class; the
        # derived class satisfies the identity by construction
        sec.verdicts["definition-identity"] = cb.definition_identity_holds()
    if spec.oracle_chi is not None:
        sec.verdicts["chi-oracle"] = cb.csm.degree() == spec.oracle_chi
    if runs("le", formulas, [spec]):
        milnor_le = le_to_milnor(spec.le, spec.line_bundle)
        sec.results["milnor-le"] = milnor_le.render()
        sec.verdicts["le-agrees"] = milnor_le == cb.milnor
    if runs("aluffi", formulas, [spec]):
        mu = mu_class(spec.hyp, spec.segre)
        am = aluffi_milnor(spec.hyp, mu)
        sec.results["mu-class"] = mu.render()
        sec.results["milnor-aluffi"] = am.render()
        sec.verdicts["aluffi-agrees"] = am == cb.milnor
    for key, want in spec.expected.items():
        # results hold canonical text, which is unique per class
        got = sec.results.get(key)
        sec.verdicts[f"expected-{key}"] = got == (int_text(want) if key == "chi" else want.render())
        if got is None:
            sec.notes.append(f"expected key {key!r} was not computed")
    return sec


def runs(route: str, formulas: set[str], specs: list[HypersurfaceSpec]) -> bool:
    """Whether a selection (empty: all) picks the route's group and every spec has its data."""
    group, needs, _ = ROUTES[route]
    given = [{"strata": s.hyp, "le_cycles": s.le, "sing_segre": s.segre} for s in specs]
    return ((group is None or not formulas or group in formulas)
            and all(data[f] is not None for data in given for f in needs))


def check_formulas(sc: Scenario, formulas: set[str]) -> None:
    """Reject a formula selection that names no route group, or that leaves an
    expected result or an intersection unrun."""
    unknown = formulas - {group for group, _, _ in ROUTES.values()}
    if unknown:
        raise ScenarioError("formula", f"unknown formula group(s) {sorted(unknown)}")
    for i, spec in enumerate(sc.hypersurfaces if "hypersurfaces" in sc.tasks else ()):
        for key, route in RESULT_ROUTES.items():
            if key in spec.expected and not runs(route, formulas, [spec]):
                raise ScenarioError(f"hypersurfaces[{i}].expected.{key}",
                                    f"computed only by the {ROUTES[route][0]} formula, "
                                    "which --formula leaves out")
    if "intersection" in sc.tasks and not intersection_formulas(sc, formulas):
        *rest, last = groups = {ROUTES[f][0]: ROUTES[f][1] for f in FORMULAS}
        needs = "".join(f" ({group} needs {' and '.join(fields)} on every member)"
                        for group, fields in groups.items() if fields)
        raise ScenarioError("intersection", "--formula leaves no intersection formula to "
                            f"run; choose {', '.join(rest)} or {last}{needs}")


def intersection_formulas(sc: Scenario, formulas: set[str]) -> tuple[str, ...]:
    """The intersection formulas a run computes, in report order."""
    return tuple(f for f in FORMULAS if runs(f, formulas, sc.intersection.members))


def _intersection_section(sc: Scenario, triple: Callable[[HypersurfaceSpec], ClassBundle3],
                          formulas: set[str]) -> ReportSection:
    block = sc.intersection
    sec = ReportSection(kind="intersection",
                        title="intersection " + " + ".join(s.name for s in block.members))
    # a selected formula whose data some member lacks: the per-stratum ones
    if any(runs(f, formulas, []) and not runs(f, formulas, block.members) for f in FORMULAS):
        sec.notes.append("per-stratum formulas skipped: Le-only hypersurface present")
    values = cross_validate(IntersectionScenario(sc.ambient, tuple(map(triple, block.members))),
                            intersection_formulas(sc, formulas))
    sec.results.update((name, value.render()) for name, value in values.items())
    checked = list(values.values())
    if block.expected is not None:
        sec.results["expected"] = block.expected.render()
        checked.append(block.expected)
    sec.verdicts["formulas-agree"] = agree(checked)
    if block.support is not None and values:
        allowed = {key for cls in block.support for key in cls.terms}
        sec.verdicts["support"] = checked[0].terms.keys() <= allowed
    return sec


def _general_case_section(sc: Scenario) -> ReportSection:
    block = sc.general_case
    sec = ReportSection(kind="general_case", title="general case")
    result = milnor_general(block.input)
    sec.results["milnor-tilde"] = block.input.milnor_of_tilde.render()
    sec.results["milnor"] = result.render()
    if block.expected is not None:
        sec.results["expected"] = block.expected.render()
        sec.verdicts["expected-match"] = result == block.expected
    return sec


def run_compute(sc: Scenario, formulas: set[str] | None = None,
                with_timing: bool = True) -> ScenarioReport:
    """Compute every task of a parsed scenario into a report.

    formulas are --formula choices; empty or holding "all" selects every
    route.  A selection that leaves a requested check unrun raises
    ScenarioError (`check_formulas`) before anything is computed.
    """
    start = time.monotonic()
    formulas = set() if not formulas or "all" in formulas else set(formulas)
    check_formulas(sc, formulas)
    report = ScenarioReport(name=sc.name)
    triples: dict[str, ClassBundle3] = {}

    def triple(spec: HypersurfaceSpec) -> ClassBundle3:
        # each hypersurface's classes are built once per run, whichever
        # sections ask for them
        if spec.name not in triples:
            triples[spec.name] = _hyp_class_triple(spec)
        return triples[spec.name]

    for task in sc.tasks:
        if task == "hypersurfaces":
            report.sections += [_hypersurface_section(spec, triple(spec), formulas)
                                for spec in sc.hypersurfaces]
        elif task == "intersection":
            report.sections.append(_intersection_section(sc, triple, formulas))
        else:
            report.sections.append(_general_case_section(sc))
    if with_timing:
        report.timing_ms = (time.monotonic() - start) * 1000.0
    return report
