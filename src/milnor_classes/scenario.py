"""Scenario files: parsing, validation, computation dispatch, reports.

A scenario file is a JSON document naming one ambient space, a list of
hypersurfaces (strata and/or Le-cycle data, optional Segre descriptor of
the singular locus, optional oracle and expected values), an optional
intersection block, an optional general-case block and optional tasks.
parse_scenario checks the whole document and returns typed values only;
run_compute reads those and raises no input errors.  Reports carry a
human-readable table and a machine-readable JSON rendering with canonical
class text as values; identical inputs yield byte-identical reports once
timing is suppressed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .chow import AmbientSpace, CycleClass, MultiProj, ProjSpace, parse_class
from .bundles import BundleClass, direct_sum, line_bundle, trivial_bundle
from .charclass import (
    ClassBundle3,
    aluffi_milnor,
    class_triple,
    hypersurface_classes,
    mu_class,
    segre_builtin,
)
from .intersect import FORMULAS, IntersectionScenario, cross_validate
from .lecycles import le_to_milnor
from .projbundle import GeneralCaseInput, make_bundle_ring, milnor_general
from .strata import (
    StratificationError,
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
# hypersurface result keys an `expected` block may name, with the data
# fields each one needs; the CLI also rejects mu-class and milnor-aluffi
# under a --formula choice without aluffi
RESULT_NEEDS = {"virt": (), "csm": (), "milnor": (), "chi": (),
                "milnor-le": ("strata", "le_cycles"),
                "mu-class": ("strata", "sing_segre"),
                "milnor-aluffi": ("strata", "sing_segre")}
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
    return _checked(fieldpath, cls, arg)


def _parse_class(ambient: AmbientSpace, text: Any, fieldpath: str) -> CycleClass:
    if not isinstance(text, str):
        raise ScenarioError(fieldpath, f"expected canonical class text, got {text!r}")
    return _checked(fieldpath, parse_class, ambient, text)


def _parse_stratum(ambient: AmbientSpace, data: dict, lb: BundleClass,
                   fieldpath: str) -> Stratum:
    name = _name(data, fieldpath)
    dim = _int(_require(data, "dim", fieldpath), f"{fieldpath}.dim")
    chif = _int(_require(data, "milnor_fiber_chi", fieldpath),
                f"{fieldpath}.milnor_fiber_chi")
    cpath = f"{fieldpath}.contained_in"
    contained = frozenset(_typed(c, str, f"{cpath}[{k}]") for k, c in
                          enumerate(_typed(data.get("contained_in", []), list, cpath)))
    closure_spec = data.get("closure")
    if closure_spec is None:
        if contained:
            raise ScenarioError(f"{fieldpath}.closure",
                                "singular strata need closure data")
        closure_class, csm = lb.c1(), None
    elif closure_spec == "point":
        closure_class, csm = point_closure(ambient, 1)
    elif isinstance(closure_spec, dict) and "points" in closure_spec:
        count = _int(closure_spec["points"], f"{fieldpath}.closure.points")
        closure_class, csm = _checked(f"{fieldpath}.closure", point_closure, ambient, count)
    elif isinstance(closure_spec, dict) and "linear" in closure_spec:
        m = _int(closure_spec["linear"], f"{fieldpath}.closure.linear")
        closure_class, csm = _checked(f"{fieldpath}.closure", linear_closure, ambient, m)
    elif isinstance(closure_spec, dict) and "class" in closure_spec:
        closure_class = _parse_class(ambient, closure_spec["class"],
                                     f"{fieldpath}.closure.class")
        csm = _parse_class(ambient, _require(closure_spec, "csm", f"{fieldpath}.closure"),
                           f"{fieldpath}.closure.csm")
    else:
        raise ScenarioError(f"{fieldpath}.closure",
                            f"unknown closure shorthand {closure_spec!r}")
    oracle_csm = data.get("csm_closure")
    if oracle_csm is not None:
        csm = _parse_class(ambient, oracle_csm, f"{fieldpath}.csm_closure")
    return Stratum(name=name, dim=dim, milnor_fiber_chi=chif,
                   closure_class=closure_class, csm_closure=csm,
                   contained_in=contained)


@dataclass
class HypersurfaceSpec:
    name: str
    hyp: StratifiedHypersurface | None       # None when only Le data is given
    line_bundle: BundleClass
    le: CycleClass | None                    # total Le class, sum of the Lambda_k
    segre: CycleClass | None
    oracle_csm: CycleClass | None
    oracle_chi: int | None
    expected: dict[str, int | CycleClass]    # "chi" -> int, other keys -> class


@dataclass
class IntersectionSpec:
    names: list[str]
    expected: CycleClass | None
    support: list[CycleClass] | None


@dataclass
class GeneralCaseSpec:
    input: GeneralCaseInput
    expected: CycleClass | None


@dataclass
class Scenario:
    name: str
    ambient: AmbientSpace
    hypersurfaces: list[HypersurfaceSpec]
    intersection: IntersectionSpec | None
    general_case: GeneralCaseSpec | None
    tasks: list[str]                         # TASK_KINDS entries, in report order


def _parse_hypersurface(ambient: AmbientSpace, hdata: Any,
                        fieldpath: str) -> HypersurfaceSpec:
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
            if not (isinstance(k, str) and k.isascii() and k.isdigit()
                    and k == str(int(k)) and int(k) <= n):
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
        sdata = hdata["sing_segre"]
        center = _require(sdata, "center", f"{fieldpath}.sing_segre")
        arg = _int(_require(sdata, "arg", f"{fieldpath}.sing_segre"),
                   f"{fieldpath}.sing_segre.arg")
        segre = _checked(f"{fieldpath}.sing_segre", segre_builtin, ambient, center, arg)

    oracle = _typed(hdata.get("oracle", {}), dict, f"{fieldpath}.oracle")
    oracle_csm = (None if "csm" not in oracle else
                  _parse_class(ambient, oracle["csm"], f"{fieldpath}.oracle.csm"))
    oracle_chi = (None if "chi" not in oracle else
                  _int(oracle["chi"], f"{fieldpath}.oracle.chi"))
    epath = f"{fieldpath}.expected"
    expected = {}
    for key, want in sorted(_typed(hdata.get("expected", {}), dict, epath).items()):
        kpath = f"{epath}.{key}"
        if key not in RESULT_NEEDS:
            raise ScenarioError(kpath, f"unknown result key; choose from {sorted(RESULT_NEEDS)}")
        if any(need not in hdata for need in RESULT_NEEDS[key]):
            raise ScenarioError(kpath, f"needs {' and '.join(RESULT_NEEDS[key])} data")
        expected[key] = (_int(want, kpath) if key == "chi"
                         else _parse_class(ambient, want, kpath))
    return HypersurfaceSpec(name=hname, hyp=hyp, line_bundle=lb, le=le, segre=segre,
                            oracle_csm=oracle_csm, oracle_chi=oracle_chi,
                            expected=expected)


def _parse_intersection(ambient: AmbientSpace, block: Any,
                        known: set[str]) -> IntersectionSpec:
    names = _typed(_require(block, "hypersurfaces", "intersection"), list,
                   "intersection.hypersurfaces")
    for j, ref in enumerate(names):
        if _typed(ref, str, f"intersection.hypersurfaces[{j}]") not in known:
            raise ScenarioError(f"intersection.hypersurfaces[{j}]",
                                f"unknown hypersurface {ref!r}")
        if ref in names[:j]:  # X cap X is not a transversal intersection
            raise ScenarioError(f"intersection.hypersurfaces[{j}]", f"{ref!r} is named twice")
    if len(names) < 2:
        raise ScenarioError("intersection.hypersurfaces",
                            f"an intersection needs r >= 2 hypersurfaces, got {len(names)}")
    exp = _typed(block.get("expected", {}), dict, "intersection.expected")
    expected = (None if "milnor" not in exp else
                _parse_class(ambient, exp["milnor"], "intersection.expected.milnor"))
    support = block.get("support")
    if support is not None:
        support = [_parse_class(ambient, text, f"intersection.support[{j}]") for j, text
                   in enumerate(_typed(support, list, "intersection.support"))]
    return IntersectionSpec(names, expected, support)


def _parse_general_case(block: Any) -> GeneralCaseSpec:
    base = parse_ambient(_require(block, "base", "general_case"), "general_case.base")
    bpath = "general_case.bundle"
    bdata = _typed(_require(block, "bundle", "general_case"), dict, bpath)
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
    ambient = parse_ambient(_require(data, "ambient", "scenario"))
    hyps: list[HypersurfaceSpec] = []
    for i, hdata in enumerate(_typed(data.get("hypersurfaces", []), list, "hypersurfaces")):
        spec = _parse_hypersurface(ambient, hdata, f"hypersurfaces[{i}]")
        if any(h.name == spec.name for h in hyps):
            raise ScenarioError(f"hypersurfaces[{i}].name", f"duplicate name {spec.name!r}")
        hyps.append(spec)
    intersection = (None if data.get("intersection") is None else
                    _parse_intersection(ambient, data["intersection"], {h.name for h in hyps}))
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


@dataclass
class ReportSection:
    kind: str
    title: str
    results: dict[str, str] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class ScenarioReport:
    name: str
    sections: list[ReportSection] = field(default_factory=list)
    timing_ms: float | None = None

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
    sec.results["chi"] = str(cb.csm.degree())
    if spec.oracle_csm is not None:
        # meaningful only against an independently supplied CSM class; the
        # derived class satisfies the identity by construction
        sec.verdicts["definition-identity"] = cb.definition_identity_holds()
    if spec.oracle_chi is not None:
        sec.verdicts["chi-oracle"] = cb.csm.degree() == spec.oracle_chi
    if spec.hyp is not None and spec.le is not None:
        milnor_le = le_to_milnor(spec.le, spec.line_bundle)
        sec.results["milnor-le"] = milnor_le.render()
        sec.verdicts["le-agrees"] = milnor_le == cb.milnor
    if spec.hyp is not None and spec.segre is not None and (
            "aluffi" in formulas or not formulas):
        mu = mu_class(spec.hyp, spec.segre)
        am = aluffi_milnor(spec.hyp, mu)
        sec.results["mu-class"] = mu.render()
        sec.results["milnor-aluffi"] = am.render()
        sec.verdicts["aluffi-agrees"] = am == cb.milnor
    for key, want in spec.expected.items():
        # results hold canonical text, which is unique per class
        got = sec.results.get(key)
        sec.verdicts[f"expected-{key}"] = got == (str(want) if key == "chi" else want.render())
        if got is None:
            sec.notes.append(f"expected key {key!r} was not computed")
    return sec


def intersection_formulas(sc: Scenario, formulas: set[str]) -> tuple[str, ...]:
    """The intersection formulas a run computes, in report order.

    An empty selection means all of them, and "pp" selects both per-stratum
    expansions; those need strata on every member, so a Le-only member
    leaves them out.
    """
    by_name = {s.name: s for s in sc.hypersurfaces}
    strata_ok = all(by_name[n].hyp is not None for n in sc.intersection.names)
    return tuple(f for f in FORMULAS
                 if (not formulas or f in formulas
                     or (f.startswith("pp_") and "pp" in formulas))
                 and (strata_ok or not f.startswith("pp_")))


def _intersection_section(sc: Scenario, triple: Callable[[HypersurfaceSpec], ClassBundle3],
                          formulas: set[str]) -> ReportSection:
    block = sc.intersection
    by_name = {s.name: s for s in sc.hypersurfaces}
    chosen = [by_name[n] for n in block.names]
    sec = ReportSection(kind="intersection",
                        title="intersection " + " + ".join(block.names))
    hyps = []
    triples = []
    for spec in chosen:
        if spec.hyp is None:
            # a bare regular stratum lets Le-only hypersurfaces join the
            # class-level formulas; strata formulas are skipped below
            hyps.append(StratifiedHypersurface(
                spec.name, sc.ambient, spec.line_bundle,
                (Stratum("reg", dim=sc.ambient.dimension - 1, milnor_fiber_chi=1,
                         closure_class=spec.line_bundle.c1()),)))
        else:
            hyps.append(spec.hyp)
        triples.append(triple(spec))
    scenario_obj = IntersectionScenario(sc.ambient, tuple(hyps), tuple(triples))
    if not all(s.hyp is not None for s in chosen):
        sec.notes.append("per-stratum formulas skipped: Le-only hypersurface present")
    cv = cross_validate(scenario_obj, expected=block.expected,
                        formulas=intersection_formulas(sc, formulas))
    for result in cv.results:
        sec.results[result.name] = result.value.render()
    if block.expected is not None:
        sec.results["expected"] = block.expected.render()
    sec.verdicts["formulas-agree"] = cv.agree
    if block.support is not None and cv.results:
        allowed = {mono for cls in block.support for mono in cls.coeffs}
        sec.verdicts["support"] = set(cv.results[0].value.coeffs) <= allowed
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
    """Compute every task of a parsed scenario into a report."""
    start = time.monotonic()
    formulas = formulas or set()
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
