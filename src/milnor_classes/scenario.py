"""Scenario files: parsing, validation, computation dispatch, reports.

A scenario file is a JSON document naming one ambient space, a list of
hypersurfaces (strata and/or Le-cycle data, optional Segre descriptor of
the singular locus, optional oracle and expected values), an optional
intersection block, and an optional general-case block.  Reports carry a
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
from .lecycles import LeCycles, le_to_milnor
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


INTERSECTION_FORMULAS = ("thm41", "cor11", "cor12", "pp_ais", "pp_full")


# -- parsing -------------------------------------------------------------------


def _require(mapping: dict, key: str, fieldpath: str) -> Any:
    if not isinstance(mapping, dict):
        raise ScenarioError(fieldpath, f"expected an object, got {mapping!r}")
    if key not in mapping:
        raise ScenarioError(f"{fieldpath}.{key}", "missing required field")
    return mapping[key]


def _int(value: Any, fieldpath: str) -> int:
    """An integer field; bools, floats and numeric text are input errors."""
    if type(value) is not int:
        raise ScenarioError(fieldpath, f"expected an integer, got {value!r}")
    return value


def _int_tuple(values: Any, fieldpath: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ScenarioError(fieldpath, f"expected a list of integers, got {values!r}")
    return tuple(_int(v, f"{fieldpath}[{i}]") for i, v in enumerate(values))


def parse_ambient(data: Any, fieldpath: str = "ambient") -> AmbientSpace:
    if not isinstance(data, dict):
        raise ScenarioError(fieldpath, "expected an object with a 'kind' field")
    kind = _require(data, "kind", fieldpath)
    if kind == "proj":
        cls, arg = ProjSpace, _int(_require(data, "n", fieldpath), f"{fieldpath}.n")
    elif kind == "multiproj":
        cls, arg = MultiProj, _int_tuple(_require(data, "dims", fieldpath),
                                         f"{fieldpath}.dims")
    else:
        raise ScenarioError(f"{fieldpath}.kind",
                            f"unknown ambient kind {kind!r} (proj or multiproj)")
    try:
        return cls(arg)
    except ValueError as exc:
        raise ScenarioError(fieldpath, str(exc)) from exc


def _parse_class(ambient: AmbientSpace, text: Any, fieldpath: str) -> CycleClass:
    if not isinstance(text, str):
        raise ScenarioError(fieldpath, f"expected canonical class text, got {text!r}")
    try:
        return parse_class(ambient, text)
    except ValueError as exc:
        raise ScenarioError(fieldpath, str(exc)) from exc


def _parse_stratum(ambient: AmbientSpace, data: dict, lb: BundleClass,
                   fieldpath: str) -> Stratum:
    name = _require(data, "name", fieldpath)
    dim = _int(_require(data, "dim", fieldpath), f"{fieldpath}.dim")
    chif = _int(_require(data, "milnor_fiber_chi", fieldpath),
                f"{fieldpath}.milnor_fiber_chi")
    contained = frozenset(data.get("contained_in", []))
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
        try:
            closure_class, csm = point_closure(ambient, count)
        except ValueError as exc:
            raise ScenarioError(f"{fieldpath}.closure", str(exc)) from exc
    elif isinstance(closure_spec, dict) and "linear" in closure_spec:
        m = _int(closure_spec["linear"], f"{fieldpath}.closure.linear")
        try:
            closure_class, csm = linear_closure(ambient, m)
        except ValueError as exc:
            raise ScenarioError(f"{fieldpath}.closure", str(exc)) from exc
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
    le: LeCycles | None
    segre: CycleClass | None
    oracle_csm: CycleClass | None
    oracle_chi: int | None
    expected: dict[str, Any]


@dataclass
class Scenario:
    name: str
    ambient: AmbientSpace
    hypersurfaces: list[HypersurfaceSpec]
    intersection: dict | None
    general_case: dict | None
    tasks: list[dict]


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario", "top level must be a JSON object")
    ambient = parse_ambient(_require(data, "ambient", "scenario"))
    hyps: list[HypersurfaceSpec] = []
    seen: set[str] = set()
    for i, hdata in enumerate(data.get("hypersurfaces", [])):
        fieldpath = f"hypersurfaces[{i}]"
        hname = _require(hdata, "name", fieldpath)
        if hname in seen:
            raise ScenarioError(f"{fieldpath}.name", f"duplicate name {hname!r}")
        seen.add(hname)
        multideg = _int_tuple(_require(hdata, "multidegree", fieldpath),
                              f"{fieldpath}.multidegree")
        try:
            lb = line_bundle(ambient, multideg)
        except ValueError as exc:
            raise ScenarioError(f"{fieldpath}.multidegree", str(exc)) from exc

        hyp = None
        if "strata" in hdata:
            strata = tuple(
                _parse_stratum(ambient, s, lb, f"{fieldpath}.strata[{j}]")
                for j, s in enumerate(hdata["strata"]))
            names = {s.name for s in strata}
            for j, s in enumerate(strata):
                unknown = s.contained_in - names
                if unknown:
                    raise ScenarioError(
                        f"{fieldpath}.strata[{j}].contained_in",
                        f"unknown stratum name(s) {sorted(unknown)}")
            try:
                hyp = StratifiedHypersurface(hname, ambient, lb, strata)
            except StratificationError as exc:
                raise ScenarioError(f"{fieldpath}.strata", str(exc)) from exc

        le = None
        if "le_cycles" in hdata:
            le_data = hdata["le_cycles"]
            if not isinstance(le_data, dict):
                raise ScenarioError(f"{fieldpath}.le_cycles",
                                    f"expected an object, got {le_data!r}")
            classes = {}
            for k, v in le_data.items():
                kpath = f"{fieldpath}.le_cycles[{k}]"
                if not (isinstance(k, str) and k.isascii() and k.isdigit()):
                    raise ScenarioError(kpath, "key must be a non-negative integer")
                classes[int(k)] = _parse_class(ambient, v, kpath)
            try:
                le = LeCycles(ambient, classes)
            except ValueError as exc:
                raise ScenarioError(f"{fieldpath}.le_cycles", str(exc)) from exc
        if hyp is None and le is None:
            raise ScenarioError(fieldpath, "needs strata and/or le_cycles data")

        segre = None
        if "sing_segre" in hdata:
            sdata = hdata["sing_segre"]
            center = _require(sdata, "center", f"{fieldpath}.sing_segre")
            arg = _int(_require(sdata, "arg", f"{fieldpath}.sing_segre"),
                       f"{fieldpath}.sing_segre.arg")
            try:
                segre = segre_builtin(ambient, center, arg)
            except ValueError as exc:
                raise ScenarioError(f"{fieldpath}.sing_segre", str(exc)) from exc

        oracle = hdata.get("oracle", {})
        oracle_csm = (None if "csm" not in oracle else
                      _parse_class(ambient, oracle["csm"], f"{fieldpath}.oracle.csm"))
        oracle_chi = (None if "chi" not in oracle else
                      _int(oracle["chi"], f"{fieldpath}.oracle.chi"))
        hyps.append(HypersurfaceSpec(
            name=hname, hyp=hyp, line_bundle=lb, le=le, segre=segre,
            oracle_csm=oracle_csm, oracle_chi=oracle_chi,
            expected=hdata.get("expected", {})))

    intersection = data.get("intersection")
    if intersection is not None:
        for j, ref in enumerate(_require(intersection, "hypersurfaces", "intersection")):
            if ref not in seen:
                raise ScenarioError(f"intersection.hypersurfaces[{j}]",
                                    f"unknown hypersurface {ref!r}")

    general = data.get("general_case")
    if general is not None:
        _require(general, "base", "general_case")
        _require(general, "bundle", "general_case")
        _require(general, "milnor_tilde", "general_case")

    tasks = data.get("tasks", [])
    return Scenario(name=data.get("name", name), ambient=ambient,
                    hypersurfaces=hyps, intersection=intersection,
                    general_case=general, tasks=tasks)


def load_scenario_file(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
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
    pieces = le_to_milnor(spec.le, spec.line_bundle)
    milnor = sum(pieces.values(), spec.line_bundle.ambient.zero())
    return class_triple(spec.line_bundle, milnor, spec.oracle_csm)


def _hypersurface_section(spec: HypersurfaceSpec, cb: ClassBundle3, formulas: set[str],
                          fieldpath: str) -> ReportSection:
    ambient = spec.line_bundle.ambient
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
        pieces = le_to_milnor(spec.le, spec.line_bundle)
        le_total = sum(pieces.values(), ambient.zero())
        sec.results["milnor-le"] = le_total.render()
        sec.verdicts["le-agrees"] = le_total == cb.milnor
    if spec.hyp is not None and spec.segre is not None and (
            "aluffi" in formulas or not formulas):
        mu = mu_class(spec.hyp, spec.segre)
        am = aluffi_milnor(spec.hyp, mu)
        sec.results["mu-class"] = mu.render()
        sec.results["milnor-aluffi"] = am.render()
        sec.verdicts["aluffi-agrees"] = am == cb.milnor
    for key, want in sorted(spec.expected.items()):
        got = sec.results.get(key)
        if got is None:
            sec.verdicts[f"expected-{key}"] = False
            sec.notes.append(f"expected key {key!r} was not computed")
        elif key == "chi":
            sec.verdicts[f"expected-{key}"] = int(got) == _int(
                want, f"{fieldpath}.expected.{key}")
        else:
            sec.verdicts[f"expected-{key}"] = (parse_class(ambient, got) == _parse_class(
                ambient, str(want), f"{fieldpath}.expected.{key}"))
    return sec


def _intersection_section(sc: Scenario, triple: Callable[[HypersurfaceSpec], ClassBundle3],
                          formulas: set[str]) -> ReportSection:
    block = sc.intersection
    names = block["hypersurfaces"]
    by_name = {s.name: s for s in sc.hypersurfaces}
    chosen = [by_name[n] for n in names]
    sec = ReportSection(kind="intersection",
                        title="intersection " + " + ".join(names))
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
    wanted = tuple(f for f in INTERSECTION_FORMULAS
                   if not formulas or f in formulas
                   or (f.startswith("pp_") and "pp" in formulas))
    expected = None
    exp_block = block.get("expected", {})
    if "milnor" in exp_block:
        expected = _parse_class(sc.ambient, exp_block["milnor"], "intersection.expected.milnor")
    strata_ok = all(s.hyp is not None for s in chosen)
    if not strata_ok:
        wanted = tuple(f for f in wanted if not f.startswith("pp_"))
        sec.notes.append("per-stratum formulas skipped: Le-only hypersurface present")
    cv = cross_validate(scenario_obj, expected=expected, formulas=wanted)
    for result in cv.results:
        sec.results[result.name] = result.value.render()
    if expected is not None:
        sec.results["expected"] = expected.render()
    sec.verdicts["formulas-agree"] = cv.agree
    support = block.get("support")
    if support is not None and cv.results:
        allowed = set()
        for j, text in enumerate(support):
            allowed.update(_parse_class(sc.ambient, text, f"intersection.support[{j}]").coeffs)
        observed = set(cv.results[0].value.coeffs)
        sec.verdicts["support"] = observed <= allowed
    return sec


def _general_case_section(sc: Scenario) -> ReportSection:
    block = sc.general_case
    sec = ReportSection(kind="general_case", title="general case")
    base = parse_ambient(block["base"], "general_case.base")
    bdata = block["bundle"]
    if "line_multidegrees" in bdata:
        e = trivial_bundle(base, 0)
        for j, degs in enumerate(bdata["line_multidegrees"]):
            e = direct_sum(e, line_bundle(base, _int_tuple(
                degs, f"general_case.bundle.line_multidegrees[{j}]")))
    elif "rank" in bdata and "chern" in bdata:
        chern = _parse_class(base, bdata["chern"], "general_case.bundle.chern")
        e = BundleClass(base, _int(bdata["rank"], "general_case.bundle.rank"), chern)
    else:
        raise ScenarioError("general_case.bundle",
                            "needs line_multidegrees or rank+chern")
    ring = make_bundle_ring(base, e)
    mtilde = _parse_class(ring, block["milnor_tilde"], "general_case.milnor_tilde")
    result = milnor_general(GeneralCaseInput(ring, mtilde))
    sec.results["milnor-tilde"] = mtilde.render()
    sec.results["milnor"] = result.render()
    if "expected" in block:
        want = _parse_class(base, block["expected"], "general_case.expected")
        sec.results["expected"] = want.render()
        sec.verdicts["expected-match"] = result == want
    return sec


def run_compute(sc: Scenario, formulas: set[str] | None = None,
                with_timing: bool = True) -> ScenarioReport:
    """Compute every requested task of a parsed scenario into a report."""
    start = time.monotonic()
    formulas = formulas or set()
    report = ScenarioReport(name=sc.name)
    tasks = sc.tasks or _default_tasks(sc)
    triples: dict[str, ClassBundle3] = {}

    def triple(spec: HypersurfaceSpec) -> ClassBundle3:
        # each hypersurface's classes are built once per run, whichever
        # sections ask for them
        if spec.name not in triples:
            triples[spec.name] = _hyp_class_triple(spec)
        return triples[spec.name]

    for task in tasks:
        if "report" in task:
            continue  # both renderings are always produced
        if "verify" in task:
            # agreement verification is the intersection cross-check
            if sc.intersection is None:
                raise ScenarioError("tasks", "nothing to verify: no intersection block")
            report.sections.append(_intersection_section(sc, triple, formulas))
            continue
        if "compute" not in task:
            raise ScenarioError("tasks", f"unknown task directive {task!r}")
        target = task["compute"]
        if target == "hypersurfaces":
            for i, spec in enumerate(sc.hypersurfaces):
                report.sections.append(_hypersurface_section(
                    spec, triple(spec), formulas, f"hypersurfaces[{i}]"))
        elif target == "intersection":
            if sc.intersection is None:
                raise ScenarioError("tasks", "no intersection block to compute")
            report.sections.append(_intersection_section(sc, triple, formulas))
        elif target == "general_case":
            if sc.general_case is None:
                raise ScenarioError("tasks", "no general_case block to compute")
            report.sections.append(_general_case_section(sc))
        else:
            raise ScenarioError("tasks", f"unknown compute target {target!r}")
    if with_timing:
        report.timing_ms = (time.monotonic() - start) * 1000.0
    return report


def _default_tasks(sc: Scenario) -> list[dict]:
    tasks: list[dict] = []
    if sc.hypersurfaces:
        tasks.append({"compute": "hypersurfaces"})
    if sc.intersection is not None:
        tasks.append({"compute": "intersection"})
    if sc.general_case is not None:
        tasks.append({"compute": "general_case"})
    return tasks
