"""The benchmark's workloads: seeded inputs, the timed call, the output check.

A workload maps (seed, op index) to one input (`make_input`, untimed), runs
it through the program (`execute`, the timed op) and checks the result
(`check`, untimed).  Inputs depend only on the seed and the index, so the
same seed gives the same op stream in every run.

Op sizes follow a fixed shape cycle per workload; the seed shuffles the
order of each cycle and draws every geometric detail.  A run therefore sees
the same mix of sizes whatever its seed, which keeps medians comparable
across seeds, while the seed still changes every number the program sees.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDEN = HERE / "golden"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
FORMULA_NAMES = ("thm41", "cor11", "cor12", "pp_ais", "pp_full")


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def program_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workload(name: str, seed: int) -> "Workload":
    """The named workload; on the default seed it checks the recorded digests."""
    golden = []
    if seed == DEFAULT_SEED and name != CliFixtures.name:
        golden = json.loads((GOLDEN / "digests.json").read_text())[name]
    return WORKLOADS[name](seed=seed, golden=golden)


@dataclass
class Outcome:
    ok: bool
    cases: int
    output_digest: str
    reason: str = ""


@dataclass
class Workload:
    """Base class: subclasses supply the shape cycle and the three steps."""

    seed: int
    golden: list[str] = field(default_factory=list)
    name: ClassVar[str] = ""
    shapes: ClassVar[tuple] = ()

    def shape(self, i: int):
        cycle, pos = divmod(i, len(self.shapes))
        order = list(range(len(self.shapes)))
        random.Random(f"{self.name}:{self.seed}:cycle:{cycle}").shuffle(order)
        return self.shapes[order[pos]]

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:op:{i}")

    def check_digest(self, i: int, out_digest: str) -> str:
        """Empty when the op matches its recorded digest or has none."""
        if i < len(self.golden) and self.golden[i] != out_digest:
            return f"output digest differs from the recorded one for op {i}"
        return ""


# -- cli_fixtures ------------------------------------------------------------


def fixture_names() -> list[str]:
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def cli_argv(fixture: str) -> list[str]:
    return [sys.executable, "-m", "milnor_classes", "compute",
            str(FIXTURES / f"{fixture}.json"), "--machine", "--no-timing", "--strict"]


def run_child(argv: list[str], stderr_path: Path) -> tuple[bytes, int, int]:
    """Run one child to completion; returns stdout, exit code, peak RSS in KiB."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


@dataclass
class CliFixtures(Workload):
    """Every fixture file, each in a fresh `python -m milnor_classes` process."""

    name = "cli_fixtures"
    expected: dict[str, tuple[bytes, int]] = field(init=False)
    peak_rss_kib: int = 0

    def __post_init__(self) -> None:
        # the fixture files are the inputs; a fixture without a recorded
        # output fails the run here rather than going unchecked
        self.shapes = tuple(fixture_names())
        OUT.mkdir(exist_ok=True)
        codes = json.loads((GOLDEN / "fixtures" / "exit_codes.json").read_text())
        self.expected = {
            name: ((GOLDEN / "fixtures" / f"{name}.out").read_bytes(), codes[name])
            for name in self.shapes}

    def make_input(self, i: int) -> str:
        return self.shape(i)

    def execute(self, fixture: str):
        out, code, rss = run_child(cli_argv(fixture), OUT / "stderr.txt")
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return out, code

    def check(self, i: int, fixture: str, result) -> Outcome:
        out, code = result
        want_out, want_code = self.expected[fixture]
        if code != want_code:
            return Outcome(False, 0, digest(out),
                           f"{fixture}: exit code {code}, recorded {want_code}")
        if out != want_out:
            return Outcome(False, 0, digest(out),
                           f"{fixture}: stdout differs from the recorded output")
        cases = sum(len(s["verdicts"]) for s in json.loads(out)["sections"])
        return Outcome(True, cases, digest(out))


# -- verify_suite ------------------------------------------------------------


_CASES_RE = re.compile(r"\[(\d+) cases\]")
_ELAPSED_RE = re.compile(r", [0-9.]+s\)$", re.MULTILINE)


@dataclass
class VerifySuite(Workload):
    """In-process `run_verify("all", seed + i)` passes."""

    name = "verify_suite"
    shapes = ("all",)

    def make_input(self, i: int) -> int:
        return self.seed + i

    def execute(self, verify_seed: int):
        from milnor_classes.verify import run_verify

        return run_verify("all", verify_seed)

    def check(self, i: int, verify_seed: int, result) -> Outcome:
        ok, summary = result
        stable = _ELAPSED_RE.sub(")", summary)
        out_digest = digest(stable)
        lines = stable.splitlines()
        cases = sum(int(m) for m in _CASES_RE.findall(stable))
        reason = ""
        if not ok or any("FAIL" in line for line in lines):
            reason = f"verify seed {verify_seed}: a property failed"
        elif lines[-1] != f"verify: PASS (seed {verify_seed})":
            reason = f"verify seed {verify_seed}: unexpected summary line"
        else:
            reason = self.check_digest(i, out_digest)
        return Outcome(not reason, cases, out_digest, reason)


# -- scenario ops shared by projective_scale and bundle_towers ---------------


def run_scenario(data: dict):
    """parse -> run_compute -> to_json, the in-process user path."""
    from milnor_classes.scenario import parse_scenario, run_compute

    report = run_compute(parse_scenario(data), with_timing=False)
    return report, report.to_json()


def check_scenario(i: int, workload: Workload, inp: dict, report, text: str) -> Outcome:
    """Every required verdict and result is present, and every verdict passes."""
    out_digest = digest(text)
    verdicts = {f"{s.title}/{k}": v for s in report.sections for k, v in s.verdicts.items()}
    results = {f"{s.title}/{k}" for s in report.sections for k in s.results}
    missing = [k for k in inp["required"] if k not in verdicts]
    missing += [k for k in inp["results"] if k not in results]
    failed = sorted(k for k, v in verdicts.items() if not v)
    reason = ""
    if missing:
        reason = f"op {i}: report lacks {missing[:3]}"
    elif failed or not report.ok:
        reason = f"op {i}: failing verdicts {failed[:3]}"
    else:
        reason = workload.check_digest(i, out_digest)
    return Outcome(not reason, len(verdicts), out_digest, reason)


# -- projective_scale --------------------------------------------------------


def _point_text(dims: tuple[int, ...] | None, n: int) -> str:
    if dims is None:
        return f"h^{n}"
    return "*".join(f"h{j + 1}^{d}" if d > 1 else f"h{j + 1}"
                    for j, d in enumerate(dims) if d)


def _points_member(rng: random.Random, name: str, n: int,
                   dims: tuple[int, ...] | None, degree: int, smooth: bool):
    """A hypersurface with k A_m points (or none), and its expectations.

    An A_m point has Milnor number m, so chi(F) = 1 + (-1)^(n-1) m, the
    Milnor class is k m [pt], the Jacobian scheme has Segre class k m [pt]
    and the only Le cycle is Lambda_0 = k m [pt].  On P^n the virtual class
    is that of a smooth hypersurface and chi(X) = chi(smooth) + (-1)^n k m.
    """
    multidegree = [degree] * (1 if dims is None else len(dims))
    strata = [{"name": "reg", "dim": n - 1, "milnor_fiber_chi": 1, "contained_in": []}]
    data = {"name": name, "multidegree": multidegree, "strata": strata, "expected": {}}
    verdicts = []
    mu_total = 0
    if not smooth:
        k, m = rng.randint(1, 3), rng.randint(1, 4)
        mu_total = k * m
        strata.append({"name": "pts", "dim": 0, "milnor_fiber_chi": 1 + (-1) ** (n - 1) * m,
                       "contained_in": ["reg"], "closure": {"points": k}})
        data["sing_segre"] = {"center": "points", "arg": mu_total}
        data["le_cycles"] = {"0": f"{mu_total}*{_point_text(dims, n)}"}
        verdicts += ["le-agrees", "aluffi-agrees"]
    data["expected"]["milnor"] = f"{mu_total}*{_point_text(dims, n)}" if mu_total else "0"
    if dims is None:
        virt = oracle.complete_intersection(n, multidegree)
        csm = oracle.combine((1, virt), ((-1) ** n * mu_total, oracle.point(n)))
        data["oracle"] = {"csm": oracle.render(csm), "chi": csm[n]}
        data["expected"].update(virt=oracle.render(virt), csm=oracle.render(csm), chi=csm[n])
        verdicts += ["definition-identity", "chi-oracle"]
    verdicts += [f"expected-{key}" for key in data["expected"]]
    return data, verdicts


def _quadric_member(n: int):
    """Two hyperplanes meeting along a linear P^(n-2) (a rank-2 quadric).

    Transversal type xy = 0, so chi(F) = 0 along the P^(n-2); its Jacobian
    scheme is the reduced P^(n-2), with the linear Segre class.  The CSM
    class comes from inclusion-exclusion of the two planes.
    """
    virt = oracle.complete_intersection(n, [2])
    csm = oracle.two_planes_csm(n, [])
    milnor = oracle.milnor_from_definition(n, 1, virt, csm)
    data = {
        "name": "Q", "multidegree": [2],
        "strata": [
            {"name": "reg", "dim": n - 1, "milnor_fiber_chi": 1, "contained_in": []},
            {"name": "sing", "dim": n - 2, "milnor_fiber_chi": 0,
             "contained_in": ["reg"], "closure": {"linear": n - 2}}],
        "sing_segre": {"center": "linear", "arg": n - 2},
        "oracle": {"csm": oracle.render(csm), "chi": csm[n]},
        "expected": {"milnor": oracle.render(milnor), "virt": oracle.render(virt),
                     "csm": oracle.render(csm), "chi": csm[n]},
    }
    verdicts = ["aluffi-agrees", "definition-identity", "chi-oracle"]
    verdicts += [f"expected-{key}" for key in data["expected"]]
    return data, verdicts


@dataclass
class ProjectiveScale(Workload):
    """Intersections of r hypersurfaces on large P^n and products of P^k.

    Shapes are (ambient, member degrees, quadric first?); an int ambient is
    P^n, a tuple is a product of projective spaces whose members have the
    same degree in every factor.  Degrees are fixed per shape because
    coefficient growth, and so cost, depends on them; the seed draws the
    singular points (k points of type A_m) and the order of each cycle.
    The third member, when there is one, is smooth.
    """

    name = "projective_scale"
    shapes = (
        (30, (2, 3), True), (32, (2, 1, 3), False), (32, (2, 2), True),
        (34, (3, 2), False), (28, (2, 1, 2, 3), True), (36, (2, 1), True),
        (30, (2, 3, 1), True), (34, (1, 2, 2), False),
        ((3, 3, 3), (1, 2), False), ((3, 3, 3), (1, 1, 1), False),
        ((2, 2, 2, 2), (1, 1), False), ((4, 3, 2), (1, 2), False),
    )

    def make_input(self, i: int) -> dict:
        ambient, degrees, quadric = self.shape(i)
        rng = self.rng(i)
        dims = None if isinstance(ambient, int) else tuple(ambient)
        n = ambient if dims is None else sum(dims)
        r = len(degrees)
        members, required = [], []
        for j, degree in enumerate(degrees):
            if j == 0 and quadric:
                data, verdicts = _quadric_member(n)
            else:
                data, verdicts = _points_member(rng, f"X{j}", n, dims, degree,
                                                smooth=j == 2)
            members.append(data)
            required += [f"hypersurface {data['name']}/{v}" for v in verdicts]
        if quadric:
            # only the quadric's singular locus meets the other (generic)
            # members; their isolated points miss the intersection
            virt = oracle.complete_intersection(n, list(degrees))
            csm = oracle.two_planes_csm(n, list(degrees[1:]))
            expected = oracle.render(oracle.milnor_from_definition(n, r, virt, csm))
        else:
            expected = "0"
        names = [m["name"] for m in members]
        title = "intersection " + " + ".join(names)
        required.append(f"{title}/formulas-agree")
        scenario = {
            "name": f"projective_scale_{self.seed}_{i}",
            "ambient": ({"kind": "proj", "n": n} if dims is None
                        else {"kind": "multiproj", "dims": list(dims)}),
            "hypersurfaces": members,
            "intersection": {"hypersurfaces": names, "expected": {"milnor": expected}},
        }
        results = [f"{title}/{f}" for f in FORMULA_NAMES]
        return {"scenario": scenario, "required": required, "results": results}

    def execute(self, inp: dict):
        return run_scenario(inp["scenario"])

    def check(self, i: int, inp: dict, result) -> Outcome:
        return check_scenario(i, self, inp, *result)


# -- bundle_towers -----------------------------------------------------------


def _line_multidegrees(rng: random.Random, factors: int, rank: int) -> list[list[int]]:
    return [[rng.randint(1, 3) for _ in range(factors)] for _ in range(rank)]


@dataclass
class BundleTowers(Workload):
    """General-case reductions on P(E^v), one and two bundle levels deep.

    ("scenario", base, rank): a general_case scenario through run_compute.
    ("tower", b, r1, r2): P(E2^v) -> P(E1^v) -> P^b through the projbundle
    API, since the scenario format cannot express a bundle on a bundle.

    Every op feeds z p*(beta) with beta of codimension dim(base) - rank.  As
    z c_top(F) = p*c_r(E), the reduction returns c_r(E) beta, a multiple of
    the base point class whose degree the oracle computes independently.
    """

    name = "bundle_towers"
    shapes = (
        ("scenario", 8, 5), ("scenario", 12, 5), ("scenario", (3, 3), 4),
        ("scenario", (2, 2, 2), 3), ("scenario", (3, 2, 1), 3), ("scenario", (3, 2, 2), 3),
        ("tower", 4, 3, 3), ("tower", 5, 3, 3), ("tower", 6, 3, 3),
        ("tower", 4, 4, 3), ("tower", 5, 4, 3), ("tower", 3, 3, 4),
    )

    def make_input(self, i: int) -> dict:
        kind, base, *ranks = self.shape(i)
        rng = self.rng(i)
        if kind == "scenario":
            return self._scenario_input(rng, i, base, ranks[0])
        return self._tower_input(rng, base, *ranks)

    def _scenario_input(self, rng, i, base, rank) -> dict:
        dims = (base,) if isinstance(base, int) else tuple(base)
        forms = _line_multidegrees(rng, len(dims), rank)
        beta = self._split_codim(rng, dims, sum(dims) - rank)
        target = tuple(d - b for d, b in zip(dims, beta))
        degree = oracle.top_coefficient([tuple(f) for f in forms], target)
        names = ["h"] if isinstance(base, int) else [f"h{j + 1}" for j in range(len(dims))]
        tilde = "*".join([f"{g}^{e}" for g, e in zip(names, beta) if e] + ["z"])
        point = "*".join(f"{g}^{d}" for g, d in zip(names, dims))
        base_spec = ({"kind": "proj", "n": base} if isinstance(base, int)
                     else {"kind": "multiproj", "dims": list(dims)})
        scenario = {
            "name": f"bundle_towers_{self.seed}_{i}",
            "ambient": base_spec,
            "general_case": {
                "base": base_spec,
                "bundle": {"line_multidegrees": forms},
                "milnor_tilde": tilde,
                "expected": f"{degree}*{point}",
            },
        }
        return {"kind": "scenario", "scenario": scenario, "base": base, "forms": forms,
                "required": ["general case/expected-match"],
                "results": ["general case/milnor"]}

    def _tower_input(self, rng, b, r1, r2) -> dict:
        e1 = [rng.randint(1, 3) for _ in range(r1)]
        # line bundles with c1 = a h + z on P(E1^v): z in every factor makes
        # the reduction rewrite both bundle levels
        e2 = [(rng.randint(1, 2), 1) for _ in range(r2)]
        codim = b + r1 - 1 - r2
        z_exp = min(r1 - 1, codim)
        beta = (codim - z_exp, z_exp)
        poly = {(x + beta[0], y + beta[1]): c
                for (x, y), c in oracle.expand_linear_forms(e2).items()}
        degree = oracle.bundle_degree(b, e1, poly)
        return {"kind": "tower", "b": b, "e1": e1, "e2": e2, "beta": beta,
                "degree": degree}

    @staticmethod
    def _split_codim(rng, dims, codim) -> tuple[int, ...]:
        beta = [0] * len(dims)
        for _ in range(codim):
            j = rng.choice([j for j, d in enumerate(dims) if beta[j] < d])
            beta[j] += 1
        return tuple(beta)

    def execute(self, inp: dict):
        from milnor_classes.bundles import BundleClass, direct_sum, line_bundle, trivial_bundle
        from milnor_classes.chow import MultiProj, ProjSpace
        from milnor_classes.projbundle import (GeneralCaseInput, grothendieck_residual,
                                               make_bundle_ring, milnor_general,
                                               verify_tangent_identities)

        if inp["kind"] == "scenario":
            b = inp["base"]
            base = ProjSpace(b) if isinstance(b, int) else MultiProj(tuple(b))
            e = trivial_bundle(base, 0)
            for degs in inp["forms"]:
                e = direct_sum(e, line_bundle(base, tuple(degs)))
            ring = make_bundle_ring(base, e)
            reduction = run_scenario(inp["scenario"])
        else:
            base = ProjSpace(inp["b"])
            e1 = trivial_bundle(base, 0)
            for d in inp["e1"]:
                e1 = direct_sum(e1, line_bundle(base, d))
            ring1 = make_bundle_ring(base, e1)
            h, z = ring1.gen(0), ring1.zeta()
            chern = ring1.one()
            for a, c in inp["e2"]:
                chern = chern * (ring1.one() + h.scale(a) + z.scale(c))
            ring = make_bundle_ring(ring1, BundleClass(ring1, len(inp["e2"]), chern))
            x, y = inp["beta"]
            tilde = ring.zeta() * ring.pullback(h ** x * z ** y)
            reduction = milnor_general(GeneralCaseInput(ring, tilde))
        return reduction, verify_tangent_identities(ring).ok, grothendieck_residual(ring)

    def check(self, i: int, inp: dict, result) -> Outcome:
        reduction, identities_ok, residual = result
        extra = f"identities: {identities_ok}\nresidual: {residual.render()}\n"
        if inp["kind"] == "scenario":
            report, text = reduction
            outcome = check_scenario(i, self, inp, report, text + extra)
        else:
            text = f"milnor: {reduction.render()}\n" + extra
            want = reduction.ambient.point_class().scale(inp["degree"])
            reason = ("" if reduction == want
                      else f"op {i}: tower reduction differs from the oracle degree")
            outcome = Outcome(not reason, 1, digest(text),
                              reason or self.check_digest(i, digest(text)))
            outcome.ok = not outcome.reason
        if outcome.ok and not (identities_ok and residual.is_zero()):
            outcome.ok = False
            outcome.reason = f"op {i}: tangent identities or Grothendieck relation fail"
        outcome.cases += 2
        return outcome


WORKLOADS = {w.name: w for w in (CliFixtures, VerifySuite, ProjectiveScale, BundleTowers)}
