"""Exact arithmetic in truncated graded Chow rings.

Supported ambient spaces: projective space P^n, finite products of
projective spaces, and projectivized bundles P(E^v) over a supported base.
Ring elements are sparse integer combinations of monomials in the
codimension-1 generators (one hyperplane class per projective factor, one
tautological class per bundle level), kept in normal form:

* hyperplane exponents are capped by the factor dimension (h^(n+1) = 0);
* the tautological generator z of a rank-r bundle level satisfies
  z^r = c1 z^(r-1) - c2 z^(r-2) + ... + (-1)^(r-1) c_r, the degree-r part
  of c(p*E) (1+z)^(-1) = 0 (the tautological sub-bundle has rank r-1).

Coefficients are Python ints (arbitrary precision); any inversion of a
class whose degree-0 part is not a unit raises instead of rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import add, le
from typing import Iterable, Mapping


class AmbientMismatchError(ValueError):
    """Operands live in the Chow rings of different ambient spaces."""


@dataclass(frozen=True)
class Generator:
    """One codimension-1 generator with its reduction rule.

    cap is the largest exponent kept in normal form.  A "truncate"
    generator annihilates monomials above the cap; a "rewrite" generator
    (the tautological class of a bundle level) substitutes its relation.
    """

    name: str
    cap: int
    rewrite: bool = False


class AmbientSpace:
    """Common interface of the three supported ambient kinds."""

    # subclasses provide: dimension, generators (tuple[Generator]),
    # _zeta_relations (map generator index -> relation coeff map)

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        raise NotImplementedError

    @cached_property
    def gen_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    @cached_property
    def top_monomial(self) -> tuple[int, ...]:
        return tuple(g.cap for g in self.generators)

    @cached_property
    def _truncate_caps(self) -> tuple[float, ...]:
        """Caps of the truncate generators; rewrite generators are unbounded."""
        return tuple(float("inf") if g.rewrite else g.cap for g in self.generators)

    # -- class constructors -------------------------------------------------

    def zero(self) -> "CycleClass":
        return CycleClass(self, {})

    def one(self) -> "CycleClass":
        return self.from_int(1)

    def from_int(self, m: int) -> "CycleClass":
        if not isinstance(m, int):
            raise TypeError(f"scalars must be exact integers, got {m!r}")
        n = len(self.generators)
        return CycleClass(self, {(0,) * n: m} if m else {})

    def gen(self, index: int) -> "CycleClass":
        """The index-th generator as a codimension-1 class (in normal form)."""
        n = len(self.generators)
        mono = tuple(1 if i == index else 0 for i in range(n))
        return self.from_coeffs({mono: 1})

    def point_class(self) -> "CycleClass":
        return CycleClass(self, {self.top_monomial: 1})

    def from_coeffs(self, coeffs: Mapping[tuple[int, ...], int]) -> "CycleClass":
        """Build a class from raw monomial data, reducing to normal form."""
        out: dict[tuple[int, ...], int] = {}
        for mono, c in coeffs.items():
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be exact integers, got {c!r}")
            self._reduce_term(tuple(mono), c, out)
        return CycleClass(self, {m: c for m, c in out.items() if c})

    @cached_property
    def tangent_chern(self) -> "CycleClass":
        """Total Chern class of the tangent bundle, computed once per instance."""
        raise NotImplementedError

    # -- normal form --------------------------------------------------------

    @cached_property
    def _zeta_relations(self) -> dict[int, dict[tuple[int, ...], int]]:
        return {}

    def _reduce_term(self, mono: tuple[int, ...], coeff: int,
                     out: dict[tuple[int, ...], int]) -> None:
        gens = self.generators
        if len(mono) != len(gens):
            raise ValueError(
                f"monomial {mono} has {len(mono)} exponents, ambient has {len(gens)} generators")
        work = [(mono, coeff)]
        relations = self._zeta_relations
        while work:
            m, c = work.pop()
            if c == 0:
                continue
            hot = -1
            dead = False
            # scan outermost generator first so nested bundle levels settle
            for i in range(len(gens) - 1, -1, -1):
                g = gens[i]
                if m[i] > g.cap:
                    if g.rewrite:
                        hot = i
                        break
                    dead = True
                    break
            if dead:
                continue
            if hot < 0:
                out[m] = out.get(m, 0) + c
                continue
            r = gens[hot].cap + 1
            rest = list(m)
            rest[hot] -= r
            for rel_mono, rel_c in relations[hot].items():
                prod = tuple(a + b for a, b in zip(rest, rel_mono))
                work.append((prod, c * rel_c))


@dataclass(frozen=True)
class ProjSpace(AmbientSpace):
    """Projective space P^n with Chow ring Z[h]/(h^(n+1))."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative dimension: {self.n}")

    @property
    def dimension(self) -> int:
        return self.n

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        return (Generator("h", self.n),)

    @cached_property
    def tangent_chern(self) -> "CycleClass":
        return (self.one() + self.gen(0)) ** (self.n + 1)

    def __repr__(self) -> str:
        return f"ProjSpace({self.n})"


@dataclass(frozen=True)
class MultiProj(AmbientSpace):
    """A finite product P^(n_1) x ... x P^(n_k)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims:
            raise ValueError("MultiProj needs at least one factor")
        if any(d < 0 for d in self.dims):
            raise ValueError(f"negative dimension among factors: {self.dims}")

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(Generator(f"h{i + 1}", d) for i, d in enumerate(self.dims))

    @cached_property
    def tangent_chern(self) -> "CycleClass":
        total = self.one()
        for i, d in enumerate(self.dims):
            total = total * (self.one() + self.gen(i)) ** (d + 1)
        return total

    def __repr__(self) -> str:
        return f"MultiProj{self.dims}"


class ProjBundle(AmbientSpace):
    """Total space of P(E^v) -> base for a formal bundle E of rank r >= 1.

    The bundle is recorded by its rank and total Chern class on the base.
    The tautological quotient line bundle O(1) contributes the generator z.
    """

    def __init__(self, base: AmbientSpace, rank: int, chern: "CycleClass"):
        if rank < 1:
            raise ValueError(f"bundle rank must be >= 1, got {rank}")
        if chern.ambient != base:
            raise AmbientMismatchError("bundle Chern class does not live on the base ambient")
        if chern.component(0) != base.one():
            raise ValueError("bundle Chern class must have degree-0 part 1")
        self.base = base
        self.rank = rank
        self.chern = chern

    @property
    def dimension(self) -> int:
        return self.base.dimension + self.rank - 1

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        taken = {g.name for g in self.base.generators}
        name = "z"
        level = 2
        while name in taken:
            name = f"z{level}"
            level += 1
        return self.base.generators + (Generator(name, self.rank - 1, rewrite=True),)

    @cached_property
    def _zeta_relations(self) -> dict[int, dict[tuple[int, ...], int]]:
        # inherit relations of nested bundle levels in the base, shifted by
        # the extra z slot, then add this level's Grothendieck relation
        rels = {
            i: {m + (0,): c for m, c in rel.items()}
            for i, rel in self.base._zeta_relations.items()
        }
        zpos = len(self.generators) - 1
        rel: dict[tuple[int, ...], int] = {}
        for i, part in self.chern.components()[1:self.rank + 1]:
            sign = (-1) ** (i - 1)
            for mono, c in part.coeffs.items():
                key = mono + (self.rank - i,)
                rel[key] = rel.get(key, 0) + sign * c
        rels[zpos] = {m: c for m, c in rel.items() if c}
        return rels

    def zeta(self) -> "CycleClass":
        return self.gen(len(self.generators) - 1)

    def pullback(self, a: "CycleClass") -> "CycleClass":
        """p* of a class on the base: same coefficients, zero z-exponent."""
        if a.ambient != self.base:
            raise AmbientMismatchError("pullback argument must live on the base")
        return CycleClass(self, {m + (0,): c for m, c in a.coeffs.items()})

    def pushforward(self, a: "CycleClass") -> "CycleClass":
        """p_* : read off the z^(r-1) coefficient of the normal form."""
        if a.ambient != self:
            raise AmbientMismatchError("pushforward argument must live on this bundle")
        out: dict[tuple[int, ...], int] = {}
        for mono, c in a.coeffs.items():
            if mono[-1] == self.rank - 1:
                out[mono[:-1]] = c
        return self.base.from_coeffs(out)

    @cached_property
    def relative_tangent_chern(self) -> "CycleClass":
        """c(p*E^v (x) O(1)), the relative tangent class by the twisted Euler sequence.

        Built from raw Chern data, so a ring with a corrupted relation gives a
        wrong class rather than an exception.
        """
        from .bundles import twist_chern

        return twist_chern(self.pullback(self.chern).dual(), self.rank, self.zeta())

    @cached_property
    def tangent_chern(self) -> "CycleClass":
        # c(TP(E^v)) = c(p*T_base) c(T_rel), from the relative tangent sequence
        return self.pullback(self.base.tangent_chern) * self.relative_tangent_chern

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self)
                and self.base == other.base
                and self.rank == other.rank
                and self.chern == other.chern)

    def __hash__(self) -> int:
        return hash(("ProjBundle", self.base, self.rank, self.chern))

    def __repr__(self) -> str:
        return f"ProjBundle({self.base!r}, rank={self.rank})"


def make_ambient(spec: AmbientSpace | int | Iterable[int]) -> AmbientSpace:
    """Normalize a short description into a validated AmbientSpace.

    Accepts an existing ambient, an int n (P^n), or an iterable of factor
    dimensions (a product of projective spaces).
    """
    if isinstance(spec, AmbientSpace):
        return spec
    if isinstance(spec, int):
        return ProjSpace(spec)
    return MultiProj(tuple(spec))


class CycleClass:
    """Element of the truncated Chow ring of an ambient space.

    Immutable after construction; coeffs maps exponent tuples in normal
    form to nonzero ints.  Grading is by codimension (total exponent).
    """

    __slots__ = ("ambient", "coeffs", "_hash")

    def __init__(self, ambient: AmbientSpace, coeffs: dict[tuple[int, ...], int]):
        self.ambient = ambient
        self.coeffs = coeffs
        self._hash: int | None = None

    # -- basic protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleClass):
            return NotImplemented
        return ((self.ambient is other.ambient or self.ambient == other.ambient)
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ambient, frozenset(self.coeffs.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_same(self, other: "CycleClass") -> None:
        # identity first: ProjBundle equality recurses through the tower
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"operands live on {self.ambient!r} and {other.ambient!r}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "CycleClass") -> "CycleClass":
        self._check_same(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return CycleClass(self.ambient, out)

    def __neg__(self) -> "CycleClass":
        return CycleClass(self.ambient, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        return self + (-other)

    def scale(self, m: int) -> "CycleClass":
        if not isinstance(m, int):
            raise TypeError(f"scalars must be exact integers, got {m!r}")
        if m == 0:
            return self.ambient.zero()
        return CycleClass(self.ambient, {k: m * c for k, c in self.coeffs.items()})

    def __rmul__(self, other: int) -> "CycleClass":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other: "CycleClass | int") -> "CycleClass":
        if isinstance(other, int):
            return self.scale(other)
        self._check_same(other)
        ambient = self.ambient
        caps = ambient.top_monomial
        truncate_caps = ambient._truncate_caps
        dim = ambient.dimension
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        # every ring is graded with top codimension dim, so a pair whose
        # codimensions add past it is zero; exponents only grow under
        # reduction, so a truncate generator over its cap kills the term
        # whatever the rewrite generators do
        right = sorted((sum(m), m, c) for m, c in other.coeffs.items())
        for m1, c1 in self.coeffs.items():
            room = dim - sum(m1)
            for d2, m2, c2 in right:
                if d2 > room:
                    break
                m = tuple(map(add, m1, m2))
                if all(map(le, m, caps)):
                    out[m] = get(m, 0) + c1 * c2
                elif all(map(le, m, truncate_caps)):
                    ambient._reduce_term(m, c1 * c2, out)
        return CycleClass(ambient, {m: c for m, c in out.items() if c})

    def __pow__(self, k: int) -> "CycleClass":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ambient.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "CycleClass":
        """Multiplicative inverse, defined when the degree-0 part is +-1.

        Graded recursion on the homogeneous pieces a_j: with u = a_0,
        b_0 = u and b_k = -u (a_1 b_(k-1) + ... + a_k b_0).  Every supported
        ring is graded (the z-relation is homogeneous), so b_k is the
        codimension-k piece of the inverse; exact over the integers.
        """
        ambient = self.ambient
        unit = self.coeffs.get((0,) * len(ambient.generators), 0)
        if unit not in (1, -1):
            raise ValueError(f"degree-0 part {unit} is not a unit; cannot invert")
        pieces = [part for _, part in self.components()]
        terms = [ambient.from_int(unit)]
        for k in range(1, ambient.dimension + 1):
            acc = ambient.zero()
            for j in range(1, k + 1):
                if pieces[j] and terms[k - j]:
                    acc = acc + pieces[j] * terms[k - j]
            terms.append(acc.scale(-unit))
        out: dict[tuple[int, ...], int] = {}
        for t in terms:
            out.update(t.coeffs)  # pieces of distinct codimension never overlap
        return CycleClass(ambient, out)

    def dual(self) -> "CycleClass":
        """c^v: flip the sign of every odd-codimension term (ambient grading)."""
        return CycleClass(self.ambient, {m: -c if sum(m) % 2 else c
                                         for m, c in self.coeffs.items()})

    # -- grading --------------------------------------------------------------

    def component(self, codim: int) -> "CycleClass":
        """The homogeneous piece of the given codimension."""
        if codim < 0 or codim > self.ambient.dimension:
            raise ValueError(
                f"codimension {codim} out of range 0..{self.ambient.dimension}")
        return CycleClass(
            self.ambient,
            {m: c for m, c in self.coeffs.items() if sum(m) == codim})

    def components(self) -> list[tuple[int, "CycleClass"]]:
        """Every homogeneous piece (codim, class), codim 0..dimension, in one pass."""
        buckets: list[dict[tuple[int, ...], int]] = [
            {} for _ in range(self.ambient.dimension + 1)]
        for m, c in self.coeffs.items():
            buckets[sum(m)][m] = c
        return [(k, CycleClass(self.ambient, b)) for k, b in enumerate(buckets)]

    def degree(self) -> int:
        """Integral over the ambient: the coefficient of the point class."""
        return self.coeffs.get(self.ambient.top_monomial, 0)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms in descending codimension, unit parts omitted."""
        if not self.coeffs:
            return "0"
        names = self.ambient.gen_names
        items = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                       reverse=True)
        pieces: list[str] = []
        for mono, coeff in items:
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            term = "*".join(factors)
            if not pieces:
                pieces.append(term if coeff > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if coeff > 0 else f"- {term}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"<{self.render()} on {self.ambient!r}>"


_TERM_RE = re.compile(r"^(?P<coeff>\d+)?(?P<mono>(\*?[A-Za-z][A-Za-z0-9]*(\^\d+)?)*)$")


def parse_class(ambient: AmbientSpace, text: str) -> CycleClass:
    """Parse the canonical rendering back into a CycleClass.

    Accepts any term order and signs glued or spaced; inverse of render().
    A truncate-generator exponent above its cap is rejected rather than
    read as zero; rewrite generators (z) are reduced by their relation.
    """
    s = text.strip()
    if s in ("0", ""):
        return ambient.zero()
    s = s.replace("-", "+-").replace(" ", "")
    if s.startswith("+"):
        s = s[1:]
    names = {name: i for i, name in enumerate(ambient.gen_names)}
    raw: dict[tuple[int, ...], int] = {}
    for chunk in s.split("+"):
        if not chunk:
            raise ValueError(f"empty term in class text {text!r}")
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and not m.group("mono")):
            raise ValueError(f"cannot parse term {chunk!r} in class text {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        expo = [0] * len(names)
        mono = m.group("mono")
        for factor in filter(None, mono.split("*")):
            if "^" in factor:
                name, _, e = factor.partition("^")
                exp = int(e)
            else:
                name, exp = factor, 1
            if name not in names:
                raise ValueError(
                    f"unknown generator {name!r}; ambient has {list(names)}")
            expo[names[name]] += exp
        for g, e in zip(ambient.generators, expo):
            if e > g.cap and not g.rewrite:
                raise ValueError(
                    f"term {chunk!r} has {g.name}^{e}, above the top power "
                    f"{g.name}^{g.cap} of this ambient")
        key = tuple(expo)
        raw[key] = raw.get(key, 0) + sign * coeff
    return ambient.from_coeffs(raw)
