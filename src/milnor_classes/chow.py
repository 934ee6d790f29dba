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

Every relation is homogeneous and the top codimension is the dimension,
so a monomial of total degree above the dimension is zero.  The normal
form of each monomial with a rewrite generator above its cap is computed
once per ring instance and kept on it.

Products run on integer keys.  Each ring encodes a monomial as a
mixed-radix integer with base 2 cap + 1 per generator.  Precondition: both
factors are in normal form, so every exponent is at most its cap; then
each exponent of a product monomial is at most 2 cap, no slot carries, and
the key of a product is the sum of the keys.  One kernel serves multiply,
inverse, the line twist (`bundles.line_twist`) and the Chern-root
products and divisions (`bundles.times_chern`): `add_products` sums
coefficients over integer keys, skipping pairs past the top codimension,
and `AmbientSpace.settle` takes each distinct key of the sum once: it
keeps an in-cap monomial, drops one with a truncate generator above its
cap and reduces one with only rewrite generators above their caps.  Each
ring keeps the normal form of every key it has settled, once.  `divide`
is the one graded division, for the inverse and for every division of
`times_chern`; it and the powers of ell settle one codimension at a time
with `settle_terms`, which stays in key space.

The tangent class of every ambient comes from its Chern roots (see
`bundles`): TP^n = O(1)^(n+1) - O, a product of projective spaces takes
one such term per factor, and P(E^v) adds p*E^v (x) O(1) - O when E is
split.

Coefficients are Python ints (arbitrary precision); any inversion of a
class whose degree-0 part is not a unit raises instead of rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import add, itemgetter, le, mul
from typing import Mapping


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

    @cached_property
    def _bases(self) -> tuple[int, ...]:
        """Radix of each exponent slot of a monomial key: 2 cap + 1."""
        return tuple(2 * g.cap + 1 for g in self.generators)

    @cached_property
    def _places(self) -> tuple[int, ...]:
        """Place value of each exponent slot of a monomial key."""
        places = [1]
        for base in self._bases[:-1]:
            places.append(places[-1] * base)
        return tuple(places)

    @cached_property
    def _key_forms(self) -> dict[int, list[tuple[tuple[int, ...], int, int]]]:
        """(monomial, key, coefficient) terms of the normal form of every settled key."""
        return {}

    # -- product kernel -----------------------------------------------------

    def key_terms(self, coeffs: Mapping[tuple[int, ...], int]) -> list[tuple[int, int, int]]:
        """(codimension, key, coefficient) of every normal-form monomial, by codimension."""
        places = self._places
        terms = [(sum(m), sum(map(mul, m, places)), c) for m, c in coeffs.items()]
        terms.sort()
        return terms

    def settle(self, acc: Mapping[int, int]) -> dict[tuple[int, ...], int]:
        """Normal form of a sum of product keys, each decoded once per ring.

        Every key must be a sum of two normal-form keys (or one), so that
        no slot has carried.  A key is decoded into its monomial, whose
        normal form `_reduce_term` gives once and `_key_forms` keeps: the
        monomial itself when in cap, its reduction when only rewrite
        generators are above their caps, and zero otherwise.
        """
        forms = self._key_forms
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for key, c in acc.items():
            if not c:
                continue
            form = forms.get(key)
            if form is None:
                form = self._key_form(key)
            for m, _, v in form:
                out[m] = get(m, 0) + c * v
        return {m: c for m, c in out.items() if c}

    def settle_terms(self, acc: Mapping[int, int], codim: int) -> list[tuple[int, int, int]]:
        """`settle` of a sum of keys of one codimension, kept as key terms.

        Every relation is homogeneous, so the normal form stays in that
        codimension; the (codimension, key, coefficient) terms feed the next
        `add_products` without decoding, and `settle` of their keys gives
        the monomials at the end.
        """
        forms = self._key_forms
        out: dict[int, int] = {}
        get = out.get
        for key, c in acc.items():
            if not c:
                continue
            form = forms.get(key)
            if form is None:
                form = self._key_form(key)
            for _, k, v in form:
                out[k] = get(k, 0) + c * v
        return [(codim, k, c) for k, c in out.items() if c]

    def _key_form(self, key: int) -> list[tuple[tuple[int, ...], int, int]]:
        """Decode a key into its monomial and keep its normal form in `_key_forms`."""
        exps = []
        rest = key
        for base in self._bases:
            rest, e = divmod(rest, base)
            exps.append(e)
        nf: dict[tuple[int, ...], int] = {}
        self._reduce_term(tuple(exps), 1, nf)
        places = self._places
        form = self._key_forms[key] = [(m, sum(map(mul, m, places)), v) for m, v in nf.items()]
        return form

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
    def tangent_roots(self) -> "tuple[tuple[CycleClass, int], ...] | None":
        """Chern roots of the tangent bundle (see `bundles`), None when unknown."""
        return None

    @cached_property
    def tangent_chern(self) -> "CycleClass":
        """Total Chern class of the tangent bundle, the product over its roots."""
        from .bundles import times_chern

        return times_chern(self.one(), self.tangent_roots)

    # -- normal form --------------------------------------------------------

    @cached_property
    def _zeta_relations(self) -> dict[int, dict[tuple[int, ...], int]]:
        return {}

    @cached_property
    def _normal_forms(self) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
        """Normal form of every monomial reduced so far in this ring."""
        return {}

    def _reduce_term(self, mono: tuple[int, ...], coeff: int,
                     out: dict[tuple[int, ...], int]) -> None:
        """Add coeff times the normal form of mono into out.

        A truncate generator above its cap, or a total degree above the
        dimension, makes the monomial zero.  A rewrite generator above its
        cap is reduced through its relation; that normal form is computed
        once per ring and kept in `_normal_forms`.
        """
        gens = self.generators
        if len(mono) != len(gens):
            raise ValueError(
                f"monomial {mono} has {len(mono)} exponents, ambient has {len(gens)} generators")
        if not coeff or sum(mono) > self.dimension:
            return
        if all(map(le, mono, self.top_monomial)):
            out[mono] = out.get(mono, 0) + coeff
        elif all(map(le, mono, self._truncate_caps)):
            for m, c in self._normal_form(mono).items():
                out[m] = out.get(m, 0) + coeff * c

    def _normal_form(self, mono: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Normal form of a monomial whose only over-cap generators rewrite.

        Rewrites the outermost such generator through its relation and
        combines the memoised normal forms of the results.  A work stack
        rather than recursion keeps the depth independent of the exponent.
        """
        memo = self._normal_forms
        if mono in memo:
            return memo[mono]
        caps = self.top_monomial
        truncate_caps = self._truncate_caps
        relations = self._zeta_relations
        stack = [mono]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            # outermost generator first so nested bundle levels settle
            hot = max(i for i, (e, cap) in enumerate(zip(m, caps)) if e > cap)
            rest = list(m)
            rest[hot] -= caps[hot] + 1
            nf: dict[tuple[int, ...], int] = {}
            missing = []
            for rel_mono, rel_c in relations[hot].items():
                child = tuple(map(add, rest, rel_mono))
                if all(map(le, child, caps)):
                    nf[child] = nf.get(child, 0) + rel_c
                elif all(map(le, child, truncate_caps)):
                    form = memo.get(child)
                    if form is None:
                        missing.append(child)
                    elif not missing:
                        for k, v in form.items():
                            nf[k] = nf.get(k, 0) + rel_c * v
            if missing:
                # reduce the results first, then come back to m
                stack.extend(missing)
                continue
            memo[m] = {k: v for k, v in nf.items() if v}
            stack.pop()
        return memo[mono]


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
    def tangent_roots(self) -> "tuple[tuple[CycleClass, int], ...]":
        # Euler sequence: TP^n = O(1)^(n+1) - O
        return ((self.gen(0), self.n + 1), (self.zero(), -1))

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
    def tangent_roots(self) -> "tuple[tuple[CycleClass, int], ...]":
        # one Euler sequence per factor
        return tuple((self.gen(i), d + 1) for i, d in enumerate(self.dims)) + (
            (self.zero(), -len(self.dims)),)

    def __repr__(self) -> str:
        return f"MultiProj{self.dims}"


class ProjBundle(AmbientSpace):
    """Total space of P(E^v) -> base for a formal bundle E of rank r >= 1.

    The bundle is recorded by its rank and total Chern class on the base,
    and by its Chern roots on the base when E is split (they do not enter
    equality).  The tautological quotient line bundle O(1) contributes the
    generator z.
    """

    def __init__(self, base: AmbientSpace, rank: int, chern: "CycleClass",
                 roots: "tuple[tuple[CycleClass, int], ...] | None" = None):
        if rank < 1:
            raise ValueError(f"bundle rank must be >= 1, got {rank}")
        if chern.ambient != base:
            raise AmbientMismatchError("bundle Chern class does not live on the base ambient")
        if chern.component(0) != base.one():
            raise ValueError("bundle Chern class must have degree-0 part 1")
        if roots is not None and sum(m for _, m in roots) != rank:
            raise ValueError(f"root multiplicities do not sum to the rank {rank}")
        self.base = base
        self.rank = rank
        self.chern = chern
        self.roots = roots

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
    def sub_chern(self) -> "CycleClass":
        """c(F) = c(p*E) (1+z)^(-1) of the tautological sub-bundle F.

        Raw Chern data like relative_tangent_chern: with a corrupted relation
        its parts in codimension >= r stay nonzero rather than raising.
        """
        from .bundles import times_chern

        return times_chern(self.pullback(self.chern), ((self.zeta(), -1),))

    @cached_property
    def relative_tangent_roots(self) -> "tuple[tuple[CycleClass, int], ...] | None":
        """Roots z - p*e of p*E^v (x) O(1), one per root e of E; None without roots."""
        if self.roots is None:
            return None
        z = self.zeta()
        return tuple((z - self.pullback(e), m) for e, m in self.roots)

    @cached_property
    def sub_roots(self) -> "tuple[tuple[CycleClass, int], ...] | None":
        """Roots of F = p*E - O(1): the p*e of E's roots and z with multiplicity -1."""
        if self.roots is None:
            return None
        return tuple((self.pullback(e), m) for e, m in self.roots) + ((self.zeta(), -1),)

    @cached_property
    def tangent_roots(self) -> "tuple[tuple[CycleClass, int], ...] | None":
        # T = p*T_base + T_rel, and T_rel = p*E^v (x) O(1) - O (Euler sequence)
        base_roots = self.base.tangent_roots
        if base_roots is None or self.roots is None:
            return None
        return (tuple((self.pullback(x), m) for x, m in base_roots)
                + self.relative_tangent_roots + ((self.zero(), -1),))

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


def add_products(acc: dict[int, int], left: list[tuple[int, int, int]],
                 right: list[tuple[int, int, int]], dim: int) -> None:
    """acc[k1 + k2] += c1 c2 over (codimension, key, coefficient) terms of left and right.

    The pair loop of the product kernel.  right is sorted by codimension,
    and a pair whose codimensions add past dim is skipped: every ring is
    graded with top codimension dim, so that product is zero.
    `AmbientSpace.settle` turns acc into normal form.
    """
    get = acc.get
    for d1, k1, c1 in left:
        room = dim - d1
        for d2, k2, c2 in right:
            if d2 > room:
                break
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def divide(a: CycleClass, x: CycleClass, times: int) -> CycleClass:
    """a (1 + x)^(-times), for x without a degree-0 part: the one graded division.

    Each pass solves b (1 + x) = a by b_k = a_k - x_1 b_(k-1) - ... - x_k b_0
    over the codimension-j pieces x_j of x.  Every relation is homogeneous,
    so b_k is the codimension-k piece of b: one `settle_terms` of its summed
    key products, kept as key terms for the next codimensions.
    """
    ambient = a.ambient
    dim = ambient.dimension
    minus_x: dict[int, list[tuple[int, int, int]]] = {}
    for d, key, c in ambient.key_terms(x.coeffs):
        minus_x.setdefault(d, []).append((d, key, -c))
    terms = ambient.key_terms(a.coeffs)
    if not terms:
        return a
    for _ in range(times):
        pieces = {k: list(part) for k, part in groupby(terms, itemgetter(0))}
        start = terms[0][0]
        solved: list[list[tuple[int, int, int]]] = []  # b_start, b_(start+1), ...
        for k in range(start, dim + 1):
            acc = {key: c for _, key, c in pieces.get(k, ())}
            for j, piece in minus_x.items():  # ascending codimension
                if j > k - start:
                    break
                add_products(acc, solved[k - start - j], piece, dim)
            solved.append(ambient.settle_terms(acc, k))
        terms = [term for part in solved for term in part]
    # pieces of distinct codimension never share a key
    return CycleClass(ambient, ambient.settle({key: c for _, key, c in terms}))


class CycleClass:
    """Element of the truncated Chow ring of an ambient space.

    Immutable after construction; coeffs maps exponent tuples in normal
    form to nonzero ints, so every exponent is at most its generator's cap,
    which the product kernel's integer keys rely on.  Grading is by
    codimension (total exponent).
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
        acc: dict[int, int] = {}
        add_products(acc, ambient.key_terms(self.coeffs), ambient.key_terms(other.coeffs),
                     ambient.dimension)
        return CycleClass(ambient, ambient.settle(acc))

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

        With u = a_0 = u^(-1), a = u (1 + u (a - u)), so the inverse is
        u (1 + u (a - u))^(-1), one `divide`; exact over the integers.
        """
        ambient = self.ambient
        origin = (0,) * len(ambient.generators)
        unit = self.coeffs.get(origin, 0)
        if unit not in (1, -1):
            raise ValueError(f"degree-0 part {unit} is not a unit; cannot invert")
        rest = {m: unit * c for m, c in self.coeffs.items() if m != origin}
        return divide(ambient.from_int(unit), CycleClass(ambient, rest), 1)

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
