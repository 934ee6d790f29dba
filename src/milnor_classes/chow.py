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
so a monomial of total degree above the dimension is zero.

A class is stored by integer keys only: `CycleClass.terms` maps the key
of each normal-form monomial to its coefficient, in ascending key order.
A key is a mixed-radix integer with base 2 cap + 2 per generator, the
last generator in the lowest digit, and the codimension as one more, top
digit.  So keys sort by codimension and then by exponent tuple, a slot
holds any exponent up to 2 cap + 1 (the sum of two normal-form exponents,
and z itself on a rank-1 level, whose cap is 0), no slot of such a sum
carries, and the key of a product is the sum of the keys: past the top
codimension exactly when it reaches `key_bound`.  Exponent tuples are
only read (`from_coeffs`, `parse_class`) and written (`coeffs`, `render`).

`AmbientSpace._key_form` is the one reduction.  A key is zero above the
dimension or with a truncate slot above its cap, and its own normal form
when every slot is within its cap.  Otherwise its innermost rewrite slot
above its cap is rewritten through that level's relation, which has no
outer slot and at most cap in each inner one, so no child key carries.
Each ring keeps one table, `_key_forms`, with the normal form of every key
it has reduced.

One kernel serves multiply, inverse, the line twist (`bundles.line_twist`)
and the Chern-root products and divisions (`bundles.times_chern`):
`add_products` sums coefficients over pairs of keys below `key_bound`, and
`AmbientSpace.settle` takes each distinct key of the sum once.
`from_coeffs`, and with it `gen` and `parse_class`, encodes its monomials
and settles them the same way.  `divide` is the one graded division, for
the inverse and for every division of `times_chern`; it and the powers of
ell settle one codimension at a time.  `CycleClass.part` is the one cut
by codimension.

The tangent class of every ambient comes from its Chern roots (see
`bundles`): TP^n = O(1)^(n+1) - O, a product of projective spaces takes
one such term per factor, and P(E^v) adds p*E^v (x) O(1) - O when E is
split.

Coefficients are Python ints (arbitrary precision); any inversion of a
class whose degree-0 part is not a unit raises instead of rounding.
`int_text` and `parse_class` write and read them exactly at any size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, repeat
from operator import floordiv, lt, mod, mul
from typing import Collection, Iterable, Mapping


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

    # subclasses provide: dimension, generators (tuple[Generator]), and
    # _relation_keys when a generator is rewritten

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
    def _bases(self) -> tuple[int, ...]:
        """Radix of each exponent slot of a monomial key: 2 cap + 2."""
        return tuple(2 * g.cap + 2 for g in self.generators)

    @cached_property
    def _places(self) -> tuple[int, ...]:
        """Place value of each exponent slot; the last generator's slot is the lowest."""
        places = [1]
        for base in reversed(self._bases[1:]):
            places.append(places[-1] * base)
        return tuple(reversed(places))

    @cached_property
    def codim_place(self) -> int:
        """Place value of the top key digit, the codimension."""
        return self._places[0] * self._bases[0]

    @cached_property
    def key_bound(self) -> int:
        """The least key past the top codimension."""
        return (self.dimension + 1) * self.codim_place

    def key_of(self, mono: tuple[int, ...]) -> int:
        """Key of a monomial whose every exponent is below its slot's radix."""
        return sum(map(mul, mono, self._places)) + sum(mono) * self.codim_place

    def monomial(self, key: int) -> tuple[int, ...]:
        """Exponent tuple of a key."""
        return tuple(map(mod, map(floordiv, repeat(key), self._places), self._bases))

    @cached_property
    def _key_forms(self) -> dict[int, list[tuple[int, int]]]:
        """(key, coefficient) terms of the normal form of every settled key."""
        return {}

    @cached_property
    def _relation_keys(self) -> dict[int, tuple[int, list[tuple[int, int]]]]:
        """Per rewrite slot: the key of its generator to the power cap + 1, and
        the (key, coefficient) terms of the relation that replaces it."""
        return {}

    # -- product kernel -----------------------------------------------------

    def settle(self, acc: Mapping[int, int]) -> dict[int, int]:
        """Normal form of a sum of keys in ascending key order, each key reduced
        once per ring by `_key_form`.  Every slot of every key must be below
        its radix, as it is for a sum of two normal-form keys."""
        forms = self._key_forms
        out: dict[int, int] = {}
        get = out.get
        for key, c in acc.items():
            if not c:
                continue
            form = forms.get(key)
            if form is None:
                form = self._key_form(key)
            for k, v in form:
                out[k] = get(k, 0) + c * v
        return {k: c for k, c in sorted(out.items()) if c}

    def _key_form(self, key: int) -> list[tuple[int, int]]:
        """Normal form of a key by the rules of the module docstring.

        It goes into `_key_forms` with the form of every key it reduces
        through.  A work stack rather than recursion keeps the depth
        independent of the exponent.
        """
        forms = self._key_forms
        caps = self.top_monomial
        bound = self.key_bound
        waiting: dict[int, list[tuple[int, int]]] = {}  # key -> its (child key, coefficient)
        stack = [key]
        while stack:
            k = stack.pop()
            if k in forms:
                continue
            children = waiting.pop(k, None)
            if children is None:
                exps = self.monomial(k)
                over = [i for i, (e, cap) in enumerate(zip(exps, caps)) if e > cap]
                if k >= bound or any(not self.generators[i].rewrite for i in over):
                    forms[k] = []
                    continue
                if not over:
                    forms[k] = [(k, 1)]
                    continue
                drop, relation = self._relation_keys[over[0]]
                children = [(k - drop + rk, c) for rk, c in relation]
                missing = [ck for ck, _ in children if ck not in forms]
                if missing:
                    # reduce the children first, then come back to k
                    waiting[k] = children
                    stack.append(k)
                    stack.extend(missing)
                    continue
            nf: dict[int, int] = {}
            for ck, c in children:
                for kk, v in forms[ck]:
                    nf[kk] = nf.get(kk, 0) + c * v
            forms[k] = [(kk, v) for kk, v in nf.items() if v]
        return forms[key]

    # -- class constructors -------------------------------------------------

    def zero(self) -> "CycleClass":
        return CycleClass(self, {})

    def one(self) -> "CycleClass":
        return self.from_int(1)

    def from_int(self, m: int) -> "CycleClass":
        if not isinstance(m, int):
            raise TypeError(f"scalars must be exact integers, got {m!r}")
        return CycleClass(self, {0: m} if m else {})

    def gen(self, index: int) -> "CycleClass":
        """The index-th generator as a codimension-1 class (in normal form)."""
        return self._gens[index]

    @cached_property
    def _gens(self) -> "tuple[CycleClass, ...]":
        """Every generator's class, built once per ring."""
        n = len(self.generators)
        return tuple(self.from_coeffs({tuple(int(i == j) for i in range(n)): 1})
                     for j in range(n))

    def point_class(self) -> "CycleClass":
        return CycleClass(self, {self.key_of(self.top_monomial): 1})

    def from_coeffs(self, coeffs: Mapping[tuple[int, ...], int]) -> "CycleClass":
        """Build a class from raw monomial data, reducing to normal form.

        Each monomial is encoded as a key and settled.  One with an
        exponent past its slot's radix is the product of the normal forms
        of its halves and of its remainder bits, so the recursion depth is
        at most log2 of the exponent.
        """
        bases = self._bases
        acc: dict[int, int] = {}
        for mono, c in coeffs.items():
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be exact integers, got {c!r}")
            mono = tuple(mono)
            if len(mono) != len(bases):
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, "
                                 f"ambient has {len(bases)} generators")
            if min(mono) < 0 or not all(map(isinstance, mono, repeat(int))):
                raise ValueError(f"exponents must be non-negative integers, got {mono!r}")
            if all(map(lt, mono, bases)):
                key = self.key_of(mono)
                acc[key] = acc.get(key, 0) + c
            elif c and sum(mono) <= self.dimension:
                half = self.from_coeffs({tuple(e // 2 for e in mono): 1})
                part = half * half * self.from_coeffs({tuple(e % 2 for e in mono): c})
                for key, v in part.terms.items():  # in normal form
                    acc[key] = acc.get(key, 0) + v
        return CycleClass(self, self.settle(acc))

    @cached_property
    def tangent_roots(self) -> "tuple[tuple[CycleClass, int], ...] | None":
        """Chern roots of the tangent bundle (see `bundles`), None when unknown."""
        return None

    @cached_property
    def tangent_chern(self) -> "CycleClass":
        """Total Chern class of the tangent bundle, the product over its roots."""
        from .bundles import times_chern

        return times_chern(self.one(), self.tangent_roots)


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
    def _relation_keys(self) -> dict[int, tuple[int, list[tuple[int, int]]]]:
        # the base levels' relations, each key times z's radix, then this
        # level's z^r = sum_j (-1)^(j-1) c_j z^(r-j); z's key is 1 + codim_place
        radix, z_key, r = self._bases[-1], 1 + self.codim_place, self.rank
        rels = {i: (drop * radix, [(k * radix, c) for k, c in relation])
                for i, (drop, relation) in self.base._relation_keys.items()}
        place = self.base.codim_place
        rels[len(self.generators) - 1] = (r * z_key, [
            (k * radix + (r - k // place) * z_key, c if k // place % 2 else -c)
            for k, c in self.chern.part(1, r).terms.items()])
        return rels

    def zeta(self) -> "CycleClass":
        return self.gen(len(self.generators) - 1)

    def pullback(self, a: "CycleClass") -> "CycleClass":
        """p* of a class on the base: each key times z's radix, the lowest digit."""
        if a.ambient != self.base:
            raise AmbientMismatchError("pullback argument must live on the base")
        radix = self._bases[-1]
        return CycleClass(self, {k * radix: c for k, c in a.terms.items()})

    def pushforward(self, a: "CycleClass") -> "CycleClass":
        """p_* : read off the z^(r-1) coefficient of the normal form."""
        if a.ambient != self:
            raise AmbientMismatchError("pushforward argument must live on this bundle")
        # a normal-form monomial's base exponents are in base normal form
        top = self.rank - 1
        radix, shift = self._bases[-1], top * self.base.codim_place
        return CycleClass(self.base, {k // radix - shift: c for k, c in a.terms.items()
                                      if k % radix == top})

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


def int_text(n: int) -> str:
    """Exact decimal text of n, past the interpreter's int-to-str digit limit too."""
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        from decimal import Decimal
        return str(Decimal(n))


def _text_int(digits: str) -> int:
    """The inverse of `int_text` on a run of decimal digits."""
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        from decimal import Decimal
        return int(Decimal(digits))


def add_products(acc: dict[int, int], left: Iterable[tuple[int, int]],
                 right: Collection[tuple[int, int]], bound: int) -> None:
    """acc[k1 + k2] += c1 c2 over the (key, coefficient) terms of left and right.

    The pair loop of the product kernel.  right, read once per left term,
    is in ascending codimension, and a pair with k1 + k2 >= bound, the
    ring's `key_bound`, is past the top codimension, zero, and ends the
    inner loop.  `AmbientSpace.settle` turns acc into normal form.
    """
    get = acc.get
    for k1, c1 in left:
        room = bound - k1
        for k2, c2 in right:
            if k2 >= room:
                break
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def divide(a: CycleClass, x: CycleClass, times: int) -> CycleClass:
    """a (1 + x)^(-times), for x without a degree-0 part: the one graded division.

    Each pass solves b (1 + x) = a by b_k = a_k - x_1 b_(k-1) - ... - x_k b_0
    over the codimension-j pieces x_j of x.  Every relation is homogeneous,
    so b_k is the codimension-k piece of b: one `settle` of its summed key
    products, which the next codimensions read.
    """
    ambient = a.ambient
    place, bound = ambient.codim_place, ambient.key_bound
    minus_x: dict[int, list[tuple[int, int]]] = {}
    for key, c in x.terms.items():
        minus_x.setdefault(key // place, []).append((key, -c))
    terms = a.terms
    if not terms:
        return a
    for _ in range(times):
        pieces = {k: list(part) for k, part in groupby(terms.items(), lambda kc: kc[0] // place)}
        start = next(iter(terms)) // place
        solved: list[list[tuple[int, int]]] = []  # b_start, b_(start+1), ...
        for k in range(start, ambient.dimension + 1):
            acc = dict(pieces.get(k, ()))
            for j, piece in minus_x.items():  # ascending codimension
                if j > k - start:
                    break
                add_products(acc, solved[k - start - j], piece, bound)
            solved.append(list(ambient.settle(acc).items()))
        terms = {key: c for part in solved for key, c in part}
    return CycleClass(ambient, terms)


class CycleClass:
    """Element of the truncated Chow ring of an ambient space.

    Immutable after construction.  terms maps the keys of normal-form
    monomials to nonzero ints in ascending key order, so by codimension and
    within one codimension by exponent tuple; every constructor keeps that
    order.  coeffs is the same class decoded to exponent tuples.
    """

    __slots__ = ("ambient", "terms", "_hash")

    def __init__(self, ambient: AmbientSpace, terms: dict[int, int]):
        self.ambient = ambient
        self.terms = terms
        self._hash: int | None = None

    @property
    def coeffs(self) -> dict[tuple[int, ...], int]:
        """A decoded copy: {exponent tuple: coefficient}."""
        monomial = self.ambient.monomial
        return {monomial(k): c for k, c in self.terms.items()}

    # -- basic protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleClass):
            return NotImplemented
        return ((self.ambient is other.ambient or self.ambient == other.ambient)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ambient, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_same(self, other: "CycleClass") -> None:
        # identity first: ProjBundle equality recurses through the tower
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"operands live on {self.ambient!r} and {other.ambient!r}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "CycleClass") -> "CycleClass":
        self._check_same(other)
        out = dict(self.terms)
        top = next(reversed(out), -1)
        ordered = True  # a key that self lacks goes last: below self's top it breaks the order
        for k, c in other.terms.items():
            v = out.get(k)
            if v is None:
                out[k] = c
                ordered = ordered and k > top
            elif v + c:
                out[k] = v + c
            else:
                del out[k]
        return CycleClass(self.ambient, out if ordered else dict(sorted(out.items())))

    def __neg__(self) -> "CycleClass":
        return CycleClass(self.ambient, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        return self + (-other)

    def scale(self, m: int) -> "CycleClass":
        if not isinstance(m, int):
            raise TypeError(f"scalars must be exact integers, got {m!r}")
        if m == 0:
            return self.ambient.zero()
        return CycleClass(self.ambient, {k: m * c for k, c in self.terms.items()})

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
        add_products(acc, self.terms.items(), other.terms.items(), ambient.key_bound)
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
        unit = self.terms.get(0, 0)  # key 0 is the monomial 1
        if unit not in (1, -1):
            raise ValueError(f"degree-0 part {unit} is not a unit; cannot invert")
        rest = {k: unit * c for k, c in self.terms.items() if k}
        return divide(ambient.from_int(unit), CycleClass(ambient, rest), 1)

    def dual(self) -> "CycleClass":
        """c^v: flip the sign of every odd-codimension term (ambient grading)."""
        place = self.ambient.codim_place
        return CycleClass(self.ambient, {k: -c if k // place % 2 else c
                                         for k, c in self.terms.items()})

    # -- grading --------------------------------------------------------------

    def part(self, lo: int, hi: int) -> "CycleClass":
        """The sum of the homogeneous pieces of codimension lo through hi."""
        place = self.ambient.codim_place
        low, high = lo * place, (hi + 1) * place
        return CycleClass(self.ambient,
                          {k: c for k, c in self.terms.items() if low <= k < high})

    def component(self, codim: int) -> "CycleClass":
        """The homogeneous piece of the given codimension."""
        if codim < 0 or codim > self.ambient.dimension:
            raise ValueError(
                f"codimension {codim} out of range 0..{self.ambient.dimension}")
        return self.part(codim, codim)

    def degree(self) -> int:
        """Integral over the ambient: the coefficient of the point class."""
        return self.terms.get(self.ambient.key_of(self.ambient.top_monomial), 0)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms in descending key order, so by codimension and
        then exponent tuple, unit parts omitted."""
        if not self.terms:
            return "0"
        names = self.ambient.gen_names
        monomial = self.ambient.monomial
        pieces: list[str] = []
        for key, coeff in reversed(self.terms.items()):
            factors = []
            for name, e in zip(names, monomial(key)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, int_text(mag))
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
        coeff = _text_int(m.group("coeff")) if m.group("coeff") else 1
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
