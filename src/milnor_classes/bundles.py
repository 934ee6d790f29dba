"""Formal vector-bundle calculus on top of the Chow ring.

A bundle is identified with its rank and total Chern class; that is all
the downstream class formulas consume.  Every twist by a line bundle, here
and in the Aluffi and Le-cycle formulas, goes through one kernel,
`line_twist`; ranks are unrestricted but the twist must be a line bundle.

A bundle may also carry Chern roots: (class, multiplicity) pairs with
codimension-1 (or zero) classes ell and multiplicities m summing to the
rank, so that c(E) = prod (1 + ell)^m (the splitting principle, Fulton,
*Intersection Theory* 3.2).  Negative multiplicities stand for virtual
summands: TP^n = O(1)^(n+1) - O has the roots {h: n+1, 0: -1}.  Line,
trivial and tangent bundles get roots, and direct sums, duals and twists
keep them.  Every product with c(E)^(+-1) or a power of it goes through
one kernel, `times_chern`, which multiplies or divides by one (1 + ell) at
a time; a bundle without roots enters as the one factor 1 + (c(E) - 1),
through the same product and the same division, `chow.divide`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from .chow import (
    AmbientMismatchError,
    AmbientSpace,
    CycleClass,
    MultiProj,
    ProjSpace,
    add_products,
    divide,
)

# Chern roots: (ell, m) pairs standing for the factor (1 + ell)^m
Roots = tuple[tuple[CycleClass, int], ...]


def _merge_roots(pairs: Iterable[tuple[CycleClass, int]]) -> Roots:
    """Add the multiplicities of equal classes and drop the pairs that reach 0."""
    merged: list[list] = []
    for ell, m in pairs:
        for entry in merged:
            if entry[0] == ell:
                entry[1] += m
                break
        else:
            merged.append([ell, m])
    return tuple((ell, m) for ell, m in merged if m)


def _is_root(ell: CycleClass) -> bool:
    """ell is zero or homogeneous of codimension 1."""
    return ell.part(1, 1) == ell


@dataclass(frozen=True)
class BundleClass:
    """A formal bundle: rank plus total Chern class with degree-0 part 1.

    roots, when known, are Chern roots with multiplicities summing to the
    rank (a class may repeat); they are not checked against chern and do
    not enter equality.
    """

    ambient: AmbientSpace
    rank: int
    chern: CycleClass
    roots: Roots | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank: {self.rank}")
        if self.chern.ambient != self.ambient:
            raise AmbientMismatchError("Chern class lives on a different ambient")
        if self.chern.part(0, 0) != self.ambient.one():
            raise ValueError("total Chern class must start with 1")
        above = self.chern.part(self.rank + 1, self.ambient.dimension)
        if above:
            k = next(k for k in range(self.rank + 1, self.ambient.dimension + 1)
                     if above.component(k))
            raise ValueError(
                f"Chern class has a nonzero part in codimension {k} > rank {self.rank}")
        if self.roots is not None:
            for ell, _ in self.roots:
                if ell.ambient is not self.ambient and ell.ambient != self.ambient:
                    raise AmbientMismatchError("Chern root lives on a different ambient")
                if not _is_root(ell):
                    raise ValueError(f"Chern root {ell.render()} is not of codimension 1")
            if sum(map(itemgetter(1), self.roots)) != self.rank:
                raise ValueError(f"root multiplicities do not sum to the rank {self.rank}")

    def c(self, k: int) -> CycleClass:
        """The k-th Chern class; zero beyond the ambient dimension."""
        if k < 0:
            raise ValueError(f"negative Chern class index {k}")
        return self.chern.part(k, k)

    def c1(self) -> CycleClass:
        return self.c(1)


def line_bundle(ambient: AmbientSpace, multidegree: int | tuple[int, ...] | list[int]) -> BundleClass:
    """O(d_1, ..., d_k): rank 1 with c = 1 + sum d_j h_j."""
    if not isinstance(ambient, (ProjSpace, MultiProj)):
        raise ValueError(f"line_bundle expects a projective-space ambient, got {ambient!r}")
    degs = (multidegree,) if isinstance(multidegree, int) else tuple(multidegree)
    if len(degs) != len(ambient.generators):
        raise ValueError(
            f"multidegree {degs} has {len(degs)} entries, ambient has "
            f"{len(ambient.generators)} generators")
    c1 = ambient.zero()
    for i, d in enumerate(degs):
        c1 = c1 + ambient.gen(i).scale(d)
    return BundleClass(ambient, 1, ambient.one() + c1, ((c1, 1),))


def trivial_bundle(ambient: AmbientSpace, rank: int = 1) -> BundleClass:
    return BundleClass(ambient, rank, ambient.one(), ((ambient.zero(), rank),))


def direct_sum(e: BundleClass, f: BundleClass) -> BundleClass:
    """Whitney sum: ranks add, total Chern classes multiply, root lists join."""
    if e.ambient != f.ambient:
        raise AmbientMismatchError("direct_sum operands live on different ambients")
    roots = None if e.roots is None or f.roots is None else e.roots + f.roots
    return BundleClass(e.ambient, e.rank + f.rank, e.chern * f.chern, roots)


def dual(e: BundleClass) -> BundleClass:
    """c_k(E^v) = (-1)^k c_k(E); the roots change sign."""
    roots = None if e.roots is None else tuple((-ell, m) for ell, m in e.roots)
    return BundleClass(e.ambient, e.rank, e.chern.dual(), roots)


def chern_roots(e: BundleClass, s: int = 1) -> Roots:
    """The factors of c(E)^s for `times_chern`.

    E's roots with every multiplicity times s; a bundle without roots gives
    the one factor (c(E) - 1, s), which `times_chern` takes expanded.
    """
    if e.roots is None:
        return ((e.chern - e.ambient.one(), s),)
    return tuple((ell, m * s) for ell, m in e.roots)


def line_twist(a: CycleClass, ell: CycleClass, s: int) -> CycleClass:
    """sum_k a^(k) (1 + ell)^(s - k) = c(L)^s (a (x) L), for ell = c1(L) of codimension 1.

    a^(k) is the codimension-k piece of a, and a (x) L = sum_k a^(k) c(L)^(-k)
    is Aluffi's twist, a graded ring endomorphism with
    (a (x) L) (x) L' = a (x) (L (x) L'); so line_twist(., -ell, s) inverts
    line_twist(., ell, s).  The generalized binomials C(e, i) of
    (1 + ell)^e come from C(e, i) = C(e, i-1) (e - i + 1) / i, exact for
    negative e too; ell^i a^(k) vanishes once i + k passes the dimension.
    """
    ambient = a.ambient
    n = ambient.dimension
    place = ambient.codim_place
    series = _binomial_series(ell)
    acc: dict[int, int] = {}
    for k, part in groupby(a.terms.items(), lambda kc: kc[0] // place):
        add_products(acc, part, series(s - k, n - k), ambient.key_bound)
    return CycleClass(ambient, ambient.settle(acc))


def _binomial_series(ell: CycleClass):
    """series(e, top): (key, coefficient) terms of (1 + ell)^e up to codimension top.

    The calls share the terms of the powers ell^i, built on demand.
    """
    ambient = ell.ambient
    bound = ambient.key_bound
    ell_terms = ell.terms.items()
    powers = [[(0, 1)]]

    def series(e: int, top: int) -> list[tuple[int, int]]:
        out = []
        binom = 1
        for i in range(top + 1):
            if i:
                binom = binom * (e - i + 1) // i
                if not binom:  # e >= 0 and i > e: the series has ended
                    break
            if i == len(powers):
                step: dict[int, int] = {}
                add_products(step, powers[-1], ell_terms, bound)
                powers.append(list(ambient.settle(step).items()))
            if not powers[i]:  # ell^i = 0, and so is every higher power
                break
            out += [(key, binom * c) for key, c in powers[i]]
        return out

    return series


def times_chern(a: CycleClass, roots: Iterable[tuple[CycleClass, int]]) -> CycleClass:
    """a prod (1 + x)^m over the (x, m) pairs of roots.

    The product of a with c(E)^s is times_chern(a, chern_roots(E, s)).
    Factors with m > 0 go first, since a division makes a sparse class
    dense, and a factor that cannot reach past a's top codimension is
    skipped.  x is a Chern root of codimension 1, or c(E) - 1 of a bundle
    without roots; either enters one (1 + x) at a time: a product with
    1 + x for m > 0, and for m < 0 the graded recurrence `chow.divide`.
    When x is a multiple c g of one truncate generator, (1 + x)^m has at
    most min(top, cap) + 1 terms below a's top, and its binomial series,
    the one `line_twist` uses, is multiplied in at once: always for m > 0,
    and for m < 0 once the recurrence would take more passes than the
    series has terms (the tangent powers c(TP^n)^(-k)).
    """
    ambient = a.ambient
    one = ambient.one()
    for x, m in sorted(_merge_roots(roots), key=lambda root: root[1] < 0):
        if not x or not a:
            continue
        # (1 + x)^m matters up to this codimension
        top = ambient.dimension - next(iter(a.terms)) // ambient.codim_place
        if not top:
            continue
        cap = _truncate_cap(x)
        if cap is not None and (m > 0 or -m > min(top, cap)):
            acc: dict[int, int] = {}
            add_products(acc, a.terms.items(), _binomial_series(x)(m, top), ambient.key_bound)
            a = CycleClass(ambient, ambient.settle(acc))
        elif m > 0:
            for _ in range(m):
                a = a * (one + x)
        else:
            a = divide(a, x, -m)
    return a


def _truncate_cap(ell: CycleClass) -> int | None:
    """The cap of the truncate generator g when ell = c g, else None.

    Only then is (1 + ell)^m the binomial series in one codimension-1
    class; a monomial such as h^2 or h1 h2 is not.
    """
    if len(ell.terms) != 1 or not _is_root(ell):
        return None
    (mono,) = ell.coeffs
    gen = ell.ambient.generators[mono.index(1)]
    return None if gen.rewrite else gen.cap


def twist_chern(chern: CycleClass, rank: int, ell: CycleClass) -> CycleClass:
    """c(E (x) L) = sum_(i <= rank) c_i(E) (1 + ell)^(rank - i), without validation.

    The line twist of the raw total Chern class cut at the rank: parts of
    chern above the rank do not enter.
    """
    return line_twist(chern.part(0, rank), ell, rank)


def tensor_line(e: BundleClass, l: BundleClass) -> BundleClass:
    """Twist by a line bundle: c_k(E (x) L) = sum_i C(rank-i, k-i) c_i(E) c1(L)^(k-i)."""
    if l.rank != 1:
        raise ValueError(f"twist must be a line bundle, got rank {l.rank}")
    if e.ambient != l.ambient:
        raise AmbientMismatchError("tensor_line operands live on different ambients")
    ell = l.c1()
    roots = None if e.roots is None else tuple((x + ell, m) for x, m in e.roots)
    return BundleClass(e.ambient, e.rank, twist_chern(e.chern, e.rank, ell), roots)


def tangent_bundle(ambient: AmbientSpace) -> BundleClass:
    """Tangent bundle of any supported ambient, from its cached c(TM) and roots."""
    return BundleClass(ambient, ambient.dimension, ambient.tangent_chern,
                       ambient.tangent_roots)


def top_chern(e: BundleClass) -> CycleClass:
    return e.c(e.rank)
