"""Formal vector-bundle calculus on top of the Chow ring.

A bundle is identified with its rank and total Chern class; that is all
the downstream class formulas consume.  Every twist by a line bundle, here
and in the Aluffi and Le-cycle formulas, goes through one kernel,
`line_twist`; ranks are unrestricted but the twist must be a line bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .chow import (
    AmbientMismatchError,
    AmbientSpace,
    CycleClass,
    MultiProj,
    ProjSpace,
    add_products,
)


@dataclass(frozen=True)
class BundleClass:
    """A formal bundle: rank plus total Chern class with degree-0 part 1."""

    ambient: AmbientSpace
    rank: int
    chern: CycleClass

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank: {self.rank}")
        if self.chern.ambient != self.ambient:
            raise AmbientMismatchError("Chern class lives on a different ambient")
        if self._pieces[0] != self.ambient.one():
            raise ValueError("total Chern class must start with 1")
        for k in range(self.rank + 1, self.ambient.dimension + 1):
            if self._pieces[k]:
                raise ValueError(
                    f"Chern class has a nonzero part in codimension {k} > rank {self.rank}")

    @cached_property
    def _pieces(self) -> list[CycleClass]:
        return [part for _, part in self.chern.components()]

    @cached_property
    def inverse_chern(self) -> CycleClass:
        """c(E)^(-1), inverted once per bundle."""
        return self.chern.inverse()

    def c(self, k: int) -> CycleClass:
        """The k-th Chern class; zero beyond the ambient dimension."""
        if k < 0:
            raise ValueError(f"negative Chern class index {k}")
        if k > self.ambient.dimension:
            return self.ambient.zero()
        return self._pieces[k]

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
    return BundleClass(ambient, 1, ambient.one() + c1)


def trivial_bundle(ambient: AmbientSpace, rank: int = 1) -> BundleClass:
    return BundleClass(ambient, rank, ambient.one())


def direct_sum(e: BundleClass, f: BundleClass) -> BundleClass:
    """Whitney sum: ranks add, total Chern classes multiply."""
    if e.ambient != f.ambient:
        raise AmbientMismatchError("direct_sum operands live on different ambients")
    return BundleClass(e.ambient, e.rank + f.rank, e.chern * f.chern)


def bundle_power(e: BundleClass, copies: int) -> BundleClass:
    """E^(+ copies); copies = 0 gives the rank-0 bundle."""
    if copies < 0:
        raise ValueError("negative number of copies")
    return BundleClass(e.ambient, e.rank * copies, e.chern ** copies)


def dual(e: BundleClass) -> BundleClass:
    """c_k(E^v) = (-1)^k c_k(E)."""
    return BundleClass(e.ambient, e.rank, e.chern.dual())


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
    ell_terms = ambient.key_terms(ell.coeffs)
    powers = [[(0, 0, 1)]]  # key terms of ell^i, built on demand
    acc: dict[int, int] = {}
    for k, part in groupby(ambient.key_terms(a.coeffs), itemgetter(0)):
        e = s - k
        series = []  # (1 + ell)^e up to codimension n - k
        binom = 1
        for i in range(n - k + 1):
            if i:
                binom = binom * (e - i + 1) // i
                if not binom:  # e >= 0 and i > e: the series has ended
                    break
            if i == len(powers):
                step: dict[int, int] = {}
                add_products(step, powers[-1], ell_terms, n)
                powers.append(ambient.key_terms(ambient.settle(step)))
            series += [(i, key, binom * c) for _, key, c in powers[i]]
        add_products(acc, list(part), series, n)
    return CycleClass(ambient, ambient.settle(acc))


def twist_chern(chern: CycleClass, rank: int, ell: CycleClass) -> CycleClass:
    """c(E (x) L) = sum_(i <= rank) c_i(E) (1 + ell)^(rank - i), without validation.

    The line twist of the raw total Chern class cut at the rank: parts of
    chern above the rank do not enter.
    """
    cut = {m: c for m, c in chern.coeffs.items() if sum(m) <= rank}
    return line_twist(CycleClass(chern.ambient, cut), ell, rank)


def tensor_line(e: BundleClass, l: BundleClass) -> BundleClass:
    """Twist by a line bundle: c_k(E (x) L) = sum_i C(rank-i, k-i) c_i(E) c1(L)^(k-i)."""
    if l.rank != 1:
        raise ValueError(f"twist must be a line bundle, got rank {l.rank}")
    if e.ambient != l.ambient:
        raise AmbientMismatchError("tensor_line operands live on different ambients")
    return BundleClass(e.ambient, e.rank, twist_chern(e.chern, e.rank, l.c1()))


def tangent_bundle(ambient: AmbientSpace) -> BundleClass:
    """Tangent bundle of any supported ambient, from its cached c(TM)."""
    return BundleClass(ambient, ambient.dimension, ambient.tangent_chern)


def top_chern(e: BundleClass) -> CycleClass:
    return e.c(e.rank)
