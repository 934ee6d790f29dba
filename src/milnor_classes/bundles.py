"""Formal vector-bundle calculus on top of the Chow ring.

A bundle is identified with its rank and total Chern class; that is all
the downstream class formulas consume.  Twisting by a line bundle uses the
splitting-principle binomial rule, so ranks are unrestricted but the twist
must be a line bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable

from .chow import AmbientMismatchError, AmbientSpace, CycleClass, MultiProj, ProjSpace


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


def line_powers(ell: CycleClass, top: int) -> list[CycleClass]:
    """[1, ell, ell^2, ..., ell^top]."""
    powers = [ell.ambient.one()]
    for _ in range(top):
        powers.append(powers[-1] * ell)
    return powers


def line_polynomial(powers: list[CycleClass], coeffs: Iterable[int]) -> CycleClass:
    """sum_j coeffs[j] ell^j over shared powers from line_powers."""
    out: dict[tuple[int, ...], int] = {}
    for cj, pj in zip(coeffs, powers):
        if cj:
            for m, c in pj.coeffs.items():
                out[m] = out.get(m, 0) + cj * c
    return CycleClass(powers[0].ambient, {m: c for m, c in out.items() if c})


def twist_chern(chern: CycleClass, rank: int, ell: CycleClass) -> CycleClass:
    """Binomial line twist of a raw total Chern class, without validation.

    c(E (x) L) = sum_(i <= rank) c_i(E) (1 + ell)^(rank - i) with ell = c1(L):
    the splitting-principle rule c_k = sum_i C(rank-i, k-i) c_i ell^(k-i).
    Parts of chern above the rank do not enter.
    """
    top = min(rank, chern.ambient.dimension)  # ell^j c_i vanishes past the dimension
    powers = line_powers(ell, top)
    out = chern.ambient.zero()
    for i, part in chern.components()[:rank + 1]:
        if part:
            series = line_polynomial(powers, (comb(rank - i, j) for j in range(top - i + 1)))
            out = out + part * series
    return out


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
