"""Formal vector bundles on top of the Chow ring, and formal bundles only.

A bundle is identified with its rank and total Chern class; that is all
the downstream class formulas consume.  The Chern-class arithmetic the
bundle operations need (the line twist, products with c(E)^(+-1), the
check of Chern data) is `chow`'s, so this module reads no class keys.

A bundle may also carry Chern roots: (class, multiplicity) pairs with
codimension-1 (or zero) classes ell and multiplicities m summing to the
rank, so that c(E) = prod (1 + ell)^m (the splitting principle, Fulton,
*Intersection Theory* 3.2).  Negative multiplicities stand for virtual
summands: TP^n = O(1)^(n+1) - O has the roots {h: n+1, 0: -1}.  Line,
trivial and tangent bundles get roots, and direct sums, duals and twists
keep them.  `chern_roots` hands the factors of c(E)^s to
`chow.times_chern`; a bundle without roots enters as the one factor
1 + (c(E) - 1).
"""

from __future__ import annotations

from .chow import (
    AmbientMismatchError,
    AmbientSpace,
    CycleClass,
    MultiProj,
    ProjSpace,
    Roots,
    check_chern,
    same_ambient,
    twist_chern,
)


class BundleClass:
    """A formal bundle: rank plus total Chern class with degree-0 part 1.

    roots, when known, are Chern roots with multiplicities summing to the
    rank (a class may repeat); they are not checked against chern and do
    not enter equality.
    """

    __slots__ = ("ambient", "rank", "chern", "roots")

    def __init__(self, ambient: AmbientSpace, rank: int, chern: CycleClass,
                 roots: Roots | None = None):
        self.ambient = ambient
        self.rank = rank
        self.chern = chern
        self.roots = roots
        self.__post_init__()

    def __post_init__(self) -> None:
        check_chern(self.ambient, self.rank, self.chern, self.roots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return (same_ambient(self.ambient, other.ambient) and self.rank == other.rank
                and self.chern == other.chern)

    def c(self, k: int) -> CycleClass:
        """The k-th Chern class; zero beyond the ambient dimension."""
        if k < 0:
            raise ValueError(f"negative Chern class index {k}")
        return self.chern.part(k, k)

    def c1(self) -> CycleClass:
        return self.c(1)


# (ring, multidegree) -> (c, roots) of its line bundle; rings are interned,
# so one entry per ring shape and multidegree the process has asked for
_LINE_CLASSES: dict[tuple[AmbientSpace, tuple[int, ...]], tuple[CycleClass, Roots]] = {}


def line_bundle(ambient: AmbientSpace, multidegree: int | tuple[int, ...] | list[int]) -> BundleClass:
    """O(d_1, ..., d_k): rank 1 with c = 1 + sum d_j h_j.

    Its classes are built once per ring and multidegree and shared by every
    bundle returned for them.  Each call still validates the BundleClass it
    returns, so what a call does is the same whatever earlier calls built.
    """
    if not isinstance(ambient, (ProjSpace, MultiProj)):
        raise ValueError(f"line_bundle expects a projective-space ambient, got {ambient!r}")
    degs = (multidegree,) if isinstance(multidegree, int) else tuple(multidegree)
    if len(degs) != len(ambient.generators):
        raise ValueError(
            f"multidegree {degs} has {len(degs)} entries, ambient has "
            f"{len(ambient.generators)} generators")
    for d in degs:  # before the lookup: 2.0 would find the entry of 2
        if not isinstance(d, int):
            raise TypeError(f"scalars must be exact integers, got {d!r}")
    classes = _LINE_CLASSES.get((ambient, degs))
    if classes is None:
        n = len(degs)
        c1 = {tuple(int(i == j) for i in range(n)): d for j, d in enumerate(degs)}
        classes = _LINE_CLASSES[ambient, degs] = (
            ambient.from_coeffs({(0,) * n: 1, **c1}), ((ambient.from_coeffs(c1), 1),))
    chern, roots = classes
    return BundleClass(ambient, 1, chern, roots)


def trivial_bundle(ambient: AmbientSpace, rank: int = 1) -> BundleClass:
    return BundleClass(ambient, rank, ambient.one(), ((ambient.zero(), rank),))


def direct_sum(e: BundleClass, f: BundleClass) -> BundleClass:
    """Whitney sum: ranks add, total Chern classes multiply, root lists join."""
    if not same_ambient(e.ambient, f.ambient):
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


def tensor_line(e: BundleClass, l: BundleClass) -> BundleClass:
    """Twist by a line bundle: c_k(E (x) L) = sum_i C(rank-i, k-i) c_i(E) c1(L)^(k-i)."""
    if l.rank != 1:
        raise ValueError(f"twist must be a line bundle, got rank {l.rank}")
    if not same_ambient(e.ambient, l.ambient):
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
