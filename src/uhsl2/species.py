"""Labelled-set realization of the categorical star product.

A functor here is one of three rigid kinds (divided power, singleton,
exponential in one color): its value on a 4-tuple of finite sets is 0 or 1
and depends only on the four cardinalities.  ``star_species`` computes the
signed structure count of the product functor on concrete label sets by
enumerating the block assignments of Definition-style data: x splits in two,
y in three, z in two, h in six blocks, subject to |y3| + |h4| = |h3|.  The
count must agree with the corresponding coefficient of the algebraic product,
which ``species_coefficient_check`` verifies size tuple by size tuple.

The count walks the structures, not the size tuples.  F's and G's
arguments, taken from their supports (the size tuples where their value is
1), |h3| and |h4| + |h5| + |h6| fix a structure's size tuple, so
``species_element`` walks these and adds each count at its sizes, and
``star_species`` solves the last two from the sizes it is given.  The
labels of each color are dealt into the blocks one block at a time, each
block's labels chosen out of those the earlier blocks left, so the
multinomial factors of the algebraic formula are never inserted by hand.
Both a block's choices and the ascending maps are counted by
``_placements``, row by row, and kept in bounded memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import COLORS, Element, NormalMonomial, star

# color -> the exponents of its singleton
_UNIT_EXPONENTS = {c: tuple(int(c == k) for k in COLORS) for c in COLORS}


class ColoredSizes(NamedTuple):
    """Cardinalities of the four color classes of a labelled input."""

    nx: int
    ny: int
    nz: int
    nh: int


class FunctorSpec:
    """Base for the rigid functor kinds; value on a size 4-tuple is 0 or 1.

    A kind with ``exponents`` accepts those sizes alone.  ``value`` only
    compares, so its cost does not grow with the sizes.
    """

    exponents: tuple[int, int, int, int]

    def value(self, sizes: Sequence[int]) -> int:
        return int(tuple(sizes) == self.exponents)

    def support(self, total: int) -> tuple[tuple[int, int, int, int], ...]:
        """The size tuples of total at most ``total`` with value 1."""
        return (self.exponents,) if sum(self.exponents) <= total else ()


def _check_color(spec: FunctorSpec, color: str) -> None:
    if color not in COLORS:
        raise ValueError(f"{type(spec).__name__}({color!r}): color must be one of "
                         f"{', '.join(COLORS)}")


# Each kind is built by one update of its instance dict, which a frozen
# dataclass leaves open: the generated __init__ writes each field through
# object.__setattr__ on its own, and a caller may build the two functors again
# for each size tuple it counts.  The fields, and so ==, hash and repr, are
# the dataclass's.
@dataclass(frozen=True, init=False)
class DividedPower(FunctorSpec):
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        e = (a, b, c, d)
        # the bitwise or of ints is negative when one of them is
        if not (type(a) is type(b) is type(c) is type(d) is int and a | b | c | d >= 0):
            NormalMonomial.checked(e)
        self.__dict__.update(a=a, b=b, c=c, d=d, exponents=e)

    def __str__(self) -> str:
        return f"dp({self.a},{self.b},{self.c},{self.d})"


@dataclass(frozen=True, init=False)
class Singleton(FunctorSpec):
    color: str

    def __init__(self, color: str):
        _check_color(self, color)
        self.__dict__.update(color=color, exponents=_UNIT_EXPONENTS[color])

    def __str__(self) -> str:
        return self.color


@dataclass(frozen=True, init=False)
class Exponential(FunctorSpec):
    color: str

    def __init__(self, color: str):
        _check_color(self, color)
        self.__dict__.update(color=color)

    def value(self, sizes: Sequence[int]) -> int:
        # every other color is empty
        return int(not any(s for s, u in zip(sizes, _UNIT_EXPONENTS[self.color]) if not u))

    def support(self, total: int) -> tuple[tuple[int, int, int, int], ...]:
        unit = _UNIT_EXPONENTS[self.color]
        return tuple(tuple(k * u for u in unit) for k in range(total + 1))

    def __str__(self) -> str:
        return f"exp({self.color})"


def _placements(rows: Iterable[int], k: int) -> int:
    """Ways to put k dots on rows of the given lengths, at most one per row.

    Counted row by row: a placement either leaves the last row empty or puts
    a dot in one of its cells, so each row adds its length times the
    placements of one dot fewer on the rows before it.  A loop, not a
    recursion, so the number of rows is not limited by the recursion depth.
    """
    # counts[j]: placements of j dots on the rows added so far
    counts = [1] + [0] * k
    for i, length in enumerate(rows):
        for j in range(min(i + 1, k), 0, -1):
            counts[j] += length * counts[j - 1]
    return counts[k]


# base, m and k are the sizes of the disjoint blocks z1 + x2, h3 and h4, so a
# species check up to total T meets at most C(T + 3, 3) keys: 6,545 at T = 32
@lru_cache(maxsize=1 << 13)
def ascending_maps_count(base: int, m: int, k: int) -> int:
    """Maps from an ordered k-set into components of sizes base..base+m-1,
    with strictly increasing component indices.

    Equivalently, placements of k dots on the staircase tableau with those row
    lengths, at most one per row.  Conventions: 1 for m = k = 0 (the empty
    map), 0 for m = 0 < k.
    """
    if base < 0:
        raise ValueError("component sizes must be natural numbers")
    if k < 0:
        raise ValueError("the number of dots must be a natural number")
    return _placements(range(base, base + m), k)


# one key (n, k) with k <= n <= T for each block a check up to total T deals,
# (T + 1)(T + 2) / 2 keys: 561 at T = 32
@lru_cache(maxsize=1 << 10)
def _choices(n: int, k: int) -> int:
    """Ways to choose the k labels of one block out of n: k dots on n rows of
    one cell, as a choice either holds the last label or does not."""
    return _placements((1,) * n, k)


def star_species(F: FunctorSpec, G: FunctorSpec, sizes: ColoredSizes | Sequence[int]) -> int:
    """Signed structure count of the product functor on labelled color sets.

    Label sets of the given cardinalities are split into blocks
    x = x1|x2, y = y1|y2|y3, z = z1|z2, h = h1|..|h6 with |y3|+|h4| = |h3|;
    each assignment contributes
    (-1)^|h3| F(|x1|, |y1|+|h5|, |z1|+|h3|, |h1|)
             G(|x2|+|h3|, |y2|+|h6|, |z2|, |h2|)
             (2|x2|)^|h5| (2|z1|)^|h6| |y3|! |h4|!
             ascending_maps_count(|z1|+|x2|, |y3|+|h4|, |h4|).

    Only assignments where F and G are 1 count, so F's and G's arguments
    are walked in their supports; nx = |x1| + |x2| then gives t = |h3|, and
    nh gives pool = |h4| + |h5| + |h6|.
    """
    nx, ny, nz, nh = sizes
    total = 0
    for fa in F.support(sum(sizes)):
        for ga in G.support(sum(sizes) - sum(fa)):
            t = fa[0] + ga[0] - nx
            pool = nh - t - fa[3] - ga[3]
            # nz and ny must come out as given too
            if (0 <= t <= min(fa[2], ga[0]) and pool >= 0 and fa[2] + ga[2] - t == nz
                    and fa[1] + ga[1] + t - pool == ny):
                total += _count(fa, ga, t, pool, sizes)
    return total


def _count(fa: Sequence[int], ga: Sequence[int], t: int, pool: int, sizes: Sequence[int]) -> int:
    """Signed count of the structures on ``sizes`` where F sees ``fa``, G sees
    ``ga``, |h3| = t and |h4| + |h5| + |h6| = pool.

    F sees (x1, y1+h5, z1+h3, h1) and G sees (x2+h3, y2+h6, z2, h2), so only
    |h5| and |h6| are free: |h5| is 0 when x2 is empty, where (2|x2|)^|h5|
    vanishes otherwise, and |h6| is 0 when z1 is empty; |h4| takes the rest
    of the pool and |y3| = t - |h4|.  A deal's count is the product of its
    blocks' ``_choices``.
    """
    nx, ny, nz, nh = sizes
    x1, fy, fz, h1 = fa
    gx, gy, z2, h2 = ga
    x2, z1 = gx - t, fz - t
    total = 0
    # |h4| = pool - |h5| - |h6| is at most t, since |y3| = t - |h4|
    top5 = min(pool, fy) if x2 else 0
    top6 = min(pool, gy) if z1 else 0
    for n5 in range(max(pool - t - top6, 0), top5 + 1):
        for n6 in range(max(pool - t - n5, 0), min(pool - n5, top6) + 1):
            n4 = pool - n5 - n6
            # 0 when x2 and z1 are both empty and |h4| = t > 0
            maps = ascending_maps_count(z1 + x2, t, n4)
            if maps:
                y1, y2 = fy - n5, gy - n6
                # the last block of each color takes the labels left
                total += ((-1) ** t * (2 * x2) ** n5 * (2 * z1) ** n6
                          * factorial(t - n4) * factorial(n4) * maps
                          * _choices(nx, x1) * _choices(ny, y1) * _choices(ny - y1, y2)
                          * _choices(nz, z2) * _choices(nh, t) * _choices(nh - t, h1)
                          * _choices(nh - t - h1, h2) * _choices(pool, n5)
                          * _choices(pool - n5, n6))
    return total


def valuation_element(spec: FunctorSpec, cap: int) -> Element:
    """The generating series of a functor, truncated at total degree ``cap``:
    one divided monomial per size tuple of its support."""
    return Element({NormalMonomial(*sizes): 1 for sizes in spec.support(cap)}, cap)


def species_element(F: FunctorSpec, G: FunctorSpec, max_total: int) -> Element:
    """The product F * G up to total degree ``max_total``, from counts alone.

    Walks F's and G's arguments in their supports, t = |h3| and pool =
    |h4| + |h5| + |h6|, and adds each ``_count`` at the sizes these fix; the
    total degree is conserved, so G's argument has what F's leaves.
    """
    counts: dict[NormalMonomial, int] = {}
    for fa in F.support(max_total):
        x1, fy, fz, h1 = fa
        for ga in G.support(max_total - sum(fa)):
            gx, gy, z2, h2 = ga
            for t in range(min(fz, gx) + 1):
                x2, z1 = gx - t, fz - t
                # |h4| <= t, |h5| <= F's y (0 if x2 is empty), |h6| <= G's y (0 if z1 is)
                for pool in range(t + (fy if x2 else 0) + (gy if z1 else 0) + 1):
                    sizes = NormalMonomial(x1 + x2, fy + gy + t - pool, z1 + z2,
                                           t + h1 + h2 + pool)
                    counts[sizes] = counts.get(sizes, 0) + _count(fa, ga, t, pool, sizes)
    return Element(counts)


def size_tuples(max_total: int) -> Iterator[ColoredSizes]:
    for nx in range(max_total + 1):
        for ny in range(max_total - nx + 1):
            for nz in range(max_total - nx - ny + 1):
                for nh in range(max_total - nx - ny - nz + 1):
                    yield ColoredSizes(nx, ny, nz, nh)


@dataclass
class SpeciesMismatch:
    sizes: ColoredSizes
    species_count: int
    series_coefficient: object


@dataclass
class SpeciesCheckReport:
    left: FunctorSpec
    right: FunctorSpec
    max_total: int
    checked: int
    mismatches: list[SpeciesMismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def species_coefficient_check(F: FunctorSpec, G: FunctorSpec,
                              max_total: int) -> SpeciesCheckReport:
    """Compare the labelled counts with the algebraic product coefficients.

    Every size tuple with total at most ``max_total`` is checked against the
    coefficient of the corresponding divided monomial in the star product of
    the two generating series; a mismatch is a term of their difference.
    """
    counts = species_element(F, G, max_total)
    series = star(valuation_element(F, max_total), valuation_element(G, max_total))
    mismatches = [SpeciesMismatch(ColoredSizes(*s), counts.coefficient(s), series.coefficient(s))
                  for s in sorted((counts - series).terms)]
    # the number of size tuples of total at most max_total, C(max_total + 4, 4)
    checked = (max_total + 1) * (max_total + 2) * (max_total + 3) * (max_total + 4) // 24
    return SpeciesCheckReport(F, G, max_total, checked, mismatches)
