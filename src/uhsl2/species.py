"""Labelled-set realization of the categorical star product.

A functor here is one of three rigid kinds (divided power, singleton,
exponential in one color): its value on a 4-tuple of finite sets is 0 or 1
and depends only on the four cardinalities.  ``star_species`` computes the
signed structure count of the product functor on concrete label sets by
enumerating the block assignments of Definition-style data: x splits in two,
y in three, z in two, h in six blocks, subject to |y3| + |h4| = |h3|.  The
count must agree with the corresponding coefficient of the algebraic product,
which ``species_coefficient_check`` verifies size tuple by size tuple.

The count runs in two stages.  ``_profiles`` walks the block-size profiles
in integers, over six free sizes; most size tuples of a check fall below the
lowest sizes the two functors accept and are refused before the walk.  Then
the labels of each color are dealt into a profile's blocks one block at a
time, each block's labels chosen out of those the earlier blocks left.  So
the multinomial factors of the algebraic formula are never inserted by hand;
they emerge as the number of labelled assignments sharing a profile.  Both
a block's choices and the ascending maps are counted by ``_placements``, row
by row, and kept in bounded memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import COLORS, Element, NormalMonomial, star

X, Y, Z, H = range(4)
# color -> the exponents of its singleton
_UNIT_EXPONENTS = {c: tuple(int(c == k) for k in COLORS) for c in COLORS}
# color -> the largest sizes an exponential in it accepts; None is no bound
_EXP_HIGHEST = {c: tuple(None if c == k else 0 for k in COLORS) for c in COLORS}


class ColoredSizes(NamedTuple):
    """Cardinalities of the four color classes of a labelled input."""

    nx: int
    ny: int
    nz: int
    nh: int


class FunctorSpec:
    """Base for the rigid functor kinds; value on a size 4-tuple is 0 or 1.

    Each kind holds as data the ``lowest`` size it accepts in each color and
    the ``highest`` (None when any size is accepted), and it accepts a size
    tuple iff every size lies within its color's bounds.  So each color is
    tested on its own, and per-color pruning is exact.
    """

    lowest: tuple[int, int, int, int]
    highest: tuple[int | None, int | None, int | None, int | None]

    def value(self, sizes: Sequence[int]) -> int:
        return int(all(s in self.slot_sizes(color, s) for color, s in enumerate(sizes)))

    def slot_sizes(self, color: int, limit: int) -> range:
        """Sizes of the ``color`` argument (0..limit) not forcing value 0."""
        high = self.highest[color]
        return range(self.lowest[color], limit + 1 if high is None or high > limit else high + 1)


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
        self.__dict__.update(a=a, b=b, c=c, d=d, exponents=e, lowest=e, highest=e)

    def __str__(self) -> str:
        return f"dp({self.a},{self.b},{self.c},{self.d})"


@dataclass(frozen=True, init=False)
class Singleton(FunctorSpec):
    color: str

    def __init__(self, color: str):
        _check_color(self, color)
        e = _UNIT_EXPONENTS[color]
        self.__dict__.update(color=color, exponents=e, lowest=e, highest=e)

    def __str__(self) -> str:
        return self.color


@dataclass(frozen=True, init=False)
class Exponential(FunctorSpec):
    color: str

    def __init__(self, color: str):
        _check_color(self, color)
        self.__dict__.update(color=color, lowest=(0, 0, 0, 0), highest=_EXP_HIGHEST[color])

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
# species check up to total T meets at most C(T + 3, 3) keys: 1,771 at T = 20
@lru_cache(maxsize=1 << 11)
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
# (T + 1)(T + 2) / 2 keys: 231 at T = 20
@lru_cache(maxsize=1 << 9)
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

    The contribution depends only on the block sizes, so ``_profiles``
    walks the profiles with a nonzero one, and the labels of each color are
    dealt into a profile's blocks one block at a time, each block's labels
    chosen out of those the earlier blocks left: a deal's count is the
    product of its blocks' ``_choices``.
    """
    nx, ny, nz, nh = sizes
    total = 0
    for weight, (x1, _), (y1, y2, _), (z2, _), (h3, h1, h2, h5, h6, _) in _profiles(F, G, sizes):
        # the last block of each color takes the labels left
        pool = nh - h3 - h1 - h2
        total += (weight * _choices(nx, x1) * _choices(ny, y1) * _choices(ny - y1, y2)
                  * _choices(nz, z2) * _choices(nh, h3) * _choices(nh - h3, h1)
                  * _choices(nh - h3 - h1, h2) * _choices(pool, h5) * _choices(pool - h5, h6))
    return total


def _profiles(F: FunctorSpec, G: FunctorSpec, sizes: Sequence[int]) -> Iterator[tuple]:
    """Block-size profiles with a nonzero weight.

    Yields the weight and the block sizes of each color: (x1, x2),
    (y1, y2, y3), (z2, z1) and (h3, h1, h2, h5, h6, h4).  The walk runs over
    six free sizes, each in its functor's slot range: x1, F's y and z sizes,
    h1, z2 and h2.  They fix x2, z1 and t = |h3|, and so G's x size x2 + t
    and y size ny + nh - (F's y) - 2t - h1 - h2, each kept only within G's
    slot range, so both functor values are 1.  Then |h5| is 0 when x2 is
    empty, where (2|x2|)^|h5| vanishes otherwise, and |h6| is 0 when z1 is
    empty; |h4| takes what is left of h and |y3| = t - |h4|.

    Most size tuples have no profile, so each is first tested against the
    functors' lowest sizes, in integers, before any range is built: x1 needs
    F's lowest x, z2 G's lowest z, and t the shortfall of F's z slot from z1
    and of G's x slot from x2; h1, h2 and t share h, and F's and G's y sizes
    with 2t, h1 and h2 make up ny + nh.  When nx is F's lowest x, x2 and so
    h5 are empty and y1 is all of F's y size; when nz is G's lowest z, z1
    and h6 are empty and y2 is all of G's.
    """
    nx, ny, nz, nh = sizes
    fx0, fy0, fz0, fh0 = F.lowest
    gx0, gy0, gz0, gh0 = G.lowest
    t0 = max(fz0 + gz0 - nz, gx0 + fx0 - nx, 0)
    if (nx < fx0 or nz < gz0 or fh0 + gh0 + t0 > nh
            or fy0 + gy0 + 2 * t0 + fh0 + gh0 > ny + nh
            or (fy0 if nx == fx0 else 0) + (gy0 if nz == gz0 else 0) > ny):
        return
    # each slot at the widest size its blocks can give it
    free = (F.slot_sizes(X, nx), F.slot_sizes(Y, ny + nh), F.slot_sizes(Z, nz + nh),
            F.slot_sizes(H, nh), G.slot_sizes(Z, nz), G.slot_sizes(H, nh))
    gxs, gys = G.slot_sizes(X, nx + nh), G.slot_sizes(Y, ny + nh)
    # F sees (x1, y1+h5, z1+h3, h1) and G sees (x2+h3, y2+h6, z2, h2)
    for x1, fy, fz, h1, z2, h2 in product(*free):
        x2, z1 = nx - x1, nz - z2
        t = fz - z1
        pool = nh - t - h1 - h2  # |h4| + |h5| + |h6|
        # |y1| + |y2| + |y3| = ny with |y3| + |h4| = |h3| = t
        gy = ny + nh - fy - 2 * t - h1 - h2
        if t < 0 or pool < 0 or x2 + t not in gxs or gy not in gys:
            continue
        # |h4| = pool - |h5| - |h6| is at most t, since |y3| = t - |h4|
        top5 = min(pool, fy) if x2 else 0
        top6 = min(pool, gy) if z1 else 0
        for n5 in range(max(pool - t - top6, 0), top5 + 1):
            for n6 in range(max(pool - t - n5, 0), min(pool - n5, top6) + 1):
                n4 = pool - n5 - n6
                # 0 when x2 and z1 are both empty and |h4| = t > 0
                maps = ascending_maps_count(z1 + x2, t, n4)
                if maps:
                    weight = ((-1) ** t * (2 * x2) ** n5 * (2 * z1) ** n6
                              * factorial(t - n4) * factorial(n4) * maps)
                    yield (weight, (x1, x2), (fy - n5, gy - n6, t - n4),
                           (z2, z1), (t, h1, h2, n5, n6, n4))


def valuation_element(spec: FunctorSpec, cap: int) -> Element:
    """The generating series of a functor, truncated at total degree ``cap``.

    Built directly from functor values on size tuples, one divided monomial
    per accepted tuple.
    """
    return Element({NormalMonomial(*sizes): spec.value(sizes)
                    for sizes in size_tuples(cap)}, cap)


def species_element(F: FunctorSpec, G: FunctorSpec, max_total: int) -> Element:
    """The product F * G up to total degree ``max_total``, from counts alone."""
    return Element({NormalMonomial(*sizes): star_species(F, G, sizes)
                    for sizes in size_tuples(max_total)})


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


def species_coefficient_check(
    F: FunctorSpec, G: FunctorSpec, max_total: int
) -> SpeciesCheckReport:
    """Compare the labelled counts with the algebraic product coefficients.

    Every size tuple with total at most ``max_total`` is checked against the
    coefficient of the corresponding divided monomial in the star product of
    the two generating series; a mismatch is a term of their difference.
    """
    counts = species_element(F, G, max_total)
    series = star(valuation_element(F, max_total), valuation_element(G, max_total))
    differing = (counts - series).terms
    sizes = list(size_tuples(max_total))
    mismatches = [
        SpeciesMismatch(s, counts.coefficient(s), series.coefficient(s))
        for s in sizes if s in differing
    ]
    return SpeciesCheckReport(F, G, max_total, len(sizes), mismatches)
