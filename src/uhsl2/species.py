"""Labelled-set realization of the categorical star product.

A functor here is one of three rigid kinds (divided power, singleton,
exponential in one color): its value on a 4-tuple of finite sets is 0 or 1
and depends only on the four cardinalities.  ``star_species`` computes the
signed structure count of the product functor on concrete label sets by
enumerating the block assignments of Definition-style data: x splits in two,
y in three, z in two, h in six blocks, subject to |y3| + |h4| = |h3|.  The
count must agree with the corresponding coefficient of the algebraic product,
which ``species_coefficient_check`` verifies size tuple by size tuple.

The count runs in two stages.  The block-size profiles are enumerated
first, in integers: the walk runs over the eight argument sizes the two
functors see, each drawn from the functor's slot sizes, and these fix every
block but h5 and h6, the only two sizes left free.  Then, for each profile,
the labels of each color are dealt into its blocks: the choices of labels
for a block are enumerated with ``combinations`` and counted one by one.  So
the multinomial factors of the algebraic formula are never inserted by hand;
they emerge as the number of labelled assignments sharing a profile.  A
deal's count depends only on the number of labels and the block sizes, so
each distinct deal is enumerated once and its count kept in a bounded memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from typing import Iterator, NamedTuple, Sequence

from .algebra import COLORS, Element, NormalMonomial, star

X, Y, Z, H = range(4)
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

    A kind names the sizes each color's argument may take with
    ``slot_sizes``, the fixed ``exponents`` unless it overrides it.  Each
    color is tested on its own, so a size tuple is accepted iff every size
    passes its color's test, and per-color pruning is exact.
    """

    def value(self, sizes: Sequence[int]) -> int:
        return int(all(s in self.slot_sizes(color, s) for color, s in enumerate(sizes)))

    def slot_sizes(self, color: int, limit: int) -> range:
        """Sizes of the ``color`` argument (0..limit) not forcing value 0."""
        want = self.exponents[color]
        return range(want, want + 1) if want <= limit else range(0)


@dataclass(frozen=True)
class DividedPower(FunctorSpec):
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        # set once here, since a cached_property locks on its first access
        object.__setattr__(self, "exponents", (self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return f"dp({self.a},{self.b},{self.c},{self.d})"


@dataclass(frozen=True)
class _OneColor(FunctorSpec):
    color: str

    def __post_init__(self):
        if self.color not in COLORS:
            raise ValueError(f"{type(self).__name__}({self.color!r}): color must be "
                             f"one of {', '.join(COLORS)}")


@dataclass(frozen=True)
class Singleton(_OneColor):
    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "exponents", _UNIT_EXPONENTS[self.color])

    def __str__(self) -> str:
        return self.color


@dataclass(frozen=True)
class Exponential(_OneColor):
    def slot_sizes(self, color, limit) -> range:
        if color == COLORS.index(self.color):
            return range(limit + 1)
        return range(1)

    def __str__(self) -> str:
        return f"exp({self.color})"


# base, m and k are the sizes of the disjoint blocks z1 + x2, h3 and h4, so a
# species check up to total T meets at most C(T + 3, 3) keys: 969 at T = 16
@lru_cache(maxsize=1 << 10)
def ascending_maps_count(base: int, m: int, k: int) -> int:
    """Maps from an ordered k-set into components of sizes base..base+m-1,
    with strictly increasing component indices, counted one by one.

    Equivalently, placements of k dots on the staircase tableau with those row
    lengths, at most one per row.  Conventions: 1 for m = k = 0 (the empty
    map), 0 for m = 0 < k.
    """
    if base < 0:
        raise ValueError("component sizes must be natural numbers")
    count = 0
    for comps in combinations(range(m), k):
        for _assignment in product(*(range(base + i) for i in comps)):
            count += 1
    return count


# the key is a partition of n into at most six parts, the blocks of h; a
# species check up to total T meets at most one per partition of each n <= T,
# 634 at T = 16
@lru_cache(maxsize=1 << 10)
def _deals(n: int, blocks: tuple[int, ...]) -> int:
    """Ways to deal n labels into blocks of the given sizes, which sum to n.

    The choices of labels for the first block are enumerated with
    ``combinations`` and counted one by one; the last block takes the labels
    left over.  Each choice leaves the same number of labels for the other
    blocks, so their deals are counted by one memoized call on the rest, and
    each distinct (n, blocks) is enumerated once while it stays in the memo.
    """
    if len(blocks) <= 1:
        return 1
    rest_count = _deals(n - blocks[0], blocks[1:])
    count = 0
    for _ in combinations(range(n), blocks[0]):
        count += rest_count
    return count


def star_species(F: FunctorSpec, G: FunctorSpec, sizes: ColoredSizes | Sequence[int]) -> int:
    """Signed structure count of the product functor on labelled color sets.

    Label sets of the given cardinalities are split into blocks
    x = x1|x2, y = y1|y2|y3, z = z1|z2, h = h1|..|h6 with |y3|+|h4| = |h3|;
    each assignment contributes
    (-1)^|h3| F(|x1|, |y1|+|h5|, |z1|+|h3|, |h1|)
             G(|x2|+|h3|, |y2|+|h6|, |z2|, |h2|)
             (2|x2|)^|h5| (2|z1|)^|h6| |y3|! |h4|!
             ascending_maps_count(|z1|+|x2|, |y3|+|h4|, |h4|).

    The contribution depends only on the block sizes, so the count runs in
    two stages.  ``_profiles`` enumerates the block-size profiles with a
    nonzero contribution in integers, from the eight argument sizes of F and
    G and the two free sizes |h5| and |h6|.  Then, for each profile, the
    labels of each color are dealt into its blocks by ``_deals``, and the
    product of the four deal counts multiplies the weight.  A deal count
    depends only on the number of labels and the block sizes, so each
    distinct one is enumerated once and memoized.
    """
    total = 0
    for weight, *blocks in _profiles(F, G, sizes):
        count = 1
        for n, block_sizes in zip(sizes, blocks):
            # reordering the blocks is a bijection on the deals, so one sorted
            # key serves every order; the largest block comes last, uncounted
            count *= _deals(n, tuple(sorted(k for k in block_sizes if k)))
        total += weight * count
    return total


def _profiles(F: FunctorSpec, G: FunctorSpec, sizes: Sequence[int]) -> Iterator[tuple]:
    """Block-size profiles with a nonzero weight.

    Yields the weight and the block sizes of each color: (x1, x2),
    (y1, y2, y3), (z2, z1) and (h3, h1, h2, h5, h6, h4).  The walk runs over
    the eight argument sizes of the two functors, each drawn from its slot
    sizes, so both functor values are 1.  They fix x1, x2, z1, z2, h1, h2
    and t = |h3|, which must be the same from either side.  Only |h5| and
    |h6| stay free: |h5| is 0 when x2 is empty, where (2|x2|)^|h5| vanishes
    otherwise, and |h6| is 0 when z1 is empty.  Then |h4| takes what is left
    of h and |y3| = t - |h4|.
    """
    nx, ny, nz, nh = sizes
    # each slot at the widest size its blocks can give it; the four slots
    # fed by a single block are tested first, since most size tuples fail one
    if not ((fx := F.slot_sizes(X, nx)) and (gz := G.slot_sizes(Z, nz))
            and (fh := F.slot_sizes(H, nh)) and (gh := G.slot_sizes(H, nh))):
        return
    slots = (fx, F.slot_sizes(Y, ny + nh), F.slot_sizes(Z, nz + nh), fh,
             G.slot_sizes(X, nx + nh), G.slot_sizes(Y, ny + nh), gz, gh)
    # F sees (x1, y1+h5, z1+h3, h1) and G sees (x2+h3, y2+h6, z2, h2)
    for x1, fy, fz, h1, gx, gy, z2, h2 in product(*slots):
        x2, z1 = nx - x1, nz - z2
        t = fz - z1
        pool = nh - t - h1 - h2  # |h4| + |h5| + |h6|
        # |y1| + |y2| + |y3| = ny with |y3| + |h4| = |h3| = t
        if t < 0 or t != gx - x2 or pool < 0 or fy + gy + 2 * t + h1 + h2 != ny + nh:
            continue
        for n5 in range(min(pool, fy) + 1 if x2 else 1):
            for n6 in range(min(pool - n5, gy) + 1 if z1 else 1):
                n4 = pool - n5 - n6
                # 0 when |h4| > t, which leaves y3 a negative size, and when
                # x2 and z1 are both empty and |h4| = t > 0
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
