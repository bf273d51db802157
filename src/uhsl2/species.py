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
first, in integers, with each size drawn from the functors' slot sizes; a
profile is dropped only when a functor value or a factor of its weight
vanishes.  Then, for each profile that survives, the actual labels of each
color are dealt into its blocks with ``combinations`` and the deals are
counted one by one.  So the multinomial factors of the algebraic formula are
never inserted by hand; they emerge as the number of labelled assignments
sharing a profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import factorial
from typing import Iterator, NamedTuple, Sequence

from .algebra import COLORS, Element, NormalMonomial, star

X, Y, Z, H = range(4)


class ColoredSizes(NamedTuple):
    """Cardinalities of the four color classes of a labelled input."""

    nx: int
    ny: int
    nz: int
    nh: int


class FunctorSpec:
    """Base for the rigid functor kinds; value on a size 4-tuple is 0 or 1."""

    def value(self, sizes: Sequence[int]) -> int:
        raise NotImplementedError

    def slot_sizes(self, color: int, limit: int) -> range:
        """Sizes of the ``color`` argument (0..limit) not forcing value 0.

        All three kinds accept a size tuple iff each color passes its own
        test, so per-color pruning is exact.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class DividedPower(FunctorSpec):
    a: int
    b: int
    c: int
    d: int

    @cached_property
    def exponents(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def value(self, sizes) -> int:
        return 1 if tuple(sizes) == self.exponents else 0

    def slot_sizes(self, color, limit) -> range:
        want = self.exponents[color]
        return range(want, want + 1) if want <= limit else range(0)

    def __str__(self) -> str:
        return f"dp({self.a},{self.b},{self.c},{self.d})"


@dataclass(frozen=True)
class Singleton(FunctorSpec):
    color: str

    @cached_property
    def exponents(self) -> tuple[int, int, int, int]:
        out = [0, 0, 0, 0]
        out[COLORS.index(self.color)] = 1
        return tuple(out)

    value = DividedPower.value
    slot_sizes = DividedPower.slot_sizes

    def __str__(self) -> str:
        return self.color


@dataclass(frozen=True)
class Exponential(FunctorSpec):
    color: str

    def value(self, sizes) -> int:
        own = COLORS.index(self.color)
        return 1 if all(s == 0 for i, s in enumerate(sizes) if i != own) else 0

    def slot_sizes(self, color, limit) -> range:
        if color == COLORS.index(self.color):
            return range(limit + 1)
        return range(1)

    def __str__(self) -> str:
        return f"exp({self.color})"


@lru_cache(maxsize=None)
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


def _deals(pool: Sequence[int], blocks: Sequence[int]) -> int:
    """Ways to deal the labels of ``pool`` into blocks of the given sizes.

    The sizes sum to ``len(pool)`` and the last block takes the labels left
    over.  Every deal is enumerated with ``combinations`` and counted one by
    one.
    """
    if len(blocks) <= 1:
        return 1
    first, *rest = blocks
    count = 0
    if len(rest) == 1:
        for _ in combinations(pool, first):
            count += 1
        return count
    for chosen in combinations(pool, first):
        taken = set(chosen)
        count += _deals([label for label in pool if label not in taken], rest)
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
    two stages.  ``_profiles`` enumerates the block-size profiles in
    integers and drops each one on which a functor value or a factor of the
    weight vanishes.  Then, for each profile that survives, the labels of
    each color are dealt into its blocks one assignment at a time, and the
    product of the four deal counts multiplies the weight.
    """
    total = 0
    for weight, *blocks in _profiles(F, G, sizes):
        count = 1
        for n, block_sizes in zip(sizes, blocks):
            # reordering the blocks is a bijection on the deals: dealing the
            # small ones first leaves the most to the final, uncounted block
            count *= _deals(range(n), sorted(k for k in block_sizes if k))
        total += weight * count
    return total


def _profiles(F: FunctorSpec, G: FunctorSpec, sizes: Sequence[int]) -> Iterator[tuple]:
    """Block-size profiles with a nonzero weight.

    Yields the weight and the block sizes of each color: (x1, x2),
    (y1, y2, y3), (z2, z1) and (h3, h1, h2, h5, h6, h4).  Each size is drawn
    from the slot sizes of the functor it feeds, and the loops skip the
    sizes on which (2|x2|)^|h5|, (2|z1|)^|h6| or ascending_maps_count is 0.
    """
    nx, ny, nz, nh = sizes
    # each slot at the widest size its blocks can give it; the four slots
    # fed by a single block are tested first, since most size tuples fail one
    if not ((fx := F.slot_sizes(X, nx)) and (gz := G.slot_sizes(Z, nz))
            and (fh := F.slot_sizes(H, nh)) and (gh := G.slot_sizes(H, nh))):
        return
    fy, fz = F.slot_sizes(Y, ny + nh), F.slot_sizes(Z, nz + nh)
    gx, gy = G.slot_sizes(X, nx + nh), G.slot_sizes(Y, ny + nh)
    for x1 in fx:
        x2 = nx - x1
        for z2 in gz:
            z1 = nz - z2
            for t in range(nh + 1):
                # h3 feeds both F's z-slot and G's x-slot
                if z1 + t not in fz or x2 + t not in gx:
                    continue
                for h1 in fh:
                    if h1 > nh - t:
                        break
                    for h2 in gh:
                        pool = nh - t - h1 - h2
                        if pool < 0:
                            break
                        for n5 in range(pool + 1 if x2 else 1):
                            for n6 in range(pool - n5 + 1 if z1 else 1):
                                n4 = pool - n5 - n6
                                n_y3 = t - n4
                                if not 0 <= n_y3 <= ny:
                                    continue
                                maps = ascending_maps_count(z1 + x2, t, n4)
                                if not maps:
                                    continue
                                for y_slot in fy:
                                    y1 = y_slot - n5
                                    y2 = ny - n_y3 - y1
                                    if y2 < 0:
                                        break
                                    if y1 < 0 or y2 + n6 not in gy:
                                        continue
                                    weight = (
                                        F.value((x1, y_slot, z1 + t, h1))
                                        * G.value((x2 + t, y2 + n6, z2, h2))
                                        * (-1) ** t
                                        * (2 * x2) ** n5
                                        * (2 * z1) ** n6
                                        * factorial(n_y3)
                                        * factorial(n4)
                                        * maps
                                    )
                                    if weight:
                                        yield (weight, (x1, x2), (y1, y2, n_y3),
                                               (z2, z1), (t, h1, h2, n5, n6, n4))


def valuation_element(spec: FunctorSpec, cap: int) -> Element:
    """The generating series of a functor, truncated at total degree ``cap``.

    Built directly from functor values on size tuples, one divided monomial
    per accepted tuple.
    """
    terms = {}
    for sizes in size_tuples(cap):
        v = spec.value(sizes)
        if v:
            terms[NormalMonomial(*sizes)] = v
    return Element(terms, cap)


def species_element(F: FunctorSpec, G: FunctorSpec, max_total: int) -> Element:
    """The product F * G up to total degree ``max_total``, from counts alone."""
    terms = {}
    for sizes in size_tuples(max_total):
        count = star_species(F, G, sizes)
        if count:
            terms[NormalMonomial(*sizes)] = count
    return Element(terms)


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
