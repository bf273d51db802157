"""Labelled-set realization of the categorical star product.

A functor here is one of three rigid kinds (divided power, singleton,
exponential in one color): its value on a 4-tuple of finite sets is 0 or 1
and depends only on the four cardinalities.  ``star_species`` computes the
signed structure count of the product functor on concrete label sets by
enumerating the block assignments of Definition-style data: x splits in two,
y in three, z in two, h in six blocks, subject to |y3| + |h4| = |h3|.  The
count must agree with the corresponding coefficient of the algebraic product,
which ``species_coefficient_check`` verifies size tuple by size tuple.

The enumeration runs over actual subsets of labels, so the multinomial
factors of the algebraic formula are never inserted by hand; they emerge from
the number of assignments sharing a block-size profile.  Branches are pruned
only when a functor factor is already forced to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    @property
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

    @property
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


def _sized_subsets(pool: frozenset, sizes: Iterable[int]) -> Iterator[frozenset]:
    for s in sizes:
        if 0 <= s <= len(pool):
            for chosen in combinations(sorted(pool), s):
                yield frozenset(chosen)


def star_species(F: FunctorSpec, G: FunctorSpec, sizes: ColoredSizes | Sequence[int]) -> int:
    """Signed structure count of the product functor on labelled color sets.

    Label sets of the given cardinalities are split into blocks
    x = x1|x2, y = y1|y2|y3, z = z1|z2, h = h1|..|h6 with |y3|+|h4| = |h3|;
    each assignment contributes
    (-1)^|h3| F(|x1|, |y1|+|h5|, |z1|+|h3|, |h1|)
             G(|x2|+|h3|, |y2|+|h6|, |z2|, |h2|)
             (2|x2|)^|h5| (2|z1|)^|h6| |y3|! |h4|!
             ascending_maps_count(|z1|+|x2|, |y3|+|h4|, |h4|).
    """
    nx, ny, nz, nh = sizes
    xs = frozenset(range(nx))
    ys = frozenset(range(ny))
    zs = frozenset(range(nz))
    hs = frozenset(range(nh))
    total = 0
    for x1 in _sized_subsets(xs, F.slot_sizes(X, nx)):
        x2 = xs - x1
        for z2 in _sized_subsets(zs, G.slot_sizes(Z, nz)):
            z1 = zs - z2
            # h3 feeds both F's z-slot and G's x-slot
            t_candidates = sorted(
                {fz - len(z1) for fz in F.slot_sizes(Z, len(z1) + nh)}
                & {gx - len(x2) for gx in G.slot_sizes(X, len(x2) + nh)}
                & set(range(nh + 1))
            )
            for t in t_candidates:
                for h3 in _sized_subsets(hs, (t,)):
                    rest = hs - h3
                    for h1 in _sized_subsets(rest, F.slot_sizes(H, len(rest))):
                        rest1 = rest - h1
                        for h2 in _sized_subsets(rest1, G.slot_sizes(H, len(rest1))):
                            rest2 = rest1 - h2
                            total += _h56_blocks(
                                F, G, x1, x2, z1, z2, h1, h2, t, ys, rest2
                            )
    return total


def _h56_blocks(F, G, x1, x2, z1, z2, h1, h2, t, ys, pool):
    """Inner blocks: h5, h6 out of ``pool`` (rest is h4), then y1, y2, y3."""
    ny = len(ys)
    total = 0
    f_y_slots = set(F.slot_sizes(Y, ny + len(pool)))
    g_y_slots = set(G.slot_sizes(Y, ny + len(pool)))
    for n5 in range(len(pool) + 1):
        y1_sizes = [fy - n5 for fy in f_y_slots if 0 <= fy - n5 <= ny]
        if not y1_sizes:
            continue
        for h5 in _sized_subsets(pool, (n5,)):
            rest = pool - h5
            for n6 in range(len(rest) + 1):
                y2_sizes = [gy - n6 for gy in g_y_slots if 0 <= gy - n6 <= ny]
                if not y2_sizes:
                    continue
                for h6 in _sized_subsets(rest, (n6,)):
                    h4 = rest - h6
                    n4 = len(h4)
                    n_y3 = t - n4
                    if n_y3 < 0:
                        continue
                    for y1 in _sized_subsets(ys, y1_sizes):
                        rest_y = ys - y1
                        for y2 in _sized_subsets(rest_y, y2_sizes):
                            y3 = rest_y - y2
                            if len(y3) != n_y3:
                                continue
                            fv = F.value((len(x1), len(y1) + n5, len(z1) + t, len(h1)))
                            if not fv:
                                continue
                            gv = G.value((len(x2) + t, len(y2) + n6, len(z2), len(h2)))
                            if not gv:
                                continue
                            total += (
                                (-1) ** t
                                * fv
                                * gv
                                * (2 * len(x2)) ** n5
                                * (2 * len(z1)) ** n6
                                * factorial(n_y3)
                                * factorial(n4)
                                * ascending_maps_count(len(z1) + len(x2), n_y3 + n4, n4)
                            )
    return total


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
