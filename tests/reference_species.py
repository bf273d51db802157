"""The frozenset walk, the reference for ``uhsl2.species.star_species``.

``reference_star_species`` builds the label sets as frozensets and walks
every block of every assignment in turn, x1, z2, h3, h1, h2, then h5, h6 and
y1, y2 in ``_h56_blocks``, adding one signed weight per labelled assignment.
It prunes only where the functors' supports leave a block no size.  The
library instead walks the block sizes first, in integers, and deals labels
only for the structures whose weight survives; the two must agree count for
count.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Iterable, Iterator, Sequence

from uhsl2.species import ColoredSizes, FunctorSpec, ascending_maps_count

# the argument positions of the four colors
X, Y, Z, H = range(4)


def _sized_subsets(pool: frozenset, sizes: Iterable[int]) -> Iterator[frozenset]:
    for s in sizes:
        if 0 <= s <= len(pool):
            for chosen in combinations(sorted(pool), s):
                yield frozenset(chosen)


def _slot_sizes(spec: FunctorSpec, color: int, limit: int, total: int) -> list[int]:
    """Sizes 0..limit of the ``color`` argument in some tuple of the support;
    no argument of a structure on sizes of this total is larger."""
    return sorted({sizes[color] for sizes in spec.support(total) if sizes[color] <= limit})


def reference_star_species(
    F: FunctorSpec, G: FunctorSpec, sizes: ColoredSizes | Sequence[int]
) -> int:
    """Signed structure count of the product functor, one assignment at a time."""
    nx, ny, nz, nh = sizes
    xs = frozenset(range(nx))
    ys = frozenset(range(ny))
    zs = frozenset(range(nz))
    hs = frozenset(range(nh))
    whole = sum(sizes)
    total = 0
    for x1 in _sized_subsets(xs, _slot_sizes(F, X, nx, whole)):
        x2 = xs - x1
        for z2 in _sized_subsets(zs, _slot_sizes(G, Z, nz, whole)):
            z1 = zs - z2
            # h3 feeds both F's z-slot and G's x-slot
            t_candidates = sorted(
                {fz - len(z1) for fz in _slot_sizes(F, Z, len(z1) + nh, whole)}
                & {gx - len(x2) for gx in _slot_sizes(G, X, len(x2) + nh, whole)}
                & set(range(nh + 1))
            )
            for t in t_candidates:
                for h3 in _sized_subsets(hs, (t,)):
                    rest = hs - h3
                    for h1 in _sized_subsets(rest, _slot_sizes(F, H, len(rest), whole)):
                        rest1 = rest - h1
                        for h2 in _sized_subsets(rest1, _slot_sizes(G, H, len(rest1), whole)):
                            rest2 = rest1 - h2
                            total += _h56_blocks(
                                F, G, x1, x2, z1, z2, h1, h2, t, ys, rest2, whole
                            )
    return total


def _h56_blocks(F, G, x1, x2, z1, z2, h1, h2, t, ys, pool, whole):
    """Inner blocks: h5, h6 out of ``pool`` (rest is h4), then y1, y2, y3."""
    ny = len(ys)
    total = 0
    f_y_slots = set(_slot_sizes(F, Y, ny + len(pool), whole))
    g_y_slots = set(_slot_sizes(G, Y, ny + len(pool), whole))
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
