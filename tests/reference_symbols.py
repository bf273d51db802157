"""Brute-force references for the symbols of ``uhsl2.combinatorics``.

``elementary_symmetric`` is the defining enumeration over subsets, the
reference that ``shifted_elem``'s row recurrence is checked against, and
``pochhammer_k`` is the k-shifted product that ``falling_factorial`` is
checked against at k = -1.  Neither is used by the package.
"""

from __future__ import annotations

from itertools import combinations


def elementary_symmetric(s: int, values: list[int]) -> int:
    """Sum of all products of s distinct entries of ``values``.

    This is the defining enumeration over s-subsets: 1 for s = 0 (empty
    product), 0 for s > len(values).
    """
    if s < 0:
        raise ValueError("subset size must be a natural number")
    total = 0
    for subset in combinations(values, s):
        term = 1
        for v in subset:
            term *= v
        total += term
    return total


def pochhammer_k(a, n: int, k):
    """The k-shifted product a(a+k)(a+2k)...(a+(n-1)k).

    ``a`` and ``k`` may be integers or any commuting ring elements supporting
    + and *, such as ``Element`` values over y and h.  n = 0 gives 1 by the
    empty-product convention, which is what lets the shift recursions bottom
    out.
    """
    out = 1
    term = a
    for _ in range(n):
        out = out * term
        term = term + k
    return out
