"""Symmetric-function and Pochhammer symbols behind the product coefficients.

Everything here is exact integer arithmetic.  The shifted symbol (a)^s_n is
computed iteratively by its row recurrence; the tests recompute it by
brute-force enumeration (``tests/reference_symbols.py``).  The vam3 identity
lives in y and h, which commute, so both of its sides are plain coefficient
lists.
"""

from __future__ import annotations

from functools import lru_cache


# bounded, so that a long run keeps at most this many symbols alive; the
# identity catalog asks for 869 distinct ones
@lru_cache(maxsize=1 << 12)
def shifted_elem(a: int, s: int, n: int) -> int:
    """The shifted symbol (a)^s_n = e^s_n(a, a+1, ..., a+n-1).

    Evaluated in a loop by the row recurrence
    (a)^j_k = (a)^j_{k-1} + (a+k-1)(a)^{j-1}_{k-1} for k = 1..n, with
    (a)^0_k = 1 and (a)^s_n = 0 for s > n.  Row k updates only the entries
    j >= s - (n - k) that still reach (a)^s_n, so the cost is
    O(n min(s, n - s + 1)) and no recursion depth grows with n.
    """
    if s == 0:
        return 1
    if s < 0 or s > n:
        return 0
    row = [1] + [0] * s
    for k in range(1, n + 1):
        v = a + k - 1
        for j in range(min(k, s), max(1, s - n + k) - 1, -1):
            row[j] += v * row[j - 1]
    return row[s]


def falling_factorial(a: int, n: int) -> int:
    """The descending product a(a-1)...(a-n+1), with (a)_0 = 1."""
    out = 1
    for i in range(n):
        out *= a - i
    return out


def vam3_lhs(a: int, n: int) -> list[int]:
    """The product of the n factors y + (a-(n+i+1))h for i = 0..n-1, as the
    list whose entry w is the coefficient of y^(n-w) h^w."""
    out = [1]
    for i in range(n):
        shift = a - (n + i + 1)
        out = [c + shift * p for c, p in zip(out + [0], [0] + out)]
    return out


def vam3_rhs(a: int, n: int) -> list[int]:
    """The coefficients (a-2n)^w_n of y^(n-w) h^w, built from ``shifted_elem``."""
    return [shifted_elem(a - 2 * n, w, n) for w in range(n + 1)]
