"""Divided-power PBW elements and the closed-form star product.

An element is a finitely supported map from normal monomials (a, b, c, d),
standing for x^a y^b z^c h^d / (a! b! c! d!), to exact rationals.  The star
product of two such monomials is the paper's closed formula, a finite signed
sum over 13-index assignments.  ``mono_star_mono`` evaluates it in stages:
an output monomial collects the summands with one value of rho3 and of
rho4 + rho5 + rho6, and after two factorial cancellations the sums for one
rho3 are the coefficients of one small polynomial product.  ``_weight_rows``
gives these products to both kernels, ``_mono_product`` and star's
``_middle_product``: having non-negative coefficients, a small one is
evaluated at t = 2^k as one big integer whose k-bit slots are the
coefficients, and larger ones multiply coefficient lists.  The literal
13-index sum is the test reference in ``tests/reference_formula.py``.
Monomial-by-monomial coefficients are integers; the kernel checks that each
of its divisions is exact, so it returns only ints.  ``mono_star_mono``
checks its inputs with ``NormalMonomial.checked``, the one copy of the
exponent rule, and wraps the kernel's result unchecked.

``star`` extends the product bilinearly in exact integers, in the ordinary
basis x^a y^b z^c h^d.  There m1 * m2 = x^a1 h^(d1 + d2) N(y^b1 z^c1 x^a2
y^b2) z^c2: only the middle word does any work, and the passive letters add
to its exponents with coefficient 1.  ``star`` groups f's terms by (b1, c1)
and g's by (a2, b2), and reads one middle product per pair of groups from
the kernel's weight rows, with no division.  It is the kernel memo's one
caller, and the memo keeps the last 2,048 middles, keyed (b1, c1, a2, b2).
A product whose factors' degrees sum past ``ORDINARY_MAX_DEGREE`` would need
large factorials, so it goes pair by pair through the kernel instead.

The rewrite and species routes take only the ``Element`` container (with its
``NormalMonomial`` keys) from here; species calls ``star`` solely to build the
series its counts are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm
from typing import NamedTuple

from .combinatorics import falling_factorial, shifted_elem

# a tuple, so that `in` matches whole names, never substrings such as "xy"
COLORS = ("x", "y", "z", "h")


class IntegralityViolation(Exception):
    """A structural coefficient came out non-integer: the formula or the
    index convention is broken, never a valid result."""


class NormalMonomial(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    @classmethod
    def checked(cls, m1, m2=None):
        """``m1`` as a NormalMonomial, or with ``m2`` the pair as two, once
        every exponent passes the package's one exponent rule: one that is
        not an ``int`` (``bool`` included) is a ``TypeError``, a negative one
        a ``ValueError``, and the message names the monomial or the pair."""
        m1 = cls(*m1)
        if m2 is not None:
            m2 = cls(*m2)
        for e in m1 if m2 is None else m1 + m2:
            if type(e) is not int or e < 0:
                where = (f"monomial {tuple(m1)}" if m2 is None
                         else f"{tuple(m1)} * {tuple(m2)}")
                if type(e) is int:
                    raise ValueError(f"negative exponent in {where}")
                raise TypeError(f"non-integer exponent in {where}")
        return m1 if m2 is None else (m1, m2)

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c + self.d

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        letters = " ".join(
            f"{name}^{e}" if e > 1 else name
            for name, e in zip(COLORS, self)
            if e
        )
        bangs = " ".join(f"{e}!" for e in self if e > 1)
        return f"{letters} / ({bangs})" if bangs else letters


UNIT = NormalMonomial(0, 0, 0, 0)


# _weight_rows packs a pair's weight polynomials, for _mono_product and
# _middle_product alike, when the largest of them has at most this many bits
PACKED_MAX_BITS = 12_000


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Coefficient list of the product of two polynomials in t."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def _binomial_row(n: int, v: int) -> list[int]:
    """Coefficient list of (1 + v t)^n, of length n + 1 for every v."""
    if not v:
        return [1] + [0] * n
    return [comb(n, i) * v ** i for i in range(n + 1)]


def _listed_weights(m1, m2):
    """The weight polynomial of each rho3, kept as coefficient lists."""
    _, b1, c1, _ = m1
    a2, b2, _, _ = m2
    shift = a2 + c1
    # symbols[r] = (alpha2 + gamma1)^r_rho3, the coefficients of the product of
    # (1 + v t) over v = shift - 2 rho3 .. shift - rho3 - 1; from one rho3 to
    # the next, two factors join at the bottom and one leaves at the top
    symbols = [1]
    for rho3 in range(min(c1, a2) + 1):
        if rho3:
            for v in (shift - 2 * rho3, shift - 2 * rho3 + 1):
                symbols = [x + v * y for x, y in zip(symbols + [0], [0] + symbols)]
            v = shift - rho3   # divide out (1 + v t) by synthetic division
            quotient, carry = [], 0
            for x in symbols[:-1]:
                carry = x - v * carry
                quotient.append(carry)
            if symbols[-1] != v * carry:
                raise IntegralityViolation(
                    f"symbol row of {tuple(m1)} * {tuple(m2)} at rho3 = {rho3}")
            symbols = quotient
        alpha2, gamma1 = a2 - rho3, c1 - rho3
        yield _poly_mul(_poly_mul(_binomial_row(b1, 2 * alpha2),
                                  _binomial_row(b2, 2 * gamma1)), symbols)


def _packed_size(m1, m2) -> tuple[int, int]:
    """The slot width k of m1 * m2's packed weight polynomials, and the
    size in bits of the largest of them (the one at rho3 = min(c1, a2))."""
    _, b1, c1, _ = m1
    a2, b2, _, _ = m2
    top = min(c1, a2)
    k = ((1 + 2 * a2) ** b1 * (1 + 2 * c1) ** b2
         * (1 + a2 + c1) ** top).bit_length() + 1
    return k, k * (b1 + b2 + top + 1)


def _packed_weights(m1, m2, k):
    """The weight polynomial of each rho3, evaluated at t = 2^k as one
    integer; its coefficients are read back as k-bit slots."""
    _, b1, c1, _ = m1
    a2, b2, _, _ = m2
    shift = a2 + c1
    mask = (1 << k) - 1
    symbols = 1
    for rho3 in range(min(c1, a2) + 1):
        if rho3:
            v = shift - 2 * rho3
            symbols, rem = divmod(symbols * (1 + (v << k)) * (1 + (v + 1 << k)),
                                  1 + (v + rho3 << k))
            if rem:
                raise IntegralityViolation(
                    f"symbol row of {tuple(m1)} * {tuple(m2)} at rho3 = {rho3}")
        packed = ((1 + (2 * (a2 - rho3) << k)) ** b1
                  * (1 + (2 * (c1 - rho3) << k)) ** b2 * symbols)
        yield [packed >> k * u & mask for u in range(b1 + b2 + rho3 + 1)]


def _weight_rows(m1, m2):
    """The weight polynomial of each rho3 of m1 * m2 as a coefficient list,
    packed when the largest fits in ``PACKED_MAX_BITS``, listed otherwise.

    Products of big integers grow faster than the list recurrence: the two
    paths cost the same at about 9 kbit for z^k * x^k (k = 38) and at about
    24 kbit for (0,b,b,0) * (b,b,0,0) (b = 22)."""
    k, bits = _packed_size(m1, m2)
    if bits <= PACKED_MAX_BITS:
        return _packed_weights(m1, m2, k)
    return _listed_weights(m1, m2)


def _mono_product(m1: NormalMonomial, m2: NormalMonomial) -> dict[NormalMonomial, int]:
    """The closed product formula for m1 * m2, summed in stages, as a fresh
    dict that the caller owns.

    The formula is a signed sum over 13-index assignments; m1 and m2 leave
    rho3 <= min(c1, a2), rho4 <= rho3, rho5 <= b1 and rho6 <= b2 free and
    force the rest, with alpha2 = a2 - rho3 and gamma1 = c1 - rho3.  Once
    beta_c! and rho4! cancel against the multinomials, a summand reads

        (-1)^rho3 C(alpha, a1) C(gamma, c2) beta! rho! / (b1! b2! d1! d2! rho3!)
            * C(b1, rho5) (2 alpha2)^rho5 * C(b2, rho6) (2 gamma1)^rho6
            * (alpha2 + gamma1)^rho4_rho3

    and its output monomial depends on rho3 and u = rho4 + rho5 + rho6 only.
    So for each rho3 the sum over (rho4, rho5, rho6) is beta! rho! / (b1! b2!
    d1! d2! rho3!) times the coefficient of t^u in the weight polynomial

        (1 + 2 alpha2 t)^b1 (1 + 2 gamma1 t)^b2
            * prod_{i < rho3} (1 + (alpha2 + gamma1 + i) t),

    whose last factor has the symbols (alpha2 + gamma1)^rho4_rho3 as its
    coefficients.

    Small pairs evaluate the weight polynomial at t = 2^k as one integer
    (Kronecker substitution): per rho3 the symbols take two multiplications
    and one exact division (two factors join, one leaves), the weights one
    product, and the coefficients are read back with shift and mask.  Every
    v above is at least a2 + c1 - 2 rho3 >= 0, so every coefficient is
    non-negative and at most the polynomial's value at t = 1, itself at most
    (1 + 2 a2)^b1 (1 + 2 c1)^b2 (1 + a2 + c1)^min(c1, a2); k is one bit wider
    than that bound, which keeps the coefficients in separate k-bit slots.
    When the largest would exceed ``PACKED_MAX_BITS``, ``_weight_rows``
    multiplies coefficient lists instead.  Each division is exact; a
    remainder raises ``IntegralityViolation``.
    """
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    top = min(c1, a2)
    fact = [1]
    for i in range(1, b1 + b2 + d1 + d2 + 2 * top + 1):
        fact.append(fact[-1] * i)
    fixed = fact[b1] * fact[b2] * fact[d1] * fact[d2]
    out: dict[NormalMonomial, int] = {}
    for rho3, weights in enumerate(_weight_rows(m1, m2)):
        alpha, gamma = a1 + a2 - rho3, c1 - rho3 + c2
        scale = (-1) ** rho3 * comb(alpha, a1) * comb(gamma, c2)
        den = fixed * fact[rho3]
        for u, w in enumerate(weights):
            if w:
                beta, rho = b1 + b2 + rho3 - u, d1 + d2 + rho3 + u
                value, rem = divmod(fact[beta] * fact[rho] * w, den)
                if rem:
                    raise IntegralityViolation(
                        f"coefficient of {(alpha, beta, gamma, rho)} in "
                        f"{tuple(m1)} * {tuple(m2)} is not an integer")
                out[tuple.__new__(NormalMonomial, (alpha, beta, gamma, rho))] = scale * value
    return out


def _middle_product(b1: int, c1: int, a2: int, b2: int) -> tuple[tuple[int, ...], ...]:
    """The normal form of the middle y^b1 z^c1 x^a2 y^b2 in the ordinary
    basis x^a y^b z^c h^d, as one row of coefficients for each r: entry u of
    row r is the coefficient of x^(a2 - r) y^(b1 + b2 + r - u) z^(c1 - r)
    h^(r + u).

    The middle is b1! c1! a2! b2! times the divided product (0,b1,c1,0) *
    (a2,b2,0,0), and with a1 = c2 = d1 = d2 = 0 the factorials of
    ``_mono_product`` cancel: entry u of row r is (-1)^r C(a2, r) C(c1, r) r!
    w_u, where w_u is the coefficient of t^u in the weight polynomial of
    rho3 = r.  So the middle needs no division.  A weight polynomial is a
    product of factors 1 + v t with v >= 0, so its coefficients are positive
    up to its degree and zero above; each row stops at its last nonzero entry.
    """
    rows = []
    for r, weights in enumerate(_weight_rows((0, b1, c1, 0), (a2, b2, 0, 0))):
        while not weights[-1]:
            weights.pop()
        scale = (-1) ** r * perm(a2, r) * comb(c1, r)
        rows.append(tuple(scale * w for w in weights))
    return tuple(rows)


# star meets a middle again in each pair of groups that shares it, so it keeps
# the 2,048 middles it used last, keyed (b1, c1, a2, b2).  A square of the
# monomials of degree <= 8 in x, y, z, h meets 45^2 = 2,025 middles, and
# dense_warm's square of the 56 monomials of degree <= 5 in x, y, z meets
# 21^2 = 441, so both stay warm.  The single-pair callers (mono_star_mono, and
# so structural_coefficient, coeff and verify) and star's pair-by-pair route
# for large degrees call _mono_product directly.
_mono_star = lru_cache(maxsize=1 << 11)(_middle_product)


class Element:
    """A finitely supported divided-power PBW element.

    ``terms`` maps NormalMonomial to an exact rational (int or Fraction);
    zero coefficients are pruned on construction.  ``cap``, when set, is a
    total-degree bound: monomials above it are discarded, and arithmetic
    between elements with distinct explicit caps is rejected.  The
    constructor is the one place these rules are enforced: a coefficient or
    a cap of any other type, ``bool`` included, is a ``TypeError``, and a
    negative cap a ``ValueError``.  Elements are treated as immutable values.
    """

    __slots__ = ("terms", "cap")

    def __init__(self, terms: dict | None = None, cap: int | None = None):
        if cap is not None:
            if type(cap) is not int:
                raise TypeError(f"degree cap {cap!r} is not an int")
            if cap < 0:
                raise ValueError(f"degree cap {cap} is negative")
        self.cap = cap
        clean: dict[NormalMonomial, Fraction | int] = {}
        for key, val in (terms or {}).items():
            if not isinstance(val, (int, Fraction)) or val.__class__ is bool:
                raise TypeError(f"coefficient {val!r} is not an int or a Fraction")
            if not val:
                continue
            # a NormalMonomial of ints >= 0, as the library builds, skips the call
            a, b, c, d = mono = (key if key.__class__ is NormalMonomial
                                 else NormalMonomial.checked(key))
            if not (type(a) is type(b) is type(c) is type(d) is int and a | b | c | d >= 0):
                mono = NormalMonomial.checked(key)
            if cap is not None and mono.degree > cap:
                continue
            clean[mono] = val
        self.terms = clean

    @classmethod
    def zero(cls, cap: int | None = None) -> "Element":
        return cls({}, cap)

    @classmethod
    def unit(cls, cap: int | None = None) -> "Element":
        return cls({UNIT: 1}, cap)

    @classmethod
    def monomial(cls, mono, coeff=1, cap: int | None = None) -> "Element":
        return cls({tuple(mono): coeff}, cap)

    @classmethod
    def _built(cls, terms: dict, cap: int | None = None) -> "Element":
        """Wrap terms the library built itself, unchecked: NormalMonomial
        keys within the cap, and nonzero int or Fraction values."""
        self = object.__new__(cls)
        self.terms = terms
        self.cap = cap
        return self

    def coefficient(self, mono) -> Fraction | int:
        # a plain 4-tuple hashes and compares equal to the NormalMonomial key
        try:
            a, b, c, d = mono
        except ValueError:
            raise TypeError(f"monomial {mono!r} does not have four exponents") from None
        return self.terms.get((a, b, c, d), 0)

    def with_cap(self, cap: int | None) -> "Element":
        return Element(self.terms, cap)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Element") -> "Element":
        cap = _combine_caps(self.cap, other.cap)
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, 0) + val
        return Element(out, cap)

    def __neg__(self) -> "Element":
        return Element({k: -v for k, v in self.terms.items()}, self.cap)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, q) -> "Element":
        """``star(self, Element({UNIT: q}))``, the product with the scalar q;
        a q that is not an int or a Fraction, ``bool`` included, is a
        ``TypeError``."""
        return star(self, Element({UNIT: q}))

    def __mul__(self, other):
        if isinstance(other, Element):
            return star(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # scalars commute with everything; Element * Element goes via __mul__
    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "Element(0)"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            parts.append(f"{coeff}*[{mono}]")
        return "Element(" + " + ".join(parts) + ")"


def _combine_caps(c1: int | None, c2: int | None) -> int | None:
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    if c1 != c2:
        raise ValueError(f"degree cap mismatch: {c1} != {c2}")
    return c1


def mono_star_mono(m1, m2) -> Element:
    """Star product of two divided monomials, by the closed formula.

    The kernel runs afresh on every call; only ``star`` keeps a memo, of
    middle products.  ``NormalMonomial.checked`` checks the exponents."""
    return Element._built(_mono_product(*NormalMonomial.checked(m1, m2)))


# star works in the ordinary basis only while the degrees of its two factors
# sum to at most this, so that its factorials have at most 3,900 bits.  A
# larger product, such as one with a large passive exponent a1 or c2, goes
# pair by pair through the kernel, where a1 and c2 enter only two binomials
ORDINARY_MAX_DEGREE = 512


def _over_common_denominator(f: Element) -> tuple[int, list[tuple]]:
    """The least common denominator D of f's coefficients, and each term of f
    as (monomial, its total degree, coefficient * D as an int)."""
    den = lcm(*(v.denominator for v in f.terms.values()))
    return den, [(m, sum(m), v.numerator * (den // v.denominator))
                 for m, v in f.terms.items()]


def _ordinary_terms(f: Element) -> tuple[int, int, list[tuple]]:
    """f in the ordinary basis over one integer denominator.

    Gives the least common denominator D of f's coefficients, the least
    common multiple L of a! b! c! d! over f's monomials, and each term as
    (monomial, its total degree, n), where n / (D L) is the term's ordinary
    coefficient v / (a! b! c! d!)."""
    den, terms = _over_common_denominator(f)
    norms = [factorial(a) * factorial(b) * factorial(c) * factorial(d)
             for a, b, c, d in f.terms]
    big = lcm(*norms)
    return den, big, [(m, deg, n * (big // norm)) for (m, deg, n), norm in zip(terms, norms)]


def _pairwise_star(f: Element, g: Element, cap: int | None) -> Element:
    """f * g one monomial pair at a time through the unmemoized kernel, summed
    in integers over the two common denominators."""
    den_f, left = _over_common_denominator(f)
    den_g, right = _over_common_denominator(g)
    out: dict[NormalMonomial, int] = {}
    for m1, deg1, n1 in left:
        for m2, deg2, n2 in right:
            if cap is not None and deg1 + deg2 > cap:
                continue
            n12 = n1 * n2
            for mono, coeff in _mono_product(m1, m2).items():
                out[mono] = out.get(mono, 0) + n12 * coeff
    den = den_f * den_g
    return Element._built({mono: v if den == 1 else Fraction(v, den)
                           for mono, v in out.items() if v}, cap)


def star(f: Element, g: Element) -> Element:
    """Bilinear extension of the monomial product, through middle products.

    In the ordinary basis x^a y^b z^c h^d, with h central,

        m1 * m2 = x^a1 h^(d1 + d2) N(y^b1 z^c1 x^a2 y^b2) z^c2,

    so the passive letters only add to the exponents of the middle's normal
    form N, with coefficient 1.  ``star`` brings each factor into the
    ordinary basis once, over one integer denominator, and groups its terms
    by their middle exponents: f's by (b1, c1), g's by (a2, b2).  For each
    pair of groups it reads one memoized middle product, and adds it, times
    the product of two members' numerators, at each pair of members' passive
    shift.  Monomials are packed into integer codes, so a shift is one
    addition.  Each output term is brought back to the divided basis once,
    by its a! b! c! d!, and divided by the product of the two denominators:
    when both factors' coefficients are integral the product's are ``int``s,
    otherwise ``Fraction``s.  A factor that holds only the unit monomial is a
    scalar: the other factor's terms within the cap are scaled by it, without
    the kernel, over the same product of denominators.  The product is
    graded, so a shared degree cap commutes with truncation: a pair of groups
    whose lowest degrees pass the cap is skipped before its middle is read,
    and members, sorted by degree, stop at the first pair that passes it.  A
    product whose factors' degrees sum to more than ``ORDINARY_MAX_DEGREE`` is
    summed pair by pair instead, and leaves the memo alone.
    """
    cap = _combine_caps(f.cap, g.cap)
    if not f.terms or not g.terms:
        return Element._built({}, cap)
    if UNIT in g.terms and len(g.terms) == 1:
        f, g = g, f  # a scalar commutes with everything
    if UNIT in f.terms and len(f.terms) == 1:
        q = f.terms[UNIT]
        den, right = _over_common_denominator(g)
        den *= q.denominator
        return Element._built({m: n * q.numerator if den == 1 else Fraction(n * q.numerator, den)
                               for m, deg, n in right if cap is None or deg <= cap}, cap)
    top = max(m.degree for m in f.terms) + max(m.degree for m in g.terms)
    if top > ORDINARY_MAX_DEGREE:
        return _pairwise_star(f, g, cap)
    den_f, big_f, left = _ordinary_terms(f)
    den_g, big_g, right = _ordinary_terms(g)
    # a code packs (a, b, c, d) in w-bit fields, wide enough for every output
    # exponent, so shifting a monomial is adding codes
    w = top.bit_length()
    w2, w3, mask = 2 * w, 3 * w, (1 << w) - 1
    limit = top if cap is None else cap
    left_groups: dict[tuple[int, int], list] = {}
    for (a, b, c, d), deg, n in left:
        left_groups.setdefault((b, c), []).append((deg, a << w3 | d, n))
    right_groups: dict[tuple[int, int], list] = {}
    for (a, b, c, d), deg, n in right:
        right_groups.setdefault((a, b), []).append((deg, c << w | d, n))
    # lowest degree first, so the cap ends a run of members
    for members in (*left_groups.values(), *right_groups.values()):
        members.sort()
    out: dict[int, int] = {}
    get = out.get
    # along a row of the middle each entry moves one y to h, and from one row
    # to the next one x and one z go and one y and one h come
    step = 1 - (1 << w2)
    rstep = 1 - (1 << w) + (1 << w2) - (1 << w3)
    for (b1, c1), lefts in left_groups.items():
        for (a2, b2), rights in right_groups.items():
            low = limit - rights[0][0]
            if lefts[0][0] > low:
                continue
            middle = _mono_star(b1, c1, a2, b2)
            base = a2 << w3 | (b1 + b2) << w2 | c1 << w
            for deg1, shift1, n1 in lefts:
                if deg1 > low:
                    break
                for deg2, shift2, n2 in rights:
                    if deg1 + deg2 > limit:
                        break
                    n = n1 * n2
                    start = base + shift1 + shift2
                    for row in middle:
                        code = start
                        for coeff in row:
                            out[code] = get(code, 0) + n * coeff
                            code += step
                        start += rstep
    fact = [1]
    for i in range(1, top + 1):
        fact.append(fact[-1] * i)
    den, big = den_f * den_g, big_f * big_g
    terms: dict[NormalMonomial, Fraction | int] = {}
    for code, n in out.items():
        if n:
            mono = (code >> w3, code >> w2 & mask, code >> w & mask, code & mask)
            a, b, c, d = mono
            value, rem = divmod(fact[a] * fact[b] * fact[c] * fact[d] * n, big)
            if rem:
                raise IntegralityViolation(
                    f"coefficient of {mono} in a product is not a multiple of 1/{den}")
            terms[tuple.__new__(NormalMonomial, mono)] = (
                value if den == 1 else Fraction(value, den))
    return Element._built(terms, cap)


def structural_coefficient(m1, m2, out) -> int:
    """The integer coefficient of ``out`` in the product of two basis
    monomials, whose exponents are checked as by ``mono_star_mono``."""
    return mono_star_mono(m1, m2).coefficient(out)


def normal_order_zy(a: int, b: int) -> Element:
    """Normal form of z^a/a! y^b/b!: sum over k of (2a)^k y^(b-k) z^a h^k."""
    return Element({NormalMonomial(0, b - k, a, k): (2 * a) ** k for k in range(b + 1)})


def normal_order_yx(a: int, b: int) -> Element:
    """Normal form of y^a/a! x^b/b!: sum over k of (2b)^k x^b y^(a-k) h^k."""
    return Element({NormalMonomial(b, a - k, 0, k): (2 * b) ** k for k in range(a + 1)})


def normal_order_zx(a: int, b: int) -> Element:
    """Normal form of z^a/a! x^b/b!.

    Double sum over 0 <= w <= v <= min(a, b) with coefficient
    (-1)^v (v-w)! (v+w)_w (a+b-2v)^w_v on the divided monomial
    x^(b-v) y^(v-w) z^(a-v) h^(v+w); each (v, w) gives its own monomial.
    """
    terms: dict[NormalMonomial, int] = {}
    for v in range(min(a, b) + 1):
        for w in range(v + 1):
            terms[NormalMonomial(b - v, v - w, a - v, v + w)] = (
                (-1) ** v
                * factorial(v - w)
                * falling_factorial(v + w, w)
                * shifted_elem(a + b - 2 * v, w, v)
            )
    return Element(terms)


def exp_series(color: str, cap: int) -> Element:
    """Truncated exponential series in one generator: sum of its divided powers."""
    if color not in COLORS:
        raise ValueError(f"unknown generator {color!r}")
    i = COLORS.index(color)
    terms = {}
    for k in range(cap + 1):
        mono = [0, 0, 0, 0]
        mono[i] = k
        terms[NormalMonomial(*mono)] = 1
    return Element(terms, cap)
