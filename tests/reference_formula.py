"""The paper's closed product formula, summed literally over index assignments.

This is the reference the staged kernel ``uhsl2.algebra._mono_product`` is
checked against: one ``ProductIndexAssignment`` per summand, its integer
value built from the four multinomials exactly as the formula is written,
and no cancellation or regrouping.  ``reference_star`` is the reference for
the bilinear ``uhsl2.algebra.star``: it multiplies monomial by monomial
through the unmemoized kernel, in the divided basis, and accumulates one
exact rational multiply and add at a time, with no common denominator, no
grouping and no middle product (``_mono_star``, star's memo of middles).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterator, NamedTuple

from uhsl2.algebra import Element, NormalMonomial, _combine_caps, _mono_product
from uhsl2.combinatorics import shifted_elem


class ProductIndexAssignment(NamedTuple):
    """One summand of the closed product formula.

    The thirteen indices split the output exponents: alpha1 + alpha2 = alpha,
    beta_f + beta_g + beta_c = beta, gamma1 + gamma2 = gamma, rho1 + ... +
    rho6 = rho, with the linking constraint beta_c + rho4 = rho3.  beta_f and
    beta_g are the y-blocks surviving from the two factors; beta_c is the
    block created by z-x commutation.
    """

    alpha1: int
    alpha2: int
    beta_f: int
    beta_g: int
    beta_c: int
    gamma1: int
    gamma2: int
    rho1: int
    rho2: int
    rho3: int
    rho4: int
    rho5: int
    rho6: int

    @property
    def output(self) -> NormalMonomial:
        return NormalMonomial(
            self.alpha1 + self.alpha2,
            self.beta_f + self.beta_g + self.beta_c,
            self.gamma1 + self.gamma2,
            self.rho1 + self.rho2 + self.rho3 + self.rho4 + self.rho5 + self.rho6,
        )

    def summand(self) -> int:
        """The exact integer contribution of this assignment."""
        alpha, beta, gamma, rho = self.output
        return (
            (-1) ** self.rho3
            * multinomial(alpha, (self.alpha1, self.alpha2))
            * multinomial(beta, (self.beta_f, self.beta_g, self.beta_c))
            * multinomial(gamma, (self.gamma1, self.gamma2))
            * multinomial(rho, (self.rho1, self.rho2, self.rho3,
                                self.rho4, self.rho5, self.rho6))
            * (2 * self.alpha2) ** self.rho5
            * (2 * self.gamma1) ** self.rho6
            * factorial(self.beta_c)
            * factorial(self.rho4)
            * shifted_elem(self.gamma1 + self.alpha2, self.rho4, self.rho3)
        )


def multinomial(total: int, parts: tuple[int, ...]) -> int:
    """Exact multinomial coefficient total! / (parts[0]! parts[1]! ...)."""
    out, rem = 1, total
    for p in parts:
        out *= comb(rem, p)
        rem -= p
    return out


def product_index_assignments(
    m1: NormalMonomial, m2: NormalMonomial
) -> Iterator[ProductIndexAssignment]:
    """All index assignments consistent with the factor monomials m1, m2.

    m1 plays the left role, so its exponents pin alpha1 = m1.a,
    beta_f + rho5 = m1.b, gamma1 + rho3 = m1.c, rho1 = m1.d; m2 pins
    alpha2 + rho3 = m2.a, beta_g + rho6 = m2.b, gamma2 = m2.c, rho2 = m2.d.
    rho3 (bounded by min(m1.c, m2.a)), rho4 <= rho3, rho5 and rho6 range
    freely; everything else is forced.
    """
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    for rho3 in range(min(c1, a2) + 1):
        for rho4 in range(rho3 + 1):
            for rho5 in range(b1 + 1):
                for rho6 in range(b2 + 1):
                    yield ProductIndexAssignment(
                        alpha1=a1, alpha2=a2 - rho3,
                        beta_f=b1 - rho5, beta_g=b2 - rho6, beta_c=rho3 - rho4,
                        gamma1=c1 - rho3, gamma2=c2,
                        rho1=d1, rho2=d2, rho3=rho3, rho4=rho4,
                        rho5=rho5, rho6=rho6,
                    )


def reference_mono_star(m1, m2) -> dict[NormalMonomial, int]:
    """m1 * m2 as {output monomial: coefficient}, one summand at a time."""
    out: dict[NormalMonomial, int] = {}
    for asg in product_index_assignments(NormalMonomial(*m1), NormalMonomial(*m2)):
        term = asg.summand()
        if term:
            key = asg.output
            out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if v}


def reference_star(f: Element, g: Element) -> Element:
    """f * g, summed in Fraction arithmetic term by term."""
    cap = _combine_caps(f.cap, g.cap)
    out: dict[NormalMonomial, Fraction | int] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            if cap is not None and m1.degree + m2.degree > cap:
                continue
            c12 = c1 * c2
            for mono, coeff in _mono_product(m1, m2).items():
                out[mono] = out.get(mono, 0) + c12 * coeff
    return Element(out, cap)
