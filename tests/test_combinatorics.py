"""Tests for the symbol layer: enumeration oracles vs recursions."""

from __future__ import annotations

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_symbols import elementary_symmetric, pochhammer_k
from uhsl2.algebra import Element
from uhsl2.combinatorics import falling_factorial, shifted_elem, vam3_lhs, vam3_rhs
from uhsl2.species import ascending_maps_count

# y and h commute, so Elements over (0, b, 0, d) monomials form a commutative
# polynomial ring in y and h (up to the divided-power normalization)
Y = Element.monomial((0, 1, 0, 0))
H = Element.monomial((0, 0, 0, 1))


def poly_coefficients(values):
    """Coefficients of prod(1 + v*t) by direct polynomial expansion.

    Independent route to the elementary symmetric functions: coefficient of
    t^s is e^s_n(values).
    """
    coeffs = [1]
    for v in values:
        coeffs = [c + v * p for c, p in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class TestElementarySymmetric:
    def test_all_triples_of_five(self):
        values = [2, 3, 4, 5, 6]
        # frozen from the generating-polynomial expansion: e^3 = 580
        assert poly_coefficients(values)[3] == 580
        assert elementary_symmetric(3, values) == 580

    def test_empty_product_convention(self):
        assert elementary_symmetric(0, [7, 9]) == 1
        assert elementary_symmetric(0, []) == 1

    def test_oversized_subset_is_zero(self):
        assert elementary_symmetric(3, [1, 2]) == 0

    @given(st.lists(st.integers(-6, 6), max_size=6), st.integers(0, 7))
    def test_matches_polynomial_expansion(self, values, s):
        expected = poly_coefficients(values)[s] if s <= len(values) else 0
        assert elementary_symmetric(s, values) == expected

    def test_rejects_negative_subset_size(self):
        with pytest.raises(ValueError):
            elementary_symmetric(-1, [1, 2])


class TestShiftedElem:
    def test_cubic_evaluation(self):
        for a in range(11):
            assert shifted_elem(a, 3, 4) == 4 * a**3 + 18 * a**2 + 22 * a + 6

    def test_boundary_conditions(self):
        for a in range(-5, 11):
            for n in range(8):
                assert shifted_elem(a, 0, n) == 1
                assert shifted_elem(a, n + 1, n) == 0

    def test_equals_elementary_symmetric_everywhere(self):
        for a in range(-5, 11):
            for n in range(8):
                values = list(range(a, a + n))
                for s in range(8):
                    assert shifted_elem(a, s, n) == elementary_symmetric(s, values)

    def test_recursion(self):
        for a in range(-5, 11):
            for n in range(1, 8):
                for s in range(1, n + 1):
                    assert shifted_elem(a, s, n) == (
                        shifted_elem(a, s, n - 1)
                        + (a + n - 1) * shifted_elem(a, s - 1, n - 1)
                    )

    # n above the interpreter's recursion limit: the rows are computed in a loop
    def test_long_row(self):
        assert shifted_elem(0, 1, 1500) == 1500 * 1499 // 2

    def test_full_row_is_factorial(self):
        assert shifted_elem(1, 1200, 1200) == factorial(1200)


def tableaux_count(a, s, n):
    """Placements of s dots on rows of lengths a..a+n-1, at most one per row."""
    return ascending_maps_count(a, n, s)


class TestTableauxOracle:
    def test_no_dots_single_configuration(self):
        assert tableaux_count(2, 0, 3) == 1

    def test_zero_length_row_admits_no_dot(self):
        assert tableaux_count(0, 1, 1) == 0

    def test_agrees_with_shifted_elem(self):
        for a in range(7):
            for s in range(7):
                for n in range(7):
                    assert tableaux_count(a, s, n) == shifted_elem(a, s, n)

    def test_example_configuration_count(self):
        assert tableaux_count(2, 3, 5) == shifted_elem(2, 3, 5)


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(2, 1) == 2
        for a in range(-5, 11):
            assert falling_factorial(a, 0) == 1

    def test_equals_pochhammer_minus_one(self):
        for a in range(-5, 11):
            for n in range(9):
                assert falling_factorial(a, n) == pochhammer_k(a, n, -1)

    def test_binomial_form(self):
        # (v+w)_w = binom(v+w, w) * w!
        for v in range(8):
            for w in range(v + 1):
                assert falling_factorial(v + w, w) == comb(v + w, w) * factorial(w)


class TestPochhammerK:
    def test_direct_product(self):
        assert pochhammer_k(2, 3, 1) == 24

    def test_empty_product_convention(self):
        assert pochhammer_k(7, 0, 3) == 1
        assert pochhammer_k(Y, 0, H) == 1

    def test_shift_recursion_first_kind_integers(self):
        for a in range(-4, 6):
            for h in range(-3, 4):
                for n in range(1, 6):
                    assert pochhammer_k(a, n, -h) == (
                        (a - (n - 1) * h) * pochhammer_k(a, n - 1, -h)
                    )

    def test_shift_recursion_second_kind_integers(self):
        for a in range(-4, 6):
            for h in range(-3, 4):
                for n in range(1, 6):
                    assert pochhammer_k(a, n, -h) == a * pochhammer_k(a - h, n - 1, -h)

    def test_shift_recursions_symbolic(self):
        for shift in range(-3, 4):
            a = Y + shift * H
            for n in range(1, 5):
                left = pochhammer_k(a, n, -H)
                assert left == (a - (n - 1) * H) * pochhammer_k(a, n - 1, -H)
                assert left == a * pochhammer_k(a - H, n - 1, -H)


class TestVam3:
    def test_empty_product(self):
        assert vam3_lhs(5, 0) == [1]
        assert vam3_rhs(5, 0) == [1]

    def test_single_factor(self):
        # y + h: coefficients of y^1 h^0 and y^0 h^1
        assert vam3_lhs(3, 1) == [1, 1]
        assert vam3_rhs(3, 1) == [1, 1]

    def test_lhs_matches_element_product(self):
        # expand the n factors as Elements over y and h; a divided monomial
        # y^(n-w) h^w / ((n-w)! w!) carries the coefficient times (n-w)! w!
        for a in range(-4, 9):
            for n in range(5):
                product = Element.unit()
                for i in range(n):
                    product = product * (Y + (a - (n + i + 1)) * H)
                assert product == Element({
                    (0, n - w, 0, w): c * factorial(n - w) * factorial(w)
                    for w, c in enumerate(vam3_lhs(a, n))
                })

    def test_equality_sweep(self):
        for a in range(-4, 9):
            for n in range(7):
                assert vam3_lhs(a, n) == vam3_rhs(a, n)


yh_elements = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=5,
).map(lambda coeffs: Element({(0, b, 0, d): v for (b, d), v in coeffs.items()}))


class TestBiPoly:
    """Ring axioms of y-h polynomials, carried by Elements over (0,b,0,d)."""

    @given(yh_elements, yh_elements)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(yh_elements, yh_elements)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @settings(max_examples=60)
    @given(yh_elements, yh_elements, yh_elements)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=60)
    @given(yh_elements, yh_elements, yh_elements)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(yh_elements, yh_elements)
    def test_no_stored_zeros(self, p, q):
        for poly in (p + q, p * q, p - q):
            assert all(v != 0 for v in poly.terms.values())

    def test_integer_promotion(self):
        # ints act as scalars from either side; Element has no int + or -
        assert 2 * Y == Y + Y == Y * 2
        assert (3 * Element.unit() - Y) + Y == Element({(0, 0, 0, 0): 3})
