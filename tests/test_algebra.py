"""Tests for the element arithmetic and the closed product formula."""

from __future__ import annotations

import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_formula import (
    product_index_assignments,
    reference_mono_star,
    reference_star,
)
from uhsl2 import algebra, combinatorics, rewrite, species
from uhsl2.algebra import (
    ORDINARY_MAX_DEGREE,
    PACKED_MAX_BITS,
    UNIT,
    Element,
    IntegralityViolation,
    NormalMonomial,
    _listed_weights,
    _middle_product,
    _mono_product,
    _mono_star,
    _packed_size,
    _packed_weights,
    _pairwise_star,
    exp_series,
    mono_star_mono,
    normal_order_yx,
    normal_order_zx,
    normal_order_zy,
    star,
    structural_coefficient,
)
from uhsl2.combinatorics import shifted_elem
from uhsl2.rewrite import normalize, oracle_star
from uhsl2.species import ColoredSizes

X1 = Element.monomial((1, 0, 0, 0))
Y1 = Element.monomial((0, 1, 0, 0))
Z1 = Element.monomial((0, 0, 1, 0))
H1 = Element.monomial((0, 0, 0, 1))

# hand-checked reference expansions
Z_XX_EXAMPLE = Element({(2, 0, 1, 0): 1, (1, 1, 0, 1): -1, (1, 0, 0, 2): -2})
FIVE_TERM = Element(
    {(2, 0, 2, 0): 1, (1, 1, 1, 1): -1, (1, 0, 1, 2): -4, (0, 2, 0, 2): 2, (0, 1, 0, 3): 3}
)


def random_element(rng, max_deg=3, n_terms=4, cap=None):
    monos = [
        m
        for m in (
            (a, b, c, d)
            for a in range(max_deg + 1)
            for b in range(max_deg + 1)
            for c in range(max_deg + 1)
            for d in range(max_deg + 1)
        )
        if sum(m) <= max_deg
    ]
    terms = {}
    for _ in range(n_terms):
        terms[rng.choice(monos)] = rng.randint(-5, 5)
    return Element(terms, cap)


class TestElementBasics:
    def test_zero_prunes(self):
        assert Element({(1, 0, 0, 0): 0}).terms == {}

    def test_rejects_inexact_coefficients(self):
        with pytest.raises(TypeError):
            Element({(1, 0, 0, 0): 0.5})
        with pytest.raises(TypeError):
            Element.monomial((1, 0, 0, 0)).scale(0.5)
        for inexact in (1 + 2j, Decimal("0.5"), Decimal(3)):
            with pytest.raises(TypeError):
                Element({(1, 0, 0, 0): inexact})
            with pytest.raises(TypeError):
                Element.monomial((1, 0, 0, 0)).scale(inexact)
        for flag in (True, False):
            with pytest.raises(TypeError, match="is not an int or a Fraction"):
                Element({(1, 0, 0, 0): flag})
            # a scalar is the element flag * 1, which Element refuses
            for scaled in (lambda f: f.scale(flag), lambda f: f * flag, lambda f: flag * f):
                with pytest.raises(TypeError, match="is not an int or a Fraction"):
                    scaled(X1)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Element({(-1, 0, 0, 0): 1})
        with pytest.raises(ValueError):
            Element({NormalMonomial(-1, 0, 0, 0): 1})

    @pytest.mark.parametrize("mono", [(0.5, 0, 0, 0), (1.0, 0, 0, 0), (0, Fraction(1), 0, 0),
                                      (0, 0, True, 0), (0, 0, 0, "1"), (True, 0, 0, 0),
                                      (1.5, 0, 0, 0)])
    def test_rejects_exponents_that_are_not_ints(self, mono):
        # a NormalMonomial key passes the same rule as a tuple
        for key in (mono, NormalMonomial(*mono)):
            with pytest.raises(TypeError, match=r"non-integer exponent in monomial \("):
                Element({key: 1})
        with pytest.raises(TypeError, match=r"non-integer exponent"):
            Element.monomial(mono)
        with pytest.raises(TypeError, match=r"non-integer exponent"):
            Element.monomial(NormalMonomial(*mono))

    def test_coefficient_reads_any_four_exponents(self):
        # a plain tuple is looked up as it is: it hashes and compares equal
        # to the NormalMonomial key with the same entries
        f = Element({(1, 2, 0, 3): Fraction(-1, 2), (0, 0, 1, 0): 4})
        for mono in ((1, 2, 0, 3), [1, 2, 0, 3], ColoredSizes(1, 2, 0, 3),
                     NormalMonomial(1, 2, 0, 3)):
            assert f.coefficient(mono) == Fraction(-1, 2)
        assert f.coefficient(ColoredSizes(0, 0, 1, 0)) == 4
        assert f.coefficient([0, 0, 0, 0]) == 0
        for wrong in ((1, 2, 0), [0, 0, 1], (1, 2, 0, 3, 0), ()):
            with pytest.raises(TypeError, match="does not have four exponents"):
                f.coefficient(wrong)
        with pytest.raises(TypeError):
            f.coefficient(4)

    def test_additive_inverse(self):
        f = Element({(1, 2, 0, 0): 3, (0, 0, 0, 2): Fraction(-1, 2)})
        assert (f + (-f)).terms == {}

    def test_scalar_zero(self):
        f = Element({(1, 0, 0, 0): 5})
        assert f.scale(0).terms == {}
        assert f.scale(Fraction(0)).terms == {}
        # an inexact zero is refused as any inexact scalar is
        for inexact in (0.0, Decimal(0)):
            with pytest.raises(TypeError):
                f.scale(inexact)

    def test_scalar_two(self):
        assert Element.monomial((1, 0, 0, 0)).scale(2) == Element({(1, 0, 0, 0): 2})
        assert 2 * X1 == X1 + X1
        # an integral scalar times integral coefficients gives ints, as star does
        for scaled in (Element({(1, 0, 0, 0): 3}).scale(Fraction(4, 2)),
                       Element({(1, 0, 0, 0): 3}) * Fraction(2), Fraction(2) * X1.scale(3)):
            assert scaled.terms == {(1, 0, 0, 0): 6}
            assert type(scaled.coefficient((1, 0, 0, 0))) is int

    def test_cap_truncates_on_construction(self):
        f = Element({(1, 0, 0, 0): 1, (2, 2, 0, 0): 1}, cap=2)
        assert f.terms == {NormalMonomial(1, 0, 0, 0): 1}

    @pytest.mark.parametrize("cap, error", [
        (True, TypeError), (False, TypeError), (1.5, TypeError), (2.0, TypeError),
        (Fraction(2), TypeError), ("2", TypeError), (-1, ValueError),
    ])
    def test_rejects_a_cap_that_is_not_a_natural_int(self, cap, error):
        with pytest.raises(error):
            Element({(1, 0, 0, 0): 1}, cap)
        with pytest.raises(error):
            Element.zero(cap)
        with pytest.raises(error):
            X1.with_cap(cap)
        with pytest.raises(error):
            exp_series("x", cap)

    def test_cap_mismatch_is_usage_error(self):
        f = Element({(1, 0, 0, 0): 1}, cap=2)
        g = Element({(1, 0, 0, 0): 1}, cap=3)
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            star(f, g)

    def test_cap_inherited_from_either_side(self):
        f = Element({(1, 0, 0, 0): 1}, cap=2)
        g = Element({(0, 1, 0, 0): 1})
        assert (f + g).cap == 2
        assert star(f, g).cap == 2

    def test_monomial_str(self):
        assert str(NormalMonomial(2, 0, 1, 0)) == "x^2 z / (2!)"
        assert str(NormalMonomial(0, 0, 0, 0)) == "1"
        assert str(NormalMonomial(1, 1, 1, 1)) == "x y z h"


class TestNormalOrdering:
    def test_zy_defining_relation(self):
        assert normal_order_zy(1, 1) == Element({(0, 1, 1, 0): 1, (0, 0, 1, 1): 2})

    def test_zy_zero_z_power(self):
        for b in range(5):
            assert normal_order_zy(0, b) == Element.monomial((0, b, 0, 0))

    def test_zy_term_count(self):
        for a in range(1, 5):
            for b in range(5):
                assert len(normal_order_zy(a, b).terms) == b + 1

    def test_yx_defining_relation(self):
        assert normal_order_yx(1, 1) == Element({(1, 1, 0, 0): 1, (1, 0, 0, 1): 2})

    def test_yx_zero_x_power(self):
        for a in range(5):
            assert normal_order_yx(a, 0) == Element.monomial((0, a, 0, 0))

    def test_zx_defining_relation(self):
        assert normal_order_zx(1, 1) == Element({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})

    def test_zx_worked_example(self):
        assert normal_order_zx(1, 2) == Z_XX_EXAMPLE

    def test_zx_five_term_identity(self):
        assert normal_order_zx(2, 2) == FIVE_TERM

    def test_against_rewrite_oracle(self):
        assert normal_order_zy(2, 3) == oracle_star((0, 0, 2, 0), (0, 3, 0, 0))
        assert normal_order_yx(3, 2) == oracle_star((0, 3, 0, 0), (2, 0, 0, 0))
        assert normal_order_zx(2, 3) == oracle_star((0, 0, 2, 0), (3, 0, 0, 0))


class TestIndexAssignments:
    def test_partition_constraints(self):
        m1, m2 = NormalMonomial(2, 1, 3, 1), NormalMonomial(2, 2, 1, 0)
        seen = 0
        for asg in product_index_assignments(m1, m2):
            seen += 1
            alpha, beta, gamma, rho = asg.output
            assert asg.alpha1 + asg.alpha2 == alpha
            assert asg.beta_f + asg.beta_g + asg.beta_c == beta
            assert asg.gamma1 + asg.gamma2 == gamma
            assert (asg.rho1 + asg.rho2 + asg.rho3 + asg.rho4 + asg.rho5 + asg.rho6
                    == rho)
            assert asg.beta_c + asg.rho4 == asg.rho3
            assert all(i >= 0 for i in asg)
            # factor monomials are recovered from the assignment
            assert (asg.alpha1, asg.beta_f + asg.rho5,
                    asg.gamma1 + asg.rho3, asg.rho1) == tuple(m1)
            assert (asg.alpha2 + asg.rho3, asg.beta_g + asg.rho6,
                    asg.gamma2, asg.rho2) == tuple(m2)
        # rho3 <= min(c1, a2), rho4 <= rho3, rho5 <= b1, rho6 <= b2
        top = min(m1.c, m2.a)
        expected = sum(r3 + 1 for r3 in range(top + 1)) * (m1.b + 1) * (m2.b + 1)
        assert seen == expected

    def test_grading_per_assignment(self):
        m1, m2 = NormalMonomial(1, 2, 2, 0), NormalMonomial(3, 1, 0, 1)
        for asg in product_index_assignments(m1, m2):
            assert asg.output.degree == m1.degree + m2.degree


exponents_to_6 = st.tuples(*4 * [st.integers(0, 6)]).map(lambda m: NormalMonomial(*m))


@st.composite
def pairs_of_total_degree(draw, top):
    """Two monomials, h included, whose degrees sum to at most ``top``."""
    parts, left = [], top
    for _ in range(8):
        parts.append(draw(st.integers(0, left)))
        left -= parts[-1]
    parts = draw(st.permutations(parts))
    return tuple(parts[:4]), tuple(parts[4:])


def near_threshold(top, rest):
    """The pair (a1, b1, c1, d1), (a2, b2, c2, d2) with min(c1, a2) = top,
    the larger of c1, a2 being top + extra, and the other exponents fixed."""
    a1, b1, d1, b2, c2, d2, extra, swap = rest
    c1, a2 = (top + extra, top) if swap else (top, top + extra)
    return NormalMonomial(a1, b1, c1, d1), NormalMonomial(a2, b2, c2, d2)


@st.composite
def shapes_by_kernel_path(draw, packed):
    """A pair whose packed weight polynomials are at most PACKED_MAX_BITS
    (packed) or more than that, with min(c1, a2) a few steps from the
    first top that goes over the threshold."""
    small = st.integers(0, 2)
    rest = (*(draw(small) for _ in range(6)), draw(st.integers(0, 3)), draw(st.booleans()))
    first = 0
    while _packed_size(*near_threshold(first, rest))[1] <= PACKED_MAX_BITS:
        first += 1
    step = draw(st.integers(0, 8 if packed else 3))
    return near_threshold(max(0, first - 1 - step) if packed else first + step, rest)


class TestStagedKernel:
    """The staged kernel against the literal 13-index sum and the oracle."""

    def test_equals_reference_exhaustively_to_exponent_2(self):
        monos = [NormalMonomial(*m) for m in product(range(3), repeat=4)]
        for m1 in monos:
            for m2 in monos:
                assert _mono_product(m1, m2) == reference_mono_star(m1, m2), (m1, m2)

    @settings(max_examples=100, deadline=None)
    @given(exponents_to_6, exponents_to_6)
    def test_equals_reference_to_exponent_6(self, m1, m2):
        staged = _mono_product(m1, m2)
        assert staged == reference_mono_star(m1, m2)
        assert all(type(v) is int for v in staged.values())

    def test_z30_x30_equals_reference(self):
        m1, m2 = NormalMonomial(0, 0, 30, 0), NormalMonomial(30, 0, 0, 0)
        staged = _mono_product(m1, m2)
        assert staged == reference_mono_star(m1, m2)
        assert all(type(v) is int for v in staged.values())

    @pytest.mark.parametrize("packed", [True, False])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_each_path_equals_reference_near_the_threshold(self, packed, data):
        m1, m2 = data.draw(shapes_by_kernel_path(packed))
        assert (_packed_size(m1, m2)[1] <= PACKED_MAX_BITS) == packed
        assert _mono_product(m1, m2) == reference_mono_star(m1, m2)

    def test_shapes_straddling_the_threshold_equal_reference(self):
        k = 0
        while _packed_size((0, 0, k + 1, 0), (k + 1, 0, 0, 0))[1] <= PACKED_MAX_BITS:
            k += 1
        for n in (k, k + 1):   # the last packed z^n * x^n, the first listed
            m1, m2 = NormalMonomial(0, 0, n, 0), NormalMonomial(n, 0, 0, 0)
            assert _mono_product(m1, m2) == reference_mono_star(m1, m2), n

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*4 * [st.integers(0, 12)]), st.tuples(*4 * [st.integers(0, 12)]))
    def test_packed_and_listed_weights_agree(self, m1, m2):
        k = _packed_size(m1, m2)[0]
        assert list(_packed_weights(m1, m2, k)) == list(_listed_weights(m1, m2))

    @settings(max_examples=50, deadline=None)
    @given(pairs_of_total_degree(10))
    def test_against_rewrite_oracle_to_degree_10(self, pair):
        assert mono_star_mono(*pair) == oracle_star(*pair)

    @pytest.mark.parametrize("m1, m2, calls", [
        ((0, 40, 0, 0), (0, 40, 0, 0), 0),   # (1 + 0 t)^40 twice
        ((0, 40, 3, 0), (0, 40, 0, 0), 41),  # (1 + 0 t)^40 (1 + 6 t)^40
        ((0, 40, 0, 0), (3, 40, 0, 0), 41),  # (1 + 6 t)^40 (1 + 0 t)^40
    ])
    def test_binomial_rows_of_a_zero_base_need_no_binomials(self, monkeypatch, m1, m2,
                                                            calls):
        counted = []
        monkeypatch.setattr(algebra, "comb", lambda n, k: counted.append(n) or comb(n, k))
        rows = list(_listed_weights(m1, m2))
        assert len(counted) == calls
        monkeypatch.undo()
        assert rows == list(_packed_weights(m1, m2, _packed_size(m1, m2)[0]))

    def test_leaves_the_symbol_cache_alone(self):
        shifted_elem.cache_clear()
        _mono_product(NormalMonomial(1, 2, 5, 1), NormalMonomial(6, 1, 2, 0))
        assert shifted_elem.cache_info().currsize == 0


class TestKernelInputs:
    @pytest.mark.parametrize("slot", range(8))
    @pytest.mark.parametrize("bad, error", [
        (-1, ValueError), (True, TypeError), (1.0, TypeError),
        (Fraction(1), TypeError), ("1", TypeError),
    ])
    def test_rejects_a_bad_exponent_in_any_slot(self, slot, bad, error):
        pair = [1] * 8
        pair[slot] = bad
        m1, m2 = tuple(pair[:4]), tuple(pair[4:])
        before = _mono_star.cache_info()
        with pytest.raises(error, match=re.escape(f"{m1} * {m2}")):
            mono_star_mono(m1, m2)
        with pytest.raises(error, match=re.escape(f"{m1} * {m2}")):
            structural_coefficient(m1, m2, (1, 1, 1, 1))
        after = _mono_star.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_each_call_returns_a_product_of_its_own(self):
        product = mono_star_mono((0, 0, 2, 0), (2, 0, 0, 0))
        product.terms.clear()
        assert mono_star_mono((0, 0, 2, 0), (2, 0, 0, 0)) == FIVE_TERM


class TestKernelMemo:
    """Only star keeps kernel products, the middle products of its pairs of
    groups, and it keeps a bounded number."""

    def test_single_pair_callers_leave_the_memo_alone(self):
        pairs = [((0, 0, 2, 0), (2, 0, 0, 0)), ((1, 2, 3, 1), (3, 2, 1, 0)),
                 ((0, 0, 1, 0), (1, 0, 0, 0))]
        star(Element.monomial(pairs[0][0]), Element.monomial(pairs[0][1]))
        before = _mono_star.cache_info()
        for _ in range(2):
            for m1, m2 in pairs:
                mono_star_mono(m1, m2)
                structural_coefficient(m1, m2, (0, 1, 0, 3))
        assert _mono_star.cache_info() == before

    def test_every_module_cache_is_bounded(self):
        caches = {(module.__name__, name): value.cache_info().maxsize
                  for module in (algebra, combinatorics, rewrite, species)
                  for name, value in vars(module).items()
                  if hasattr(value, "cache_info")}
        assert ("uhsl2.algebra", "_mono_star") in caches
        assert ("uhsl2.rewrite", "_run") in caches
        assert ("uhsl2.combinatorics", "shifted_elem") in caches
        assert ("uhsl2.species", "ascending_maps_count") in caches
        assert ("uhsl2.species", "_choices") in caches
        assert all(size is not None for size in caches.values()), caches

    def test_a_wrong_middle_shows_against_the_reference(self, monkeypatch):
        # plant N(z x) = xz - 2yh (it is xz - yh) as the middle (b1, c1, a2,
        # b2) = (0, 1, 1, 0): star reads it, while mono_star_mono and
        # reference_star go through the unmemoized kernel and do not
        real = algebra._mono_star
        monkeypatch.setattr(algebra, "_mono_star", lambda *key: (
            ((1,), (-2,)) if key == (0, 1, 1, 0) else real(*key)))
        f = Element({(0, 0, 1, 0): 1, (0, 1, 0, 0): 3, (1, 0, 1, 1): Fraction(1, 2)})
        g = Element({(1, 0, 0, 0): 2, (0, 0, 0, 1): -1, (2, 1, 0, 0): 5})
        assert real(0, 1, 1, 0) == ((1,), (-1,))
        assert star(f, g) != reference_star(f, g)
        # the two pairs that read it, z * 2x and (x z h / 2) * 2x, are off
        # by -2 y h and -x y h^2 in the ordinary basis
        assert star(f, g) - reference_star(f, g) == Element({(0, 1, 0, 1): -2,
                                                             (1, 1, 0, 2): -2})
        assert mono_star_mono((0, 0, 1, 0), (1, 0, 0, 0)) == Element(
            {(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})

    @pytest.mark.parametrize("memo", ["cleared", "evicted"])
    def test_star_equals_reference(self, memo):
        _mono_star.cache_clear()
        if memo == "evicted":
            # one product over more middles than the memo holds: its 49 groups
            # (b1, c1) on the left and 49 groups (a2, b2) on the right meet
            # 2,401 middles, where dense_warm meets 441 and a square of degree
            # <= 8 meets 2,025
            rng = random.Random(4)
            star(Element({(rng.randrange(3), b, c, rng.randrange(3)): rng.randint(1, 9)
                          for b in range(7) for c in range(7)}),
                 Element({(a, b, rng.randrange(3), rng.randrange(3)): rng.randint(1, 9)
                          for a in range(7) for b in range(7)}))
            info = _mono_star.cache_info()
            assert info.misses == 49 * 49 > info.maxsize == info.currsize
        rng = random.Random(memo)
        for _ in range(40):
            f = random_element(rng, max_deg=4, n_terms=6)
            g = random_element(rng, max_deg=4, n_terms=6)
            assert star(f, g) == reference_star(f, g), (f, g)


class TestMonoStarMono:
    def test_unit_element(self):
        unit = (0, 0, 0, 0)
        for m in ((0, 0, 0, 0), (1, 2, 0, 1), (3, 0, 2, 0)):
            assert mono_star_mono(unit, m) == Element.monomial(m)
            assert mono_star_mono(m, unit) == Element.monomial(m)

    def test_worked_example(self):
        assert mono_star_mono((0, 0, 1, 0), (2, 0, 0, 0)) == Z_XX_EXAMPLE

    def test_five_term_identity(self):
        assert mono_star_mono((0, 0, 2, 0), (2, 0, 0, 0)) == FIVE_TERM

    def test_against_rewrite_oracle(self):
        assert mono_star_mono((0, 0, 2, 0), (3, 0, 0, 0)) == oracle_star(
            (0, 0, 2, 0), (3, 0, 0, 0)
        )

    def test_oracle_equivalence_with_h_exponents(self):
        monos = [
            (a, b, c, d)
            for a in range(3)
            for b in range(3)
            for c in range(3)
            for d in range(3)
        ]
        for m1 in monos:
            for m2 in monos:
                assert mono_star_mono(m1, m2) == oracle_star(m1, m2), (m1, m2)

    def test_oracle_equivalence_random_exponent_3(self):
        rng = random.Random(31337)
        for _ in range(150):
            m1 = tuple(rng.randint(0, 3) for _ in range(4))
            m2 = tuple(rng.randint(0, 3) for _ in range(4))
            assert mono_star_mono(m1, m2) == oracle_star(m1, m2), (m1, m2)

    def test_grading(self):
        monos = [
            (a, b, c, d)
            for a in range(5)
            for b in range(5)
            for c in range(5)
            for d in range(5)
            if a + b + c + d <= 4
        ]
        for m1 in monos:
            for m2 in monos:
                total = sum(m1) + sum(m2)
                for mono in mono_star_mono(m1, m2).terms:
                    assert mono.degree == total

    def test_matches_sequential_ordering_sum(self):
        # independent route: order the concatenated word block by block
        # (z^c against x^k giving (v, w), then both y-blocks shedding h's
        # via i and u) and collect h-powers as you go; the four-index sum
        # must agree with the thirteen-index formula term for term.
        from math import comb, factorial
        from uhsl2.combinatorics import shifted_elem

        def multinom(total, parts):
            out, rem = 1, total
            for p in parts:
                out *= comb(rem, p)
                rem -= p
            return out

        def sequential(m1, m2):
            a, b, c, d = m1
            k, l, m, n = m2
            out = {}
            for v in range(min(c, k) + 1):
                for w in range(v + 1):
                    for i in range(b + 1):
                        for u in range(l + 1):
                            h_total = d + n + v + w + i + u
                            coeff = (
                                (-1) ** v
                                * multinom(h_total, (d, n, v, w, i, u))
                                * multinom(c - v + m, (c - v, m))
                                * multinom(b - i + v - w + l - u,
                                           (b - i, v - w, l - u))
                                * multinom(a + k - v, (a, k - v))
                                * factorial(v - w)
                                * factorial(w)
                                * shifted_elem(c + k - 2 * v, w, v)
                                * (2 * (k - v)) ** i
                                * (2 * (c - v)) ** u
                            )
                            if coeff:
                                key = (a + k - v, b - i + v - w + l - u,
                                       c - v + m, h_total)
                                out[key] = out.get(key, 0) + coeff
            return Element(out)

        rng = random.Random(99)
        for _ in range(200):
            m1 = tuple(rng.randint(0, 3) for _ in range(4))
            m2 = tuple(rng.randint(0, 3) for _ in range(4))
            assert sequential(m1, m2) == mono_star_mono(m1, m2), (m1, m2)


class TestStar:
    def test_order_matters(self):
        assert star(X1, Y1) == Element({(1, 1, 0, 0): 1})
        assert star(Y1, X1) == Element({(1, 1, 0, 0): 1, (1, 0, 0, 1): 2})

    def test_defining_relations(self):
        assert star(Z1, X1) == Element({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})
        assert star(Z1, Y1) == Element({(0, 1, 1, 0): 1, (0, 0, 1, 1): 2})

    def test_unit_laws(self):
        rng = random.Random(7)
        unit = Element.unit()
        for _ in range(20):
            f = random_element(rng)
            assert star(unit, f) == f
            assert star(f, unit) == f

    def test_h_centrality(self):
        rng = random.Random(11)
        for d in range(4):
            hd = Element.monomial((0, 0, 0, d))
            for _ in range(10):
                f = random_element(rng)
                assert star(hd, f) == star(f, hd)

    def test_bilinearity(self):
        rng = random.Random(13)
        for _ in range(10):
            f, g, e = (random_element(rng) for _ in range(3))
            assert star(f + g, e) == star(f, e) + star(g, e)
            assert star(e, f + g) == star(e, f) + star(e, g)

    def test_associativity_sample(self):
        rng = random.Random(17)
        for _ in range(15):
            f, g, e = (random_element(rng, max_deg=2, n_terms=3) for _ in range(3))
            assert star(star(f, g), e) == star(f, star(g, e))

    def test_specializes_to_normal_ordering(self):
        for a in range(6):
            for b in range(6):
                za = Element.monomial((0, 0, a, 0))
                yb = Element.monomial((0, b, 0, 0))
                ya = Element.monomial((0, a, 0, 0))
                xb = Element.monomial((b, 0, 0, 0))
                assert star(za, yb) == normal_order_zy(a, b)
                assert star(ya, xb) == normal_order_yx(a, b)
                assert star(za, xb) == normal_order_zx(a, b)

    def test_cap_discards_high_degrees_only(self):
        f = exp_series("z", 3)
        g = exp_series("x", 3)
        capped = star(f, g)
        uncapped = star(f.with_cap(None), g.with_cap(None))
        assert capped.cap == 3
        for mono, coeff in uncapped.terms.items():
            if mono.degree <= 3:
                assert capped.terms[mono] == coeff
        assert all(m.degree <= 3 for m in capped.terms)


class TestStructuralCoefficient:
    def test_integrality_sampled_at_exponent_4(self):
        # full 625^2 sweep takes ~2 min; a seeded sample guards the invariant
        rng = random.Random(404)
        monos = [
            (a, b, c, d)
            for a in range(5)
            for b in range(5)
            for c in range(5)
            for d in range(5)
        ]
        for _ in range(400):
            m1, m2 = rng.choice(monos), rng.choice(monos)
            for mono, coeff in mono_star_mono(m1, m2).terms.items():
                assert Fraction(coeff).denominator == 1, (m1, m2, mono)

    def test_reference_values(self):
        assert structural_coefficient((0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1)) == 2
        assert structural_coefficient((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 1)) == -1
        assert structural_coefficient((0, 0, 2, 0), (2, 0, 0, 0), (0, 1, 0, 3)) == 3

    def test_returns_plain_int(self):
        value = structural_coefficient((0, 0, 2, 0), (2, 0, 0, 0), (1, 0, 1, 2))
        assert isinstance(value, int) and value == -4

    def test_violation_error_exists(self):
        assert issubclass(IntegralityViolation, Exception)


class TestExpSeries:
    def test_cap_zero_is_unit(self):
        assert exp_series("x", 0) == Element.unit()

    def test_y_series_terms(self):
        assert exp_series("y", 3) == Element(
            {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 2, 0, 0): 1, (0, 3, 0, 0): 1}
        )

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            exp_series("x", -1)

    @pytest.mark.parametrize("color", ["xy", "", "X", 0])
    def test_unknown_generator_rejected(self, color):
        # a name is a whole lowercase generator, never a substring of "xyzh"
        with pytest.raises(ValueError):
            exp_series(color, 2)


DEG4_MONOS = [m for m in ((a, b, c, d) for a in range(5) for b in range(5)
                          for c in range(5) for d in range(5)) if sum(m) <= 4]

elements = st.dictionaries(
    st.sampled_from(DEG4_MONOS),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1,
    max_size=4,
).map(Element)


def sigma(f: Element) -> Element:
    """m(a,b,c,d) -> m(c,b,a,d), extended linearly."""
    return Element({(c, b, a, d): v for (a, b, c, d), v in f.terms.items()}, f.cap)


def split_by(f: Element, key) -> dict:
    parts: dict = {}
    for mono, coeff in f.terms.items():
        parts.setdefault(key(mono), {})[mono] = coeff
    return {k: Element(terms) for k, terms in parts.items()}


def weight(mono) -> int:
    return mono.a - mono.c


DEG3_MONOS = [m for m in DEG4_MONOS if sum(m) <= 3]

elements_to_degree_3 = st.dictionaries(
    st.sampled_from(DEG3_MONOS),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1,
    max_size=4,
).map(Element)


class TestInvariantProperties:
    """Invariants of star on random elements with h, degree <= 4 (<= 3 for
    associativity, which multiplies three of them)."""

    @settings(max_examples=50, deadline=None)
    @given(elements_to_degree_3, elements_to_degree_3, elements_to_degree_3)
    def test_associativity(self, f, g, e):
        assert star(star(f, g), e) == star(f, star(g, e))

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_sigma_reverses_products(self, f, g):
        assert sigma(sigma(f)) == f
        assert sigma(star(f, g)) == star(sigma(g), sigma(f))

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_weight_is_conserved(self, f, g):
        total = Element.zero()
        for w1, f_part in split_by(f, weight).items():
            for w2, g_part in split_by(g, weight).items():
                product = star(f_part, g_part)
                assert all(weight(m) == w1 + w2 for m in product.terms)
                total = total + product
        assert total == star(f, g)

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_degree_grading(self, f, g):
        total = Element.zero()
        for d1, f_part in split_by(f, lambda m: m.degree).items():
            for d2, g_part in split_by(g, lambda m: m.degree).items():
                product = star(f_part, g_part)
                assert all(m.degree == d1 + d2 for m in product.terms)
                total = total + product
        assert total == star(f, g)


# Mersenne primes and two common word-sized primes: coprime denominators make
# the common denominator of a factor, and of the product, as large as it gets
LARGE_PRIMES = (2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1, 2**89 - 1, 2**127 - 1)

COEFFICIENTS = {
    "int": st.integers(-10**6, 10**6),
    "fraction": st.fractions(max_denominator=60),
    "integral_fraction": st.integers(-50, 50).map(Fraction),
    "large_prime_denominator": st.builds(
        Fraction, st.integers(-10**30, 10**30), st.sampled_from(LARGE_PRIMES)),
}
COEFFICIENTS["mixed"] = st.one_of(*COEFFICIENTS.values())
NONZERO = COEFFICIENTS["mixed"].filter(bool)


def factors(coefficients, cap=None):
    return st.dictionaries(st.sampled_from(DEG4_MONOS), coefficients,
                           max_size=5).map(lambda terms: Element(terms, cap))


class TestStarAgainstReference:
    """star sums integers over one common denominator per factor;
    reference_star adds one exact rational at a time.  They must agree."""

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_reference(self, kind, data):
        f = data.draw(factors(COEFFICIENTS[kind]))
        g = data.draw(factors(COEFFICIENTS[kind]))
        product = star(f, g)
        assert product == reference_star(f, g)
        assert all(product.terms.values())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), cap=st.sampled_from([None, 0, 2, 4, 6]), shared=st.booleans())
    def test_equals_reference_under_a_cap(self, data, cap, shared):
        f = data.draw(factors(COEFFICIENTS["mixed"], cap))
        g = data.draw(factors(COEFFICIENTS["mixed"], cap if shared else None))
        product, expected = star(f, g), reference_star(f, g)
        assert product == expected
        assert product.cap == expected.cap == cap
        assert cap is None or all(m.degree <= cap for m in product.terms)

    @settings(max_examples=60, deadline=None)
    @given(NONZERO, NONZERO, NONZERO, st.sampled_from(DEG4_MONOS))
    def test_cancelling_terms_are_pruned(self, p, q, r, mono):
        # hm * x and x * hm both hold x hm with the coefficient a + 1, so g's
        # hm coefficient s = -p r / q cancels it in f * g (the extra h keeps
        # hm apart from x)
        hm = (mono[0], mono[1], mono[2], mono[3] + 1)
        f = Element({hm: p, (1, 0, 0, 0): q})
        g = Element({(1, 0, 0, 0): r, hm: -Fraction(p) * r / q})
        product = star(f, g)
        assert product == reference_star(f, g)
        assert (mono[0] + 1, mono[1], mono[2], mono[3] + 1) not in product.terms
        assert all(product.terms.values())

    @settings(max_examples=40, deadline=None)
    @given(factors(COEFFICIENTS["int"]), factors(COEFFICIENTS["int"]))
    def test_integer_factors_give_integer_coefficients(self, f, g):
        assert all(type(v) is int for v in star(f, g).terms.values())


def integral(f: Element) -> bool:
    return all(v.denominator == 1 for v in f.terms.values())


# few middles and many passive exponents, so that a group's members differ in
# degree and a cap cuts through groups
GROUPED_MONOS = [(a, b, c, d) for a in range(4) for b in range(3) for c in range(3)
                 for d in range(4)]


@st.composite
def grouped_factors(draw, cap):
    kind = draw(st.sampled_from(["int", "fraction", "integral_fraction", "mixed"]))
    terms = draw(st.dictionaries(st.sampled_from(GROUPED_MONOS), COEFFICIENTS[kind],
                                 max_size=8))
    return Element(terms, cap)


class TestScalars:
    """A factor that holds only the unit monomial is a scalar: star scales the
    other factor by it without the kernel, and Element.scale is that product."""

    def test_a_cap_from_the_scalar_alone(self):
        f = Element({(5, 0, 0, 0): Fraction(1, 2), (1, 0, 0, 0): 3})
        for product in (star(f, Element({UNIT: 2}, cap=3)), star(Element({UNIT: 2}, cap=3), f)):
            assert product == reference_star(f, Element({UNIT: 2}, cap=3))
            assert product.terms == {(1, 0, 0, 0): 6}
            assert product.cap == 3

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["int", "fraction", "integral_fraction"]),
           cap=st.sampled_from([None, 0, 2, 4]))
    def test_scale_is_the_product_with_the_unit(self, data, kind, cap):
        f = data.draw(factors(COEFFICIENTS["mixed"], cap))
        q = data.draw(COEFFICIENTS[kind])
        unit = Element({UNIT: q})
        scaled = f.scale(q)
        assert scaled == reference_star(f, unit) == q * f == f * q == star(unit, f)
        assert scaled.cap == cap
        # the types of star's route for any other pair of factors
        typed = {m: (type(v), v) for m, v in scaled.terms.items()}
        assert typed == {m: (type(v), v) for m, v in _pairwise_star(f, unit, cap).terms.items()}
        expected = int if integral(f) and q.denominator == 1 else Fraction
        assert all(type(v) is expected for v in scaled.terms.values())

    def test_other_operands_reach_their_own_product(self):
        class Other:
            def __mul__(self, f):
                return "Other * f"

            def __rmul__(self, f):
                return "f * Other"

        f = Element({(1, 0, 0, 0): 3})
        assert f * Other() == "f * Other"
        assert Other() * f == "Other * f"
        for operand in (1.5, "a", None):
            with pytest.raises(TypeError):
                f * operand
            with pytest.raises(TypeError):
                operand * f


class TestMiddleProducts:
    """star spreads one memoized middle product per pair of groups over the
    members' passive exponents, in the ordinary basis."""

    def test_middle_is_the_rewritten_word(self):
        for b1, c1, a2, b2 in product(range(5), repeat=4):
            terms = {}
            for r, row in enumerate(_middle_product(b1, c1, a2, b2)):
                for u, coeff in enumerate(row):
                    assert coeff, (b1, c1, a2, b2, r, u)
                    terms["X" * (a2 - r) + "Y" * (b1 + b2 + r - u) + "Z" * (c1 - r)
                          + "H" * (r + u)] = coeff
            word = "Y" * b1 + "Z" * c1 + "X" * a2 + "Y" * b2
            assert terms == {w: v for w, v in normalize(word).items() if v}, word

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cap=st.sampled_from([None, *range(13)]), shared=st.booleans())
    def test_star_equals_reference_with_its_types(self, data, cap, shared):
        f = data.draw(grouped_factors(cap))
        g = data.draw(grouped_factors(cap if shared else None))
        product, expected = star(f, g), reference_star(f, g)
        assert product == expected
        assert product.cap == expected.cap
        # ints exactly when both factors' coefficients are integral
        kind = int if integral(f) and integral(g) else Fraction
        assert all(type(v) is kind for v in product.terms.values())

    @pytest.mark.parametrize("extra, through_middles", [(0, True), (1, False)])
    def test_the_degree_bound_picks_the_route(self, extra, through_middles):
        # the factors' degrees sum to the bound, or to one more
        half = ORDINARY_MAX_DEGREE // 2
        f = Element({(half - 2, 1, 1, 0): Fraction(1, 3), (0, 0, 2, 0): 5})
        g = Element({(1, 1, half - 2 + extra, 0): 2, (2, 0, 0, 1): Fraction(-1, 2)})
        _mono_star.cache_clear()
        product = star(f, g)
        assert (_mono_star.cache_info().misses > 0) == through_middles
        assert product == reference_star(f, g)
        assert all(type(v) is Fraction for v in product.terms.values())

    def test_a_cap_above_the_bound_skips_pairs_past_it(self):
        # the degrees sum to 550 > ORDINARY_MAX_DEGREE, so the pairs go one by
        # one, and the pair of degree 550 passes the cap of 400
        f = Element({(300, 0, 0, 0): Fraction(1, 3), (1, 1, 0, 0): 3}, cap=400)
        g = Element({(0, 0, 250, 0): 2, (0, 1, 1, 0): Fraction(-1, 2)}, cap=400)
        _mono_star.cache_clear()
        product = star(f, g)
        assert _mono_star.cache_info().misses == 0
        assert product == reference_star(f, g)
        assert product.cap == 400 and len(product.terms) == 3
        assert all(m.degree <= 400 for m in product.terms)

    @pytest.mark.parametrize("a", [20_000, 10**100], ids=["20000", "10^100"])
    def test_a_large_passive_exponent_takes_no_factorial(self, a):
        # a1 and c2 enter the kernel only through two binomials; 20000! alone
        # has 77,338 digits, and 10**100 is past what math.factorial accepts
        f = Element({(a, 1, 2, 0): 3, (0, 0, 1, 1): 1})
        g = Element({(2, 1, a, 0): Fraction(1, 2), (1, 0, 0, 0): 1})
        start = perf_counter()
        product = star(f, g)
        assert perf_counter() - start < 0.5
        assert product == reference_star(f, g)
