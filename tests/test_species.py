"""Tests for the labelled-set species enumeration."""

from __future__ import annotations

import copy
import pickle
import signal
from dataclasses import FrozenInstanceError, fields, replace
from itertools import combinations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_species import reference_star_species
from uhsl2 import species
from uhsl2.algebra import COLORS, Element, exp_series, star
from uhsl2.cli import MAX_SPECIES_TOTAL
from uhsl2.combinatorics import shifted_elem
from uhsl2.species import (
    ColoredSizes,
    DividedPower,
    Exponential,
    Singleton,
    SpeciesMismatch,
    ascending_maps_count,
    size_tuples,
    species_coefficient_check,
    species_element,
    star_species,
    valuation_element,
)

ZX_FIVE_TERM = {
    (2, 0, 2, 0): 1,
    (1, 1, 1, 1): -1,
    (1, 0, 1, 2): -4,
    (0, 2, 0, 2): 2,
    (0, 1, 0, 3): 3,
}
RIGID = [Exponential(c) for c in COLORS] + [Singleton(c) for c in COLORS]
# every kind, with the divided powers of exponents <= 1
SMALL_SPECS = [DividedPower(*e) for e in product(range(2), repeat=4)] + RIGID


class TestFunctorValue:
    def test_divided_power_accepts_exact_sizes(self):
        f = DividedPower(2, 0, 0, 0)
        assert f.value((2, 0, 0, 0)) == 1
        assert f.value((1, 0, 0, 0)) == 0
        assert f.value((2, 1, 0, 0)) == 0

    def test_exponential_ignores_own_color_size(self):
        f = Exponential("y")
        assert f.value((0, 5, 0, 0)) == 1
        assert f.value((0, 0, 0, 0)) == 1
        assert f.value((1, 5, 0, 0)) == 0

    def test_singleton_is_unit_divided_power(self):
        for color, mono in zip("xyzh", ((1, 0, 0, 0), (0, 1, 0, 0),
                                        (0, 0, 1, 0), (0, 0, 0, 1))):
            single = Singleton(color)
            divided = DividedPower(*mono)
            assert single.exponents == divided.exponents
            assert (str(single), single) == (color, Singleton(color))
            for sizes in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 0, 0)):
                assert single.value(sizes) == divided.value(sizes)
            for total in range(3):
                assert single.support(total) == divided.support(total)

    def test_exponents_are_set_when_built(self):
        # a plain attribute, not a cached_property (which locks on first
        # access); the fields, and so ==, hash and repr, are unchanged
        for spec, exponents, text in ((DividedPower(1, 2, 3, 4), (1, 2, 3, 4),
                                       "DividedPower(a=1, b=2, c=3, d=4)"),
                                      (Singleton("z"), (0, 0, 1, 0), "Singleton(color='z')")):
            assert vars(spec)["exponents"] == exponents
            assert repr(spec) == text
            twin = type(spec)(*(getattr(spec, f.name) for f in fields(spec)))
            assert twin == spec and hash(twin) == hash(spec)
        assert [f.name for f in fields(DividedPower)] == ["a", "b", "c", "d"]
        assert [f.name for f in fields(Singleton)] == ["color"]

    @pytest.mark.parametrize("spec", [DividedPower(1, 0, 2, 0), Singleton("y"),
                                      Exponential("h")], ids=str)
    def test_frozen_and_copied_whole(self, spec):
        # built by one update of the instance dict, which copy and pickle restore
        for name in ("a", "color", "exponents"):
            with pytest.raises(FrozenInstanceError):
                setattr(spec, name, 1)
        for twin in (copy.copy(spec), pickle.loads(pickle.dumps(spec)),
                     replace(spec)):
            assert twin == spec and vars(twin) == vars(spec)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad, error", [(True, TypeError), (-1, ValueError),
                                            (1.5, TypeError), ("1", TypeError)])
    def test_exponents_are_checked_when_built(self, slot, bad, error):
        # by the same rule, and in the same words, as a monomial of an Element
        exponents = [1, 0, 2, 0]
        exponents[slot] = bad
        with pytest.raises(error) as built:
            DividedPower(*exponents)
        with pytest.raises(error) as element:
            Element({tuple(exponents): 1})
        assert str(built.value) == str(element.value)

    def test_supports(self):
        assert DividedPower(1, 0, 2, 0).support(3) == ((1, 0, 2, 0),)
        assert DividedPower(0, 3, 0, 0).support(2) == ()
        assert Singleton("h").support(1) == ((0, 0, 0, 1),)
        assert Singleton("h").support(0) == ()
        assert Exponential("y").support(2) == ((0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0))
        assert Exponential("y").support(0) == ((0, 0, 0, 0),)

    @pytest.mark.parametrize("spec, value", [(Exponential("x"), 1),
                                             (DividedPower(1, 0, 0, 0), 0)], ids=str)
    def test_value_does_not_grow_with_the_sizes(self, spec, value):
        # value compares the sizes and never lists a support (exp(x)'s has
        # 10**12 + 1 tuples under this total); the alarm ends a walk within 1 s
        def expire(signum, frame):
            raise TimeoutError(f"{spec}.value took more than 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            assert spec.value((10**12, 0, 0, 0)) == value
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("kind", [Singleton, Exponential])
    @pytest.mark.parametrize("color", ["xy", "", "X", "exp(x)", 0])
    def test_color_is_checked_when_built(self, kind, color):
        message = f"{kind.__name__}({color!r}): color must be one of x, y, z, h"
        with pytest.raises(ValueError) as info:
            kind(color)
        assert str(info.value) == message

    def test_value_is_each_kinds_definition(self):
        # each kind's definition stated directly, and its support listed from it
        def definition(spec, sizes):
            if isinstance(spec, Exponential):
                own = COLORS.index(spec.color)
                return int(all(s == 0 for i, s in enumerate(sizes) if i != own))
            return int(tuple(sizes) == spec.exponents)

        specs = [DividedPower(*e) for e in product(range(3), repeat=4)] + RIGID
        for spec in specs:
            for sizes in size_tuples(4):
                assert spec.value(sizes) == definition(spec, sizes), (spec, sizes)
            assert set(spec.support(4)) == {s for s in size_tuples(4) if spec.value(s)}, spec


class TestWalks:
    """species_element walks the structures and adds each count at its sizes;
    star_species solves the structures of one size tuple.  Both call _count."""

    def test_species_element_is_star_species_at_every_size_up_to_total_6(self):
        for F in SMALL_SPECS:
            for G in SMALL_SPECS:
                walked = species_element(F, G, 6)
                for sizes in size_tuples(6):
                    assert walked.coefficient(sizes) == star_species(F, G, sizes), (F, G, sizes)


class TestAscendingMapsCount:
    """The tableau count: k dots on rows of lengths base..base+m-1."""

    def test_rows_count_the_maps_one_by_one(self):
        # each map, an increasing choice of k rows and a cell in each, counted
        def one_by_one(base, m, k):
            return sum(1 for rows in combinations(range(m), k)
                       for _ in product(*(range(base + i) for i in rows)))

        for base in range(5):
            for m in range(6):
                for k in range(m + 2):
                    assert ascending_maps_count(base, m, k) == one_by_one(base, m, k)

    def test_many_rows_do_not_recurse(self):
        # one dot on rows of lengths 0..4999
        assert ascending_maps_count(0, 5000, 1) == 4999 * 5000 // 2

    def test_empty_conventions(self):
        for base in range(4):
            assert ascending_maps_count(base, 0, 0) == 1
            assert ascending_maps_count(base, 0, 3) == 0
        # no dots on any tableau: the single empty configuration
        assert ascending_maps_count(2, 3, 0) == 1

    def test_zero_size_component_blocks_maps(self):
        # single component (row) of size 0: no target for the one element
        assert ascending_maps_count(0, 1, 1) == 0

    def test_matches_shifted_elem(self):
        for base in range(7):
            for m in range(7):
                for k in range(7):
                    assert ascending_maps_count(base, m, k) == shifted_elem(base, k, m)

    def test_example(self):
        assert ascending_maps_count(2, 5, 3) == shifted_elem(2, 3, 5)

    def test_rejects_negative_row_length(self):
        with pytest.raises(ValueError):
            ascending_maps_count(-1, 1, 1)

    def test_rejects_a_negative_number_of_dots(self):
        with pytest.raises(ValueError):
            ascending_maps_count(1, 1, -1)


def block_partitions(n, parts, smallest=1):
    """Partitions of n into at most ``parts`` parts of at least ``smallest``,
    each in ascending order: the sorted block sizes of one color's deal."""
    if n == 0:
        yield ()
    elif parts:
        for first in range(smallest, n + 1):
            for rest in block_partitions(n - first, parts - 1, first):
                yield (first, *rest)


class TestDeals:
    """Deal counts as products of per-block choices, and the choice memo."""

    @staticmethod
    def deal(n, blocks):
        # as star_species deals one color: each block's labels are chosen out
        # of those the earlier blocks left
        count = 1
        for k in blocks:
            count *= species._choices(n, k)
            n -= k
        return count

    def test_counts_are_multinomials(self):
        for n in range(9):
            for blocks in block_partitions(n, 6):
                multinomial = factorial(n) // prod(map(factorial, blocks))
                # in any order, with empty blocks anywhere
                for order in (blocks, blocks[::-1], (0, *blocks, 0)):
                    assert self.deal(n, order) == multinomial, (n, order)

    def test_choices_are_counted_from_combinations(self):
        for n in range(13):
            for k in range(n + 2):
                assert species._choices(n, k) == sum(1 for _ in combinations(range(n), k))

    def test_memo_keys_are_bounded(self):
        # a check up to total T deals each color's at most T labels, so it
        # meets at most (T + 1)(T + 2) / 2 choice keys (n, k) with k <= n <= T,
        # and at most C(T + 3, 3) keys of ascending_maps_count; both memos
        # hold all of them at the CLI's bound
        def choice_keys(total):
            return (total + 1) * (total + 2) // 2

        assert choice_keys(MAX_SPECIES_TOTAL) <= species._choices.cache_info().maxsize
        assert comb(MAX_SPECIES_TOTAL + 3, 3) <= ascending_maps_count.cache_info().maxsize
        species._choices.cache_clear()
        ascending_maps_count.cache_clear()
        for F in RIGID:
            for G in RIGID:
                species_element(F, G, 8)
        assert 0 < species._choices.cache_info().currsize <= choice_keys(8) == 45
        assert 0 < ascending_maps_count.cache_info().currsize <= comb(8 + 3, 3)


class TestStarSpecies:
    def test_yx_defining_relation(self):
        F, G = Singleton("y"), Singleton("x")
        assert star_species(F, G, (1, 1, 0, 0)) == 1
        assert star_species(F, G, (1, 0, 0, 1)) == 2
        assert star_species(F, G, (0, 1, 0, 1)) == 0

    def test_zx_defining_relation(self):
        F, G = Singleton("z"), Singleton("x")
        assert star_species(F, G, (1, 0, 1, 0)) == 1
        assert star_species(F, G, (0, 1, 0, 1)) == -1

    def test_zy_defining_relation(self):
        F, G = Singleton("z"), Singleton("y")
        assert star_species(F, G, (0, 1, 1, 0)) == 1
        assert star_species(F, G, (0, 0, 1, 1)) == 2

    def test_zx_vanishes_for_two_or_more_h(self):
        F, G = Singleton("z"), Singleton("x")
        for nh in range(2, 6):
            for nx in range(2):
                for ny in range(2):
                    for nz in range(2):
                        assert star_species(F, G, (nx, ny, nz, nh)) == 0

    def test_sign_comes_from_third_block(self):
        # with one h-label the only nonzero single-h contribution for Z*X
        # routes it through block 3, carrying the single minus sign
        assert star_species(Singleton("z"), Singleton("x"), (0, 1, 0, 1)) == -1
        # for Y*X the h-label lands in block 5 instead: positive count
        assert star_species(Singleton("y"), Singleton("x"), (1, 0, 0, 1)) == 2

    def test_five_term_identity_sizes(self):
        F, G = DividedPower(0, 0, 2, 0), DividedPower(2, 0, 0, 0)
        for sizes, expected in ZX_FIVE_TERM.items():
            assert star_species(F, G, sizes) == expected
        assert star_species(F, G, (0, 0, 0, 4)) == 0
        assert star_species(F, G, (1, 0, 1, 0)) == 0

    def test_worked_example_sizes(self):
        F, G = Singleton("z"), DividedPower(2, 0, 0, 0)
        assert star_species(F, G, (2, 0, 1, 0)) == 1
        assert star_species(F, G, (1, 1, 0, 1)) == -1
        assert star_species(F, G, (1, 0, 0, 2)) == -2


FUNCTORS = st.one_of(
    st.builds(DividedPower, *[st.integers(0, 3)] * 4),
    st.builds(Singleton, st.sampled_from(COLORS)),
    st.builds(Exponential, st.sampled_from(COLORS)),
)
SIZES_7 = list(size_tuples(7))


@st.composite
def functor_pair_and_sizes(draw):
    F, G = draw(FUNCTORS), draw(FUNCTORS)
    # any size tuple: for most of them no pair of arguments from the two
    # supports solves to a t and a pool, and star_species must give 0
    if draw(st.booleans()):
        return F, G, draw(st.sampled_from(SIZES_7))
    # the product keeps the total degree and the weight nx - nz, so most
    # size tuples give 0; aim at the degree and weight the pair can reach
    fixed = [spec.exponents for spec in (F, G) if hasattr(spec, "exponents")]
    degree = sum(map(sum, fixed))
    if len(fixed) == 2 and degree <= 7:
        total, weight = degree, sum(e[0] - e[2] for e in fixed)
    else:
        total, weight = draw(st.integers(min(degree, 7), 7)), None
    sizes = [s for s in SIZES_7 if sum(s) == total and weight in (None, s[0] - s[2])]
    return F, G, draw(st.sampled_from(sizes))


class TestAgainstReference:
    """Block sizes first, labels second, against the frozenset walk."""

    @settings(max_examples=600, deadline=None)
    @given(functor_pair_and_sizes())
    def test_random_pairs_up_to_total_7(self, case):
        F, G, sizes = case
        assert star_species(F, G, sizes) == reference_star_species(F, G, sizes)

    def test_exponentials_and_singletons_up_to_total_5(self):
        # and every kind against the divided powers of exponents <= 1 at total <= 4
        cases = [(F, G, 5) for F in RIGID for G in RIGID]
        cases += [(F, G, 4) for F in SMALL_SPECS for G in SMALL_SPECS]
        for F, G, max_total in cases:
            for sizes in size_tuples(max_total):
                assert star_species(F, G, sizes) == reference_star_species(F, G, sizes), (
                    F, G, sizes)


class TestValuation:
    def test_divided_power_is_single_monomial(self):
        assert valuation_element(DividedPower(1, 2, 0, 1), 6) == Element.monomial(
            (1, 2, 0, 1)
        )

    def test_exponential_matches_exp_series(self):
        for color in "xyzh":
            assert valuation_element(Exponential(color), 4) == exp_series(color, 4)

    def test_truncation(self):
        assert valuation_element(DividedPower(3, 3, 0, 0), 4).terms == {}


class TestCoefficientCheck:
    def test_zy_singletons(self):
        report = species_coefficient_check(Singleton("z"), Singleton("y"), 3)
        assert report.ok
        assert report.checked == 35

    def test_five_term_divided_powers(self):
        report = species_coefficient_check(
            DividedPower(0, 0, 2, 0), DividedPower(2, 0, 0, 0), 4
        )
        assert report.ok

    def test_exponential_pair(self):
        report = species_coefficient_check(Exponential("y"), Exponential("x"), 4)
        assert report.ok

    def test_exponential_zx_pair(self):
        report = species_coefficient_check(Exponential("z"), Exponential("x"), 4)
        assert report.ok

    def test_small_divided_power_sweep(self):
        # desk-scale slice; the exponents <= 2, total <= 6 sweep runs in acceptance
        specs = [
            DividedPower(a, b, c, d)
            for a in range(2)
            for b in range(2)
            for c in range(2)
            for d in range(2)
        ]
        for left in specs:
            for right in specs:
                assert species_coefficient_check(left, right, 4).ok

    def test_mixed_functor_kinds(self):
        # one side with a support of more than one tuple
        cases = [
            (Exponential("z"), Singleton("x")),
            (Exponential("z"), DividedPower(2, 0, 0, 0)),
            (DividedPower(0, 0, 2, 0), Exponential("x")),
            (Singleton("y"), Exponential("x")),
            (Exponential("y"), DividedPower(1, 0, 0, 1)),
            (DividedPower(0, 1, 1, 0), Exponential("h")),
            (Exponential("h"), Exponential("h")),
            (Exponential("x"), Exponential("z")),
        ]
        for left, right in cases:
            assert species_coefficient_check(left, right, 4).ok, (left, right)

    def test_mismatch_reporting_shape(self):
        report = species_coefficient_check(Singleton("z"), Singleton("x"), 2)
        assert report.mismatches == []
        assert report.left == Singleton("z")
        assert report.max_total == 2

    def test_mismatches_in_size_order(self, monkeypatch):
        # _count is called once for each of these sizes of z * x
        real = species._count
        bumped = {(0, 1, 0, 1), (1, 0, 1, 0)}
        monkeypatch.setattr(species, "_count", lambda fa, ga, t, pool, sizes:
                            real(fa, ga, t, pool, sizes) + (tuple(sizes) in bumped))
        report = species_coefficient_check(Singleton("z"), Singleton("x"), 3)
        assert not report.ok
        assert report.checked == 35
        assert report.mismatches == [
            SpeciesMismatch(ColoredSizes(0, 1, 0, 1), 0, -1),
            SpeciesMismatch(ColoredSizes(1, 0, 1, 0), 2, 1),
        ]
        assert all(type(m.sizes) is ColoredSizes for m in report.mismatches)


def test_species_agrees_with_star_on_mixed_monomials():
    F = DividedPower(1, 1, 1, 0)
    G = DividedPower(1, 0, 1, 1)
    product = star(
        Element.monomial((1, 1, 1, 0)), Element.monomial((1, 0, 1, 1))
    )
    for mono, coeff in product.terms.items():
        assert star_species(F, G, tuple(mono)) == coeff
