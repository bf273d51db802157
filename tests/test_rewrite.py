"""Tests for the term-rewriting normalizer."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_rewrite import is_normal, reference_normalize, rewrite_step
from uhsl2 import cli, rewrite
from uhsl2.algebra import Element, mono_star_mono
from uhsl2.rewrite import ALPHABET, extend, normalize, oracle_star, to_element, word_of_monomial

words = st.text(alphabet=ALPHABET, max_size=8)
monomials = st.tuples(*[st.integers(0, 3)] * 4)
STRATEGIES = ("leftmost", "rightmost")


def inversions(word):
    rank = {c: i for i, c in enumerate(ALPHABET)}
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if rank[word[i]] > rank[word[j]]
    )


def non_h_count(word):
    return sum(1 for c in word if c != "H")


def fresh_runs(monkeypatch, maxsize=1 << 11):
    """Give oracle_star an empty run cache of ``maxsize`` runs for the test,
    so that the runs are filled again and no entry outlives it."""
    monkeypatch.setattr(rewrite, "_run", lru_cache(maxsize=maxsize)(rewrite._run.__wrapped__))


class TestRewriteStep:
    def test_yx_rule(self):
        assert rewrite_step("YX") == {"XY": 1, "XH": 2}

    def test_zx_rule(self):
        assert rewrite_step("ZX") == {"XZ": 1, "YH": -1}

    def test_zy_rule(self):
        assert rewrite_step("ZY") == {"YZ": 1, "ZH": 2}

    def test_h_swaps_have_unit_coefficient(self):
        assert rewrite_step("HX") == {"XH": 1}
        assert rewrite_step("HY") == {"YH": 1}
        assert rewrite_step("HZ") == {"ZH": 1}

    def test_normal_word_returns_none(self):
        assert rewrite_step("XYZH") is None
        assert rewrite_step("") is None
        assert rewrite_step("X") is None

    def test_leftmost_position_chosen(self):
        # both ZY (position 0) and YX (position 1) are inverted; leftmost wins
        assert rewrite_step("ZYX") == {"YZX": 1, "ZHX": 2}

    def test_rightmost_strategy(self):
        assert rewrite_step("ZYX", strategy="rightmost") == {"ZXY": 1, "ZXH": 2}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            rewrite_step("YX", strategy="middle")

    @given(words)
    def test_rewrite_outputs_preserve_length(self, word):
        step = rewrite_step(word)
        if step is None:
            assert is_normal(word)
        else:
            assert all(len(w) == len(word) for w in step)

    @given(words)
    def test_measure_decreases(self, word):
        # termination measure: (#non-H letters, #inversions) drops lexicographically
        step = rewrite_step(word)
        if step is not None:
            before = (non_h_count(word), inversions(word))
            for out in step:
                assert (non_h_count(out), inversions(out)) < before


class TestNormalize:
    def test_worked_example_plain_words(self):
        assert normalize("ZXX") == {"XXZ": 1, "XYH": -2, "XHH": -2}

    def test_defining_relation(self):
        assert normalize("ZY") == {"YZ": 1, "ZH": 2}

    def test_h_is_central(self):
        assert normalize("HXYZ") == {"XYZH": 1}

    def test_normal_input_is_fixed(self):
        assert normalize("XXYZZH") == {"XXYZZH": 1}

    @given(words)
    def test_results_are_normal(self, word):
        for out in normalize(word):
            assert is_normal(out)

    @given(words)
    def test_degree_homogeneity(self, word):
        for out in normalize(word):
            assert len(out) == len(word)

    @given(words)
    def test_no_zero_coefficients(self, word):
        assert all(c != 0 for c in normalize(word).values())

    def test_confluence_exhaustive_to_length_8(self):
        # the diamond lemma: appending letters (leftmost rewriting) agrees with
        # whole-word rewriting at the rightmost inverted pair on every word
        memo = {}
        frontier = [""]
        for _ in range(8):
            frontier = [w + c for w in frontier for c in ALPHABET]
            for word in frontier:
                assert normalize(word) == reference_normalize(word, "rightmost", memo)

    @settings(deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=14))
    def test_same_as_whole_word_rewriting(self, word):
        for strategy in STRATEGIES:
            assert normalize(word) == reference_normalize(word, strategy)

    @settings(deadline=None, max_examples=50)
    @given(st.text(alphabet=ALPHABET, min_size=9, max_size=16))
    def test_strategies_agree_on_longer_words(self, word):
        assert normalize(word) == reference_normalize(word, "rightmost")

    @pytest.mark.parametrize("word, normal", [
        ("H" * 5000 + "X", "X" + "H" * 5000),
        ("Z" + "H" * 5000, "Z" + "H" * 5000),
        ("H" + "X" * 5000, "X" * 5000 + "H"),
    ], ids=["H^5000 X", "Z H^5000", "H X^5000"])
    def test_long_words_do_not_recurse(self, monkeypatch, word, normal):
        # one letter crossing 5,000 others: each crossing waits on the next,
        # deeper than the recursion limit if each wait were a call
        monkeypatch.setattr(rewrite, "_MEMO", {})
        assert normalize(word) == {normal: 1}

    def test_memo_holds_only_normal_words(self, monkeypatch):
        monkeypatch.setattr(rewrite, "_MEMO", {})
        monos = list(product(range(2), repeat=4))

        def sweep():
            for m1, m2 in product(monos, repeat=2):
                normalize(word_of_monomial(m1) + word_of_monomial(m2))

        sweep()
        size = len(rewrite._MEMO)
        assert size
        for word, letter in rewrite._MEMO:
            assert is_normal(word) and letter in ALPHABET
        sweep()
        assert len(rewrite._MEMO) == size

    def test_memo_is_emptied_past_its_bound(self, monkeypatch):
        # extend empties the memo when it starts with more than MEMO_BOUND
        # entries, never in the middle of a call, and the products stay right
        assert rewrite.MEMO_BOUND == 1 << 16
        monkeypatch.setattr(rewrite, "MEMO_BOUND", 20)
        monkeypatch.setattr(rewrite, "_MEMO", {})
        fresh_runs(monkeypatch)
        sizes = []
        for m1, m2 in product(product(range(3), repeat=4), repeat=2):
            if len(rewrite._MEMO) > 20:
                sizes.append(len(rewrite._MEMO))
                assert normalize("ZX") == {"XZ": 1, "YH": -1}
                sizes.append(len(rewrite._MEMO))
            assert oracle_star(m1, m2) == mono_star_mono(m1, m2)
        # it grew past the bound, and shrank on the next call
        assert sizes and all(before > 20 >= after for before, after in zip(sizes[::2], sizes[1::2]))

    def test_termination_on_long_words(self):
        rng = random.Random(23)
        for _ in range(300):
            word = "".join(rng.choice(ALPHABET) for _ in range(12))
            result = normalize(word)
            assert all(is_normal(w) for w in result)


class TestExtend:
    @settings(deadline=None)
    @given(words, words)
    def test_extending_a_normal_form_normalizes_the_joined_word(self, u, v):
        assert extend(normalize(u), v) == normalize(u + v)

    def test_leaves_its_input_alone(self):
        total = normalize("ZX")
        before = dict(total)
        extend(total, "YX")
        assert total == before


class TestToElement:
    def test_factorial_conversion(self):
        assert to_element({"XX": 1}) == Element({(2, 0, 0, 0): 2})

    def test_unit_factorials(self):
        assert to_element({"XYZH": 5}) == Element({(1, 1, 1, 1): 5})

    def test_zero_sum(self):
        assert to_element({}).terms == {}

    def test_rejects_non_normal_words(self):
        with pytest.raises(ValueError):
            to_element({"YX": 1})


class TestOracleStar:
    def test_defining_relation_yx(self):
        assert oracle_star((0, 1, 0, 0), (1, 0, 0, 0)) == Element(
            {(1, 1, 0, 0): 1, (1, 0, 0, 1): 2}
        )

    def test_worked_example(self):
        assert oracle_star((0, 0, 1, 0), (2, 0, 0, 0)) == Element(
            {(2, 0, 1, 0): 1, (1, 1, 0, 1): -1, (1, 0, 0, 2): -2}
        )

    def test_five_term_identity(self):
        assert oracle_star((0, 0, 2, 0), (2, 0, 0, 0)) == Element(
            {(2, 0, 2, 0): 1, (1, 1, 1, 1): -1, (1, 0, 1, 2): -4,
             (0, 2, 0, 2): 2, (0, 1, 0, 3): 3}
        )

    def test_division_by_input_factorials(self):
        # x^2/2! * x'^0...: oracle must divide out the 2! of the left factor
        result = oracle_star((2, 0, 0, 0), (1, 0, 0, 0))
        assert result == Element({(3, 0, 0, 0): 3})

    def test_word_of_monomial(self):
        assert word_of_monomial((2, 1, 0, 3)) == "XXYHHH"

    def test_oracle_coefficients_are_exact(self):
        for coeff in oracle_star((0, 0, 3, 0), (3, 0, 0, 0)).terms.values():
            assert Fraction(coeff).denominator == 1

    @settings(deadline=None, max_examples=80)
    @given(monomials, monomials)
    def test_equals_whole_word_rewriting_and_the_closed_formula(self, m1, m2):
        # the whole word m1 m2, rewritten from scratch, then divided by the
        # input factorials
        plain = to_element(reference_normalize(word_of_monomial(m1) + word_of_monomial(m2)))
        den = prod(map(factorial, (*m1, *m2)))
        whole = Element({mono: Fraction(v, den) for mono, v in plain.terms.items()})
        oracle = oracle_star(m1, m2)
        assert oracle == whole == mono_star_mono(m1, m2)
        assert all(type(v) is int for v in oracle.terms.values())

    @settings(deadline=None, max_examples=30)
    @given(st.tuples(*[st.integers(0, 5)] * 4), st.tuples(*[st.integers(0, 5)] * 4))
    def test_equals_whole_word_rewriting_up_to_five(self, m1, m2):
        # past the exponents of the sweeps; the costliest pair, with every
        # exponent 5, takes the reference about 0.4 s, and 30 examples 0.2-0.5 s
        plain = reference_normalize(word_of_monomial(m1) + word_of_monomial(m2))
        den = prod(map(factorial, (*m1, *m2)))
        assert oracle_star(m1, m2) == Element(
            {mono: Fraction(v, den) for mono, v in to_element(plain).terms.items()})

    @settings(deadline=None, max_examples=200)
    @given(st.tuples(*[st.integers(0, 2)] * 4), st.tuples(*[st.integers(0, 40)] * 4))
    def test_passive_exponents_only_shift_the_run(self, middle, passive):
        # a1, c2, d1 and d2 never enter the run's key; 200 examples with them
        # up to 40 take about 0.3 s
        (b1, c1, a2, b2), (a1, c2, d1, d2) = middle, passive
        m1, m2 = (a1, b1, c1, d1), (a2, b2, c2, d2)
        assert oracle_star(m1, m2) == mono_star_mono(m1, m2)

    def test_passive_exponents_past_five_against_whole_word_rewriting(self):
        # every passive exponent 8 or more, around the middle (2, 2, 2, 2);
        # the reference takes about 0.04 s on it
        m1, m2 = (8, 2, 2, 9), (2, 2, 8, 10)
        plain = reference_normalize(word_of_monomial(m1) + word_of_monomial(m2))
        den = prod(map(factorial, (*m1, *m2)))
        assert oracle_star(m1, m2) == Element(
            {mono: Fraction(v, den) for mono, v in to_element(plain).terms.items()})

    def test_run_memos_are_bounded(self, monkeypatch):
        # the run cache keeps the 2,048 runs it used last: enough for the
        # 1,296 keys (b1, c1, a2, b2) of exponents up to 5, so a verify sweep
        # at its bound pays once per key.  Under a bound of 8, the 81 keys of
        # exponents up to 2 cycle through it and each product stays right
        assert rewrite._run.cache_info().maxsize == 2048
        assert (cli.MAX_VERIFY_EXP + 1) ** 4 <= rewrite._run.cache_info().maxsize
        fresh_runs(monkeypatch, maxsize=8)
        monos = list(product(range(3), repeat=4))
        for m1, m2 in product(monos, repeat=2):
            assert oracle_star(m1, m2) == mono_star_mono(m1, m2)
        info = rewrite._run.cache_info()
        assert info.currsize == 8 < info.misses

    @pytest.mark.parametrize("slot", range(8))
    @pytest.mark.parametrize("bad", [-1, True, 1.0, Fraction(1), "1"])
    def test_checks_exponents_as_the_closed_formula_does(self, slot, bad):
        pair = [1] * 8
        pair[slot] = bad
        m1, m2 = tuple(pair[:4]), tuple(pair[4:])
        with pytest.raises((TypeError, ValueError)) as closed:
            mono_star_mono(m1, m2)
        with pytest.raises(type(closed.value)) as oracle:
            oracle_star(m1, m2)
        assert str(oracle.value) == str(closed.value)

    def test_a_remainder_stays_a_fraction(self, monkeypatch):
        # a wrong insertion, zx -> xz - 2yh, leaves the plain term -3xyh in
        # z x^2, and the 2! of x^2/2! does not divide it; the run memos start
        # empty, so the runs are filled through the wrong insertion
        monkeypatch.setattr(rewrite, "_MEMO", {("Z", "X"): {"XZ": 1, "YH": -2}})
        fresh_runs(monkeypatch)
        result = oracle_star((0, 0, 1, 0), (2, 0, 0, 0))
        assert result.terms == {(2, 0, 1, 0): 1, (1, 1, 0, 1): Fraction(-3, 2),
                                (1, 0, 0, 2): -4}
        assert type(result.coefficient((1, 1, 0, 1))) is Fraction
