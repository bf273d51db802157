"""Acceptance criteria: one test per criterion, exact tolerances throughout.

Each test prints a single ``ACCEPTANCE n PASS/FAIL`` line (run with ``-s`` to
see them live).  Runtime budgets stated alongside a criterion are asserted.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct
from math import factorial
from time import perf_counter

import pytest

from uhsl2.algebra import (
    Element,
    NormalMonomial,
    _mono_product,
    _mono_star,
    exp_series,
    mono_star_mono,
    normal_order_yx,
    normal_order_zx,
    normal_order_zy,
    star,
)
from uhsl2.combinatorics import falling_factorial, shifted_elem, vam3_lhs, vam3_rhs
from uhsl2.rewrite import oracle_star
from uhsl2.species import (
    DividedPower,
    Singleton,
    ascending_maps_count,
    size_tuples,
    species_element,
    star_species,
)

Z_XX_EXAMPLE = Element({(2, 0, 1, 0): 1, (1, 1, 0, 1): -1, (1, 0, 0, 2): -2})
FIVE_TERM = Element(
    {(2, 0, 2, 0): 1, (1, 1, 1, 1): -1, (1, 0, 1, 2): -4, (0, 2, 0, 2): 2, (0, 1, 0, 3): 3}
)


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = perf_counter()
    elapsed = None
    try:
        yield
        elapsed = perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"runtime {elapsed:.4f}s exceeds budget {budget}s"
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {name} ({elapsed:.4f}s)")


def test_criterion_1_defining_relations():
    x, y, z = (Element.monomial(m) for m in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    expected = {
        "yx": Element({(1, 1, 0, 0): 1, (1, 0, 0, 1): 2}),
        "zx": Element({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1}),
        "zy": Element({(0, 1, 1, 0): 1, (0, 0, 1, 1): 2}),
    }
    _mono_star.cache_clear()
    with criterion(1, "defining relations via star on singletons", budget=0.001):
        assert star(y, x) == expected["yx"]
        assert star(z, x) == expected["zx"]
        assert star(z, y) == expected["zy"]


def test_criterion_2_worked_example_three_paths():
    with criterion(2, "z * x^2/2! worked example, three paths", budget=0.010):
        assert mono_star_mono((0, 0, 1, 0), (2, 0, 0, 0)) == Z_XX_EXAMPLE
        assert oracle_star((0, 0, 1, 0), (2, 0, 0, 0)) == Z_XX_EXAMPLE
        assert species_element(Singleton("z"), DividedPower(2, 0, 0, 0), 3) == Z_XX_EXAMPLE


def test_criterion_3_five_term_identity_three_paths():
    with criterion(3, "z^2/2! * x^2/2! five-term identity, three paths", budget=0.100):
        assert mono_star_mono((0, 0, 2, 0), (2, 0, 0, 0)) == FIVE_TERM
        assert oracle_star((0, 0, 2, 0), (2, 0, 0, 0)) == FIVE_TERM
        assert (
            species_element(DividedPower(0, 0, 2, 0), DividedPower(2, 0, 0, 0), 4)
            == FIVE_TERM
        )


@pytest.fixture(scope="module")
def oracle_sweep():
    """Shared sweep for criteria 4 and 6: 4096 monomial pairs, both paths."""
    monos = [(a, b, c, 0) for a in range(4) for b in range(4) for c in range(4)]
    mismatches = []
    nonintegral = []
    start = perf_counter()
    for m1 in monos:
        for m2 in monos:
            closed = mono_star_mono(m1, m2)
            oracle = oracle_star(m1, m2)
            if closed != oracle:
                mismatches.append((m1, m2))
            for coeff in closed.terms.values():
                if Fraction(coeff).denominator != 1:
                    nonintegral.append((m1, m2, coeff))
            for coeff in oracle.terms.values():
                if Fraction(coeff).denominator != 1:
                    nonintegral.append((m1, m2, coeff))
    elapsed = perf_counter() - start
    return {
        "pairs": len(monos) ** 2,
        "mismatches": mismatches,
        "nonintegral": nonintegral,
        "elapsed": elapsed,
    }


def test_criterion_4_oracle_equivalence_sweep(oracle_sweep):
    label = (
        "closed formula = rewrite oracle on 4096 pairs "
        f"(sweep took {oracle_sweep['elapsed']:.2f}s)"
    )
    with criterion(4, label):
        assert oracle_sweep["pairs"] == 4096
        assert oracle_sweep["mismatches"] == []
        assert oracle_sweep["elapsed"] < 60.0, oracle_sweep["elapsed"]


def test_criterion_5_species_equivalence_sweep():
    specs = [
        DividedPower(a, b, c, d)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
    ]
    sizes = list(size_tuples(6))
    with criterion(5, "species counts = closed formula, exponents <= 2, total <= 6",
                   budget=15.0):
        checked = 0
        for F in specs:
            for G in specs:
                series = mono_star_mono(F.exponents, G.exponents)
                for s in sizes:
                    assert star_species(F, G, s) == series.coefficient(s), (F, G, s)
                    checked += 1
        assert checked == len(specs) ** 2 * len(sizes)


def test_criterion_6_integrality(oracle_sweep):
    with criterion(6, "all structural coefficients in the sweep are integers"):
        assert oracle_sweep["nonintegral"] == []


def test_criterion_7_associativity_randomized():
    monos = [
        m
        for m in iproduct(range(4), repeat=4)
        if sum(m) <= 3
    ]
    rng = random.Random(1729)

    def draw():
        return Element(
            {rng.choice(monos): rng.randint(-6, 6) for _ in range(rng.randint(1, 5))}
        )

    with criterion(7, "associativity on 100 randomized triples, deg <= 3"):
        for _ in range(100):
            f, g, e = draw(), draw(), draw()
            assert star(star(f, g), e) == star(f, star(g, e))


def test_criterion_8_grading():
    monos = [NormalMonomial(*m) for m in iproduct(range(8), repeat=4) if sum(m) <= 7]
    with criterion(8, "graded product: output degree equals summed degree, deg <= 7"):
        for m1 in monos:
            for m2 in monos:
                expected = m1.degree + m2.degree
                for mono in _mono_product(m1, m2):
                    assert mono.degree == expected, (m1, m2, mono)


def test_criterion_9_product_expansion_identity():
    with criterion(9, "shifted product expansion, a in -4..8, n in 0..6"):
        for a in range(-4, 9):
            for n in range(7):
                assert vam3_lhs(a, n) == vam3_rhs(a, n)


def test_criterion_10_symbol_identities():
    with criterion(10, "symbol identities: cubic, recursion, boundary, tableaux"):
        for a in range(11):
            assert shifted_elem(a, 3, 4) == 4 * a**3 + 18 * a**2 + 22 * a + 6
        for a in range(-5, 11):
            for n in range(8):
                assert shifted_elem(a, 0, n) == 1
                for s in range(n + 1, 9):
                    assert shifted_elem(a, s, n) == 0
                for s in range(1, n + 1):
                    assert shifted_elem(a, s, n) == (
                        shifted_elem(a, s, n - 1)
                        + (a + n - 1) * shifted_elem(a, s - 1, n - 1)
                    )
        for a in range(7):
            for s in range(7):
                for n in range(7):
                    assert ascending_maps_count(a, n, s) == shifted_elem(a, s, n)


# commutative-series scaffolding for criterion 11 -------------------------

def ser_mul(s1, s2, cap):
    out = {}
    for m1, c1 in s1.items():
        for m2, c2 in s2.items():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            if sum(mono) > cap:
                continue
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def ser_exp(s, cap):
    assert s.get((0, 0, 0, 0), 0) == 0, "exp needs zero constant term"
    out = {(0, 0, 0, 0): Fraction(1)}
    power = {(0, 0, 0, 0): Fraction(1)}
    for k in range(1, cap + 1):
        power = ser_mul(power, s, cap)
        if not power:
            break
        for mono, coeff in power.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff / factorial(k)
    return out


def ser_to_element(s, cap) -> Element:
    terms = {}
    for mono, coeff in s.items():
        if sum(mono) <= cap:
            scale = 1
            for e in mono:
                scale *= factorial(e)
            terms[mono] = coeff * scale
    return Element(terms)


def test_criterion_11_exponential_identities():
    cap = 4
    x_ser = {(1, 0, 0, 0): Fraction(1)}
    y_ser = {(0, 1, 0, 0): Fraction(1)}
    z_ser = {(0, 0, 1, 0): Fraction(1)}
    h2_ser = {(0, 0, 0, 1): Fraction(2)}

    with criterion(11, "exponential identities through total degree 4", budget=10.0):
        # e^y * e^x = e^(x e^(2h)) e^y
        lhs = star(exp_series("y", cap), exp_series("x", cap))
        x_e2h = ser_mul(x_ser, ser_exp(h2_ser, cap), cap)
        rhs = ser_to_element(ser_mul(ser_exp(x_e2h, cap), ser_exp(y_ser, cap), cap), cap)
        assert lhs == rhs

        # e^z * e^y = e^y e^(z e^(2h))   (the x-free analogue)
        lhs = star(exp_series("z", cap), exp_series("y", cap))
        z_e2h = ser_mul(z_ser, ser_exp(h2_ser, cap), cap)
        rhs = ser_to_element(ser_mul(ser_exp(y_ser, cap), ser_exp(z_e2h, cap), cap), cap)
        assert lhs == rhs

        # e^z * e^x = signed double sum with the shifted symbol
        lhs = star(exp_series("z", cap), exp_series("x", cap))
        terms = {}
        for a in range(cap + 1):
            for c in range(cap + 1):
                for v in range(cap + 1):
                    for w in range(v + 1):
                        mono = (a, v - w, c, v + w)
                        if sum(mono) > cap:
                            continue
                        coeff = (
                            (-1) ** v
                            * factorial(v - w)
                            * falling_factorial(v + w, w)
                            * shifted_elem(a + c, w, v)
                        )
                        if coeff:
                            terms[mono] = terms.get(mono, 0) + coeff
        assert lhs == Element(terms)


def test_criterion_12_normal_ordering_specializations():
    with criterion(12, "star specializes to the three normal-ordering sums, a,b <= 5"):
        for a in range(6):
            for b in range(6):
                za = Element.monomial((0, 0, a, 0))
                ya = Element.monomial((0, a, 0, 0))
                yb = Element.monomial((0, b, 0, 0))
                xb = Element.monomial((b, 0, 0, 0))
                assert star(za, yb) == normal_order_zy(a, b)
                assert star(ya, xb) == normal_order_yx(a, b)
                assert star(za, xb) == normal_order_zx(a, b)


def test_criterion_13_dense_product_budget():
    # every monomial of degree <= 6 in x, y, z, h, with Fraction coefficients:
    # 44,100 monomial pairs in 28 x 28 pairs of groups, so 784 middles
    rng = random.Random(13)
    monos = [m for m in iproduct(range(7), repeat=4) if sum(m) <= 6]
    f = Element({m: Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 32)) for m in monos})
    _mono_star.cache_clear()
    with criterion(13, "dense square of the 210 monomials of degree <= 6, cold", budget=0.5):
        product = star(f, f)
        assert len(f.terms) == 210 and len(product.terms) == 1820
        assert all(type(v) is Fraction for v in product.terms.values())
