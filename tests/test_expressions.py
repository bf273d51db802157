"""Tests for the expression grammar, printer, evaluator, and serialization."""

from __future__ import annotations

import copy
import pickle
import random
import sys
import tracemalloc
import unicodedata
from fractions import Fraction
from functools import reduce
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_formula import reference_star
from reference_tokenize import reference_parse, reference_tokenize
from uhsl2 import algebra
from uhsl2.algebra import UNIT, Element
from uhsl2.expressions import (
    DividedMono,
    EvalError,
    Exp,
    Expression,
    Generator,
    Literal,
    Negate,
    MAX_CAP,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_PAIR_EXPONENTS,
    MAX_PAIRS,
    ParseError,
    StarProduct,
    Sum,
    _tokenize,
    evaluate,
    parse,
    to_text,
)
from uhsl2.serialize import (
    element_from_json,
    element_to_json,
    pretty,
)


class TestParse:
    def test_star_of_generators(self):
        assert parse("y * x") == StarProduct((Generator("y"), Generator("x")))

    def test_divided_monomials(self):
        assert parse("m(0,0,2,0) * m(2,0,0,0)") == StarProduct(
            (DividedMono(0, 0, 2, 0), DividedMono(2, 0, 0, 0))
        )

    def test_scaled_sum(self):
        assert parse("2 * m(1,0,0,0) + -1 * h") == Sum((
            StarProduct((Literal(Fraction(2)), DividedMono(1, 0, 0, 0))),
            StarProduct((Negate(Literal(Fraction(1))), Generator("h"))),
        ))

    def test_binary_minus_wraps_negate(self):
        assert parse("x - y") == Sum((Generator("x"), Negate(Generator("y"))))

    def test_fraction_literal(self):
        assert parse("3/2") == Literal(Fraction(3, 2))

    def test_parens(self):
        assert parse("(x + y) * z") == StarProduct(
            (Sum((Generator("x"), Generator("y"))), Generator("z"))
        )

    def test_exp_node(self):
        assert parse("exp(z) * exp(x)") == StarProduct((Exp("z"), Exp("x")))

    def test_left_associativity(self):
        x, y, z = (Generator(c) for c in "xyz")
        assert parse("x * y * z") == StarProduct((x, y, z))
        assert parse("x + y + z") == Sum((x, y, z))
        assert parse("x - y + z") == Sum((x, Negate(y), z))

    def test_parens_keep_their_grouping(self):
        x, y, z = (Generator(c) for c in "xyz")
        assert parse("(x * y) * z") == StarProduct((StarProduct((x, y)), z))
        assert parse("x * (y * z)") == StarProduct((x, StarProduct((y, z))))
        assert parse("(x + y) + z") == Sum((Sum((x, y)), z))
        assert parse("(x * y) * z") != parse("x * y * z")

    @pytest.mark.parametrize(
        "text",
        ["y * (", "q", "m(1,2)", "exp(w)", "1/0", "x y", "", "m(1,2,3,4,5)", "2 *"],
    )
    def test_syntax_errors_carry_positions(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position >= 0

    @pytest.mark.parametrize("template, at, tree", [
        ("{} * x", 0, lambda n: StarProduct((Literal(n), Generator("x")))),
        ("2/{}", 2, lambda n: Literal(Fraction(2, n))),
        ("m({},0,0,0)", 2, lambda n: DividedMono(n, 0, 0, 0)),
        ("m(0,0,0,{})", 8, lambda n: DividedMono(0, 0, 0, n)),
    ])
    def test_number_digit_bound(self, template, at, tree):
        # int() would refuse a number of more than 4,300 digits; the parser
        # refuses one above its own bound first
        digits = "7" * MAX_LITERAL_DIGITS
        assert parse(template.format(digits)) == tree(int(digits))
        with pytest.raises(ParseError) as err:
            parse(template.format(digits + "7"))
        assert str(err.value) == (f"a number has more than {MAX_LITERAL_DIGITS} digits "
                                  f"(at position {at})")

    def test_nesting_up_to_the_bound_evaluates(self):
        n = MAX_NESTING
        assert evaluate(parse("(" * n + "x" + ")" * n)) == evaluate(parse("x"))
        assert evaluate(parse("-" * n + "x")) == evaluate(parse("x"))
        power = evaluate(parse("(x * " * (n - 1) + "x" + ")" * (n - 1)))
        assert power == Element.monomial((n, 0, 0, 0), factorial(n))

    @pytest.mark.parametrize("text", [
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "-" * (MAX_NESTING + 1) + "x",
        "(-" * 1500 + "x" + ")" * 1500,
        "(" * 3000 + "x" + ")" * 3000,
    ])
    def test_deeper_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse(text)
        assert err.value.position < 2 * (MAX_NESTING + 1)


expressions = st.deferred(
    lambda: st.one_of(
        st.builds(Literal, st.fractions(max_denominator=9).map(abs)),
        st.sampled_from("xyzh").map(Generator),
        st.builds(DividedMono, *(st.integers(0, 3) for _ in range(4))),
        st.sampled_from("xyzh").map(Exp),
        st.builds(Sum, st.lists(expressions, min_size=2, max_size=3).map(tuple)),
        st.builds(StarProduct, st.lists(expressions, min_size=2, max_size=3).map(tuple)),
        st.builds(Negate, expressions),
    )
)


class TestRoundTrip:
    @settings(max_examples=150)
    @given(expressions)
    def test_print_then_parse_is_identity(self, node):
        assert parse(to_text(node)) == node

    @pytest.mark.parametrize(
        "text",
        [
            "y * x",
            "2 * m(1,0,0,0) + -1 * h",
            "(x + y) * (z - h)",
            "x - -y",
            "3/2 * exp(x)",
            "m(1,2,3,4) * m(0,0,0,0) - 7",
        ],
    )
    def test_reparse_of_printed_text(self, text):
        first = parse(text)
        assert parse(to_text(first)) == first

    @pytest.mark.parametrize("operator", [" + ", " * ", " - "])
    def test_long_flat_chains(self, operator):
        # 1,500 operands: deeper than the recursion limit if each operator
        # were its own node
        node = parse(operator.join(["x"] * 1500))
        assert parse(to_text(node)) == node

    @pytest.mark.parametrize("opener", ["x + x * (", "x + (", "x - (", "x * ("])
    def test_nesting_up_to_the_bound_prints_and_evaluates(self, opener):
        n = MAX_NESTING
        node = parse(opener * n + "x" + ")" * n)
        printed = to_text(node)
        assert printed == (opener * n + "x" + ")" * n).replace("(x)", "x")
        assert parse(printed) == node
        assert to_text(parse(printed)) == printed
        powers = [Element.monomial((k, 0, 0, 0), factorial(k)) for k in range(1, n + 2)]
        expected = {
            "x + x * (": sum(powers, Element.zero()),
            "x + (": (n + 1) * powers[0],
            "x - (": (n + 1) % 2 * powers[0],
            "x * (": powers[-1],
        }[opener]
        assert evaluate(node) == expected

    @pytest.mark.parametrize("node_type", [Sum, StarProduct])
    @pytest.mark.parametrize("operands", [(), (Generator("x"),)])
    def test_nary_nodes_need_two_operands(self, node_type, operands):
        with pytest.raises(ValueError, match="two or more"):
            node_type(operands)


# three kinds of leaf and at most six leaves, so that two drawn trees are
# often equal
def _branches(inner):
    return st.one_of(
        st.builds(Sum, st.tuples(inner, inner)),
        st.builds(StarProduct, st.tuples(inner, inner)),
        st.builds(Negate, inner),
    )


few_leaves = st.recursive(
    st.sampled_from([Generator("x"), Generator("y"), Literal(Fraction(1))]),
    _branches,
    max_leaves=6,
)


class TestTreeEquality:
    def test_deep_trees_compare_and_hash(self):
        # the dataclass __eq__ recursed per level and raised RecursionError here
        text = "x + x * (" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse(text) == parse(text)
        assert hash(parse(text)) == hash(parse(text))
        assert parse(text) != parse(text.replace("x)", "y)", 1))

    def test_repr_is_the_dataclass_text(self):
        assert repr(parse("-x + 3/4 * exp(z)")) == (
            "Sum(terms=(Negate(operand=Generator(color='x')), "
            "StarProduct(factors=(Literal(value=Fraction(3, 4)), Exp(color='z')))))"
        )
        assert repr(parse("m(0,0,2,0) * y")) == (
            "StarProduct(factors=(DividedMono(a=0, b=0, c=2, d=0), Generator(color='y')))"
        )

    def test_deep_trees_print_their_repr(self):
        # the dataclass __repr__ recursed per level and raised RecursionError here
        text = "x + x * (" * MAX_NESTING + "x" + ")" * MAX_NESTING
        printed = repr(parse(text))
        inner = "Sum(terms=(Generator(color='x'), StarProduct(factors=(Generator(color='x'), "
        assert printed == inner * MAX_NESTING + "Generator(color='x')" + "))))" * MAX_NESTING

    def test_same_answers_as_field_comparison(self):
        assert Literal(Fraction(-1)) != Negate(Literal(Fraction(1)))
        assert Generator("x") != Exp("x")
        assert parse("(x * y) * z") != parse("x * y * z")
        assert parse("x + y") != parse("y + x")
        assert parse("x + y") != parse("x + y + x")
        assert Literal(Fraction(2)) == Literal(2)
        assert hash(Literal(Fraction(2))) == hash(Literal(2))
        assert Generator("x") != "x"

    @settings(max_examples=300)
    @given(few_leaves, few_leaves)
    def test_equality_agrees_with_repr(self, a, b):
        # on trees of Fraction literals, the dataclass repr spells out every
        # class and field, so equal reprs mean equal trees and back
        assert (a == b) == (repr(a) == repr(b))
        assert (a != b) == (repr(a) != repr(b))
        if a == b:
            assert hash(a) == hash(b)


def _with_recursion_limit(limit, check):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        check()
    finally:
        sys.setrecursionlimit(old)


def _nested(kind, depth, leaf):
    node = leaf
    for _ in range(depth):
        node = Negate(node) if kind is Negate else kind((node, Generator("y")))
    return node


class TestConstructedTrees:
    """Trees deeper than parse allows, built with the constructors."""

    @pytest.mark.parametrize("kind, depth", [(Negate, 20_000), (Sum, 5_000), (StarProduct, 5_000)])
    def test_deep_trees_compare_hash_and_print(self, kind, depth):
        a, b = _nested(kind, depth, Generator("x")), _nested(kind, depth, Generator("x"))
        other = _nested(kind, depth, Exp("x"))
        if kind is Negate:
            text = "Negate(operand=" * depth + "Generator(color='x')" + ")" * depth
        else:
            field = kind._fields[0]
            text = (f"{kind.__name__}({field}=(" * depth + "Generator(color='x')"
                    + ", Generator(color='y')))" * depth)

        def check():
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert a != other
            assert repr(a) == text
            assert repr(other) == text.replace("Generator(color='x')", "Exp(color='x')")

        _with_recursion_limit(200, check)

    def test_classes_differ_inside_equal_fields(self):
        y = Generator("y")
        assert Sum((Generator("x"), y)) != Sum((Exp("x"), y))
        assert StarProduct((y, Literal(Fraction(-1)))) != StarProduct((y, Negate(Literal(1))))
        assert Negate(Negate(Generator("z"))) != Negate(Negate(Exp("z")))

    def test_classes_compare_by_identity_not_name(self):
        # a class of the same qualname prints the same text, but is not equal
        Twin = type("Generator", (Generator,), {"__slots__": ()})
        y = Generator("y")
        twin = Sum((Twin("x"), y))
        assert repr(twin) == repr(Sum((Generator("x"), y)))
        assert twin != Sum((Generator("x"), y))
        assert twin == Sum((Twin("x"), y))

    def test_inner_leaves_compare_by_value(self):
        y = Generator("y")
        assert Sum((Literal(Fraction(2)), y)) == Sum((Literal(2), y))
        assert hash(Sum((Literal(Fraction(2)), y))) == hash(Sum((Literal(2), y)))
        assert Sum((Literal(Fraction(2)), y)) != Sum((Literal(Fraction(1, 2)), y))


_x, _y = Generator("x"), Generator("y")

# one node of each class with its fields by name
NODES = [
    (Literal(Fraction(3, 4)), {"value": Fraction(3, 4)}),
    (Generator("x"), {"color": "x"}),
    (DividedMono(1, 2, 3, 4), {"a": 1, "b": 2, "c": 3, "d": 4}),
    (Exp("z"), {"color": "z"}),
    (Sum((_x, _y)), {"terms": (_x, _y)}),
    (StarProduct((_x, _y)), {"factors": (_x, _y)}),
    (Negate(_x), {"operand": _x}),
]


@pytest.mark.parametrize("node, fields", NODES, ids=[type(n).__name__ for n, _ in NODES])
class TestNodeContract:
    def test_nodes_are_immutable(self, node, fields):
        for name in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(node, name, Generator("h"))
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert {name: getattr(node, name) for name in fields} == fields

    def test_keywords_construct_the_same_node(self, node, fields):
        by_keyword = type(node)(**fields)
        assert by_keyword == node
        assert hash(by_keyword) == hash(node)
        assert repr(by_keyword) == repr(node)

    def test_copies_are_equal(self, node, fields):
        assert copy.copy(node) == node
        assert copy.deepcopy(node) == node
        assert pickle.loads(pickle.dumps(node)) == node


class TestEvaluate:
    def test_worked_example(self):
        result = evaluate(parse("z * m(2,0,0,0)"), 8)
        assert result == Element(
            {(2, 0, 1, 0): 1, (1, 1, 0, 1): -1, (1, 0, 0, 2): -2}
        )

    def test_normal_order_product(self):
        assert evaluate(parse("x * y"), 8) == Element({(1, 1, 0, 0): 1})

    def test_sum_with_scalars(self):
        result = evaluate(parse("2 * m(1,0,0,0) + -1 * h"))
        assert result == Element({(1, 0, 0, 0): 2, (0, 0, 0, 1): -1})

    def test_exp_requires_cap(self):
        with pytest.raises(EvalError):
            evaluate(parse("exp(x)"))

    def test_exp_product_truncation(self):
        result = evaluate(parse("exp(z) * exp(x)"), 3)
        assert result.cap == 3
        assert all(m.degree <= 3 for m in result.terms)
        # degree-2 slice reproduces z * x normal ordering
        assert result.coefficient((1, 0, 1, 0)) == 1
        assert result.coefficient((0, 1, 0, 1)) == -1

    def test_scalar_mul_node(self):
        # a scalar factor is a star product with a constant, not its own node
        node = parse("1/2 * m(2,0,0,0)")
        assert node == StarProduct((Literal(Fraction(1, 2)), DividedMono(2, 0, 0, 0)))
        assert evaluate(node) == Element({(2, 0, 0, 0): Fraction(1, 2)})

    def test_cap_budget(self):
        assert evaluate(parse("exp(x)"), MAX_CAP).coefficient((MAX_CAP, 0, 0, 0)) == 1
        with pytest.raises(EvalError, match="at most"):
            evaluate(parse("x"), MAX_CAP + 1)

    def test_pair_budget_counts_every_product(self, monkeypatch):
        # (x + y) * (x + y) expands 2 * 2 pairs into x x + x y + 2 x h + y y,
        # 4 terms, so a further factor x brings the call to 8
        monkeypatch.setattr("uhsl2.expressions.MAX_PAIRS", 4)
        assert len(evaluate(parse("(x + y) * (x + y)")).terms) == 4
        with pytest.raises(EvalError, match="more than 4 monomial pairs"):
            evaluate(parse("(x + y) * (x + y) * x"))
        with pytest.raises(EvalError, match="more than 4 monomial pairs"):
            evaluate(parse("(x + y) * (x + y) + (x + y) * x"))

    def test_pair_bound_at_and_above(self):
        # b1 + c1 + d1 of the left and a2 + b2 + d2 of the right count; a1
        # and c2 enter only binomials and do not
        at = MAX_PAIR_EXPONENTS // 2
        assert evaluate(parse(f"m(9,{at},0,0) * m(0,{at},9,0)")) == Element(
            {(9, 2 * at, 9, 0): comb(2 * at, at)})
        for text in (f"m(0,{at},1,0) * m(0,{at},0,0)",
                     f"m(0,{at},0,0) * m(0,{at},0,1)",
                     f"(x + m(0,{at},0,0)) * (y + m({at + 1},0,0,0))"):
            with pytest.raises(EvalError, match=f"sum to {2 * at + 1}, more than"):
                evaluate(parse(text))

    @pytest.mark.parametrize("cap", [True, 1.5, "2"])
    def test_cap_that_is_not_an_int_is_type_error(self, cap):
        for text in ("x * y", "exp(x)", "1 + h"):
            with pytest.raises(TypeError):
                evaluate(parse(text), cap)

    def test_exp_inside_sum_requires_cap(self):
        with pytest.raises(EvalError):
            evaluate(parse("x + exp(h)"))
        assert evaluate(parse("x + h")) == Element({(1, 0, 0, 0): 1, (0, 0, 0, 1): 1})


class TestSerialize:
    def test_json_round_trip(self):
        element = Element(
            {(1, 0, 0, 0): Fraction(2, 3), (0, 1, 0, 2): -5}, cap=4
        )
        back = element_from_json(element_to_json(element))
        assert back == element
        assert back.cap == 4

    def test_json_deterministic_and_sorted(self):
        a = Element({(0, 1, 0, 0): 1, (1, 0, 0, 0): 2})
        b = Element({(1, 0, 0, 0): 2, (0, 1, 0, 0): 1})
        assert element_to_json(a) == element_to_json(b)
        text = element_to_json(a)
        assert text.index('[0, 1, 0, 0]') < text.index('[1, 0, 0, 0]')

    def test_json_survives_big_integers(self):
        big = 10**40 + 7
        element = Element({(2, 0, 0, 0): Fraction(big, 3)})
        assert element_from_json(element_to_json(element)) == element

    @pytest.mark.parametrize(
        "text, cap",
        [
            ("z * m(2,0,0,0)", 8),
            ("exp(z) * exp(x)", 3),
            ("2 * m(1,0,0,0) + -1 * h", None),
            ("(x + y) * (z - h) * 1/3", None),
        ],
    )
    def test_evaluated_elements_round_trip(self, text, cap):
        element = evaluate(parse(text), cap)
        back = element_from_json(element_to_json(element))
        assert back == element
        assert back.cap == element.cap

    @pytest.mark.parametrize(
        "text",
        [
            '{"cap": null, "terms": [{"m": [1, 0, 0], "num": "1", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "1", "den": "0"}]}',
            '{"cap": null}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "x", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": 1.5, "den": "1"}]}',
            '{"cap": null, "terms": [{"m": ["1", 0, 0, 0], "num": "1", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": 1, "num": "1", "den": "1"}]}',
            '{"cap": null, "terms": ["m"]}',
            '{"cap": null, "terms": {}}',
            '{"cap": "2", "terms": []}',
            '[]',
            # int() reads each of these, but element_to_json never writes them
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "1_000", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "\u0663", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": " 7 ", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "+5", "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "1", "den": "-4"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": 5, "den": "1"}]}',
            '{"cap": null, "terms": [{"m": [1, 0, 0, 0], "num": "1", "den": "1"}, '
            '{"m": [1, 0, 0, 0], "num": "2", "den": "1"}]}',
            '{"cap": 1, "terms": [{"m": [1, 1, 0, 0], "num": "1", "den": "1"}]}',
        ],
        ids=["three-exponents", "zero-den", "missing-terms", "missing-num",
             "non-numeric-num", "float-num", "string-exponent", "scalar-m",
             "string-entry", "terms-not-list", "string-cap", "not-an-object",
             "underscore-num", "arabic-indic-num", "padded-num", "plus-num",
             "negative-den", "int-num", "repeated-m", "above-cap"],
    )
    def test_malformed_json_is_value_error(self, text):
        with pytest.raises(ValueError):
            element_from_json(text)

    def test_pretty_worked_example(self):
        element = Element({(2, 0, 1, 0): 1, (1, 1, 0, 1): -1, (1, 0, 0, 2): -2})
        assert pretty(element) == "-2 x h^2 / (2!) - x y h + x^2 z / (2!)"

    def test_pretty_zero_and_unit(self):
        assert pretty(Element({})) == "0"
        assert pretty(Element.unit()) == "1"
        assert pretty(Element({(0, 0, 0, 0): Fraction(3, 2)})) == "3/2"


def _outcome(parse_text, text):
    """The tree a parser gives for text, or the text of its ParseError."""
    try:
        return parse_text(text)
    except ParseError as err:
        return f"ParseError: {err}"


# the characters whose first code point stands for all code points of the same
# Unicode category and the same answers to these str predicates; every one of
# the first 256 code points also stands for itself
_PREDICATES = (str.isspace, str.isalpha, str.isdigit, str.isnumeric, str.isidentifier)


class TestTokenizerParity:
    """parse checks every character before it reads a token, so it reports
    the same first error as tokenizing the whole text and then parsing."""

    def test_every_code_point(self):
        # parse reports only the first rejected character, and one call per
        # rejected code point would cost seconds; so every accepted code point
        # is checked in bulk, and the rejected ones by the characters standing
        # for their class
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        keys = zip(map(unicodedata.category, every), *(map(p, every) for p in _PREDICATES))
        stand_ins = set(dict(zip(keys, every)).values()) | set(every[:256])
        for ch in stand_ins:
            for text in (ch, "x y " + ch):
                assert _outcome(parse, text) == _outcome(reference_parse, text)
        accepted = "".join(ch for ch in every if ch.isspace() or ch.isalpha())
        assert _outcome(parse, "x y " + accepted) == _outcome(reference_parse, "x y " + accepted)
        assert _outcome(parse, "x y " + accepted) == "ParseError: unexpected 'y' (at position 2)"
        spaced = " ".join(accepted)
        assert list(_tokenize(spaced)) == reference_tokenize(spaced)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from([
        "x", "y", "z", "h", "m", "exp", "q", "(", ")", "+", "-", "*", "/", ",",
        "0", "7", "12", " ", "\u00a0", "\u2003", "\u00e9", "\u0663", "\u00b2", "\u00bd", "_",
    ]), max_size=24).map("".join))
    def test_same_tree_or_first_error(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)


def _tree_of(f: Element) -> Expression:
    """A tree that evaluates to f under f's cap, with f's coefficient types:
    an integral Fraction v is written as (v - 1/2) + 1/2."""
    terms = []
    for (a, b, c, d), v in f.terms.items():
        half = Fraction(1, 2)
        parts = [v - half, half] if type(v) is Fraction and v.denominator == 1 else [v]
        terms += [StarProduct((Literal(part), DividedMono(a, b, c, d))) for part in parts]
    return Sum(tuple(terms)) if len(terms) > 1 else terms[0]


_EXPONENTS_TO_2 = [(a, b, c, d) for a in range(3) for b in range(3) for c in range(3)
                   for d in range(3)]


def _random_element(rng, cap):
    """One to four terms with nonzero int, Fraction or integral-Fraction
    coefficients, on monomials of exponents at most 2 and within the cap."""
    def nonzero():
        return rng.choice([-1, 1]) * rng.randint(1, 6)

    coefficients = [nonzero, lambda: Fraction(nonzero(), rng.randint(2, 4)),
                    lambda: Fraction(nonzero())]
    kinds = rng.sample(coefficients, rng.randint(1, 3))
    monos = [m for m in _EXPONENTS_TO_2 if cap is None or sum(m) <= cap]
    return Element({rng.choice(monos): rng.choice(kinds)() for _ in range(rng.randint(1, 4))},
                   cap)


def _typed(f: Element) -> dict:
    return {mono: (type(v), v) for mono, v in f.terms.items()}


class TestScalarFactors:
    """evaluate multiplies a scalar factor through star, as any other factor:
    it must give the product of the evaluated factors, with the same terms and
    cap as ``reference_star`` and star's coefficient types."""

    SCALARS = [1, -1, 3, -2, Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3),
               Fraction(4, 2)]

    @pytest.mark.parametrize("cap", [None, *range(MAX_CAP + 1)])
    def test_products_with_a_scalar_are_star_products(self, cap):
        rng = random.Random(cap)
        for _ in range(12):
            f, g = _random_element(rng, cap), _random_element(rng, cap)
            assert _typed(evaluate(_tree_of(f), cap)) == _typed(f)
            scalar = rng.choice(self.SCALARS)
            c = Literal(scalar)
            unit = Element({UNIT: scalar}, cap)
            for factors, elements in [
                ((c, _tree_of(f)), (unit, f)),
                ((_tree_of(f), c), (f, unit)),
                ((c, _tree_of(f), _tree_of(g)), (unit, f, g)),
                ((_tree_of(f), c, _tree_of(g)), (f, unit, g)),
                ((_tree_of(f), _tree_of(g), c), (f, g, unit)),
                ((c, Literal(rng.choice(self.SCALARS))), None),
            ]:
                if elements is None:
                    elements = [evaluate(node, cap) for node in factors]
                got = evaluate(StarProduct(factors), cap)
                expected = reduce(self.typed_reference, elements)
                assert _typed(got) == _typed(expected)
                assert got.cap == expected.cap == cap

    @staticmethod
    def typed_reference(f, g):
        # star's coefficient types: ints exactly when both factors' are integral
        product = reference_star(f, g)
        integral = all(v.denominator == 1 for v in (*f.terms.values(), *g.terms.values()))
        kind = int if integral else Fraction
        return Element({m: kind(v) for m, v in product.terms.items()}, product.cap)

    def test_an_integral_scalar_gives_ints(self):
        # star gives 2 here, an int, as Element.scale and 4/2 * f do
        for text in ("2 * m(1,0,0,0)", "m(1,0,0,0) * 2", "4/2 * x * y"):
            assert all(type(v) is int for v in evaluate(parse(text)).terms.values())
        assert _typed(evaluate(parse("1/2 * (x + 2 * y)"))) == {
            (1, 0, 0, 0): (Fraction, Fraction(1, 2)), (0, 1, 0, 0): (Fraction, Fraction(1))}

    @pytest.mark.parametrize("text", ["3 * (x + y) * (x + h)", "(x + y) * 3 * (x + h)",
                                      "(x + y) * (x + h) * 3", "2 * 3 * (x + y)"])
    def test_pair_budget_refuses_at_the_same_product(self, monkeypatch, text):
        # each product counts its pairs before it runs, scalar or not: with the
        # budget one short of a product's running total, the refusal comes
        # after exactly the products before it have passed their checks
        node = parse(text)
        sizes = [len(evaluate(factor).terms) for factor in node.factors]
        totals, size = [], sizes[0]
        for right in sizes[1:]:
            totals.append((totals or [0])[-1] + size * right)
            size = len(evaluate(StarProduct(node.factors[:len(totals) + 1])).terms)
        checked = []
        monkeypatch.setattr("uhsl2.expressions.check_pair_exponents",
                            lambda left, right: checked.append(right))
        for index, total in enumerate(totals):
            monkeypatch.setattr("uhsl2.expressions.MAX_PAIRS", total - 1)
            checked.clear()
            with pytest.raises(EvalError, match=f"more than {total - 1} monomial pairs"):
                evaluate(node)
            assert len(checked) == index
        monkeypatch.setattr("uhsl2.expressions.MAX_PAIRS", totals[-1])
        evaluate(node)


def _long_sum(terms: int, seed: int) -> str:
    """A flat sum shaped like the long requests of the cli_expr benchmark."""
    rng = random.Random(seed)
    return " + ".join("{}/{}*m({},{},{},{})".format(
        rng.randint(1, 9), rng.randint(1, 9), *(rng.randint(0, 4) for _ in range(4)))
        for _ in range(terms))


class TestLongSumMemory:
    # on this sum, tokenizing the whole text first kept 30,000 token tuples
    # and peaked at 3.6 MB; the tree alone is about 0.5 MB
    PARSE_PEAK_BYTES = 1_500_000

    def test_parse_peak_is_about_the_tree(self):
        text = _long_sum(2000, seed=2000)
        tracemalloc.start()
        try:
            node = parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(node.terms) == 2000
        assert peak < self.PARSE_PEAK_BYTES

    def test_scalar_terms_leave_the_kernel_memo_alone(self):
        node = parse(_long_sum(2000, seed=2001))
        algebra._mono_star.cache_clear()
        evaluate(node)
        info = algebra._mono_star.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 0)
