"""Expression syntax for algebra queries.

Grammar (infix, left associative):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | rational | gen
            | 'm' '(' nat ',' nat ',' nat ',' nat ')'
            | 'exp' '(' gen ')'
            | '(' expr ')'
    gen    := 'x' | 'y' | 'z' | 'h'

'*' is the star product and is mandatory (juxtaposition is nothing);
``m(a,b,c,d)`` is the divided monomial.  Numbers are runs of the ASCII
digits 0-9 (no other script's digits, no superscripts); rationals are integers
or ``num/den``.  ``parse`` first checks every character in one pass, so the
first character outside the grammar's alphabet is reported wherever it
stands, even after a grammar error.  The parser then reads the tokens from a
generator with one token of lookahead, so a long text costs it the tree and
not a list of tokens.

``exp(...)`` only evaluates under an explicit degree cap, and ``evaluate``
accepts caps up to ``MAX_CAP`` and expands at most ``MAX_PAIRS`` monomial
pairs over all its products.  Every product goes through ``star``; one with
a scalar factor, which holds only the unit monomial, is scaled there without
the kernel, and counts its pairs as any other product does.  ``Sum`` and
``StarProduct`` are n-ary (``a * b * c`` is one node of three factors), so
parse, print and evaluate loop over operands and recurse only at parentheses
and unary minus.  Those nest at most ``MAX_NESTING`` deep; deeper input is a
``ParseError``, before any recursion can reach the interpreter's limit.
``check_output_digits`` refuses a result with a numerator or a denominator of
more than ``MAX_OUTPUT_DIGITS`` digits, which ``str`` would not print.
``repr``, ``==`` and ``hash`` read a tree from one walk with an explicit
stack, at any depth.
The node classes are plain immutable classes with ``__slots__`` and a
``_fields`` tuple, not dataclasses, so that a ``uhsl2 star`` process does not
import ``dataclasses`` and ``inspect`` to start.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction

from .algebra import COLORS, Element, NormalMonomial, exp_series, star


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    pass


class Expression:
    """A syntax-tree node.

    Each node class names its fields in ``_fields`` (also its ``__slots__``)
    and sets them once in ``__init__``, by position or keyword; assigning to
    or deleting any attribute afterwards raises ``AttributeError``.  ``repr``
    spells out every class and field, such as
    ``Negate(operand=Generator(color='x'))``; ``==`` and ``hash`` read the
    same spelling from ``_spelled``, with classes compared by identity and
    field values by value, so ``Literal(Fraction(2)) == Literal(2)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a node through its constructor, since
        # restoring slot state would go through __setattr__
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _spelled(self) == _spelled(other)

    def __hash__(self):
        return hash(tuple(_spelled(self)))

    def __repr__(self):
        return "".join(f"{part.__qualname__}(" if isinstance(part, type)
                       else repr(part[0]) if type(part) is tuple else part
                       for part in _spelled(self))


def _spelled(node: Expression) -> list:
    """The repr of a tree as a list, built with an explicit stack: a node is
    its class (``Qualname(`` in the text), structural text is a str, and any
    other field value is a 1-tuple holding it."""
    parts = []
    # (True, part) is output as is; (False, value) is still to be spelled
    stack = [(False, node)]
    while stack:
        is_part, item = stack.pop()
        if is_part:
            parts.append(item)
            continue
        if isinstance(item, Expression):
            todo = [(True, item.__class__)]
            for i, name in enumerate(item._fields):
                todo += [(True, ", " * (i > 0) + f"{name}="), (False, getattr(item, name))]
            todo.append((True, ")"))
        elif type(item) is tuple:
            todo = [(True, "(")]
            for i, value in enumerate(item):
                todo += [(True, ", ")] * (i > 0) + [(False, value)]
            todo.append((True, ",)" if len(item) == 1 else ")"))
        else:
            todo = [(True, (item,))]
        stack.extend(reversed(todo))
    return parts


# sets a field past Expression.__setattr__; only the node constructors use it
_set = object.__setattr__


class Literal(Expression):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", value)


class Generator(Expression):
    __slots__ = _fields = ("color",)

    def __init__(self, color: str):
        _set(self, "color", color)


class DividedMono(Expression):
    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)


class Exp(Expression):
    __slots__ = _fields = ("color",)

    def __init__(self, color: str):
        _set(self, "color", color)


class Sum(Expression):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Expression, ...]):
        if len(terms) < 2:
            raise ValueError("a Sum needs two or more terms")
        _set(self, "terms", terms)


class StarProduct(Expression):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[Expression, ...]):
        if len(factors) < 2:
            raise ValueError("a StarProduct needs two or more factors")
        _set(self, "factors", factors)


class Negate(Expression):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: Expression):
        _set(self, "operand", operand)


_PUNCT = "()+-*/,"
_DIGITS = "0123456789"  # str.isdigit would also take superscripts and other scripts' digits
# every character of an expression is whitespace, a mark of _PUNCT, a digit
# of _DIGITS or a letter (str.isalpha).  The pattern finds the characters
# outside the ASCII part of that alphabet, and _check_characters keeps the
# whitespace and the letters among them
_OUTSIDE_ASCII_ALPHABET = re.compile("[^%sA-Za-z \t\n\r\f\v]" % re.escape(_PUNCT + _DIGITS))
MAX_NESTING = 200
# int() and str() take at most 4,300 decimal digits (CPython's default
# sys.int_info.default_max_str_digits), so a longer number, in a literal or in
# m(...), is a parse error rather than an internal one.  The bound leaves room
# for the sum of a pair's six exponents, which check_pair_exponents prints
MAX_LITERAL_DIGITS = 4_000
# str() refuses the same ints when the star command prints a result, so the
# command refuses an element with a numerator or a denominator of more digits
# than this.  The 1,500-factor chain x * ... * x, whose coefficient 1500! has
# 4,115 digits, still prints
MAX_OUTPUT_DIGITS = 4_300
MAX_CAP = 32
# one evaluate expands at most this many monomial pairs, summed over its
# products.  Chains of capped series products run at 0.15-1.6 us a pair, so
# the bound is under 0.2 s of them; the largest pinned request, a flat sum of
# 2,000 terms, expands 2,000 pairs.  The bound counts pairs, not their degree:
# a pair of distinct degree-16 monomials, such as (0,6,10,0) * (10,6,0,0),
# can take 0.4 ms
MAX_PAIRS = 100_000
# the kernel's cost for one pair m1 * m2 grows with b1, c1, d1 of m1 and a2,
# b2, d2 of m2 (a1 and c2 enter only two binomials), so evaluate and the
# coeff command refuse a pair whose six sum to more than this.  A pair under
# a cap sums to at most 2 * MAX_CAP = 64.  The costliest shapes at 256 take
# about 0.3 s, such as (0,64,64,0) * (64,64,0,0); at 400, (0,100,100,0) *
# (100,100,0,0) takes 1.7 s
MAX_PAIR_EXPONENTS = 256


def _check_characters(text: str) -> None:
    """Raise ``ParseError`` at the first character that is not whitespace,
    a mark of ``_PUNCT``, an ASCII digit or a letter.  ``parse`` runs this over the
    whole text before it reads a token, so such a character is reported even
    after a grammar error."""
    for hit in _OUTSIDE_ASCII_ALPHABET.finditer(text):
        ch = hit.group()
        if not (ch.isspace() or ch.isalpha()):
            raise ParseError(f"unexpected character {ch!r}", hit.start())


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    """Yield (kind, text, position) for each token of a text that passed
    ``_check_characters``, then ("end", "", len(text)).  A mark is its own
    kind; a run of ASCII digits is a "num" and a run of letters a "name"."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _PUNCT:
            yield ch, ch, i
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            yield "num", text[i:j], i
            i = j
        elif ch.isspace():
            i += 1
        else:  # a letter, as the text passed _check_characters
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            yield "name", text[i:j], i
            i = j
    yield "end", "", n


class _Parser:
    """Recursive descent over a token iterator, one token of lookahead."""

    def __init__(self, tokens: Iterator[tuple[str, str, int]]):
        self.tokens = tokens
        self.tok = next(tokens)
        self.depth = 0

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        # the token stream ends with "end", which no rule takes
        self.tok = next(self.tokens)
        return tok

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.tok
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Expression:
        terms = [self.term()]
        while self.tok[0] in "+-":
            op = self.take(self.tok[0])
            right = self.term()
            terms.append(Negate(right) if op[0] == "-" else right)
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0]

    def term(self) -> Expression:
        factors = [self.factor()]
        while self.tok[0] == "*":
            self.take("*")
            factors.append(self.factor())
        return StarProduct(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self) -> Expression:
        kind, value, pos = self.tok
        if kind in ("-", "("):
            self.take(kind)
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nested deeper than {MAX_NESTING} levels", pos)
            if kind == "-":
                node = Negate(self.factor())
            else:
                node = self.expr()
                self.take(")")
            self.depth -= 1
            return node
        if kind == "num":
            return Literal(self.rational())
        if kind == "name":
            self.take("name")
            if value in COLORS:
                return Generator(value)
            if value == "m":
                args = self.naturals(4)
                return DividedMono(*args)
            if value == "exp":
                self.take("(")
                gen = self.take("name")
                if gen[1] not in COLORS:
                    raise ParseError(f"expected a generator, found {gen[1]!r}", gen[2])
                self.take(")")
                return Exp(gen[1])
            raise ParseError(f"unknown name {value!r}", pos)
        raise ParseError(f"unexpected {value or 'end of input'!r}", pos)

    def number(self) -> tuple[int, int]:
        """The next token's natural number and its position."""
        _, digits, pos = self.take("num")
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(f"a number has more than {MAX_LITERAL_DIGITS} digits", pos)
        return int(digits), pos

    def rational(self) -> Fraction:
        num, _ = self.number()
        if self.tok[0] == "/":
            self.take("/")
            den, pos = self.number()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def naturals(self, count: int) -> list[int]:
        self.take("(")
        out = [self.number()[0]]
        for _ in range(count - 1):
            self.take(",")
            out.append(self.number()[0])
        self.take(")")
        return out


def parse(text: str) -> Expression:
    _check_characters(text)
    return _Parser(_tokenize(text)).parse()


def to_text(node: Expression) -> str:
    """Render an expression; parsing the output reproduces the syntax tree."""
    if not isinstance(node, Sum):
        return _term_text(node)
    text = _term_text(node.terms[0])
    for term in node.terms[1:]:
        if isinstance(term, Negate):
            text += " - " + _factor_text(term.operand)
        else:
            text += " + " + _term_text(term)
    return text


def _term_text(node: Expression) -> str:
    if not isinstance(node, StarProduct):
        return _factor_text(node)
    text = _factor_text(node.factors[0])
    for factor in node.factors[1:]:
        text += " * " + _factor_text(factor)
    return text


def _factor_text(node: Expression) -> str:
    if isinstance(node, Literal):
        return str(node.value)
    if isinstance(node, Generator):
        return node.color
    if isinstance(node, DividedMono):
        return f"m({node.a},{node.b},{node.c},{node.d})"
    if isinstance(node, Exp):
        return f"exp({node.color})"
    if isinstance(node, Negate):
        return f"-{_factor_text(node.operand)}"
    return f"({to_text(node)})"


def check_output_digits(element: Element) -> None:
    """Raise ``EvalError`` when a coefficient of ``element`` has a numerator
    or a denominator of more than ``MAX_OUTPUT_DIGITS`` digits."""
    # compared with a power of ten: str() itself would refuse such a number
    limit = 10 ** MAX_OUTPUT_DIGITS
    for v in element.terms.values():
        if not -limit < v.numerator < limit or v.denominator >= limit:
            raise EvalError(f"a coefficient has more than {MAX_OUTPUT_DIGITS} digits "
                            f"in its numerator or denominator")


def check_pair_exponents(left, right) -> None:
    """Raise ``EvalError`` when a monomial of ``left`` and one of ``right``
    make a pair above ``MAX_PAIR_EXPONENTS``: when the largest b + c + d on
    the left plus the largest a + b + d on the right exceeds it."""
    total = (max((b + c + d for _, b, c, d in left), default=0)
             + max((a + b + d for a, b, _, d in right), default=0))
    if total > MAX_PAIR_EXPONENTS:
        raise EvalError(f"a monomial pair's exponents b1+c1+d1+a2+b2+d2 sum to "
                        f"{total}, more than {MAX_PAIR_EXPONENTS}")


def evaluate(node: Expression, cap: int | None = None) -> Element:
    """Bottom-up evaluation to an Element under an optional degree cap.

    Raises ``EvalError`` before any product that would bring the monomial
    pairs expanded by this call, ``len(f.terms) * len(g.terms)`` for each
    product ``f * g``, above ``MAX_PAIRS``, or that has a pair above
    ``MAX_PAIR_EXPONENTS``.  A cap that is not an ``int`` is a
    ``TypeError``, as in ``Element``.
    """
    if cap is not None and not 0 <= cap <= MAX_CAP:
        raise EvalError(f"degree cap must be a natural number at most {MAX_CAP}")
    return _evaluate(node, cap, [MAX_PAIRS])


def _evaluate(node: Expression, cap: int | None, budget: list[int]) -> Element:
    """``evaluate`` after its cap check; ``budget[0]`` holds the monomial
    pairs the call may still expand."""
    if isinstance(node, Literal):
        return Element({NormalMonomial(0, 0, 0, 0): node.value}, cap)
    if isinstance(node, Generator):
        mono = [0, 0, 0, 0]
        mono[COLORS.index(node.color)] = 1
        return Element.monomial(mono, 1, cap)
    if isinstance(node, DividedMono):
        return Element.monomial((node.a, node.b, node.c, node.d), 1, cap)
    if isinstance(node, Exp):
        if cap is None:
            raise EvalError("exp(...) requires an explicit degree cap")
        return exp_series(node.color, cap)
    if isinstance(node, Sum):
        out: dict[NormalMonomial, Fraction | int] = {}
        for term in node.terms:
            for mono, coeff in _evaluate(term, cap, budget).terms.items():
                out[mono] = out.get(mono, 0) + coeff
        return Element(out, cap)
    if isinstance(node, StarProduct):
        product = _evaluate(node.factors[0], cap, budget)
        for factor in node.factors[1:]:
            right = _evaluate(factor, cap, budget)
            budget[0] -= len(product.terms) * len(right.terms)
            if budget[0] < 0:
                raise EvalError(f"the products expand more than {MAX_PAIRS} "
                                f"monomial pairs")
            check_pair_exponents(product.terms, right.terms)
            product = star(product, right)
        return product
    if isinstance(node, Negate):
        return -_evaluate(node.operand, cap, budget)
    raise TypeError(f"not an expression node: {node!r}")
