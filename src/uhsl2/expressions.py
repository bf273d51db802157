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
``m(a,b,c,d)`` is the divided monomial.  Rationals are integers or
``num/den``.  ``exp(...)`` only evaluates under an explicit degree cap.
Parentheses and unary minus signs nest at most ``MAX_NESTING`` deep; deeper
input is a ``ParseError``, before the parser's recursion can reach the
interpreter's limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import COLORS, Element, NormalMonomial, exp_series


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    pass


class Expression:
    pass


@dataclass(frozen=True)
class Literal(Expression):
    value: Fraction


@dataclass(frozen=True)
class Generator(Expression):
    color: str


@dataclass(frozen=True)
class DividedMono(Expression):
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class Exp(Expression):
    color: str


@dataclass(frozen=True)
class Sum(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class StarProduct(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression


_PUNCT = "()+-*/,"
MAX_NESTING = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.take(self.peek()[0])
            right = self.term()
            node = Sum(node, Negate(right) if op[0] == "-" else right)
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            node = StarProduct(node, self.factor())
        return node

    def factor(self) -> Expression:
        kind, value, pos = self.peek()
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

    def rational(self) -> Fraction:
        num = int(self.take("num")[1])
        if self.peek()[0] == "/":
            self.take("/")
            den_tok = self.take("num")
            den = int(den_tok[1])
            if den == 0:
                raise ParseError("zero denominator", den_tok[2])
            return Fraction(num, den)
        return Fraction(num)

    def naturals(self, count: int) -> list[int]:
        self.take("(")
        out = [int(self.take("num")[1])]
        for _ in range(count - 1):
            self.take(",")
            out.append(int(self.take("num")[1]))
        self.take(")")
        return out


def parse(text: str) -> Expression:
    return _Parser(text).parse()


def to_text(node: Expression) -> str:
    """Render an expression; parsing the output reproduces the syntax tree."""
    if isinstance(node, Sum):
        if isinstance(node.right, Negate):
            return f"{to_text(node.left)} - {_factor_text(node.right.operand)}"
        return f"{to_text(node.left)} + {_term_text(node.right)}"
    return _term_text(node)


def _term_text(node: Expression) -> str:
    if isinstance(node, StarProduct):
        return f"{_term_text(node.left)} * {_factor_text(node.right)}"
    return _factor_text(node)


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


def evaluate(node: Expression, cap: int | None = None) -> Element:
    """Bottom-up evaluation to an Element under an optional degree cap."""
    if cap is not None and cap < 0:
        raise EvalError("degree cap must be a natural number")
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
        # a flat sum parses to a left-nested chain: walk it in a loop into one
        # dict, so a long sum neither recurses per '+' nor rebuilds the element
        parts = []
        while isinstance(node, Sum):
            parts.append(node.right)
            node = node.left
        parts.append(node)
        out: dict[NormalMonomial, Fraction | int] = {}
        for part in reversed(parts):
            for mono, coeff in evaluate(part, cap).terms.items():
                out[mono] = out.get(mono, 0) + coeff
        return Element(out, cap)
    if isinstance(node, StarProduct):
        return evaluate(node.left, cap) * evaluate(node.right, cap)
    if isinstance(node, Negate):
        return -evaluate(node.operand, cap)
    raise TypeError(f"not an expression node: {node!r}")
