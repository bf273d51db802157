"""Ground-truth normalizer for free words in x, y, z, h.

Words are strings over the alphabet X Y Z H.  The three commutation rules
plus the centrality swaps for H are applied exhaustively until every word is
sorted in the order x < y < z < h; the result is a signed integer combination
of normal words.  This path never touches the closed product formula, which
is the whole point: ``oracle_star`` gives an independent answer to compare
against.

Normalization terminates: a rule output either sorts a pair in place (the
inversion count drops by one) or trades a non-H letter for an H (the non-H
letter count drops), so the pair (#non-H letters, #inversions) decreases
lexicographically with every step.  With the rules' overlaps resolvable,
Bergman's diamond lemma (Adv. Math. 29, 1978) makes the normal form
independent of the order of rewriting, so ``N(u v w) = N(u N(v) w)``; the
tests check ``normalize`` against whole-word rewriting in both orders.

One core, ``extend``, appends letters one at a time to a sum of normal
words.  Only the pair at the boundary can be inverted, and its rule outputs
come straight from ``_RULES``, so this is exactly leftmost-first rewriting.
A letter that does not invert the boundary pair is appended in place; an
inverted one goes through the memo of insertions, keyed on (normal word,
letter).  ``normalize`` extends the empty word.

``oracle_star`` reads one run of letters that ``extend`` fills, memoized on
its four exponents by an ``lru_cache`` of 2,048 runs, so a verification
sweep pays once per key, not once per pair; its docstring gives the key and
why it is sound.  The insertion memo grows with the distinct normal words
met, not with the rewrite branches, and ``extend`` empties it when it starts
with more than ``MEMO_BOUND`` entries.  All memos live for the whole process
and hold only normal forms.  Entries are never mutated, so concurrent
callers at worst compute an entry twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .algebra import Element, NormalMonomial

FreeWord = str
WordSum = dict[str, int]

ALPHABET = "XYZH"
# letter -> the endings of a normal word that stay normal with the letter
# appended: the empty word and each letter of rank at most its own
_KEEPS_NORMAL = {c: frozenset(("", *ALPHABET[: i + 1])) for i, c in enumerate(ALPHABET)}

# adjacent inverted pair -> replacement terms
_RULES: dict[str, tuple[tuple[str, int], ...]] = {
    "YX": (("XY", 1), ("XH", 2)),
    "ZX": (("XZ", 1), ("YH", -1)),
    "ZY": (("YZ", 1), ("ZH", 2)),
    "HX": (("XH", 1),),
    "HY": (("YH", 1),),
    "HZ": (("ZH", 1),),
}

# (normal word, letter) -> normal form of the word with the letter appended.
# It holds 758 entries after verify --max-exp 3, but 48,571 after the one
# product oracle_star((0,12,12,0), (12,12,0,0)), in a process of 52 MB; so
# extend empties it when it starts with more than MEMO_BOUND entries
MEMO_BOUND = 1 << 16
_MEMO: dict[tuple[FreeWord, str], WordSum] = {}


def _known(word: FreeWord, letter: str) -> WordSum | None:
    """The normal form of the normal ``word`` with ``letter`` appended, when
    the joined word is normal or in the memo; None otherwise."""
    if word[-1:] in _KEEPS_NORMAL[letter]:
        return {word + letter: 1}
    return _MEMO.get((word, letter))


def _insert(word: FreeWord, letter: str) -> WordSum:
    """Normalize the normal ``word`` with ``letter`` appended, for a key not
    ``_known`` yet.

    Only the pair at the boundary is inverted; each of its rule outputs
    ``u v`` replaces it, so the result is ``rest`` (``word`` minus its last
    letter) with ``u`` appended, and then ``v`` appended to each resulting
    normal word.  A work stack of (normal word, letter) keys resolves these
    in dependency order, so the word length sets no recursion depth.
    """
    stack = [(word, letter)]
    while stack:
        key = stack[-1]
        if key in _MEMO:
            stack.pop()
            continue
        w, c = key
        rest = w[:-1]
        firsts = [(_known(rest, u), (rest, u), v, k) for (u, v), k in _RULES[w[-1] + c]]
        missing = [need for got, need, _, _ in firsts if got is None]
        if not missing:
            seconds = [(_known(p, v), (p, v), k * j)
                       for got, _, v, k in firsts for p, j in got.items()]
            missing = [need for got, need, _ in seconds if got is None]
        if missing:
            stack.extend(missing)
            continue
        combined: WordSum = {}
        for got, _, k in seconds:
            for q, j in got.items():
                combined[q] = combined.get(q, 0) + k * j
        _MEMO[key] = {q: v for q, v in combined.items() if v}
        stack.pop()
    return _MEMO[(word, letter)]


def extend(total: WordSum, letters: str) -> WordSum:
    """Append ``letters`` one at a time to ``total``, a sum of normal words.

    Each letter is appended to every normal word of the running sum.  When it
    does not invert the pair at the boundary, the joined word is normal and
    is added as it is; otherwise the insertion is read from the memo, or
    computed by ``_insert`` and memoized.  This is exactly leftmost
    rewriting: on ``n c rest`` with ``n`` normal, the leftmost inverted pair
    stays inside ``n c`` until that prefix is normal again, and ``rest`` is
    untouched.  No step recurses, so the word length is not limited by the
    interpreter's recursion depth.

    The memo is emptied here, before any letter, when it holds more than
    ``MEMO_BOUND`` entries, and never inside ``_insert``, whose work stack
    reads entries back.  So it is bounded across calls, but one call can
    still fill it past the bound: ``oracle_star((0,20,20,0), (20,20,0,0))``
    leaves 328,877 entries in a process of 381 MB.
    """
    if len(_MEMO) > MEMO_BOUND:
        _MEMO.clear()
    memo_get = _MEMO.get
    for letter in letters:
        keeps_normal = _KEEPS_NORMAL[letter]
        nxt: WordSum = {}
        get = nxt.get
        for w, k in total.items():
            if w[-1:] in keeps_normal:
                q = w + letter
                nxt[q] = get(q, 0) + k
                continue
            got = memo_get((w, letter))
            if got is None:
                got = _insert(w, letter)
            for q, j in got.items():
                nxt[q] = get(q, 0) + k * j
        total = {q: v for q, v in nxt.items() if v}
    return total


def normalize(word: FreeWord) -> WordSum:
    """Exhaustively rewrite ``word`` into a combination of normal words, by
    appending its letters to the empty word with ``extend``."""
    return extend({"": 1}, word)


def to_element(word_sum: WordSum) -> Element:
    """Convert a sum of normal words to divided-basis coefficients.

    A plain monomial x^a y^b z^c h^d equals a!b!c!d! times the divided one,
    so each coefficient is scaled up accordingly.
    """
    terms: dict[NormalMonomial, int] = {}
    for word, coeff in word_sum.items():
        counts = tuple(map(word.count, ALPHABET))
        if word != word_of_monomial(counts):
            raise ValueError(f"word {word!r} is not in normal order")
        # distinct normal words are distinct monomials
        terms[NormalMonomial(*counts)] = coeff * prod(map(factorial, counts))
    return Element(terms)


def word_of_monomial(mono) -> FreeWord:
    a, b, c, d = mono
    return "X" * a + "Y" * b + "Z" * c + "H" * d


# the run N(Y^b1 Z^c1 X^a2 Y^b2) as (a, b, c, d, coefficient) tuples.  Exponents
# up to n meet (n + 1)^4 keys, 625 at n = 4, and the cache keeps the 2,048 runs
# it used last, so every key of exponents up to 5 stays warm
@lru_cache(maxsize=1 << 11)
def _run(b1: int, c1: int, a2: int, b2: int) -> tuple:
    return tuple((*map(w.count, ALPHABET), k)
                 for w, k in extend({"Y" * b1 + "Z" * c1: 1}, "X" * a2 + "Y" * b2).items())


def oracle_star(m1, m2) -> Element:
    """Star product of two divided monomials via plain-word rewriting.

    The plain word ``X^a1 Y^b1 Z^c1 H^d1 X^a2 Y^b2 Z^c2 H^d2`` is rewritten
    from one memoized run, ``N(Y^b1 Z^c1 X^a2 Y^b2)``, keyed (b1, c1, a2, b2):
    each of its words ``X^a Y^b Z^c H^d`` gives ``X^(a+a1) Y^b Z^(c+c2)
    H^(d+d1+d2)``.  By ``N(u v w) = N(u N(v) w)`` this is the normal form of
    the whole word: H is central, with rules of coefficient 1 that make no
    other letter, so H^d1 moves to the end; ``X^a1`` followed by a normal
    word is normal; and an appended Z (of Z^c2) passes only H.  The shift is
    one to one, so distinct run words give distinct monomials.

    Each normal word's coefficient is scaled to the divided basis and
    divided by the factorials of the input exponents in one exact divmod:
    an int when the division is exact, a Fraction when a remainder is left,
    so a non-integral structure constant still shows.  The exponents are
    checked by ``NormalMonomial.checked``, as in ``mono_star_mono``.
    """
    m1, m2 = NormalMonomial.checked(m1, m2)
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    den = prod(map(factorial, m1 + m2))
    terms: dict[NormalMonomial, Fraction | int] = {}
    for a, b, c, d, k in _run(b1, c1, a2, b2):
        a, c, d = a + a1, c + c2, d + d1 + d2
        num = k * factorial(a) * factorial(b) * factorial(c) * factorial(d)
        quotient, remainder = divmod(num, den)
        mono = tuple.__new__(NormalMonomial, (a, b, c, d))
        terms[mono] = Fraction(num, den) if remainder else quotient
    return Element._built(terms)
