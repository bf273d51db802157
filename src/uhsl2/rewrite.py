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
independent of the order of rewriting; the tests check ``normalize``
against whole-word rewriting by ``rewrite_step`` in both its orders.

One core, ``extend``, appends letters one at a time to a sum of normal
words.  Only the pair at the boundary can be inverted, and its rule outputs
come straight from ``_RULES``, so this is exactly leftmost-first rewriting.
A letter that does not invert the boundary pair is appended in place; an
inverted one goes through the memo.  ``normalize`` extends the empty word.
``oracle_star`` starts from the plain word of the left factor, which is
already normal (extending the empty word by it would only ever append in
place), and extends it by the right factor's X, Y and Z letters.  The right
factor's H letters are not rewritten at all: H has the top rank, so
appending one never inverts a pair, and they only add to each final word's
count of H.

The memo of insertions, keyed on (normal word, letter), is the only shared
state.  It lives for the whole process, so a verification sweep pays for
each insertion once; its keys are normal words, so it holds no intermediate
word of any rewrite.  Entries are only ever added, never mutated, so
concurrent callers at worst compute an entry twice.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import Element, NormalMonomial

FreeWord = str
WordSum = dict[str, int]

ALPHABET = "XYZH"
_RANK = {c: i for i, c in enumerate(ALPHABET)}
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

# (normal word, letter) -> normal form of the word with the letter appended
_MEMO: dict[tuple[FreeWord, str], WordSum] = {}


def is_normal(word: FreeWord) -> bool:
    return all(_RANK[a] <= _RANK[b] for a, b in zip(word, word[1:]))


def rewrite_step(word: FreeWord, strategy: str = "leftmost") -> WordSum | None:
    """Rewrite the leftmost (or rightmost) out-of-order adjacent pair.

    Returns None when the word is already in normal order.
    """
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    elif strategy != "leftmost":
        raise ValueError(f"unknown strategy {strategy!r}")
    for i in positions:
        pair = word[i : i + 2]
        if _RANK[pair[0]] > _RANK[pair[1]]:
            return {
                word[:i] + repl + word[i + 2 :]: coeff
                for repl, coeff in _RULES[pair]
            }
    return None


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
    """
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
    """Exhaustively rewrite ``word`` into a combination of normal words.

    The letters are appended left to right to the empty word by ``extend``.
    Insertions are memoized on (normal word, letter) for the life of the
    process; the memo grows with the distinct normal words met, not with the
    rewrite branches.
    """
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
        a, b, c, d = counts
        # distinct normal words are distinct monomials
        terms[NormalMonomial(a, b, c, d)] = (
            coeff * factorial(a) * factorial(b) * factorial(c) * factorial(d))
    return Element(terms)


def word_of_monomial(mono) -> FreeWord:
    a, b, c, d = mono
    return "X" * a + "Y" * b + "Z" * c + "H" * d


def oracle_star(m1, m2) -> Element:
    """Star product of two divided monomials via plain-word rewriting.

    The rewrite starts from the plain word of ``m1``, which is already
    normal, and extends it by the X, Y and Z letters of ``m2``.  The H
    letters of ``m2`` would be concatenated to every resulting word, since H
    has the top rank and appending it never inverts a pair; so they only add
    to each word's count of H.  Each normal word's coefficient is scaled to
    the divided basis and divided by the factorials of the input exponents
    in one exact divmod: the quotient is an int when the division is exact,
    and a Fraction when a remainder is left, so a non-integral structure
    constant still shows.  The exponents are checked as by
    ``mono_star_mono``, with the same ``TypeError`` and ``ValueError``.
    """
    m1, m2 = NormalMonomial(*m1), NormalMonomial(*m2)
    a2, b2, c2, d2 = m2
    den = 1
    for e in m1 + m2:
        if type(e) is not int:
            raise TypeError(f"non-integer exponent in {tuple(m1)} * {tuple(m2)}")
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(m1)} * {tuple(m2)}")
        den *= factorial(e)
    words = extend({word_of_monomial(m1): 1}, "X" * a2 + "Y" * b2 + "Z" * c2)
    terms: dict[NormalMonomial, Fraction | int] = {}
    for word, coeff in words.items():
        a, b, c, d = map(word.count, ALPHABET)
        d += d2
        num = coeff * factorial(a) * factorial(b) * factorial(c) * factorial(d)
        quotient, remainder = divmod(num, den)
        terms[NormalMonomial(a, b, c, d)] = Fraction(num, den) if remainder else quotient
    return Element._built(terms)
