"""Whole-word rewriting, the reference for ``uhsl2.rewrite.normalize``.

``rewrite_step`` rewrites the leftmost or the rightmost inverted pair of a
word by the library's rules.  ``reference_normalize`` applies it to whole
words until none is left, in either order, memoizing every intermediate
word it meets.  The memo is fresh for each call unless the caller passes one
in, so the reference keeps no state between calls of its own.  A memo shared
over many calls must be used with one order only.  The library instead
appends one letter at a time to a normal sum, with a memo keyed on (normal
word, letter); the two must agree word for word.
"""

from __future__ import annotations

from uhsl2.rewrite import _RULES, ALPHABET, FreeWord, WordSum

_RANK = {c: i for i, c in enumerate(ALPHABET)}


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


def reference_normalize(word: str, strategy: str = "leftmost",
                        memo: dict[str, WordSum] | None = None) -> WordSum:
    """Rewrite ``word`` by whole-word steps of ``strategy`` into normal words.

    ``memo`` maps each word met to its normal form; pass one dict to several
    calls of the same ``strategy`` to share their intermediate words.
    """
    if memo is None:
        memo = {}
    stack = [word]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        step = rewrite_step(w, strategy)
        if step is None:
            memo[w] = {w: 1}
            stack.pop()
            continue
        pending = [u for u in step if u not in memo]
        if pending:
            stack.extend(pending)
            continue
        combined: WordSum = {}
        for u, coeff in step.items():
            for nw, nc in memo[u].items():
                combined[nw] = combined.get(nw, 0) + coeff * nc
        memo[w] = {k: v for k, v in combined.items() if v}
        stack.pop()
    return memo[word]
