"""Whole-word rewriting, the reference for ``uhsl2.rewrite.normalize``.

``reference_normalize`` applies ``rewrite_step`` to whole words until none is
left, in either of its orders, memoizing every intermediate word it meets.
The memo is fresh for each call unless the caller passes one in, so the
reference keeps no state between calls of its own.  A memo shared over many
calls must be used with one order only.  The library instead appends one
letter at a time to a normal sum, with a memo keyed on (normal word,
letter); the two must agree word for word.
"""

from __future__ import annotations

from uhsl2.rewrite import WordSum, rewrite_step


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
