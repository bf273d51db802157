"""Whole-word rewriting, the reference for ``uhsl2.rewrite.normalize``.

``reference_normalize`` applies ``rewrite_step`` to whole words until none is
left, memoizing every intermediate word it meets.  The memo lives for one
call only, so the reference keeps no state between calls.  The library
instead inserts one letter at a time into a normal sum, with a memo keyed on
(normal word, letter); the two must agree word for word.
"""

from __future__ import annotations

from uhsl2.rewrite import WordSum, rewrite_step


def reference_normalize(word: str, strategy: str = "leftmost") -> WordSum:
    """Rewrite ``word`` by whole-word steps of ``strategy`` into normal words."""
    memo: dict[str, WordSum] = {}
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
