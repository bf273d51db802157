"""The expression tokenizer that builds the whole token list first.

``reference_tokenize`` reads every character of a text before the parser
sees a token, so an unexpected character is reported wherever it stands,
even after a grammar error.  ``uhsl2.expressions.parse`` checks the
characters in one pass and then reads its tokens lazily;
``reference_parse`` is the behaviour it must keep: tokenize the whole text,
then run the same parser over the list.
"""

from __future__ import annotations

from uhsl2.expressions import Expression, ParseError, _Parser

_PUNCT = "()+-*/,"
_DIGITS = "0123456789"  # str.isdigit would also take superscripts and other scripts' digits


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
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


def reference_parse(text: str) -> Expression:
    return _Parser(iter(reference_tokenize(text))).parse()
