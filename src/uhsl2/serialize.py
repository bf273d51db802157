"""Lossless JSON interchange and human-readable printing for elements.

JSON format: ``{"cap": N|null, "terms": [{"m": [a,b,c,d], "num": "...",
"den": "..."}]}`` with coefficients as decimal strings, terms sorted by
monomial.  Identical elements serialize to byte-identical text.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import Element


def element_to_json(element: Element) -> str:
    terms = []
    for mono in sorted(element.terms):
        coeff = Fraction(element.terms[mono])
        terms.append(
            {"m": list(mono), "num": str(coeff.numerator), "den": str(coeff.denominator)}
        )
    return json.dumps({"cap": element.cap, "terms": terms})


def element_from_json(text: str) -> Element:
    """Inverse of ``element_to_json``; malformed input raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError(f"expected an object with a 'terms' list, got {data!r}")
    cap = data.get("cap")
    if cap is not None and (type(cap) is not int or cap < 0):
        raise ValueError(f"cap must be null or a natural number, got {cap!r}")
    terms = {}
    for entry in data["terms"]:
        try:
            mono = tuple(entry["m"])
            # str() first, so that a float is rejected instead of truncated
            coeff = Fraction(int(str(entry["num"])), int(str(entry["den"])))
        except (TypeError, KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed term {entry!r}: {exc}") from exc
        if len(mono) != 4 or any(type(e) is not int or e < 0 for e in mono):
            raise ValueError(f"malformed term {entry!r}: m must be 4 naturals")
        terms[mono] = coeff
    return Element(terms, cap)


def pretty(element: Element) -> str:
    """Human-readable rendering with divided monomials, unit factors omitted."""
    if not element.terms:
        return "0"
    parts = []
    for mono in sorted(element.terms):
        coeff = Fraction(element.terms[mono])
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = str(mono)
        if mag != 1 or body == "1":
            body = str(mag) if body == "1" else f"{mag} {body}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
