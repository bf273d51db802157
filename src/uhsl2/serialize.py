"""Lossless JSON interchange and human-readable printing for elements.

JSON format: ``{"cap": N|null, "terms": [{"m": [a,b,c,d], "num": "...",
"den": "..."}]}`` with coefficients as decimal strings, terms sorted by
monomial.  Identical elements serialize to byte-identical text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import Element, NormalMonomial


def element_to_json(element: Element) -> str:
    terms = []
    for mono in sorted(element.terms):
        coeff = element.terms[mono]
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
            mono, num, den = NormalMonomial.checked(entry["m"]), entry["num"], entry["den"]
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed term {entry!r}: {exc}") from exc
        # a numerator and a nonzero denominator as element_to_json writes
        # them; int() would also read "+5", " 7 ", "1_000" and other scripts'
        # digits
        if not (type(num) is type(den) is str and re.fullmatch("-?[0-9]+", num)
                and re.fullmatch("0*[1-9][0-9]*", den)):
            raise ValueError(f"malformed term {entry!r}: num and den must be "
                             f"decimal strings, den positive")
        if mono in terms:
            raise ValueError(f"malformed term {entry!r}: repeated m")
        if cap is not None and sum(mono) > cap:
            raise ValueError(f"malformed term {entry!r}: m is above the cap")
        terms[mono] = Fraction(int(num), int(den))
    return Element(terms, cap)


def pretty(element: Element) -> str:
    """Human-readable rendering with divided monomials, unit factors omitted."""
    if not element.terms:
        return "0"
    parts = []
    for mono in sorted(element.terms):
        coeff = element.terms[mono]
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
