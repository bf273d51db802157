"""Command-line front end.

Subcommands:
  star        evaluate an expression and print the element
  coeff       print one structural coefficient
  verify      closed formula vs rewrite oracle, exhaustive sweep over all
              (max_exp + 1)^8 monomial pairs; max_exp is at most MAX_VERIFY_EXP
  species     structure counts of a functor pair vs its series coefficients,
              size tuples of total at most max_total <= MAX_SPECIES_TOTAL
  identities  run the catalog of known identities

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 internal error (any other exception, reported in one line on stderr).
argparse exits 2 on a malformed command line itself; every other exit code is
mapped in ``main``: a command returns 0 or 1, or raises ``ParseError`` or
``EvalError`` (2, as ``parse error: ...`` or ``error: ...`` on stderr), and
any other exception is 3.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from typing import TYPE_CHECKING

# rewrite and species are imported by the commands that use them, so that a
# `star` process loads only the closed-formula path
from . import algebra
from .algebra import COLORS, mono_star_mono, normal_order_zx, star
from .combinatorics import shifted_elem, vam3_lhs, vam3_rhs
from .expressions import (EvalError, ParseError, check_output_digits, check_pair_exponents,
                          evaluate, parse)
from .serialize import element_to_json, pretty

if TYPE_CHECKING:
    from .species import FunctorSpec

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# verify compares (n + 1)^8 pairs, and a sweep at the bound gets a budget of
# 5 s of CLI wall time (tier-1 and CI run it).  The 65,536 pairs at n = 3 take
# 1.5-1.9 s and 16 MB; the 390,625 at n = 4 take 11.2-11.3 s, so n stops at 3
MAX_VERIFY_EXP = 3

# species walks the structures the functors' supports allow, not the size
# tuples.  At total 32 the costliest pair measured over every pair of
# exponentials, exp(z) * exp(x), takes 0.19-0.29 s of CLI wall time and 25 MB
# max RSS, and each other pair 0.07-0.19 s; a budget of 5 s, as for verify
# (2 cores, Python 3.11)
MAX_SPECIES_TOTAL = 32


def _is_natural(text: str) -> bool:
    # str.isdigit alone also accepts superscripts and other scripts' digits
    return text.isascii() and text.isdigit()


def _exponents(text: str) -> tuple[int, int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4 or not all(_is_natural(p) for p in parts):
        raise argparse.ArgumentTypeError(f"expected a,b,c,d naturals, got {text!r}")
    return tuple(int(p) for p in parts)


def _natural(text: str) -> int:
    if not _is_natural(text.strip()):
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return int(text)


def _functor(text: str) -> FunctorSpec:
    from . import species

    text = text.strip().lower()
    if text in COLORS:
        return species.Singleton(text)
    if text.startswith("exp(") and text.endswith(")"):
        color = text[4:-1].strip()
        if color in COLORS:
            return species.Exponential(color)
    if text.startswith("dp(") and text.endswith(")"):
        parts = text[3:-1].split(",")
        if len(parts) == 4 and all(_is_natural(p.strip()) for p in parts):
            return species.DividedPower(*(int(p) for p in parts))
    raise argparse.ArgumentTypeError(
        f"expected x|y|z|h, exp(<gen>) or dp(a,b,c,d), got {text!r}"
    )


def cmd_star(args) -> int:
    # nothing holds the syntax tree once evaluate returns
    element = evaluate(parse(args.expr), args.cap)
    check_output_digits(element)
    if args.format == "json":
        print(element_to_json(element))
    else:
        print(pretty(element))
    return EXIT_OK


def cmd_coeff(args) -> int:
    check_pair_exponents([args.left], [args.right])
    print(algebra.structural_coefficient(args.left, args.right, args.out))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import rewrite

    top = args.max_exp
    if top > MAX_VERIFY_EXP:
        raise EvalError(f"--max-exp must be at most {MAX_VERIFY_EXP}")
    monos = list(product(range(top + 1), repeat=4))
    pairs = mismatches = violations = 0
    for m1 in monos:
        for m2 in monos:
            pairs += 1
            closed = mono_star_mono(m1, m2)
            oracle = rewrite.oracle_star(m1, m2)
            if closed != oracle:
                mismatches += 1
                print(f"MISMATCH {m1} * {m2}")
            for coeff in oracle.terms.values():
                if coeff.denominator != 1:
                    violations += 1
                    print(f"NON-INTEGER coefficient in {m1} * {m2}: {coeff}")
    print(f"verified {pairs} monomial pairs with exponents <= {top}: "
          f"{mismatches} mismatches, {violations} integrality violations")
    return EXIT_OK if mismatches == 0 and violations == 0 else EXIT_MISMATCH


def cmd_species(args) -> int:
    from . import species

    if args.max_total > MAX_SPECIES_TOTAL:
        raise EvalError(f"--max-total must be at most {MAX_SPECIES_TOTAL}")
    report = species.species_coefficient_check(args.left, args.right, args.max_total)
    for miss in report.mismatches:
        print(f"MISMATCH at sizes {miss.sizes}: species {miss.species_count}, "
              f"series {miss.series_coefficient}")
    print(f"checked {report.checked} size tuples for {report.left} * {report.right} "
          f"(total <= {report.max_total}): {len(report.mismatches)} mismatches")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _identity_catalog():
    from . import rewrite, species

    x, y, z, h = (algebra.Element.monomial(m) for m in
                  ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    xy_2xh = algebra.Element({(1, 1, 0, 0): 1, (1, 0, 0, 1): 2})
    xz_yh = algebra.Element({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})
    yz_2zh = algebra.Element({(0, 1, 1, 0): 1, (0, 0, 1, 1): 2})
    z_xx = algebra.Element({(2, 0, 1, 0): 1, (1, 1, 0, 1): -1, (1, 0, 0, 2): -2})
    five_term = algebra.Element({(2, 0, 2, 0): 1, (1, 1, 1, 1): -1, (1, 0, 1, 2): -4,
                                 (0, 2, 0, 2): 2, (0, 1, 0, 3): 3})

    yield "defining relation y*x = xy + 2xh", lambda: star(y, x) == xy_2xh
    yield "defining relation z*x = xz - yh", lambda: star(z, x) == xz_yh
    yield "defining relation z*y = yz + 2zh", lambda: star(z, y) == yz_2zh
    yield "worked example z * m(2,0,0,0), closed formula", \
        lambda: mono_star_mono((0, 0, 1, 0), (2, 0, 0, 0)) == z_xx
    yield "worked example z * m(2,0,0,0), rewrite oracle", \
        lambda: rewrite.oracle_star((0, 0, 1, 0), (2, 0, 0, 0)) == z_xx
    yield "worked example z * m(2,0,0,0), species counts", \
        lambda: species.species_element(
            species.Singleton("z"), species.DividedPower(2, 0, 0, 0), 3) == z_xx
    yield "five-term identity m(0,0,2,0) * m(2,0,0,0), closed formula", \
        lambda: mono_star_mono((0, 0, 2, 0), (2, 0, 0, 0)) == five_term
    yield "five-term identity m(0,0,2,0) * m(2,0,0,0), rewrite oracle", \
        lambda: rewrite.oracle_star((0, 0, 2, 0), (2, 0, 0, 0)) == five_term
    yield "five-term identity m(0,0,2,0) * m(2,0,0,0), species counts", \
        lambda: species.species_element(species.DividedPower(0, 0, 2, 0),
                                        species.DividedPower(2, 0, 0, 0), 4) == five_term
    yield "symbol recursion (a)^s_n", lambda: all(
        shifted_elem(a, s, n) == shifted_elem(a, s, n - 1) + (a + n - 1) * shifted_elem(a, s - 1, n - 1)
        for a in range(-5, 11) for n in range(1, 8) for s in range(1, n + 1)
    )
    yield "cubic evaluation (a)^3_4", lambda: all(
        shifted_elem(a, 3, 4) == 4 * a**3 + 18 * a**2 + 22 * a + 6 for a in range(11)
    )
    yield "shifted product expansion, a in -4..8, n in 0..6", lambda: all(
        vam3_lhs(a, n) == vam3_rhs(a, n) for a in range(-4, 9) for n in range(7)
    )
    yield "z-x normal ordering matches the oracle up to 4", lambda: all(
        normal_order_zx(a, b) == rewrite.oracle_star((0, 0, a, 0), (b, 0, 0, 0))
        for a in range(5) for b in range(5)
    )


def cmd_identities(_args) -> int:
    failed = 0
    for name, check in _identity_catalog():
        ok = check()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed += 1
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uhsl2",
        description="Exact star products in the divided-power PBW basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_star = sub.add_parser("star", help="evaluate an expression")
    p_star.add_argument("--expr", required=True,
                        help="the expression; one that starts with '-' and has no "
                             "space must be given as --expr=-x")
    p_star.add_argument("--cap", type=_natural, default=None,
                        help="degree cap (required for exp(...))")
    p_star.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p_star.set_defaults(func=cmd_star)

    p_coeff = sub.add_parser("coeff", help="one structural coefficient")
    p_coeff.add_argument("--left", type=_exponents, required=True)
    p_coeff.add_argument("--right", type=_exponents, required=True)
    p_coeff.add_argument("--out", type=_exponents, required=True)
    p_coeff.set_defaults(func=cmd_coeff)

    p_verify = sub.add_parser("verify", help="closed formula vs rewrite oracle")
    p_verify.add_argument("--max-exp", type=_natural, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_species = sub.add_parser("species", help="labelled counts vs coefficients")
    p_species.add_argument("--left", type=_functor, required=True)
    p_species.add_argument("--right", type=_functor, required=True)
    p_species.add_argument("--max-total", type=_natural, required=True)
    p_species.set_defaults(func=cmd_species)

    p_ident = sub.add_parser("identities", help="run the identity catalog")
    p_ident.set_defaults(func=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, never a mismatch (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
