"""Tests for the command-line interface: in-process via main's return code,
and a few through the real ``python -m uhsl2.cli`` entry point."""

from __future__ import annotations

import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uhsl2
from uhsl2 import cli, rewrite, species
from uhsl2.algebra import Element
from uhsl2.cli import main
from uhsl2.expressions import (MAX_CAP, MAX_LITERAL_DIGITS, MAX_OUTPUT_DIGITS,
                               MAX_PAIR_EXPONENTS, MAX_PAIRS, DividedMono, Exp,
                               Generator, Literal, Negate, StarProduct, Sum, evaluate,
                               parse, to_text)
from uhsl2.serialize import element_from_json, element_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _limit_memory():
    # a run that ignores its input bounds fails here instead of filling memory
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_python(*args, timeout=30):
    """Run the interpreter on this source tree in a child process."""
    src = Path(uhsl2.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_limit_memory)


def run_entry_point(*argv, timeout=30):
    """Run ``python -m uhsl2.cli`` from this source tree in a child process."""
    return run_python("-m", "uhsl2.cli", *argv, timeout=timeout)


class TestStarCommand:
    def test_pretty_default(self, capsys):
        code, out, _ = run(capsys, "star", "--expr", "y * x")
        assert code == 0
        assert out.strip() == "2 x h + x y"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "star", "--expr", "y * x", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "cap": None,
            "terms": [
                {"m": [1, 0, 0, 1], "num": "2", "den": "1"},
                {"m": [1, 1, 0, 0], "num": "1", "den": "1"},
            ],
        }

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "star", "--expr", "m(0,0,2,0) * m(2,0,0,0)",
                          "--format", "json")
        _, second, _ = run(capsys, "star", "--expr", "m(0,0,2,0) * m(2,0,0,0)",
                           "--format", "json")
        assert first == second

    def test_exp_with_cap(self, capsys):
        code, out, _ = run(capsys, "star", "--expr", "exp(y) * exp(x)",
                           "--cap", "2", "--format", "json")
        assert code == 0
        monos = [tuple(t["m"]) for t in json.loads(out)["terms"]]
        assert (1, 0, 0, 1) in monos  # the 2xh term of y*x shows up at degree 2

    def test_exp_without_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "star", "--expr", "exp(x)")
        assert code == 2
        assert "cap" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "star", "--expr", "y * (")
        assert code == 2
        assert "position" in err

    def test_long_flat_sum(self, capsys):
        # 1,500 terms: deeper than the recursion limit if each '+' were its own node
        rng = random.Random(1500)
        parts = [
            "{}/{} * m({},{},{},{})".format(
                rng.randint(1, 9), rng.randint(1, 9), *(rng.randint(0, 4) for _ in range(4))
            )
            for _ in range(1500)
        ]
        expected = Element.zero()
        for part in parts:
            expected = expected + evaluate(parse(part))
        code, out, _ = run(capsys, "star", "--expr", " + ".join(parts), "--format", "json")
        assert code == 0
        assert out.strip() == element_to_json(expected)

    def test_long_product_chain(self, capsys):
        code, out, err = run(capsys, "star", "--expr", " * ".join(["x"] * 1500),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert out.strip() == element_to_json(
            Element.monomial((1500, 0, 0, 0), factorial(1500)))
        # 1500! has 4,115 digits, under the output bound
        code, out, err = run(capsys, "star", "--expr", " * ".join(["x"] * 1500))
        assert (code, err) == (0, "")
        assert out == f"{factorial(1500)} x^1500 / (1500!)\n"

    def test_entry_point(self):
        proc = run_entry_point("star", "--expr", "y * x")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2 x h + x y\n", "")

    @pytest.mark.parametrize("expr", ["xy", "exp(xy)", "x + zh"])
    def test_run_together_generator_names_are_parse_errors(self, expr):
        proc = run_entry_point("star", "--expr", expr, "--cap", "2")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "parse error" in proc.stderr

    @pytest.mark.parametrize("template, digit, at", [("{} * x", "7", 0),
                                                     ("m({},0,0,0)", "1", 2)])
    @pytest.mark.parametrize("extra", [0, 1, 400])
    def test_number_digit_bound(self, template, digit, at, extra):
        # over the bound, and at 4,400 digits, int() would refuse the number
        # with a ValueError; the parser refuses it first
        number = digit * (MAX_LITERAL_DIGITS + extra)
        proc = run_entry_point("star", "--expr", template.format(number), timeout=5)
        if not extra:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.startswith(number if digit == "7" else f"x^{number} / ")
            return
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"parse error: a number has more than {MAX_LITERAL_DIGITS} "
                               f"digits (at position {at})\n")

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("part", ["num", "den"])
    def test_output_digit_bound(self, part, extra):
        # str() refuses an int of more than 4,300 digits, so an element with
        # such a coefficient exited 3; the command refuses it before printing
        half = MAX_OUTPUT_DIGITS // 2
        # (10^half - 1)^2 has 2 * half digits, and 10^(2 * half) one more
        factor = "1" + "0" * half if extra else "9" * half
        factor = factor if part == "num" else "1/" + factor
        for fmt in ("json", "pretty"):
            proc = run_entry_point("star", "--expr", f"{factor} * {factor}", "--format", fmt,
                                   timeout=5)
            if extra:
                assert (proc.returncode, proc.stdout) == (2, "")
                assert proc.stderr == (f"error: a coefficient has more than {MAX_OUTPUT_DIGITS} "
                                       f"digits in its numerator or denominator\n")
                continue
            assert (proc.returncode, proc.stderr) == (0, "")
            value = Fraction(int(factor.split("/")[-1]) ** 2)
            value = value if part == "num" else 1 / value
            if fmt == "json":
                assert element_from_json(proc.stdout) == Element({(0, 0, 0, 0): value})
            else:
                assert proc.stdout == f"{value}\n"

    @pytest.mark.parametrize("expr", [" * ".join(["x"] * 1700),
                                      "7" * 2200 + " * " + "7" * 2200],
                             ids=["chain-of-1700-x", "two-2200-digit-literals"])
    def test_big_coefficients_are_usage_errors(self, expr):
        # 1700! has 4,756 digits and the product of the two literals 4,400
        proc = run_entry_point("star", "--expr", expr, timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: a coefficient has more than {MAX_OUTPUT_DIGITS}")

    def test_huge_cap_is_usage_error(self):
        # the cap is checked before anything is allocated
        proc = run_entry_point("star", "--expr", "exp(x)", "--cap", "100000000", timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "at most" in proc.stderr

    def test_costliest_product_at_the_cap(self):
        # the two series whose product has the most terms, at the largest cap
        proc = run_entry_point("star", "--expr", "exp(z) * exp(x)", "--cap",
                               str(MAX_CAP), "--format", "json", timeout=5)
        assert (proc.returncode, proc.stderr) == (0, "")
        element = element_from_json(proc.stdout)
        assert element.coefficient((MAX_CAP, 0, 0, 0)) == 1
        assert element.coefficient((0, 0, MAX_CAP, 0)) == 1

    def test_chain_of_products_is_usage_error(self):
        # the terms of each product multiply into the next: the outer product
        # here would expand 1,477^2 pairs, stopped before it runs
        proc = run_entry_point("star", "--expr", "(exp(z) * exp(x)) * (exp(z) * exp(x))",
                               "--cap", "16", timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: the products expand more than {MAX_PAIRS} "
                               f"monomial pairs\n")

    @pytest.mark.parametrize("expr, code", [
        # the costliest shape measured at the bound, about 0.3 s of kernel
        ("m(0,64,64,0) * m(64,64,0,0)", 0),
        ("m(0,64,64,0) * m(64,64,0,1)", 2),
        ("m(0,64,65,0) * m(64,64,0,0)", 2),
    ])
    def test_pair_bound(self, expr, code):
        proc = run_entry_point("star", "--expr", expr, "--format", "json", timeout=5)
        assert proc.returncode == code
        if code:
            assert proc.stdout == ""
            assert proc.stderr == (f"error: a monomial pair's exponents b1+c1+d1+a2+b2+d2 "
                                   f"sum to {MAX_PAIR_EXPONENTS + 1}, more than "
                                   f"{MAX_PAIR_EXPONENTS}\n")
        else:
            assert proc.stderr == ""
            assert len(element_from_json(proc.stdout).terms) == 10_336

    def test_deep_nesting_is_usage_error(self, capsys):
        code, out, err = run(capsys, "star", "--expr", "(" * 3000 + "x" + ")" * 3000)
        assert code == 2
        assert out == ""
        assert "nested deeper" in err

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(*_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "evaluate", broken)
        code, out, err = run(capsys, "star", "--expr", "y * x")
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("expr, char, position", [
        ("²", "²", 0),
        ("x + ³/2", "³", 4),
        ("m(1,2,3,٣)", "٣", 8),
        ("1/０", "０", 2),
        # reported even after a grammar error, "unexpected 'y'"
        ("x y ²", "²", 4),
    ])
    def test_non_ascii_digits_are_parse_errors(self, expr, char, position):
        # str.isdigit accepts these, but int() rejects the superscripts and
        # reads the Arabic-Indic and fullwidth digits as 3 and 0
        proc = run_entry_point("star", "--expr", expr)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"parse error: unexpected character {char!r} "
                               f"(at position {position})\n")

    def test_star_loads_only_its_path(self):
        # a star process loads neither other route, nor dataclasses (with inspect)
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import uhsl2.cli\n"
            "status = uhsl2.cli.main(['star', '--expr', 'x * y'])\n"
            "print(json.dumps([status, sorted(set(sys.modules) - before)]))\n"
        )
        proc = run_python("-c", code)
        product, report = proc.stdout.splitlines()
        status, loaded = json.loads(report)
        assert (status, product, proc.stderr) == (0, "x y", "")
        assert {name for name in loaded if name.startswith("uhsl2")} == {
            "uhsl2", "uhsl2.algebra", "uhsl2.cli", "uhsl2.combinatorics",
            "uhsl2.expressions", "uhsl2.serialize",
        }
        assert not {"dataclasses", "inspect"} & set(loaded)

    @pytest.mark.parametrize("argv, stdout", [(["--expr=-x"], "-x\n"),
                                              (["--expr", "- x"], "-x\n"),
                                              (["--expr", "-2 * x + y"], "y - 2 x\n")])
    def test_a_leading_minus(self, capsys, argv, stdout):
        assert run(capsys, "star", *argv) == (0, stdout, "")

    def test_a_leading_minus_with_no_space_is_read_as_an_option(self, capsys):
        # argparse takes "-x" for an option, so --expr has no value
        with pytest.raises(SystemExit) as err:
            main(["star", "--expr", "-x"])
        assert err.value.code == 2
        assert "argument --expr: expected one argument" in capsys.readouterr().err

    def test_negative_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["star", "--expr", "exp(x)", "--cap", "-1"])
        assert err.value.code == 2
        assert "natural" in capsys.readouterr().err


# grammar expressions with exponents <= 3, as to_text prints them
_trees = st.recursive(
    st.one_of(st.builds(Literal, st.fractions(max_denominator=9).map(abs)),
              st.sampled_from("xyzh").map(Generator),
              st.builds(DividedMono, *(st.integers(0, 3) for _ in range(4))),
              st.sampled_from("xyzh").map(Exp)),
    lambda inner: st.one_of(
        st.builds(Sum, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        st.builds(StarProduct, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        st.builds(Negate, inner)),
    max_leaves=8)
_STRAY = "()+-*/,.^! xyzhmep0123456789_²٣"


@st.composite
def star_argv(draw):
    """``star`` arguments: an expression, with up to two stray characters
    put in, and a cap of none, 0, 3, 8, MAX_CAP or MAX_CAP + 1."""
    text = to_text(draw(_trees))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
    cap = draw(st.sampled_from([None, 0, 3, 8, MAX_CAP, MAX_CAP + 1]))
    return ["star", "--expr", text] + ([] if cap is None else ["--cap", str(cap)])


def assert_exits_0_or_2(argv):
    # 0 or, with nothing on stdout, 2: never 1 (a mismatch) or 3 (a fault)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code == 0 or (code == 2 and not out.getvalue()), (code, err.getvalue())


# every input exits 0 or 2, within the deadline of each example
@settings(max_examples=200, deadline=5000)
@given(star_argv())
def test_fuzzed_star_exits_0_or_2(argv):
    assert_exits_0_or_2(argv)


# functors as text: singletons and exponentials, divided powers of small or
# huge exponents, and text that is not a functor, negative exponents included
_FUNCTOR_TEXT = st.one_of(
    st.sampled_from(["x", "y", "z", "h", " Z ", "exp(x)", "exp( y )", "EXP(h)", "exp(z)"]),
    st.lists(st.integers(0, 3) | st.integers(0, 10**30), min_size=4, max_size=4).map(
        lambda exponents: f"dp({','.join(map(str, exponents))})"),
    st.sampled_from(["w", "", "exp(w)", "exp()", "dp(", "-x", "dp(1,2,3)", "dp(٢,0,0,0)",
                     "dp(1.5,0,0,0)", "dp(1,2,3,4,5)"])
    | st.integers(-10**30, -1).map(lambda e: f"dp(0,{e},0,0)"))


@st.composite
def species_argv(draw):
    """``species`` arguments: two functors and a total of 0-6 (seven times in
    nine), the bound + 1, or text that is not a natural number."""
    n = draw(st.integers(0, 8))
    if n == 8:
        total = draw(st.text(max_size=4).filter(
            lambda text: not (text.strip().isascii() and text.strip().isdigit())))
    else:
        total = str(n if n <= 6 else cli.MAX_SPECIES_TOTAL + 1)
    return ["species", "--left", draw(_FUNCTOR_TEXT), "--right", draw(_FUNCTOR_TEXT),
            "--max-total", total]


@settings(max_examples=200, deadline=5000)
@given(species_argv())
def test_fuzzed_species_exits_0_or_2(argv):
    assert_exits_0_or_2(argv)


class TestCoeffCommand:
    def test_known_five_term_value(self, capsys):
        code, out, _ = run(capsys, "coeff", "--left", "0,0,2,0",
                           "--right", "2,0,0,0", "--out", "0,1,0,3")
        assert code == 0
        assert out.strip() == "3"

    def test_defining_relation_value(self, capsys):
        code, out, _ = run(capsys, "coeff", "--left", "0,1,0,0",
                           "--right", "1,0,0,0", "--out", "1,0,0,1")
        assert code == 0
        assert out.strip() == "2"

    @pytest.mark.parametrize("left, right, code", [
        ("0,64,64,0", "64,64,0,0", 0),
        ("0,64,64,1", "64,64,0,0", 2),
        ("0,64,64,0", "64,65,0,0", 2),
    ])
    def test_pair_bound(self, left, right, code):
        proc = run_entry_point("coeff", "--left", left, "--right", right,
                               "--out", "64,128,64,0", timeout=5)
        if code:
            assert (proc.returncode, proc.stdout) == (2, "")
            assert f"sum to {MAX_PAIR_EXPONENTS + 1}, more than" in proc.stderr
        else:
            # the leading term: the y's merge, as y^64/64! y^64/64! = C(128, 64) y^128/128!
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{comb(128, 64)}\n", "")

    def test_malformed_exponents_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["coeff", "--left", "0,0,2", "--right", "2,0,0,0",
                  "--out", "0,1,0,3"])
        assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["coeff", "--left", "0,0,٢,0", "--right", "2,0,0,0", "--out", "0,1,0,3"],
    ["coeff", "--left", "0,0,²,0", "--right", "2,0,0,0", "--out", "0,1,0,3"],
    ["verify", "--max-exp", "١"],
    ["star", "--expr", "exp(x)", "--cap", "٣"],
    ["star", "--expr", "exp(x)", "--cap", "1_0"],
    ["species", "--left", "dp(٢,0,0,0)", "--right", "x", "--max-total", "2"],
])
def test_non_ascii_digits_in_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-exp", "1")
        assert code == 0
        assert "256 monomial pairs" in out
        assert "0 mismatches" in out

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        real = rewrite.oracle_star

        def off_by_one(m1, m2):
            result = real(m1, m2)
            if (m1, m2) == ((1, 0, 1, 0), (1, 1, 0, 0)):
                result = result + Element.unit()
            return result

        monkeypatch.setattr(rewrite, "oracle_star", off_by_one)
        code, out, _ = run(capsys, "verify", "--max-exp", "1")
        assert code == 1
        assert "MISMATCH (1, 0, 1, 0) * (1, 1, 0, 0)\n" in out
        assert "256 monomial pairs with exponents <= 1: 1 mismatches" in out

    def test_wrong_run_memo_entry_is_a_mismatch(self, capsys, monkeypatch):
        # plant N(Z X) = XZ - 2YH (it is XZ - YH) as the run of (b1, c1, a2,
        # b2) = (0, 1, 1, 0); every pair that reads that run, and only
        # those, mismatch
        wrong = ((1, 0, 1, 0, 1), (0, 1, 0, 1, -2))
        real = rewrite._run
        monkeypatch.setattr(rewrite, "_run",
                            lambda *key: wrong if key == (0, 1, 1, 0) else real(*key))
        code, out, _ = run(capsys, "verify", "--max-exp", "1")
        assert code == 1
        assert "MISMATCH (0, 0, 1, 0) * (1, 0, 0, 0)\n" in out
        monos = list(product((0, 1), repeat=4))
        expected = [f"MISMATCH {m1} * {m2}" for m1 in monos for m2 in monos
                    if (m1[1], m1[2], m2[0], m2[1]) == (0, 1, 1, 0)]
        assert len(expected) == 16
        assert out.splitlines() == expected + [
            "verified 256 monomial pairs with exponents <= 1: "
            "16 mismatches, 0 integrality violations"]

    def test_non_integral_coefficient_exits_1(self, capsys, monkeypatch):
        real = rewrite.oracle_star

        def halved(m1, m2):
            result = real(m1, m2)
            if (m1, m2) == ((0, 0, 1, 0), (1, 0, 0, 0)):
                result = result + Element({(0, 1, 0, 1): Fraction(1, 2)})
            return result

        monkeypatch.setattr(rewrite, "oracle_star", halved)
        code, out, _ = run(capsys, "verify", "--max-exp", "1")
        assert code == 1
        assert "NON-INTEGER coefficient in (0, 0, 1, 0) * (1, 0, 0, 0): -1/2\n" in out
        assert out.endswith("256 monomial pairs with exponents <= 1: "
                            "1 mismatches, 1 integrality violations\n")

    def test_sweep_at_the_bound_passes(self):
        proc = run_entry_point("verify", "--max-exp", str(cli.MAX_VERIFY_EXP))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert f"verified {(cli.MAX_VERIFY_EXP + 1) ** 8} monomial pairs" in proc.stdout

    @pytest.mark.parametrize("max_exp", [str(cli.MAX_VERIFY_EXP + 1), "1000000000"])
    def test_max_exp_above_the_bound_is_usage_error(self, max_exp):
        # the bound is checked before the sweep starts
        proc = run_entry_point("verify", "--max-exp", max_exp, timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"at most {cli.MAX_VERIFY_EXP}" in proc.stderr


class TestSpeciesCommand:
    def test_singletons(self, capsys):
        code, out, _ = run(capsys, "species", "--left", "z", "--right", "x",
                           "--max-total", "3")
        assert code == 0
        assert "0 mismatches" in out

    def test_divided_power_syntax(self, capsys):
        code, out, _ = run(capsys, "species", "--left", "dp(0,0,2,0)",
                           "--right", "dp(2,0,0,0)", "--max-total", "4")
        assert code == 0
        assert "0 mismatches" in out

    def test_exponential_syntax(self, capsys):
        code, _, _ = run(capsys, "species", "--left", "exp(y)", "--right", "exp(x)",
                         "--max-total", "3")
        assert code == 0

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        # a count planted in _count, which both walks call, reaches the report
        real = species._count
        monkeypatch.setattr(species, "_count", lambda fa, ga, t, pool, sizes:
                            real(fa, ga, t, pool, sizes) + (tuple(sizes) == (0, 1, 0, 1)))
        code, out, _ = run(capsys, "species", "--left", "z", "--right", "x",
                           "--max-total", "3")
        assert code == 1
        assert out.splitlines() == [
            "MISMATCH at sizes ColoredSizes(nx=0, ny=1, nz=0, nh=1): species 0, series -1",
            "checked 35 size tuples for z * x (total <= 3): 1 mismatches",
        ]

    @pytest.mark.parametrize("max_total", [str(cli.MAX_SPECIES_TOTAL + 1), "1000000000"])
    def test_max_total_above_the_bound_is_usage_error(self, max_total):
        # the bound is checked before any size tuple is counted
        proc = run_entry_point("species", "--left", "exp(h)", "--right", "exp(h)",
                               "--max-total", max_total, timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: --max-total must be at most {cli.MAX_SPECIES_TOTAL}\n"

    def test_costliest_pair_at_the_bound(self):
        # the costliest pair measured at the largest total, over every pair
        # of exponentials: 0.19-0.29 s (each other pair takes 0.07-0.19 s)
        proc = run_entry_point("species", "--left", "exp(z)", "--right", "exp(x)",
                               "--max-total", str(cli.MAX_SPECIES_TOTAL), timeout=5)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith(f"(total <= {cli.MAX_SPECIES_TOTAL}): 0 mismatches\n")

    def test_bad_functor_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["species", "--left", "w", "--right", "x", "--max-total", "2"])
        assert err.value.code == 2


class TestIdentitiesCommand:
    def test_catalog_passes(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines and all(line.startswith("PASS") for line in lines)
        assert any("five-term" in line for line in lines)
        assert any("defining relation" in line for line in lines)


README = Path(__file__).resolve().parent.parent / "README.md"

# the commands of README's CLI section with their stdout, pinned byte for byte:
# a refactoring that changes what a user sees fails here
README_COMMANDS = [
    (["star", "--expr", "y * x"], "2 x h + x y\n"),
    (["star", "--expr", "m(0,0,2,0) * m(2,0,0,0)", "--format", "json"],
     '{"cap": null, "terms": [{"m": [0, 1, 0, 3], "num": "3", "den": "1"}, '
     '{"m": [0, 2, 0, 2], "num": "2", "den": "1"}, '
     '{"m": [1, 0, 1, 2], "num": "-4", "den": "1"}, '
     '{"m": [1, 1, 1, 1], "num": "-1", "den": "1"}, '
     '{"m": [2, 0, 2, 0], "num": "1", "den": "1"}]}\n'),
    (["star", "--expr", "exp(z) * exp(x)", "--cap", "4"],
     "1 + z - 2 z h^2 / (2!) + z^2 / (2!) - 4 z^2 h^2 / (2! 2!) + z^3 / (3!) + z^4 / (4!) "
     "- y h + 3 y h^3 / (3!) - y z h - y z^2 h / (2!) + 2 y^2 h^2 / (2! 2!) + x "
     "- 2 x h^2 / (2!) + x z - 4 x z h^2 / (2!) + x z^2 / (2!) + x z^3 / (3!) - x y h "
     "- x y z h + x^2 / (2!) - 4 x^2 h^2 / (2! 2!) + x^2 z / (2!) + x^2 z^2 / (2! 2!) "
     "- x^2 y h / (2!) + x^3 / (3!) + x^3 z / (3!) + x^4 / (4!)\n"),
    (["star", "--expr=-x"], "-x\n"),
    (["coeff", "--left", "0,0,2,0", "--right", "2,0,0,0", "--out", "0,1,0,3"], "3\n"),
    (["verify", "--max-exp", "2"],
     "verified 6561 monomial pairs with exponents <= 2: 0 mismatches, "
     "0 integrality violations\n"),
    (["species", "--left", "dp(0,0,2,0)", "--right", "dp(2,0,0,0)", "--max-total", "4"],
     "checked 70 size tuples for dp(0,0,2,0) * dp(2,0,0,0) (total <= 4): 0 mismatches\n"),
    (["identities"],
     "PASS  defining relation y*x = xy + 2xh\n"
     "PASS  defining relation z*x = xz - yh\n"
     "PASS  defining relation z*y = yz + 2zh\n"
     "PASS  worked example z * m(2,0,0,0), closed formula\n"
     "PASS  worked example z * m(2,0,0,0), rewrite oracle\n"
     "PASS  worked example z * m(2,0,0,0), species counts\n"
     "PASS  five-term identity m(0,0,2,0) * m(2,0,0,0), closed formula\n"
     "PASS  five-term identity m(0,0,2,0) * m(2,0,0,0), rewrite oracle\n"
     "PASS  five-term identity m(0,0,2,0) * m(2,0,0,0), species counts\n"
     "PASS  symbol recursion (a)^s_n\n"
     "PASS  cubic evaluation (a)^3_4\n"
     "PASS  shifted product expansion, a in -4..8, n in 0..6\n"
     "PASS  z-x normal ordering matches the oracle up to 4\n"),
]


class TestReadmeCommands:
    def test_pins_cover_the_readme(self):
        listed = [shlex.split(line, comments=True)[1:]
                  for line in README.read_text().splitlines() if line.startswith("uhsl2 ")]
        assert listed == [argv for argv, _ in README_COMMANDS]

    @pytest.mark.parametrize("argv, stdout", README_COMMANDS,
                             ids=[" ".join(argv) for argv, _ in README_COMMANDS])
    def test_stdout_is_pinned(self, argv, stdout):
        proc = run_entry_point(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == stdout
