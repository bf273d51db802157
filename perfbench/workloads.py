"""The four benchmark workloads: seeded inputs, the timed call, output checks.

Every workload draws its inputs from ``random.Random(seed)`` and hands the
library only those inputs.  Inputs are generated block by block outside the
timed region; a block holds a fixed mix of input kinds, so that a run of any
length sees the same proportions and its figures do not depend on which rare
inputs a seed happened to draw.  A run stops only at a block boundary.

Each workload keeps two counters: ``computed`` holds work counts derived from
the inputs alone, which repeat exactly for a seed; ``observed`` holds what
was read from the outputs.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

from uhsl2 import (
    DividedPower,
    Element,
    element_to_json,
    evaluate,
    mono_star_mono,
    oracle_star,
    parse,
    pretty,
    shifted_elem,
    star,
    star_species,
)
from uhsl2 import algebra
from uhsl2.species import size_tuples

ROOT = Path(__file__).resolve().parent.parent


def sigma_mono(m):
    """The anti-involution m(a,b,c,d) -> m(c,b,a,d)."""
    a, b, c, d = m
    return (c, b, a, d)


def sigma(f: Element) -> Element:
    return Element({sigma_mono(m): v for m, v in f.terms.items()}, f.cap)


def degree(m) -> int:
    return sum(m)


def weight(m) -> int:
    return m[0] - m[2]


def assignments(m1, m2) -> int:
    """Index assignments the 13-index sum enumerates for one monomial pair:
    (m+1)(m+2)/2 * (b1+1)(b2+1) with m = min(c1, a2)."""
    return comb(min(m1[2], m2[0]) + 2, 2) * (m1[1] + 1) * (m2[1] + 1)


def latin_pairs(rng, top: int):
    """top+1 monomial pairs in which each of the 8 exponents takes every
    value 0..top exactly once, so the cost mix of a block is stable."""
    cols = [rng.sample(range(top + 1), top + 1) for _ in range(8)]
    return [(row[:4], row[4:]) for row in zip(*cols)]


class Workload:
    name = ""
    min_ops = 0
    uses_children_rss = False

    def __init__(self, seed: int, smoke: bool, tracer):
        self.rng = random.Random(seed)
        # check sampling has its own stream so it cannot shift the inputs
        self.sample_rng = random.Random(seed ^ 0x5EED)
        self.smoke = smoke
        self.tr = tracer
        self.computed: Counter = Counter()
        self.observed: Counter = Counter()
        self.seen_keys: set = set()

    def note_keys(self, keys) -> None:
        """Count kernel keys (m1, m2) an operation evaluates, and repeats."""
        keys = list(keys)
        repeats = sum(1 for k in keys if k in self.seen_keys)
        self.seen_keys.update(keys)
        self.computed["kernel_keys"] += len(keys)
        self.computed["kernel_key_repeats"] += repeats

    def warm_up(self) -> None:
        pass

    def count(self, op) -> None:
        """Add the work counts computed from the inputs of one operation."""

    def replay(self, op) -> None:
        """Traced run only: extra per-stage spans after the operation."""

    def post_checks(self) -> int:
        return 0

    def import_seconds(self) -> float:
        return 0.0

    def properties(self) -> dict:
        keys = self.computed["kernel_keys"]
        return {
            "pair_repeat_share": self.computed["kernel_key_repeats"] / keys if keys else 0.0,
        }


class KernelCold(Workload):
    name = "kernel_cold"

    def __init__(self, seed, smoke, tracer):
        super().__init__(seed, smoke, tracer)
        self.top = 3 if smoke else 12
        self.min_ops = 8 if smoke else 1000
        # a few z^k * x^k at fixed k, in rising order, all within the first
        # min_ops operations so peak memory sees every one of them; their
        # cost is mostly filling the shifted_elem cache up to the largest k
        ks = (6, 9) if smoke else (50, 85, 120, 155, 190)
        first, every = (0, 1) if smoke else (3, 15)
        self.big = {first + every * i: k for i, k in enumerate(ks)}
        self.smallest: list = []   # (word length, m1, m2) for the oracle check
        self.sampled: list = []

    def blocks(self):
        block_no = 0
        while True:
            block = []
            for pair in latin_pairs(self.rng, self.top):
                if pair not in self.seen_keys:
                    block.append(pair)
            if block_no in self.big:
                k = self.big[block_no]
                block.append(((0, 0, k, 0), (k, 0, 0, 0)))
            block_no += 1
            yield block

    def run(self, op):
        with self.tr.span("algebra.mono_star_mono"):
            return mono_star_mono(*op)

    def count(self, op) -> None:
        m1, m2 = op
        self.computed["algebra.mono_star_mono.calls"] += 1
        self.computed["algebra.mono_star_mono.assignments"] += assignments(m1, m2)
        self.note_keys([op])

    def check(self, op, out: Element) -> bool:
        m1, m2 = op
        deg, wt = degree(m1) + degree(m2), weight(m1) + weight(m2)
        ok = all(degree(m) == deg and weight(m) == wt and type(v) is int
                 for m, v in out.terms.items())
        self.observed["algebra.mono_star_mono.terms_out"] += len(out.terms)
        self.smallest.append((deg, m1, m2))
        self.smallest = sorted(self.smallest)[:8]
        if len(self.sampled) < 16:
            self.sampled.append(op)
        elif self.sample_rng.random() < 0.02:
            self.sampled[self.sample_rng.randrange(16)] = op
        return ok

    def post_checks(self) -> int:
        bad = 0
        for _deg, m1, m2 in self.smallest:
            bad += mono_star_mono(m1, m2) != oracle_star(m1, m2)
        for m1, m2 in self.sampled:
            bad += sigma(mono_star_mono(m1, m2)) != mono_star_mono(sigma_mono(m2), sigma_mono(m1))
        return bad

    def properties(self) -> dict:
        out = super().properties()
        out["zk_xk_share"] = len(self.big) / max(1, self.computed["algebra.mono_star_mono.calls"])
        return out


class DenseWarm(Workload):
    name = "dense_warm"

    def __init__(self, seed, smoke, tracer):
        super().__init__(seed, smoke, tracer)
        # the shared support is every monomial in x, y, z up to the degree
        # (56 of them at degree 5), so only the coefficients depend on the seed
        self.top = top = 2 if smoke else 5
        self.cap = 3 if smoke else 8
        self.min_ops = 3 if smoke else 150
        support = [(a, b, c, 0) for a, b, c in product(range(top + 1), repeat=3)
                   if a + b + c <= top]
        pool = 4 if smoke else 16
        coeffs = [[Fraction(self.rng.randint(-99, 99) or 1, self.rng.randint(1, 32))
                   for _ in support] for _ in range(pool)]
        self.elements = {
            capped: [Element(dict(zip(support, cs)), self.cap if capped else None)
                     for cs in coeffs]
            for capped in (False, True)
        }
        all_keys = [(m1, m2) for m1 in support for m2 in support]
        self.keys = {
            False: all_keys,
            True: [k for k in all_keys if degree(k[0]) + degree(k[1]) <= self.cap],
        }
        self.degree_sums = {degree(m1) + degree(m2) for m1, m2 in all_keys}
        self.sampled: list = []

    def warm_up(self) -> None:
        star(self.elements[False][0], self.elements[False][1])
        self.seen_keys.update(self.keys[False])

    def blocks(self):
        # two capped products to one uncapped: with an even split the median
        # would sit on the gap between the two cost clusters
        n = len(self.elements[False])
        while True:
            yield [(self.rng.randrange(n), self.rng.randrange(n), capped)
                   for capped in (True, True, False)]

    def run(self, op):
        i, j, capped = op
        f, g = self.elements[capped][i], self.elements[capped][j]
        with self.tr.span("algebra.star"):
            return star(f, g)

    def count(self, op) -> None:
        capped = op[2]
        c = self.computed
        c["algebra.star.calls"] += 1
        c["algebra.star.pairs"] += len(self.keys[False])
        c["algebra.star.pairs_capped"] += len(self.keys[False]) - len(self.keys[capped])
        self.note_keys(self.keys[capped])

    def check(self, op, out: Element) -> bool:
        capped = op[2]
        top = self.cap if capped else max(self.degree_sums)
        ok = all(degree(m) in self.degree_sums and degree(m) <= top
                 and type(v) in (int, Fraction) for m, v in out.terms.items())
        self.observed["algebra.star.terms_out"] += len(out.terms)
        if capped and len(self.sampled) < 2:
            self.sampled.append(op)
        return ok

    def post_checks(self) -> int:
        bad = 0
        for i, j, _capped in self.sampled:
            f, g = self.elements[False][i], self.elements[False][j]
            full = star(f, g)
            # the cap commutes with the product: truncation loses nothing
            bad += full.with_cap(self.cap) != star(self.elements[True][i], self.elements[True][j])
            # grading: the product of degree components lands in the summed degree
            total = Element()
            for d1 in range(self.top + 1):
                for d2 in range(self.top + 1):
                    part = star(Element({m: v for m, v in f.terms.items() if degree(m) == d1}),
                                Element({m: v for m, v in g.terms.items() if degree(m) == d2}))
                    bad += any(degree(m) != d1 + d2 for m in part.terms)
                    total = total + part
            bad += total != full
        for i, j, _capped in self.sampled[:1]:
            f, g = self.elements[False][i], self.elements[False][j]
            bad += sigma(star(f, g)) != star(sigma(g), sigma(f))
        return bad

    def properties(self) -> dict:
        out = super().properties()
        pairs = self.computed["algebra.star.pairs"]
        out["capped_pair_share"] = self.computed["algebra.star.pairs_capped"] / pairs if pairs else 0.0
        return out


class CliExpr(Workload):
    name = "cli_expr"
    uses_children_rss = True
    LONG_SUM = 1000   # flat sums this long hit the evaluator's recursion defect

    def __init__(self, seed, smoke, tracer):
        super().__init__(seed, smoke, tracer)
        self.min_ops = 4 if smoke else 100
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.sampled: list = []
        self.failures: Counter = Counter()

    def _mono(self, top: int) -> str:
        return "m({},{},{},{})".format(*(self.rng.randint(0, top) for _ in range(4)))

    def _coeff(self) -> str:
        return f"{self.rng.randint(1, 9)}/{self.rng.randint(1, 9)}"

    def _flat(self, terms: int) -> dict:
        expr = " + ".join(f"{self._coeff()}*{self._mono(4)}" for _ in range(terms))
        return {"kind": "flat", "expr": expr, "cap": None, "terms": terms}

    def blocks(self):
        rng = self.rng
        while True:
            if self.smoke:
                caps, msums, flats = (3,), 1, [rng.randint(20, 40)]
            else:
                caps = [rng.randint(8, 16) for _ in range(7)]
                msums = 7
                # two sums of 300..700 terms and three of 800..900, so that p90
                # falls inside a group of similar requests; then one sum above
                # the defect threshold
                flats = [300 + rng.randrange(200), 500 + rng.randrange(200),
                         *(800 + rng.randrange(101) for _ in range(3))]
            flats.append(self.LONG_SUM + rng.randrange(10 if self.smoke else 1001))
            block = []
            for cap in caps:
                g1, g2 = rng.sample("xyz", 2)
                block.append({"kind": "exp", "expr": f"exp({g1}) * exp({g2})",
                              "cap": cap, "terms": 2})
            for _ in range(msums):
                left = " + ".join(f"{self._coeff()}*{self._mono(3)}" for _ in range(3))
                right = " + ".join(f"{self._coeff()}*{self._mono(3)}" for _ in range(3))
                block.append({"kind": "msum", "expr": f"({left}) * ({right})",
                              "cap": None, "terms": 6})
            block += [self._flat(n) for n in flats]
            rng.shuffle(block)
            for req in block:
                req["format"] = rng.choice(("json", "pretty"))
            yield block

    def argv(self, req) -> list[str]:
        argv = [sys.executable, "-m", "uhsl2.cli", "star", "--expr", req["expr"],
                "--format", req["format"]]
        if req["cap"] is not None:
            argv += ["--cap", str(req["cap"])]
        return argv

    def run(self, req):
        with self.tr.span("cli.process") as self.last_sid:
            proc = subprocess.run(self.argv(req), capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            self.failures[f"exit {proc.returncode}: {last.split(':')[0]}"] += 1
            raise RuntimeError(f"exit {proc.returncode}")
        return proc.stdout

    def render(self, req, parent=None) -> str:
        """The library's own rendering of a request, stage by stage."""
        with self.tr.span("expressions.parse", parent):
            tree = parse(req["expr"])
        with self.tr.span("expressions.evaluate", parent):
            element = evaluate(tree, req["cap"])
        stage, render = RENDERERS[req["format"]]
        with self.tr.span(stage, parent):
            return render(element)

    def replay(self, req) -> None:
        """Traced run only: replay the request's stages in this process.

        The kernel and symbol caches are cleared first so the replay pays the
        same cold kernel a fresh process pays; the process span's self time
        then isolates interpreter start plus import.
        """
        shifted_elem.cache_clear()
        mono_cache = getattr(algebra, "_mono_star", None)
        if hasattr(mono_cache, "cache_clear"):
            mono_cache.cache_clear()
        try:
            text = self.render(req, parent=self.last_sid)
        except RecursionError:
            return   # the known long-sum defect; the process failed on it too
        self.observed[RENDERERS[req["format"]][0] + ".bytes"] += len(text.encode())

    def import_seconds(self) -> float:
        """Median time to import uhsl2.cli in a fresh process, from inside it."""
        code = ("import time; t = time.perf_counter(); import uhsl2.cli; "
                "print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, env=self.env, cwd=ROOT, check=True,
                                      timeout=60).stdout)
                 for _ in range(5)]
        return statistics.median(times)

    def count(self, req) -> None:
        self.computed["requests"] += 1
        self.computed["long_sums"] += req["kind"] == "flat" and req["terms"] >= self.LONG_SUM

    def check(self, req, stdout) -> bool:
        if len(self.sampled) < 12 and self.sample_rng.random() < 0.25:
            self.sampled.append((req, stdout))
        return True

    def post_checks(self) -> int:
        bad = 0
        for req, stdout in self.sampled:
            bad += self.render(req) != stdout.rstrip("\n")
        return bad

    def properties(self) -> dict:
        n = self.computed["requests"]
        return {"long_sum_share": self.computed["long_sums"] / n if n else 0.0,
                "failures_by_kind": dict(self.failures)}


class VerifySweep(Workload):
    name = "verify_sweep"

    def __init__(self, seed, smoke, tracer):
        super().__init__(seed, smoke, tracer)
        self.top = 1 if smoke else 4
        self.min_ops = 4 if smoke else 4000
        # species pairs: exponents <= 2 and h <= 1; total degree above 9 is
        # left out because single pairs there take 0.1 to 4 s to enumerate
        max_total = 3 if smoke else 9
        monos = list(product(range(3), range(3), range(3), range(2)))
        self.species_pairs = [(m1, m2) for m1 in monos for m2 in monos
                              if degree(m1) + degree(m2) <= max_total]
        self.rng.shuffle(self.species_pairs)
        self.next_species = 0

    def blocks(self):
        while True:
            block = [(m1, m2, None) for m1, m2 in latin_pairs(self.rng, self.top)]
            for _ in range(2):
                m1, m2 = self.species_pairs[self.next_species % len(self.species_pairs)]
                self.next_species += 1
                deg, wt = degree(m1) + degree(m2), weight(m1) + weight(m2)
                sizes = [s for s in size_tuples(deg) if sum(s) == deg and weight(s) == wt]
                block.append((m1, m2, sizes))
            yield block

    def run(self, op):
        m1, m2, sizes = op
        with self.tr.span("algebra.mono_star_mono"):
            closed = mono_star_mono(m1, m2)
        with self.tr.span("rewrite.oracle_star"):
            oracle = oracle_star(m1, m2)
        agree = closed == oracle
        counts = []
        for s in sizes or ():
            with self.tr.span("species.star_species"):
                counts.append(star_species(DividedPower(*m1), DividedPower(*m2), s))
        agree = agree and all(v == closed.coefficient(s) for v, s in zip(counts, sizes or ()))
        return agree, counts

    def count(self, op) -> None:
        m1, m2, sizes = op
        c = self.computed
        c["algebra.mono_star_mono.calls"] += 1
        c["algebra.mono_star_mono.assignments"] += assignments(m1, m2)
        c["rewrite.oracle_star.calls"] += 1
        c["rewrite.oracle_star.word_letters"] += degree(m1) + degree(m2)
        c["species_ops"] += sizes is not None
        c["species.star_species.calls"] += len(sizes or ())
        self.note_keys([(m1, m2)])

    def check(self, op, out) -> bool:
        agree, counts = out
        self.observed["species.star_species.nonzero"] += sum(1 for v in counts if v)
        return agree

    def properties(self) -> dict:
        out = super().properties()
        ops = self.computed["rewrite.oracle_star.calls"]
        out["species_op_share"] = self.computed["species_ops"] / ops if ops else 0.0
        return out


RENDERERS = {"json": ("serialize.element_to_json", element_to_json),
             "pretty": ("serialize.pretty", pretty)}

WORKLOADS = {w.name: w for w in (KernelCold, DenseWarm, CliExpr, VerifySweep)}
