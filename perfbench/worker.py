"""One fresh process running one workload in a closed loop.

Started by run.py, never imported.  It prints one JSON object as its last
line of output.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --spawned-at NS [--setup-only] [--smoke]

``--spawned-at`` is the CLOCK_MONOTONIC reading, in nanoseconds, that the
parent took just before starting this process; set-up time runs from there
to the first timed operation and so includes interpreter start and import.
A single caller runs the operations one after another.  Each operation is
timed on its own; output checks and input generation run between them,
outside the timed region.  The loop ends at the first block boundary after
``--seconds`` of timed work, and never before the workload's ``min_ops``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from uhsl2 import algebra, shifted_elem  # noqa: E402
from uhsl2.species import ascending_maps_count  # noqa: E402


def cache_info(fn) -> dict | str:
    """Public lru_cache counters, or "absent" once a function has none."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return "absent"
    return info()._asdict()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


def latency_figures(latencies: list[float], failed: list[bool]) -> dict:
    """p50/p90 in ms.  A failed operation ranks above every success, and
    reads at least as slow as the slowest success."""
    slowest_ok = max((t for t, f in zip(latencies, failed) if not f), default=0.0)
    ranked = sorted((f, max(t, slowest_ok) if f else t) for t, f in zip(latencies, failed))
    values = [t for _f, t in ranked]
    return {"latency_p50_ms": 1e3 * percentile(values, 50),
            "latency_p90_ms": 1e3 * percentile(values, 90)}


def layer_metrics(wl, tracer) -> tuple[dict, dict]:
    """The per-layer figures of one traced run (zero where a layer is idle)."""
    spans = tracer.totals()
    c = wl.computed + wl.observed

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def share(num, den):
        return num / den if den else 0.0

    se = shifted_elem.cache_info()
    am = ascending_maps_count.cache_info()
    mono_time = span("algebra.mono_star_mono", "time_s")
    assignments = c["algebra.mono_star_mono.assignments"]
    evaluated = c["algebra.star.pairs"] - c["algebra.star.pairs_capped"]
    return {
        "combinatorics.shifted_elem.hits": se.hits,
        "combinatorics.shifted_elem.misses": se.misses,
        "combinatorics.shifted_elem.currsize": se.currsize,
        "algebra.mono_star_mono.calls": c["algebra.mono_star_mono.calls"],
        "algebra.mono_star_mono.time_s": mono_time,
        "algebra.mono_star_mono.assignments": assignments,
        "algebra.mono_star_mono.terms_out": c["algebra.mono_star_mono.terms_out"],
        "algebra.mono_star_mono.useful_ratio": share(c["algebra.mono_star_mono.terms_out"], assignments),
        "algebra.mono_star_mono.us_per_assignment": share(1e6 * mono_time, assignments),
        "algebra.star.calls": c["algebra.star.calls"],
        "algebra.star.time_s": span("algebra.star", "time_s"),
        "algebra.star.pairs": c["algebra.star.pairs"],
        "algebra.star.pairs_capped": c["algebra.star.pairs_capped"],
        "algebra.star.distinct_pairs": len(wl.seen_keys) if c["algebra.star.calls"] else 0,
        "algebra.star.pair_repeat_share": share(c["kernel_key_repeats"], evaluated) if evaluated else 0.0,
        "algebra.star.terms_out": c["algebra.star.terms_out"],
        "expressions.parse.time_s": span("expressions.parse", "time_s"),
        "expressions.evaluate.time_s": span("expressions.evaluate", "time_s"),
        "serialize.element_to_json.time_s": span("serialize.element_to_json", "time_s"),
        "serialize.element_to_json.bytes": c["serialize.element_to_json.bytes"],
        "serialize.pretty.time_s": span("serialize.pretty", "time_s"),
        "serialize.pretty.bytes": c["serialize.pretty.bytes"],
        "cli.process.wall_s": span("cli.process", "time_s"),
        "cli.process.self_s": span("cli.process", "self_s"),
        "cli.import_s": wl.import_seconds(),
        "rewrite.oracle_star.calls": c["rewrite.oracle_star.calls"],
        "rewrite.oracle_star.time_s": span("rewrite.oracle_star", "time_s"),
        "rewrite.oracle_star.word_letters": c["rewrite.oracle_star.word_letters"],
        "species.star_species.calls": c["species.star_species.calls"],
        "species.star_species.time_s": span("species.star_species", "time_s"),
        "species.star_species.nonzero_share": share(c["species.star_species.nonzero"],
                                                    c["species.star_species.calls"]),
        "species.ascending_maps_count.hits": am.hits,
        "species.ascending_maps_count.currsize": am.currsize,
        "bench.op.self_s": span("bench.op", "self_s"),
    }, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload](args.seed, args.smoke, tracer)
    blocks = wl.blocks()
    block = next(blocks)
    wl.warm_up()
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned_at) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    who = resource.RUSAGE_CHILDREN if wl.uses_children_rss else resource.RUSAGE_SELF
    latencies: list[float] = []
    failed: list[bool] = []
    errors: dict[str, int] = {}
    wrong = 0
    busy = 0.0
    peak_rss_mb = None
    while True:
        for op in block:
            tracer.request = len(latencies)
            wl.count(op)
            start = time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    out = wl.run(op)
            except Exception as exc:  # a failing operation is a result, not a crash
                elapsed = time.perf_counter() - start
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                ok = False
            else:
                elapsed = time.perf_counter() - start
                ok = wl.check(op, out)
                wrong += not ok
            if args.trace:
                wl.replay(op)
            busy += elapsed
            latencies.append(elapsed)
            failed.append(not ok)
        if peak_rss_mb is None and len(latencies) >= wl.min_ops:
            # peak memory after a fixed amount of work, so a faster program
            # that fits more operations in the same time is not charged for it
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        if busy >= args.seconds and peak_rss_mb is not None:
            break
        block = next(blocks)

    ops = len(latencies)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "attempted": ops,
        "failed": sum(failed),
        "wrong_outputs": wrong,
        "errors": errors,
        "busy_s": busy,
        "ops_per_s": ops / busy,
        **latency_figures(latencies, failed),
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_scope": "children" if wl.uses_children_rss else "self",
        "computed": dict(sorted(wl.computed.items())),
        "observed": dict(sorted(wl.observed.items())),
        "properties": wl.properties(),
        "caches": {
            "combinatorics.shifted_elem": cache_info(shifted_elem),
            "species.ascending_maps_count": cache_info(ascending_maps_count),
            "algebra._mono_star": cache_info(getattr(algebra, "_mono_star", None)),
        },
    }
    if args.trace:
        report["layers"], report["spans"] = layer_metrics(wl, tracer)
        if args.trace_file:
            tracer.write(args.trace_file)
    # checks that need more library calls run last, so they touch neither
    # the timings nor the cache and span figures above
    report["post_check_failures"] = wl.post_checks()
    report["correct"] = wrong == 0 and report["post_check_failures"] == 0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
