"""Benchmark of the uhsl2 library and CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Every run of a workload is a fresh Python process (worker.py) with a single
caller in a closed loop, so caches start cold as they do for a CLI user.
``--trace 0`` prints the end-to-end metrics: set-up time is the median over
that process and six set-up-only processes.  ``--trace 1`` prints the
per-layer metrics of a traced process, and the tracing overhead against an
untraced process of the same length (each gets half of ``--seconds``).

Each metric is printed as one line with its unit; the full report goes to
perfbench/out/.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--smoke`` shrinks every input so
that all workloads finish in seconds; it is what test_smoke.py runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    """Run worker.py to completion and return the JSON of its last line."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *extra,
            "--spawned-at", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    flags = ["--smoke"] if smoke else []
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    if trace:
        plain = worker(workload, seed, seconds / 2, *flags)
        traced = worker(workload, seed, seconds / 2, *flags, "--trace", "1",
                        "--trace-file", str(OUT / f"{stem}.spans.json"))
        runs = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead.ops_per_s"] = plain["ops_per_s"] - traced["ops_per_s"]
        values["trace.overhead.share"] = 1 - traced["ops_per_s"] / plain["ops_per_s"]
        kind = "per_layer"
    else:
        setups = [worker(workload, seed, seconds, *flags, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        main = worker(workload, seed, seconds, *flags)
        runs = [main]
        setups.append(main["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": main["ops_per_s"],
            "latency_p50_ms": main["latency_p50_ms"],
            "latency_p90_ms": main["latency_p90_ms"],
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_ratio": 1 - main["failed"] / main["attempted"],
        }
        kind = "end_to_end"
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]},
    }
    report = {
        "workload": workload,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "closed_loop": "one caller, next operation after the previous ends",
        "fail_ratio": result["failed"] / result["attempted"],
        "result": result,
        "runs": runs,
    }
    if not trace:
        report["setup_s_samples"] = setups
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(f"{workload}: seed {seed}, {result['attempted']} operations, "
          f"{result['failed']} failed (fail_ratio {report['fail_ratio']:.4f}), "
          f"correct {result['correct']}; report in {OUT / (stem + '.json')}")
    for run in runs:
        print(f"  {'traced' if run['traced'] else 'untraced'} properties: "
              f"{json.dumps(run['properties'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42} {metric['value']:>16.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uhsl2" / "__init__.py").is_file():
        print(f"error: no uhsl2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
                   for name in names}
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
