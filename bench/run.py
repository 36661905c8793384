#!/usr/bin/env python3
"""The snfc benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `snfc` from `src/` there.
Workloads, metrics and bounds are declared in `BENCHMARK.json`; `bench/NOTES.md`
says why each workload exists and what each per-layer metric should move.

With `--trace 0` three fresh processes each set up and run the same list of
operations, sized for a third of `--seconds`.  Every latency and set-up time
is scaled by a machine-speed gauge read around it (see `bench/NOTES.md`); an
operation's latency is then its median over the three passes, and `setup_s`
the median set-up.  The last line of standard output is the end-to-end
result.  With `--trace 1` the same list runs untraced and then traced, each
in a fresh process, and the last line holds the per-layer metrics.  The line
before the last gives the environment (Python version, CPU count and model),
the tail percentile and sample count, `failed_ratio`, the first failures and
the unscaled figures.  A fuller record, with every operation's latencies, the
gauge readings and the output digests, goes to
`.bench_out/<workload>-seed<N>-trace<T>.json`.

Every operation's output is hashed and compared with `bench/reference.json`
when that file holds the seed.  `correct` is false when any operation raised,
failed its checks, differed from the reference or was not run in time.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = tuple(workloads.WORKLOADS)
PASSES = 3              # fresh processes per untraced run, each over the same operations
TOTAL_BUDGET_S = 165.0  # the whole command, every child included
ENV_STATE_CAP = "SNFC_MAX_EXHAUSTIVE"
GAUGE_REFERENCE_S = 0.0022  # the gauge on the 2-core Xeon the bounds were set on, when idle
GAUGE_WINDOW = 3            # gauge readings taken on each side of an operation to scale it


class BenchError(Exception):
    pass


def _child(args, mode: str, workdir: str, deadline: float) -> dict:
    budget = deadline - time.monotonic()
    if budget <= 1:
        raise BenchError(f"no time left for the {mode} process")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / PASSES),
        "--mode", mode, "--workdir", workdir, "--budget", f"{budget - 5:.1f}",
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} process did not finish in {budget:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the {mode} process exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"the {mode} process printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _tail(latencies_s: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten operations beyond
    it, and that percentile; with ten or fewer operations, the maximum."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _reference(workload: str, seed: int) -> dict[str, str] | None:
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_latencies(passes: list[dict], scaled: bool) -> list[float]:
    """Each operation's latency, as its median over the passes.

    Scaled, a latency is multiplied by GAUGE_REFERENCE_S over the median of
    the GAUGE_WINDOW gauge readings on either side of the operation.
    """
    samples: dict[str, list[float]] = {}
    for raw in passes:
        positions = [position for position, _ in raw["gauges_s"]]
        readings = [reading for _, reading in raw["gauges_s"]]
        for i, (key, latency) in enumerate(zip(raw["keys"], raw["latencies_s"])):
            if scaled:
                after = bisect.bisect_right(positions, i)
                window = readings[max(0, after - GAUGE_WINDOW) : after + GAUGE_WINDOW]
                latency *= GAUGE_REFERENCE_S / statistics.median(window)
            samples.setdefault(key, []).append(latency)
    return [statistics.median(values) for values in samples.values()]


def _failures(passes: list[dict], reference: dict[str, str] | None) -> tuple[list[str], int, int]:
    """Every pass's failures, its digests that differ from the reference or
    from the first pass, and the counts of digests checked and unreferenced."""
    failures: list[str] = []
    checked = unreferenced = 0
    first = passes[0]["digests"]
    for number, raw in enumerate(passes, 1):
        failures += [f"pass {number}: {f}" for f in raw["failures"]]
        for key, value in raw["digests"].items():
            if first.get(key, value) != value:
                failures.append(f"pass {number}: {key}: output digest {value} differs from pass 1")
            expected = None if reference is None else reference.get(key)
            if expected is None:
                unreferenced += 1
            elif expected != value:
                failures.append(f"pass {number}: {key}: output digest {value} differs from the reference {expected}")
            else:
                checked += 1
    return failures, checked, unreferenced


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + TOTAL_BUDGET_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    passes = []
    try:
        modes = ["measure", "trace"] if args.trace else ["measure"] * PASSES
        for left, mode in zip(range(len(modes), 0, -1), modes):
            share = time.monotonic() + (deadline - time.monotonic()) / left
            passes.append(_child(args, mode, workdir, share))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, checked, unreferenced = _failures(passes, _reference(args.workload, args.seed))
    attempted = sum(len(raw["latencies_s"]) + raw["skipped"] for raw in passes)
    measured = passes[-1:] if args.trace else passes
    latencies = _median_latencies(measured, scaled=True)
    busy = sum(latencies)
    tail_s, tail_pct = _tail(latencies) if latencies else (0.0, 0.0)
    unscaled = _median_latencies(measured, scaled=False)

    if args.trace:
        untraced, traced = passes
        metrics = {name: _metric(value, _layer_unit(name)) for name, value in traced["layers"].items()}
        untraced_busy = sum(_median_latencies([untraced], scaled=True))
        metrics["trace.overhead_ratio"] = _metric(busy / untraced_busy if untraced_busy else 0.0, "ratio")
        metrics["trace.untraced_share"] = _metric(traced["untraced_share"], "ratio")
    else:
        setups = [raw["setup_s"] * GAUGE_REFERENCE_S / raw["setup_gauge_s"] for raw in passes]
        metrics = {
            "ops_per_s": _metric(len(latencies) / busy if busy else 0.0, "1/s"),
            "op_p50_ms": _metric(statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
            "op_tail_ms": _metric(tail_s * 1e3, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(raw["peak_rss_mb"] for raw in passes), "MB"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "op_tail_ms": {"percentile": tail_pct, "samples": len(latencies)},
        "failed_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "setup_samples_s": [raw["setup_s"] for raw in passes],
        "unscaled": {
            "ops_per_s": len(unscaled) / sum(unscaled) if unscaled else 0.0,
            "op_p50_ms": statistics.median(unscaled) * 1e3 if unscaled else 0.0,
            "op_tail_ms": _tail(unscaled)[0] * 1e3 if unscaled else 0.0,
            "gauge_median_s": statistics.median(g for raw in passes for _, g in raw["gauges_s"]),
        },
        "digests_checked": checked,
        "digests_unreferenced": unreferenced,
    }
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(info, result=result, digests=passes[0]["digests"], spans=passes[-1].get("spans"),
                  passes=[{k: raw[k] for k in ("keys", "latencies_s", "gauges_s")} for raw in passes])
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return info, result


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if ENV_STATE_CAP in os.environ:
        print(f"refusing to run with {ENV_STATE_CAP} set: the benchmark passes every cap itself",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "snfc", "__init__.py")):
        print(f"no snfc sources under {ROOT}/src: run the benchmark from a full checkout",
              file=sys.stderr)
        return 2
    try:
        info, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
