"""Run one workload in this fresh process and print its raw result as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE
                            --workdir DIR --budget SECONDS

S is the length of this process's pass over the operations; the workload
sizes its inputs for about that much work.  MODE is `measure` (run every
operation) or `trace` (the same operations with every layer span recorded).
Set-up is timed from before `import snfc` to the end of input generation, and
the machine-speed gauge is read before and after it and around the operations.
`bench/run.py` starts this process, with `src/` on the path; nothing here is
meant to be run by hand.  The process is single-threaded: the library has no
threads, queues or locks, so no layer waits on another.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GAUGE_EVERY_S = 0.05  # read the machine-speed gauge before an operation at most this often


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work with the dict, tuple and
    list traffic the library makes: a gauge of how fast the machine runs now."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + 1
        tuple([x ^ (i & 15) for x in key])
    sorted(counts.items(), key=lambda item: item[1])
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--budget", type=float, required=True, help="stop starting operations after this")
    args = ap.parse_args()
    started = time.monotonic()

    from workloads import WORKLOADS, CheckFailed, digest

    setup_gauge = calibrate()
    setup_start = time.perf_counter()
    import snfc

    if not os.path.abspath(snfc.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"snfc was imported from {snfc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    setup_s = time.perf_counter() - setup_start
    setup_gauge = (setup_gauge + calibrate()) / 2

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
        missed = tracer.unwrapped_bindings()
        if missed:
            tracer.uninstall()
            print(f"tracer missed bindings: {missed}", file=sys.stderr)
            return 2
        tracer.active = False  # spans are recorded only inside the timed region

    keys: list[str] = []
    latencies: list[float] = []
    gauges: list[tuple[int, float]] = []  # (index of the next operation, reading)
    gauged_at = -GAUGE_EVERY_S
    digests: dict[str, str] = {}
    failures: list[str] = []
    skipped = 0
    clock = time.perf_counter
    gc.collect()
    for op in workload.operations():
        if time.monotonic() - started > args.budget:
            skipped += 1
            failures.append(f"{op.key}: not run, the time budget ran out")
            continue
        if clock() - gauged_at >= GAUGE_EVERY_S:
            gauges.append((len(keys), calibrate()))
            gauged_at = clock()
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed one; keep going
            out, error = None, exc
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.active = False
        keys.append(op.key)
        if error is not None:
            failures.append(f"{op.key}: {type(error).__name__}: {error}")
            continue
        try:
            digests[op.key] = digest(op.check(out))
        except CheckFailed as exc:
            failures.append(f"{op.key}: {exc}")
        except Exception:
            failures.append(f"{op.key}: check raised {traceback.format_exc(limit=3)}")

    result = {
        "setup_s": setup_s,
        "setup_gauge_s": setup_gauge,
        "keys": keys,
        "latencies_s": latencies,
        "gauges_s": gauges + [(len(keys), calibrate())],
        "skipped": skipped,
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["untraced_share"] = tracer.untraced_share(sum(latencies))
        result["spans"] = tracer.span_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
