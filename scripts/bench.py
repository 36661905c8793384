#!/usr/bin/env python3
"""Run the benchmark's workloads once each and record the results in
BENCH_<pr>.json at the root of the checkout.

The workloads and the run length are read from BENCHMARK.json (`workloads[].name`,
`run_seconds`), so no declared workload is left out.  Each runs as
`python3 bench/run.py --workload W --seed 1 --seconds S`, one after another, so
every BENCH file compares like with like.  The file keeps
the last line of each run (the end-to-end result), the line before it (the
environment), the git tree id of the `src/` the runs measured, whether `src/`
or `bench/` held uncommitted changes, and the Python version.  The tree id, not
a commit id, names the measured code: a BENCH file committed together with the
change it measures cannot name its own commit, while the tree id stays valid
when the file is added or amended into that commit.  Exits 1 when a run fails
or reports `correct: false`.

Usage: python3 scripts/bench.py --pr N
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    record = {
        "src_tree": _git("rev-parse", "HEAD:src"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "python": platform.python_version(),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        cmd = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(declared["run_seconds"])]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode or len(lines) < 2:
            sys.stderr.write(run.stderr)
            raise SystemExit(f"{workload}: bench/run.py exited {run.returncode}")
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        record["workloads"][workload] = {"result": result, "info": info}
        ok = ok and result.get("correct") is True
        print(workload, json.dumps(result, sort_keys=True), flush=True)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
