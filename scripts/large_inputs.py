#!/usr/bin/env python3
"""Time `snfc bound --json` on large networks and hold its outputs to recorded digests.

Each case runs `snfc bound --network <file> --r R --json` through `cli.main`
(click's test runner, in process, as the `bound_large` benchmark workload
does) on every network of the case, written to a temporary file first.  The
networks are the tests' own builders in `tests/cases.py`:

- `bound_large-r1` and `bound_large-r2`: the first seed-1 `bound_large` stars
  (`bound_large_stars`), 200 edges each, at r = 1 and 2;
- `star400-r1` and `star800-r1`: `two_source_star(s, n)` for s = 0..2, with
  400 and 800 edges, at r = 1;
- `star100-r3`: `two_source_star(s, 100)` for s = 0..3, at r = 3.

Per case it prints the best CPU time of `--repeat` runs over the case's
networks, the sha256 of their outputs (one after another) and whether that
digest is the one recorded in DIGESTS, which were taken on the tree before
`network.Network` kept its position index.  The exit status is 1 when any
digest differs, else 0.

With `--against DIR`, each run of every case alternates between the tree at DIR
and this one, each in a fresh process importing `snfc` from its own `src/`,
for PAIRS pairs, the side that runs first alternating; a line per pair gives
both times, and a last line per case the median of each side and the pairs
this tree won.

Usage: PYTHONPATH=src python scripts/large_inputs.py [--repeat 3]
       python scripts/large_inputs.py --against DIR [--repeat 3]
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# case -> (r, its networks from the `tests/cases.py` module)
CASES = {
    "bound_large-r1": (1, lambda cases: cases.bound_large_stars(1, 20)),
    "bound_large-r2": (2, lambda cases: cases.bound_large_stars(1, 4)),
    "star400-r1": (1, lambda cases: [cases.two_source_star(s, 400) for s in range(3)]),
    "star800-r1": (1, lambda cases: [cases.two_source_star(s, 800) for s in range(3)]),
    "star100-r3": (3, lambda cases: [cases.two_source_star(s, 100) for s in range(4)]),
}

# sha256 of each case's outputs
DIGESTS = {
    "bound_large-r1": "3a5010b559226d6426102d22fc5ba492dfeff6b140ee5cf5c2feee1d173c5946",
    "bound_large-r2": "392566bdbee25d770b07a15128410826dbffe3023fb8b1782cb5c5062cfb47c9",
    "star400-r1": "4e05f326fd1973c50cfc7eed273095dff5c55d3694130f2fc35d9e89375847c8",
    "star800-r1": "5d2c3def7616d72aea40c7952e160156f8287d00b71bb98dcf57a587e92905bb",
    "star100-r3": "46ee558443a94eefcf7bf89318f64a6ececb4f4cc26de59188375122fd961494",
}

PAIRS = 10  # alternating runs of each tree with --against


def run_cases(repeat: int) -> dict:
    """{case: (best CPU seconds, sha256 of the outputs)} with `snfc` as imported."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import cases
    from click.testing import CliRunner

    import snfc.cli

    runner = CliRunner()
    results = {}
    with tempfile.TemporaryDirectory(prefix="large-inputs-") as workdir:
        for name, (r, networks) in CASES.items():
            paths = []
            for k, net in enumerate(networks(cases)):
                paths.append(os.path.join(workdir, f"{name}-{k}.json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(net.to_dict(), fh)
            args = [["bound", "--network", path, "--r", str(r), "--json"] for path in paths]
            best, digest = float("inf"), None
            for _ in range(repeat):
                start = time.process_time()
                outputs = [runner.invoke(snfc.cli.main, a, catch_exceptions=False).stdout_bytes for a in args]
                best = min(best, time.process_time() - start)
                digest = hashlib.sha256(b"".join(outputs)).hexdigest()
            results[name] = (best, digest)
    return results


def run_tree(tree: str, repeat: int) -> dict:
    """`run_cases` in a fresh process importing `snfc` from `tree`'s src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    command = [sys.executable, os.path.abspath(__file__), "--repeat", str(repeat), "--json"]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise SystemExit(f"{tree}: no output (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(name: str, digest: str) -> str:
    return "ok" if digest == DIGESTS[name] else f"MISMATCH (recorded {DIGESTS[name][:16]})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=3, help="runs per case; the best CPU time is kept")
    ap.add_argument("--against", metavar="DIR", help="a tree to run in alternating pairs with this one")
    ap.add_argument("--json", action="store_true", help="print one JSON line of results instead")
    args = ap.parse_args()

    if args.against is None:
        results = run_cases(args.repeat)
        if args.json:
            print(json.dumps(results))
            return 0
        for name, (best, digest) in results.items():
            print(f"{name:16s} {best * 1e3:8.1f} ms  {digest[:16]}  {verdict(name, digest)}")
        return 0 if all(digest == DIGESTS[name] for name, (_, digest) in results.items()) else 1

    failures = 0
    times: dict = {name: ([], []) for name in CASES}
    for i in range(PAIRS):
        order = (args.against, ROOT) if i % 2 == 0 else (ROOT, args.against)
        results = [run_tree(tree, args.repeat) for tree in order]
        other, this = results if i % 2 == 0 else results[::-1]
        for name in CASES:
            (t_other, d_other), (t_this, d_this) = other[name], this[name]
            times[name][0].append(t_other)
            times[name][1].append(t_this)
            failures += d_other != DIGESTS[name] or d_this != DIGESTS[name]
            print(f"pair {i}  {name:16s} {t_other * 1e3:8.1f} -> {t_this * 1e3:8.1f} ms  "
                  f"{verdict(name, d_other)} / {verdict(name, d_this)}", flush=True)
    for name, (t_other, t_this) in times.items():
        won = sum(b < a for a, b in zip(t_other, t_this))
        print(f"{name:16s} median {statistics.median(t_other) * 1e3:8.1f} -> {statistics.median(t_this) * 1e3:8.1f} ms, "
              f"this tree won {won} of {len(t_this)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
