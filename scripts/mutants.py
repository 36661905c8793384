#!/usr/bin/env python3
"""Apply each named mutant to a temporary copy of the tree and check that the
tests named with it fail.

A mutant is a textual patch: a file, old text that must occur in it exactly
once, new text, and the test files expected to fail once the old text is
replaced (DeMillo, Lipton and Sayward, "Hints on Test Data Selection", 1978).
Each mutant runs alone on a fresh copy of src/, tests/ and pyproject.toml,
with pytest stopping at the first failure.  The unpatched copy runs every
named file first and must pass them all.  A mutant is then killed when a test
fails on it (pytest exit 1) or its run times out, and survives when its tests
all pass.  Any other exit, such as an error while collecting (exit 2), names
no test that caught the mutant, so it counts as a failure of the harness, not
a kill.  One line is printed per run, with its verdict, how the run ended and
its time.

The exit status is 1 when the unpatched copy fails, when a mutant survives or
ends any other way than a failed test or a time-out, or when a mutant's old
text no longer occurs exactly once (the code it guarded moved: update the
patch); else 0.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300  # per run: a mutant that makes a test loop forever counts as killed


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "Kahn's order breaks ties in queue order, not by lowest position",
        "src/snfc/network.py",
        """            v = heapq.heappop(ready)
            out.append(v)
            for i in index.outs[v]:
                h = heads[i]
                indegree[h] -= 1
                if not indegree[h]:
                    heapq.heappush(ready, h)""",
        """            v = ready.pop(0)
            out.append(v)
            for i in index.outs[v]:
                h = heads[i]
                indegree[h] -= 1
                if not indegree[h]:
                    ready.append(h)""",
        ("tests/test_network.py",),
    ),
    Mutant(
        "the validation's sink walk follows successors, not predecessors",
        "src/snfc/network.py",
        "reaches = index.reaching([sink])",
        "reaches = index.reachable_from([sink])",
        ("tests/test_network.py",),
    ),
    Mutant(
        "the cut report takes BFS level 0 for unreachable",
        "src/snfc/cuts.py",
        "reached = [d >= 0 for d in level]",
        "reached = [d > 0 for d in level]",
        ("tests/test_cuts.py",),
    ),
    Mutant(
        "the int-column walk XORs a tap's column unscaled",
        "src/snfc/gf.py",
        'acc ^= from_bytes(cols[idx].translate(rows[c]), "little")',
        'acc ^= from_bytes(cols[idx], "little")',
        ("tests/test_gf.py",),
    ),
    Mutant(
        "the walk by combination reads every coefficient as 1",
        "src/snfc/gf.py",
        "combination([(coefficients[pos], cols[idx]) for idx, pos in taps], width)",
        "combination([(1, cols[idx]) for idx, pos in taps], width)",
        ("tests/test_gf.py",),
    ),
    Mutant(
        "the addition table moves each digit down rather than up",
        "src/snfc/gf.py",
        "shifts = [(bytes(range(d, p)) + bytes(range(d)))",
        "shifts = [(bytes(range(p - d, p)) + bytes(range(p - d)))",
        ("tests/test_gf.py",),
    ),
    Mutant(
        "reaches stops when the rank needed equals the vectors left",
        "src/snfc/gf.py",
        "if not need or need > left:",
        "if not need or need >= left:",
        ("tests/test_gf.py",),
    ),
    Mutant(
        "the draws' reject set is one value short",
        "src/snfc/codes.py",
        "bytes(range(q << (8 - k), 256))",
        "bytes(range((q << (8 - k)) + 1, 256))",
        ("tests/test_codes.py",),
    ),
    Mutant(
        "c_min_bar stops at a subset whose floor ties the best",
        "src/snfc/cuts.py",
        "if best and floor > best[0]:",
        "if best and floor >= best[0]:",
        ("tests/test_cuts.py",),
    ),
    Mutant(
        "the sweep's skip bound forgets that deleting W lowers a cut by |W|",
        "src/snfc/bounds.py",
        "max(map(caps.get, feeding)) - len(wiretap) >= best.capacity",
        "max(map(caps.get, feeding)) >= best.capacity",
        ("tests/test_bounds.py",),
    ),
    Mutant(
        "the sweep confirms primality before its skip tests",
        "src/snfc/bounds.py",
        """            feeding = feeding_sources(net, wiretap)
            if max(map(caps.get, feeding)) - len(wiretap) >= best.capacity:
                continue
            flow = node_flow(net, feeding, net.sink)
            if flow.value - flow._carried(wiretap) >= best.capacity:
                continue
            if len(wiretap) > 1 and not is_primary(net, wiretap):
                continue
""",
        """            if len(wiretap) > 1 and not is_primary(net, wiretap):
                continue
            feeding = feeding_sources(net, wiretap)
            if max(map(caps.get, feeding)) - len(wiretap) >= best.capacity:
                continue
            flow = node_flow(net, feeding, net.sink)
            if flow.value - flow._carried(wiretap) >= best.capacity:
                continue
""",
        ("tests/test_bounds.py",),
    ),
    Mutant(
        "the sweep never confirms primality",
        "src/snfc/bounds.py",
        "if len(wiretap) > 1 and not is_primary(net, wiretap):",
        "if False:",
        ("tests/test_bounds.py",),
    ),
    Mutant(
        "the oracle's feeding walk skips the edges into nodes it has seen",
        "src/snfc/bounds.py",
        """                feeders[ei] |= 1 << si
                if head not in seen:
""",
        """                if head not in seen:
                    feeders[ei] |= 1 << si
""",
        ("tests/test_bounds.py",),
    ),
    Mutant(
        "the run test accepts repeated keys",
        "src/snfc/verify.py",
        "return all(p.translate(bytes.maketrans(p, ident[: len(p)])) == ident[: len(p)] for p in pieces)",
        "return True",
        ("tests/test_verify.py",),
    ),
]


# pytest's exit status (None: timed out) -> the verdict and how the run ended
VERDICTS = {
    0: ("survived", "every test passed"),
    1: ("killed", "a test failed"),
    2: ("harness", "collection error"),
    None: ("killed", "timed out"),
}


def copy_tree(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(tests, mutant: Mutant | None = None) -> tuple[int | None, str]:
    """pytest's exit status on `tests` in a fresh copy of the tree with `mutant`
    applied (None when the run timed out), and the tail of its output.  A mutant
    whose old text does not occur exactly once raises LookupError."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        copy_tree(tree)
        if mutant is not None:
            path = os.path.join(tree, mutant.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            count = text.count(mutant.old)
            if count != 1:
                raise LookupError(f"the old text occurs {count} times in {mutant.path}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
    return proc.returncode, (proc.stdout + proc.stderr)[-3000:]


def main() -> int:
    # the unpatched tree must pass every named file, or a failing mutant proves nothing
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    start = time.perf_counter()
    status, output = run_tests(tests)
    print(f"{time.perf_counter() - start:6.1f} s  {'passed' if status == 0 else 'FAILED':<8}  the tree as it is: {' '.join(tests)}")
    if status != 0:
        print(output)
        return 1
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            status, output = run_tests(mutant.tests, mutant)
        except LookupError as exc:
            verdict, ending, output = "stale", "old text not found once", str(exc)
        else:
            verdict, ending = VERDICTS.get(status, ("harness", f"pytest exit {status}"))
        print(f"{time.perf_counter() - start:6.1f} s  {verdict:<8}  {mutant.name} ({ending})", flush=True)
        if verdict != "killed":
            failures += 1
            print(f"          {output.splitlines()[-1] if output else ''}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
