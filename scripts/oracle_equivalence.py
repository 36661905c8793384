#!/usr/bin/env python3
"""Compare the graph-theoretic upper bound, and any exact capacity it reports,
against the exhaustive oracle on a corpus of random networks, and report timing
and the number of reports for each exactness reason.

Usage: python scripts/oracle_equivalence.py [--count 200] [--seed 20000] [--rmax 2]
"""

import argparse
import time
from collections import Counter

from snfc import upper_bound, upper_bound_oracle
from snfc.corpus import corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20_000)
    ap.add_argument("--rmax", type=int, default=2)
    ap.add_argument("--max-edges", type=int, default=12)
    args = ap.parse_args()

    t0 = time.monotonic()
    checked = mismatches = 0
    reasons = Counter()
    for offset, net in enumerate(corpus(args.count, base_seed=args.seed, max_edges=args.max_edges)):
        for r in range(args.rmax + 1):
            report = upper_bound(net, r)
            slow = upper_bound_oracle(net, r)
            checked += 1
            reasons[report.exact.reason if report.exact else "none"] += 1
            if report.upper != slow or (report.exact is not None and report.exact.value != slow):
                mismatches += 1
                print(
                    f"MISMATCH seed={args.seed + offset} r={r}: "
                    f"bound={report.upper} exact={report.exact} oracle={slow}"
                )
    dt = time.monotonic() - t0
    print(
        f"{checked} comparisons over {args.count} networks: "
        f"{mismatches} mismatches in {dt:.1f}s"
    )
    print("exactness reasons: " + ", ".join(f"{k} {v}" for k, v in sorted(reasons.items())))
    raise SystemExit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
