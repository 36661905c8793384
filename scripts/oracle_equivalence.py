#!/usr/bin/env python3
"""Compare the graph-theoretic upper bound, and any exact capacity it reports,
against the exhaustive oracle on a corpus of random networks, c_min_bar against
the smallest cut whose every edge only separated sources feed (from the
oracle's cut statistics), and the primary wiretap sets against a brute-force
enumeration (every edge set filtered by `is_primary`); report timing and the
number of reports for each exactness reason.

Usage: python scripts/oracle_equivalence.py [--count 200] [--seed 20000] [--rmax 2]
"""

import argparse
import itertools
import time
from collections import Counter

from snfc import c_min_bar, is_primary, primary_wiretap_sets, upper_bound, upper_bound_oracle
from snfc.bounds import _oracle_cut_stats
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
        ids = sorted(net.edge_by_id)
        bar, brute_bar = c_min_bar(net), min(size for size, avail in _oracle_cut_stats(net) if avail == size)
        if bar != brute_bar:
            mismatches += 1
            print(f"MISMATCH seed={args.seed + offset}: c_min_bar={bar} brute force={brute_bar}")
        for r in range(args.rmax + 1):
            brute = sorted(
                c for k in range(r + 1) for c in itertools.combinations(ids, k) if not c or is_primary(net, c)
            )
            if primary_wiretap_sets(net, r) != brute:
                mismatches += 1
                print(f"MISMATCH seed={args.seed + offset} r={r}: primary wiretap sets differ from the brute force")
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
        f"{checked} bound, {checked} primary-set and {args.count} c_min_bar comparisons over {args.count} networks: "
        f"{mismatches} mismatches in {dt:.1f}s"
    )
    print("exactness reasons: " + ", ".join(f"{k} {v}" for k, v in sorted(reasons.items())))
    raise SystemExit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
