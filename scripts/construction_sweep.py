#!/usr/bin/env python3
"""Build secure codes across a random-network corpus at every feasible security
level, verify each one, and summarize field sizes and outcomes.

Each code's copy without its mixing matrix (B = I), which usually leaks, is
checked by the rank and the exhaustive route too, where its states fit under
the cap; the two must report the same verdict and the same first failing
wiretap set.  Exits 1 on a failed verification or a disagreement.

Usage: python scripts/construction_sweep.py [--count 60] [--seed 20000]
"""

import argparse
import collections
import time

from snfc import Matrix, c_min, check_exhaustive, check_security_rank, construct, verify
from snfc.codes import SecureCode
from snfc.corpus import corpus
from snfc.errors import RateInfeasible


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=60)
    ap.add_argument("--seed", type=int, default=20_000)
    ap.add_argument("--cap", type=int, default=2048, help="exhaustive-check state cap")
    args = ap.parse_args()

    t0 = time.monotonic()
    by_field = collections.Counter()
    built = infeasible = failures = exhaustive_runs = 0
    unmixed_checked = unmixed_leaking = disagreements = 0
    for net in corpus(args.count, base_seed=args.seed):
        cm = c_min(net)
        for r in range(cm + 1):
            try:
                code = construct(net, r, seed=args.seed)
            except RateInfeasible:
                infeasible += 1
                continue
            built += 1
            by_field[code.field.spec_string()] += 1
            report = verify(code, net, cap=args.cap, fast=r >= 3)
            if report.secure_exhaustive is not None:
                exhaustive_runs += 1
            if not report.all_passed:
                failures += 1
                print(f"FAILURE at r={r}: {report.to_dict()}")
            if code.field.q ** (code.rate * net.num_sources) <= args.cap:
                unmixed = SecureCode(code.base, code.r, Matrix.identity(code.field, code.rate))
                rank = check_security_rank(unmixed, net, fast=r >= 3)
                exhaustive = check_exhaustive(unmixed, net, fast=r >= 3, cap=args.cap)[1:]
                unmixed_checked += 1
                unmixed_leaking += not rank[0]
                if rank != exhaustive:
                    disagreements += 1
                    print(f"DISAGREEMENT at r={r} with B = I: rank {rank}, exhaustive {exhaustive}")
    dt = time.monotonic() - t0
    print(f"built {built} codes ({infeasible} zero-rate requests) in {dt:.1f}s")
    print(f"fields used: {dict(sorted(by_field.items()))}")
    print(f"verification failures: {failures}; exhaustive check ran {exhaustive_runs} times")
    print(
        f"B = I copies checked by both routes: {unmixed_checked} ({unmixed_leaking} leaking); "
        f"route disagreements: {disagreements}"
    )
    raise SystemExit(1 if failures or disagreements else 0)


if __name__ == "__main__":
    main()
