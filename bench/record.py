#!/usr/bin/env python3
"""Store the output digests of finished benchmark runs as the reference.

    python3 bench/record.py .bench_out/construct_verify-seed1-trace0.json [...]

Each file is a record that `bench/run.py` wrote.  Only runs without failures
are taken, and a stored digest is never replaced: a run whose digest differs
from the stored one stops the command with an error and changes nothing.
"""

from __future__ import annotations

import json
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    added = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record["failures"]:
            print(f"{path}: the run had failures; not recorded", file=sys.stderr)
            return 1
        stored = reference["digests"].setdefault(record["workload"], {}).setdefault(str(record["seed"]), {})
        for key, value in record["digests"].items():
            if stored.get(key, value) != value:
                print(f"{path}: operation {key} digest {value} differs from the stored {stored[key]}",
                      file=sys.stderr)
                return 1
            added += key not in stored
            stored[key] = value
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {added} new operation digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
