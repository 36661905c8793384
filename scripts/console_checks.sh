#!/usr/bin/env bash
# The installed console script end to end: build codes with `snfc construct` and check
# them with `snfc verify` over GF(2^m), GF(3), GF(3^2), GF(2^9), GF(3^10) and GF(2^16),
# then two refusals of `snfc bound`.  Every command runs the `snfc` and `python` found
# on PATH, in a new temporary directory; `python` must import the same `snfc` package.
# The script stops at the first failing command.
#
#     python -m pip install . && bash scripts/console_checks.sh
set -e
snfc example butterfly --r 1 --json
# four parallel edges from one source at r = 2: every 2-edge view fills its pair space
cd "$(mktemp -d)"
python -c 'import json; json.dump({"nodes": ["s", "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"e{k}", "tail": "s", "head": "t"} for k in range(1, 5)]}, open("parallel4.json", "w"))'
snfc construct --network parallel4.json --r 2 --out parallel4-code.json
snfc verify --network parallel4.json --code parallel4-code.json --r 2 --exhaustive --json
# over GF(3) the run test's last chunk of runs is short (q^r = 9, 81 states)
snfc construct --network parallel4.json --r 2 --field 3 --out parallel4-gf3.json
snfc verify --network parallel4.json --code parallel4-gf3.json --r 2 --exhaustive --json > gf3.json
python -c 'import json, sys; sys.exit(json.load(open("gf3.json"))["secure_exhaustive"] is not True)'
# r = 1 over GF(3) from the start: the mixing scan's digit arithmetic at odd p (3^4 = 81 candidates)
snfc construct --network parallel4.json --r 1 --field 3 --out parallel4-gf3-r1.json
snfc verify --network parallel4.json --code parallel4-gf3-r1.json --r 1 --fast --json > gf3-r1.json
python -c 'import json, sys; d = json.load(open("gf3-r1.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
# ten parallel edges at r = 1: GF(2)^10 is exactly SCAN_CAP candidates, and the scan's mask
# fills at column 9; the walk fails at GF(4) too, and GF(8) admits the code
python -c 'import json; json.dump({"nodes": ["s", "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"e{k}", "tail": "s", "head": "t"} for k in range(1, 11)]}, open("parallel10.json", "w"))'
snfc construct --network parallel10.json --r 1 --field 2 --out parallel10-code.json --json > parallel10-built.json
python -c 'import json, sys; sys.exit(json.load(open("parallel10-built.json"))["field"] != "2^3")'
snfc verify --network parallel10.json --code parallel10-code.json --r 1 --fast --json > parallel10-verify.json
python -c 'import json, sys; d = json.load(open("parallel10-verify.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
# the mixing walk over packed rows (odd p): seven parallel edges at r = 3 over GF(3),
# 3^7 = 2,187 candidates, beyond the scan's cap
python -c 'import json; json.dump({"nodes": ["s", "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"e{k}", "tail": "s", "head": "t"} for k in range(1, 8)]}, open("parallel7.json", "w"))'
snfc construct --network parallel7.json --r 3 --field 3 --out parallel7-gf3.json
snfc verify --network parallel7.json --code parallel7-gf3.json --r 3 --fast --json > parallel7-verify.json
python -c 'import json, sys; d = json.load(open("parallel7-verify.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
# nine parallel edges at r = 5: every 5-edge set is a primary set of source out-edges,
# confirmed with no max-flow; the construction (seed 0) ends at GF(2^6)
python -c 'import json; json.dump({"nodes": ["s", "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"e{k}", "tail": "s", "head": "t"} for k in range(1, 10)]}, open("parallel9.json", "w"))'
snfc construct --network parallel9.json --r 5 --out parallel9-code.json --json > parallel9-built.json
python -c 'import json, sys; sys.exit(json.load(open("parallel9-built.json"))["field"] != "2^6")'
snfc verify --network parallel9.json --code parallel9-code.json --r 5 --fast --json > parallel9-verify.json
python -c 'import json, sys; d = json.load(open("parallel9-verify.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
# and over q > 256: GF(2^9)^4 on four parallel edges at r = 2
snfc construct --network parallel4.json --r 2 --field 2^9 --out parallel4-gf512.json
snfc verify --network parallel4.json --code parallel4-gf512.json --r 2 --fast --json > parallel4-gf512-verify.json
python -c 'import json, sys; d = json.load(open("parallel4-gf512-verify.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
# the log/antilog build beyond 256 elements, once per field: GF(3^10) (odd p) and GF(2^16)
timeout 60 snfc construct --network parallel4.json --r 2 --field 3^10 --out parallel4-gf59049.json
timeout 60 snfc verify --network parallel4.json --code parallel4-gf59049.json --r 2 --fast --json > parallel4-gf59049-verify.json
python -c 'import json, sys; d = json.load(open("parallel4-gf59049-verify.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
timeout 60 snfc construct --network parallel4.json --r 2 --field 2^16 --out parallel4-gf65536.json
timeout 60 snfc verify --network parallel4.json --code parallel4-gf65536.json --r 2 --fast --json > parallel4-gf65536-verify.json
python -c 'import json, sys; d = json.load(open("parallel4-gf65536-verify.json")); sys.exit(not (d["computable"] and d["secure_rank"] and d["bound_consistent"]))'
# six parallel edges at r = 2 over GF(3^2): 9^6 = 531,441 states, summed through the addition table
python -c 'import json; json.dump({"nodes": ["s", "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"e{k}", "tail": "s", "head": "t"} for k in range(1, 7)]}, open("parallel6.json", "w"))'
snfc construct --network parallel6.json --r 2 --field 3^2 --out parallel6-gf9.json
timeout 60 snfc verify --network parallel6.json --code parallel6-gf9.json --r 2 --exhaustive --json > gf9.json
python -c 'import json, sys; sys.exit(json.load(open("gf9.json"))["secure_exhaustive"] is not True)'
# with no exhaustive pass, computability is read off the unit inputs
SNFC_MAX_EXHAUSTIVE=0 snfc verify --network parallel4.json --code parallel4-code.json --r 2 --json > skip.json
python -c 'import json, sys; d = json.load(open("skip.json")); sys.exit(not (d["computable"] is True and d["secure_exhaustive"] is None))'
# over GF(2^9) a one-edge view has q^r = 512 > 256 keys, so the Counter rule settles it (2^18 states)
python -c 'import json; json.dump({"nodes": ["s", "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"e{k}", "tail": "s", "head": "t"} for k in (1, 2)]}, open("parallel2.json", "w"))'
snfc construct --network parallel2.json --r 1 --field 2^9 --out parallel2-gf512.json
snfc verify --network parallel2.json --code parallel2-gf512.json --r 1 --exhaustive --json > gf512.json
python -c 'import json, sys; sys.exit(json.load(open("gf512.json"))["secure_exhaustive"] is not True)'
# GF(2^8) scales through its product table, built from a generator's powers (2^16 states)
snfc construct --network parallel2.json --r 1 --field 2^8 --out parallel2-gf256.json
snfc verify --network parallel2.json --code parallel2-gf256.json --r 1 --exhaustive --json > gf256.json
python -c 'import json, sys; sys.exit(json.load(open("gf256.json"))["secure_exhaustive"] is not True)'
# the same field under x^8+x^4+x^3+x+1, where x is no generator, reached through load_code
python -c 'import snfc; f = snfc.make_field(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)); net = snfc.parse_network(open("parallel2.json").read()); snfc.save_code("parallel2-aes.json", snfc.construct(net, 1, field=f), net)'
snfc verify --network parallel2.json --code parallel2-aes.json --r 1 --exhaustive --json > aes.json
python -c 'import json, sys; sys.exit(json.load(open("aes.json"))["secure_exhaustive"] is not True)'
# three 4-edge chains from one source at r = 2 with --fast: the primary sets tap only
# some edges, and the pass keeps every edge's column (4^3 = 64 states)
python -c 'import json; json.dump({"nodes": ["s", *(f"{c}{k}" for c in "abc" for k in (1, 2, 3)), "t"], "sources": ["s"], "sink": "t", "edges": [{"id": f"{c}{k}", "tail": f"{c}{k - 1}" if k > 1 else "s", "head": f"{c}{k}" if k < 4 else "t"} for c in "abc" for k in (1, 2, 3, 4)]}, open("chains3.json", "w"))'
snfc construct --network chains3.json --r 2 --field 2^2 --out chains3-code.json
snfc verify --network chains3.json --code chains3-code.json --r 2 --fast --exhaustive --json > chains3.out.json
python -c 'import json, sys; sys.exit(json.load(open("chains3.out.json"))["secure_exhaustive"] is not True)'
# node and source lists must be JSON arrays: a string is not read as its characters
python -c 'import json; json.dump({"nodes": "st", "sources": ["s"], "sink": "t", "edges": [{"id": "e", "tail": "s", "head": "t"}]}, open("nodes-string.json", "w"))'
status=0; snfc bound --network nodes-string.json --r 0 --json > nodes-string-bound.json || status=$?
test "$status" -eq 1
python -c 'import json, sys; sys.exit(json.load(open("nodes-string-bound.json"))["error"] != "MalformedInput")'
# a 40-source star has 2^40 - 1 source subsets: c_min_bar refuses them before any flow
python -c 'import json; s = [f"s{i}" for i in range(1, 41)]; json.dump({"nodes": [*s, "h", "t"], "sources": s, "sink": "t", "edges": [{"id": "e0", "tail": "h", "head": "t"}] + [{"id": f"e{u}{v}", "tail": u, "head": v} for u in s for v in ("h", "t")]}, open("star40.json", "w"))'
status=0; timeout 60 snfc bound --network star40.json --r 1 --json > star40-bound.json || status=$?
test "$status" -eq 1
python -c 'import json, sys; sys.exit(json.load(open("star40-bound.json"))["error"] != "TooLarge")'
