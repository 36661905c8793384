"""The benchmark's workloads: seeded inputs, the timed operation and its checks.

A workload builds every input from the seed when it is created; that is the
set-up the benchmark times.  `operations()` then yields `Operation`s one at a
time.  `Operation.run` is the timed part.  `Operation.check` runs untimed,
raises `CheckFailed` when an output is wrong, and returns the output bytes
whose hash is compared with the stored reference.

Library functions are looked up through the `snfc` package and `snfc.cli` at
call time, so the traced run sees every call through its wrappers.

Sizes scale with the length of the pass: each workload does about that many
seconds of work at the reference speed of the machine-speed gauge, at the
commit that defined the benchmark.  A process never repeats a network, so the
library's per-network caches are never hit across operations.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

MAX_TABLE_DEGREE = 8  # binary fields up to GF(2^8) keep a product table

# construct_verify: the criterion-8 loop of the acceptance suite
CV_TAIL_EDGES = 9           # all-parallel single-source networks with 1..9 edges
CV_STATE_CAP = 2048
CV_CONSTRUCT_SEED = 1       # the construction seed of the acceptance suite
# Networks per pass in the (sources, c_min) classes whose few networks carry
# much of a pass's time, about their share of the corpus.  They are built with
# the fixed construction seed, like the slow tail, so the seed does not move them.
CV_PANEL = {(1, 5): 4, (1, 6): 2, (1, 7): 1, (2, 4): 1, (2, 5): 1, (3, 3): 1}
# Networks per second of pass in the cheaper classes, about twice their share
# of the corpus: enough operations to hold the median latency still.
CV_CHEAP_PER_S = {
    (1, 1): 0.3, (1, 2): 1.4, (1, 3): 3.1, (1, 4): 3.5,
    (2, 1): 8.2, (2, 2): 5.7, (2, 3): 1.6,
    (3, 1): 15.9, (3, 2): 2.4,
}

# bound_large: `snfc bound --r 1 --json` on two-source stars
BOUND_EDGES = 200
BOUND_OPS_PER_S = 4.5
BOUND_R = 1

# verify_exhaustive: load_code, then both exhaustive routes
VX_R = 2
VX_STATE_BITS = 12
VX_STATE_CAP = 1 << VX_STATE_BITS
VX_EDGES = (8, 9, 10)
VX_OPS_PER_S = 4.7


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Operation:
    key: str
    run: Callable[[], object]
    check: Callable[[object], bytes]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _parallel_network(n_edges: int) -> dict:
    """The corpus network with one source, no middle nodes and n parallel edges."""
    import snfc

    edges = [(f"e{k}", "s1", "rho") for k in range(1, n_edges + 1)]
    return snfc.make_network(["s1", "rho"], edges, ["s1"], "rho").to_dict()


def _clear_network_caches() -> None:
    """Drop the library's per-network caches that set-up filled.

    Field caches (`snfc.gf`) stay: field tables are a per-process cost that
    set-up pays once, like the import.
    """
    from tracer import snfc_modules

    for module in snfc_modules():
        if module.__name__ == "snfc.gf":
            continue
        for obj in list(vars(module).values()):
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                obj.cache_clear()


class ConstructVerify:
    """construct(net, r, seed) then verify(code, net, cap, fast=r >= 3), for
    every r < c_min of every network.

    Every pass holds the all-parallel single-source networks with up to
    `CV_TAIL_EDGES` edges (the slow tail: every r-subset is a primary set) and
    other distinct corpus networks, a fixed number from each (sources, c_min)
    class.  The networks come from a stream that does not depend on the seed:
    a seeded sample of them moved the median and the tail by a fifth from seed
    to seed, because the latency distribution is steep around its median.  The
    seed sets the order of the operations and draws a construction seed for
    each network outside the slow tail and `CV_PANEL`, which are built
    with the acceptance suite's construction seed.  (One construction seed for
    every network would correlate their costs: `build_reversed_multicast`
    seeds its draws with the seed, the field and the rate only.)
    """

    name = "construct_verify"

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        import snfc
        from snfc.corpus import random_network

        for degree in range(1, MAX_TABLE_DEGREE + 1):
            snfc.make_field(2, degree).mul(1, 1)  # builds the field's product table
        cases = [(_parallel_network(n), CV_CONSTRUCT_SEED) for n in range(1, CV_TAIL_EDGES + 1)]
        seen = {_canonical(doc) for doc, _ in cases}
        wanted = dict(CV_PANEL)
        wanted.update((cls, round(rate * seconds)) for cls, rate in CV_CHEAP_PER_S.items())
        rng = random.Random(f"{self.name}:corpus")
        while any(wanted.values()):
            net = random_network(rng.getrandbits(32))
            cls = (net.num_sources, snfc.c_min(net))
            doc = net.to_dict()
            key = _canonical(doc)
            if wanted.get(cls, 0) > 0 and len(net.nodes) > 2 and key not in seen:
                seen.add(key)
                wanted[cls] -= 1
                cases.append((doc, CV_CONSTRUCT_SEED if cls in CV_PANEL else None))
        _clear_network_caches()
        seeded = random.Random(f"{self.name}:{seed}")
        cases = [(doc, seeded.getrandbits(31) if fixed is None else fixed) for doc, fixed in cases]
        seeded.shuffle(cases)
        self.cases = cases

    def operations(self) -> Iterator[Operation]:
        import snfc

        for index, (doc, construct_seed) in enumerate(self.cases):
            state: dict = {}

            def first_run(doc=doc, construct_seed=construct_seed, state=state):
                # building the network and its c_min is per-network work: time it
                state["net"] = net = snfc.network_from_dict(doc)
                state["c_min"] = snfc.c_min(net)
                return self._construct_verify(net, 0, construct_seed)

            yield Operation(f"{index}:0", first_run, lambda out, state=state: self._check(state["net"], out))
            for r in range(1, state.get("c_min", 1)):  # none when the first operation raised
                net = state["net"]
                yield Operation(
                    f"{index}:{r}",
                    lambda net=net, r=r, construct_seed=construct_seed: self._construct_verify(net, r, construct_seed),
                    lambda out, net=net: self._check(net, out),
                )

    @staticmethod
    def _construct_verify(net, r: int, construct_seed: int):
        import snfc

        code = snfc.construct(net, r, seed=construct_seed)
        return code, snfc.verify(code, net, cap=CV_STATE_CAP, fast=r >= 3)

    @staticmethod
    def _check(net, out) -> bytes:
        import snfc

        code, report = out
        if not report.all_passed:
            raise CheckFailed(f"verify did not pass: {report.to_dict()}")
        if report.secure_exhaustive is not None and report.secure_exhaustive != report.secure_rank:
            raise CheckFailed("the rank and exhaustive security routes disagree")
        return _json_bytes(snfc.code_to_dict(code, net)) + b"\n" + _json_bytes(report.to_dict())


def _star_network(rng: random.Random, n_edges: int) -> dict:
    """Two sources, one layer of hubs, one sink; every hub has an edge from a
    source and an edge to the sink, and the remaining edges (parallel ones
    included) go from a random source to a random hub or from a hub to the sink."""
    hubs = [f"v{i + 1}" for i in range(n_edges // 6)]
    sources = ["s1", "s2"]
    edges: list[dict] = []

    def add(tail: str, head: str) -> None:
        edges.append({"id": f"e{len(edges) + 1}", "tail": tail, "head": head})

    for hub in hubs:
        add(rng.choice(sources), hub)
    for hub in hubs:
        add(hub, "rho")
    while len(edges) < n_edges:
        hub = rng.choice(hubs)
        if rng.random() < 0.5:
            add(rng.choice(sources), hub)
        else:
            add(hub, "rho")
    return {"nodes": sources + hubs + ["rho"], "sources": sources, "sink": "rho", "edges": edges}


class BoundLarge:
    """`snfc bound --network <file> --r 1 --json` through the click entry point,
    in process, on seeded two-source stars written to files during set-up."""

    name = "bound_large"

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        import snfc
        import snfc.cli  # noqa: F401  (the CLI import is part of set-up)
        from click.testing import CliRunner

        rng = random.Random(f"{self.name}:{seed}")
        self.paths = []
        seen = set()
        while len(self.paths) < max(1, round(BOUND_OPS_PER_S * seconds)):
            doc = _star_network(rng, BOUND_EDGES)
            key = _canonical(doc)
            if key in seen:
                continue
            seen.add(key)
            snfc.network_from_dict(doc)  # the generator must only make valid networks
            path = os.path.join(workdir, f"star-{len(self.paths)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.paths.append(path)
        self.runner = CliRunner()

    def operations(self) -> Iterator[Operation]:
        for index, path in enumerate(self.paths):
            yield Operation(str(index), lambda path=path: self._bound(path), self._check)

    def _bound(self, path: str):
        import snfc.cli

        args = ["bound", "--network", path, "--r", str(BOUND_R), "--json"]
        return self.runner.invoke(snfc.cli.main, args, catch_exceptions=True)

    @staticmethod
    def _check(result) -> bytes:
        if result.exception is not None or result.exit_code != 0:
            raise CheckFailed(f"exit {result.exit_code}: {result.exception!r}")
        payload = json.loads(result.stdout_bytes)
        c_min, upper = payload["c_min"], payload["upper"]
        if not max(c_min - BOUND_R, 0) <= upper <= c_min:
            raise CheckFailed(f"upper {upper} outside [max(c_min - r, 0), c_min] for c_min {c_min}")
        if payload["lower"] != max(c_min - BOUND_R, 0):
            raise CheckFailed(f"lower {payload['lower']} is not max(c_min - r, 0)")
        return result.stdout_bytes


class VerifyExhaustive:
    """load_code on a serialized code, then verify(exhaustive=True, cap).

    Set-up draws distinct corpus networks with `VX_EDGES` edges and c_min > 2
    from a stream that does not depend on the seed, and builds one code per
    network at r = 2 over the GF(2^m) that gives exactly 2^12 states, with a
    construction seed drawn from the seed.  Every operation then tabulates
    2^12 states for each of the 37..56 wiretap sets of size <= 2, so operations
    are alike in size on every seed.
    """

    name = "verify_exhaustive"

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        from snfc.corpus import random_network

        networks = random.Random(f"{self.name}:corpus")
        seeded = random.Random(f"{self.name}:{seed}")
        self.cases: list[tuple[str, str]] = []
        seen = set()
        wanted = max(1, round(VX_OPS_PER_S * seconds))
        while len(self.cases) < wanted:
            net = random_network(networks.getrandbits(32))
            key = _canonical(net.to_dict())
            if len(net.edges) in VX_EDGES and key not in seen:
                seen.add(key)
                case = self._build(net, seeded.getrandbits(31))
                if case is not None:
                    self.cases.append(case)
        seeded.shuffle(self.cases)
        _clear_network_caches()

    @staticmethod
    def _build(net, construct_seed: int) -> tuple[str, str] | None:
        import snfc

        cm, s = snfc.c_min(net), net.num_sources
        degree, rest = divmod(VX_STATE_BITS, cm * s)
        if rest or cm <= VX_R or degree > MAX_TABLE_DEGREE:
            return None
        code = snfc.construct(net, VX_R, field=snfc.make_field(2, degree), seed=construct_seed)
        if code.field.m != degree:
            return None  # the construction had to grow the field
        return (
            json.dumps(net.to_dict(), sort_keys=True),
            json.dumps(snfc.code_to_dict(code, net), sort_keys=True),
        )

    def operations(self) -> Iterator[Operation]:
        for index, (net_text, code_text) in enumerate(self.cases):
            yield Operation(
                str(index),
                lambda net_text=net_text, code_text=code_text: self._verify(net_text, code_text),
                self._check,
            )

    @staticmethod
    def _verify(net_text: str, code_text: str):
        import snfc

        net = snfc.parse_network(net_text)
        code = snfc.load_code(code_text, net)
        return net, code, snfc.verify(code, net, exhaustive=True, cap=VX_STATE_CAP)

    @staticmethod
    def _check(out) -> bytes:
        import snfc

        net, code, report = out
        if not report.all_passed:
            raise CheckFailed(f"verify did not pass: {report.to_dict()}")
        if report.secure_exhaustive != report.secure_rank:
            raise CheckFailed("the rank and exhaustive security routes disagree")
        return _json_bytes(snfc.code_to_dict(code, net)) + b"\n" + _json_bytes(report.to_dict())


WORKLOADS = {w.name: w for w in (ConstructVerify, BoundLarge, VerifyExhaustive)}
