"""Directed acyclic networks with multiple sources and one sink.

A network is a DAG together with an ordered list of source nodes (no in-edges)
and a single sink (no out-edges) that every node can reach.  Parsing fixes a
deterministic topological edge order: source out-edges come first, grouped by
source index, and the remaining edges follow the topological order of their
tail nodes with input-file order breaking ties.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    AllZeroFunction,
    Cycle,
    MalformedInput,
    SinkHasOutEdge,
    SourceHasInEdge,
    UnknownEdge,
    UnknownNode,
    UnreachableSink,
    ValidationFailure,
)
from .gf import Field


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True, eq=True)
class Network:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]  # input-file order; the tie-breaker for the edge order
    sources: tuple[str, ...]
    sink: str

    # -- derived structure (cached, deterministic) ---------------------------

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # per-network caches key on the network; hash its edges only once
        return hash((self.nodes, self.edges, self.sources, self.sink))

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def node_order(self) -> tuple[str, ...]:
        """Topological node order: sources first (in listed order), then by readiness."""
        position = {n: i for i, n in enumerate(self.nodes)}
        indegree = {n: 0 for n in self.nodes}
        succ: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            indegree[e.head] += 1
            succ[e.tail].append(e.head)
        ready = [position[n] for n in self.nodes if indegree[n] == 0]  # a heap of positions
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            n = self.nodes[heapq.heappop(ready)]
            out.append(n)
            for h in succ[n]:
                indegree[h] -= 1
                if indegree[h] == 0:
                    heapq.heappush(ready, position[h])
        if len(out) != len(self.nodes):
            raise Cycle("graph contains a directed cycle")
        return tuple(out)

    @cached_property
    def order(self) -> tuple[str, ...]:
        """The topological edge order used to index every vector and matrix."""
        file_pos = {e.id: i for i, e in enumerate(self.edges)}
        node_pos = {n: i for i, n in enumerate(self.node_order)}
        head: list[str] = []
        for s in self.sources:
            head.extend(e.id for e in self.edges if e.tail == s)
        rest = [e.id for e in self.edges if e.tail not in set(self.sources)]
        rest.sort(key=lambda eid: (node_pos[self.edge_by_id[eid].tail], file_pos[eid]))
        return tuple(head + rest)

    @cached_property
    def order_index(self) -> dict[str, int]:
        return {eid: i for i, eid in enumerate(self.order)}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for eid in self.order:
            e = self.edge_by_id[eid]
            out[e.tail].append(e)
        return {n: tuple(v) for n, v in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for eid in self.order:
            e = self.edge_by_id[eid]
            out[e.head].append(e)
        return {n: tuple(v) for n, v in out.items()}

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def check_edges(self, ids: Iterable[str]) -> tuple[str, ...]:
        ids = tuple(ids)
        for eid in ids:
            if eid not in self.edge_by_id:
                raise UnknownEdge(f"edge {eid!r} does not exist")
        return ids

    def check_nodes(self, ids: Iterable[str]) -> tuple[str, ...]:
        ids = tuple(ids)
        known = set(self.nodes)
        for n in ids:
            if n not in known:
                raise UnknownNode(f"node {n!r} does not exist")
        return ids

    # -- traversal -------------------------------------------------------------

    def nodes_reachable_from(self, starts: Iterable[str]) -> set[str]:
        seen = set(starts)
        stack = list(seen)
        while stack:
            n = stack.pop()
            for e in self.out_edges[n]:
                if e.head not in seen:
                    seen.add(e.head)
                    stack.append(e.head)
        return seen

    def nodes_reaching(self, targets: Iterable[str]) -> set[str]:
        seen = set(targets)
        stack = list(seen)
        while stack:
            n = stack.pop()
            for e in self.in_edges[n]:
                if e.tail not in seen:
                    seen.add(e.tail)
                    stack.append(e.tail)
        return seen

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "sources": list(self.sources),
            "sink": self.sink,
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in self.edges],
        }


def make_network(nodes, edges, sources, sink) -> Network:
    """Validate and build a Network; edges may be Edge objects or (id, tail, head)."""
    built = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
    net = Network(tuple(nodes), built, tuple(sources), sink)
    _validate(net)
    return net


def _validate(net: Network) -> None:
    names = set(net.nodes)
    if len(names) != len(net.nodes):
        raise MalformedInput("duplicate node ids")
    if not net.sources:
        raise MalformedInput("at least one source is required")
    for s in net.sources:
        if s not in names:
            raise UnknownNode(f"source {s!r} not among nodes")
    if net.sink not in names:
        raise UnknownNode(f"sink {net.sink!r} not among nodes")
    if net.sink in net.sources:
        raise MalformedInput("the sink cannot be a source")
    if len(set(net.sources)) != len(net.sources):
        raise MalformedInput("duplicate sources")
    seen_ids = set()
    for e in net.edges:
        if e.id in seen_ids:
            raise MalformedInput(f"duplicate edge id {e.id!r}")
        seen_ids.add(e.id)
        if e.tail not in names or e.head not in names:
            raise UnknownNode(f"edge {e.id!r} references an unknown node")
        if e.head in net.sources:
            raise SourceHasInEdge(f"edge {e.id!r} enters source {e.head!r}")
        if e.tail == net.sink:
            raise SinkHasOutEdge(f"edge {e.id!r} leaves the sink")
    net.node_order  # raises Cycle on failure
    heads = {e.head for e in net.edges}
    for n in net.nodes:
        if n not in heads and n not in net.sources and n != net.sink:
            raise MalformedInput(f"node {n!r} has no in-edges but is not a source")
    can_reach_sink = net.nodes_reaching([net.sink])
    for n in net.nodes:
        if n != net.sink and n not in can_reach_sink:
            raise UnreachableSink(f"node {n!r} has no path to the sink")


def network_from_dict(doc: dict) -> Network:
    try:
        nodes = [str(n) for n in doc["nodes"]]
        sources = [str(s) for s in doc["sources"]]
        sink = doc["sink"]
        if not isinstance(sink, str):
            raise MalformedInput("sink must be a node id string")
        edges = [Edge(str(e["id"]), str(e["tail"]), str(e["head"])) for e in doc["edges"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise MalformedInput(f"bad network document: {exc}") from None
    return make_network(nodes, edges, sources, sink)


def parse_network(text: bytes | str) -> Network:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput("network document must be a JSON object")
    return network_from_dict(doc)


# -- linear-function preprocessing ---------------------------------------------

def reduce_linear_to_sum(
    net: Network, coeffs, field: Field
) -> tuple[Network, dict[str, int]]:
    """Drop sources whose target-function coefficient is zero.

    Computing sum(a_i * m_i) over the original network is equivalent to computing
    the plain sum over the reduced network with x_i = a_i * m_i at each surviving
    source; the returned map records those nonzero scalings.
    """
    coeffs = [c % field.q for c in coeffs]
    if len(coeffs) != net.num_sources:
        raise ValidationFailure(f"expected {net.num_sources} coefficients, got {len(coeffs)}")
    if all(c == 0 for c in coeffs):
        raise AllZeroFunction("the target function is constant")
    kept = {s: c for s, c in zip(net.sources, coeffs) if c != 0}
    if len(kept) == len(net.sources):
        return net, kept
    dropped = {s for s in net.sources if s not in kept}
    edges = [e for e in net.edges if e.tail not in dropped]
    nodes = [n for n in net.nodes if n not in dropped]
    try:
        reduced = make_network(nodes, edges, [s for s in net.sources if s in kept], net.sink)
    except Exception as exc:
        raise ValidationFailure(f"network invalid after source removal: {exc}") from exc
    return reduced, kept
