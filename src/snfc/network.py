"""Directed acyclic networks with multiple sources and one sink.

A network is a DAG together with an ordered list of source nodes (no in-edges)
and a single sink (no out-edges) that every node can reach.  Parsing fixes a
deterministic topological edge order: source out-edges come first, grouped by
source index, and the remaining edges follow the topological order of their
tail nodes with input-file order breaking ties.

Validation records one integer index of the network (`Network._index`): each
node's position in `nodes`, the tail and head positions of every edge, and
each node's out- and in-edges as edge positions in file order.  One pass over
the edges builds it and makes the per-edge checks, in file order.  Everything
derived from the graph reads the index: the topological node order (Kahn's
algorithm on positions: the ready node listed first in `nodes` goes first),
the edge order, the in/out edges and the sink-reach check, and in `cuts` the
reach walks, the flow layouts, the dominator pass and the reports.
The index is a cached property, so a network that is never validated, such as
a `cuts.ResidualNetwork`, builds it on first use.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterable, NamedTuple

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


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


class _Index(NamedTuple):
    """A network by position: node i is `nodes[i]` and edge i is `edges[i]`."""

    position: dict[str, int]       # node -> its position in `nodes`
    edge_position: dict[str, int]  # edge id -> its position in `edges`
    tails: list[int]               # per edge, its tail's position
    heads: list[int]
    outs: list[list[int]]          # per node, its out-edges in file order
    ins: list[list[int]]

    def reachable_from(self, starts: Iterable[int]) -> list[bool]:
        """A flag per node: reachable from a start along edges."""
        return _walk(self.outs, self.heads, starts)

    def reaching(self, targets: Iterable[int]) -> list[bool]:
        """A flag per node: reaches a target along edges."""
        return _walk(self.ins, self.tails, targets)


def _walk(adjacent: list[list[int]], ends: list[int], starts: Iterable[int]) -> list[bool]:
    """The nodes reached from `starts` through each node's `adjacent` edges to their `ends`."""
    seen = [False] * len(adjacent)
    stack = []
    for v in starts:
        if not seen[v]:
            seen[v] = True
            stack.append(v)
    while stack:
        for i in adjacent[stack.pop()]:
            v = ends[i]
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _index_of(net: Network) -> _Index:
    """The network's index, with the checks of the node lists and then of each
    edge in file order: a duplicate id, an unknown end, an edge into a source
    and an edge out of the sink."""
    position = {n: i for i, n in enumerate(net.nodes)}
    if len(position) != len(net.nodes):
        raise MalformedInput("duplicate node ids")
    if not net.sources:
        raise MalformedInput("at least one source is required")
    for s in net.sources:
        if s not in position:
            raise UnknownNode(f"source {s!r} not among nodes")
    if net.sink not in position:
        raise UnknownNode(f"sink {net.sink!r} not among nodes")
    if net.sink in net.sources:
        raise MalformedInput("the sink cannot be a source")
    if len(set(net.sources)) != len(net.sources):
        raise MalformedInput("duplicate sources")
    is_source = [False] * len(position)
    for s in net.sources:
        is_source[position[s]] = True
    sink = position[net.sink]
    tails: list[int] = []
    heads: list[int] = []
    outs: list[list[int]] = [[] for _ in position]
    ins: list[list[int]] = [[] for _ in position]
    edge_position: dict[str, int] = {}
    for i, (eid, tail, head) in enumerate(net.edges):
        if eid in edge_position:
            raise MalformedInput(f"duplicate edge id {eid!r}")
        edge_position[eid] = i
        t, h = position.get(tail), position.get(head)
        if t is None or h is None:
            raise UnknownNode(f"edge {eid!r} references an unknown node")
        if is_source[h]:
            raise SourceHasInEdge(f"edge {eid!r} enters source {head!r}")
        if t == sink:
            raise SinkHasOutEdge(f"edge {eid!r} leaves the sink")
        tails.append(t)
        heads.append(h)
        outs[t].append(i)
        ins[h].append(i)
    return _Index(position, edge_position, tails, heads, outs, ins)


@dataclass(frozen=True, eq=True)
class Network:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]  # input-file order; the tie-breaker for the edge order
    sources: tuple[str, ...]
    sink: str

    # -- derived structure (cached, deterministic) ---------------------------

    @cached_property
    def _memo(self) -> dict:
        """Results of `per_network` functions, freed with this object."""
        return {}

    @cached_property
    def _index(self) -> _Index:
        return _index_of(self)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _topo(self) -> list[int]:
        """Node positions in topological order (Kahn, 1962): each step takes
        the ready node listed first in `nodes`."""
        index = self._index
        heads, indegree = index.heads, list(map(len, index.ins))
        ready = [v for v, d in enumerate(indegree) if not d]  # a heap: ascending
        out: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for i in index.outs[v]:
                h = heads[i]
                indegree[h] -= 1
                if not indegree[h]:
                    heapq.heappush(ready, h)
        if len(out) != len(indegree):
            raise Cycle("graph contains a directed cycle")
        return out

    @cached_property
    def _ordered(self) -> list[int]:
        """Edge positions in `order`: each tail's out-edges in file order, the
        sources' in source order, then the other nodes' in topological order."""
        position, outs = self._index.position, self._index.outs
        first = [position[s] for s in self.sources]
        return [i for v in [*first, *(v for v in self._topo if v not in first)] for i in outs[v]]

    @cached_property
    def order(self) -> tuple[str, ...]:
        """The topological edge order used to index every vector and matrix."""
        edges = self.edges
        return tuple(edges[i].id for i in self._ordered)

    @cached_property
    def order_index(self) -> dict[str, int]:
        return dict(zip(self.order, range(len(self.order))))

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        # a tail's out-edges keep file order in `order`
        edges = self.edges
        return {n: tuple(edges[i] for i in out) for n, out in zip(self.nodes, self._index.outs)}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        edges, heads = self.edges, self._index.heads
        ins: list[list[Edge]] = [[] for _ in self.nodes]
        for i in self._ordered:
            ins[heads[i]].append(edges[i])
        return dict(zip(self.nodes, map(tuple, ins)))

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def check_edges(self, ids: Iterable[str]) -> tuple[str, ...]:
        ids = tuple(ids)
        for eid in ids:
            if eid not in self._index.edge_position:
                raise UnknownEdge(f"edge {eid!r} does not exist")
        return ids

    def check_nodes(self, ids: Iterable[str]) -> tuple[str, ...]:
        ids = tuple(ids)
        for n in ids:
            if n not in self._index.position:
                raise UnknownNode(f"node {n!r} does not exist")
        return ids

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "sources": list(self.sources),
            "sink": self.sink,
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in self.edges],
        }


def per_network(fn):
    """Memoise fn(net, *args) on the network object: freed with it, not shared with equal ones."""

    @wraps(fn)
    def memoised(net: Network, *args):
        memo, key = net._memo, (fn, *args)
        if key not in memo:
            memo[key] = fn(net, *args)  # a call that raises stores nothing
        return memo[key]

    return memoised


def make_network(nodes, edges, sources, sink) -> Network:
    """Validate and build a Network; edges may be Edge objects or (id, tail, head)."""
    built = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
    return _validate(Network(tuple(nodes), built, tuple(sources), sink))


def _validate(net: Network) -> Network:
    index = net._index  # the node lists, then each edge in file order
    net._topo  # raises Cycle on failure
    sink = index.position[net.sink]
    for v, ins in enumerate(index.ins):
        if not ins and v != sink and net.nodes[v] not in net.sources:
            raise MalformedInput(f"node {net.nodes[v]!r} has no in-edges but is not a source")
    reaches = index.reaching([sink])
    if not all(reaches):
        raise UnreachableSink(f"node {net.nodes[reaches.index(False)]!r} has no path to the sink")
    return net


def network_from_dict(doc: dict) -> Network:
    try:
        nodes, sources, sink = doc["nodes"], doc["sources"], doc["sink"]
        if not (isinstance(nodes, list) and isinstance(sources, list)):
            raise MalformedInput("nodes and sources must be JSON arrays")
        nodes, sources = [str(n) for n in nodes], [str(s) for s in sources]
        if not isinstance(sink, str):
            raise MalformedInput("sink must be a node id string")
        edges = [Edge(str(e["id"]), str(e["tail"]), str(e["head"])) for e in doc["edges"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise MalformedInput(f"bad network document: {exc}") from None
    return make_network(nodes, edges, sources, sink)


def _json_object(text, kind: str) -> dict:
    """Decode `text` (str or bytes) as one JSON object; anything else is MalformedInput."""
    try:
        doc = json.loads(text)
    # ValueError: bad JSON, bad UTF-8, or an int literal past the interpreter's digit limit
    except (ValueError, RecursionError, TypeError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput(f"{kind} document must be a JSON object")
    return doc


def parse_network(text: bytes | str) -> Network:
    return network_from_dict(_json_object(text, "network"))


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
