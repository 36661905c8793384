"""Unit-capacity cut machinery: minimum cuts, source-side (primary) cuts, residual
graphs, and the two cut statistics that drive every capacity bound.

Every cut comes from one augmenting-path max-flow, `ResidualFlow`.  Its target
is a node or an edge set; each target edge's arc runs from its tail straight
into the super-sink, and a node target stands for its in-edges.  The returned
cut is always the unique minimum cut closest to the origin set: after a maximum
flow, it consists of the edges leaving the set of nodes still reachable from
the origin in the residual graph.

A flow to a node is built once per (network, origin, target) by `node_flow`
and only read after that: `min_cut`, the residual cut of every wiretap set fed
by the same sources, and the all-sources term of c_min_bar all share it.
`cut_without` copies the capacities before it deletes an edge, so sharing is
safe.  Flows to edge sets, such as the one behind each `is_primary` call, are
not kept: there can be one per pair of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import EmptyTarget, InvariantViolated, MalformedInput, TargetInU, UnknownEdge
from .network import Network

INF = 1 << 30


@dataclass(frozen=True)
class CutReport:
    capacity: int
    cut_edges: tuple[str, ...]
    source_side: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "cut": list(self.cut_edges),
            "source_side": list(self.source_side),
        }


@dataclass(frozen=True)
class ResidualNetwork:
    """A network with an edge set deleted; connectivity rules are relaxed."""

    base: Network
    removed: frozenset[str]

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid in self.base.order if eid not in self.removed)


def residual(net: Network, edge_set: Iterable[str]) -> ResidualNetwork:
    return ResidualNetwork(net, frozenset(net.check_edges(edge_set)))


# -- max flow -------------------------------------------------------------------

def _augment(adj: list[list[int]], to: list[int], cap: list[int]) -> tuple[int, set[int]]:
    """BFS augmenting paths from the super-source to the super-sink until none is left.

    Updates cap in place.  Returns the flow added and the node set still
    reachable from the super-source, which the final (failed) search visits.
    """
    total = len(adj)
    s_star, t_star = total - 2, total - 1
    value = 0
    while True:
        parent_arc = [-1] * total
        parent_arc[s_star] = -2
        queue = [s_star]
        while queue:
            nxt = []
            for u in queue:
                for a in adj[u]:
                    v = to[a]
                    if cap[a] > 0 and parent_arc[v] == -1:
                        parent_arc[v] = a
                        nxt.append(v)
            if parent_arc[t_star] != -1:
                break
            queue = nxt
        if parent_arc[t_star] == -1:
            return value, {v for v in range(total) if parent_arc[v] != -1}
        bottleneck = INF
        v = t_star
        while v != s_star:
            a = parent_arc[v]
            bottleneck = min(bottleneck, cap[a])
            v = to[a ^ 1]
        v = t_star
        while v != s_star:
            a = parent_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = to[a ^ 1]
        value += bottleneck


class ResidualFlow:
    """A maximum flow from an origin node set to a target on a unit-capacity
    network, reused for minimum cuts with a small edge set deleted.

    The target is a node or a nonempty set of edge ids.  Each target edge's arc
    runs from its tail straight into the super-sink, so no finite cut puts the
    super-sink on the origin side: the finite cuts and their source sides are
    those of the edge set.  A node target stands for its in-edges.  Edge i of
    `net.order` is arc 2i and its reverse is arc 2i + 1, so the flow on an edge
    is the residual capacity of its reverse; the edges a `ResidualNetwork`
    deletes get no capacity.

    `cut_without(W)` cancels the at most |W| flow units that cross W, then
    re-augments, so it needs at most |W| augmenting paths instead of a maximum
    flow from scratch.  Its report equals that of a flow built from scratch on
    `residual(net, W)` with the same origin and target; `cut_without()` is
    the plain minimum cut.
    """

    def __init__(self, net: Network | ResidualNetwork, origin: Iterable[str], target) -> None:
        base, removed = (net.base, net.removed) if isinstance(net, ResidualNetwork) else (net, frozenset())
        origin = base.check_nodes(origin)
        if not origin:
            raise MalformedInput("the origin set is empty")
        if isinstance(target, str):
            (target,) = base.check_nodes([target])
            if target in origin:
                raise TargetInU(f"target {target!r} is in the origin set")
            targets = {e.id for e in base.in_edges[target]}
        else:
            targets = set(base.check_edges(target))
            if not targets:
                raise EmptyTarget("the target edge set is empty")
        idx = {n: i for i, n in enumerate(base.nodes)}
        s_star, t_star = len(idx), len(idx) + 1
        arcs = [
            (idx[e.tail], t_star if e.id in targets else idx[e.head], 0 if e.id in removed else 1)
            for e in map(base.edge_by_id.__getitem__, base.order)
        ]
        arcs += [(s_star, idx[n], INF) for n in origin]
        self.net = base
        self._adj: list[list[int]] = [[] for _ in range(len(idx) + 2)]
        for i, (u, v, _) in enumerate(arcs):
            self._adj[u].append(2 * i)
            self._adj[v].append(2 * i + 1)
        self._to = [x for u, v, _ in arcs for x in (v, u)]
        self._cap = [x for _, _, c in arcs for x in (c, 0)]
        self.value, self._reach = _augment(self._adj, self._to, self._cap)

    def _drain(self, cap: list[int], x: int, parity: int) -> None:
        """Take one unit of flow off a path from node x back to the super-source
        (parity 1: along reverse arcs) or on to the super-sink (parity 0).

        The network is acyclic, so the walk always ends there."""
        adj, to = self._adj, self._to
        end = len(adj) - 2 + (1 - parity)
        while x != end:
            for a in adj[x]:
                if a & 1 == parity and cap[a | 1] > 0:
                    break
            else:
                raise InvariantViolated(f"flow is not conserved at node {x}")
            cap[a & ~1] += 1
            cap[a | 1] -= 1
            x = to[a]

    def cut_without(self, edge_set: Iterable[str] = ()) -> CutReport:
        """The origin-side minimum cut once the given edges are deleted."""
        cap, value, reach = self._cap, self.value, self._reach
        removed = self.net.check_edges(edge_set)
        if removed:
            cap = cap.copy()
            for eid in removed:
                a = 2 * self.net.order_index[eid]
                if cap[a | 1] > 0:  # the edge carries a unit of flow: cancel it end to end
                    cap[a] += 1
                    cap[a | 1] -= 1
                    self._drain(cap, self._to[a | 1], 1)
                    self._drain(cap, self._to[a], 0)
                    value -= 1
                cap[a] = 0
            added, reach = _augment(self._adj, self._to, cap)
            value += added
        # an edge is cut when it carries flow out of the reachable set
        to = self._to
        cut = sorted(
            eid
            for eid, u, v, flow in zip(self.net.order, to[1::2], to[::2], cap[1::2])
            if u in reach and v not in reach and flow
        )
        if len(cut) != value:
            raise InvariantViolated(f"cut of {len(cut)} edges for a flow of value {value}")
        side = tuple(sorted(n for i, n in enumerate(self.net.nodes) if i in reach))
        return CutReport(value, tuple(cut), side)


# -- cut queries --------------------------------------------------------------------

@lru_cache(maxsize=None)
def node_flow(net: Network | ResidualNetwork, origin: frozenset[str], target: str) -> ResidualFlow:
    """The maximum flow from an origin node set to a target node, built once.

    Callers only read it (`cut_without` copies before it deletes edges).
    """
    return ResidualFlow(net, sorted(origin), target)


def min_cut(net: Network | ResidualNetwork, origin: Iterable[str], target: str) -> CutReport:
    """Minimum-capacity edge cut separating a target node from an origin node set.

    The reported cut is the origin-side one (edges leaving the residual-reachable
    set), which is the unique minimum cut that separates every other minimum cut
    from the origin.
    """
    # unknown nodes are reported in the caller's order, before the flow is looked up
    origin = (net.base if isinstance(net, ResidualNetwork) else net).check_nodes(origin)
    return node_flow(net, frozenset(origin), target).cut_without()


def min_cut_edge_target(
    net: Network | ResidualNetwork, origin: Iterable[str], edge_set: Iterable[str]
) -> CutReport:
    """Minimum cut separating a nonempty edge set from an origin node set.

    Cutting a target edge counts as separating it: in the flow, its arc runs
    from its tail into the super-sink.
    """
    return ResidualFlow(net, origin, tuple(edge_set)).cut_without()


def primary_min_cut(
    net: Network | ResidualNetwork, origin: Iterable[str], target
) -> tuple[str, ...]:
    """The unique origin-side minimum cut; target is a node id or an edge id set."""
    return ResidualFlow(net, origin, target).cut_without().cut_edges


def is_primary(net: Network, edge_set: Iterable[str]) -> bool:
    """An edge set is primary when it equals the origin-side minimum cut
    separating itself from the sources that feed it.

    One max-flow per call.  Primary-set enumeration calls it only to confirm
    candidates of two or more edges; `_primary_edges` finds the primary single
    edges in one pass with no max-flow.
    """
    ids = tuple(sorted(net.check_edges(edge_set)))
    if not ids:
        raise UnknownEdge("primality is defined for nonempty edge sets")
    return min_cut_edge_target(net, sorted(feeding_sources(net, ids)), ids).cut_edges == ids


@lru_cache(maxsize=None)
def _primary_edges(net: Network) -> frozenset[str]:
    """The edges e with {e} primary: those that no other edge dominates.

    {e} is primary exactly when no other edge lies on every path from the
    sources to e, since such an edge would be a one-edge cut nearer the
    sources.  One pass in topological order finds them: dom[v] is the set of
    edges on every source path to v, the intersection over v's in-edges e of
    dom[tail(e)] plus e (Cooper, Harvey and Kennedy, "A Simple, Fast Dominance
    Algorithm", 2001).  Sources have no in-edges and every other node has one,
    so each intersection has a term.
    """
    dom = {s: frozenset() for s in net.sources}
    for v in net.node_order:
        if v not in dom:
            dom[v] = frozenset.intersection(*(dom[e.tail] | {e.id} for e in net.in_edges[v]))
    return frozenset(e.id for e in net.edges if not dom[e.tail])


@lru_cache(maxsize=None)
def _source_reach(net: Network) -> tuple[tuple[str, frozenset[str]], ...]:
    return tuple((s, frozenset(net.nodes_reachable_from([s]))) for s in net.sources)


def feeding_sources(net: Network, edge_set: Iterable[str]) -> frozenset[str]:
    """The sources with a path to some edge of the set."""
    tails = {net.edge_by_id[eid].tail for eid in net.check_edges(edge_set)}
    return frozenset(s for s, reach in _source_reach(net) if not tails.isdisjoint(reach))


# -- the two cut statistics --------------------------------------------------------

@lru_cache(maxsize=None)
def source_cut_reports(net: Network) -> tuple[CutReport, ...]:
    """The minimum cut from each source to the sink, in source order."""
    return tuple(min_cut(net, [s], net.sink) for s in net.sources)


@lru_cache(maxsize=None)
def c_min(net: Network) -> int:
    """Smallest over all sources of the minimum cut capacity to the sink."""
    return min(report.capacity for report in source_cut_reports(net))


@lru_cache(maxsize=None)
def _c_min_bar_report(net: Network) -> tuple[int, tuple[str, ...]]:
    reports = []
    for mask in range(1, 1 << len(net.sources)):
        chosen = [s for i, s in enumerate(net.sources) if mask >> i & 1]
        others = [s for i, s in enumerate(net.sources) if not mask >> i & 1]
        if not others:
            # the sink has no out-edges, so the frontier is its in-edges: the
            # shared flow to the sink gives the same cut
            report = min_cut(net, chosen, net.sink)
        else:
            inside = net.nodes_reachable_from([*others, net.sink])
            frontier = [e.id for e in net.edges if e.tail not in inside and e.head in inside]
            report = min_cut_edge_target(net, chosen, frontier)
        reports.append((report.capacity, report.cut_edges))
    return min(reports)


def c_min_bar(net: Network) -> int:
    """Size of the smallest cut whose feeding sources are exactly the separated ones.

    Found by sweeping nonempty source subsets T.  A cut has feeding = separated
    = T exactly when it separates T from the node set that the other sources
    and the sink reach, and cuts no edge leaving a node of that set.  So for
    each T the smallest one is the edge-target cut of the frontier edges, whose
    tail lies outside the set and whose head lies inside.  Sources have no
    in-edges, so T lies outside the set and the frontier edges themselves are a
    finite cut.
    """
    return _c_min_bar_report(net)[0]


def c_min_bar_witness(net: Network) -> tuple[str, ...]:
    return _c_min_bar_report(net)[1]
