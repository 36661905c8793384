"""Unit-capacity cut machinery: minimum cuts, source-side (primary) cuts, residual
graphs, and the two cut statistics that drive every capacity bound.

Everything here runs on the network's position index (`Network._index`): node
i is `net.nodes[i]`, an edge is its position in `net.edges`, and the walks,
the dominator pass and the flows read positions, not names.  Every cut comes
from a max-flow on unit arcs, laid out by one builder, `_arcs`, by blocking
flows out of the origin nodes (`_augment`).  Every flow to a node
runs to the node itself on the network's one shared layout (`_layout`), writing
only its own capacities; a flow to an edge set has a layout of its own, where
each target edge's arc runs from its tail straight into a super-sink, except a
c_min_bar frontier term: a copy of a one-source flow to the sink, resumed with
the frontier's arcs pointed at the sink (`ResidualFlow._to_frontier`).  The
returned cut is always the unique minimum cut closest to the origin set: the
edges leaving the set of nodes still reachable from the origin in the residual
graph of a maximum flow, which are the nodes the flow's last (failed) BFS
levelled.

A flow to a node lives in the network's memo (`network.per_network`), one per
(origin, target), and is only read after `node_flow` builds it: `min_cut`, c_min,
the residual cut of every wiretap set fed by the same sources, and the c_min_bar
terms all share it.  `cut_without` copies the capacities before it
deletes an edge, so sharing is safe.  Flows to edge sets are not kept: there
can be one per pair of edges.  The one behind an `is_primary` call holds only
the arcs upstream of the set, and a set of source out-edges needs none.  No
flow refers to its network, so a network and its memo are freed by reference
counting alone.  The sources feeding an edge set are those among the nodes that
reach its tails, one backward walk over the index.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Collection, Iterable

from .errors import EmptyTarget, InvariantViolated, MalformedInput, TargetInU, TooLarge, UnknownEdge
from .network import Network, per_network


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


@dataclass(frozen=True, eq=False)
class ResidualNetwork(Network):
    """A network with an edge set deleted: its edges are the kept ones, in the
    base's file order.  Connectivity rules are relaxed, so it is not validated:
    its position index is built on first use."""

    base: Network
    removed: frozenset[str]


def residual(net: Network, edge_set: Iterable[str]) -> ResidualNetwork:
    removed = frozenset(net.check_edges(edge_set))
    kept = tuple(e for e in net.edges if e.id not in removed)
    return ResidualNetwork(net.nodes, kept, net.sources, net.sink, net, removed)


# -- max flow -------------------------------------------------------------------

def _augment(
    adj: list[list[int]], to: list[int], cap: list[int], origin: tuple[int, ...], sink: int
) -> tuple[int, list[int]]:
    """Blocking flows on unit arcs (Dinitz, 1970) from the origin nodes to the
    sink node, phase by phase, until the sink is out of reach.  The sink is a
    node target itself, or the super-sink of an edge-target layout.

    A phase levels the nodes by BFS from the origin, up to the sink's level,
    then a DFS moves one unit along each path that climbs one level per arc.
    A node's current arc is an iterator over its arcs, so no arc is tried
    twice in a phase; a dead end, with no arc left, loses its level.  No
    search leaves the sink, so its out-edges never carry flow.

    Updates cap in place.  Returns the flow added and the final (failed)
    BFS's levels: a node is still reachable from the origin exactly when its
    level is not -1.
    """
    value = 0
    while True:
        level = [-1] * len(adj)
        for o in origin:
            level[o] = 0
        queue, depth = origin, 0
        while queue and level[sink] == -1:
            depth += 1
            nxt = []
            for u in queue:
                for a in adj[u]:
                    if cap[a] and level[v := to[a]] == -1:
                        level[v] = depth
                        nxt.append(v)
            queue = nxt
        if level[sink] == -1:
            return value, level
        for v in queue:  # no path to the sink runs through its own level
            level[v] = -1
        level[sink] = depth
        current = list(map(iter, adj))
        for o in origin:
            path, u = [], o  # the arcs from o to u
            while True:
                for a in current[u]:
                    if cap[a] and level[to[a]] == level[u] + 1:
                        break
                else:  # a dead end
                    level[u] = -1
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    continue
                path.append(a)
                u = to[a]
                if u == sink:  # each arc's unit moves to its reverse
                    for a in path:
                        cap[a], cap[a ^ 1] = 0, 1
                    value += 1
                    path, u = [], o


def _arcs(net: Network, edges: Iterable[int], targets: Collection[int] = ()) -> tuple[list[list[int]], list[int]]:
    """Each node's arcs and each arc's head, for the given edges (positions in
    `net.edges`; node i is `net.nodes[i]`): the k-th edge is arc 2k, from its
    tail to its head or, for a target edge, to the super-sink (node
    len(net.nodes)); arc 2k + 1 is its reverse.  A flow on it starts from
    `[1, 0] * (number of edges)` as its residual capacities."""
    index, sink = net._index, len(net.nodes)
    tails, heads = index.tails, index.heads
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    for k, i in enumerate(edges):
        u, v = tails[i], sink if i in targets else heads[i]
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
        to += (v, u)
    return adj, to


@per_network
def _layout(net: Network) -> tuple[list[list[int]], list[int]]:
    """The arcs of every edge of `net.order` to its head, shared by every flow
    to a node; each flow writes only its own capacities."""
    return _arcs(net, net._ordered)


class ResidualFlow:
    """A maximum flow from an origin node set to a target on a unit-capacity
    network, reused for minimum cuts with a small edge set deleted.

    The target is a node or a nonempty set of edge ids.  A node target is its
    own sink on the network's shared layout (`_layout`).  Only an edge target
    has a layout of its own, where each target edge's arc runs from its tail
    straight into the super-sink, so no finite cut puts the super-sink on the
    origin side: the finite cuts and their source sides are those of the edge
    set.  Edge i of `net.order` is arc 2i and its reverse is arc 2i + 1
    (`_arcs`), so the flow on an edge is the residual capacity (0 or 1)
    of its reverse.  It keeps the network's cached node and edge orders, not
    the network.

    `cut_without(W)` cancels the at most |W| flow units that cross W, then
    re-augments from that flow, so it moves at most |W| units instead of a
    maximum flow from scratch.  Its report equals that of a flow built from
    scratch on `residual(net, W)` with the same origin and target;
    `cut_without()` is the plain minimum cut.
    """

    def __init__(self, net: Network, origin: Iterable[str], target) -> None:
        origin = net.check_nodes(origin)
        if not origin:
            raise MalformedInput("the origin set is empty")
        position = net._index.position
        if isinstance(target, str):
            (target,) = net.check_nodes([target])
            if target in origin:
                raise TargetInU(f"target {target!r} is in the origin set")
            self._adj, self._to = _layout(net)
            self._sink = position[target]
        else:
            targets = net.check_edges(target)
            if not targets:
                raise EmptyTarget("the target edge set is empty")
            self._adj, self._to = _arcs(net, net._ordered, {net._index.edge_position[eid] for eid in targets})
            self._sink = len(net.nodes)
        self._nodes, self._order, self._index = net.nodes, net.order, net.order_index
        self._origin = tuple(dict.fromkeys(position[n] for n in origin))
        self._cap = [1, 0] * len(self._order)
        self.value, self._level = _augment(self._adj, self._to, self._cap, self._origin, self._sink)

    def _drain(self, cap: list[int], x: int, parity: int) -> None:
        """Take one unit of flow off a path from node x back to an origin with no
        flow-carrying in-edge (parity 1: along reverse arcs) or on to the sink
        (parity 0).  The network is acyclic, so the walk ends there."""
        adj, to = self._adj, self._to
        while x != self._sink:
            for a in adj[x]:
                if a & 1 == parity and cap[a | 1]:
                    break
            else:
                if parity and x in self._origin:
                    return
                raise InvariantViolated(f"flow is not conserved at node {x}")
            cap[a & ~1], cap[a | 1] = 1, 0
            x = to[a]

    def cut_without(self, edge_set: Iterable[str] = ()) -> CutReport:
        """The origin-side minimum cut once the given edges are deleted; the
        units they carried come back, where they can, in one more `_augment`."""
        cap, value, level = self._cap, self.value, self._level
        removed = tuple(edge_set)
        if removed:
            cap = cap.copy()
            for eid in removed:
                if eid not in self._index:
                    raise UnknownEdge(f"edge {eid!r} does not exist")
                a = 2 * self._index[eid]
                if cap[a | 1]:  # the edge carries a unit of flow: cancel it end to end
                    self._drain(cap, self._to[a | 1], 1)
                    self._drain(cap, self._to[a], 0)
                    value -= 1
                cap[a] = cap[a | 1] = 0
            added, level = _augment(self._adj, self._to, cap, self._origin, self._sink)
            value += added
        # the last BFS reached a node exactly when it gave it a level
        reached = [d >= 0 for d in level]
        # an edge is cut when it carries flow out of the reachable set
        to = self._to
        cut = sorted(
            self._order[i]
            for i in compress(range(len(self._order)), cap[1::2])
            if reached[to[2 * i + 1]] and not reached[to[2 * i]]
        )
        if len(cut) != value:
            raise InvariantViolated(f"cut of {len(cut)} edges for a flow of value {value}")
        return CutReport(value, tuple(cut), tuple(sorted(compress(self._nodes, reached))))

    def _carried(self, edge_set: Iterable[str]) -> int:
        """How many of the given edges carry a unit of this flow."""
        return sum(self._cap[2 * self._index[eid] + 1] for eid in edge_set)

    def _to_frontier(self, origin: tuple[int, ...], frontier: Iterable[int]) -> ResidualFlow:
        """This flow to the sink, resumed from a superset of its origin (node
        positions) to a frontier: edges that every path to the sink crosses,
        with no edge leaving the nodes past them, given by their arcs.  Each
        unit crosses the frontier once, so with the frontier's arcs pointed at
        the sink the flow still holds, no node past it is reached, and the
        cuts are the frontier's."""
        flow = copy.copy(self)
        flow._to = to = self._to.copy()
        for a in frontier:
            to[a] = self._sink
        flow._origin, flow._cap = origin, self._cap.copy()
        added, flow._level = _augment(self._adj, to, flow._cap, origin, self._sink)
        flow.value = self.value + added
        return flow


# -- cut queries --------------------------------------------------------------------

@per_network
def node_flow(net: Network, origin: frozenset[str], target: str) -> ResidualFlow:
    """The maximum flow from an origin node set to a target node, kept in the
    network's memo; callers only read it (`cut_without` copies before it deletes edges)."""
    return ResidualFlow(net, sorted(origin), target)


def min_cut(net: Network, origin: Iterable[str], target: str) -> CutReport:
    """Minimum-capacity edge cut separating a target node from an origin node set.

    The reported cut is the origin-side one (edges leaving the residual-reachable
    set), which is the unique minimum cut that separates every other minimum cut
    from the origin.
    """
    # unknown nodes are reported in the caller's order, before the flow is looked up
    origin = net.check_nodes(origin)
    return node_flow(net, frozenset(origin), target).cut_without()


def min_cut_edge_target(net: Network, origin: Iterable[str], edge_set: Iterable[str]) -> CutReport:
    """Minimum cut separating a nonempty edge set from an origin node set.

    Cutting a target edge counts as separating it: in the flow, its arc runs
    from its tail into the super-sink.
    """
    return ResidualFlow(net, origin, tuple(edge_set)).cut_without()


def primary_min_cut(net: Network, origin: Iterable[str], target) -> tuple[str, ...]:
    """The unique origin-side minimum cut; target is a node id or an edge id set."""
    return ResidualFlow(net, origin, target).cut_without().cut_edges


def is_primary(net: Network, edge_set: Iterable[str]) -> bool:
    """An edge set is primary when it equals the origin-side minimum cut
    separating itself from the sources that feed it.

    A set whose edges all leave sources is primary with no max-flow: sources
    have no in-edges, so its tails are its feeding sources and each edge is its
    own one-edge path, and no cut lies nearer them.  Any other set gets one
    max-flow, on the set and the edges into nodes that reach its tails: every
    unit ends in the set, so no other edge carries one.  The cut is the set
    exactly when the flow fills it and the residual graph reaches every tail.
    Primary-set enumeration calls it only for candidates of two or more edges;
    `_primary_edges` finds the primary single edges with no max-flow.
    """
    index = net._index
    targets = {index.edge_position[eid] for eid in net.check_edges(edge_set)}
    if not targets:
        raise UnknownEdge("primality is defined for nonempty edge sets")
    tails = {index.tails[i] for i in targets}
    sources = [index.position[s] for s in net.sources]
    if tails.issubset(sources):
        return True
    upstream = index.reaching(tails)
    origin = tuple(s for s in sources if upstream[s])  # the feeding sources
    if not origin:
        raise MalformedInput("the origin set is empty")
    edges = [i for i, h in enumerate(index.heads) if upstream[h] or i in targets]
    adj, to = _arcs(net, edges, targets)
    cap = [1, 0] * len(edges)
    value, level = _augment(adj, to, cap, origin, len(net.nodes))
    return value == len(targets) and all(level[t] >= 0 for t in tails)


@per_network
def _primary_edges(net: Network) -> frozenset[str]:
    """The edges e with {e} primary: those that no other edge dominates.

    {e} is primary exactly when no other edge lies on every path from the
    sources to e, since such an edge would be a one-edge cut nearer the
    sources.  One pass in topological order finds them: dom[v] is the set of
    edges on every source path to v, the intersection over v's in-edges e of
    dom[tail(e)] plus e (Cooper, Harvey and Kennedy, "A Simple, Fast Dominance
    Algorithm", 2001).  Sources have no in-edges and every other node has one,
    so each intersection has a term.  It is empty, and not built, when v has
    two or more in-edges and one's tail has an empty set: that in-edge is the
    only candidate, and on every path to another one's tail it closes a cycle.
    """
    index = net._index
    tails, empty = index.tails, frozenset()
    dom: list[frozenset[int]] = [empty] * len(net.nodes)  # of edge positions
    for v in net._topo:
        ins = index.ins[v]  # none at a source
        if len(ins) == 1:
            dom[v] = dom[tails[ins[0]]] | {ins[0]}
        elif ins and all(dom[tails[i]] for i in ins):
            dom[v] = frozenset.intersection(*(dom[tails[i]] | {i} for i in ins))
    return frozenset(eid for eid, i in index.edge_position.items() if not dom[tails[i]])


def feeding_sources(net: Network, edge_set: Iterable[str]) -> frozenset[str]:
    """The sources with a path to some edge of the set: those among the nodes
    reaching its tails, as in `is_primary`."""
    index = net._index
    upstream = index.reaching([index.tails[index.edge_position[eid]] for eid in net.check_edges(edge_set)])
    return frozenset(s for s in net.sources if upstream[index.position[s]])


# -- the two cut statistics --------------------------------------------------------

@per_network
def source_cut_reports(net: Network) -> tuple[CutReport, ...]:
    """The minimum cut from each source to the sink, in source order."""
    return tuple(min_cut(net, [s], net.sink) for s in net.sources)


@lru_cache(maxsize=0)  # caches nothing; bench/tracer.py reads its cache_info()
def c_min(net: Network) -> int:
    """Smallest over all sources of the minimum cut capacity to the sink."""
    return min(report.capacity for report in source_cut_reports(net))


SOURCE_SUBSET_LIMIT = 4095  # 12 sources; c_min_bar runs one flow per subset


@per_network
def _c_min_bar_report(net: Network) -> tuple[int, tuple[str, ...]]:
    count = (1 << len(net.sources)) - 1
    if count > SOURCE_SUBSET_LIMIT:
        raise TooLarge(f"{count} source subsets exceed the cap {SOURCE_SUBSET_LIMIT}")
    caps = {s: report.capacity for s, report in zip(net.sources, source_cut_reports(net))}
    position, to = net._index.position, _layout(net)[1]
    subsets = ([s for i, s in enumerate(net.sources) if mask >> i & 1] for mask in range(1, count + 1))
    best = None
    # visit the subsets by their floor (`c_min_bar`), then by mask
    for floor, _, chosen in sorted((max(map(caps.get, chosen)), i, chosen) for i, chosen in enumerate(subsets)):
        if best and floor > best[0]:
            break  # no term from here on is below the best; one that ties may have a smaller cut
        inside = net._index.reachable_from(position[s] for s in [*net.sources, net.sink] if s not in chosen)
        # the arcs of the frontier edges: from outside the set into it
        frontier = [a for a in range(0, len(to), 2) if not inside[to[a + 1]] and inside[to[a]]]
        flow = node_flow(net, frozenset([max(chosen, key=caps.get)]), net.sink)
        report = flow._to_frontier(tuple(position[s] for s in chosen), frontier).cut_without()
        if not best or (report.capacity, report.cut_edges) < best:
            best = report.capacity, report.cut_edges
    return best


def c_min_bar(net: Network) -> int:
    """Size of the smallest cut whose feeding sources are exactly the separated ones.

    Found by sweeping the 2^s - 1 nonempty source subsets T; more than
    SOURCE_SUBSET_LIMIT raise TooLarge first.  A cut has feeding = separated
    = T exactly when it separates T from the node set that the other sources
    and the sink reach, and cuts no edge leaving a node of that set.  So for
    each T the smallest one is the edge-target cut of the frontier edges, whose
    tail lies outside the set and whose head lies inside.  Sources have no
    in-edges, so T lies outside the set and the frontier edges themselves are a
    finite cut.  When T holds every source, the set is the sink alone and the
    frontier is the sink's in-edges.

    Every path to the sink crosses the frontier once, so T's term is at least
    its floor, the largest min cut c_s of its sources, and every term resumes
    the flow of that source (`ResidualFlow._to_frontier`).  The subsets run in
    floor order and stop at the first floor above the best term; one that ties
    it still runs, since it may have a smaller cut.
    """
    return _c_min_bar_report(net)[0]


def c_min_bar_witness(net: Network) -> tuple[str, ...]:
    return _c_min_bar_report(net)[1]
