"""Unit-capacity cut machinery: minimum cuts, source-side (primary) cuts, residual
graphs, and the two cut statistics that drive every capacity bound.

All cuts are computed by augmenting-path max-flow.  The returned cut is always
the unique minimum cut closest to the origin set: after a maximum flow, it
consists of the edges leaving the set of nodes still reachable from the origin
in the residual graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import EmptyTarget, InvariantViolated, TargetInU, UnknownEdge
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

def _flow_graph(n_nodes: int, arcs: list[tuple[int, int, int]], sources: list[int], sinks: list[int]):
    """Residual arc arrays with a super-source n_nodes and a super-sink n_nodes + 1.

    Input arc i is stored at index 2i and its reverse at 2i + 1, so an arc and
    its partner differ in the lowest bit and the flow on a forward arc is the
    residual capacity of its reverse.
    """
    s_star, t_star = n_nodes, n_nodes + 1
    every = arcs + [(s_star, s, INF) for s in sources] + [(t, t_star, INF) for t in sinks]
    adj: list[list[int]] = [[] for _ in range(n_nodes + 2)]
    to: list[int] = []
    cap: list[int] = []
    for i, (u, v, c) in enumerate(every):
        adj[u].append(2 * i)
        adj[v].append(2 * i + 1)
        to += (v, u)
        cap += (c, 0)
    return adj, to, cap


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


def _max_flow(n_nodes: int, arcs: list[tuple[int, int, int]], sources: list[int], sinks: list[int]):
    """Returns (value, residual-reachable node set, indices of saturated arcs that
    cross from the reachable side to the unreachable side)."""
    adj, to, cap = _flow_graph(n_nodes, arcs, sources, sinks)
    value, reach = _augment(adj, to, cap)
    cut = [
        i
        for i, (u, v, c) in enumerate(arcs)
        if c < INF and u in reach and v not in reach
    ]
    return value, reach, cut


def _node_index(net: Network) -> dict[str, int]:
    return {n: i for i, n in enumerate(net.nodes)}


def _normalize(net: Network | ResidualNetwork) -> tuple[Network, frozenset[str]]:
    if isinstance(net, ResidualNetwork):
        return net.base, net.removed
    return net, frozenset()


# -- node-target cuts -------------------------------------------------------------

def min_cut(
    net: Network | ResidualNetwork,
    origin: Iterable[str],
    target: str,
    *,
    caps: dict[str, int] | None = None,
) -> CutReport:
    """Minimum-capacity edge cut separating a target node from an origin node set.

    The reported cut is the origin-side one (edges leaving the residual-reachable
    set), which is the unique minimum cut that separates every other minimum cut
    from the origin.
    """
    base, removed = _normalize(net)
    origin = base.check_nodes(origin)
    (target,) = base.check_nodes([target])
    if target in origin:
        raise TargetInU(f"target {target!r} is in the origin set")
    idx = _node_index(base)
    arcs = []
    arc_ids = []
    for eid in base.order:
        if eid in removed:
            continue
        e = base.edge_by_id[eid]
        arcs.append((idx[e.tail], idx[e.head], 1 if caps is None else caps.get(eid, 1)))
        arc_ids.append(eid)
    value, reach, cut = _max_flow(len(base.nodes), arcs, [idx[n] for n in origin], [idx[target]])
    if len(cut) != value:
        raise InvariantViolated(f"cut of {len(cut)} edges for a flow of value {value}")
    side = tuple(sorted(n for n in base.nodes if idx[n] in reach))
    return CutReport(value, tuple(sorted(arc_ids[i] for i in cut)), side)


class ResidualFlow:
    """A maximum flow from an origin node set to a target node on the intact
    unit-capacity network, reused for minimum cuts with a small edge set deleted.

    `cut_without(W)` cancels the at most |W| flow units that cross W, then
    re-augments, so it needs at most |W| augmenting paths instead of a maximum
    flow from scratch.  Its report equals
    `min_cut(residual(net, W), origin, target)`.
    """

    def __init__(self, net: Network, origin: Iterable[str], target: str) -> None:
        origin = net.check_nodes(origin)
        (target,) = net.check_nodes([target])
        if target in origin:
            raise TargetInU(f"target {target!r} is in the origin set")
        idx = _node_index(net)
        self.net = net
        self._arc_of = {eid: 2 * i for i, eid in enumerate(net.order)}
        self._ends = [(idx[net.edge_by_id[eid].tail], idx[net.edge_by_id[eid].head]) for eid in net.order]
        self._adj, self._to, self._cap = _flow_graph(
            len(net.nodes), [(u, v, 1) for u, v in self._ends], [idx[n] for n in origin], [idx[target]]
        )
        self.value, _ = _augment(self._adj, self._to, self._cap)

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

    def cut_without(self, edge_set: Iterable[str]) -> CutReport:
        """The origin-side minimum cut once the given edges are deleted."""
        removed = {self._arc_of[eid] for eid in self.net.check_edges(edge_set)}
        cap = self._cap.copy()
        value = self.value
        for a in removed:
            if cap[a | 1] > 0:  # the edge carries a unit of flow: cancel it end to end
                cap[a] += 1
                cap[a | 1] -= 1
                self._drain(cap, self._to[a | 1], 1)
                self._drain(cap, self._to[a], 0)
                value -= 1
            cap[a] = 0
        added, reach = _augment(self._adj, self._to, cap)
        value += added
        order = self.net.order
        cut = sorted(
            order[i]
            for i, (u, v) in enumerate(self._ends)
            if u in reach and v not in reach and 2 * i not in removed
        )
        if len(cut) != value:
            raise InvariantViolated(f"cut of {len(cut)} edges for a flow of value {value}")
        side = tuple(sorted(n for i, n in enumerate(self.net.nodes) if i in reach))
        return CutReport(value, tuple(cut), side)


# -- edge-target cuts --------------------------------------------------------------

def min_cut_edge_target(
    net: Network | ResidualNetwork, origin: Iterable[str], edge_set: Iterable[str]
) -> CutReport:
    """Minimum cut separating an edge set from an origin node set.

    Each target edge is split in two through a fresh node so that cutting either
    half counts as cutting the edge; halves map back to the original edge id.
    """
    base, removed = _normalize(net)
    origin = base.check_nodes(origin)
    targets = base.check_edges(edge_set)
    if not targets:
        raise EmptyTarget("the target edge set is empty")
    target_set = set(targets)
    idx = dict(_node_index(base))
    mid = {}
    for eid in targets:
        mid[eid] = len(idx)
        idx[f"sub::{eid}"] = len(idx)
    arcs = []
    arc_ids = []
    for eid in base.order:
        if eid in removed:
            continue
        e = base.edge_by_id[eid]
        if eid in target_set:
            arcs.append((idx[e.tail], mid[eid], 1))
            arc_ids.append(eid)
            arcs.append((mid[eid], idx[e.head], 1))
            arc_ids.append(eid)
        else:
            arcs.append((idx[e.tail], idx[e.head], 1))
            arc_ids.append(eid)
    value, reach, cut = _max_flow(len(idx), arcs, [idx[n] for n in origin], list(mid.values()))
    ids = sorted({arc_ids[i] for i in cut})
    if len(ids) != value:
        raise InvariantViolated("both halves of a split edge crossed the cut")
    side = tuple(sorted(n for n in base.nodes if idx[n] in reach))
    return CutReport(value, tuple(ids), side)


def primary_min_cut(
    net: Network | ResidualNetwork, origin: Iterable[str], target
) -> tuple[str, ...]:
    """The unique origin-side minimum cut; target is a node id or an edge id set."""
    if isinstance(target, str):
        return min_cut(net, origin, target).cut_edges
    return min_cut_edge_target(net, origin, target).cut_edges


def is_primary(net: Network, edge_set: Iterable[str]) -> bool:
    """An edge set is primary when it equals the origin-side minimum cut
    separating itself from the sources that feed it."""
    ids = tuple(sorted(net.check_edges(edge_set)))
    if not ids:
        raise UnknownEdge("primality is defined for nonempty edge sets")
    return min_cut_edge_target(net, sorted(feeding_sources(net, ids)), ids).cut_edges == ids


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


def source_min_cuts(net: Network) -> dict[str, int]:
    return {s: report.capacity for s, report in zip(net.sources, source_cut_reports(net))}


@lru_cache(maxsize=None)
def _c_min_bar_report(net: Network) -> tuple[int, tuple[str, ...]]:
    best: tuple[int, tuple[str, ...]] | None = None
    srcs = net.sources
    for mask in range(1, 1 << len(srcs)):
        chosen = [s for i, s in enumerate(srcs) if mask >> i & 1]
        others = [s for i, s in enumerate(srcs) if not mask >> i & 1]
        poisoned = net.edges_reachable_from(others) if others else set()
        caps = {eid: INF for eid in poisoned}
        report = min_cut(net, chosen, net.sink, caps=caps)
        if report.capacity > len(net.edges):
            continue  # no cut avoiding edges fed by the other sources
        key = (report.capacity, report.cut_edges)
        if best is None or key < best:
            best = key
    if best is None:
        raise InvariantViolated("the full source set admits no finite cut")
    return best


def c_min_bar(net: Network) -> int:
    """Size of the smallest cut whose feeding sources are exactly the separated ones.

    Found by sweeping source subsets T: edges fed by sources outside T get
    infinite capacity, so a finite minimum cut separating the sink from T is
    exactly a cut with feeding = separated = T.
    """
    return _c_min_bar_report(net)[0]


def c_min_bar_witness(net: Network) -> tuple[str, ...]:
    return _c_min_bar_report(net)[1]
