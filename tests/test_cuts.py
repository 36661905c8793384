import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    c_min,
    c_min_bar,
    is_primary,
    min_cut,
    min_cut_edge_target,
    primary_min_cut,
    residual,
)
from snfc.bounds import primary_wiretap_sets
from snfc.corpus import corpus, random_network
from snfc.cuts import ResidualFlow, _c_min_bar_report, feeding_sources, node_flow
from snfc.errors import EmptyTarget, MalformedInput, TargetInU, UnknownEdge, UnknownNode
from reference import reach_sets, reachable


# -- exhaustive oracles ------------------------------------------------------------

def separates_node(net, cut, origins, target, removed=frozenset()):
    blocked = set(cut) | set(removed)
    return target not in reachable(net, origins, frozenset(blocked))


def separates_edges(net, cut, origins, targets, removed=frozenset()):
    """A cut separates an edge set when no origin reaches any target edge,
    where reaching an edge means reaching its tail without using cut edges
    and the edge itself is not cut."""
    blocked = frozenset(set(cut) | set(removed))
    reach = reachable(net, origins, blocked)
    for eid in targets:
        e = net.edge_by_id[eid]
        if eid not in blocked and e.tail in reach:
            return False
    return True


def min_node_cuts_oracle(net, origins, target, removed=frozenset()):
    """All minimum cuts separating target from origins, by subset enumeration."""
    ids = [eid for eid in sorted(net.edge_by_id) if eid not in removed]
    for size in range(len(ids) + 1):
        found = [
            c for c in itertools.combinations(ids, size)
            if separates_node(net, c, origins, target, removed)
        ]
        if found:
            return found
    return []


def min_edge_cuts_oracle(net, origins, targets):
    ids = sorted(net.edge_by_id)
    for size in range(len(ids) + 1):
        found = [
            c for c in itertools.combinations(ids, size)
            if separates_edges(net, c, origins, targets)
        ]
        if found:
            return found
    return []


def c_min_bar_oracle(net):
    ids = sorted(net.edge_by_id)
    best = None
    for size in range(1, len(ids) + 1):
        for c in itertools.combinations(ids, size):
            rs = reach_sets(net, c)
            if rs.separated and rs.separated == rs.feeding:
                best = size
                break
        if best is not None:
            break
    return best


# -- node-target cuts ---------------------------------------------------------------

def test_line_min_cut(line):
    assert min_cut(line, ["s1"], "rho").capacity == 1


def test_n1_min_cut(n1):
    assert min_cut(n1, ["s1"], "rho").capacity == 1
    assert c_min(n1) == 1


def test_butterfly_min_cut(butterfly):
    assert min_cut(butterfly, ["s1"], "rho").capacity == 2
    assert c_min(butterfly) == 2


def test_min_cut_unknown_node(butterfly):
    with pytest.raises(UnknownNode):
        min_cut(butterfly, ["nope"], "rho")


def test_min_cut_target_in_origins(butterfly):
    with pytest.raises(TargetInU):
        min_cut(butterfly, ["s1", "rho"], "rho")


def test_empty_origin_rejected(butterfly):
    with pytest.raises(MalformedInput):
        min_cut(butterfly, [], "rho")
    with pytest.raises(MalformedInput):
        primary_min_cut(butterfly, [], ["e6"])


def test_shared_node_flows_are_only_read():
    # every residual cut is taken from the shared flow of its feeding sources;
    # afterwards each flow must still give the cut of a flow built from scratch
    checked = 0
    for net in corpus(60):
        origins = {frozenset([s]) for s in net.sources} | {frozenset(net.sources)}
        for wset in primary_wiretap_sets(net, 3):
            if wset:
                feeding = feeding_sources(net, wset)
                origins.add(feeding)
                node_flow(net, feeding, net.sink).cut_without(wset)
                checked += 1
        for origin in origins:
            fresh = ResidualFlow(net, sorted(origin), net.sink)
            assert node_flow(net, origin, net.sink).cut_without() == fresh.cut_without(), origin
    assert checked > 200


def test_c_min_bar_all_sources_term_is_the_frontier_cut():
    # with every source chosen, the frontier is the sink's in-edges, so the
    # shared flow to the sink stands in for the edge-target cut
    for net in corpus(200):
        frontier = [e.id for e in net.in_edges[net.sink]]
        assert min_cut(net, net.sources, net.sink) == min_cut_edge_target(net, net.sources, frontier)
        terms = []
        for k in range(1, len(net.sources) + 1):
            for chosen in itertools.combinations(net.sources, k):
                others = [s for s in net.sources if s not in chosen]
                inside = net.nodes_reachable_from([*others, net.sink])
                frontier = [e.id for e in net.edges if e.tail not in inside and e.head in inside]
                report = min_cut_edge_target(net, chosen, frontier)
                terms.append((report.capacity, report.cut_edges))
        assert _c_min_bar_report(net) == min(terms)


@given(st.integers(0, 4000))
@settings(max_examples=60, deadline=None)
def test_min_cut_capacity_matches_enumeration(seed):
    net = random_network(seed)
    for s in net.sources:
        report = min_cut(net, [s], net.sink)
        cuts = min_node_cuts_oracle(net, [s], net.sink)
        assert report.capacity == len(cuts[0])
        assert separates_node(net, report.cut_edges, [s], net.sink)


# -- edge-target cuts ------------------------------------------------------------------

def test_source_out_edges_cut_themselves(butterfly):
    report = min_cut_edge_target(butterfly, ["s1"], ["e1", "e2"])
    assert report.capacity == 2


def test_fig2_edge_target_capacity(fig2):
    report = min_cut_edge_target(fig2, ["u1", "u2"], ["e7", "e8"])
    assert report.capacity == 1


def test_unreachable_targets_need_no_cut(fig2):
    report = min_cut_edge_target(fig2, ["v5"], ["e1"])
    assert report.capacity == 0
    assert report.cut_edges == ()


def test_empty_target_rejected(fig2):
    with pytest.raises(EmptyTarget):
        min_cut_edge_target(fig2, ["u1"], [])


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_edge_target_capacity_matches_enumeration(data):
    net = random_network(data.draw(st.integers(0, 4000)))
    ids = sorted(net.edge_by_id)
    k = data.draw(st.integers(1, min(3, len(ids))))
    targets = data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True))
    origins = [net.sources[0]]
    report = min_cut_edge_target(net, origins, targets)
    cuts = min_edge_cuts_oracle(net, origins, targets)
    assert report.capacity == len(cuts[0])
    assert report.capacity <= len(targets)  # the target set always cuts itself
    assert separates_edges(net, report.cut_edges, origins, targets)


# -- primary cuts ----------------------------------------------------------------------

def test_fig2_primary_cut(fig2):
    assert primary_min_cut(fig2, ["u1", "u2"], ["e7", "e8"]) == ("e5",)


def test_butterfly_primary_for_middle_edge(butterfly):
    assert primary_min_cut(butterfly, ["s1", "s2"], ["e6"]) == ("e5",)


def test_primary_of_source_out_edge_is_itself(butterfly):
    assert primary_min_cut(butterfly, ["s1"], ["e1"]) == ("e1",)


def test_butterfly_primary_census(butterfly):
    primary = {eid for eid in butterfly.edge_by_id if is_primary(butterfly, [eid])}
    assert primary == {"e1", "e2", "e3", "e4", "e5", "e8", "e9"}


def test_fig2_pair_not_primary(fig2):
    assert not is_primary(fig2, ["e7", "e8"])


def test_is_primary_rejects_empty(butterfly):
    with pytest.raises(UnknownEdge):
        is_primary(butterfly, [])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_primary_cut_separates_every_minimum_cut(data):
    net = random_network(data.draw(st.integers(0, 3000)), max_edges=9)
    ids = sorted(net.edge_by_id)
    k = data.draw(st.integers(1, min(2, len(ids))))
    targets = data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True))
    feeding = sorted(reach_sets(net, targets).feeding)
    primary = primary_min_cut(net, feeding, targets)
    all_min = min_edge_cuts_oracle(net, feeding, targets)
    assert tuple(sorted(primary)) in all_min
    for other in all_min:
        assert separates_edges(net, primary, feeding, other)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_primary_cut_of_any_set_is_primary(data):
    net = random_network(data.draw(st.integers(0, 4000)))
    ids = sorted(net.edge_by_id)
    k = data.draw(st.integers(1, min(3, len(ids))))
    targets = data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True))
    feeding = sorted(reach_sets(net, targets).feeding)
    hat = primary_min_cut(net, feeding, targets)
    assert is_primary(net, hat)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_minimum_cut_preserves_feeding_sources(data):
    net = random_network(data.draw(st.integers(0, 4000)))
    ids = sorted(net.edge_by_id)
    k = data.draw(st.integers(1, min(3, len(ids))))
    targets = data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True))
    feeding = reach_sets(net, targets).feeding
    cut = min_cut_edge_target(net, sorted(feeding), targets).cut_edges
    assert reach_sets(net, cut).feeding == feeding


def test_source_side_is_what_the_origin_reaches_around_the_cut():
    # the reported source side is the residual-reachable node set of the final
    # flow, which is exactly what the origin reaches once the cut edges (and a
    # residual view's deleted edges) are blocked
    def check(net, origin, report, removed=frozenset()):
        blocked = frozenset(report.cut_edges) | removed
        assert report.source_side == tuple(sorted(reachable(net, origin, blocked)))

    for seed in range(800):
        net = random_network(seed)
        rng = random.Random(seed)
        ids = sorted(net.edge_by_id)
        for s in net.sources:
            check(net, [s], min_cut(net, [s], net.sink))
            wiretap = frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
            check(net, [s], min_cut(residual(net, wiretap), [s], net.sink), wiretap)
        for _ in range(8):
            targets = rng.sample(ids, rng.randint(1, min(3, len(ids))))
            feeding = sorted(reach_sets(net, targets).feeding)
            check(net, feeding, min_cut_edge_target(net, feeding, targets))


# -- residual view ------------------------------------------------------------------------

def test_residual_empty_removal(butterfly):
    assert residual(butterfly, []).edge_ids == butterfly.order


def test_residual_removal_restricts_paths(butterfly):
    view = residual(butterfly, ["e1"])
    assert min_cut(view, ["s1"], "rho").capacity == 1


def test_residual_can_disconnect_a_source(n1):
    view = residual(n1, ["e5"])
    assert min_cut(view, ["s1"], "rho").capacity == 0


# -- the cut statistics ----------------------------------------------------------------------

def test_c_min_examples(n1, butterfly, line):
    assert c_min(n1) == 1
    assert c_min(butterfly) == 2
    assert c_min(line) == 1


def test_c_min_bar_examples(n1, butterfly, line):
    assert c_min_bar(butterfly) == 2
    assert c_min_bar(n1) == 2
    assert c_min_bar(line) == 1


def test_c_min_bar_n1_matches_exhaustive(n1):
    assert c_min_bar_oracle(n1) == 2


@given(st.integers(0, 4000))
@settings(max_examples=60, deadline=None)
def test_c_min_bar_matches_exhaustive_enumeration(seed):
    net = random_network(seed, max_edges=14)
    assert c_min_bar(net) == c_min_bar_oracle(net)


@given(st.integers(0, 4000))
@settings(max_examples=80, deadline=None)
def test_c_min_at_most_c_min_bar(seed):
    net = random_network(seed)
    assert c_min(net) <= c_min_bar(net)


@given(st.integers(0, 4000))
@settings(max_examples=25, deadline=None)
def test_flow_value_equals_disjoint_path_packing(seed):
    # independent certificate for max-flow: a greedy-with-backtracking search
    # for the largest family of pairwise edge-disjoint source-sink paths
    net = random_network(seed, max_edges=8)
    source = net.sources[0]

    def all_paths(node, used, acc):
        if node == net.sink:
            yield tuple(acc)
            return
        for e in net.out_edges[node]:
            if e.id not in used:
                yield from all_paths(e.head, used, acc + [e.id])

    def best_packing(used):
        best = 0
        for p in all_paths(source, used, []):
            best = max(best, 1 + best_packing(used | set(p)))
        return best

    assert min_cut(net, [source], net.sink).capacity == best_packing(frozenset())


def test_primary_min_cut_accepts_node_targets(n1):
    # node form: the bottleneck toward the sink seen from both sources
    assert primary_min_cut(n1, ["s1"], "rho") == ("e5",)
    assert primary_min_cut(n1, ["s2"], "rho") == ("e3", "e4")


@given(st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_c_min_bar_witness_is_isolating(seed):
    from snfc.cuts import c_min_bar_witness

    net = random_network(seed)
    witness = c_min_bar_witness(net)
    assert len(witness) == c_min_bar(net)
    rs = reach_sets(net, witness)
    assert rs.separated and rs.separated == rs.feeding
