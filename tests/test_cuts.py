import contextlib
import importlib
import itertools
import random
import signal

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
from snfc.bounds import primary_wiretap_sets, upper_bound
from snfc.corpus import corpus, random_network
from snfc.cuts import ResidualFlow, _c_min_bar_report, _primary_edges, feeding_sources, node_flow
from snfc.errors import EmptyTarget, MalformedInput, TargetInU, TooLarge, UnknownEdge, UnknownNode
from snfc.network import Network, make_network
from reference import max_flow_cut, primary_edges, reach_sets, reachable
from cases import bound_large_stars, many_source_network, source_star


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


def test_cut_without_an_unknown_edge_is_refused_and_leaves_the_flow_as_it_was(butterfly):
    flow = node_flow(butterfly, frozenset(butterfly.sources), butterfly.sink)
    before = flow.cut_without()
    with pytest.raises(UnknownEdge, match="edge 'nope' does not exist"):
        flow.cut_without(["e1", "nope"])
    assert flow.cut_without() == before
    assert flow.cut_without(["e1"]) == max_flow_cut(residual(butterfly, ["e1"]), butterfly.sources, butterfly.sink)


def test_flow_core_matches_a_reference_max_flow_from_scratch():
    # the unit-arc flow and its incremental cut_without against a general
    # Edmonds-Karp with a super-source, built from scratch on the network with W
    # deleted; the origins also come with a repeated node and nodes downstream
    # of other origins
    checked = 0
    for net in [*corpus(40), *bound_large_stars(1, 2)]:
        family = [w for w in primary_wiretap_sets(net, 3 if len(net.edges) < 200 else 1) if w]
        for wset in family:
            feeding = sorted(feeding_sources(net, wset))
            report = node_flow(net, frozenset(feeding), net.sink).cut_without(wset)
            assert report == max_flow_cut(residual(net, wset), feeding, net.sink), wset
            assert min_cut_edge_target(net, feeding, wset) == max_flow_cut(net, feeding, wset), wset
            checked += 1
        rng = random.Random(len(net.order))
        inner = [n for n in net.node_order if n not in net.sources and n != net.sink]
        origin = [net.sources[0], *net.sources, *rng.sample(inner, min(2, len(inner)))]
        flow = ResidualFlow(net, origin, net.sink)
        for wset in [(), *family[:5], *(rng.sample(net.order, min(3, len(net.order))) for _ in range(5))]:
            assert flow.cut_without(wset) == max_flow_cut(residual(net, wset), origin, net.sink), wset
            checked += 1
    assert checked > 1000


def layered_network(seed: int) -> Network:
    """2 or 3 sources, 4 to 6 layers of inner nodes and the sink: 6 to 8 layers
    and 60 to 120 edges.  Edges run forward one layer or more, parallel ones
    included, so paths differ in length and a flow takes several phases."""
    rng = random.Random(f"layered:{seed}")
    layers = [[f"s{i + 1}" for i in range(rng.randint(2, 3))]]
    layers += [[f"v{d}_{i}" for i in range(rng.randint(3, 6))] for d in range(rng.randint(4, 6))]
    layers.append(["rho"])
    pairs = [(s, rng.choice(layers[1])) for s in layers[0]]
    for d in range(1, len(layers) - 1):  # every other node gets an edge in and an edge out
        for v in layers[d]:
            pairs.append((rng.choice(layers[d - 1]), v))
            pairs.append((v, rng.choice(layers[d + 1])))
    n_edges = rng.randint(max(60, len(pairs)), 120)
    while len(pairs) < n_edges:
        if rng.random() < 0.2:
            pairs.append(rng.choice(pairs))  # a parallel edge
        else:
            d = rng.randrange(len(layers) - 1)
            far = d + 1 if rng.random() < 0.7 else rng.randrange(d + 1, len(layers))
            pairs.append((rng.choice(layers[d]), rng.choice(layers[far])))
    edges = [(f"e{i + 1}", tail, head) for i, (tail, head) in enumerate(pairs)]
    return make_network([n for layer in layers for n in layer], edges, layers[0], "rho")


class Stuck(Exception):
    pass


@contextlib.contextmanager
def finishes_within(seconds: float):
    """Fail, rather than hang, when a flow's search stops making progress."""
    def stop(signum, frame):
        raise Stuck

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except Stuck:  # raised wherever the loop was; its traceback says nothing more
        raise AssertionError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_blocking_flows_on_deep_networks_match_a_reference_max_flow():
    # deep networks with parallel edges make the phases' DFS back out of dead
    # ends and resume at current arcs; a node or edge target, and origins that
    # repeat a node or hold nodes downstream of others
    checked = 0
    with finishes_within(60):
        for seed in range(16):
            net = layered_network(seed)
            assert 60 <= len(net.edges) <= 120
            rng = random.Random(seed)
            inner = [n for n in net.node_order if n not in net.sources and n != net.sink]
            origins = [
                *([s] for s in net.sources),
                list(net.sources),
                [net.sources[-1], *net.sources, *rng.sample(inner, 2)],
            ]
            wsets = [(), *(rng.sample(net.order, rng.randint(1, 3)) for _ in range(6))]
            for origin in origins:
                flow = ResidualFlow(net, origin, net.sink)
                for wset in wsets:
                    report = flow.cut_without(wset)
                    assert report == max_flow_cut(residual(net, wset), origin, net.sink), (seed, origin, wset)
                    if wset:
                        assert min_cut_edge_target(net, origin, wset) == max_flow_cut(net, origin, wset)
                    checked += 1
            assert c_min(net) == min(max_flow_cut(net, [s], net.sink).capacity for s in net.sources)
    assert checked >= 16 * 4 * 7


def test_flows_to_inner_nodes_match_a_reference_max_flow():
    # a node target is the flow's own sink on the shared layout; an inner node
    # has out-edges, which the flow must leave empty, and nodes past it can
    # still be on the source side
    checked = 0
    with finishes_within(60):
        for net in [*corpus(40), *map(layered_network, range(16)), *bound_large_stars(1, 2)]:
            rng = random.Random(len(net.order))
            for v in net.node_order:
                if v in net.sources or v == net.sink:
                    continue
                assert net.out_edges[v]
                origin = rng.choice([[s] for s in net.sources] + [list(net.sources)])
                assert min_cut(net, origin, v) == max_flow_cut(net, origin, v), v
                flow = ResidualFlow(net, origin, v)
                for wset in (rng.sample(net.order, rng.randint(1, min(3, len(net.order)))) for _ in range(3)):
                    assert flow.cut_without(wset) == max_flow_cut(residual(net, wset), origin, v), (v, wset)
                    checked += 1
    assert checked > 1000


def test_the_shared_layout_is_only_read_and_built_once_per_network(monkeypatch):
    # flows to nodes share one arc layout and write only their own capacities;
    # upper_bound builds that layout and no other: the c_min_bar frontier terms
    # resume the per-source flows on it
    module = importlib.import_module("snfc.cuts")
    for net in [*corpus(40), *bound_large_stars(1, 2)]:
        upper_bound(net, 1)
        rng = random.Random(len(net.order))
        inner = [v for v in net.node_order if v not in net.sources and v != net.sink]
        flows = [ResidualFlow(net, net.sources, v) for v in inner[:3]]
        for flow in [node_flow(net, frozenset(net.sources), net.sink), *flows]:
            for _ in range(3):
                flow.cut_without(rng.sample(net.order, min(2, len(net.order))))
        assert module._layout(net) == module._arcs(net.nodes, map(net.edge_by_id.__getitem__, net.order))

    plain, built = module._arcs, []

    def counted(*args):
        built.append(args)
        return plain(*args)

    (net,) = bound_large_stars(1, 1)
    monkeypatch.setattr(module, "_arcs", counted)
    upper_bound(net, 1)
    assert len(built) == 1
    assert len(built[0]) == 2  # the shared layout first, with no target edges


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


def frontier_terms(net):
    """(capacity, cut) of every source subset's frontier cut, each from its own flow."""
    for k in range(1, len(net.sources) + 1):
        for chosen in itertools.combinations(net.sources, k):
            inside = net.nodes_reachable_from([*(s for s in net.sources if s not in chosen), net.sink])
            frontier = [e.id for e in net.edges if e.tail not in inside and e.head in inside]
            report = min_cut_edge_target(net, chosen, frontier)
            yield report.capacity, report.cut_edges


def test_c_min_bar_in_floor_order_matches_every_term_on_four_to_six_sources(monkeypatch):
    # up to 63 subsets, most of them past the stop; the subsets that are run
    # resume a one-source flow on the shared layout
    module = importlib.import_module("snfc.cuts")
    plain, flows = module._augment, []

    def counted(*args):
        flows.append(args)
        return plain(*args)

    run = every = 0
    for seed in range(150):
        net = many_source_network(seed, max_edges=24)
        assert 4 <= len(net.sources) <= 6
        every += (1 << len(net.sources)) - 1
        with monkeypatch.context() as patch:
            patch.setattr(module, "_augment", counted)
            report = _c_min_bar_report(net)
        assert report == min(frontier_terms(net)), seed
        assert len(report[1]) == report[0] and c_min(net) <= report[0]
        run += len(flows) - len(net.sources)
        flows.clear()
    assert run < every / 4


def test_c_min_bar_refuses_more_source_subsets_than_its_cap_before_any_flow(monkeypatch):
    module = importlib.import_module("snfc.cuts")
    plain, flows = module._augment, []

    def counted(*args):
        flows.append(args)
        return plain(*args)

    monkeypatch.setattr(module, "_augment", counted)
    monkeypatch.setattr(module, "SOURCE_SUBSET_LIMIT", 7)
    # 7 subsets, at the cap: one flow per source first, then every subset, since
    # every term's floor ties the best of 2
    assert c_min_bar(source_star(3)) == 2 and len(flows) == 3 + 7
    net = source_star(4)  # 15 subsets
    monkeypatch.setattr(module, "SOURCE_SUBSET_LIMIT", 14)
    flows.clear()
    with pytest.raises(TooLarge):
        c_min_bar(net)
    assert flows == []
    assert c_min(net) == 2 and len(flows) == 4  # one flow per source, none of the sweep
    flows.clear()
    with pytest.raises(TooLarge):
        upper_bound(net, 1)
    assert flows == []


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


def primary_by_definition(net, wset) -> bool:
    """The set is the origin-side minimum cut, on the whole network, separating
    it from the sources that feed it."""
    return min_cut_edge_target(net, feeding_sources(net, wset), wset).cut_edges == tuple(sorted(wset))


def test_is_primary_on_the_upstream_arcs_matches_its_definition(monkeypatch):
    # every set of 2 or 3 edges of 40 corpus networks, and 100 pairs on each of
    # two 200-edge stars, where the flow holds only upstream arcs
    verdicts = set()
    for net in corpus(40):
        for k in (2, 3):
            for wset in itertools.combinations(sorted(net.edge_by_id), k):
                verdict = is_primary(net, wset)
                assert verdict == primary_by_definition(net, wset), wset
                verdicts.add(verdict)
    assert verdicts == {False, True}

    module = importlib.import_module("snfc.cuts")
    plain, arcs = module._augment, []

    def counted(adj, to, cap, origin, sink):
        arcs.append(len(cap))
        return plain(adj, to, cap, origin, sink)

    for net in bound_large_stars(1, 2):
        rng = random.Random(len(net.order))
        verdicts = set()
        for wset in (rng.sample(net.order, 2) for _ in range(100)):
            monkeypatch.setattr(module, "_augment", counted)
            verdict = is_primary(net, wset)
            monkeypatch.setattr(module, "_augment", plain)
            assert verdict == primary_by_definition(net, wset), wset
            verdicts.add(verdict)
            # a pair of source out-edges is primary with no flow; any other pair runs one
            flows = int(any(net.edge_by_id[eid].tail not in net.sources for eid in wset))
            assert len(arcs) == flows, wset
            if arcs:
                assert arcs.pop() < 2 * len(net.edges)  # two arcs per edge
        assert verdicts == {False, True}


def test_sets_of_source_out_edges_are_primary_with_no_flow(monkeypatch):
    # every set of the all-parallel networks with 1..9 edges, and the sets of up to
    # three source out-edges of corpus networks with two and three sources
    module = importlib.import_module("snfc.cuts")

    def refuse(*args):
        raise AssertionError("a set of source out-edges ran a max-flow")

    cases = []
    for n in range(1, 10):
        net = make_network(["s", "t"], [(f"e{k}", "s", "t") for k in range(1, n + 1)], ["s"], "t")
        cases += [(net, wset) for k in range(1, n + 1) for wset in itertools.combinations(net.order, k)]
    nets = [net for net in corpus(200) if net.num_sources in (2, 3)]
    assert {net.num_sources for net in nets} == {2, 3}
    for net in nets:
        outs = [e.id for s in net.sources for e in net.out_edges[s]]
        cases += [(net, wset) for k in (1, 2, 3) for wset in itertools.combinations(outs, k)]
    assert len(cases) > 1000
    for net, wset in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, "_augment", refuse)
            verdict = is_primary(net, wset)
        assert verdict is True and primary_by_definition(net, wset), wset


def test_primary_edges_match_the_plain_dominance_pass():
    # the pass skips building the sets of nodes it can tell have none
    for net in [*corpus(200), *map(layered_network, range(16)), *bound_large_stars(1, 2)]:
        assert _primary_edges(net) == primary_edges(net)


@given(st.integers(0, 4000))
@settings(max_examples=80, deadline=None)
def test_primary_edges_match_the_plain_dominance_pass_on_drawn_networks(seed):
    net = random_network(seed)
    assert _primary_edges(net) == primary_edges(net)


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
    view = residual(butterfly, [])
    assert view.edges == butterfly.edges and view.removed == frozenset()
    assert view.order == butterfly.order


def test_residual_removal_restricts_paths(butterfly):
    view = residual(butterfly, ["e1"])
    assert min_cut(view, ["s1"], "rho").capacity == 1
    # a residual network is a network of the kept edges, in the base's file order
    assert isinstance(view, Network)
    assert view.edges == tuple(e for e in butterfly.edges if e.id != "e1")
    assert view.base is butterfly and view.removed == frozenset({"e1"})


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
