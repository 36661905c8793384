import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    network_from_dict,
    make_field,
    make_network,
    parse_network,
    reduce_linear_to_sum,
)
from snfc.corpus import random_network
from snfc.errors import (
    AllZeroFunction,
    Cycle,
    MalformedInput,
    SinkHasOutEdge,
    SourceHasInEdge,
    UnknownEdge,
    UnreachableSink,
    ValidationFailure,
)
from reference import reach_sets

GF2 = make_field(2, 1)


# -- independent oracle: full path enumeration --------------------------------------

def all_sink_paths(net, source):
    """Every source-to-sink path as a tuple of edge ids (walks in a DAG are simple)."""
    paths = []

    def walk(node, acc):
        if node == net.sink:
            paths.append(tuple(acc))
            return
        for e in net.out_edges[node]:
            walk(e.head, acc + [e.id])

    walk(source, [])
    return paths


def reach_sets_oracle(net, edge_set):
    cut = set(edge_set)
    feeding, separated = set(), set()
    for s in net.sources:
        paths = all_sink_paths(net, s)
        if any(set(p) & cut for p in paths):
            feeding.add(s)
        if all(set(p) & cut for p in paths):
            separated.add(s)
    return frozenset(feeding), frozenset(separated)


# -- parsing -----------------------------------------------------------------------

def test_parse_two_edge_line():
    net = parse_network(json.dumps({
        "nodes": ["s", "v", "rho"],
        "sources": ["s"],
        "sink": "rho",
        "edges": [
            {"id": "e1", "tail": "s", "head": "v"},
            {"id": "e2", "tail": "v", "head": "rho"},
        ],
    }))
    assert net.order == ("e1", "e2")


def test_n1_fixture_shape(n1):
    assert n1.num_sources == 2
    assert len(n1.edges) == 5


def test_edge_into_source_rejected():
    with pytest.raises(SourceHasInEdge):
        make_network(
            ["s", "v", "rho"],
            [("e1", "s", "v"), ("e2", "v", "s"), ("e3", "v", "rho")],
            ["s"],
            "rho",
        )


def test_edge_out_of_sink_rejected():
    with pytest.raises(SinkHasOutEdge):
        make_network(
            ["s", "v", "rho"],
            [("e1", "s", "v"), ("e2", "v", "rho"), ("e3", "rho", "v")],
            ["s"],
            "rho",
        )


def test_cycle_rejected():
    with pytest.raises(Cycle):
        make_network(
            ["s", "a", "b", "rho"],
            [("e1", "s", "a"), ("e2", "a", "b"), ("e3", "b", "a"), ("e4", "a", "rho")],
            ["s"],
            "rho",
        )


def test_unreachable_sink_rejected():
    with pytest.raises(UnreachableSink):
        make_network(
            ["s", "v", "w", "rho"],
            [("e1", "s", "v"), ("e2", "v", "rho"), ("e3", "v", "w")],
            ["s"],
            "rho",
        )


def test_orphan_intermediate_rejected():
    with pytest.raises(MalformedInput):
        make_network(
            ["s", "v", "rho"],
            [("e1", "s", "rho"), ("e2", "v", "rho")],
            ["s"],
            "rho",
        )


def test_duplicate_edge_ids_rejected():
    with pytest.raises(MalformedInput):
        make_network(
            ["s", "rho"],
            [("e1", "s", "rho"), ("e1", "s", "rho")],
            ["s"],
            "rho",
        )


def test_malformed_json_rejected():
    with pytest.raises(MalformedInput):
        parse_network(b"{nope")
    with pytest.raises(MalformedInput):
        parse_network(json.dumps({"nodes": []}))


def test_multi_edges_are_allowed(n1):
    # e1 and e2 are parallel edges s1 -> v3
    assert n1.edge_by_id["e1"].head == n1.edge_by_id["e2"].head


# -- the edge order -------------------------------------------------------------------

def test_order_puts_source_edges_first_grouped(butterfly):
    assert butterfly.order[:4] == ("e1", "e2", "e3", "e4")


@given(st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_order_is_topological(seed):
    net = random_network(seed)
    pos = net.order_index
    for d in net.edges:
        for e in net.out_edges[d.head]:
            assert pos[d.id] < pos[e.id]


@given(st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_order_groups_source_edges_by_source_index(seed):
    net = random_network(seed)
    groups = [[e.id for e in net.out_edges[s]] for s in net.sources]
    flat = [eid for g in groups for eid in g]
    assert list(net.order[: len(flat)]) == flat


# -- reach sets ------------------------------------------------------------------------

def test_reach_sets_empty(butterfly):
    rs = reach_sets(butterfly, [])
    assert rs.feeding == rs.separated == rs.leaking == frozenset()


def test_reach_sets_butterfly_source_pair(butterfly):
    rs = reach_sets(butterfly, ["e1", "e2"])
    assert rs.feeding == rs.separated == frozenset({"s1"})
    assert rs.leaking == frozenset()


def test_reach_sets_butterfly_middle_edge(butterfly):
    rs = reach_sets(butterfly, ["e5"])
    assert rs.feeding == frozenset({"s1", "s2"})
    assert rs.separated == frozenset()


def test_reach_sets_unknown_edge(butterfly):
    with pytest.raises(UnknownEdge):
        reach_sets(butterfly, ["nope"])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_reach_sets_agree_with_path_enumeration(data):
    net = random_network(data.draw(st.integers(0, 5000)))
    ids = sorted(net.edge_by_id)
    k = data.draw(st.integers(0, min(3, len(ids))))
    subset = data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True))
    rs = reach_sets(net, subset)
    feeding, separated = reach_sets_oracle(net, subset)
    assert rs.feeding == feeding
    assert rs.separated == separated
    assert rs.separated <= rs.feeding


# -- linear-function reduction -----------------------------------------------------------------

def test_reduce_all_ones_is_identity(butterfly):
    net, kept = reduce_linear_to_sum(butterfly, [1, 1], GF2)
    assert net == butterfly
    assert kept == {"s1": 1, "s2": 1}


def test_reduce_drops_zero_coefficient_source(butterfly):
    net, kept = reduce_linear_to_sum(butterfly, [1, 0], GF2)
    assert kept == {"s1": 1}
    assert sorted(net.edge_by_id) == ["e1", "e2", "e5", "e6", "e7", "e8", "e9"]
    assert net.sources == ("s1",)


def test_reduce_all_zero_rejected(butterfly):
    with pytest.raises(AllZeroFunction):
        reduce_linear_to_sum(butterfly, [0, 0], GF2)


def test_reduce_validation_failure_when_removal_orphans_a_node():
    net = make_network(
        ["s1", "s2", "v", "rho"],
        [("e1", "s1", "rho"), ("e2", "s2", "v"), ("e3", "v", "rho")],
        ["s1", "s2"],
        "rho",
    )
    with pytest.raises(ValidationFailure):
        reduce_linear_to_sum(net, [1, 0], GF2)


def test_reduce_applies_scaling_map(butterfly):
    gf5 = make_field(5, 1)
    _, kept = reduce_linear_to_sum(butterfly, [3, 2], gf5)
    assert kept == {"s1": 3, "s2": 2}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_parser_never_leaks_raw_exceptions(data):
    """Randomly mutated network documents either parse or raise a domain error."""
    from snfc import fixtures as fx
    from snfc.errors import SnfcError

    doc = json.loads(json.dumps(fx.network_dict("butterfly")))
    mutation = data.draw(st.sampled_from(["drop", "retype", "edge_drop", "edge_retarget", "dup"]))
    if mutation == "drop":
        del doc[data.draw(st.sampled_from(sorted(doc)))]
    elif mutation == "retype":
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(
            st.sampled_from([None, 7, "x", {}])
        )
    elif mutation == "edge_drop":
        doc["edges"] = doc["edges"][: data.draw(st.integers(0, 8))]
    elif mutation == "edge_retarget":
        idx = data.draw(st.integers(0, len(doc["edges"]) - 1))
        field = data.draw(st.sampled_from(["tail", "head", "id"]))
        doc["edges"][idx][field] = data.draw(st.sampled_from(["s1", "rho", "v9", "e1"]))
    elif mutation == "dup":
        doc["edges"].append(dict(doc["edges"][0]))
    try:
        network_from_dict(doc)
    except SnfcError:
        pass
