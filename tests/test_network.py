import importlib
import json
import pkgutil
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import snfc
from snfc import (
    network_from_dict,
    make_field,
    make_network,
    parse_network,
    reduce_linear_to_sum,
)
from snfc.cli import main
from snfc.corpus import random_network
from snfc.errors import (
    AllZeroFunction,
    Cycle,
    MalformedInput,
    SinkHasOutEdge,
    SourceHasInEdge,
    UnknownEdge,
    UnknownNode,
    SnfcError,
    UnreachableSink,
    ValidationFailure,
)
from snfc.network import Edge, Network
import reference
from reference import reach_sets
from cases import bound_large_stars, many_source_network

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


@pytest.mark.parametrize(
    "nodes, sources, message",
    [
        (["s", "s", "rho"], ["s"], "duplicate node ids"),
        (["s", "rho"], ["s", "rho"], "the sink cannot be a source"),
        (["s", "rho"], ["s", "s"], "duplicate sources"),
        (["s", "rho"], [], "at least one source is required"),
    ],
    ids=["duplicate-nodes", "sink-as-source", "duplicate-sources", "no-sources"],
)
def test_malformed_node_lists_rejected(nodes, sources, message):
    with pytest.raises(MalformedInput, match=message):
        make_network(nodes, [("e1", "s", "rho")], sources, "rho")


def test_cli_refuses_a_network_file_with_no_sources(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": ["s", "rho"], "sources": [], "sink": "rho", "edges": [{"id": "e1", "tail": "s", "head": "rho"}]}))
    result = CliRunner().invoke(main, ["bound", "--network", str(path), "--r", "0", "--json"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output) == {"error": "MalformedInput", "message": "at least one source is required"}


def test_source_not_among_nodes_rejected():
    with pytest.raises(UnknownNode, match="source 'x' not among nodes"):
        make_network(["s", "rho"], [("e1", "s", "rho")], ["s", "x"], "rho")


def test_malformed_json_rejected():
    with pytest.raises(MalformedInput):
        parse_network(b"{nope")
    with pytest.raises(MalformedInput):
        parse_network(json.dumps({"nodes": []}))


@pytest.mark.parametrize(
    "nodes, sources",
    [("st", ["s"]), (["s", "t"], "s"), ({"s": 1, "t": 2}, ["s"]), (["s", "t"], {"s": 0})],
    ids=["nodes-string", "sources-string", "nodes-object", "sources-object"],
)
def test_nodes_and_sources_must_be_json_arrays(nodes, sources):
    # a string or an object would iterate as node names: its characters or its keys
    doc = {"nodes": nodes, "sources": sources, "sink": "t", "edges": [{"id": "e", "tail": "s", "head": "t"}]}
    with pytest.raises(MalformedInput, match="nodes and sources must be JSON arrays"):
        parse_network(json.dumps(doc))


@pytest.mark.parametrize("text", [3, None, [1], {"nodes": []}], ids=["int", "None", "list", "dict"])
def test_parse_network_rejects_a_document_that_is_not_json_text(text):
    with pytest.raises(MalformedInput, match="invalid JSON"):
        parse_network(text)


@pytest.mark.parametrize("text", ["[1]", "3", b"null"])
def test_parse_network_names_the_document_that_is_not_an_object(text):
    with pytest.raises(MalformedInput, match="network document must be a JSON object"):
        parse_network(text)


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


def test_order_follows_the_source_list_then_the_node_order():
    # sources listed against the node order, file edges of different tails interleaved,
    # and w listed before v though it comes after it in the node order
    net = make_network(
        ["w", "v", "s1", "s2", "rho"],
        [("a", "w", "rho"), ("b", "s1", "v"), ("c", "s2", "rho"), ("x", "v", "w"),
         ("d", "s1", "rho"), ("e", "s2", "v"), ("f", "v", "rho")],
        ["s2", "s1"],
        "rho",
    )
    assert reference.node_order(net) == ("s1", "s2", "v", "w", "rho")
    assert net.order == ("c", "e", "b", "d", "x", "f", "a")


# -- the position index against the rules by node name -----------------------------------

def assert_index_follows_the_name_rules(net):
    reference.validate(net)
    assert tuple(net.nodes[v] for v in net._topo) == reference.node_order(net)
    assert net.order == reference.order(net)
    assert net.order_index == {eid: i for i, eid in enumerate(net.order)}
    # each node's edges, each at its position in the node's tuple
    assert net.out_edges == reference.out_edges(net)
    assert net.in_edges == reference.in_edges(net)
    index = net._index
    assert index.position == {n: i for i, n in enumerate(net.nodes)}
    assert index.edge_position == {e.id: i for i, e in enumerate(net.edges)}
    assert [(net.nodes[t], net.nodes[h]) for t, h in zip(index.tails, index.heads)] == [(e.tail, e.head) for e in net.edges]
    for n, v in index.position.items():
        assert [net.edges[i] for i in index.outs[v]] == [e for e in net.edges if e.tail == n]
        assert [net.edges[i] for i in index.ins[v]] == [e for e in net.edges if e.head == n]


def test_the_index_follows_the_name_rules_on_the_corpus():
    for seed in range(2000):
        assert_index_follows_the_name_rules(random_network(seed))


def test_the_index_follows_the_name_rules_on_many_source_networks():
    for seed in range(500):
        assert_index_follows_the_name_rules(many_source_network(seed, max_edges=20))


def test_the_index_follows_the_name_rules_on_the_large_stars():
    for net in bound_large_stars(1, 81):
        assert_index_follows_the_name_rules(net)


def verdict(check):
    """None when `check()` returns, else the class and message of what it raised."""
    try:
        check()
    except SnfcError as exc:
        return type(exc), str(exc)
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_validation_of_mutated_documents_matches_the_name_rules(data):
    # a mutation can break several checks at once, so the error reported
    # also shows that the checks run in the same order
    doc = random_network(data.draw(st.integers(0, 3000))).to_dict()
    for _ in range(data.draw(st.integers(1, 2))):
        edges, nodes = doc["edges"], doc["nodes"]
        mutation = data.draw(st.sampled_from(["retarget", "duplicate", "reverse", "drop_node", "duplicate_node"]))
        i = data.draw(st.integers(0, len(edges) - 1))
        if mutation == "retarget":
            end = data.draw(st.sampled_from(["tail", "head"]))
            edges[i][end] = data.draw(st.sampled_from([*nodes, "zz"]))
        elif mutation == "duplicate":
            copy = dict(edges[i], id=data.draw(st.sampled_from([edges[i]["id"], "x1"])))
            edges.insert(data.draw(st.integers(0, len(edges))), copy)
        elif mutation == "reverse":
            edges[i]["tail"], edges[i]["head"] = edges[i]["head"], edges[i]["tail"]
        elif mutation == "drop_node":
            del nodes[data.draw(st.integers(0, len(nodes) - 1))]
        else:
            nodes.insert(data.draw(st.integers(0, len(nodes))), data.draw(st.sampled_from(nodes)))
    plain = Network(tuple(doc["nodes"]), tuple(Edge(**e) for e in doc["edges"]), tuple(doc["sources"]), doc["sink"])
    expected = verdict(lambda: reference.validate(plain))
    assert verdict(lambda: parse_network(json.dumps(doc))) == expected
    if expected is None:
        assert_index_follows_the_name_rules(parse_network(json.dumps(doc)))


# -- the Edge contract ----------------------------------------------------------------------

def test_edge_is_an_immutable_named_triple():
    edge = Edge("e1", "s", "v")
    assert edge == Edge(id="e1", tail="s", head="v") == ("e1", "s", "v")
    assert (edge.id, edge.tail, edge.head) == tuple(edge) == ("e1", "s", "v")
    assert repr(edge) == "Edge(id='e1', tail='s', head='v')"
    for field in ("id", "tail", "head"):
        with pytest.raises(AttributeError):
            setattr(edge, field, "x")
    assert hash(edge) == hash(("e1", "s", "v"))
    assert {edge, Edge("e1", "s", "v")} == {edge}
    assert {edge: 1}[Edge("e1", "s", "v")] == 1
    assert Edge("e1", "s", "v") < Edge("e2", "s", "v")


def test_make_network_takes_edges_and_triples_alike():
    triples = [("e1", "s", "v"), ("e2", "v", "rho")]
    from_edges = make_network(["s", "v", "rho"], [Edge(*t) for t in triples], ["s"], "rho")
    from_triples = make_network(["s", "v", "rho"], triples, ["s"], "rho")
    mixed = make_network(["s", "v", "rho"], [Edge(*triples[0]), triples[1]], ["s"], "rho")
    assert from_edges == from_triples == mixed
    parsed = parse_network(json.dumps(from_edges.to_dict()))
    assert all(type(e) is Edge for net in (from_edges, from_triples, mixed, parsed) for e in net.edges)


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


@pytest.mark.parametrize("coeffs", [[1], [1, 1, 1]], ids=["one", "three"])
def test_reduce_rejects_the_wrong_number_of_coefficients(butterfly, coeffs):
    with pytest.raises(ValidationFailure, match=f"expected 2 coefficients, got {len(coeffs)}"):
        reduce_linear_to_sum(butterfly, coeffs, GF2)


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

    doc = json.loads(json.dumps(fx.network("butterfly").to_dict()))
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


# -- cache lifetimes -------------------------------------------------------------------

def test_only_the_field_cache_is_unbounded():
    # a result derived from a network belongs in its memo (`per_network`), which is
    # freed with it; only field specs, which MAX_FIELD_SIZE bounds, may stay cached
    # for the life of the process
    for info in pkgutil.iter_modules(snfc.__path__):
        importlib.import_module(f"snfc.{info.name}")
    unbounded = set()
    for name, module in list(sys.modules.items()):
        if name != "snfc" and not name.startswith("snfc."):
            continue
        for obj in vars(module).values():
            for member in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if hasattr(member, "cache_info") and member.cache_info().maxsize is None:
                    unbounded.add(f"{member.__module__}.{member.__qualname__}")
    assert unbounded == {"snfc.gf._make_field"}
