"""The bound depends on the topology alone.

Renaming the nodes and edges while reordering both lists, or subdividing one
edge (tail -> new node -> head), must leave c_min, c_min_bar, the upper and
lower bounds, the exact capacity and the brute-force oracle unchanged.  Only
values are compared: witnesses are the first sets in the edge order, so they
follow the renaming.  The networks stay small, so C(|E|, c_min) stays far
below CUT_SCAN_LIMIT and the subdivision's extra edge cannot flip `exact`.
"""

import json
import math
import random

import pytest
from click.testing import CliRunner

from snfc import c_min, c_min_bar, construct, fixtures, make_network, upper_bound, upper_bound_oracle, verify
from snfc.bounds import CUT_SCAN_LIMIT
from snfc.cli import main
from snfc.corpus import random_network

LEVELS = range(4)
# every corpus seed below 3000 whose network has at most 10 edges and c_min < c_min_bar:
# the only small ones where the upper bound can lie above max(c_min - r, 0)
SPLIT_SEEDS = [17, 162, 369, 929, 1514, 2165, 2337, 2886]
NETWORKS = (
    [net for net in map(random_network, range(50)) if len(net.edges) <= 9][:24]
    + [random_network(seed) for seed in SPLIT_SEEDS]
    + [fixtures.network(name) for name in fixtures.network_names()]
)


def renamed(net, rng):
    """net with fresh node and edge names, both lists shuffled."""
    nodes = list(net.nodes)
    rng.shuffle(nodes)
    name = {n: f"n{i}" for i, n in enumerate(nodes)}
    edges = [(f"d{i}", name[e.tail], name[e.head]) for i, e in enumerate(net.edges)]
    rng.shuffle(edges)
    return make_network([name[n] for n in nodes], edges, [name[s] for s in net.sources], name[net.sink])


def subdivided(net, eid):
    """net with edge eid split into eid (tail -> mid) and a new edge (mid -> head)."""
    edges = []
    for e in net.edges:
        if e.id == eid:
            edges += [(e.id, e.tail, "mid"), (f"{e.id}_2", "mid", e.head)]
        else:
            edges.append((e.id, e.tail, e.head))
    return make_network(list(net.nodes) + ["mid"], edges, list(net.sources), net.sink)


def values(net, r):
    report = upper_bound(net, r)
    return (report.upper, report.lower, report.c_min, report.c_min_bar, report.exact, upper_bound_oracle(net, r))


def test_the_sample_is_small_and_varied():
    assert len(NETWORKS) == 35
    assert {len(net.sources) for net in NETWORKS} == {1, 2, 3}
    assert sum(c_min(net) < c_min_bar(net) for net in NETWORKS) == 9  # the split seeds and n1
    assert all(math.comb(len(net.edges) + 1, c_min(net)) < CUT_SCAN_LIMIT for net in NETWORKS)
    reasons = {None if report.exact is None else report.exact.reason for report in (
        upper_bound(net, r) for net in NETWORKS for r in LEVELS)}
    assert reasons == {None, "r_zero", "zero_capacity", "cmin_equals_cminbar", "cut_structure"}


@pytest.mark.parametrize("index", range(len(NETWORKS)))
def test_renaming_and_subdividing_keep_every_value(index):
    net = NETWORKS[index]
    rng = random.Random(index)
    images = [renamed(net, rng), subdivided(net, rng.choice(net.edges).id)]
    for r in LEVELS:
        expected = values(net, r)
        for image in images:
            assert values(image, r) == expected, (net.to_dict(), image.to_dict(), r)


def test_codes_on_renamed_networks_pass_both_verify_routes():
    # the draws follow the edge order, so the codes differ from the original's
    exhaustive = 0
    for index, net in enumerate(NETWORKS):
        net = renamed(net, random.Random(index))
        for r in range(c_min(net)):
            report = verify(construct(net, r, seed=1), net, cap=4096)
            assert report.all_passed, (net.to_dict(), r)
            exhaustive += report.secure_exhaustive is not None
    assert exhaustive >= 50


@pytest.mark.parametrize("index", [5, 24])
def test_cli_bound_gives_the_same_values_from_a_renamed_file(index, tmp_path):
    net = NETWORKS[index]
    files = [tmp_path / "original.json", tmp_path / "renamed.json"]
    for path, image in zip(files, [net, renamed(net, random.Random(index))]):
        path.write_text(json.dumps(image.to_dict()))
    runner = CliRunner()
    for r in LEVELS:
        payloads = []
        for path in files:
            result = runner.invoke(main, ["bound", "--network", str(path), "--r", str(r), "--oracle", "--json"])
            assert result.exit_code == 0, result.output
            payload = json.loads(result.output)
            del payload["witness_W"], payload["witness_cut"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
