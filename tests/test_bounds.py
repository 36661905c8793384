
import gc
import hashlib
import importlib
import itertools
import json
import math
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    c_min,
    c_min_bar,
    construct,
    exact_capacity,
    fixtures,
    is_primary,
    lower_bound,
    make_network,
    min_cut,
    min_cut_edge_target,
    parse_network,
    primary_min_cut,
    primary_wiretap_sets,
    residual,
    upper_bound,
    upper_bound_oracle,
    verify,
    zero_capacity,
)
from snfc.bounds import CUT_SCAN_LIMIT, _oracle_cut_stats
from snfc.cuts import _primary_edges, feeding_sources, node_flow
from snfc.corpus import corpus, random_network
from snfc.errors import FieldTooSmallForMulticast, NegativeSecurityLevel, TooLarge
from reference import full_sweep, omega, reach_sets
from cases import bound_large_stars, many_source_network, parallel_network, two_source_star


# -- the residual cut statistic -----------------------------------------------------

def test_omega_empty_set_is_c_min(butterfly):
    assert omega(butterfly, []) == c_min(butterfly) == 2


def test_omega_butterfly_single_source_edge(butterfly):
    # once e1 is gone, source 1 funnels through a single chain
    assert omega(butterfly, ["e1"]) == 1


def test_omega_n1_relay_edge(n1):
    # both sources feed e5; deleting it leaves only the direct edge e4
    assert reach_sets(n1, ["e5"]).feeding == frozenset({"s1", "s2"})
    assert omega(n1, ["e5"]) == 1


def test_incremental_omega_matches_a_fresh_max_flow():
    # every primary set of size <= 3 on the corpus: the shared-flow report must
    # equal a maximum flow from scratch on the network with W deleted
    checked = 0
    for net in corpus(300):
        family = [w for w in primary_wiretap_sets(net, 3) if w]
        for wset in family:
            report = node_flow(net, feeding_sources(net, wset), net.sink).cut_without(wset)
            feeding = sorted(reach_sets(net, wset).feeding)
            assert report == min_cut(residual(net, wset), feeding, net.sink), wset
            checked += 1
    assert checked > 1000


def test_incremental_omega_on_parallel_and_serial_wiretaps():
    # W holds both edges of a path and a parallel pair, so cancelling one unit
    # of flow also drains another edge of W
    net = make_network(
        ["s1", "s2", "v", "w", "rho"],
        [("e1", "s1", "v"), ("e2", "v", "w"), ("e3", "w", "rho"), ("e4", "s1", "w"),
         ("e5", "s2", "w"), ("e6", "w", "rho"), ("e7", "s2", "rho"), ("e8", "s2", "rho")],
        ["s1", "s2"],
        "rho",
    )
    wsets = [("e1", "e2"), ("e2", "e3"), ("e3", "e6"), ("e7", "e8"), ("e1", "e3", "e4"), ("e2",)]
    for wset in wsets:
        report = node_flow(net, feeding_sources(net, wset), net.sink).cut_without(wset)
        feeding = sorted(reach_sets(net, wset).feeding)
        assert report == min_cut(residual(net, wset), feeding, net.sink), wset


@pytest.mark.parametrize(
    "call",
    [
        lambda net: upper_bound(net, -1),
        lambda net: lower_bound(net, -1),
        lambda net: exact_capacity(net, -1),
        lambda net: primary_wiretap_sets(net, -1),
        lambda net: zero_capacity(net, -1),
    ],
)
def test_negative_security_level_rejected(butterfly, call):
    with pytest.raises(NegativeSecurityLevel):
        call(butterfly)


# -- wiretap-set enumeration -----------------------------------------------------------

def test_primary_wiretap_sets_r0(butterfly):
    assert primary_wiretap_sets(butterfly, 0) == [()]
    assert primary_wiretap_sets(butterfly, 0, exact_size=True) == [()]


def test_butterfly_exact_size_census(butterfly):
    assert primary_wiretap_sets(butterfly, 1, exact_size=True) == [
        ("e1",), ("e2",), ("e3",), ("e4",), ("e5",), ("e8",), ("e9",),
    ]


def test_size_bounded_family_includes_empty_set(butterfly):
    family = primary_wiretap_sets(butterfly, 1)
    assert family[0] == ()
    assert len(family) == 8


def test_fig2_pair_excluded(fig2):
    family = primary_wiretap_sets(fig2, 2)
    assert ("e7", "e8") not in family


def brute_force_primary_sets(net, r):
    """Every edge set of size <= r that `is_primary` accepts, and the empty set."""
    ids = sorted(net.edge_by_id)
    return [
        c
        for k in range(r + 1)
        for c in itertools.combinations(ids, k)
        if not c or is_primary(net, c)
    ]


def _enumeration_cases():
    yield pytest.param([(random_network(seed), 3) for seed in range(300)], id="corpus-0-299")
    for n in range(1, 10):
        yield pytest.param([(parallel_network(n), n)], id=f"parallel-{n}")
    for seed, n_edges in [(0, 40), (1, 50), (2, 60), (3, 60)]:
        yield pytest.param([(two_source_star(seed, n_edges), 2)], id=f"star-{seed}-{n_edges}")
    for name in ("butterfly", "fig2", "n1"):
        net = fixtures.network(name)
        yield pytest.param([(net, len(net.edges))], id=name)


@pytest.mark.parametrize("cases", _enumeration_cases())
def test_primary_sets_match_the_brute_force(cases):
    for net, rmax in cases:
        brute = brute_force_primary_sets(net, rmax)  # by size, then lexicographic
        for r in range(rmax + 1):
            assert primary_wiretap_sets(net, r) == sorted(c for c in brute if len(c) <= r)
            exact = [c for c in brute if len(c) == r]
            assert primary_wiretap_sets(net, r, exact_size=True) == exact
        # the lemma behind the candidate restriction, checked on the brute force:
        # every edge of a primary set of size >= 2 is a primary singleton
        singles = {c[0] for c in brute if len(c) == 1}
        for wset in brute:
            if len(wset) >= 2:
                assert singles.issuperset(wset), wset


def test_primary_sets_are_counted_before_they_are_listed(monkeypatch):
    module = importlib.import_module("snfc.bounds")
    net = two_source_star(2, 60)
    n = len(_primary_edges(net))  # 54
    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(n, 2))
    assert len(primary_wiretap_sets(net, 1)) == n + 1  # sizes 0 and 1 stay cached

    def refuse(*args):
        raise AssertionError("the candidate primary sets were listed")

    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(n, 2) - 1)
    monkeypatch.setattr(itertools, "combinations", refuse)
    with pytest.raises(TooLarge):
        primary_wiretap_sets(net, 2)
    with pytest.raises(TooLarge):
        upper_bound(net, 2)


def test_primary_sets_stop_at_the_number_of_primary_edges():
    # sizes past the 7 primary edges hold no set, so a huge r costs what r = 7 costs
    net = fixtures.network("butterfly")
    assert len(_primary_edges(net)) == 7
    expected = primary_wiretap_sets(net, 7)
    entries = len(net._memo)
    t0 = time.perf_counter()
    assert primary_wiretap_sets(net, 10**9) == expected
    assert time.perf_counter() - t0 < 2.0
    assert len(net._memo) == entries


# -- upper bound -------------------------------------------------------------------------

def assert_same_as_full_sweep(net, r):
    report = upper_bound(net, r)
    if r < report.c_min_bar:
        best, witness = full_sweep(net, r)
        assert (report.upper, report.witness_W, report.witness_cut) == (best.capacity, witness, best.cut_edges)


def test_upper_bound_reports_what_the_full_sweep_reports_on_the_corpus():
    for net in corpus(200):
        for r in range(4):
            assert_same_as_full_sweep(net, r)


def test_upper_bound_reports_what_the_full_sweep_reports_on_large_stars():
    for net in bound_large_stars(1, 4):
        assert_same_as_full_sweep(net, 1)


def test_upper_bound_reports_what_the_full_sweep_reports_on_four_to_six_sources():
    for seed in range(100):
        net = many_source_network(seed, max_edges=20)
        for r in range(4):
            assert_same_as_full_sweep(net, r)


@pytest.mark.parametrize("seed,r", [(925, 2), (925, 3), (1275, 3), (1668, 2), (2088, 3)])
def test_the_sweep_passes_over_a_set_that_ties_the_witness_but_is_not_primary(seed, r):
    # on these corpus networks a set of primary single edges that is not itself
    # primary comes before the witness and leaves the same residual cut
    net = random_network(seed)
    assert_same_as_full_sweep(net, r)
    assert is_primary(net, upper_bound(net, r).witness_W)


def test_upper_bound_on_a_large_star_skips_the_flows_that_cannot_win(monkeypatch):
    # the sources' min cuts are 45 and 41: the shared layout and the two flows
    # of c_min; one c_min_bar term, of 43, whose floor of 41 is the only one not
    # above it; and one set cut with its edges deleted, which reaches the floor
    # of 40, after the sets before it are skipped by their bounds
    module = importlib.import_module("snfc.cuts")
    counts = {"_arcs": 0, "_augment": 0, "deleted": 0}
    plain = {name: getattr(module, name) for name in ("_arcs", "_augment")}
    cut_without = module.ResidualFlow.cut_without

    def counted(name):
        def call(*args):
            counts[name] += 1
            return plain[name](*args)
        return call

    def counted_cut(flow, edge_set=()):
        counts["deleted"] += bool(edge_set)
        return cut_without(flow, edge_set)

    (net,) = bound_large_stars(1, 1)
    for name in plain:
        monkeypatch.setattr(module, name, counted(name))
    monkeypatch.setattr(module.ResidualFlow, "cut_without", counted_cut)
    upper_bound(net, 1)
    assert counts == {"_arcs": 1, "_augment": 4, "deleted": 1}


# sha256 of upper_bound(net, 2).to_dict() (JSON, sorted keys) on the first four
# seed-1 `bound_large` stars: the r = 2 sweep confirms pairs by max-flow, which
# no benchmark workload runs on large networks
R2_STAR_DIGESTS = (
    "6dd3e1990f761260dae210b5cede1b1e408330d6bea391beb8c998059b4b1604",
    "40808a476ca4a26c50ee0a8baca86b66c735a6483dae4f40a542df9e23790ee8",
    "bafb8886d15a16d0442181e55a9386c2ebcd3009b6a2d78c28ec55891a0e1995",
    "8693f8eb0574ee78d557acc182f679750f02a75a1baa7b349fc2f81ce149c2fc",
)


def test_upper_bound_at_r2_on_large_stars_is_pinned():
    docs = [json.dumps(upper_bound(net, 2).to_dict(), sort_keys=True) for net in bound_large_stars(1, 4)]
    assert tuple(hashlib.sha256(doc.encode()).hexdigest() for doc in docs) == R2_STAR_DIGESTS


def count_is_primary(monkeypatch) -> list[int]:
    module = importlib.import_module("snfc.bounds")
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return is_primary(*args)

    monkeypatch.setattr(module, "is_primary", counted)
    return calls


def test_sweep_confirms_candidate_sets_only_as_it_reaches_them(monkeypatch):
    # of the C(186, 2) = 17205 candidate pairs, one passes both skip tests
    (net,) = bound_large_stars(1, 1)
    calls = count_is_primary(monkeypatch)
    report = upper_bound(net, 2)
    assert calls[0] == 1
    assert report.upper == max(report.c_min - 2, 0)


# (sha256 of upper_bound(net, 3).to_dict(), is_primary calls) on two_source_star(s, 100), s = 0..3
R3_STAR_PINS = (
    ("15df6d70722b0b27944700a197d8a100d08ab37de465428975b403690aa15506", 2),
    ("a8d12beca10c31905b047f5efd4df77a5b8d4b4c572d67c064f7632d919ac30a", 2),
    ("1c6d37ddc55a10dccdf1448144982e7a6e1e1a7fdb7fe56107b5fb43c1b187ec", 584),
    ("f3c5dc80673e42b81e7d979717b5335f85fdc385e406e81cea3e1bface152ea5", 2),
)


@pytest.mark.parametrize("seed", range(4))
def test_upper_bound_at_r3_on_100_edge_stars_is_pinned(monkeypatch, seed):
    net = two_source_star(seed, 100)
    calls = count_is_primary(monkeypatch)
    doc = json.dumps(upper_bound(net, 3).to_dict(), sort_keys=True)
    assert (hashlib.sha256(doc.encode()).hexdigest(), calls[0]) == R3_STAR_PINS[seed]


def test_sweep_counts_every_size_before_any_max_flow(monkeypatch):
    (net,) = bound_large_stars(1, 1)
    module = importlib.import_module("snfc.bounds")
    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(len(_primary_edges(net)), 2) - 1)
    calls = count_is_primary(monkeypatch)
    with pytest.raises(TooLarge):
        upper_bound(net, 2)
    assert calls[0] == 0


def test_primary_family_counts_every_size_before_any_max_flow(monkeypatch):
    # sizes 0 to 2 fit under the cap and size 3 does not: no size-2 candidate
    # (C(54, 2) = 1431 of them) may be confirmed before size 3 is refused
    module = importlib.import_module("snfc.bounds")
    net = two_source_star(2, 60)
    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(len(_primary_edges(net)), 3) - 1)
    calls = count_is_primary(monkeypatch)
    with pytest.raises(TooLarge):
        primary_wiretap_sets(net, 3)
    assert calls[0] == 0


def test_butterfly_upper_bound(butterfly):
    report = upper_bound(butterfly, 1)
    assert report.upper == 1
    assert report.c_min == report.c_min_bar == 2


def test_n1_upper_bound_no_penalty(n1):
    report = upper_bound(n1, 1)
    assert report.upper == 1 == report.c_min


@given(st.integers(0, 3000))
@settings(max_examples=50, deadline=None)
def test_upper_bound_r0_is_c_min(seed):
    net = random_network(seed)
    assert upper_bound(net, 0).upper == c_min(net)


def test_witnesses_are_reported(butterfly):
    report = upper_bound(butterfly, 1)
    assert report.witness_W == ("e1",)
    # the witness pair actually realizes the bound
    assert omega(butterfly, report.witness_W) == report.upper
    assert len(report.witness_cut) == report.upper


# -- brute-force oracle ---------------------------------------------------------------------

def test_oracle_butterfly_values(butterfly):
    assert upper_bound_oracle(butterfly, 1) == 1
    assert upper_bound_oracle(butterfly, 0) == 2


def test_oracle_n1_r2_hits_zero(n1):
    assert upper_bound_oracle(n1, 2) == 0
    assert c_min_bar(n1) == 2


def test_oracle_guard():
    edges = [(f"e{i}", "s", "rho") for i in range(1, 18)]
    net = make_network(["s", "rho"], edges, ["s"], "rho")
    with pytest.raises(TooLarge):
        upper_bound_oracle(net, 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_upper_bound_equals_oracle(data):
    net = random_network(data.draw(st.integers(0, 6000)))
    r = data.draw(st.integers(0, 3))
    assert upper_bound(net, r).upper == upper_bound_oracle(net, r)


# every corpus seed below 3000 whose network has at most 12 edges and c_min < c_min_bar:
# there the upper bound's sweep can stop above the floor max(c_min - r, 0)
GENERAL_CASE_SEEDS = [
    17, 162, 175, 222, 369, 511, 929, 949, 1514, 1543, 1589, 1595, 1775,
    1789, 1845, 1897, 2165, 2169, 2187, 2337, 2368, 2769, 2879, 2885, 2886, 2960,
]


def test_general_case_seeds_are_the_small_corpus_networks_with_c_min_below_c_min_bar():
    nets = map(random_network, range(3000))
    split = [seed for seed, net in enumerate(nets) if len(net.edges) <= 12 and c_min(net) < c_min_bar(net)]
    assert split == GENERAL_CASE_SEEDS


def test_upper_bound_equals_oracle_in_the_general_case():
    above_floor = 0
    for net in map(random_network, GENERAL_CASE_SEEDS):
        for r in range(4):
            report, oracle = upper_bound(net, r), upper_bound_oracle(net, r)
            assert report.upper == oracle, (net.to_dict(), r)
            assert report.exact is None or report.exact.value == oracle, (net.to_dict(), r)
            above_floor += report.upper > report.lower
    assert above_floor  # the sweep's general case is reached


def test_c_min_bar_is_the_smallest_oracle_cut_that_only_separated_sources_feed():
    # a separated source feeds the cut, since its paths to the sink cross it: so
    # the feeding sources are exactly the separated ones when only separated
    # sources feed every edge of the cut
    for net in [*corpus(60), *(many_source_network(seed, max_edges=12) for seed in range(20))]:
        assert c_min_bar(net) == min(size for size, avail in _oracle_cut_stats(net) if avail == size)


# -- zero capacity and exactness ----------------------------------------------------------------

def test_zero_capacity_examples(butterfly):
    assert zero_capacity(butterfly, 2)
    assert not zero_capacity(butterfly, 1)


@given(st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_watching_all_source_edges_kills_capacity(seed):
    net = random_network(seed)
    r = min(len(net.out_edges[s]) for s in net.sources)
    assert zero_capacity(net, r)
    assert upper_bound(net, r).upper == 0


def test_exact_capacity_r0(butterfly, n1):
    assert exact_capacity(butterfly, 0) == (2, "r_zero")
    assert exact_capacity(n1, 0) == (1, "r_zero")


def test_exact_capacity_butterfly(butterfly):
    assert exact_capacity(butterfly, 1) == (1, "cmin_equals_cminbar")
    assert exact_capacity(butterfly, 2) == (0, "zero_capacity")


def test_exact_capacity_n1_is_open(n1):
    # c_min < c_min_bar and no minimum cut satisfies the isolation condition
    assert exact_capacity(n1, 1) is None


def test_exact_capacity_cut_structure(cut_structure):
    net = cut_structure
    assert c_min(net) == 2
    assert c_min_bar(net) == 3
    got = exact_capacity(net, 1)
    assert got == (1, "cut_structure")
    assert upper_bound(net, 1).upper == 1


def _cut_structure_reference(net, r):
    """The paper's condition by brute force: some c_min-edge set C separates a
    source whose min cut is c_min and has r edges that only sources separated by
    C can reach."""
    cm = c_min(net)
    tight = {s for s in net.sources if min_cut(net, [s], net.sink).capacity == cm}
    for cut in itertools.combinations(sorted(net.edge_by_id), cm):
        separated = reach_sets(net, cut).separated
        if not separated & tight:
            continue
        isolated = [eid for eid in cut if reach_sets(net, [eid]).feeding <= separated]
        if len(isolated) >= r:
            return True
    return False


def test_cut_structure_matches_the_brute_force_condition():
    # every case where only the cut structure condition can decide exactness
    checked = held = 0
    for net in corpus(6000):
        cm, cb = c_min(net), c_min_bar(net)
        if cm >= cb:
            continue
        for r in range(1, cb):
            holds = _cut_structure_reference(net, r)
            assert (exact_capacity(net, r) == (cm - r, "cut_structure")) == holds, (net, r)
            checked += 1
            held += holds
    assert (checked, held) == (76, 18)


# -- the closed-form bracket and monotonicity -----------------------------------------------------

def test_lower_bound_examples(butterfly, n1):
    assert lower_bound(butterfly, 1) == 1
    assert lower_bound(n1, 1) == 0
    assert lower_bound(butterfly, c_min(butterfly)) == 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bracket(data):
    net = random_network(data.draw(st.integers(0, 6000)))
    r = data.draw(st.integers(0, len(net.edges)))
    report = upper_bound(net, r)
    assert max(c_min(net) - r, 0) <= report.upper <= c_min(net)
    assert report.lower <= report.upper
    if report.exact is not None:
        assert report.lower <= report.exact.value <= report.upper
        assert report.exact.value == report.upper
    if math.comb(len(net.edges), report.c_min) <= CUT_SCAN_LIMIT:
        assert (report.exact is not None) == (report.upper == report.lower)


@given(st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_upper_bound_non_increasing_in_r(seed):
    net = random_network(seed)
    values = [upper_bound(net, r).upper for r in range(4)]
    assert values == sorted(values, reverse=True)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_omega_chain_through_minimum_cuts(data):
    # replacing a wiretap set by a minimum cut towards its feeding sources, and
    # then by the primary one, can only lower the residual statistic
    net = random_network(data.draw(st.integers(0, 4000)))
    ids = sorted(net.edge_by_id)
    k = data.draw(st.integers(1, min(3, len(ids))))
    wset = tuple(data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True)))
    feeding = sorted(reach_sets(net, wset).feeding)
    mid = min_cut_edge_target(net, feeding, wset).cut_edges
    hat = primary_min_cut(net, feeding, wset)
    assert omega(net, hat) <= omega(net, mid) <= omega(net, wset)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_zero_capacity_forces_zero_upper(data):
    net = random_network(data.draw(st.integers(0, 4000)))
    r = data.draw(st.integers(0, len(net.edges)))
    if zero_capacity(net, r):
        assert upper_bound(net, r).upper == 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_witness_pair_realizes_the_bound(data):
    net = random_network(data.draw(st.integers(0, 4000)))
    r = data.draw(st.integers(0, 3))
    report = upper_bound(net, r)
    assert len(report.witness_W) <= r
    assert omega(net, report.witness_W) == report.upper


# -- per-network results ----------------------------------------------------------------------------

def test_a_used_network_is_freed():
    """Freed by reference counting alone: nothing in a network's memo refers back to it."""

    def used_star() -> weakref.ref:
        net = two_source_star(2, 60)
        upper_bound(net, 2)  # memoises the node flows
        primary_wiretap_sets(net, 2)  # memoises the primary sets of sizes 0 to 2
        c_min_bar(net)
        exact_capacity(net, 1)
        return weakref.ref(net)

    def used_corpus_network() -> weakref.ref:
        net = next(n for n in corpus(50) if c_min(n) >= 2 and len(n.edges) <= 12)
        code = construct(net, 1, seed=0)
        assert verify(code, net, fast=True).all_passed
        assert verify(code, net, exhaustive=True).all_passed
        upper_bound_oracle(net, 1)
        return weakref.ref(net)

    def used_after_a_failed_search(seed: int) -> weakref.ref:
        # at seed 1 the GF(2) multicast search fails on both networks, and the memo
        # keeps the failure, without its traceback, for the next security level
        net = random_network(seed)
        for r in range(min(c_min(net), 2)):
            construct(net, r, seed=1)
        assert any(isinstance(kept, FieldTooSmallForMulticast) for kept in net._memo.values())
        return weakref.ref(net)

    gc.collect()
    gc.disable()
    try:
        refs = [used_star(), used_corpus_network(), used_after_a_failed_search(20034), used_after_a_failed_search(51)]
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_results_are_kept_per_network_object_not_per_value():
    net = two_source_star(2, 60)
    again = parse_network(json.dumps(net.to_dict()))
    assert again == net
    origin = frozenset(net.sources)
    flow = node_flow(net, origin, net.sink)
    assert node_flow(net, origin, net.sink) is flow
    assert node_flow(again, origin, net.sink) is not flow
    # equal networks parsed apart share no results, but give the same outputs
    assert upper_bound(again, 2).to_dict() == upper_bound(net, 2).to_dict()
