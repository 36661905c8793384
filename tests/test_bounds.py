
import importlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    c_min,
    c_min_bar,
    exact_capacity,
    fixtures,
    is_primary,
    lower_bound,
    make_network,
    min_cut,
    min_cut_edge_target,
    primary_min_cut,
    primary_wiretap_sets,
    residual,
    upper_bound,
    upper_bound_oracle,
    zero_capacity,
)
from snfc.bounds import CUT_SCAN_LIMIT, _omega_report, _primary_sets_of_size
from snfc.cuts import _primary_edges
from snfc.corpus import corpus, random_network
from snfc.errors import NegativeSecurityLevel, TooLarge
from snfc.network import Network
from reference import full_sweep, omega, reach_sets


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
            report = _omega_report(net, wset)
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
        report = _omega_report(net, wset)
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


def two_source_star(seed: int, n_edges: int) -> Network:
    return star_from(random.Random(f"star:{seed}"), n_edges)


def bound_large_stars(seed: int, count: int) -> list[Network]:
    """The first 200-edge stars of the `bound_large` benchmark workload's seed."""
    rng = random.Random(f"bound_large:{seed}")
    return [star_from(rng, 200) for _ in range(count)]


def star_from(rng: random.Random, n_edges: int) -> Network:
    """Two sources, one layer of hubs and a sink.  Every hub has an edge in and
    an edge out; the other edges, parallel ones included, run from a random
    source to a random hub or from a random hub to the sink."""
    sources = ["s1", "s2"]
    hubs = [f"v{i + 1}" for i in range(n_edges // 6)]
    pairs = [(rng.choice(sources), hub) for hub in hubs] + [(hub, "rho") for hub in hubs]
    while len(pairs) < n_edges:
        hub = rng.choice(hubs)
        pairs.append((rng.choice(sources), hub) if rng.random() < 0.5 else (hub, "rho"))
    edges = [(f"e{i + 1}", tail, head) for i, (tail, head) in enumerate(pairs)]
    return make_network([*sources, *hubs, "rho"], edges, sources, "rho")


def parallel_network(n_edges: int) -> Network:
    return make_network(
        ["s1", "rho"], [(f"e{i + 1}", "s1", "rho") for i in range(n_edges)], ["s1"], "rho"
    )


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
    _primary_sets_of_size.cache_clear()  # a cached size would be read, not counted
    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(n, 2))
    assert len(primary_wiretap_sets(net, 1)) == n + 1  # sizes 0 and 1 stay cached

    def refuse(*args):
        raise AssertionError("the candidate primary sets were listed")

    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(n, 2) - 1)
    monkeypatch.setattr(itertools, "combinations", refuse)
    try:
        with pytest.raises(TooLarge):
            primary_wiretap_sets(net, 2)
        with pytest.raises(TooLarge):
            upper_bound(net, 2)
    finally:
        _primary_sets_of_size.cache_clear()


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


def count_is_primary(monkeypatch) -> list[int]:
    module = importlib.import_module("snfc.bounds")
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return is_primary(*args)

    monkeypatch.setattr(module, "is_primary", counted)
    return calls


def test_sweep_confirms_candidate_sets_only_as_it_reaches_them(monkeypatch):
    (net,) = bound_large_stars(1, 1)
    pairs = math.comb(len(_primary_edges(net)), 2)
    calls = count_is_primary(monkeypatch)
    report = upper_bound(net, 2)
    assert 0 < calls[0] < pairs // 10  # 920 of 17205
    assert report.upper == max(report.c_min - 2, 0)


def test_sweep_counts_every_size_before_any_max_flow(monkeypatch):
    (net,) = bound_large_stars(1, 1)
    module = importlib.import_module("snfc.bounds")
    monkeypatch.setattr(module, "PRIMARY_SET_LIMIT", math.comb(len(_primary_edges(net)), 2) - 1)
    calls = count_is_primary(monkeypatch)
    with pytest.raises(TooLarge):
        upper_bound(net, 2)
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
