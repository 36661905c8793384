import functools
import importlib
import itertools
import math
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    Matrix,
    check_computability,
    check_exhaustive,
    check_security_rank,
    construct,
    make_field,
    secure_code,
    verify,
)
from snfc import fixtures
from snfc.codes import SecureCode, SumCode, _computable, _run_code, as_secure, message_decoder, secure_vectors
from snfc.errors import MalformedInput, NegativeSecurityLevel, ShapeMismatch, TooLarge
from snfc.corpus import random_network
from snfc.verify import (
    _base_q,
    _first_leak,
    _lane_width,
    _maximal_sets,
    _runs_distinct,
    _state_columns,
    _state_count,
    _uniform_given_key,
    _unlanes,
    _view_classes,
    state_cap,
    wiretap_family,
)
from reference import first_leak, hstack, simulate
from cases import COLUMN_CASE_IDS, column_case, parallel_network, random_code, two_source_star

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


# -- computability ----------------------------------------------------------------------

def test_butterfly_fixture_computable(butterfly):
    code = fixtures.code("butterfly")
    assert check_computability(code, butterfly)
    assert check_exhaustive(code, butterfly)[0]


def test_binary_butterfly_hand_code_computable(butterfly):
    # the sink adds its two in-edges: (m1 + k2) + (m2 + k2) = m1 + m2
    code = fixtures.code("butterfly_gf2")
    assert check_computability(code, butterfly)
    assert check_exhaustive(code, butterfly)[0]


def test_n1_hand_code_computable(n1):
    code = fixtures.code("n1")
    assert check_computability(code, n1)
    assert check_exhaustive(code, n1)[0]


def test_zeroed_decoder_not_computable(butterfly):
    code = fixtures.code("butterfly")
    broken = SecureCode(
        SumCode(
            code.field,
            code.rate,
            code.base.source_matrices,
            code.base.local_coeffs,
            Matrix.build(code.field, [[0, 0]] * 2),
        ),
        code.r,
        code.mixing,
    )
    assert not check_computability(broken, butterfly)
    assert check_exhaustive(broken, butterfly) == (False, True, None)


def test_computability_shape_guard(butterfly):
    code = fixtures.code("butterfly")
    squeezed = SecureCode(
        SumCode(
            code.field,
            code.rate,
            code.base.source_matrices,
            code.base.local_coeffs,
            Matrix.build(code.field, [[0, 0]]),
        ),
        code.r,
        code.mixing,
    )
    with pytest.raises(ShapeMismatch):
        check_computability(squeezed, butterfly)


def test_short_source_column_is_a_shape_mismatch(butterfly):
    code = fixtures.code("butterfly")
    columns = {s: dict(cols) for s, cols in code.base.source_matrices.items()}
    columns["s1"]["e1"] = columns["s1"]["e1"][:1]
    short = SecureCode(
        SumCode(code.field, code.rate, columns, code.base.local_coeffs, code.base.decoder),
        code.r,
        code.mixing,
    )
    for check in (check_computability, check_security_rank, check_exhaustive):
        with pytest.raises(ShapeMismatch, match="source column for 'e1' has length 1"):
            check(short, butterfly)


def test_exhaustive_cap_guard(butterfly):
    code = fixtures.code("butterfly")
    with pytest.raises(TooLarge):
        check_exhaustive(code, butterfly, cap=10)


@pytest.mark.parametrize("raw", ["abc", "2.5", "-3"])
def test_bad_state_cap_setting_rejected(monkeypatch, raw):
    monkeypatch.setenv("SNFC_MAX_EXHAUSTIVE", raw)
    with pytest.raises(MalformedInput):
        state_cap()
    assert state_cap(7) == 7  # an explicit cap never reads the setting


def test_state_cap_setting_is_read(monkeypatch):
    monkeypatch.setenv("SNFC_MAX_EXHAUSTIVE", "0")
    assert state_cap() == 0


def test_negative_security_level_rejected(butterfly):
    with pytest.raises(NegativeSecurityLevel):
        verify(fixtures.code("butterfly"), butterfly, r=-1)


# -- security: rank criterion ---------------------------------------------------------------

def test_security_rank_r0_vacuous(butterfly):
    code = as_secure(fixtures.code("butterfly").base, 0)
    ok, failing = check_security_rank(code, butterfly)
    assert ok and failing is None


def test_butterfly_fixture_secure_for_every_edge(butterfly):
    ok, failing = check_security_rank(fixtures.code("butterfly"), butterfly)
    assert ok and failing is None
    assert len(wiretap_family(butterfly, 1)) == 10  # the empty set plus nine singletons


def test_unmixed_sum_code_leaks(butterfly):
    # without mixing, a key coordinate edge is harmless but the message-carrying
    # edges e3 (message of source 2) and e8 (the sum itself) give the game away
    code = as_secure(fixtures.code("butterfly").base, 1)
    ok, failing = check_security_rank(code, butterfly)
    assert not ok
    assert failing == ("e3",)
    assert check_exhaustive(code, butterfly) == (True, False, ("e3",))


def gamma_selector(code, s):
    """The (rate*s) x (ell*s) block-diagonal selector of every source's messages."""
    rate, ell = code.rate, code.ell
    rows = [
        [1 if i < ell and j == b * ell + i else 0 for j in range(ell * s)]
        for b in range(s)
        for i in range(rate)
    ]
    return Matrix.build(code.field, rows, ncols=ell * s)


def gamma_criterion(code, net, fast=False):
    """The reference rank test: rank([H_W | Gamma]) == rank(H_W) + rank(Gamma) for each W."""
    s = net.num_sources
    vectors = secure_vectors(code, net)
    gamma = gamma_selector(code, s)
    for wset in wiretap_family(net, code.r, fast):
        h_w = Matrix.from_columns(code.field, [vectors[eid] for eid in wset], nrows=code.rate * s)
        if hstack(h_w, gamma).rank() != h_w.rank() + gamma.rank():
            return False, wset
    return True, None


def test_unmixed_sum_code_edges_case_by_case(butterfly):
    code = as_secure(fixtures.code("butterfly").base, 1)
    vectors = secure_vectors(code, butterfly)
    gamma = gamma_selector(code, 2)
    assert gamma.rank() == 2

    def edge_safe(eid):
        h_w = Matrix.from_columns(GF4, [vectors[eid]], nrows=4)
        return hstack(h_w, gamma).rank() == h_w.rank() + gamma.rank()

    assert edge_safe("e2")  # carries only the key coordinate of source 1
    assert not edge_safe("e3")  # carries the message coordinate of source 2
    assert not edge_safe("e8")  # carries the message sum
    assert gamma_criterion(code, butterfly) == check_security_rank(code, butterfly) == (False, ("e3",))


def test_fig_codes_secure(n1, butterfly):
    for name, net in [("n1", n1), ("butterfly_gf2", butterfly)]:
        ok, failing = check_security_rank(fixtures.code(name), net)
        assert ok and failing is None, name


def test_zero_edge_is_always_safe(butterfly):
    # edge e7 of the binary hand code carries the constant zero
    code = fixtures.code("butterfly_gf2")
    assert secure_vectors(code, butterfly)["e7"] == (0, 0, 0, 0)
    ok, _ = check_security_rank(code, butterfly)
    assert ok


# -- security: exhaustive criterion ------------------------------------------------------------

def test_fig_codes_secure_exhaustively(n1, butterfly):
    assert check_exhaustive(fixtures.code("n1"), n1) == (True, True, None)
    assert check_exhaustive(fixtures.code("butterfly_gf2"), butterfly) == (True, True, None)
    assert check_exhaustive(fixtures.code("butterfly"), butterfly) == (True, True, None)


def test_exhaustive_cap_guard_security(butterfly):
    # the butterfly fixture has 4^(2 * 2) = 256 states
    with pytest.raises(TooLarge):
        check_exhaustive(fixtures.code("butterfly"), butterfly, cap=255)
    assert check_exhaustive(fixtures.code("butterfly"), butterfly, cap=256) == (True, True, None)


def test_fast_flag_restricts_to_primary_sets(butterfly):
    fast = wiretap_family(butterfly, 1, fast=True)
    assert ("e6",) not in fast and ("e7",) not in fast
    full = wiretap_family(butterfly, 1)
    assert ("e6",) in full and ("e7",) in full
    ok, _ = check_security_rank(fixtures.code("butterfly"), butterfly, fast=True)
    assert ok


def test_wiretap_family_is_counted_before_it_is_listed(butterfly, monkeypatch):
    module = importlib.import_module("snfc.verify")  # `snfc.verify` is the function
    monkeypatch.setattr(module, "WIRETAP_FAMILY_LIMIT", 10)
    assert len(wiretap_family(butterfly, 1)) == 10  # the empty set plus nine singletons

    def refuse(*args):
        raise AssertionError("the wiretap family was listed")

    monkeypatch.setattr(module, "WIRETAP_FAMILY_LIMIT", 9)
    monkeypatch.setattr(itertools, "combinations", refuse)
    with pytest.raises(TooLarge):
        wiretap_family(butterfly, 1)
    with pytest.raises(TooLarge):
        check_security_rank(fixtures.code("butterfly"), butterfly)
    with pytest.raises(TooLarge):
        check_exhaustive(fixtures.code("butterfly"), butterfly)


@pytest.mark.parametrize("seed", ["n1", "butterfly", *range(0, 200, 20)])
def test_maximal_sets_are_the_inclusion_maximal_members(seed):
    net = fixtures.network(seed) if isinstance(seed, str) else random_network(seed)
    for r, fast in [(1, False), (2, False), (1, True), (2, True), (3, True)]:
        family = wiretap_family(net, r, fast)
        expected = [w for w in family if w and not any(set(w) < set(v) for v in family)]
        assert sorted(_maximal_sets(family)) == expected


def test_first_leak_tests_the_maximal_sets_then_scans_in_family_order(butterfly):
    family = wiretap_family(butterfly, 2)
    classes = {eid: k for k, eid in enumerate(sorted(butterfly.edge_by_id))}  # one class per edge
    tested = []
    assert _first_leak(family, classes, lambda wset: tested.append(wset) or False) == (True, None)
    assert tested == [w for w in family if len(w) == 2]
    # every superset of a leaking set leaks; the first in family order is reported
    assert _first_leak(family, classes, lambda wset: "e3" in wset) == (False, ("e1", "e3"))
    assert _first_leak([()], classes, lambda wset: True) == (True, None)


def test_first_leak_tests_each_distinct_view_once(butterfly):
    family = wiretap_family(butterfly, 2)
    # e2 carries a scaled copy of e1, so they share a class; e9 carries zero
    classes = {eid: k for k, eid in enumerate(sorted(butterfly.edge_by_id)) if eid != "e9"}
    classes["e2"] = classes["e1"]

    def view(wset):
        return frozenset(classes[eid] for eid in wset if eid in classes)

    views = {view(w) for w in family}
    maximal = {v for v in views if v and not any(v < u for u in views)}
    tested = []
    assert _first_leak(family, classes, lambda wset: tested.append(wset) or False) == (True, None)
    assert len(tested) == len(maximal) == 21 < sum(len(w) == 2 for w in family)
    assert {view(w) for w in tested} == maximal
    # a leaking view held by (e1, e5) and, later in family order, (e2, e5): leaks
    # runs once per view, and the rescan reports the first set in family order
    tested = []

    def leaks(wset):
        tested.append(wset)
        return view(wset) >= {classes["e2"], classes["e5"]}

    assert _first_leak(family, classes, leaks) == (False, ("e1", "e5"))
    assert len(tested) == len({view(w) for w in tested})
    assert ("e2", "e5") not in tested
    # sets that see only the zero edge see a constant
    assert _first_leak([(), ("e9",)], classes, lambda wset: True) == (True, None)


AGREE_STATE_CAP = 4096


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rank_and_exhaustive_criteria_agree(data):
    """Random (mostly insecure) codes over tiny fields on the fixtures and corpus
    networks with up to three sources, rate 2-4 and every 0 < r < rate: the pivot
    test, the exhaustive tabulation and the Gamma rank formula give the same
    verdict and the same first failing wiretap set, with and without `fast`."""
    field = data.draw(st.sampled_from([GF2, GF3, GF4]))
    seed = data.draw(st.sampled_from(["n1", "butterfly", *range(60)]))
    net = fixtures.network(seed) if isinstance(seed, str) else random_network(seed)
    max_rate = max(
        rate for rate in range(2, 5) if field.q ** (rate * net.num_sources) <= AGREE_STATE_CAP
    )
    rate = data.draw(st.integers(2, max_rate))
    r = data.draw(st.integers(1, rate - 1))
    fast = data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    code = random_code(field, net, rate, r, rng)
    expected = gamma_criterion(code, net, fast)
    assert check_security_rank(code, net, fast=fast) == expected
    assert check_exhaustive(code, net, fast=fast) == (
        check_computability(code, net),
        *check_security_rank(code, net, fast=fast),
    )


# -- column simulation and the per-set uniformity test ------------------------------------------

GF9 = make_field(3, 2)
GF257 = make_field(257, 1)
GF512 = make_field(2, 9)


@pytest.mark.parametrize("case_id", COLUMN_CASE_IDS)
def test_column_simulation_matches_simulate(case_id):
    """The column pass gives every state's symbols, and the computability rule on
    its columns, `check_exhaustive`'s verdict and `check_computability` all equal
    the rule read off the per-state reference: on every state the message
    decoder takes the sink's symbols to the message sums."""
    code, net = column_case(case_id)
    inputs = _state_columns(code, net)
    cols = _run_code(code, net, inputs)
    computable = _computable(message_decoder(code), net, inputs, cols)
    assert list(cols) == list(net.order)
    q, rate, s = code.field.q, code.rate, net.num_sources
    field = code.field
    received_ids = [e.id for e in net.in_edges[net.sink]]
    decoder = message_decoder(code)
    decodes = True
    for t, flat in enumerate(itertools.product(range(q), repeat=rate * s)):
        rows = tuple(flat[i * rate : (i + 1) * rate] for i in range(s))
        assert tuple(col[t] for col in inputs) == flat
        symbols = simulate(code, net, rows)
        assert {eid: col[t] for eid, col in cols.items()} == symbols, t
        received = Matrix.build(field, [[symbols[eid] for eid in received_ids]], ncols=len(received_ids))
        sums = tuple(functools.reduce(field.add, (row[j] for row in rows)) for j in range(code.ell))
        decodes = decodes and received.mul(decoder).data[0] == sums
    assert check_computability(code, net) == check_exhaustive(code, net)[0] == computable == decodes


def _pairs(keys, messages, n_messages):
    return [key * n_messages + message for key, message in zip(keys, messages)]


def _old_rule(keys, messages, n_messages):
    """Every key's bucket holds all n_messages messages, with one count."""
    table = {}
    for key, message in zip(keys, messages):
        bucket = table.setdefault(key, {})
        bucket[message] = bucket.get(message, 0) + 1
    return all(len(b) == n_messages and len(set(b.values())) == 1 for b in table.values())


@pytest.mark.parametrize(
    "keys,messages,n_messages,expected",
    [
        # every (key, message) pair once
        ([0, 0, 1, 1], [0, 1, 0, 1], 2, True),
        # key 1 never sees message 0
        ([0, 0, 1, 1], [0, 1, 1, 1], 2, False),
        # uneven key fibres, uniform within each key
        ([0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 0, 1], 2, True),
        ([5, 5, 5, 5, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 9, 9, 9, 9], [0, 1, 2, 3] * 5, 4, True),
        # uneven fibres with one bucket skewed
        ([0, 0, 1, 1, 1, 1], [0, 1, 0, 0, 0, 1], 2, False),
        # a bucket missing a message while its other counts sum correctly
        ([0, 0, 0, 0], [0, 0, 1, 1], 3, False),
        # one key, every message equally often; zero messages to hide
        ([3] * 6, [0, 1, 2] * 2, 3, True),
        ([0, 1, 2], [0, 0, 0], 1, True),
        # as many states as pairs below (max key + 1) * n_messages: every pair once,
        # in any order
        ([1, 0, 1, 0], [1, 1, 0, 0], 2, True),
        # a repeat: key 0 is never observed, key 1 sees each message twice
        ([1, 1, 1, 1], [0, 1, 1, 0], 2, True),
        # a repeat: key 0 sees message 1 twice and message 0 never
        ([0, 0, 1, 1], [1, 1, 0, 1], 2, False),
        # a repeat: one key observed, its messages uneven
        ([1, 1, 1, 1], [0, 1, 1, 1], 2, False),
    ],
)
def test_uniform_given_key_on_hand_made_columns(keys, messages, n_messages, expected):
    assert _old_rule(keys, messages, n_messages) is expected
    assert _uniform_given_key(_pairs(keys, messages, n_messages), n_messages) is expected


@given(st.integers(0, 10_000), st.lists(st.integers(0, 2), min_size=1, max_size=30), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_uniform_given_key_matches_the_bucket_rule(seed, keys, n_messages):
    rng = random.Random(seed)
    messages = [rng.randrange(n_messages) for _ in keys]
    assert _uniform_given_key(_pairs(keys, messages, n_messages), n_messages) == _old_rule(keys, messages, n_messages)


@st.composite
def _lane_cases(draw):
    """Key and message digit columns, packed as bytes or as array("H"), with a
    lane width that holds every pair; small fields give cases uniform given the key."""
    wide = draw(st.booleans())
    width = draw(st.sampled_from([2, 4, 8] if wide else [1, 2, 4, 8]))
    top = 1 << (8 * width)
    q = draw(st.one_of(st.integers(2, 3), st.integers(2, min(1 << 16 if wide else 256, math.isqrt(top)))))
    digits = max(d for d in range(2, 6) if q**d <= top)
    n_key = draw(st.integers(0, digits - 1))
    n_msg = draw(st.integers(1, digits - n_key))
    n_messages = q**n_msg
    if n_messages <= 8 and draw(st.booleans()):
        # blocks of every message once under one key, one entry perhaps changed
        blocks = draw(st.lists(st.integers(0, q**n_key - 1), min_size=1, max_size=4))
        pairs = [(key, t) for key in blocks for t in range(n_messages)]
        if draw(st.booleans()):
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i] = (pairs[i][0], draw(st.integers(0, n_messages - 1)))
    else:
        n = draw(st.integers(1, 40))
        value = st.tuples(st.integers(0, q**n_key - 1), st.integers(0, n_messages - 1))
        pairs = draw(st.lists(value, min_size=n, max_size=n))
    pack = (lambda values: array("H", values)) if wide else bytes

    def columns(values, count):
        return [pack([v // q ** (count - 1 - i) % q for v in values]) for i in range(count)]

    keys, messages = [k for k, _ in pairs], [m for _, m in pairs]
    return q, width, columns(keys, n_key), columns(messages, n_msg), keys, messages


@given(_lane_cases())
@settings(max_examples=300, deadline=None)
def test_lane_built_pairs_match_the_bucket_rule(case):
    q, width, key_cols, message_cols, keys, messages = case
    n_messages = q ** len(message_cols)
    value = _base_q(key_cols, q, width) * n_messages + _base_q(message_cols, q, width)
    pairs = _unlanes(value, width, len(keys))
    assert list(pairs) == [k * n_messages + m for k, m in zip(keys, messages)]
    assert _uniform_given_key(pairs, n_messages) == _old_rule(keys, messages, n_messages)


@st.composite
def _full_space_cases(draw):
    """Key and message digit columns with exactly one state per possible pair:
    a permuted full range, blocks of every message under keys that may repeat
    (uniform, some key never observed), or such blocks with one message changed."""
    q = draw(st.integers(2, 4))
    n_key = draw(st.integers(0, 2))
    n_msg = draw(st.integers(1, 3 - n_key))
    n_keys, n_messages = q**n_key, q**n_msg
    kind = draw(st.sampled_from(["permuted", "repeated", "changed"]))
    if kind == "permuted":
        pairs = [divmod(v, n_messages) for v in draw(st.permutations(range(n_keys * n_messages)))]
    else:
        owners = draw(st.lists(st.integers(0, n_keys - 1), min_size=n_keys, max_size=n_keys))
        pairs = [(key, t) for key in owners for t in range(n_messages)]
        if kind == "changed":
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i] = (pairs[i][0], draw(st.integers(0, n_messages - 1)))
        pairs = draw(st.permutations(pairs))
    width = draw(st.sampled_from([1, 2, 4, 8]))

    def columns(values, count):
        return [bytes(v // q ** (count - 1 - i) % q for v in values) for i in range(count)]

    keys, messages = [k for k, _ in pairs], [m for _, m in pairs]
    return q, width, columns(keys, n_key), columns(messages, n_msg), keys, messages


@given(_full_space_cases())
@settings(max_examples=300, deadline=None)
def test_lane_built_pairs_filling_the_pair_space_match_the_bucket_rule(case):
    q, width, key_cols, message_cols, keys, messages = case
    n_keys, n_messages = q ** len(key_cols), q ** len(message_cols)
    assert len(keys) == n_keys * n_messages
    pairs = _unlanes(_base_q(key_cols, q, width) * n_messages + _base_q(message_cols, q, width), width, len(keys))
    assert _uniform_given_key(pairs, n_messages) == _old_rule(keys, messages, n_messages)


@pytest.mark.parametrize(
    "total,width",
    [(1, 1), (2**8, 1), (2**8 + 1, 2), (2**16, 2), (2**16 + 1, 4), (2**32, 4), (2**32 + 1, 8)],
)
def test_lane_width_boundaries(total, width):
    assert _lane_width(total) == width


def test_an_r_edge_view_of_one_source_is_settled_without_counting(monkeypatch):
    """GF(4), four parallel edges, r = 2: 256 states, and each pair of edges
    sees 16 keys times 16 messages, so a secure code's pairs are a permutation
    of the pair space: the run test settles every view, and neither
    `_uniform_given_key` nor `Counter` runs.  The B = I copy leaks, where a
    pair repeats, so its leaking views reach `_uniform_given_key`, and it
    reports the reference scan's first leak."""
    net = parallel_network(4)
    code = construct(net, 2, field=GF4, seed=0)
    unmixed = SecureCode(code.base, code.r, Matrix.identity(GF4, code.rate))
    assert GF4.q ** (code.rate * net.num_sources) == 256
    module = importlib.import_module("snfc.verify")  # `snfc.verify` is the function
    counter, counted = module.Counter, []
    uniform, tabulated = module._uniform_given_key, []

    def counting(pairs):
        counted.append(len(pairs))
        return counter(pairs)

    def tabulating(pairs, n_messages):
        tabulated.append(len(pairs))
        return uniform(pairs, n_messages)

    monkeypatch.setattr(module, "Counter", counting)
    monkeypatch.setattr(module, "_uniform_given_key", tabulating)
    assert check_exhaustive(code, net) == (True, True, None)
    assert counted == [] and tabulated == []
    leaking = check_exhaustive(unmixed, net)
    assert leaking[:2] == (True, False) and counted and tabulated
    assert leaking == (check_computability(unmixed, net), *check_security_rank(unmixed, net))
    monkeypatch.setattr(module, "_first_leak", lambda family, classes, leaks: first_leak(family, leaks))
    assert check_exhaustive(unmixed, net) == leaking


@st.composite
def _run_cases(draw):
    """One-byte key lanes over runs of q^r states, one run per message: runs
    that are permutations of range(q^r), runs with a repeated key, runs with
    one entry changed, or every run a shuffle of one multiset (uniform given
    the key, with repeated pairs).  The number of runs is any count, so for odd
    q it is often not a multiple of the 256 // q^r runs of a chunk."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    r = draw(st.integers(1, max(d for d in range(1, 9) if q**d <= 256)))
    n_keys = q**r
    per_chunk = 256 // n_keys
    n_runs = draw(st.one_of(st.integers(1, 3 * per_chunk + 1), st.sampled_from([q, q * q])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["permuted", "repeated", "changed", "multiset"]))
    if kind == "multiset":
        multiset = [rng.randrange(n_keys) for _ in range(n_keys)]
        runs = [rng.sample(multiset, n_keys) for _ in range(n_runs)]
    else:
        runs = [rng.sample(range(n_keys), n_keys) for _ in range(n_runs)]
        run = runs[rng.randrange(n_runs)]
        i, j = rng.sample(range(n_keys), 2) if n_keys > 1 else (0, 0)
        if kind == "repeated":
            run[i] = run[j]
        elif kind == "changed":
            run[i] = rng.randrange(n_keys)
    keys = [key for run in runs for key in run]
    messages = [m for m in range(n_runs) for _ in range(n_keys)]
    key_cols = [bytes(k // q ** (r - 1 - d) % q for k in keys) for d in range(r)]
    return q, key_cols, keys, messages, n_runs


@given(_run_cases())
@settings(max_examples=300, deadline=None)
def test_the_run_test_finds_exactly_the_distinct_pair_columns(case):
    """The run test reports "all distinct" exactly when the (key, message) pairs
    are, and with the `_uniform_given_key` fallback that `check_exhaustive`
    takes when it does not, the verdict is the bucket rule's.  Every case
    fills its pair space, and the Counter rule alone gives that verdict too."""
    q, key_cols, keys, messages, n_messages = case
    n_keys = q ** len(key_cols)
    pairs = _pairs(keys, messages, n_messages)
    distinct = _runs_distinct(n_keys, len(keys))(_base_q(key_cols, q, 1))
    assert distinct == (len(set(pairs)) == len(pairs))
    uniform = distinct or _uniform_given_key(pairs, n_messages)
    assert uniform == _old_rule(keys, messages, n_messages)
    assert _uniform_given_key(pairs, n_messages) == _old_rule(keys, messages, n_messages)


PARALLEL_FIELDS = [GF3, make_field(5, 1), make_field(7, 1), GF9, GF2, GF4, make_field(2, 3), make_field(2, 4)]
PARALLEL_STATE_CAP = 4096


def test_the_run_test_and_the_rank_route_agree_on_parallel_edges():
    """Three random codes with random invertible B on 2..5 parallel edges, at
    every rate up to the state cap and every 0 < r < rate, and their B = I
    copies: the run test takes every r-edge view with q^r <= 256 (short last
    chunks for odd q, one run a chunk at GF(16), r = 2), the Counter rule
    those with q^r > 256 (GF(7), r = 3), and `check_exhaustive` reports the
    (secure, failing_W) of the rank route."""
    outcomes = Counter()
    for field in PARALLEL_FIELDS:
        for n_edges in range(2, 6):
            net = parallel_network(n_edges)
            rng = random.Random(f"{field!r}:{n_edges}")
            for rate in range(2, n_edges + 1):
                if field.q**rate > PARALLEL_STATE_CAP:
                    break
                for r, _ in itertools.product(range(1, rate), range(3)):
                    code = random_code(field, net, rate, r, rng)
                    unmixed = SecureCode(code.base, code.r, Matrix.identity(field, rate))
                    for variant in (code, unmixed):
                        expected = check_security_rank(variant, net)
                        assert check_exhaustive(variant, net)[1:] == expected, (field, n_edges, rate, r)
                        outcomes[expected[0]] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("field", [GF257, GF512], ids=repr)
def test_exhaustive_tabulates_wiretap_sets_beyond_256_elements(field):
    """r = 1, rate 2 on two parallel edges: 257^2 and 512^2 states, two-byte
    columns in four-byte lanes."""
    net = parallel_network(2)
    routing = SumCode(field, 2, {"s1": {"e1": (1, 0), "e2": (0, 1)}}, {}, Matrix.identity(field, 2))
    cases = [
        (construct(net, 1, field=field, seed=0), (True, True, None)),
        (secure_code(routing, Matrix.build(field, [[1, 1], [1, 2]]), 1), (True, True, None)),
        # with B = I, e1 carries the message itself
        (secure_code(routing, Matrix.identity(field, 2), 1), (True, False, ("e1",))),
    ]
    for code, expected in cases:
        assert code.field == field
        assert check_exhaustive(code, net) == (check_computability(code, net), *check_security_rank(code, net))
        assert check_exhaustive(code, net) == expected


@pytest.mark.parametrize("field", [GF3, GF9], ids=repr)
@pytest.mark.parametrize(
    "columns,failing",
    [
        # e1 carries the message: the singleton comes before every pair, all of
        # which but (e2, e3) leak as well
        ({"e1": (1, 0, 0), "e2": (0, 1, 0), "e3": (0, 0, 1)}, ("e1",)),
        # e2 and e3 carry k1 and m + k1: no singleton leaks, their pair does
        ({"e1": (0, 0, 1), "e2": (0, 1, 0), "e3": (1, 1, 0)}, ("e2", "e3")),
    ],
)
def test_both_routes_report_the_first_failure_at_r2(field, columns, failing):
    net = parallel_network(3)
    code = secure_code(SumCode(field, 3, {"s1": columns}, {}, Matrix.identity(field, 3)), Matrix.identity(field, 3), 2)
    assert check_security_rank(code, net) == (False, failing)
    assert check_exhaustive(code, net) == (check_computability(code, net), False, failing)


@functools.lru_cache(maxsize=None)
def _small_corpus_codes():
    """Constructed codes with r in {1, 2} and at most 2^12 states, corpus seeds 0..199."""
    out = []
    for seed in range(200):
        net = random_network(seed)
        for r in (1, 2):
            if r >= c_min_of(net):
                continue
            code = construct(net, r, seed=seed)
            if code.field.q ** (code.rate * net.num_sources) <= 4096:
                out.append((net, code))
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_exhaustive_routes_agree_with_algebraic_on_corpus(data):
    """Constructed codes, with local coefficients corrupted and the mixing
    matrix dropped at random: each exhaustive route agrees with its algebraic
    twin, down to the first failing wiretap set."""
    net, code = data.draw(st.sampled_from(_small_corpus_codes()))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    local = {eid: dict(taps) for eid, taps in code.base.local_coeffs.items()}
    slots = [(eid, d) for eid, taps in sorted(local.items()) for d in sorted(taps)]
    for _ in range(data.draw(st.integers(0, 2)) if slots else 0):
        eid, d = rng.choice(slots)
        local[eid][d] = rng.randrange(code.field.q)
    base = code.base
    # without its mixing matrix a constructed code usually leaks
    mixing = code.mixing if data.draw(st.booleans()) else Matrix.identity(code.field, code.rate)
    code = SecureCode(
        SumCode(base.field, base.rate, base.source_matrices, local, base.decoder), code.r, mixing
    )
    assert check_exhaustive(code, net) == (check_computability(code, net), *check_security_rank(code, net))


@pytest.mark.parametrize("seed", range(40))
def test_both_routes_match_the_reference_scan_on_corpus(seed, monkeypatch):
    """Constructed codes and their B = I copies at every 0 < r < c_min, with and
    without `fast`: testing each distinct view once gives the (ok, failing_W) of
    the scan that tests every set on its own, and both families give each code
    one verdict by both routes."""
    net = random_network(seed)
    checks = []
    for r in range(1, c_min_of(net)):
        code = construct(net, r, seed=seed)
        unmixed = SecureCode(code.base, code.r, Matrix.identity(code.field, code.rate))
        exhaustive = code.field.q ** (code.rate * net.num_sources) <= AGREE_STATE_CAP
        for variant in (code, unmixed):
            for fast in (False, True):
                checks.append((variant, fast, exhaustive))

    def outcomes():
        return [
            (check_security_rank(variant, net, fast=fast), check_exhaustive(variant, net, fast=fast)[1:])
            if exhaustive
            else (check_security_rank(variant, net, fast=fast),)
            for variant, fast, exhaustive in checks
        ]

    distinct = outcomes()
    # without and with `fast`, each variant's routes report one ok; failing_W may differ
    for full, fast in zip(distinct[::2], distinct[1::2]):
        assert len({ok for ok, _ in full + fast}) == 1
    module = importlib.import_module("snfc.verify")  # `snfc.verify` is the function
    monkeypatch.setattr(module, "_first_leak", lambda family, classes, leaks: first_leak(family, leaks))
    assert distinct == outcomes()


# Hand-made codes on parallel edges, B = I, message coordinates first: e2 carries
# a scaled copy of e1's column and e3 carries zero.
C512 = 300  # a nonzero element of GF(2^9) other than 1


@pytest.mark.parametrize(
    "field,r,columns,decoder,expected",
    [
        # m + k1, twice m + k1, 0, k1 + k2, k2: no pair leaks, m = e1 - e4 + e5
        (GF3, 2, [(1, 1, 0), (2, 2, 0), (0, 0, 0), (0, 1, 1), (0, 0, 1)], [1, 0, 0, 2, 1], (True, True, None)),
        # e5 carries k1: (e1, e5) leaks m, and so does (e2, e5), which sees the same
        (GF3, 2, [(1, 1, 0), (2, 2, 0), (0, 0, 0), (0, 1, 1), (0, 1, 0)], [1, 0, 0, 0, 2], (True, False, ("e1", "e5"))),
        # m + k, x(m + k), 0, k over GF(4), one byte per symbol: no edge leaks, m = e1 + e4
        (GF4, 1, [(1, 1), (2, 2), (0, 0), (0, 1)], [1, 0, 0, 1], (True, True, None)),
        # m + k, c(m + k), 0, k: no edge leaks, m = e1 + e4
        (GF512, 1, [(1, 1), (C512, C512), (0, 0), (0, 1)], [1, 0, 0, 1], (True, True, None)),
        # e4 carries c m; e1 and e2 do not leak, nor does the zero edge
        (GF512, 1, [(1, 1), (C512, C512), (0, 0), (C512, 0)], [1, 0, 0, 0], (False, False, ("e4",))),
    ],
    ids=["GF3-secure", "GF3-leak", "GF4-secure", "GF512-secure", "GF512-leak"],
)
def test_scaled_and_zero_columns_share_and_skip_views(field, r, columns, decoder, expected):
    net = parallel_network(len(columns))
    rate = len(columns[0])
    rows = [[x] + [0] * (rate - 1) for x in decoder]
    base = SumCode(
        field, rate, {"s1": {f"e{k}": col for k, col in enumerate(columns, 1)}}, {}, Matrix.build(field, rows, ncols=rate)
    )
    code = secure_code(base, Matrix.identity(field, rate), r)
    cols = _run_code(code, net, _state_columns(code, net))
    # every edge's column is held, exactly the bytes the cap counts
    states, width = _state_count(code, net), 1 if field.q <= 256 else 2
    assert sum(memoryview(c).nbytes for c in cols.values()) == states * len(net.edges) * width
    classes = _view_classes(field, cols)
    assert classes["e1"] == classes["e2"] and "e3" not in classes
    assert len(set(classes.values())) == len(columns) - 2
    exhaustive = check_exhaustive(code, net)
    assert exhaustive == (check_computability(code, net), *check_security_rank(code, net))
    assert exhaustive == expected


# -- aggregate reports ---------------------------------------------------------------------------

def test_verify_butterfly_fixture(butterfly):
    report = verify(fixtures.code("butterfly"), butterfly)
    assert report.to_dict() == {
        "computable": True,
        "secure_rank": True,
        "secure_exhaustive": True,
        "failing_W": None,
        "rate": 1,
        "bound_consistent": True,
    }


def test_verify_n1_no_penalty(n1):
    report = verify(fixtures.code("n1"), n1)
    assert report.all_passed
    assert report.rate == 1  # equal to the upper bound: security is free here
    assert isinstance(report.rate, int)


def test_verify_reports_first_failure(butterfly):
    code = as_secure(fixtures.code("butterfly").base, 1)
    report = verify(code, butterfly)
    assert not report.all_passed
    assert report.computable
    assert not report.secure_rank
    assert report.failing_W == ("e3",)


@pytest.mark.parametrize("flag", [False, True, "yes", "no", "auto", None, 0])
def test_no_exhaustive_value_skips_the_check_under_the_cap(butterfly, flag):
    report = verify(as_secure(fixtures.code("butterfly").base, 1), butterfly, exhaustive=flag)
    assert report.secure_exhaustive is False
    assert report.failing_W == ("e3",)


def test_verify_simulates_every_state_once(butterfly, monkeypatch):
    # the package attribute `snfc.verify` is the function, not the module
    module = importlib.import_module("snfc.verify")
    calls = []

    def counting(name, detail=lambda *args: None, holder=module):
        wrapped = getattr(holder, name)

        def call(*args, **kwargs):
            calls.append((name, detail(*args)))
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(holder, name, call)

    inputs_covered = lambda code_or_decoder, net, inputs, *rest: len(inputs[0])  # the inputs one call covers
    counting("_rank_route")
    counting("_state_columns")
    counting("check_computability")
    # the run and the rule at both of their bindings, verify's and the one in codes
    for holder in (module, importlib.import_module("snfc.codes")):
        counting("_run_code", inputs_covered, holder)
        counting("_computable", inputs_covered, holder)
    code = fixtures.code("butterfly")
    units = code.rate * butterfly.num_sources
    # the rank route runs the unit inputs and applies no computability rule; the
    # exhaustive pass runs every state and applies the rule to them, once
    report = verify(code, butterfly, exhaustive=True)
    assert report.computable and report.secure_exhaustive
    states = code.field.q**units
    assert calls == [
        ("_rank_route", None),
        ("_run_code", units),
        ("_state_columns", None),
        ("_run_code", states),
        ("_computable", states),
    ]
    calls.clear()
    report = verify(code, butterfly, cap=0)
    assert report.computable and report.secure_exhaustive is None
    # without it, the rule reads the rank route's run of the unit inputs: one run in all
    assert calls == [("_rank_route", None), ("_run_code", units), ("_computable", units)]


def test_verify_skips_exhaustive_beyond_cap(butterfly):
    report = verify(fixtures.code("butterfly"), butterfly, cap=10)
    assert report.secure_exhaustive is None
    assert report.computable and report.secure_rank
    assert verify(fixtures.code("butterfly"), butterfly, cap=0).secure_exhaustive is None
    with pytest.raises(TooLarge):
        verify(fixtures.code("butterfly"), butterfly, exhaustive=True, cap=10)


def _refuse_columns(*args):
    raise AssertionError("the exhaustive pass built its state columns")


def _butterfly_case():
    return fixtures.network("butterfly"), fixtures.code("butterfly")


def _gf512_case():
    net = parallel_network(1)
    return net, construct(net, 0, field=make_field(2, 9), seed=0)


@pytest.mark.parametrize(
    "case, size",
    [
        pytest.param(_butterfly_case, 4**4 * 9, id="butterfly"),  # 4^(2 * 2) states, 9 edges, one byte each
        pytest.param(_gf512_case, 512 * 1 * 2, id="gf512"),  # 512 states, one edge, two bytes each
    ],
)
def test_the_exhaustive_pass_is_bounded_by_its_column_bytes(monkeypatch, case, size):
    net, code = case()
    module = importlib.import_module("snfc.verify")  # `snfc.verify` is the function
    report = verify(code, net).to_dict()
    assert report["secure_exhaustive"] is True
    monkeypatch.setattr(module, "EXHAUSTIVE_BYTES_LIMIT", size)
    assert verify(code, net).to_dict() == report
    # one byte over the limit: the default skips the pass, and a demand for it is refused
    monkeypatch.setattr(module, "EXHAUSTIVE_BYTES_LIMIT", size - 1)
    monkeypatch.setattr(module, "_state_columns", _refuse_columns)
    assert verify(code, net).to_dict() == {**report, "secure_exhaustive": None}
    with pytest.raises(TooLarge, match=f"{size} bytes of state columns exceed the cap {size - 1}"):
        verify(code, net, exhaustive=True)
    with pytest.raises(TooLarge, match=f"{size} bytes"):
        check_exhaustive(code, net)


def test_a_wide_network_under_the_state_cap_skips_the_exhaustive_pass(monkeypatch):
    # 64^(2 * 2) = 2^24 states fit the default state cap, but their 200 columns would take 3.4 GB
    net = two_source_star(0, 200)
    code = construct(net, 1, rate=2, field=make_field(2, 6), seed=0)
    monkeypatch.setattr(importlib.import_module("snfc.verify"), "_state_columns", _refuse_columns)
    report = verify(code, net)
    assert report.secure_exhaustive is None and report.all_passed
    with pytest.raises(TooLarge, match=f"{2**24 * 200} bytes"):
        check_exhaustive(code, net)


def test_verify_constructed_codes_all_pass(butterfly, n1, fig2):
    for net in (butterfly, fig2):
        for r in range(c_min_of(net)):
            code = construct(net, r, seed=4)
            assert verify(code, net).all_passed, (net.sink, r)


def test_verify_runs_no_bound_sweep_at_or_below_the_lower_bound(butterfly, n1, fig2, monkeypatch):
    # a constructed code has rate <= c_min, so ell <= c_min - r settles the bound check
    def refuse(*args, **kwargs):
        raise AssertionError("the upper-bound sweep ran")

    codes = [(net, construct(net, r, seed=4)) for net in (butterfly, n1, fig2) for r in range(c_min_of(net))]
    monkeypatch.setattr(importlib.import_module("snfc.verify"), "upper_bound", refuse)
    for net, code in codes:
        assert verify(code, net).bound_consistent


def c_min_of(net):
    from snfc import c_min

    return c_min(net)


def test_state_cap_env_override(butterfly, monkeypatch):
    monkeypatch.setenv("SNFC_MAX_EXHAUSTIVE", "10")
    report = verify(fixtures.code("butterfly"), butterfly)
    assert report.secure_exhaustive is None
    monkeypatch.setenv("SNFC_MAX_EXHAUSTIVE", "100000")
    report = verify(fixtures.code("butterfly"), butterfly)
    assert report.secure_exhaustive is True


def test_verify_report_on_corrupted_code(butterfly):
    code = fixtures.code("butterfly")
    corrupted = SecureCode(
        SumCode(
            code.field,
            code.rate,
            code.base.source_matrices,
            code.base.local_coeffs,
            Matrix.build(code.field, [[0, 0]] * 2),
        ),
        code.r,
        code.mixing,
    )
    # with and without the exhaustive pass, which then decides computability
    for cap in (None, 1):
        report = verify(corrupted, butterfly, cap=cap)
        assert (report.secure_exhaustive is None) == (cap == 1)
        assert not report.computable
        assert not report.all_passed
