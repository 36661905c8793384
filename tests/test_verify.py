import functools
import importlib
import itertools
import random

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
from snfc.codes import SecureCode, SumCode, as_secure, secure_vectors
from snfc.errors import MalformedInput, NegativeSecurityLevel, ShapeMismatch, TooLarge
from snfc.corpus import random_network
from snfc.verify import _simulate_columns, _uniform_given_key, state_cap, wiretap_family
from reference import simulate

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
            Matrix.zeros(code.field, 2, 2),
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
            Matrix.zeros(code.field, 1, 2),
        ),
        code.r,
        code.mixing,
    )
    with pytest.raises(ShapeMismatch):
        check_computability(squeezed, butterfly)


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
    code = as_secure(fixtures.butterfly_sum_code(), 0)
    ok, failing = check_security_rank(code, butterfly)
    assert ok and failing is None


def test_butterfly_fixture_secure_for_every_edge(butterfly):
    ok, failing = check_security_rank(fixtures.code("butterfly"), butterfly)
    assert ok and failing is None
    assert len(wiretap_family(butterfly, 1)) == 10  # the empty set plus nine singletons


def test_unmixed_sum_code_leaks(butterfly):
    # without mixing, a key coordinate edge is harmless but the message-carrying
    # edges e3 (message of source 2) and e8 (the sum itself) give the game away
    code = as_secure(fixtures.butterfly_sum_code(), 1)
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
        if h_w.hstack(gamma).rank() != h_w.rank() + gamma.rank():
            return False, wset
    return True, None


def test_unmixed_sum_code_edges_case_by_case(butterfly):
    code = as_secure(fixtures.butterfly_sum_code(), 1)
    vectors = secure_vectors(code, butterfly)
    gamma = gamma_selector(code, 2)
    assert gamma.rank() == 2

    def edge_safe(eid):
        h_w = Matrix.from_columns(GF4, [vectors[eid]], nrows=4)
        return h_w.hstack(gamma).rank() == h_w.rank() + gamma.rank()

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


def random_code(field, net, rate, r, rng):
    """A code with uniformly random local rules, decoder and invertible mixing."""
    source_matrices = {
        s: {e.id: tuple(rng.randrange(field.q) for _ in range(rate)) for e in net.out_edges[s]}
        for s in net.sources
    }
    local_coeffs = {}
    for v in net.nodes:
        if v in net.sources or v == net.sink:
            continue
        for e in net.out_edges[v]:
            local_coeffs[e.id] = {d.id: rng.randrange(field.q) for d in net.in_edges[v]}
    decoder = Matrix.build(
        field,
        [[rng.randrange(field.q) for _ in range(rate)] for _ in net.in_edges[net.sink]],
        ncols=rate,
    )
    while True:
        rows = [[rng.randrange(field.q) for _ in range(rate)] for _ in range(rate)]
        mixing = Matrix.build(field, rows)
        if mixing.rank() == rate:
            break
    return secure_code(SumCode(field, rate, source_matrices, local_coeffs, decoder), mixing, r)


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
GF256 = make_field(2, 8)
GF257 = make_field(257, 1)
GF512 = make_field(2, 9)


def _column_cases():
    for name, net in [("butterfly", "butterfly"), ("butterfly_gf2", "butterfly"), ("n1", "n1")]:
        yield pytest.param(fixtures.code(name), fixtures.network(net), id=name)
    for field in (GF2, GF3, GF4, GF9):
        for name in ("n1", "butterfly"):
            for seed in range(3):
                net = fixtures.network(name)
                code = random_code(field, net, 2, 1, random.Random(f"{field!r}:{name}:{seed}"))
                yield pytest.param(code, net, id=f"{field!r}-{name}-{seed}")
    # GF(256) fills its translate tables with no padding; beyond 256 elements there
    # is no product table and the columns are arrays
    for field in (GF256, GF257, GF512):
        net = fixtures.network("fig2")
        code = random_code(field, net, 1, 0, random.Random(f"{field!r}:fig2"))
        yield pytest.param(code, net, id=f"{field!r}-fig2")


@pytest.mark.parametrize("code,net", list(_column_cases()))
def test_column_simulation_matches_simulate(code, net):
    inputs, cols = _simulate_columns(code, net, net.order)
    assert list(cols) == list(net.order)
    q, rate, s = code.field.q, code.rate, net.num_sources
    for t, flat in enumerate(itertools.product(range(q), repeat=rate * s)):
        rows = tuple(flat[i * rate : (i + 1) * rate] for i in range(s))
        assert tuple(inputs[i][j][t] for i in range(s) for j in range(rate)) == flat
        symbols = simulate(code, net, rows)
        assert {eid: col[t] for eid, col in cols.items()} == symbols, t


@pytest.mark.parametrize("code,net", list(_column_cases())[:6])
def test_column_simulation_keeps_only_the_requested_edges(code, net):
    """Dropping the other columns after their last use changes no kept column."""
    _, full = _simulate_columns(code, net, net.order)
    for keep in ([e.id for e in net.in_edges[net.sink]], net.order[:1], net.order[-1:], []):
        _, cols = _simulate_columns(code, net, keep)
        assert cols == {eid: full[eid] for eid in keep}


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
    ],
)
def test_uniform_given_key_on_hand_made_columns(keys, messages, n_messages, expected):
    assert _old_rule(keys, messages, n_messages) is expected
    assert _uniform_given_key(iter(keys), messages, n_messages) is expected


@given(st.integers(0, 10_000), st.lists(st.integers(0, 2), min_size=1, max_size=30), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_uniform_given_key_matches_the_bucket_rule(seed, keys, n_messages):
    rng = random.Random(seed)
    messages = [rng.randrange(n_messages) for _ in keys]
    assert _uniform_given_key(iter(keys), messages, n_messages) == _old_rule(keys, messages, n_messages)


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


def test_verify_reports_first_failure(butterfly):
    code = as_secure(fixtures.butterfly_sum_code(), 1)
    report = verify(code, butterfly)
    assert not report.all_passed
    assert report.computable
    assert not report.secure_rank
    assert report.failing_W == ("e3",)


@pytest.mark.parametrize("flag", [False, True, "yes", "no", "auto", None, 0])
def test_no_exhaustive_value_skips_the_check_under_the_cap(butterfly, flag):
    report = verify(as_secure(fixtures.butterfly_sum_code(), 1), butterfly, exhaustive=flag)
    assert report.secure_exhaustive is False
    assert report.failing_W == ("e3",)


def test_verify_simulates_every_state_once(butterfly, monkeypatch):
    # the package attribute `snfc.verify` is the function, not the module
    module = importlib.import_module("snfc.verify")
    simulate_columns = module._simulate_columns
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate_columns(*args, **kwargs)

    monkeypatch.setattr(module, "_simulate_columns", counting)
    report = verify(fixtures.code("butterfly"), butterfly, exhaustive=True)
    assert report.computable and report.secure_exhaustive
    assert len(calls) == 1


def test_verify_skips_exhaustive_beyond_cap(butterfly):
    report = verify(fixtures.code("butterfly"), butterfly, cap=10)
    assert report.secure_exhaustive is None
    assert report.computable and report.secure_rank
    assert verify(fixtures.code("butterfly"), butterfly, cap=0).secure_exhaustive is None
    with pytest.raises(TooLarge):
        verify(fixtures.code("butterfly"), butterfly, exhaustive=True, cap=10)


def test_verify_constructed_codes_all_pass(butterfly, n1, fig2):
    for net in (butterfly, fig2):
        for r in range(c_min_of(net)):
            code = construct(net, r, seed=4)
            assert verify(code, net).all_passed, (net.sink, r)


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
            Matrix.zeros(code.field, 2, 2),
        ),
        code.r,
        code.mixing,
    )
    report = verify(corrupted, butterfly)
    assert not report.computable
    assert not report.all_passed
