import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    Matrix,
    check_computability,
    check_security_exhaustive,
    check_security_rank,
    construct,
    make_field,
    secure_code,
    verify,
)
from snfc import fixtures
from snfc.codes import SecureCode, SumCode, as_secure
from snfc.errors import MalformedInput, NegativeSecurityLevel, ShapeMismatch, TooLarge
from snfc.verify import state_cap, wiretap_family

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


# -- computability ----------------------------------------------------------------------

def test_butterfly_fixture_computable(butterfly):
    code = fixtures.code("butterfly")
    assert check_computability(code, butterfly)
    assert check_computability(code, butterfly, method="exhaustive")


def test_binary_butterfly_hand_code_computable(butterfly):
    # the sink adds its two in-edges: (m1 + k2) + (m2 + k2) = m1 + m2
    code = fixtures.code("butterfly_gf2")
    assert check_computability(code, butterfly)
    assert check_computability(code, butterfly, method="exhaustive")


def test_n1_hand_code_computable(n1):
    code = fixtures.code("n1")
    assert check_computability(code, n1)
    assert check_computability(code, n1, method="exhaustive")


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
    assert not check_computability(broken, butterfly, method="exhaustive")


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
        check_computability(code, butterfly, method="exhaustive", cap=10)


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
    ex_ok, ex_failing = check_security_exhaustive(code, butterfly)
    assert not ex_ok and ex_failing == ("e3",)


def test_unmixed_sum_code_edges_case_by_case(butterfly):
    code = as_secure(fixtures.butterfly_sum_code(), 1)
    from snfc.codes import secure_vectors
    from snfc.verify import _blockdiag_selector

    vectors = secure_vectors(code, butterfly)
    gamma = _blockdiag_selector(code, 2)

    def edge_safe(eid):
        h_w = Matrix.from_columns(GF4, [vectors[eid]], nrows=4)
        return h_w.hstack(gamma).rank() == h_w.rank() + gamma.rank()

    assert edge_safe("e2")  # carries only the key coordinate of source 1
    assert not edge_safe("e3")  # carries the message coordinate of source 2
    assert not edge_safe("e8")  # carries the message sum


def test_fig_codes_secure(n1, butterfly):
    for name, net in [("n1", n1), ("butterfly_gf2", butterfly)]:
        ok, failing = check_security_rank(fixtures.code(name), net)
        assert ok and failing is None, name


def test_zero_edge_is_always_safe(butterfly):
    # edge e7 of the binary hand code carries the constant zero
    code = fixtures.code("butterfly_gf2")
    from snfc.codes import secure_vectors

    assert secure_vectors(code, butterfly)["e7"] == (0, 0, 0, 0)
    ok, _ = check_security_rank(code, butterfly)
    assert ok


# -- security: exhaustive criterion ------------------------------------------------------------

def test_fig_codes_secure_exhaustively(n1, butterfly):
    ok, _ = check_security_exhaustive(fixtures.code("n1"), n1)
    assert ok
    ok, _ = check_security_exhaustive(fixtures.code("butterfly_gf2"), butterfly)
    assert ok
    ok, _ = check_security_exhaustive(fixtures.code("butterfly"), butterfly)
    assert ok


def test_exhaustive_cap_guard_security(butterfly):
    with pytest.raises(TooLarge):
        check_security_exhaustive(fixtures.code("butterfly"), butterfly, cap=100)


def test_fast_flag_restricts_to_primary_sets(butterfly):
    fast = wiretap_family(butterfly, 1, fast=True)
    assert ("e6",) not in fast and ("e7",) not in fast
    full = wiretap_family(butterfly, 1)
    assert ("e6",) in full and ("e7",) in full
    ok, _ = check_security_rank(fixtures.code("butterfly"), butterfly, fast=True)
    assert ok


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_rank_and_exhaustive_criteria_agree(data):
    """Random (mostly insecure) codes over tiny fields: both routes must agree."""
    field = data.draw(st.sampled_from([GF2, GF3]))
    net = data.draw(st.sampled_from(["n1", "butterfly"]))
    net = fixtures.network(net)
    rate, r = 2, 1
    rng = random.Random(data.draw(st.integers(0, 10_000)))
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
    code = secure_code(SumCode(field, rate, source_matrices, local_coeffs, decoder), mixing, r)
    rank_ok, rank_w = check_security_rank(code, net)
    ex_ok, ex_w = check_security_exhaustive(code, net)
    assert rank_ok == ex_ok
    assert rank_w == ex_w


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


def test_verify_skips_exhaustive_beyond_cap(butterfly):
    report = verify(fixtures.code("butterfly"), butterfly, cap=10)
    assert report.secure_exhaustive is None
    assert report.computable and report.secure_rank


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
