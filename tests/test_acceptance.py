"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s`); a failed
assertion marks the criterion red.  Criteria 7-10 share one 200-network corpus.
"""

import hashlib
import json
import time

import pytest

from snfc import (
    c_min,
    c_min_bar,
    check_computability,
    check_exhaustive,
    check_security_rank,
    choose_mixing_matrix,
    code_to_dict,
    construct,
    exact_capacity,
    lift_extension,
    lower_bound,
    min_cut_edge_target,
    primary_min_cut,
    primary_wiretap_sets,
    secure_vectors,
    upper_bound,
    upper_bound_oracle,
    verify,
    zero_capacity,
)
from snfc import fixtures
from snfc.corpus import corpus
from snfc.errors import FieldTooSmall, RateInfeasible
from reference import butterfly_sum_code_gf2

CORPUS_SIZE = 200
CORPUS_SEED = 20_000
# sha256 over the criterion-8 loop's codes and reports, in loop order: a change to
# any chosen field, kernel, mixing matrix, global vector or report changes it
CONSTRUCTION_DIGEST = "6f91535453abd9dd38136de8209f70539ca507eaf3d3d9840960b7160cc74ea2"


def announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def random_corpus():
    return list(corpus(CORPUS_SIZE, base_seed=CORPUS_SEED, max_edges=12))


def test_criterion_1_butterfly_exactness(butterfly):
    t0 = time.monotonic()
    assert c_min(butterfly) == 2
    assert c_min_bar(butterfly) == 2
    report = upper_bound(butterfly, 1)
    assert report.upper == 1
    assert lower_bound(butterfly, 1) == 1
    exact = exact_capacity(butterfly, 1)
    assert exact == (1, "cmin_equals_cminbar")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    announce(1, f"butterfly: c_min=c_min_bar=2, bounds meet at 1, exact reason "
                f"cmin_equals_cminbar ({elapsed * 1000:.0f} ms)")


def test_criterion_2_primary_cut_fixture(fig2):
    cut = primary_min_cut(fig2, ["u1", "u2"], ["e7", "e8"])
    assert cut == ("e5",)
    assert min_cut_edge_target(fig2, ["u1", "u2"], ["e7", "e8"]).capacity == 1
    announce(2, "ladder graph: origin-side minimum cut for {e7,e8} is {e5} at capacity 1")


def test_criterion_3_no_penalty_network(n1):
    assert c_min(n1) == 1
    assert upper_bound(n1, 1).upper == 1
    assert lower_bound(n1, 1) == 0
    code = fixtures.code("n1")
    report = verify(code, n1, exhaustive=True)
    assert report.computable and report.secure_rank and report.secure_exhaustive
    assert report.rate == 1
    announce(3, "two-relay network: rate-1 hand code verifies at upper bound 1 "
                "while the generic lower bound is 0")


def test_criterion_4_mixed_code_regression(butterfly):
    code = fixtures.code("butterfly")
    assert code.mixing.data == ((1, 0), (2, 1))
    assert secure_vectors(code, butterfly) == {
        "e1": (1, 3, 0, 0),
        "e2": (0, 1, 0, 0),
        "e3": (0, 0, 1, 2),
        "e4": (0, 0, 1, 3),
        "e5": (0, 1, 1, 2),
        "e6": (0, 1, 1, 2),
        "e7": (0, 1, 1, 2),
        "e8": (1, 2, 1, 2),
        "e9": (0, 1, 0, 1),
    }
    report = verify(code, butterfly, exhaustive=True)
    assert report.all_passed and report.rate == 1
    lifted = lift_extension(code, butterfly)
    assert (lifted.ell, lifted.n) == (2, 2)
    assert lifted.base_prime == 2
    announce(4, "mixed butterfly code reproduces all nine secure vectors bit-exactly; "
                "verify all-true at rate 1; lifts to a (2,2) binary code")


def test_criterion_5_binary_hand_code_outside_the_construction(butterfly):
    code = fixtures.code("butterfly_gf2")
    assert code.field.q == 2
    report = verify(code, butterfly, exhaustive=True)
    assert report.all_passed and report.rate == 1
    family = primary_wiretap_sets(butterfly, 1, exact_size=True)
    with pytest.raises(FieldTooSmall):
        choose_mixing_matrix(butterfly_sum_code_gf2(), 1, family, butterfly)
    announce(5, "binary butterfly hand code verifies at rate 1, yet no binary mixing "
                "column exists: the code lies outside the construction")


def test_criterion_6_census_and_field_threshold(butterfly):
    family = primary_wiretap_sets(butterfly, 1, exact_size=True)
    assert family == [("e1",), ("e2",), ("e3",), ("e4",), ("e5",), ("e8",), ("e9",)]
    s = butterfly.num_sources
    assert s * len(family) == 14
    code = construct(butterfly, 1, seed=0)
    assert code.field.q <= 16
    assert verify(code, butterfly, exhaustive=True).all_passed
    announce(6, f"exact-size census has 7 sets (counting bound 14); construction "
                f"succeeds opportunistically over GF({code.field.q})")


def test_criterion_7_oracle_equivalence(random_corpus):
    t0 = time.monotonic()
    for net in random_corpus:
        for r in (0, 1, 2):
            assert upper_bound(net, r).upper == upper_bound_oracle(net, r)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    announce(7, f"graph-theoretic bound equals the exhaustive oracle on "
                f"{len(random_corpus)} networks x r in {{0,1,2}} ({elapsed:.1f} s)")


def test_criterion_8_construction_soundness(random_corpus):
    built = zero_rate = exhaustive_runs = 0
    digest = hashlib.sha256()
    for net in random_corpus:
        cm = c_min(net)
        for r in range(cm + 1):
            if r == cm:
                with pytest.raises(RateInfeasible):
                    construct(net, r, seed=1)
                zero_rate += 1
                continue
            code = construct(net, r, seed=1)
            built += 1
            report = verify(code, net, cap=2048, fast=r >= 3)
            assert report.all_passed, (net.to_dict(), r, report.to_dict())
            doc = json.dumps([code_to_dict(code, net), report.to_dict()], sort_keys=True)
            digest.update(hashlib.sha256(doc.encode()).digest())
            if report.secure_exhaustive is not None:
                exhaustive_runs += 1
                assert report.secure_exhaustive == report.secure_rank
    assert exhaustive_runs > 100
    assert digest.hexdigest() == CONSTRUCTION_DIGEST
    announce(8, f"{built} constructed codes all verify (computable, rank- and "
                f"tabulation-secure within bound); the exhaustive route ran "
                f"{exhaustive_runs} times and always agreed; the only refusals "
                f"were the {zero_rate} zero-message-rate requests")


def test_criterion_9_r0_degeneracy_and_zero_capacity(random_corpus):
    checked = 0
    for net in random_corpus:
        assert upper_bound(net, 0).upper == c_min(net)
        for r in range(len(net.edges) + 1):
            if zero_capacity(net, r):
                assert upper_bound(net, r).upper == 0
                checked += 1
    announce(9, f"no-security bound equals c_min on all {len(random_corpus)} networks; "
                f"{checked} zero-capacity cases all collapse the bound to 0")


def test_criterion_10_bracket_invariant(random_corpus):
    for net in random_corpus:
        cm = c_min(net)
        for r in range(len(net.edges) + 1):
            report = upper_bound(net, r)
            assert max(cm - r, 0) <= report.upper <= cm
    announce(10, f"closed-form bracket holds on all {len(random_corpus)} networks "
                 f"for every security level up to the edge count")


def test_hand_checks_on_fig_codes(n1, butterfly):
    # belt-and-braces: the two hand codes pass each criterion route separately
    for name, net in [("n1", n1), ("butterfly_gf2", butterfly), ("butterfly", butterfly)]:
        code = fixtures.code(name)
        assert check_computability(code, net)
        ok_rank, _ = check_security_rank(code, net)
        assert ok_rank
        assert check_exhaustive(code, net) == (True, True, None)
