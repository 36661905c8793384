import functools
import gc
import hashlib
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import (
    Matrix,
    build_reversed_multicast,
    c_min,
    choose_mixing_matrix,
    code_to_dict,
    construct,
    global_vectors,
    lift_extension,
    load_code,
    make_field,
    parse_network,
    primary_wiretap_sets,
    secure_code,
    secure_vectors,
    sum_code_from_multicast,
    verify,
)
import snfc
import snfc.codes as codes_module
from snfc import fixtures
from snfc.codes import (
    MULTICAST_ATTEMPTS,
    SCAN_CAP,
    MulticastCode,
    SecureCode,
    _Candidates,
    _walk_picks,
    as_secure,
)
from snfc.corpus import corpus, random_network
from snfc.errors import (
    ConstructionFailed,
    FieldTooSmall,
    FieldTooSmallForMulticast,
    InvariantViolated,
    MalformedInput,
    PrimeFieldInput,
    RateExceedsMinCut,
    RateInfeasible,
    ReversalInconsistent,
    ShapeMismatch,
    SingularB,
)
from snfc.gf import Echelon, Field
from snfc.network import per_network
from reference import (
    butterfly_sum_code_gf2,
    contains,
    greedy_mixing,
    multicast_attempts,
    reduced,
    run_lifted,
    scan_avoiding,
    simulate,
    transfer_global_vectors,
    walk_picks,
)
from cases import COLUMN_CASE_IDS, bound_large_stars, column_case, parallel_network, random_code

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def stacked_identity(field, rate, copies):
    return Matrix.build(field, Matrix.identity(field, rate).data * copies)


# -- multicast on the reversed network ----------------------------------------------

def test_multicast_line(line):
    mc = build_reversed_multicast(line, 1, GF2, seed=0)
    assert mc.decode_matrices["s1"].rank() == 1
    # over GF(2) a decodable rate-1 chain forces the unit kernel everywhere
    assert mc.global_kernels == {"e1": (1,), "e2": (1,)}
    code = sum_code_from_multicast(mc, line)
    assert global_vectors(code, line) == {"e1": (1,), "e2": (1,)}
    assert code.decoder.data == ((1,),)


def test_multicast_butterfly_decodable_at_both_sinks(butterfly):
    mc = build_reversed_multicast(butterfly, 2, GF4, seed=3)
    for s in butterfly.sources:
        assert mc.decode_matrices[s].rank() == 2
        prod = mc.decode_matrices[s].mul(mc.right_inverses[s])
        assert prod.data == Matrix.identity(GF4, 2).data


def test_multicast_rate_above_min_cut_rejected(butterfly):
    with pytest.raises(RateExceedsMinCut):
        build_reversed_multicast(butterfly, 3, GF4, seed=0)


def test_multicast_rate_zero_rejected(butterfly):
    with pytest.raises(RateInfeasible):
        build_reversed_multicast(butterfly, 0, GF4, seed=0)


@pytest.mark.parametrize("q", [2**m for m in range(1, 17)] + [3, 5, 7, 11, 13, 257, 65521])
def test_draw_stream_matches_randrange(butterfly, q):
    # every kernel entry is the next randrange(q) of the search's own generator, so
    # the kernels returned are one attempt's block of draws, read in kernel order
    field = make_field(q, 1) if q & (q - 1) else make_field(2, q.bit_length() - 1)
    for seed in (0, 1, 7):
        mc = build_reversed_multicast(butterfly, 1, field, seed)
        drawn = [x for kernel in mc.kernels.values() for row in kernel.data for x in row]
        rng = random.Random(f"{seed}|{field.p}^{field.m}|1")
        assert drawn in [[rng.randrange(q) for _ in drawn] for _ in range(MULTICAST_ATTEMPTS)]


class CountingRandom(random.Random):
    """Counts its randrange calls."""

    calls = 0

    def randrange(self, *args):
        CountingRandom.calls += 1
        return super().randrange(*args)


# every q up to 300, and 2^k - 1, 2^k and 2^k + 1 up to 65536
DRAW_SIZES = sorted({*range(2, 301), *(2**k + d for k in range(2, 17) for d in (-1, 0, 1))} - {2**16 + 1})


def test_draws_are_randrange_value_for_value(monkeypatch):
    # takes of one value, of one butterfly attempt (12 draws at rate 2), and takes that
    # cross a refill; below q = 256 no value is a randrange call
    monkeypatch.setattr(codes_module, "random", types.SimpleNamespace(Random=CountingRandom))
    sizes = [1, 12, 1, 12, 300, 2, 1000, 12]
    for q in DRAW_SIZES:
        seed = f"{q}|draws|2"
        rng = random.Random(seed)
        expect = [rng.randrange(q) for _ in range(sum(sizes))]
        CountingRandom.calls = 0
        take = codes_module._draws(seed, q)
        got = [list(take(n)) for n in sizes]
        assert list(map(len, got)) == sizes, q
        assert [x for chunk in got for x in chunk] == expect, q
        assert CountingRandom.calls == (0 if q < 256 else sum(sizes)), q


# sha256 over multicast kernels at rate c_min and every construct(net, r) with
# 0 <= r < c_min, on 30 corpus networks, for each field spec in turn: the draws
# over odd characteristics and wide fields, which MULTICAST_PINS and the
# criterion-8 digest (GF(2^m) only) do not reach
OTHER_FIELD_DIGEST = "52372f6e743175fbb2b51c8ff4b2d11c8b712087e2a735af47e8d15a01abbd2d"


def test_codes_over_other_fields_keep_their_digest():
    digest = hashlib.sha256()
    for spec in ("3", "5", "3^2", "257", "2^9", "65521"):
        field = snfc.parse_field(spec)
        for net in corpus(30, base_seed=500, max_edges=10):
            cm = c_min(net)
            mc = build_reversed_multicast(net, cm, field, seed=7)
            out = [sorted((v, m.data) for v, m in mc.kernels.items()), list(mc.global_kernels.items())]
            out += [code_to_dict(construct(net, r, field=field, seed=1), net) for r in range(cm)]
            digest.update(json.dumps(out, sort_keys=True).encode())
    assert digest.hexdigest() == OTHER_FIELD_DIGEST


# butterfly, GF(4), rate 2: the multicast codes drawn one `randrange` at a time
MULTICAST_PINS = {
    3: (
        {"v3": ((3, 2),), "v4": ((3, 3),), "v5": ((2, 2),), "v6": ((3,), (2,)), "rho": ((2, 2), (2, 1))},
        {"e9": (2, 1), "e8": (2, 2), "e7": (3, 2), "e6": (1, 1), "e5": (2, 0),
         "e4": (3, 2), "e3": (3, 0), "e2": (1, 0), "e1": (1, 1)},
        {"s1": ((1, 1), (1, 0)), "s2": ((3, 3), (0, 2))},
        {"s1": ((0, 1), (1, 1)), "s2": ((2, 3), (0, 3))},
    ),
    11: (
        {"v3": ((1, 3),), "v4": ((1, 2),), "v5": ((1, 3),), "v6": ((2,), (1,)), "rho": ((2, 0), (0, 2))},
        {"e9": (0, 2), "e8": (2, 0), "e7": (0, 1), "e6": (3, 0), "e5": (1, 1),
         "e4": (0, 2), "e3": (3, 3), "e2": (1, 1), "e1": (2, 0)},
        {"s1": ((2, 1), (0, 1)), "s2": ((3, 0), (3, 2))},
        {"s1": ((3, 3), (0, 1)), "s2": ((2, 0), (3, 3))},
    ),
}


@pytest.mark.parametrize("seed", sorted(MULTICAST_PINS))
def test_multicast_solves_once_per_source_and_keeps_its_codes(butterfly, monkeypatch, seed):
    # failed attempts are rejected by rank alone; only the returned code is solved
    solves = []
    solve_right = Matrix.solve_right
    monkeypatch.setattr(Matrix, "solve_right", lambda self, rhs: solves.append(1) or solve_right(self, rhs))
    mc = build_reversed_multicast(butterfly, 2, GF4, seed=seed)
    assert len(solves) == butterfly.num_sources
    kernels, global_kernels, decode, right = MULTICAST_PINS[seed]
    assert {v: m.data for v, m in mc.kernels.items()} == kernels
    assert list(mc.global_kernels.items()) == list(global_kernels.items())
    assert {s: m.data for s, m in mc.decode_matrices.items()} == decode
    assert {s: m.data for s, m in mc.right_inverses.items()} == right


# butterfly, rate 2, over an odd prime field and over q > 256, where the draws are a
# list of randrange values rather than bytes; keyed by (field, seed).  Over GF(3) seed 3
# fails all its attempts, so seed 1 stands in for it.
WIDER_MULTICAST_PINS = {
    ("3", 1): (
        {"v3": ((2, 1),), "v4": ((2, 2),), "v5": ((2, 1),), "v6": ((2,), (2,)), "rho": ((0, 1), (1, 1))},
        {"e9": (1, 1), "e8": (0, 1), "e7": (1, 1), "e6": (0, 2), "e5": (2, 0),
         "e4": (2, 2), "e3": (2, 0), "e2": (1, 0), "e1": (0, 2)},
        {"s1": ((0, 1), (2, 0)), "s2": ((2, 2), (0, 2))},
        {"s1": ((0, 2), (1, 0)), "s2": ((2, 1), (0, 2))},
    ),
    ("3", 11): (
        {"v3": ((2, 1),), "v4": ((1, 1),), "v5": ((1, 1),), "v6": ((2,), (2,)), "rho": ((2, 1), (0, 1))},
        {"e9": (1, 1), "e8": (2, 0), "e7": (1, 1), "e6": (2, 0), "e5": (0, 2),
         "e4": (1, 1), "e3": (0, 2), "e2": (0, 1), "e1": (2, 0)},
        {"s1": ((2, 0), (0, 1)), "s2": ((0, 1), (2, 1))},
        {"s1": ((2, 0), (0, 1)), "s2": ((1, 2), (1, 0))},
    ),
    ("2^9", 3): (
        {"v3": ((150, 20),), "v4": ((265, 403),), "v5": ((179, 424),), "v6": ((13,), (461,)),
         "rho": ((314, 173), (455, 502))},
        {"e9": (173, 502), "e8": (314, 455), "e7": (17, 411), "e6": (380, 336), "e5": (127, 275),
         "e4": (63, 242), "e3": (14, 368), "e2": (101, 431), "e1": (4, 71)},
        {"s1": ((4, 101), (71, 431)), "s2": ((14, 63), (368, 242))},
        {"s1": ((6, 403), (458, 350)), "s2": ((127, 111), (308, 451))},
    ),
    ("2^9", 11): (
        {"v3": ((191, 292),), "v4": ((437, 89),), "v5": ((254, 368),), "v6": ((23,), (80,)),
         "rho": ((52, 298), (183, 166))},
        {"e9": (298, 166), "e8": (52, 183), "e7": (173, 336), "e6": (209, 417), "e5": (173, 66),
         "e4": (145, 485), "e3": (381, 113), "e2": (481, 164), "e1": (61, 42)},
        {"s1": ((61, 481), (42, 164)), "s2": ((381, 145), (113, 485))},
        {"s1": ((392, 88), (364, 46)), "s2": ((212, 236), (436, 231))},
    ),
}


@pytest.mark.parametrize("spec, seed", sorted(WIDER_MULTICAST_PINS))
def test_multicast_keeps_its_codes_beyond_gf4(butterfly, spec, seed):
    mc = build_reversed_multicast(butterfly, 2, snfc.parse_field(spec), seed=seed)
    kernels, global_kernels, decode, right = WIDER_MULTICAST_PINS[spec, seed]
    assert {v: m.data for v, m in mc.kernels.items()} == kernels
    assert list(mc.global_kernels.items()) == list(global_kernels.items())
    assert {s: m.data for s, m in mc.decode_matrices.items()} == decode
    assert {s: m.data for s, m in mc.right_inverses.items()} == right


class SparseRandom(random.Random):
    """Draws 0 half the time, so rank-deficient attempts are common over every field."""

    def randrange(self, q):
        return super().randrange(q) if self.random() < 0.5 else 0


def sparse_draws(seed, q):
    """`codes._draws` over `SparseRandom`: each value one of its randrange calls."""
    draw = SparseRandom(seed).randrange
    return lambda n: [draw(q) for _ in range(n)]


@pytest.mark.parametrize("spec", ["2", "2^2", "2^8", "3", "2^9"])
def test_row_form_search_matches_the_packed_reference_attempt_by_attempt(butterfly, monkeypatch, spec):
    # every attempt's row-form columns, unpacked, are the packed walk's, and the search
    # stops exactly where the packed rank test first accepts
    field = snfc.parse_field(spec)
    monkeypatch.setattr(codes_module, "_draws", sparse_draws)
    walks = []  # each attempt's columns, as Field.propagate walks them
    propagate = Field.propagate
    monkeypatch.setattr(Field, "propagate", lambda *args: walks.append(propagate(*args)) or walks[-1])
    verdicts = set()
    for seed, net in enumerate([butterfly, *corpus(16, base_seed=700, max_edges=10)]):
        rate = c_min(net)
        walks.clear()
        try:
            mc = build_reversed_multicast(net, rate, field, seed)
        except FieldTooSmallForMulticast:
            mc = None
        draw = SparseRandom(f"{seed}|{field.p}^{field.m}|{rate}").randrange
        reference = multicast_attempts(net, rate, field, draw)
        assert len(walks) == len(reference)
        for cols, (_, expect, _) in zip(walks, reference):
            assert dict(zip(reversed(net.order), map(tuple, cols))) == expect
        assert [accepted for _, _, accepted in reference] == [False] * (len(walks) - 1) + [mc is not None]
        if mc is not None:
            rows, expect, _ = reference[-1]
            assert {v: m.data for v, m in mc.kernels.items()} == {v: tuple(r) for v, r in rows.items()}
            assert mc.global_kernels == expect
        verdicts.update(accepted for _, _, accepted in reference)
    assert verdicts == {False, True}


# corpus network 20034, from the acceptance corpus: at seed 1 every one of the
# MULTICAST_ATTEMPTS draws over GF(2) leaves a source undecodable, and GF(4) succeeds
GF4_AFTER_GF2 = (
    {"v1": ((1,),), "v2": ((3,),), "v3": ((3,),), "v4": ((3, 3, 3),), "rho": ((0, 0, 1),)},
    {"e5": (1,), "e9": (0,), "e8": (0,), "e7": (3,), "e6": (3,), "e4": (3,), "e2": (0,), "e3": (0,), "e1": (3,)},
)


def test_multicast_exhausts_gf2_then_succeeds_over_gf4():
    net = random_network(20034)
    with pytest.raises(FieldTooSmallForMulticast, match=f"in {MULTICAST_ATTEMPTS} attempts"):
        build_reversed_multicast(net, 1, GF2, seed=1)
    mc = build_reversed_multicast(net, 1, GF4, seed=1)
    kernels, global_kernels = GF4_AFTER_GF2
    assert {v: m.data for v, m in mc.kernels.items()} == kernels
    assert list(mc.global_kernels.items()) == list(global_kernels.items())
    assert construct(net, 0, seed=1).field == GF4


def test_a_failed_field_leaves_no_frames_behind():
    # construct keeps the last field error for its message but drops its traceback,
    # which would hold the search's frames and their callers' in a cycle until the
    # next collection
    net = random_network(20034)
    gc.collect()
    gc.disable()
    try:
        assert construct(net, 0, seed=1).field == GF4
        left = [o for o in gc.get_objects() if isinstance(o, types.FrameType) and o.f_code.co_name == "construct"]
    finally:
        gc.enable()
    assert left == []


# -- reversal into a sum code ----------------------------------------------------------

def test_reversal_produces_stacked_identity(butterfly, monkeypatch):
    mc = build_reversed_multicast(butterfly, 2, GF4, seed=11)
    # the reversal check runs the bare sum code against its D: it builds no SecureCode
    built, init = [], SecureCode.__init__
    monkeypatch.setattr(SecureCode, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    code = sum_code_from_multicast(mc, butterfly)
    assert built == []
    vectors = global_vectors(code, butterfly)
    g_rho = Matrix.from_columns(GF4, [vectors[e.id] for e in butterfly.in_edges[butterfly.sink]])
    assert g_rho.mul(code.decoder).data == stacked_identity(GF4, 2, 2).data


def test_reversal_detects_corrupted_right_inverse(butterfly):
    mc = build_reversed_multicast(butterfly, 2, GF4, seed=11)
    bad_right = dict(mc.right_inverses)
    k = bad_right["s1"]
    rows = [list(r) for r in k.data]
    rows[0][0] = GF4.add(rows[0][0], 1)
    bad_right["s1"] = Matrix.build(GF4, rows, ncols=k.ncols)
    bad = MulticastCode(
        mc.field, mc.rate, mc.kernels, mc.global_kernels, mc.decode_matrices, bad_right
    )
    with pytest.raises(ReversalInconsistent):
        sum_code_from_multicast(bad, butterfly)


@given(st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_propagation_agrees_with_transfer_matrix(seed):
    net = random_network(seed)
    rate = c_min(net)
    code = construct(net, 0, seed=seed).base
    assert global_vectors(code, net) == transfer_global_vectors(code, net)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_simulation_matches_global_vectors(data):
    net = random_network(data.draw(st.integers(0, 2000)))
    code = construct(net, 0, seed=5)
    vectors = secure_vectors(code, net)
    field = code.field
    inputs = tuple(
        tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(code.rate))
        for _ in net.sources
    )
    flat = [x for row in inputs for x in row]
    symbols = simulate(code, net, inputs)
    for eid in net.order:
        expected = 0
        for a, b in zip(flat, vectors[eid]):
            expected = field.add(expected, field.mul(a, b))
        assert symbols[eid] == expected


# -- mixing matrix ------------------------------------------------------------------------

def test_mixing_matrix_r0_needs_only_invertibility(butterfly):
    base = fixtures.code("butterfly").base
    family = primary_wiretap_sets(butterfly, 0, exact_size=True)
    b = choose_mixing_matrix(base, 0, family, butterfly)
    assert b.rank() == 2


def test_mixing_matrix_matches_shipped_butterfly_choice(butterfly):
    base = fixtures.code("butterfly").base
    family = primary_wiretap_sets(butterfly, 1, exact_size=True)
    b = choose_mixing_matrix(base, 1, family, butterfly)
    assert b.data == ((1, 0), (2, 1))


@pytest.mark.parametrize("r", [-1, 3])
def test_mixing_matrix_refuses_a_level_outside_the_rate(butterfly, r):
    base = fixtures.code("butterfly").base
    with pytest.raises(ShapeMismatch, match=f"security level {r} out of range for rate 2"):
        choose_mixing_matrix(base, r, primary_wiretap_sets(butterfly, 1, exact_size=True), butterfly)


def test_mixing_matrix_impossible_over_gf2(butterfly):
    base = butterfly_sum_code_gf2()
    family = primary_wiretap_sets(butterfly, 1, exact_size=True)
    with pytest.raises(FieldTooSmall):
        choose_mixing_matrix(base, 1, family, butterfly)


def test_secure_code_identity_mixing_keeps_vectors(butterfly):
    base = fixtures.code("butterfly").base
    code = secure_code(base, Matrix.identity(GF4, 2), 1)
    assert secure_vectors(code, butterfly) == global_vectors(base, butterfly)


def test_as_secure_views_a_bare_sum_code_at_level_zero():
    base = fixtures.code("butterfly").base
    code = as_secure(base)
    assert (code.base, code.r, code.ell) == (base, 0, 2)
    assert code.mixing.data == Matrix.identity(GF4, 2).data
    assert as_secure(base, 1).r == 1


def test_secure_code_rejects_singular_mixing(butterfly):
    base = fixtures.code("butterfly").base
    with pytest.raises(SingularB):
        secure_code(base, Matrix.build(GF4, [[0, 0]] * 2), 1)


def test_secure_code_rejects_bad_shape(butterfly):
    base = fixtures.code("butterfly").base
    with pytest.raises(ShapeMismatch):
        secure_code(base, Matrix.identity(GF4, 3), 1)


def test_secure_code_rejects_mixing_over_another_field(butterfly):
    base = fixtures.code("butterfly").base
    with pytest.raises(ShapeMismatch, match="wrong field"):
        secure_code(base, Matrix.identity(GF2, 2), 1)


def test_butterfly_secure_vectors_regression(butterfly):
    # the shipped mixing matrix must reproduce the expected nine vectors exactly
    code = fixtures.code("butterfly")
    hv = secure_vectors(code, butterfly)
    assert hv == {
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


def test_mixing_block_identity():
    # per-source blocks of the secure vectors are the inverse mixing applied to the raw
    # ones, and the raw ones equal the closed-form transfer route, over GF(2^16) too
    gf65536 = make_field(2, 16)
    fig2 = fixtures.network("fig2")
    cases = list(map(column_case, COLUMN_CASE_IDS))
    cases.append((random_code(gf65536, fig2, 1, 0, random.Random(f"{gf65536!r}:fig2")), fig2))
    for code, net in cases:
        g = global_vectors(code.base, net)
        assert g == transfer_global_vectors(code.base, net)
        h = secure_vectors(code, net)
        rate = code.rate
        for eid in net.order:
            for i in range(net.num_sources):
                block = Matrix.column(code.field, g[eid][i * rate : (i + 1) * rate])
                assert code.mixing_inverse.mul(block).columns()[0] == h[eid][i * rate : (i + 1) * rate]


def _mask_scan(field, generators, dim):
    """The bitmask scan's first vector outside the spans of the generator lists."""
    cands = _Candidates(field, dim)
    return cands.first_outside(functools.reduce(operator.or_, map(cands.span, generators), 1))


@pytest.mark.parametrize("field, dims", [
    (GF2, (1, 2, 5, 10)),
    (GF3, (1, 2, 4, 6)),
    (GF4, (1, 2, 3, 5)),
    (make_field(2, 3), (1, 2, 3)),
    (make_field(3, 2), (1, 2, 3)),
    (make_field(2, 9), (1,)),
    (make_field(257, 1), (1,)),
], ids=["GF2", "GF3", "GF4", "GF8", "GF9", "GF512", "GF257"])
def test_candidate_masks_match_the_reference_scan(field, dims):
    # a span's mask holds exactly its vectors; closing it under a vector gives the mask
    # of the span with that vector added; and the lowest clear bit of the union of the
    # masks is the reference scan's vector, over dependent and repeated generators
    rng = random.Random(f"{field!r}:masks")
    outcomes = set()
    for dim in dims:
        cands = _Candidates(field, dim)
        candidates = list(itertools.product(field.elements(), repeat=dim))
        assert cands.size == len(candidates) <= SCAN_CAP
        for _ in range(25 if field.q**dim <= 64 else 6):
            generators = []
            for _ in range(rng.randint(1, 5)):
                gens = [tuple(rng.randrange(field.q) for _ in range(dim)) for _ in range(rng.randint(1, dim))]
                if rng.random() < 0.4:  # a dependent generator: a multiple of a sum of two
                    a, b, c = rng.choice(gens), rng.choice(gens), rng.randrange(field.q)
                    gens.append(tuple(field.mul(c, field.add(x, y)) for x, y in zip(a, b)))
                if rng.random() < 0.2:
                    gens.append((0,) * dim)
                generators.append(gens)
            if rng.random() < 0.3:  # a repeated span, from its generators in another order
                gens = rng.choice(generators)
                generators.append(rng.sample(gens, len(gens)))
            spans = [Echelon(field, gens) for gens in generators]
            for gens, span in zip(generators, spans):
                mask = cands.span(gens)
                assert mask == sum(1 << i for i, v in enumerate(candidates) if contains(span, v))
                extra = rng.choice(candidates)
                assert cands.close(mask, extra) == cands.span(gens + [extra])
            got = _mask_scan(field, generators, dim)
            assert got == scan_avoiding(field, spans, dim)
            outcomes.add(got is None)
    # the lowest clear bit of the zero span is the last unit vector
    assert cands.first_outside(1) == (0,) * (dim - 1) + (1,)
    assert outcomes == ({True, False} if max(dims) > 1 else {True})


def test_mixing_scan_matches_the_straight_scan():
    # the bitmask scan reads the union of the spans, never their order: same vector
    # or None; the walk (one position over the spans: rate dim, r = dim - 1) leaves
    # the list of spans and their generators as they were given
    rng = random.Random(5)
    outcomes = set()
    for field in (GF2, GF3, GF4):
        for dim in (1, 2, 3, 4):
            assert field.q**dim <= SCAN_CAP
            for _ in range(60):
                generators = []
                for _ in range(rng.randint(1, 7)):
                    vectors = [[rng.randrange(field.q) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
                    generators.append(vectors)
                if rng.random() < 0.3:
                    generators.insert(rng.randrange(len(generators) + 1), rng.choice(generators))  # a repeated span
                spans = [Echelon(field, gens) for gens in generators]
                given_order, given_generators = list(spans), [[list(v) for v in gens] for gens in generators]
                got = _mask_scan(field, generators, dim)
                walked = next(_walk_picks(field, dim, dim - 1, generators))
                assert spans == given_order and generators == given_generators
                if all(s.rank < dim for s in spans):
                    assert got == scan_avoiding(field, spans, dim)
                else:
                    assert got is None
                if walked is not None:
                    assert not any(contains(s, walked) for s in spans)
                outcomes.add(got is None)
    # the q + 1 lines of a plane over GF(q) (over GF(2): (1, 0), (0, 1) and (1, 1)) leave only
    # the zero vector, which every span holds; without one line, the first vector left is
    # the first nonzero vector of that line
    for field in (GF2, GF3, GF4):
        generators = [[(1, 0)]] + [[(a, 1)] for a in field.elements()]
        lines = [Echelon(field, gens) for gens in generators]
        assert scan_avoiding(field, lines, 2) is None
        assert _mask_scan(field, generators + generators[:1], 2) is None
        assert next(_walk_picks(field, 2, 1, generators + generators[:1])) is None
        for i, (line,) in enumerate(generators):
            first = min(tuple(field.mul(c, x) for x in line) for c in range(1, field.q))
            rest = generators[:i] + generators[i + 1 :]
            assert _mask_scan(field, rest, 2) == scan_avoiding(field, lines[:i] + lines[i + 1 :], 2) == first
    assert outcomes == {True, False}


@pytest.mark.parametrize("field, dims", [
    (GF2, (2, 3, 4, 11)),
    (GF3, (1, 2, 4, 7)),
    (GF4, (1, 3, 4, 6)),
    (make_field(2, 4), (1, 2, 3)),
])
def test_repeated_spans_leave_the_mixing_pick_unchanged(field, dims):
    # the mixing search keeps one span per distinct column tuple, so one subspace can
    # come up again from other generators, after its first occurrence: both the
    # bitmask scan and the walk beyond SCAN_CAP must pick as if it came up once
    rng = random.Random(f"{field!r}")
    outcomes = set()

    def combine(vectors):
        out = [0] * len(vectors[0])
        for v in vectors:
            c = rng.randrange(field.q)
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
        return out

    for dim in dims:
        for _ in range(40):
            gens = [
                [[rng.randrange(field.q) for _ in range(dim)] for _ in range(rng.randint(1, max(1, dim - 1)))]
                for _ in range(rng.randint(1, 5))
            ]
            spans = [Echelon(field, g) for g in gens]
            repeated, repeated_gens = list(spans), list(gens)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(spans))
                copy_gens = [combine(gens[i]) for _ in range(2)] + rng.sample(gens[i], len(gens[i]))
                copy = Echelon(field, copy_gens)
                assert reduced(copy) == reduced(spans[i])
                at = rng.randint(repeated.index(spans[i]) + 1, len(repeated))
                repeated.insert(at, copy)
                repeated_gens.insert(at, copy_gens)
            if field.q**dim <= SCAN_CAP:
                got = _mask_scan(field, gens, dim)
                assert _mask_scan(field, repeated_gens, dim) == got
                assert got == (scan_avoiding(field, spans, dim) if all(s.rank < dim for s in spans) else None)
            else:
                got = next(_walk_picks(field, dim, dim - 1, gens))
                assert next(_walk_picks(field, dim, dim - 1, repeated_gens)) == got
            outcomes.add((field.q**dim <= SCAN_CAP, got is None))
    assert {regime for regime, _ in outcomes} == {True, False}


@pytest.mark.parametrize("spec, rate", [("2", 10), ("2^2", 5), ("2^5", 2), ("2", 11)])
def test_the_scan_regime_ends_at_scan_cap(monkeypatch, spec, rate):
    # at q^R = SCAN_CAP the picks are the plain greedy's over the reference scan, and
    # no Echelon is built; one candidate more and the walk picks
    field = snfc.parse_field(spec)
    rng = random.Random(f"{spec}:{rate}")
    walks = []
    walk_picks = codes_module._walk_picks

    def counted(*args):
        walks.append(args)
        return walk_picks(*args)

    monkeypatch.setattr(codes_module, "_walk_picks", counted)
    outcomes = set()
    for net in (fixtures.network("butterfly"), parallel_network(rate), *itertools.islice(corpus(12), 0, None, 4)):
        base = random_code(field, net, rate, 0, rng).base
        for r in range(1, min(rate, c_min(net) + 1)):
            family = primary_wiretap_sets(net, r, exact_size=True)
            if field.q**rate > SCAN_CAP:
                try:
                    choose_mixing_matrix(base, r, family, net)
                except FieldTooSmall:
                    pass
                continue
            expected = greedy_mixing(base, r, family, net)
            with monkeypatch.context() as patch:
                patch.setattr(Echelon, "__init__", lambda *args: pytest.fail("an Echelon in the scan regime"))
                try:
                    got = choose_mixing_matrix(base, r, family, net)
                except FieldTooSmall:
                    got = None
            assert (got and got.data) == (expected and expected.data)
            outcomes.add(got is None)
    if field.q**rate > SCAN_CAP:
        assert walks
    else:
        assert not walks and False in outcomes


def _walk_outcome(walk) -> list:
    """A walk's picks up to and including its first None."""
    picks = []
    for pick in walk:
        picks.append(pick)
        if pick is None:
            break
    return picks


def _walk_cases(field, rng):
    """(rate, r, obstacles) for the walk: random families of column tuples with
    dependent columns, columns that two edges carry, repeated spans and the
    subsets in lexicographic order, one obstacle per source, so two sources
    interleave their prefixes; then spans that fail position 0 and spans that fail
    the last position that reads them."""
    q = field.q
    for _ in range(30 if q <= 16 else 10):
        rate = rng.randint(2, 5 if q <= 16 else 4)
        r = rng.randrange(rate)
        n = rate + rng.randint(0, 2)
        sources = []
        for _ in range(rng.choice((1, 1, 2))):
            cols = []
            for _ in range(n):
                roll = rng.random()
                if cols and roll < 0.2:  # a dependent column: a multiple of a sum of two
                    a, b, c = rng.choice(cols), rng.choice(cols), rng.randrange(1, q)
                    cols.append(tuple(field.mul(c, field.add(x, y)) for x, y in zip(a, b)))
                elif cols and roll < 0.3:  # a column that another edge carries too
                    cols.append(rng.choice(cols))
                else:
                    cols.append(tuple(rng.randrange(q) for _ in range(rate)))
            sources.append(cols)
        size = rng.randint(1, min(n, rate))
        obstacles = [
            tuple(cols[e] for e in subset) for subset in itertools.combinations(range(n), size) for cols in sources
        ]
        for _ in range(rng.randint(0, 2)):  # a repeated span: the same tuple, or its columns in another order
            again = rng.choice(obstacles)
            copy = tuple(rng.sample(again, len(again))) if rng.random() < 0.5 else again
            obstacles.insert(rng.randint(obstacles.index(again) + 1, len(obstacles)), copy)
        yield rate, r, obstacles
    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    # a full span fails position 0, as the first span or after others
    yield 4, 1, [tuple(units)]
    yield 4, 0, [(units[0],), (units[1], units[2]), tuple(units)]
    # a span of rank r + 1 is full once the first rate - r - 1 picks join it
    yield 4, 1, [(units[3],), (units[2], units[3])]
    if q <= 16:
        # the q + 1 lines of the plane x0 = 0: position 0 picks (1, 0, 0), and at position 1
        # the planes through it and each line cover the space, so every move is blocked
        lines = [((0, 1, 0),)] + [((0, a, 1),) for a in field.elements()]
        yield 3, 1, lines


@pytest.mark.parametrize("field", [
    GF2, GF4, make_field(2, 4), make_field(2, 8), GF3, make_field(3, 2), make_field(2, 9), make_field(257, 1),
], ids=["GF2", "GF4", "GF16", "GF256", "GF3", "GF9", "GF512", "GF257"])
def test_walk_matches_the_reference_walk(field):
    # the walk asks the reference walk's questions in its order: every pick, and the
    # position where it fails, are the reference's, over int rows (GF(2^m), m <= 8)
    # and packed columns (odd p, or q > 256)
    rng = random.Random(f"{field!r}:walk")
    outcomes = set()
    for rate, r, obstacles in _walk_cases(field, rng):
        got = _walk_outcome(_walk_picks(field, rate, r, obstacles))
        assert got == _walk_outcome(walk_picks(field, rate, r, obstacles)), (rate, r, obstacles)
        if got[-1] is not None:
            outcomes.add("chosen")
        elif len(got) == 1:
            outcomes.add("fails at 0")
        elif len(got) == rate - r:
            outcomes.add("fails at the last obstacle position")
    assert outcomes == {"chosen", "fails at 0", "fails at the last obstacle position"}


# the field and the sha256 of code_to_dict (JSON, sorted keys) on two large walks that no
# digest above reaches: over int rows on the first seed-1 `bound_large` star, and over
# packed rows on 14 parallel edges
@pytest.mark.parametrize("net, r, pin", [
    pytest.param(
        bound_large_stars(1, 1)[0], 1, ("2^6", "3b1d3cc4f861c6d3a0ee17caa47f9e834f775504d3c4f3d5aec6ec3bc78acea7"),
        id="star-200-r1",
    ),
    pytest.param(
        parallel_network(14), 5, ("2^9", "f6de2c0dab2652c802be8d450eeb93819050f8200b5c565d78ddc382d3f0f40f"),
        id="parallel-14-r5",
    ),
])
def test_large_walks_keep_their_codes(net, r, pin):
    code = construct(net, r)
    digest = hashlib.sha256(json.dumps(code_to_dict(code, net), sort_keys=True).encode()).hexdigest()
    assert (code.field.spec_string(), digest) == pin


# -- end-to-end construction -----------------------------------------------------------------

def test_construct_butterfly_lifts_to_gf4(butterfly):
    code = construct(butterfly, 1, seed=0)
    assert code.field.q == 4
    assert code.rate == 2 and code.r == 1
    assert verify(code, butterfly).all_passed


def test_construct_rejects_zero_message_rate(n1):
    with pytest.raises(RateInfeasible):
        construct(n1, 1)


def test_construct_rejects_bad_levels(butterfly):
    with pytest.raises(RateInfeasible):
        construct(butterfly, 3)
    with pytest.raises(RateInfeasible):
        construct(butterfly, 1, rate=3)
    with pytest.raises(RateInfeasible):
        construct(butterfly, -1)


def test_construct_r0_uses_identity_mixing(butterfly):
    code = construct(butterfly, 0, seed=1)
    assert code.mixing.data == Matrix.identity(code.field, 2).data
    assert code.rate == c_min(butterfly)
    assert verify(code, butterfly).all_passed


def test_construct_respects_requested_field(butterfly):
    code = construct(butterfly, 1, field=GF4, seed=2)
    assert code.field == GF4


def test_construct_determinism(butterfly):
    a = code_to_dict(construct(butterfly, 1, seed=42), butterfly)
    b = code_to_dict(construct(butterfly, 1, seed=42), butterfly)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- the sum code every security level shares -------------------------------------------------

def _reparsed(net):
    """An equal network with an empty memo."""
    return parse_network(json.dumps(net.to_dict()))


@pytest.mark.parametrize(
    "net",
    [pytest.param(parallel_network(n), id=f"parallel-{n}") for n in range(1, 10)]
    + [pytest.param(net, id=f"corpus-{i}") for i, net in enumerate(corpus(40)) if i % 4 == 0],
)
def test_every_security_level_builds_the_code_of_a_fresh_network(net):
    levels = range(c_min(net))
    shared = [construct(net, r, seed=1) for r in levels]
    fresh = [construct(_reparsed(net), r, seed=1) for r in levels]
    assert [code_to_dict(code, net) for code in shared] == [code_to_dict(code, net) for code in fresh]
    # the levels that settle on one field read one sum code
    bases = {}
    assert all(bases.setdefault(code.field, code.base) is code.base for code in shared)


def test_construct_searches_once_per_rate_and_field(monkeypatch):
    searches, build = [], codes_module.build_reversed_multicast

    def counted(net, rate, field, seed):
        searches.append((rate, field))
        return build(net, rate, field, seed)

    monkeypatch.setattr(codes_module, "build_reversed_multicast", counted)
    # c_min is 1 on network 20034, so r = 0 is its one level: the second call reads the memo
    net = random_network(20034)
    assert [construct(net, 0, seed=1).field for _ in range(2)] == [GF4, GF4]
    assert searches == [(1, GF2), (1, GF4)]  # GF(2) fails in all MULTICAST_ATTEMPTS draws
    # on network 51 (c_min 3) the GF(2) search fails too, and each level settles on GF(4)
    searches.clear()
    net = random_network(51)
    assert [construct(net, r, seed=1).field for r in range(c_min(net))] == [GF4] * 3
    assert searches == [(3, GF2), (3, GF4)]


def test_each_sum_code_builds_its_plan_and_walks_its_unit_inputs_once(monkeypatch):
    plans, walks, build = [], [], codes_module._propagation_plan.__wrapped__
    walk = codes_module._walk

    def counted_plan(net, code):
        plans.append(code)
        return build(net, code)

    def counted_walk(code, net, inputs):
        walks.append((sys._getframe(1).f_code.co_name, code))
        return walk(code, net, inputs)

    monkeypatch.setattr(codes_module, "_propagation_plan", per_network(counted_plan))
    monkeypatch.setattr(codes_module, "_walk", counted_walk)
    # network 8 (c_min 4, one source): r = 0 and 3 settle on GF(2), r = 1 and 2 on GF(4),
    # and every level's verify runs both security routes over at most 4^4 states
    net = random_network(8)
    codes = [construct(net, r, seed=1) for r in range(c_min(net))]
    assert [code.field for code in codes] == [GF2, GF4, GF4, GF2]
    for code in codes:
        assert verify(code, net).all_passed
        code_to_dict(code, net)
    # a loaded code is one more sum code: its audit and both routes share its plan and unit walk
    loaded = load_code(code_to_dict(codes[1], net), net)
    assert verify(loaded, net, exhaustive=True).all_passed
    bases = [codes[0].base, codes[1].base, loaded.base]
    assert codes[3].base is codes[0].base and codes[2].base is codes[1].base
    assert plans == bases
    # every walk is a code run or the one unit walk of its sum code
    assert {caller for caller, _ in walks} == {"_run_code", "_unit_walk"}
    assert [code for caller, code in walks if caller == "_unit_walk"] == bases


def test_global_vectors_returns_a_dict_the_caller_may_change(butterfly):
    code = fixtures.code("butterfly").base
    first = global_vectors(code, butterfly)
    expect = dict(first)
    first["e1"] = (9, 9, 9, 9)
    del first["e5"]
    assert global_vectors(code, butterfly) == expect
    assert global_vectors(code, butterfly) is not global_vectors(code, butterfly)


def test_global_vectors_refuses_an_object_that_is_not_a_code(butterfly):
    with pytest.raises(InvariantViolated, match="expected a sum or secure code, got str"):
        global_vectors("not a code", butterfly)


@pytest.mark.parametrize(
    "net, r, reason",
    [
        pytest.param(random_network(8), 1, "no admissible mixing column", id="mixing"),
        pytest.param(random_network(20034), 0, f"in {MULTICAST_ATTEMPTS} attempts", id="multicast"),
    ],
)
def test_a_repeated_construction_fails_with_the_same_message(monkeypatch, net, r, reason):
    # over GF(2) alone network 8's mixing search fails, and network 20034's multicast
    # search; the second call reads the memoised sum code or multicast failure
    monkeypatch.setattr(codes_module, "MAX_FIELD_SIZE", 2)
    messages = []
    for _ in range(2):
        with pytest.raises(ConstructionFailed, match=reason) as failed:
            construct(net, r, seed=1)
        messages.append(str(failed.value))
    assert messages[0] == messages[1]


def test_the_memo_is_keyed_on_the_seed_string(butterfly):
    by_int = code_to_dict(construct(butterfly, 1, seed=1), butterfly)
    assert code_to_dict(construct(butterfly, 1, seed="1"), butterfly) == by_int
    # an unhashable seed draws from its string, as it always has
    again = _reparsed(butterfly)
    listed = code_to_dict(construct(butterfly, 1, seed=[1]), butterfly)
    assert listed == code_to_dict(construct(again, 1, seed="[1]"), again)


# -- lifting -------------------------------------------------------------------------------------

def test_lift_butterfly(butterfly):
    code = fixtures.code("butterfly")
    lifted = lift_extension(code, butterfly)
    assert (lifted.ell, lifted.n) == (2, 2)
    assert lifted.base_prime == 2
    # the message rate R - r, and the security level the code was built for
    assert (lifted.rate, lifted.r) == (1, code.r) == (1, 1)


def test_lift_expands_generator_entry(butterfly):
    code = fixtures.code("butterfly")
    lifted = lift_extension(code, butterfly)
    # edge e3 applies the column (1, alpha) after mixing at source s2
    col = secure_vectors(code, butterfly)["e3"][2:]  # s2's block: B^-1 times the raw column
    assert col == (1, 2)
    block = lifted.source_matrices["s2"]["e3"]
    assert block.data == ((1, 0), (0, 1), (0, 1), (1, 1))


# constructed GF(4) codes of 256 base-field states whose B is not the identity: two
# sources at r = 1, and one source at r = 2; each case is built in its test
LIFTED_CORPUS_CASES = {"corpus61-r1": (61, 1), "corpus8-r2": (8, 2)}


@functools.cache
def _lifted_case(case_id):
    if case_id == "butterfly":
        return fixtures.code("butterfly"), fixtures.network("butterfly")
    seed, r = LIFTED_CORPUS_CASES[case_id]
    net = random_network(seed)
    return construct(net, r, seed=0), net


@pytest.mark.parametrize("case_id", ["butterfly", *LIFTED_CORPUS_CASES])
def test_lifted_code_computes_every_sum_and_leaks_nothing(case_id, monkeypatch):
    code, net = _lifted_case(case_id)
    # the same-field claim, on the lift run over GF(p) state by state
    assert code.field.m > 1 and code.field.p ** (code.rate * code.field.m * net.num_sources) <= 1024
    assert run_lifted(lift_extension(code, net), net) == (True, True)
    # a lift of the raw source columns, without B^-1, fails
    monkeypatch.setattr(codes_module, "secure_vectors", lambda code, net: global_vectors(code.base, net))
    assert run_lifted(lift_extension(code, net), net) != (True, True)


def test_lift_rejects_prime_field(butterfly):
    with pytest.raises(PrimeFieldInput):
        lift_extension(fixtures.code("butterfly_gf2"), butterfly)


# -- serialization -------------------------------------------------------------------------------

def test_code_file_round_trip(butterfly, tmp_path):
    code = construct(butterfly, 1, seed=9)
    doc = code_to_dict(code, butterfly)
    loaded = load_code(json.dumps(doc), butterfly)
    assert code_to_dict(loaded, butterfly) == doc
    assert verify(loaded, butterfly).all_passed


def test_loader_rejects_tampered_global_vectors(butterfly):
    doc = fixtures.code_dict("butterfly")
    doc = json.loads(json.dumps(doc))
    doc["global_vectors"]["e5"] = [1, 1, 1, 1]
    with pytest.raises(MalformedInput):
        load_code(doc, butterfly)


def test_loader_rejects_global_vectors_of_edges_the_network_lacks(butterfly):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    load_code(doc, butterfly)
    doc["global_vectors"]["zz"] = [1, 2]
    with pytest.raises(MalformedInput, match="unknown edge 'zz'"):
        load_code(doc, butterfly)


def test_loader_rejects_singular_mixing(butterfly):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    doc["B"] = [[1, 1], [1, 1]]
    with pytest.raises(SingularB):
        load_code(doc, butterfly)


def test_loader_rejects_wrong_decoder_shape(butterfly):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    doc["decoder_D"] = [[1, 0]]
    with pytest.raises(ShapeMismatch):
        load_code(doc, butterfly)


def test_loader_rejects_foreign_edges(butterfly):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    doc["local_coeffs"]["e99"] = {"e5": 1}
    with pytest.raises(MalformedInput):
        load_code(doc, butterfly)


def test_loader_rejects_source_mismatch(butterfly, n1):
    with pytest.raises(MalformedInput):
        load_code(fixtures.code_dict("n1"), butterfly)


@pytest.mark.parametrize("text", ["[1, 2]", b"3", '"code"'])
def test_loader_rejects_a_document_that_is_not_an_object(butterfly, text):
    with pytest.raises(MalformedInput, match="must be a JSON object"):
        load_code(text, butterfly)


@pytest.mark.parametrize("doc", [[1, 2], 3, None])
def test_loader_rejects_a_document_that_is_not_json_text(butterfly, doc):
    with pytest.raises(MalformedInput, match="invalid JSON"):
        load_code(doc, butterfly)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc["source_matrices"].update(s9={"e1": [1, 0]}), "unknown source 's9'"),
        (lambda doc: doc["source_matrices"]["s1"].update(e3=[1, 0]), "not an out-edge of 's1'"),
        (lambda doc: doc["local_coeffs"].update(e1={"e2": 1}), "'e1' leaves a source"),
        (lambda doc: doc["local_coeffs"]["e5"].update(e2="x"), "bad code document"),
        (lambda doc: doc["local_coeffs"]["e5"].update(e2=[1]), "bad code document"),
        (lambda doc: doc.update(r=1.9), "bad code document"),
        (lambda doc: doc.update(rate="2"), "bad code document"),
        (lambda doc: doc["B"][1].__setitem__(0, 2.0), "bad code document"),
        (lambda doc: doc.update(modulus=[1, 1.0, 1]), "bad code document"),
        (lambda doc: doc.update(r=True), "bad code document"),
        (lambda doc: doc.update(rate=True), "bad code document"),
        (lambda doc: doc.update(modulus=[True, True, True]), "bad code document"),
        (lambda doc: doc["B"][0].__setitem__(0, True), "bad code document"),
        (lambda doc: doc["decoder_D"][0].__setitem__(0, True), "bad code document"),
        (lambda doc: doc["source_matrices"]["s1"]["e1"].__setitem__(0, True), "bad code document"),
        (lambda doc: doc["local_coeffs"]["e5"].update(e2=True), "bad code document"),
        (lambda doc: doc["global_vectors"]["e1"].__setitem__(0, True), "bad global vectors"),
        (lambda doc: doc.update(sources="s1s2"), "sources must be a JSON array"),
        (lambda doc: doc.update(sources={"s1": 0, "s2": 0}), "sources must be a JSON array"),
        (lambda doc: doc.update(r=2), r"need 0 <= r < rate, got r=2, rate=2"),
    ],
    ids=[
        "unknown-source",
        "not-an-out-edge",
        "coefficients-on-a-source-edge",
        "text-coefficient",
        "list-coefficient",
        "float-r",
        "text-rate",
        "float-B-entry",
        "float-modulus-coefficient",
        "bool-r",
        "bool-rate",
        "bool-modulus-coefficients",
        "bool-B-entry",
        "bool-decoder-entry",
        "bool-source-entry",
        "bool-coefficient",
        "bool-global-vector-entry",
        "string-sources",
        "object-sources",
        "r-equal-to-rate",
    ],
)
def test_loader_rejects_misplaced_or_mistyped_entries(butterfly, edit, message):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    edit(doc)
    with pytest.raises(MalformedInput, match=message):
        load_code(doc, butterfly)
    # a refused document leaves nothing behind: the valid code still loads in the same process
    assert load_code(fixtures.code_dict("butterfly"), butterfly).r == 1


def test_multicast_exhausted_attempts(butterfly, monkeypatch):
    import snfc.codes as codes_mod

    monkeypatch.setattr(codes_mod, "MULTICAST_ATTEMPTS", 0)
    with pytest.raises(codes_mod.FieldTooSmallForMulticast):
        build_reversed_multicast(butterfly, 2, GF4, seed=0)


def test_construct_fails_when_no_field_is_large_enough(butterfly, monkeypatch):
    import snfc.codes as codes_mod

    monkeypatch.setattr(codes_mod, "MAX_FIELD_SIZE", 2)
    with pytest.raises(ConstructionFailed):
        construct(butterfly, 1, seed=0)


def test_construct_with_reduced_rate():
    # a network with headroom: overall rate 3, requested rate 2, one key coordinate
    net = random_network(37)
    assert c_min(net) == 3
    code = construct(net, 1, rate=2, seed=0)
    assert code.rate == 2 and code.ell == 1
    assert verify(code, net).all_passed


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_loader_never_leaks_raw_exceptions(data):
    """Randomly mutated code documents either load or raise a domain error."""
    from snfc.errors import SnfcError
    from snfc import fixtures as fx

    net = fx.network("butterfly")
    doc = json.loads(json.dumps(fx.code_dict("butterfly")))
    mutation = data.draw(st.sampled_from(["drop", "retype", "resize", "rename", "value"]))
    keys = sorted(doc)
    key = data.draw(st.sampled_from(keys))
    if mutation == "drop":
        del doc[key]
    elif mutation == "retype":
        doc[key] = data.draw(st.sampled_from([None, 3, "x", [], {}]))
    elif mutation == "resize" and isinstance(doc[key], list):
        doc[key] = doc[key][:-1]
    elif mutation == "rename":
        doc[data.draw(st.text(min_size=1, max_size=3))] = doc.pop(key)
    elif mutation == "value" and key == "rate":
        doc[key] = data.draw(st.integers(-2, 9))
    try:
        load_code(doc, net)
    except SnfcError:
        pass


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_constructed_secure_vectors_factor_through_mixing(data):
    # blockwise, the on-the-wire vectors are the inverse mixing applied to the raw ones
    net = random_network(data.draw(st.integers(0, 2000)))
    cm = c_min(net)
    r = data.draw(st.integers(0, max(cm - 1, 0)))
    code = construct(net, r, seed=2)
    raw = global_vectors(code.base, net)
    mixed = secure_vectors(code, net)
    binv = code.mixing_inverse
    rate = code.rate
    for eid in net.order:
        for i in range(net.num_sources):
            block = Matrix.column(code.field, raw[eid][i * rate : (i + 1) * rate])
            assert binv.mul(block).columns()[0] == mixed[eid][i * rate : (i + 1) * rate]


INVARIANT_SCRIPT = """
from snfc import fixtures
from snfc.codes import SumCode, global_vectors
from reference import transfer_global_vectors
from snfc.errors import InvariantViolated

net = fixtures.network("butterfly")
base = fixtures.code("butterfly").base
backwards = SumCode(base.field, base.rate, base.source_matrices, {"e5": {"e8": 1}}, base.decoder)
for call in (lambda: transfer_global_vectors(backwards, net), lambda: global_vectors("not a code", net)):
    try:
        call()
    except InvariantViolated:
        continue
    raise SystemExit("an invariant check did not raise")
"""


def test_invariant_checks_survive_python_O():
    # python -O strips assert statements; the invariant checks must not depend on them
    src = os.path.dirname(os.path.dirname(snfc.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
