import json
import os
import random
import subprocess
import sys

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
    primary_wiretap_sets,
    secure_code,
    secure_vectors,
    sum_code_from_multicast,
    verify,
)
import snfc
from snfc import fixtures
from snfc.codes import MulticastCode, sink_matrix
from snfc.corpus import random_network
from snfc.errors import (
    ConstructionFailed,
    FieldTooSmall,
    MalformedInput,
    PrimeFieldInput,
    RateExceedsMinCut,
    RateInfeasible,
    ReversalInconsistent,
    ShapeMismatch,
    SingularB,
)
from snfc.gf import Field
from reference import simulate, transfer_global_vectors
from test_verify import _column_cases, random_code

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)


def stacked_identity(field, rate, copies):
    eye = Matrix.identity(field, rate)
    out = eye
    for _ in range(copies - 1):
        out = out.vstack(eye)
    return out


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


# -- reversal into a sum code ----------------------------------------------------------

def test_reversal_produces_stacked_identity(butterfly):
    mc = build_reversed_multicast(butterfly, 2, GF4, seed=11)
    code = sum_code_from_multicast(mc, butterfly)
    vectors = global_vectors(code, butterfly)
    g_rho = sink_matrix(vectors, butterfly, GF4, 4)
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
    base = fixtures.butterfly_sum_code()
    family = primary_wiretap_sets(butterfly, 0, exact_size=True)
    b = choose_mixing_matrix(base, 0, family, butterfly)
    assert b.rank() == 2


def test_mixing_matrix_matches_shipped_butterfly_choice(butterfly):
    base = fixtures.butterfly_sum_code()
    family = primary_wiretap_sets(butterfly, 1, exact_size=True)
    b = choose_mixing_matrix(base, 1, family, butterfly)
    assert b.data == ((1, 0), (2, 1))


def test_mixing_matrix_impossible_over_gf2(butterfly):
    base = fixtures.butterfly_sum_code_gf2()
    family = primary_wiretap_sets(butterfly, 1, exact_size=True)
    with pytest.raises(FieldTooSmall):
        choose_mixing_matrix(base, 1, family, butterfly)


def test_secure_code_identity_mixing_keeps_vectors(butterfly):
    base = fixtures.butterfly_sum_code()
    code = secure_code(base, Matrix.identity(GF4, 2), 1)
    assert secure_vectors(code, butterfly) == global_vectors(base, butterfly)


def test_secure_code_rejects_singular_mixing(butterfly):
    base = fixtures.butterfly_sum_code()
    with pytest.raises(SingularB):
        secure_code(base, Matrix.zeros(GF4, 2, 2), 1)


def test_secure_code_rejects_bad_shape(butterfly):
    base = fixtures.butterfly_sum_code()
    with pytest.raises(ShapeMismatch):
        secure_code(base, Matrix.identity(GF4, 3), 1)


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


def test_mixing_block_identity(monkeypatch):
    # per-source blocks of the secure vectors are the inverse mixing applied to the raw
    # ones, and the raw ones equal the closed-form transfer route; beyond GF(256) there
    # is no product table, and a column shorter than q is scaled product by product
    # rather than through a q-entry product row
    mul_row = Field.mul_row

    def small_field_row(field, c):
        if field.q > 256:
            pytest.fail(f"a product row over {field!r} for columns shorter than q")
        return mul_row(field, c)

    monkeypatch.setattr(Field, "mul_row", small_field_row)
    gf65536 = make_field(2, 16)
    fig2 = fixtures.network("fig2")
    cases = [param.values for param in _column_cases()]
    cases.append((random_code(gf65536, fig2, 1, 0, random.Random(f"{gf65536!r}:fig2")), fig2))
    for code, net in cases:
        g = global_vectors(code.base, net)
        assert g == transfer_global_vectors(code.base, net)
        h = secure_vectors(code, net)
        rate = code.rate
        for eid in net.order:
            for i in range(net.num_sources):
                block = Matrix.column(code.field, g[eid][i * rate : (i + 1) * rate])
                assert code.mixing_inverse.mul(block).col(0) == h[eid][i * rate : (i + 1) * rate]


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


# -- lifting -------------------------------------------------------------------------------------

def test_lift_butterfly(butterfly):
    code = fixtures.code("butterfly")
    lifted = lift_extension(code, butterfly)
    assert (lifted.ell, lifted.n) == (2, 2)
    assert lifted.base_prime == 2
    assert lifted.rate == 1


def test_lift_expands_generator_entry(butterfly):
    code = fixtures.code("butterfly")
    lifted = lift_extension(code, butterfly)
    # edge e3 applies the column (1, alpha) after mixing at source s2
    col = code.effective_source_column("s2", "e3")
    assert col == (1, 2)
    block = lifted.source_matrices["s2"]["e3"]
    assert block.data == ((1, 0), (0, 1), (0, 1), (1, 1))


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
            assert binv.mul(block).col(0) == mixed[eid][i * rate : (i + 1) * rate]


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
