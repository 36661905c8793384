import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snfc
from snfc import Matrix, companion_expand, make_field, parse_field
from snfc.gf import MAX_FIELD_SIZE, Echelon, Field, _is_prime
from snfc.errors import (
    DegreeZero,
    DimensionMismatch,
    DivideByZero,
    FieldMismatch,
    InvariantViolated,
    MalformedInput,
    NonPrime,
    PrimeFieldInput,
    Singular,
)
import reference
from reference import contains, matmul, rank_with, reduced

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)

SAMPLE_FIELDS = [
    make_field(*pm)
    for pm in [
        (2, 1), (3, 1), (5, 1), (7, 1), (13, 1),
        (2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (11, 2),
        # beyond 256 elements with m > 1: no product or inverse table
        (2, 9), (3, 6),
    ]
]


# -- independent polynomial oracle (used to derive expected values) -------------

def poly_mul_mod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    # long division by the monic modulus
    m = len(modulus) - 1
    for top in range(len(prod) - 1, m - 1, -1):
        c = prod[top]
        if c:
            for k in range(m + 1):
                prod[top - m + k] = (prod[top - m + k] - c * modulus[k]) % p
    return tuple(prod[:m])


def brute_force_irreducible(poly, p):
    deg = len(poly) - 1
    for d in range(1, deg):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            # divisibility witness: exists q with q * divisor == poly
            for q_tail in itertools.product(range(p), repeat=deg - d):
                q = q_tail + (1,)
                prod = [0] * (deg + 1)
                for i, x in enumerate(q):
                    for j, y in enumerate(divisor):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if tuple(prod) == tuple(poly):
                    return False
    return True


# -- field construction ----------------------------------------------------------

def test_prime_field():
    assert GF2.q == 2
    assert GF2.modulus == (0, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # exhaustive scan over the 4 monic degree-2 polynomials over GF(2)
    irreducible = [
        tail + (1,)
        for tail in itertools.product(range(2), repeat=2)
        if brute_force_irreducible(tail + (1,), 2)
    ]
    assert irreducible == [(1, 1, 1)]
    assert GF4.modulus == (1, 1, 1)
    assert GF4.q == 4


def test_gf8_modulus_is_lexicographically_smallest():
    gf8 = make_field(2, 3)
    candidates = sorted(
        tail + (1,)
        for tail in itertools.product(range(2), repeat=3)
        if brute_force_irreducible(tail + (1,), 2)
    )
    assert gf8.modulus == candidates[0]


def test_non_prime_rejected():
    with pytest.raises(NonPrime):
        make_field(4, 1)


def test_degree_zero_rejected():
    with pytest.raises(DegreeZero):
        make_field(2, 0)


def test_characteristics_at_the_cap_are_tested_for_primality():
    # p = MAX_FIELD_SIZE is still trial-divided; one past it is oversize (below)
    assert make_field(65521, 1).q == 65521
    with pytest.raises(NonPrime):
        make_field(MAX_FIELD_SIZE, 1)


def test_is_prime_matches_a_sieve():
    # every characteristic make_field tests, against the sieve of Eratosthenes
    sieve = bytearray([0, 0]) + bytearray([1]) * (MAX_FIELD_SIZE - 1)
    for d in range(2, math.isqrt(MAX_FIELD_SIZE) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, MAX_FIELD_SIZE + 1, d)))
    assert [n for n in range(MAX_FIELD_SIZE + 1) if _is_prime(n)] == [n for n, bit in enumerate(sieve) if bit]


@pytest.mark.parametrize("p", [
    3215031751,                   # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,          # strong pseudoprime to bases 2 .. 23
    318665857834031151167461,     # strong pseudoprime to bases 2 .. 37
    2**61 - 1,
    2**89 - 1,
    2**67 - 1,
    65537,
    4294967297,                   # 2^32 + 1 = 641 * 6700417
])
def test_characteristic_above_the_cap_is_oversize_at_any_degree(p):
    # prime or composite, at degree 1 or 0: no primality test runs above the cap
    for m in (1, 0):
        with pytest.raises(DimensionMismatch):
            make_field(p, m)


OVERSIZE_SCRIPT = """
from snfc.errors import DimensionMismatch
from snfc.gf import make_field, parse_field

for call in (
    lambda: make_field(3, 10**9),
    lambda: parse_field("3^1000000000"),
    lambda: parse_field("2305843009213693951"),
    lambda: parse_field("618970019642690137449562111"),
    # thousands of digits: refused by size before any primality test
    lambda: parse_field(str(43**2448)),
    lambda: parse_field(str(2**4423 - 1)),
    lambda: parse_field(str(10**4000 + 1)),
):
    try:
        call()
    except DimensionMismatch:
        continue
    raise SystemExit("an oversize field was not rejected")
"""


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script in a new interpreter that imports this package, with a 20 s timeout."""
    src = os.path.dirname(os.path.dirname(snfc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=20
    )


def test_oversize_fields_are_rejected_before_any_slow_step():
    # a subprocess, so that trial division or a huge power times out rather than hangs
    proc = run_fresh(OVERSIZE_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_prime_field_accepts_any_monic_degree_one_modulus():
    # x + a gives GF(p) itself, the same field as the default modulus x
    assert make_field(3, 1, (2, 1)) is make_field(3, 1)
    assert make_field(3, 1, (0, 1)) == make_field(3, 1)
    assert make_field(5, 1, (-1, 6)).modulus == (0, 1)


@pytest.mark.parametrize("modulus", [(1, 2), (0, 0), (1,), (0, 1, 1), ()])
def test_prime_field_rejects_other_moduli(modulus):
    with pytest.raises(DegreeZero):
        make_field(3, 1, modulus)


FIELD_ORDER_SCRIPT = """
import sys
from snfc.errors import MalformedInput
from snfc.gf import make_field

def refused():
    for args in [(2, 2, (1, 1.0, 1)), (2.0, 2), (2, 2.0), (2, 2, "111")]:
        try:
            make_field(*args)
        except MalformedInput:
            continue
        raise SystemExit(f"make_field{args!r} was accepted")

def valid():
    if make_field(2, 2, (1, 1, 1)).mul(2, 3) != 1:  # x (x + 1) = 1 mod x^2 + x + 1
        raise SystemExit("GF(4) arithmetic is wrong")

for step in sys.argv[1:]:
    {"refused": refused, "valid": valid}[step]()
"""


@pytest.mark.parametrize("order", [["refused", "valid"], ["valid", "refused"]], ids="-then-".join)
def test_non_integer_field_arguments_are_refused_in_either_call_order(order):
    # a fresh process each, so that no earlier test has filled the field cache:
    # 1.0 == 1, so a float argument must be refused before the cache is read
    proc = run_fresh(FIELD_ORDER_SCRIPT, *order)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [(2, 2, (1, 1.0, 1)), (2.0, 2), (2, 2.0), (2, 2, "111")])
def test_non_integer_field_arguments_are_refused(args):
    # the same refusals in this process, where the field cache may hold (2, 2)
    with pytest.raises(MalformedInput, match="field parameters must be ints"):
        make_field(*args)


@pytest.mark.parametrize("spec", ["2^2^2", "3^1^junk", "2^2^"])
def test_field_spec_with_more_than_one_caret_is_refused(spec):
    with pytest.raises(DegreeZero, match="cannot parse field spec"):
        parse_field(spec)


def test_field_spec_string():
    assert GF4.spec_string() == "2^2"
    assert GF2.spec_string() == "2^1"


# -- element arithmetic ------------------------------------------------------------

def test_gf2_characteristic_two():
    assert GF2.add(1, 1) == 0


def test_gf4_generator_square():
    # alpha * alpha reduced by x^2 + x + 1 must equal alpha + 1
    alpha = GF4.alpha
    expected = GF4.encode(poly_mul_mod((0, 1), (0, 1), GF4.modulus, 2))
    assert expected == GF4.add(alpha, 1)
    assert GF4.mul(alpha, alpha) == expected


def test_gf4_inverse_of_generator():
    alpha = GF4.alpha
    # exhaustive search for the multiplicative inverse
    inverse = next(x for x in GF4.elements() if GF4.mul(alpha, x) == 1)
    assert inverse == GF4.add(alpha, 1)
    assert GF4.inv(alpha) == inverse


def test_inverse_of_zero_rejected():
    with pytest.raises(DivideByZero):
        GF4.inv(0)


@pytest.mark.parametrize("field", SAMPLE_FIELDS, ids=repr)
def test_field_axioms_sampled(field):
    rng = random.Random(f"axioms:{field.q}")
    elems = list(field.elements())
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1


# every field of at most 256 elements: the ones with a product and an inverse table
TABLE_FIELDS = [
    make_field(p, m)
    for p in range(2, 257)
    if all(p % d for d in range(2, p))
    for m in range(1, 9)
    if p**m <= 256
]


# irreducible moduli whose root x does not generate the nonzero elements (x^2 + 1 is
# also GF(3^2)'s default modulus)
NONPRIMITIVE_FIELDS = [
    pytest.param(make_field(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), id="GF(2^8)-x^8+x^4+x^3+x+1"),  # x has order 51
    pytest.param(make_field(2, 4, (1, 1, 1, 1, 1)), id="GF(2^4)-x^4+x^3+x^2+x+1"),  # order 5
    pytest.param(make_field(3, 2, (1, 0, 1)), id="GF(3^2)-x^2+1"),  # order 4
]
TABLE_CASES = [pytest.param(f, id=repr(f)) for f in TABLE_FIELDS] + NONPRIMITIVE_FIELDS


@pytest.mark.parametrize("field", TABLE_CASES)
def test_inverse_table_matches_slow_products(field):
    for a in range(1, field.q):
        assert field._mul_slow(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", TABLE_CASES)
def test_product_table_matches_slow_products(field):
    table = field._tables[2]
    assert len(table) == field.q and all(len(row) == 256 for row in table)
    for a, row in enumerate(table):
        assert list(row[: field.q]) == [field._mul_slow(a, b) for b in range(field.q)]
        assert not any(row[field.q :])


@pytest.mark.parametrize(
    "p, m",
    [(3, 2), (3, 5), (5, 3), (7, 2), (13, 2), (3, 1), (251, 1)],
    ids=["GF9", "GF243", "GF125", "GF49", "GF169", "GF3", "GF251"],
)
def test_addition_table_matches_digitwise_sums(p, m):
    # odd p and q <= 256: every pair's table entry, Field.add and a packed column sum equal
    # the digit-wise sum mod p; entries outside the field are 0
    field = make_field(p, m)
    table, elements = field._add_table, range(field.q)
    assert len(table) == 1 << 16
    for a in elements:
        expected = [field.encode(tuple(x + y for x, y in zip(field.coeffs(a), field.coeffs(b)))) for b in elements]
        assert list(table[a << 8 : (a << 8) + field.q]) == expected
        assert [field.add(a, b) for b in elements] == expected
        assert not any(table[(a << 8) + field.q : (a + 1) << 8])
        column = field.combination(((1, field.pack([a] * field.q)), (1, field.pack(elements))), field.q)
        assert column == bytes(expected)
    assert not any(table[field.q << 8 :])


def test_addition_table_only_for_odd_extension_fields():
    # GF(2^m) adds by XOR; beyond 256 elements no table is built, and every odd field
    # up to 256 elements, prime or not, has one
    for p, m in ((2, 4), (2, 8), (3, 6), (17, 2), (257, 1)):
        assert make_field(p, m)._add_table is None
    for p, m in ((3, 1), (251, 1), (3, 5)):
        assert len(make_field(p, m)._add_table) == 1 << 16


# fields beyond 256 elements, which multiply through the log and exp lists alone; the
# last is GF(2^9) under x^9 + x^8 + x^7 + x^5 + 1, where x has order 73
WIDE_FIELDS = [make_field(2, 9), make_field(2, 12), make_field(2, 16), make_field(3, 6), make_field(5, 4),
               make_field(251, 2), make_field(65521, 1), make_field(2, 9, (1, 0, 0, 0, 0, 1, 0, 1, 1, 1))]
WIDE_CASES = [pytest.param(f, id=f"{f!r}-{''.join(map(str, f.modulus))}") for f in WIDE_FIELDS]


@pytest.mark.parametrize("field", WIDE_CASES)
def test_log_arithmetic_matches_slow_products_and_digitwise_sums(field):
    # every element up to q = 4096, else 20,000 random ones, each with a random partner:
    # the product is the slow product, the inverse's slow product with a is 1, and a
    # plus its negative is 0 in every base-p digit
    rng = random.Random(f"log:{field!r}:{field.modulus}")
    elements = field.elements() if field.q <= 4096 else [rng.randrange(field.q) for _ in range(20_000)]
    for a in elements:
        b = rng.randrange(field.q)
        assert field.mul(a, b) == field.mul(b, a) == field._mul_slow(a, b)
        assert field.mul(a, 0) == field.mul(0, a) == 0
        assert not any((x + y) % field.p for x, y in zip(field.coeffs(a), field.coeffs(field.neg(a))))
        if a:
            assert field._mul_slow(a, field.inv(a)) == 1
    # a packed column scaled entry by entry through the same lists
    column = field.pack(elements)
    assert list(field.combination([(3, column)], len(column))) == [field._mul_slow(3, x) for x in elements]


@pytest.mark.parametrize("field", TABLE_CASES + WIDE_CASES)
def test_product_table_takes_at_most_8q_slow_products(field, monkeypatch):
    # tables are cached per instance, so a fresh Field builds its own; the one build,
    # the product rows included while q <= 256, takes at most 3q slow products
    fresh, calls = Field(field.p, field.m, field.modulus), []
    slow = Field._mul_slow
    monkeypatch.setattr(Field, "_mul_slow", lambda self, a, b: calls.append(None) or slow(self, a, b))
    assert (fresh._tables[2] is None) == (field.q > 256)
    assert len(calls) <= 3 * field.q


@pytest.mark.parametrize("modulus", [(0, 0, 1), (0, 1, 1), (1, 0, 0, 1)], ids=str)
def test_reducible_modulus_has_no_product_table(modulus):
    # make_field refuses these; a Field built directly finds no generator
    with pytest.raises(DegreeZero):
        make_field(2, len(modulus) - 1, modulus)
    with pytest.raises(InvariantViolated, match="reducible"):
        Field(2, len(modulus) - 1, modulus).mul(1, 1)


@pytest.mark.parametrize("field", [GF2, make_field(3, 2), make_field(2, 8), make_field(2, 9)], ids=repr)
def test_field_pickles_and_compares_equal_with_cached_values(field):
    fresh = Field(field.p, field.m, field.modulus)
    assert field.q == field.p**field.m
    assert (field._tables[2] is None) == (field.q > 256)
    for other in (fresh, pickle.loads(pickle.dumps(field))):
        assert other == field and hash(other) == hash(field)
        assert other.q == field.q
        c = 3 % field.q
        assert [other.mul(c, x) for x in other.elements()] == [field.mul(c, x) for x in field.elements()]


def test_mul_matches_polynomial_oracle_on_gf9():
    gf9 = make_field(3, 2)
    for a in gf9.elements():
        for b in gf9.elements():
            expected = gf9.encode(poly_mul_mod(gf9.coeffs(a), gf9.coeffs(b), gf9.modulus, 3))
            assert gf9.mul(a, b) == expected


def test_element_encoding_round_trip():
    for field in SAMPLE_FIELDS:
        for x in field.elements():
            assert field.encode(field.coeffs(x)) == x


# -- packed columns ------------------------------------------------------------------

COLUMN_FIELDS = [make_field(*pm) for pm in [(2, 1), (3, 1), (3, 2), (2, 8), (257, 1), (2, 9)]]


def entrywise_combination(field, terms, n):
    out = [0] * n
    for c, col in terms:
        for i, x in enumerate(col):
            out[i] = field.add(out[i], field.mul(c, x))
    return out


@pytest.mark.parametrize("field", COLUMN_FIELDS, ids=repr)
def test_column_combination_matches_entrywise_arithmetic(field):
    # bytes up to 256 elements, arrays beyond; columns shorter than q and at least q long
    rng = random.Random(repr(field))
    q = field.q
    coefficients = [0, 1] + sorted({c for c in (2, q - 1, rng.randrange(q)) if 1 < c < q})
    for n in sorted({1, q - 1, q, q + 3} - {0}):
        values = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
        cols = [field.pack(v) for v in values]
        assert [list(col) for col in cols] == values
        assert all(type(col) is type(field.pack([])) for col in cols)
        # no nonzero term: n zero entries, whatever the column format
        for terms in ([], [(0, v) for v in values]):
            zero = field.combination([(c, field.pack(v)) for c, v in terms], n)
            assert len(zero) == n and list(zero) == [0] * n
            assert type(zero) is type(field.pack([]))
        for c in coefficients:
            assert list(field.combination([(c, cols[0])], n)) == entrywise_combination(field, [(c, values[0])], n)
        for _ in range(8):
            cs = [rng.choice(coefficients) for _ in values]
            got = field.combination(list(zip(cs, cols)), n)
            assert type(got) is type(field.pack([]))
            assert list(got) == entrywise_combination(field, list(zip(cs, values)), n), (n, cs)
    # the column work caches nothing that would stop a field (and a code over it) pickling
    assert pickle.loads(pickle.dumps(field)) == field


# int-column walk (p = 2, q <= 256) under the default and another modulus; one
# combination per step for odd p and beyond 256 elements
PLAN_FIELDS = [
    GF2, make_field(2, 4, (1, 0, 0, 1, 1)), make_field(2, 8),
    make_field(3, 1), make_field(3, 2), make_field(2, 9), make_field(257, 1),
]


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=repr)
def test_propagate_matches_the_per_state_reference(field):
    # Field.propagate walks every state at once; reference._run_plan walks one state
    # through the same (index, coefficient) taps.  The plan opens with a step with no
    # tap, one whose taps are all 0 (both give a zero column of full length) and one
    # reading only inputs with c = 1; a code reads its coefficients through range(q),
    # the multicast search by position from its draws
    rng = random.Random(f"{field!r}{field.modulus}")
    q, n_in = field.q, 3
    plan = [(), ((0, 0), (1, 0)), ((0, 1), (2, 1))]
    for p in range(n_in + len(plan), n_in + 12):
        picks = [0, 1, q - 1, rng.randrange(q)]
        plan.append(tuple((rng.randrange(p), rng.choice(picks)) for _ in range(rng.randint(1, 4))))
    plan.append(((n_in, 1), (n_in + 1, q - 1)))  # reads the two zero steps
    taps = [tap for step in plan for tap in step]
    slots = rng.sample(range(2 * len(taps)), len(taps))
    draws = [rng.randrange(q) for _ in range(2 * len(taps))]
    for (_, c), pos in zip(taps, slots):
        draws[pos] = c
    slot = iter(slots)
    by_position = [tuple((idx, next(slot)) for idx, _ in step) for step in plan]
    for states in (1, 4096):
        values = [[rng.randrange(q) for _ in range(states)] for _ in range(n_in)]
        inputs = [field.pack(v) for v in values]
        expect = list(zip(*(reference._run_plan(field, plan, state) for state in zip(*values))))
        for got in (
            field.propagate(plan, range(q), inputs),
            field.propagate(by_position, bytes(draws) if q <= 256 else draws, inputs),
        ):
            assert all(type(col) is type(field.pack([])) for col in got)
            assert [tuple(col) for col in got] == expect
    assert expect[0] == expect[1] == expect[-1] == (0,) * 4096


# -- matrices ----------------------------------------------------------------------

def test_matrix_repr_names_its_field_and_shape():
    assert repr(Matrix.build(GF4, [[1, 0], [2, 1], [0, 3]])) == "Matrix(GF(2^2), 3x2)"


def test_rank_of_empty_matrix():
    assert Matrix.build(GF2, [], ncols=0).rank() == 0


def test_rank_of_identity():
    assert Matrix.identity(GF2, 3).rank() == 3


def test_rank_additivity_on_butterfly_wiretap_block():
    # observable column for one wiretapped edge against the two mixing blocks
    g_w = Matrix.from_columns(GF4, [(0, 1, 1, 0)], nrows=4)
    mixing_blocks = Matrix.from_columns(GF4, [(1, 2, 0, 0), (0, 0, 1, 2)], nrows=4)
    stacked = g_w.hstack(mixing_blocks)
    assert stacked.rank() == g_w.rank() + mixing_blocks.rank() == 3


def test_inverse_identity():
    eye = Matrix.identity(GF4, 3)
    assert eye.inverse().data == eye.data


def test_inverse_of_butterfly_mixing_matrix_is_itself():
    b = Matrix.build(GF4, [[1, 0], [2, 1]])
    assert b.inverse().data == b.data


def test_singular_matrix_rejected():
    with pytest.raises(Singular):
        Matrix.build(GF2, [[0, 0]] * 2).inverse()


@pytest.mark.parametrize("field", [GF2, GF4, make_field(3, 1), make_field(5, 1)], ids=repr)
def test_random_invertible_round_trip(field):
    rng = random.Random(f"inv:{field.q}")
    eye_cache = {}
    produced = 0
    while produced < 1000:
        n = rng.randint(1, 4)
        m = Matrix.build(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
        if m.rank() < n:
            continue
        produced += 1
        eye = eye_cache.setdefault(n, Matrix.identity(field, n))
        assert m.inverse().mul(m).data == eye.data


def test_solve_right_identity_lhs():
    y = Matrix.build(GF4, [[1, 2], [3, 0], [2, 2]])
    assert Matrix.identity(GF4, 3).solve_right(y).data == y.data


def test_solve_right_butterfly_decoder():
    # the two sink columns already deliver both coordinate sums
    g_rho = Matrix.from_columns(GF4, [(1, 0, 1, 0), (0, 1, 0, 1)], nrows=4)
    stacked_identity = Matrix.build(GF4, [[1, 0], [0, 1], [1, 0], [0, 1]])
    solution = g_rho.solve_right(stacked_identity)
    assert solution.data == Matrix.identity(GF4, 2).data
    assert g_rho.mul(solution).data == stacked_identity.data


def test_solve_right_inconsistent_returns_none():
    a = Matrix.build(GF2, [[1, 0], [1, 0]])
    y = Matrix.build(GF2, [[1], [0]])
    assert a.solve_right(y) is None


def test_solve_right_zeroes_free_variables():
    a = Matrix.build(GF2, [[1, 1]])
    x = a.solve_right(Matrix.build(GF2, [[1]]))
    assert x.data == ((1,), (0,))


def test_field_mismatch_detected():
    with pytest.raises(FieldMismatch):
        Matrix.identity(GF2, 2).mul(Matrix.identity(GF4, 2))


def test_dimension_mismatch_detected():
    with pytest.raises(DimensionMismatch):
        Matrix.identity(GF2, 2).mul(Matrix.identity(GF2, 3))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Matrix.build(GF2, [[1, 0], [1]]), "ragged rows"),
        (lambda: Matrix.build(GF2, []), "ncols required"),
        (lambda: Matrix.from_columns(GF2, []), "nrows required"),
        (lambda: Matrix.from_columns(GF2, [(1, 0), (1,)]), "columns of unequal length"),
        (lambda: Matrix.from_columns(GF2, [(1, 0)], nrows=3), "columns of length 2 for 3 rows"),
        (lambda: Matrix.identity(GF2, 2).hstack(Matrix.identity(GF2, 3)), "hstack"),
        (lambda: Matrix.build(GF2, [[1, 0]]).inverse(), "inverse of a non-square matrix"),
    ],
    ids=["ragged", "build-no-rows", "from-columns-none", "from-columns-unequal", "from-columns-nrows", "hstack", "inverse"],
)
def test_shape_errors_are_dimension_mismatches(make, message):
    with pytest.raises(DimensionMismatch, match=message):
        make()


@pytest.mark.parametrize("field", [GF2, GF4, make_field(3, 1), make_field(2, 9)], ids=repr)
def test_builders_keep_the_shape_of_empty_matrices(field):
    # a matrix with no rows still has its columns, and one with no columns its rows
    assert Matrix.from_columns(field, [], nrows=3).shape == (3, 0)
    assert Matrix.from_columns(field, [], nrows=3).data == ((), (), ())
    assert Matrix.from_columns(field, [(), ()]).shape == (0, 2)
    no_rows, no_cols = Matrix(field, (), 4), Matrix(field, ((),) * 4, 0)
    assert no_rows.columns() == [()] * 4
    assert no_cols.columns() == []
    assert no_rows.transpose().shape == (4, 0) and no_rows.transpose().data == ((),) * 4
    assert no_cols.transpose().shape == (0, 4) and no_cols.transpose().data == ()
    assert Matrix(field, (), 0).transpose().shape == (0, 0)
    assert Matrix.identity(field, 0).shape == (0, 0) and Matrix.identity(field, 0).data == ()
    assert Matrix.identity(field, 1).data == ((1,),)
    assert Matrix.identity(field, 3).data == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "field",
    [GF2, GF4, make_field(3, 1), make_field(3, 2), make_field(257, 1), make_field(2, 9)],
    ids=repr,
)
def test_mul_matches_the_entrywise_reference(field):
    rng = random.Random(f"mul:{field!r}")

    def draw(rows, cols, density):
        return Matrix.build(
            field, [[rng.randrange(field.q) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
            ncols=cols,
        )

    # 0 x k, k x 0 and k x 0 times 0 x m among the shapes (rows of a, cols of a, cols of b)
    for m, k, n in [(0, 3, 2), (3, 2, 0), (3, 0, 2), (0, 0, 0), (1, 1, 1), (8, 3, 3), (5, 7, 6)]:
        for density in (0.0, 0.3, 1.0):
            a, b = draw(m, k, density), draw(k, n, density)
            product = a.mul(b)
            assert product.shape == (m, n)
            assert product.data == matmul(a, b).data


# -- subspace intersection -----------------------------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rank_subadditivity_iff_trivial_intersection(data):
    field = data.draw(st.sampled_from([GF2, GF4, make_field(3, 1)]))
    rows = data.draw(st.integers(2, 4))
    cols_u = data.draw(st.integers(1, 3))
    cols_v = data.draw(st.integers(1, 3))
    draw_mat = lambda c: Matrix.build(
        field,
        [[data.draw(st.integers(0, field.q - 1)) for _ in range(c)] for _ in range(rows)],
    )
    u, v = draw_mat(cols_u), draw_mat(cols_v)
    joint = u.hstack(v).rank()
    assert joint <= u.rank() + v.rank()
    common = enumerated_span(field, u.columns(), rows) & enumerated_span(field, v.columns(), rows)
    assert (joint == u.rank() + v.rank()) == (common == {(0,) * rows})


# -- the echelon engine against brute-force enumeration ---------------------------------

ENGINE_FIELDS = [GF2, make_field(3, 1), GF4, make_field(5, 1)]


def enumerated_span(field, rows, n):
    """Every linear combination of the rows, by enumerating all coefficient tuples."""
    out = set()
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [field.add(a, field.mul(c, b)) for a, b in zip(v, row)]
        out.add(tuple(v))
    return out


def draw_rows(data, field, count, n):
    return [tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(n)) for _ in range(count)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_matches_enumerated_span(data):
    field = data.draw(st.sampled_from(ENGINE_FIELDS))
    n = data.draw(st.integers(1, 3))
    rows = draw_rows(data, field, data.draw(st.integers(0, 4)), n)
    span = enumerated_span(field, rows, n)
    engine = Echelon(field, rows)
    assert len(span) == field.q ** engine.rank
    assert Matrix.build(field, rows, ncols=n).rank() == engine.rank
    for v in itertools.product(field.elements(), repeat=n):
        assert contains(engine, v) == (v in span)
    # a second generating set: combinations of the first (often the same span) or fresh rows
    if data.draw(st.booleans()):
        combos = draw_rows(data, field, data.draw(st.integers(0, 4)), len(rows))
        other = [
            tuple(
                functools.reduce(field.add, (field.mul(c, row[i]) for c, row in zip(combo, rows)), 0)
                for i in range(n)
            )
            for combo in combos
        ]
    else:
        other = draw_rows(data, field, data.draw(st.integers(0, 4)), n)
    same_span = enumerated_span(field, other, n) == span
    assert (reduced(Echelon(field, other)) == reduced(engine)) == same_span


class TupleEchelon:
    """Tuple-row elimination entry by entry, the reference for both row forms of Echelon."""

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def reduce(self, v):
        f = self.field
        v = list(v)
        for pivot, row in self.rows.items():
            c = v[pivot]
            if c:
                c = f.neg(c)
                for i in range(pivot, len(v)):
                    if row[i]:
                        v[i] = f.add(v[i], f.mul(c, row[i]))
        return v

    def add(self, v):
        v = self.reduce(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = self.field.inv(v[pivot])
        self.rows[pivot] = tuple(self.field.mul(inv, x) for x in v)
        return True

    def reduced(self):
        done = TupleEchelon(self.field)
        for p in sorted(self.rows, reverse=True):
            done.rows[p] = tuple(done.reduce(self.rows[p]))
        return tuple(reversed(done.rows.values()))


PACKED_FIELDS = [GF2, GF4, make_field(2, 4), make_field(2, 8)]
# GF(257): odd p, array("H") rows and entry-by-entry addition in one field
TUPLE_FIELDS = [make_field(3, 1), make_field(3, 2), make_field(2, 9), make_field(257, 1)]


def random_vectors(rng, field, n, count):
    """Dense, sparse and zero vectors, repeats, and combinations of earlier vectors."""
    out = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0 or not out:
            v = [rng.randrange(field.q) for _ in range(n)]
        elif kind == 1:
            v = [rng.randrange(field.q) if rng.random() < 0.2 else 0 for _ in range(n)]
        elif kind == 2:
            v = [0] * n
        elif kind == 3:
            v = list(rng.choice(out))
        else:
            v = [0] * n
            for row in rng.sample(out, min(len(out), 3)):
                c = rng.randrange(field.q)
                v = [field.add(a, field.mul(c, b)) for a, b in zip(v, row)]
        out.append(tuple(v))
    return out


@pytest.mark.parametrize("n", [1, 7, 9, 40])
@pytest.mark.parametrize("field", PACKED_FIELDS + TUPLE_FIELDS, ids=repr)
def test_echelon_matches_tuple_row_reference(field, n):
    rng = random.Random(f"{field!r}:{n}")
    for _ in range(6):
        vectors = random_vectors(rng, field, n, rng.randrange(1, n + 4))
        engine, reference = Echelon(field), TupleEchelon(field)
        for v in vectors:
            assert engine.add(v) == reference.add(v)
        row_type = int if field in PACKED_FIELDS else type(field.pack(()))
        assert all(type(row) is row_type for row in engine.rows.values())
        assert list(engine.rows) == list(reference.rows)
        assert engine.rank == len(reference.rows)
        assert reduced(engine) == reference.reduced()
        assert tuple(map(engine.vector, reversed(engine.back_substituted().values()))) == reference.reduced()
        for v in random_vectors(rng, field, n, 12) + vectors:
            assert contains(engine, v) == (not any(reference.reduce(v)))


@pytest.mark.parametrize("n", [1, 7, 9])
@pytest.mark.parametrize("field", PACKED_FIELDS + TUPLE_FIELDS, ids=repr)
def test_reaches_gives_the_verdict_of_the_full_rank(field, n):
    # the rank test that stops early agrees with the full rank at every threshold, from 0
    # (reached before any row) to beyond the dimension, and leaves the span as it was
    rng = random.Random(f"reaches:{field!r}:{n}")
    for _ in range(8):
        held, vectors = random_vectors(rng, field, n, rng.randrange(0, 3)), random_vectors(rng, field, n, rng.randrange(0, 12))
        span = Echelon(field, held)
        span.row((0,) * n)  # fixes the width of an empty span
        rows, before = [span.row(v) for v in vectors], dict(span.rows)
        rank = rank_with(span, rows)
        assert [span.reaches(rows, r) for r in range(n + 2)] == [rank >= r for r in range(n + 2)]
        assert span.rows == before


@pytest.mark.parametrize("n", [1, 7, 9])
@pytest.mark.parametrize("field", PACKED_FIELDS + TUPLE_FIELDS, ids=repr)
def test_row_form_combination_and_rank_match_packed_columns(field, n):
    # what a walk does in row form: combine, rank-test, and unpack only at the end
    rng = random.Random(f"row-form:{field!r}:{n}")
    for _ in range(6):
        held, vectors = random_vectors(rng, field, n, rng.randrange(0, 3)), random_vectors(rng, field, n, 6)
        span = Echelon(field, held)
        span.row((0,) * n)  # fixes the width of an empty span
        rows = [span.row(v) for v in vectors]
        assert [span.vector(x) for x in rows] == vectors
        coeffs = [rng.choice([0, 1, rng.randrange(field.q)]) for _ in vectors]
        expect = field.combination(zip(coeffs, map(field.pack, vectors)), n)
        assert span.vector(span.combination(zip(coeffs, rows))) == tuple(expect)
        assert span.vector(span.combination([])) == (0,) * n
        before = dict(span.rows)
        assert rank_with(span, rows) == Echelon(field, held + vectors).rank
        assert span.rows == before and rank_with(span, []) == span.rank
        # a residue is the reference's, or None inside the span; copies grown apart get the
        # rows of fresh spans and leave their source as it was
        reference, grown, other = TupleEchelon(field), span.copy(), span.copy()
        for v in held:
            reference.add(v)
        for v, x, y in zip(vectors, rows, reversed(rows)):
            residue, expect = span.outside(x), tuple(reference.reduce(v))
            assert (None if not any(expect) else expect) == (residue if residue is None else span.vector(residue))
            grown.add_row(x)
            other.add_row(y)
        assert span.rows == before and grown.rows == Echelon(field, held + vectors).rows
        assert other.rows == Echelon(field, held + vectors[::-1]).rows
        # the line through a along b meets zero at the one c with a + c*b = 0, if any: for
        # b = c0*a at c = -1/c0
        c0 = rng.randrange(1, field.q)
        for x, y in [*zip(rows, rows[1:]), (rows[0], span.combination([(c0, rows[0])]))]:
            if any(span.vector(x)):
                c = span.line_point(x, y)
                if c is not None:
                    assert c and not any(span.vector(span.combination([(1, x), (c, y)])))
                elif field.q <= 256:
                    assert all(any(span.vector(span.combination([(1, x), (c, y)]))) for c in range(1, field.q))
        if any(vectors[0]):
            assert span.line_point(rows[0], span.combination([(c0, rows[0])])) == field.neg(field.inv(c0))


@pytest.mark.parametrize("field", [GF4, make_field(3, 2), make_field(2, 9), make_field(257, 1)], ids=repr)
def test_echelon_rejects_vectors_of_another_length(field):
    engine = Echelon(field, [(0, 1, 2)])
    for v in [(1, 1), (0, 1, 1, 0)]:
        for method in (engine.add, engine.row):
            with pytest.raises(DimensionMismatch):
                method(v)
    assert engine.rank == 1 and contains(engine, (0, 1, 2)) and not contains(engine, (1, 0, 0))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_inverse_and_solve_right_satisfy_the_system(data):
    field = data.draw(st.sampled_from(ENGINE_FIELDS))
    n = data.draw(st.integers(1, 3))
    square = Matrix.build(field, draw_rows(data, field, n, n), ncols=n)
    if square.rank() == n:
        assert square.mul(square.inverse()).data == Matrix.identity(field, n).data
    else:
        with pytest.raises(Singular):
            square.inverse()
    m, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    a = Matrix.build(field, draw_rows(data, field, m, n), ncols=n)
    rhs = Matrix.build(field, draw_rows(data, field, m, k), ncols=k)
    x = a.solve_right(rhs)
    column_span = enumerated_span(field, a.columns(), m)
    if x is None:
        assert not all(c in column_span for c in rhs.columns())
    else:
        assert a.mul(x).data == rhs.data


# -- companion expansion ---------------------------------------------------------------

def test_companion_zero_and_one():
    m = Matrix.build(GF4, [[0, 1]])
    expanded = companion_expand(m)
    assert expanded.data == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_companion_generator_block():
    # multiply the generator against the basis {1, alpha} and reduce
    expanded = companion_expand(Matrix.build(GF4, [[GF4.alpha]]))
    expected_cols = [GF4.coeffs(GF4.mul(GF4.alpha, basis)) for basis in (1, GF4.alpha)]
    assert expanded.data == ((expected_cols[0][0], expected_cols[1][0]),
                             (expected_cols[0][1], expected_cols[1][1]))
    assert expanded.data == ((0, 1), (1, 1))


def test_companion_rejects_prime_field():
    with pytest.raises(PrimeFieldInput):
        companion_expand(Matrix.identity(GF2, 2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_companion_is_a_ring_homomorphism(data):
    field = data.draw(st.sampled_from([GF4, make_field(2, 3), make_field(3, 2)]))
    n = data.draw(st.integers(1, 3))
    draw_mat = lambda: Matrix.build(
        field, [[data.draw(st.integers(0, field.q - 1)) for _ in range(n)] for _ in range(n)]
    )
    a, b = draw_mat(), draw_mat()
    assert companion_expand(a.mul(b)).data == companion_expand(a).mul(companion_expand(b)).data
    assert companion_expand(entrywise_sum(a, b)).data == entrywise_sum(
        companion_expand(a), companion_expand(b)
    ).data


def entrywise_sum(a, b):
    f = a.field
    rows = tuple(tuple(f.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.data, b.data))
    return Matrix(f, rows, a.ncols)


SOLVE_FIELDS = [
    GF2, make_field(2, 4), make_field(2, 8), make_field(3, 1), make_field(3, 2), make_field(2, 9),
    make_field(2, 4, (1, 0, 0, 1, 1)),  # x^4 + x^3 + 1, not the default x^4 + x + 1
]


@pytest.mark.parametrize("field", SOLVE_FIELDS, ids=lambda f: f"{f!r}{''.join(map(str, f.modulus))}")
def test_solves_match_the_tuple_reference_entry_for_entry(field):
    rng = random.Random(f"solve:{field!r}:{field.modulus}")

    def draw(rows, cols):
        return Matrix.build(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)], ncols=cols)

    def of_rank(rows, cols, rank):
        # a product through a rank-wide middle: rank at most `rank`, and often exactly
        return matmul(draw(rows, rank), draw(rank, cols))

    seen = set()
    # square, wide, tall and empty systems; k = 0 is a right-hand side with no columns
    for m, n, k in [(3, 3, 2), (2, 5, 3), (5, 2, 1), (4, 4, 0), (0, 3, 2), (3, 0, 2), (1, 1, 1), (6, 6, 6)]:
        for _ in range(12):
            a = of_rank(m, n, rng.randint(0, min(m, n)))
            for rhs in (matmul(a, draw(n, k)), draw(m, k)):
                got, want = a.solve_right(rhs), reference.solve_right(a, rhs)
                if want is None:
                    assert got is None
                    seen.add("inconsistent")
                else:
                    assert got.shape == want.shape == (n, k) and got.data == want.data
                    assert matmul(a, got).data == rhs.data
                    seen.add("free variables" if a.rank() < n else "unique")
    for n in range(7):
        for _ in range(8):
            a = of_rank(n, n, rng.choice([n, n, max(n - 1, 0)]))
            want = reference.inverse(a)
            if want is None:
                with pytest.raises(Singular):
                    a.inverse()
                seen.add("singular")
            else:
                assert a.inverse().shape == (n, n) and a.inverse().data == want.data
    assert seen == {"inconsistent", "free variables", "unique", "singular"}


def test_solve_right_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.identity(GF2, 2).solve_right(Matrix.build(GF2, [[1], [0], [1]]))
