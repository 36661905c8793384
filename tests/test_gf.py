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
from snfc import Matrix, companion_expand, make_field
from snfc.gf import Echelon, Field, _is_prime
from snfc.errors import (
    DegreeZero,
    DimensionMismatch,
    DivideByZero,
    FieldMismatch,
    NonPrime,
    PrimeFieldInput,
    Singular,
)

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


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(1 << 17):
        assert _is_prime(n) == trial(n), n


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),              # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),     # strong pseudoprime to bases 2 .. 23
    (318665857834031151167461, False),  # strong pseudoprime to bases 2 .. 37
    (2**61 - 1, True),
    (2**89 - 1, True),
    (2**67 - 1, False),
])
def test_is_prime_on_strong_pseudoprimes_and_mersenne_numbers(n, prime):
    assert _is_prime(n) == prime


OVERSIZE_SCRIPT = """
from snfc.errors import DimensionMismatch
from snfc.gf import make_field, parse_field

for call in (
    lambda: make_field(3, 10**9),
    lambda: parse_field("2305843009213693951"),
    lambda: parse_field("618970019642690137449562111"),
):
    try:
        call()
    except DimensionMismatch:
        continue
    raise SystemExit("an oversize field was not rejected")
"""


def test_oversize_fields_are_rejected_before_any_slow_step():
    # a subprocess, so that trial division or a huge power times out rather than hangs
    src = os.path.dirname(os.path.dirname(snfc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", OVERSIZE_SCRIPT], capture_output=True, text=True, env=env, timeout=20
    )
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


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_inverse_table_matches_slow_products(field):
    assert field._inv_table is not None
    for a in range(1, field.q):
        assert field._mul_slow(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", [GF2, make_field(3, 2), make_field(2, 8), make_field(2, 9)], ids=repr)
def test_field_pickles_and_compares_equal_with_cached_values(field):
    fresh = Field(field.p, field.m, field.modulus)
    assert field.q == field.p**field.m
    assert (field._mul_table is None) == (field._inv_table is None) == (field.q > 256)
    for other in (fresh, pickle.loads(pickle.dumps(field))):
        assert other == field and hash(other) == hash(field)
        assert other.q == field.q
        assert [other.mul(3 % other.q, x) for x in other.elements()] == field.mul_row(3 % field.q)


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


# -- matrices ----------------------------------------------------------------------

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
        Matrix.zeros(GF2, 2, 2).inverse()


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
        assert engine.contains(v) == (v in span)
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
    assert (Echelon(field, other).reduced() == engine.reduced()) == same_span


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
TUPLE_FIELDS = [make_field(3, 1), make_field(3, 2), make_field(2, 9)]


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
        assert all(isinstance(row, int) == (field in PACKED_FIELDS) for row in engine.rows.values())
        assert list(engine.rows) == list(reference.rows)
        assert engine.rank == len(reference.rows)
        assert engine.reduced() == reference.reduced()
        for v in random_vectors(rng, field, n, 12) + vectors:
            assert engine.reduce(v) == reference.reduce(v)
            assert engine.contains(v) == (not any(reference.reduce(v)))


@pytest.mark.parametrize("field", [GF4, make_field(3, 2), make_field(2, 9)], ids=repr)
def test_echelon_rejects_vectors_of_another_length(field):
    engine = Echelon(field, [(0, 1, 2)])
    for v in [(1, 1), (0, 1, 1, 0)]:
        for method in (engine.add, engine.reduce, engine.contains):
            with pytest.raises(DimensionMismatch):
                method(v)
    assert engine.rank == 1 and engine.contains((0, 1, 2)) and not engine.contains((1, 0, 0))


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


def test_solve_right_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.identity(GF2, 2).solve_right(Matrix.build(GF2, [[1], [0], [1]]))
