import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfc import Matrix, companion_expand, make_field
from snfc.gf import Echelon
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
