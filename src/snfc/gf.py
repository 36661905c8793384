"""Exact arithmetic over GF(p^m) and the matrix routines every other module builds on.

Field elements are canonical integers in [0, q): the base-p digit expansion of an
integer gives the coefficients of the polynomial-basis representation, read
low-to-high degree.  All matrix arithmetic is exact; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    DegreeZero,
    DimensionMismatch,
    DivideByZero,
    FieldMismatch,
    NonPrime,
    PrimeFieldInput,
    Singular,
)

MAX_FIELD_SIZE = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomial helpers over Z_p (tuples of coefficients, low-to-high) --------

def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _irreducible(poly: tuple[int, ...], p: int) -> bool:
    # trial division by every monic polynomial of degree 1 .. deg/2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


@dataclass(frozen=True)
class Field:
    """GF(p^m) with a fixed monic irreducible modulus (coefficients low-to-high)."""

    p: int
    m: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def alpha(self) -> int:
        """The polynomial-basis generator x (only meaningful for m > 1)."""
        return self.p

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m})"

    def spec_string(self) -> str:
        return f"{self.p}^{self.m}"

    # -- element codecs --------------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, coeffs: tuple[int, ...]) -> int:
        x = 0
        for c in reversed(coeffs):
            x = x * self.p + c % self.p
        return x

    # -- arithmetic on int-encoded elements --------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self.encode(tuple(x + y for x, y in zip(self.coeffs(a), self.coeffs(b))))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self.encode(tuple(-c for c in self.coeffs(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    @cached_property
    def _mul_table(self) -> list[list[int]] | None:
        # small fields get a dense table; multiplication dominates simulation loops
        if self.q > 256:
            return None
        return [[self._mul_slow(a, b) for b in range(self.q)] for a in range(self.q)]

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[a][b]
        return self._mul_slow(a, b)

    def mul_row(self, a: int) -> list[int]:
        """The products a*x for every element x, indexed by x."""
        table = self._mul_table
        if table is not None:
            return table[a]
        return [self._mul_slow(a, x) for x in range(self.q)]

    def _mul_slow(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            # carryless multiply, then reduce by the modulus bit pattern
            acc = 0
            x, y = a, b
            while y:
                if y & 1:
                    acc ^= x
                x <<= 1
                y >>= 1
            mod_int = self.encode(self.modulus[:-1]) | (1 << self.m)
            for bit in range(acc.bit_length() - 1, self.m - 1, -1):
                if acc >> bit & 1:
                    acc ^= mod_int << (bit - self.m)
            return acc
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.encode(_poly_mod(prod, self.modulus, self.p) + (0,) * self.m)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero(f"no inverse of 0 in {self!r}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        out, acc, e = 1, a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return out

    def pow(self, a: int, e: int) -> int:
        out = 1
        acc = a
        while e:
            if e & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)


@lru_cache(maxsize=None)
def make_field(p: int, m: int, modulus: tuple[int, ...] | None = None) -> Field:
    """Build GF(p^m).

    The modulus defaults to the lexicographically smallest monic irreducible
    polynomial of degree m over GF(p), coefficients compared low-to-high, so the
    same (p, m) always yields the same field across runs.  For m = 1 the modulus
    is the polynomial x and arithmetic reduces mod p; any monic degree-1 modulus
    gives that same field.
    """
    if not _is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if m < 1:
        raise DegreeZero("extension degree must be >= 1")
    if p ** m > MAX_FIELD_SIZE:
        raise DimensionMismatch(f"field size {p}^{m} exceeds supported maximum {MAX_FIELD_SIZE}")
    if modulus is not None:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1 or not _irreducible(modulus, p):
            raise DegreeZero(f"modulus {modulus} is not monic irreducible of degree {m} over GF({p})")
        return make_field(p, 1) if m == 1 else Field(p, m, modulus)
    if m == 1:
        return Field(p, 1, modulus=(0, 1))
    for tail in itertools.product(range(p), repeat=m):
        candidate = tail + (1,)
        if _irreducible(candidate, p):
            return Field(p, m, candidate)
    raise AssertionError("an irreducible polynomial of every degree exists")


def parse_field(spec: str, modulus: list[int] | None = None) -> Field:
    """Parse the "p^m" serialization (plain "p" means m = 1)."""
    parts = spec.split("^")
    try:
        p = int(parts[0])
        m = int(parts[1]) if len(parts) > 1 else 1
    except (ValueError, IndexError):
        raise DegreeZero(f"cannot parse field spec {spec!r}") from None
    return make_field(p, m, tuple(modulus) if modulus is not None else None)


# -- matrices ------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over one Field; entries are int-encoded elements."""

    field: Field
    data: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self) -> None:
        for row in self.data:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(field: Field, rows, ncols: int | None = None) -> "Matrix":
        data = tuple(tuple(int(x) % field.q for x in row) for row in rows)
        if ncols is None:
            if not data:
                raise DimensionMismatch("ncols required for matrices with no rows")
            ncols = len(data[0])
        return Matrix(field, data, ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, tuple((0,) * ncols for _ in range(nrows)), ncols)

    @staticmethod
    def column(field: Field, entries) -> "Matrix":
        return Matrix(field, tuple((int(x),) for x in entries), 1)

    @staticmethod
    def from_columns(field: Field, columns, nrows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if not cols:
            if nrows is None:
                raise DimensionMismatch("nrows required for matrices with no columns")
            return Matrix(field, tuple(() for _ in range(nrows)), 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("columns of unequal length")
        return Matrix(field, tuple(tuple(c[i] for c in cols) for i in range(n)), len(cols))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    # -- algebra -----------------------------------------------------------

    def _check_same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} x {other.shape}")
        f = self.field
        cols = other.ncols
        out = []
        for row in self.data:
            new_row = []
            for j in range(cols):
                acc = 0
                for k, a in enumerate(row):
                    if a:
                        acc = f.add(acc, f.mul(a, other.data[k][j]))
                new_row.append(acc)
            out.append(tuple(new_row))
        return Matrix(f, tuple(out), cols)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(self.col(j) for j in range(self.ncols)), self.nrows)

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.nrows != other.nrows:
            raise DimensionMismatch(f"hstack {self.shape} | {other.shape}")
        return Matrix(
            self.field,
            tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)),
            self.ncols + other.ncols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.ncols:
            raise DimensionMismatch(f"vstack {self.shape} / {other.shape}")
        return Matrix(self.field, self.data + other.data, self.ncols)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return Echelon(self.field, self.data).rank

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        span = Echelon(self.field, self.hstack(Matrix.identity(self.field, n)).data)
        # [A | I] always has rank n; its pivots are 0..n-1 exactly when A is invertible
        if any(p >= n for p in span.rows):
            raise Singular("matrix is singular")
        return Matrix(self.field, tuple(row[n:] for row in span.reduced()), n)

    def solve_right(self, rhs: "Matrix") -> "Matrix | None":
        """Deterministic X with self @ X = rhs, or None when inconsistent.

        Free variables are fixed to zero after full reduction, so the same
        system always yields the same solution.
        """
        self._check_same_field(rhs)
        if self.nrows != rhs.nrows:
            raise DimensionMismatch(f"solve {self.shape} with rhs {rhs.shape}")
        n = self.ncols
        span = Echelon(self.field, self.hstack(rhs).data)
        if any(p >= n for p in span.rows):
            return None
        out = [(0,) * rhs.ncols] * n
        for p, row in zip(sorted(span.rows), span.reduced()):
            out[p] = row[n:]
        return Matrix(self.field, tuple(out), rhs.ncols)


class Echelon:
    """The span of some vectors over one field, kept in row-echelon form.

    Every elimination in the package runs through this class.  Each row is
    scaled to a leading 1 and keyed by that pivot column; a row added later is
    zero in every earlier pivot column, so reducing in insertion order clears
    the pivots one by one (forward elimination, no back-substitution).
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.rows: dict[int, tuple[int, ...]] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> list[int]:
        """v minus its component along the rows; zero exactly when v is in the span."""
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

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def add(self, v) -> bool:
        """Extend the span by v; True when the rank grew."""
        v = self.reduce(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        f = self.field
        inv = f.inv(v[pivot])
        self.rows[pivot] = tuple(f.mul(inv, x) for x in v)
        return True

    def reduced(self) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon form, rows in pivot order.

        It is canonical for the span: two generating sets give equal results
        exactly when they span the same space.
        """
        # back-substitution: reduce each row by the already reduced rows of larger pivot
        done = Echelon(self.field)
        for p in sorted(self.rows, reverse=True):
            done.rows[p] = tuple(done.reduce(self.rows[p]))
        return tuple(reversed(done.rows.values()))


def companion_matrix(field: Field, x: int) -> tuple[tuple[int, ...], ...]:
    """The m x m multiplication-by-x matrix in the polynomial basis {1, a, .., a^(m-1)}.

    Column j holds the coefficients of x * a^j, so coords(x*y) = M_x @ coords(y).
    """
    m = field.m
    cols = [field.coeffs(field.mul(x, field.pow(field.alpha, j))) for j in range(m)]
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def companion_expand(mat: Matrix) -> Matrix:
    """Rewrite a matrix over GF(p^L) as an L-times larger matrix over GF(p).

    Each entry is replaced by its multiplication matrix; the map is a ring
    homomorphism, so products and sums expand consistently.
    """
    f = mat.field
    if f.m == 1:
        raise PrimeFieldInput("already a prime-field matrix")
    base = make_field(f.p, 1)
    L = f.m
    out_rows = []
    for row in mat.data:
        blocks = [companion_matrix(f, x) for x in row]
        for i in range(L):
            out_rows.append(tuple(itertools.chain.from_iterable(b[i] for b in blocks)))
    return Matrix(base, tuple(out_rows), mat.ncols * L)
