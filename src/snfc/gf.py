"""Exact arithmetic over GF(p^m) and the matrix routines every other module builds on.

Field elements are canonical integers in [0, q): the base-p digit expansion of an
integer gives the coefficients of the polynomial-basis representation, read
low-to-high degree.  All matrix arithmetic is exact; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

import itertools
from array import array
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


# Miller-Rabin with these bases is exact below 3.3 * 10^24 (Sorenson and Webster,
# 2015); above that a strong probable prime passes, and is rejected as oversize
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over `_MR_BASES`: a composite verdict is always exact."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    @cached_property
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

    @cached_property
    def _mul_table(self) -> tuple[bytes, ...] | None:
        # small fields get a dense table; multiplication dominates simulation loops.
        # Row a, padded to 256 entries, is also the bytes.translate table scaling a
        # packed column by a.
        if self.q > 256:
            return None
        pad = bytes(256 - self.q)
        return tuple(bytes(self._mul_slow(a, b) for b in range(self.q)) + pad for a in range(self.q))

    @cached_property
    def _inv_table(self) -> bytes | None:
        # entry a is the inverse of a (entry 0 is unused), read off product row a
        table = self._mul_table
        if table is None:
            return None
        return bytes([0]) + bytes(row.index(1) for row in table[1:])

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[a][b]
        return self._mul_slow(a, b)

    def mul_row(self, a: int) -> list[int]:
        """The products a*x for every element x, indexed by x."""
        return [self.mul(a, x) for x in range(self.q)]

    # -- packed columns ----------------------------------------------------
    #
    # A column of field elements (a vector of symbols, one per state or per
    # coordinate) is stored packed: `bytes` while q <= 256, `array("H")` beyond.

    def pack(self, values) -> bytes | array:
        """The packed column holding `values`, an iterable of elements."""
        return bytes(values) if self.q <= 256 else array("H", values)

    def combination(self, terms, n: int) -> bytes | array:
        """The packed column sum of c * col over (c, col) terms, each of length n.

        While q <= 256 a column is scaled by `bytes.translate` through product
        row c; beyond that `_scale_wide` scales it.  Addition XORs whole columns
        when p = 2 and adds entry by entry otherwise.  With no nonzero term the
        result is n zero entries.
        """
        table, rows = self._mul_table, {}
        add = self._xor if self.p == 2 else self._add_entrywise
        acc = None
        for c, col in terms:
            if c:
                if c != 1:
                    col = col.translate(table[c]) if table is not None else self._scale_wide(c, col, rows)
                acc = col if acc is None else add(acc, col)
        return self.pack((0,)) * n if acc is None else acc

    def _scale_wide(self, c: int, col: array, rows: dict) -> array:
        # beyond 256 elements a column shorter than q is scaled entry by entry, since a
        # product row costs q products; a longer one maps through mul_row(c), kept in
        # `rows` for the rest of one combination
        if len(col) < self.q:
            return array("H", map(self._mul_slow, itertools.repeat(c), col))
        row = rows.get(c)
        if row is None:
            row = rows[c] = self.mul_row(c)
        return array("H", map(row.__getitem__, col))

    def _xor(self, a, b) -> bytes | array:
        raw = (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(memoryview(a).nbytes, "little")
        return raw if self.q <= 256 else array("H", raw)  # raw memory: two bytes per entry

    def _add_entrywise(self, a, b) -> bytes | array:
        return self.pack(map(self.add, a, b))

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
        table = self._inv_table
        if table is not None:
            return table[a]
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

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
    # 2^m > MAX_FIELD_SIZE once m reaches its bit length: bound m before the power
    if m >= MAX_FIELD_SIZE.bit_length() or p ** m > MAX_FIELD_SIZE:
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
        out = []
        for row in self.data:
            # row times other as a sum of other's rows, skipping zeros on both sides
            acc = [0] * other.ncols
            for a, other_row in zip(row, other.data):
                if a:
                    for j, b in enumerate(other_row):
                        if b:
                            acc[j] = f.add(acc[j], f.mul(a, b))
            out.append(tuple(acc))
        return Matrix(f, tuple(out), other.ncols)

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
        inverse = self.solve_right(Matrix.identity(self.field, self.nrows))
        if inverse is None:
            raise Singular("matrix is singular")
        return inverse

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

    Over GF(2^m) with m <= 8 a row is one int holding a byte per coordinate,
    little-endian (the field's packed column read by `int.from_bytes`): the
    pivot is the lowest nonzero byte, and subtracting c times a row is one XOR
    with that row's c-multiple, made by `bytes.translate` through product row c
    and kept per (pivot, c).  Every other field keeps tuple rows and works entry
    by entry.  Either way `reduce` and `reduced` return plain element lists and
    tuples, and every vector must have the length of the rows already held.
    """

    __slots__ = ("field", "rows", "_width", "_table", "_multiples")

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.rows: dict[int, int | tuple[int, ...]] = {}
        self._width: int | None = None
        self._table = field._mul_table if field.p == 2 else None  # None: tuple rows
        self._multiples: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, v) -> tuple[int | list[int], int]:
        """v minus its component along the rows, in row form (an int or a list), and its length."""
        v = list(v) if self._table is None else bytes(v)
        n = len(v)
        if self.rows and n != self._width:
            raise DimensionMismatch(f"vector of length {n} against rows of length {self._width}")
        if self._table is not None:
            return self._reduce_packed(int.from_bytes(v, "little")), n
        f = self.field
        for pivot, row in self.rows.items():
            c = v[pivot]
            if c:
                c = f.neg(c)
                for i in range(pivot, n):
                    if row[i]:
                        v[i] = f.add(v[i], f.mul(c, row[i]))
        return v, n

    def _reduce_packed(self, x: int) -> int:
        table, multiples = self._table, self._multiples
        for pivot, row in self.rows.items():
            c = x >> (pivot << 3) & 255
            if c == 1:
                x ^= row
            elif c:
                key = pivot << 8 | c
                multiple = multiples.get(key)
                if multiple is None:
                    multiple = multiples[key] = self._scaled(row, table[c])
                x ^= multiple
        return x

    def _scaled(self, x: int, product_row: bytes) -> int:
        return int.from_bytes(x.to_bytes(self._width, "little").translate(product_row), "little")

    def reduce(self, v) -> list[int]:
        """v minus its component along the rows; zero exactly when v is in the span."""
        x, n = self._eliminate(v)
        return x if self._table is None else list(x.to_bytes(n, "little"))

    def contains(self, v) -> bool:
        x = self._eliminate(v)[0]
        return not (x if self._table is not None else any(x))

    def add(self, v) -> bool:
        """Extend the span by v; True when the rank grew."""
        x, n = self._eliminate(v)
        f = self.field
        if self._table is not None:
            if not x:
                return False
            pivot = ((x & -x).bit_length() - 1) >> 3
            self._width = n
            c = x >> (pivot << 3) & 255
            self.rows[pivot] = x if c == 1 else self._scaled(x, self._table[f.inv(c)])
            return True
        pivot = next((i for i, a in enumerate(x) if a), None)
        if pivot is None:
            return False
        self._width = n
        inv = f.inv(x[pivot])
        self.rows[pivot] = tuple(f.mul(inv, a) for a in x)
        return True

    def reduced(self) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon form, rows in pivot order.

        It is canonical for the span: two generating sets give equal results
        exactly when they span the same space.
        """
        # back-substitution: reduce each row by the already reduced rows of larger pivot
        done = Echelon(self.field)
        done._width = self._width
        packed = self._table is not None
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            done.rows[p] = done._reduce_packed(row) if packed else tuple(done._eliminate(row)[0])
        rows = reversed(done.rows.values())
        return tuple(tuple(x.to_bytes(self._width, "little")) for x in rows) if packed else tuple(rows)


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
