"""Exact arithmetic over GF(p^m) and the matrix routines every other module builds on.

Field elements are canonical integers in [0, q): the base-p digit expansion of an
integer gives the coefficients of the polynomial-basis representation, read
low-to-high degree.  All matrix arithmetic is exact; there is no floating point
anywhere in this module.

Vector arithmetic has one kernel: a vector is the field's packed column
(`Field.pack`) and a sum of scaled vectors is one `Field.combination`.  The
elimination in `Echelon` and the product in `Matrix.mul` both reduce to it.
Only `Echelon`'s row form over GF(2^m) with m <= 8 reads the packed column as
one int; the multicast search and the mixing walk in `codes` work in that form
too, through `Echelon`'s methods, whatever the field.

Every field multiplies, inverts and scales through one log/antilog build, made
on first use from the powers of a generator of the nonzero elements: at most
3q slow products, once per field per process.  a*b is exp[log a + log b]
and 1/a is exp[q - 1 - log a]; a packed column beyond 256 elements is scaled
entry by entry through the same two lists.  While q <= 256 the build also
holds the product rows, q - 1 `bytes.translate` calls over those lists, and a
packed column is scaled by one translate.  With odd p, m > 1 and q <= 256 the
field also adds through a 64 KiB table indexed by a << 8 | b, built on first
use from the elements' base-p digits with q * m translates; a packed column sum
reads it once per entry.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index

from .errors import (
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

MAX_FIELD_SIZE = 1 << 16


def _is_prime(n: int) -> bool:
    """Trial division, for n <= MAX_FIELD_SIZE: at most 256 divisors."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- polynomial helpers over Z_p (tuples of coefficients, low-to-high) --------

def _poly_mod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    # a ends in a nonzero coefficient and b is monic: each step subtracts a's lead
    # coefficient times b, shifted, and trims a
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1]
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


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
        table = self._add_table
        if table is not None:
            return table[a << 8 | b]
        return self.encode(tuple(x + y for x, y in zip(self.coeffs(a), self.coeffs(b))))

    @cached_property
    def _add_table(self) -> bytes | None:
        # odd p, m > 1 and q <= 256: entry a << 8 | b is a + b, 64 KiB.  The sum is digit-wise
        # mod p, so row a is the column of every element moved by each nonzero digit of a
        # in turn, one bytes.translate each: adding d at digit k changes that digit alone
        if self.p == 2 or self.m == 1 or self.q > 256:
            return None
        p, q = self.p, self.q
        digits = [self.coeffs(b) for b in range(q)]
        moves = [
            [bytes(b + ((x[k] + d) % p - x[k]) * p**k for b, x in enumerate(digits)) + bytes(256 - q) for d in range(p)]
            for k in range(self.m)
        ]
        rows = []
        for a in digits:
            row = bytes(range(q))
            for k, d in enumerate(a):
                if d:
                    row = row.translate(moves[k][d])
            rows.append(row + bytes(256 - q))
        return b"".join(rows) + bytes(256 * (256 - q))

    def neg(self, a: int) -> int:
        return a if self.p == 2 else self.mul(self.p - 1, a)

    @cached_property
    def _tables(self) -> tuple[list[int], list[int], tuple[bytes, ...] | None]:
        # (exp, log, rows), built once per field from the powers of one generator g of the
        # nonzero elements.  exp lists g^0 .. g^(q-2) twice, then 2q - 1 zeros; log[x] is
        # the k with g^k = x, and log[0] = 2(q - 1) points into the zeros, so a*b is
        # exp[log a + log b] for all a and b, with no reduction mod q - 1 and no test for
        # zero.  While q <= 256, rows holds the product rows: row a, padded to 256 entries,
        # is also the bytes.translate table scaling a packed column by a, and row a != 0 is
        # one translate of the log column (log b, and the sentinel q - 1 for b = 0 and the
        # padding) through exp shifted by log a, then zeros from index q - 1 on.
        n = self.q - 1
        powers = self._generator_powers()
        exp, log = powers * 2 + [0] * (2 * n + 1), [2 * n] * self.q
        for k, x in enumerate(powers):
            log[x] = k
        if self.q > 256:
            return exp, log, None
        column = bytes([n, *log[1:], *[n] * (256 - self.q)])
        shifted, zeros = bytes(exp[: 2 * n]), bytes(257 - self.q)
        return exp, log, (bytes(256),) + tuple(column.translate(shifted[k : k + n] + zeros) for k in log[1:])

    def _generator_powers(self) -> list[int]:
        # 1, g, ..., g^(q-2) for the smallest g of order q - 1: g^((q-1)/l) != 1 for every
        # prime l dividing q - 1, tested in O(log q) slow products per prime, then one walk
        # of q - 2 products.  Under a reducible modulus the walk (of g = 0 when no g
        # passes) reaches 0 or repeats before covering every nonzero element.
        n = self.q - 1
        primes = [d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)]
        g = next((g for g in range(1, self.q) if all(self._pow_slow(g, n // l) != 1 for l in primes)), 0)
        powers = [1]
        for _ in range(n - 1):
            powers.append(self._mul_slow(g, powers[-1]))
        if len(set(powers) - {0}) < n:
            raise InvariantViolated(f"no generator of the nonzero elements: {self!r} modulus {self.modulus} is reducible")
        return powers

    def _pow_slow(self, a: int, e: int) -> int:
        # a^e by slow products, square and multiply from the top bit of e
        out = a
        for bit in bin(e)[3:]:
            out = self._mul_slow(out, out)
            out = self._mul_slow(out, a) if bit == "1" else out
        return out

    def mul(self, a: int, b: int) -> int:
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

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
        row c; beyond that each entry x maps to exp[log c + log x].  Addition
        XORs whole columns when p = 2 and adds entry by entry otherwise.  With
        no nonzero term the result is n zero entries.
        """
        exp, log, rows = self._tables
        add = self._xor if self.p == 2 else self._add_entrywise
        acc = None
        for c, col in terms:
            if c:
                if c != 1:
                    if rows is not None:
                        col = col.translate(rows[c])
                    else:
                        col = array("H", map(exp.__getitem__, map(log[c].__add__, map(log.__getitem__, col))))
                acc = col if acc is None else add(acc, col)
        return self.pack((0,)) * n if acc is None else acc

    def _xor(self, a, b) -> bytes | array:
        raw = (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(memoryview(a).nbytes, "little")
        return raw if self.q <= 256 else array("H", raw)  # raw memory: two bytes per entry

    def _add_entrywise(self, a, b) -> bytes | array:
        table = self._add_table
        if table is None:
            return self.pack(map(self.add, a, b))
        # one index per entry: the bytes of a and b interleaved, read as 16-bit words, are
        # a << 8 | b or b << 8 | a by the machine's byte order, and the sum commutes
        pairs = bytearray(2 * len(a))
        pairs[::2], pairs[1::2] = a, b
        return bytes(map(table.__getitem__, memoryview(pairs).cast("H")))

    def _mul_slow(self, a: int, b: int) -> int:
        # the product by polynomial arithmetic; only the build of `_tables` multiplies this way
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            # carryless multiply, one step per bit of the smaller factor, then reduce by
            # the modulus bit pattern
            acc = 0
            x, y = max(a, b), min(a, b)
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
        # schoolbook product of the digit tuples, then x^k for k >= m folded in from the
        # top by the monic modulus; every digit is reduced mod p once, in encode
        m, p, digits = self.m, self.p, self.coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.coeffs(a)):
            if x:
                for j, y in enumerate(digits, i):
                    prod[j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for j, t in enumerate(self.modulus[:m], k - m):
                    prod[j] -= c * t
        return self.encode(prod[:m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero(f"no inverse of 0 in {self!r}")
        exp, log, _ = self._tables
        return exp[self.q - 1 - log[a]]

    def elements(self) -> range:
        return range(self.q)


def make_field(p: int, m: int, modulus: tuple[int, ...] | None = None) -> Field:
    """Build GF(p^m).

    The modulus defaults to the lexicographically smallest monic irreducible
    polynomial of degree m over GF(p), coefficients compared low-to-high, so the
    same (p, m) always yields the same field across runs.  For m = 1 the modulus
    is the polynomial x and arithmetic reduces mod p; any monic degree-1 modulus
    gives that same field.  A non-int p, m or modulus entry is MalformedInput, a
    p > MAX_FIELD_SIZE is DimensionMismatch, and any smaller non-prime p is NonPrime.
    """
    # checked before the cache is read: 1.0 == 1 would share the key of a valid call
    try:
        key = index(p), index(m), None if modulus is None else tuple(map(index, modulus))
    except TypeError:
        raise MalformedInput(f"field parameters must be ints: p={p!r}, m={m!r}, modulus={modulus!r}") from None
    return _make_field(*key)


@lru_cache(maxsize=None)
def _make_field(p: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    # p > MAX_FIELD_SIZE is oversize whatever it is or m is, so trial division stays short
    if p <= MAX_FIELD_SIZE:
        if not _is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if m < 1:
            raise DegreeZero("extension degree must be >= 1")
    # 2^m > MAX_FIELD_SIZE once m reaches its bit length: bound m before the power
    if p > MAX_FIELD_SIZE or m >= MAX_FIELD_SIZE.bit_length() or p ** m > MAX_FIELD_SIZE:
        raise DimensionMismatch(f"field size {p}^{m} exceeds supported maximum {MAX_FIELD_SIZE}")
    if modulus is not None:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1 or not _irreducible(modulus, p):
            raise DegreeZero(f"modulus {modulus} is not monic irreducible of degree {m} over GF({p})")
        return _make_field(p, 1, None) if m == 1 else Field(p, m, modulus)
    if m == 1:
        return Field(p, 1, modulus=(0, 1))
    for tail in itertools.product(range(p), repeat=m):
        candidate = tail + (1,)
        if _irreducible(candidate, p):
            return Field(p, m, candidate)
    raise InvariantViolated("an irreducible polynomial of every degree exists")


def parse_field(spec: str, modulus: list[int] | None = None) -> Field:
    """Parse the "p^m" serialization (plain "p" means m = 1)."""
    p, sep, m = spec.partition("^")
    try:
        p, m = int(p), int(m) if sep else 1
    except ValueError:
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
        """self @ other: row i is one `Field.combination` of other's packed rows, scaled by self's row i."""
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} x {other.shape}")
        f = self.field
        rows = [f.pack(row) for row in other.data]
        return Matrix(f, tuple(tuple(f.combination(zip(row, rows), other.ncols)) for row in self.data), other.ncols)

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
    the pivots one by one (forward elimination, no back-substitution).  That
    reduction is linear: the residue of a + c*b is the residue of a plus c times
    the residue of b.

    A row is in row form: over GF(2^m) with m <= 8, the packed column read as one
    int, a byte per coordinate, little-endian; over any other field, the packed
    column, each elimination or scaling step being one `Field.combination`.  With
    int rows the pivot is the lowest nonzero byte, and subtracting c times a row is
    one XOR with that row scaled by one `bytes.translate` through product row c.
    `row` and `vector` convert to and from row form; `combination`, `outside`,
    `line_point`, `insert`, `add_row` and `rank_with` work in it, so a walk need
    not unpack.  `reduced` returns plain tuples; every vector must have the length
    of the rows held.
    """

    __slots__ = ("field", "rows", "_width", "_table")

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.rows: dict[int, int | bytes | array] = {}
        self._width: int | None = None
        self._table = field._tables[2] if field.p == 2 else None  # None: rows stay packed columns
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        """The same span, to grow on its own: it shares only the field and its table."""
        span = Echelon.__new__(Echelon)  # no __init__: every slot is set from this span
        span.field, span.rows, span._width, span._table = self.field, dict(self.rows), self._width, self._table
        return span

    def row(self, v) -> int | bytes | array:
        """v in row form; v must have the length of the rows already held."""
        # bytes(v) is the packed column of a field with q <= 256, made without a method call
        col = self.field.pack(v) if self._table is None else bytes(v)
        if not self.rows:
            self._width = len(col)
        elif len(col) != self._width:
            raise DimensionMismatch(f"vector of length {len(col)} against rows of length {self._width}")
        return col if self._table is None else int.from_bytes(col, "little")

    def vector(self, x) -> tuple[int, ...]:
        """The row-form x as a tuple of elements."""
        return tuple(x if self._table is None else x.to_bytes(self._width, "little"))

    def combination(self, terms) -> int | bytes | array:
        """The sum of c * x over (c, x) terms, each x in row form of this span's width."""
        if self._table is None:
            return self.field.combination(terms, self._width)
        acc = 0
        for c, x in terms:
            if c:
                acc ^= x if c == 1 else self._scaled(x, self._table[c])
        return acc

    def _scaled(self, x: int, product_row: bytes) -> int:
        return int.from_bytes(x.to_bytes(self._width, "little").translate(product_row), "little")

    def outside(self, x):
        """The residue of row-form x, x minus its component along the rows, when x
        lies outside the span; None when it lies inside."""
        if self._table is None:
            f = self.field
            for pivot, row in self.rows.items():
                c = x[pivot]
                if c:
                    x = f.combination(((1, x), (f.neg(c), row)), len(x))
            return x if any(x) else None
        table = self._table
        for pivot, row in self.rows.items():
            c = x >> (pivot << 3) & 255
            if c == 1:
                x ^= row
            elif c:
                x ^= self._scaled(row, table[c])
        return x or None

    def line_point(self, a, b) -> int | None:
        """The c with a + c*b = 0, for row-form a != 0 and b, or None: the line
        through a along b meets zero at most once.  Then a = -c*b, so a and b have
        their first nonzero coordinate k in common, and c = -a_k / b_k."""
        f, table = self.field, self._table
        if table is None:
            k = next((i for i, x in enumerate(b) if x), None)
            if k is None or next(i for i, x in enumerate(a) if x) != k:
                return None
            c = f.mul(f.neg(a[k]), f.inv(b[k]))
            return None if any(f.combination(((1, a), (c, b)), self._width)) else c
        if not b:
            return None
        k = ((b & -b).bit_length() - 1) & ~7  # the first bit of b's lowest nonzero byte
        if ((a & -a).bit_length() - 1) & ~7 != k:
            return None
        exp, log, _ = f._tables
        c = exp[log[a >> k & 255] + f.q - 1 - log[b >> k & 255]]  # over GF(2^m), -x is x
        return None if a ^ self._scaled(b, table[c]) else c

    def contains(self, v) -> bool:
        return self.outside(self.row(v)) is None

    def add(self, v) -> bool:
        """Extend the span by v; True when the rank grew."""
        return self.add_row(self.row(v))

    def add_row(self, x) -> bool:
        """Extend the span by the row-form x; True when the rank grew."""
        x = self.outside(x)
        if x is None:
            return False
        self.insert(x)
        return True

    def insert(self, x) -> None:
        """Add x, a nonzero residue of this span, as a row scaled to a leading 1."""
        f, table = self.field, self._table
        if table is None:
            pivot = next(i for i, a in enumerate(x) if a)
            c = x[pivot]
            if c != 1:
                x = f.combination(((f.inv(c), x),), self._width)
        else:
            pivot = ((x & -x).bit_length() - 1) >> 3
            c = x >> (pivot << 3) & 255
            if c != 1:
                exp, log, _ = f._tables
                x = self._scaled(x, table[exp[f.q - 1 - log[c]]])
        self.rows[pivot] = x

    def rank_with(self, xs) -> int:
        """The rank of the span extended by the row-form xs; this span is unchanged."""
        return self.rank + sum(map(self.copy().add_row, xs))

    def reduced(self) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon form, rows in pivot order.

        It is canonical for the span: two generating sets give equal results
        exactly when they span the same space.
        """
        # back-substitution: reduce each row by the already reduced rows of larger pivot
        done = Echelon(self.field)
        done._width = self._width
        for p in sorted(self.rows, reverse=True):
            done.rows[p] = done.outside(self.rows[p])  # the rows are independent: never None
        return tuple(map(done.vector, reversed(done.rows.values())))


def companion_matrix(field: Field, x: int) -> tuple[tuple[int, ...], ...]:
    """The m x m multiplication-by-x matrix in the polynomial basis {1, a, .., a^(m-1)}.

    Column j holds the coefficients of x * a^j, so coords(x*y) = M_x @ coords(y).
    """
    m, cols = field.m, []
    for _ in range(m):
        cols.append(field.coeffs(x))
        x = field.mul(x, field.alpha)
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
