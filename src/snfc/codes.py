"""Linear sum-computing network codes and their key-mixing secure variants.

The pipeline: draw a random rate-R multicast code on the edge-reversed network,
transpose its kernels into a code that delivers the coordinate-wise sum of all
source vectors to the sink, then pre-multiply every source by the inverse of a
mixing matrix B whose leading columns stay clear of everything any allowed
wiretap set can observe.  Each source then spends R - r coordinates on messages
and r on uniform one-time keys.

The codes follow the seed alone: each multicast search draws every kernel
entry with `randrange(q)` from its own `random.Random`, seeded with (seed,
field, rate), and the mixing columns are the lexicographically first
admissible vectors.  Only the mixing matrix depends on r, so `construct` builds
the sum code once per (network, rate, field, seed), in the network's memo, and
every security level shares it.

A code runs in three steps: `_walk` runs a sum code's local rules on input
columns, `_run_code` applies a secure code's B^-1 to raw input columns and
walks them, and `_computable` is the computability rule at the sink, applied
only where its verdict is read: `verify`'s checks and `sum_code_from_multicast`,
which checks the bare sum code against its D.

A sum code's propagation plan is built once per (network, sum code) in the
network's memo, and every walk of the code reads it.  Its walk on the unit
inputs, the global vectors, is memoised the same way (`_unit_walk`): the
computability check of `sum_code_from_multicast` runs it, and `global_vectors`,
`choose_mixing_matrix`, `code_to_dict` and the loader's audit read it, each
`global_vectors` call through a dict of its own.  A sum code is not changed
after it is built, so sharing changes no result.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .bounds import primary_wiretap_sets
from .cuts import c_min
from .errors import (
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
    Singular,
    SingularB,
)
from .gf import MAX_FIELD_SIZE, Echelon, Field, Matrix, companion_expand, make_field, parse_field
from .network import Network, _json_object, per_network

MULTICAST_ATTEMPTS = 64


# -- code types -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SumCode:
    """A rate-R code delivering the per-coordinate sum of all source vectors."""

    field: Field
    rate: int
    source_matrices: dict[str, dict[str, tuple[int, ...]]]  # source -> out-edge -> column
    local_coeffs: dict[str, dict[str, int]]  # edge -> in-edge of its tail -> coefficient
    decoder: Matrix  # |in(sink)| x R

    def source_column(self, source: str, edge_id: str) -> tuple[int, ...]:
        return self.source_matrices.get(source, {}).get(edge_id, (0,) * self.rate)


@dataclass(frozen=True, eq=False)
class SecureCode:
    """A sum code wrapped with the mixing matrix B and a message/key split."""

    base: SumCode
    r: int
    mixing: Matrix  # B, rate x rate, invertible

    @property
    def field(self) -> Field:
        return self.base.field

    @property
    def rate(self) -> int:
        return self.base.rate

    @property
    def ell(self) -> int:
        return self.base.rate - self.r

    @cached_property
    def mixing_inverse(self) -> Matrix:
        return self.mixing.inverse()


def message_decoder(code: SecureCode) -> Matrix:
    """|in(sink)| x ell matrix taking received symbols straight to the message sums:
    the first ell columns of D B."""
    return code.base.decoder.mul(Matrix(code.field, tuple(row[: code.ell] for row in code.mixing.data), code.ell))


def as_secure(code: SumCode | SecureCode, r: int | None = None) -> SecureCode:
    """View any code as a secure code; a bare sum code gets B = I and r = 0."""
    if isinstance(code, SecureCode):
        return code if r is None or r == code.r else secure_code(code.base, code.mixing, r)
    return secure_code(code, Matrix.identity(code.field, code.rate), 0 if r is None else r)


# -- propagation ---------------------------------------------------------------------
#
# Every walk over the local rules runs one plan over columns.  A plan holds, per
# edge in walk order, the (index, coefficient) taps whose sum gives that edge's
# column; indices below the number of input columns name inputs, the rest name
# the edges before it.  The inputs decide what a column means: unit columns give
# global vectors, one column per input coordinate over all states gives every
# state's symbols at once.  Each step is one call of the walk's combining function:
# `Field.combination` over the field's packed columns (`Field.pack`) for a code, and
# `Echelon.combination` over `Echelon`'s row form for the multicast search.

def _propagate(combine, plan: list, inputs: list) -> list:
    """Run `plan` over the equal-length `inputs` and return its columns, in plan
    order: each step's column is `combine` of its terms."""
    cols = list(inputs)
    for taps in plan:
        cols.append(combine([(c, cols[idx]) for idx, c in taps]))
    return cols[len(inputs) :]


@per_network
def _propagation_plan(net: Network, code: SumCode) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The sum code's local rules in `net.order`, over the raw source columns.

    Input i * rate + k is coordinate k of source i; edge p of the order is
    index s * rate + p.  The mixing matrix is not in the plan: see `_run_code`.
    Built once per (network, sum code) in the network's memo; every walk of the
    code reads it.
    """
    rate = code.rate
    n_in = rate * net.num_sources
    src_index = {name: i for i, name in enumerate(net.sources)}
    pos = net.order_index
    plan = []
    for eid in net.order:
        tail = net.edge_by_id[eid].tail
        if tail in src_index:
            first = src_index[tail] * rate
            taps = [(first + k, c) for k, c in enumerate(code.source_column(tail, eid)) if c]
        else:
            coeffs = code.local_coeffs.get(eid, {})
            taps = [(n_in + pos[d.id], coeffs[d.id]) for d in net.in_edges[tail] if coeffs.get(d.id)]
        plan.append(tuple(taps))
    return tuple(plan)


def _unit_columns(field: Field, n: int) -> list:
    return [field.pack(int(t == k) for t in range(n)) for k in range(n)]


@per_network
def _unit_walk(net: Network, code: SumCode) -> dict:
    """`_walk` of the sum code on its s * rate unit columns: every edge's packed
    global vector, keyed in `net.order`.  Walked once per (network, sum code) in
    the network's memo, shared by the computability check of
    `sum_code_from_multicast` and every `global_vectors` call; callers only read it."""
    return _walk(code, net, _unit_columns(code.field, code.rate * net.num_sources))


# -- global encoding vectors ---------------------------------------------------------

def global_vectors(code: SumCode | SecureCode, net: Network) -> dict[str, tuple[int, ...]]:
    """Per-edge stacked column vectors mapping all source inputs to edge symbols.

    Read off the walk of the s * rate unit columns through the local rules of
    the sum code (of a secure code's base: the raw source columns, without B),
    shared in the network's memo (`_unit_walk`); each call returns a new dict.
    """
    base = code.base if isinstance(code, SecureCode) else code
    if not isinstance(base, SumCode):
        raise InvariantViolated(f"expected a sum or secure code, got {type(base).__name__}")
    return {eid: tuple(col) for eid, col in _unit_walk(net, base).items()}


def secure_vectors(code: SecureCode, net: Network) -> dict[str, tuple[int, ...]]:
    """The global vectors of what actually flows: the code run on the unit inputs."""
    units = _unit_columns(code.field, code.rate * net.num_sources)
    return {eid: tuple(col) for eid, col in _run_code(code, net, units).items()}


def _walk(code: SumCode, net: Network, inputs: list) -> dict:
    """Walk the sum code's local rules on input columns of one length, rate per
    source in source order, and return every edge's column, keyed in `net.order`."""
    field, n = code.field, len(inputs[0])
    cols = _propagate(lambda terms: field.combination(terms, n), _propagation_plan(net, code), inputs)
    return dict(zip(net.order, cols))


def _run_code(code: SecureCode, net: Network, inputs: list) -> dict:
    """`_walk` of the secure code's sum code on raw input columns with B^-1 applied
    once per source: every edge's column, keyed in `net.order`.

    The secure code sends <x, B^-1 c> on a source edge with raw column c, which
    is <(B^-1)^T x, c>: transforming the inputs replaces a matrix product per
    source edge.
    """
    field, n, rate = code.field, len(inputs[0]), code.rate
    binv = code.mixing_inverse.columns()
    mixed = [
        field.combination(zip(col, inputs[first : first + rate]), n)
        for first in range(0, len(inputs), rate)
        for col in binv
    ]
    return _walk(code.base, net, mixed)


def _computable(decoder: Matrix, net: Network, inputs: list, cols: dict) -> bool:
    """The computability rule on the raw input columns a code ran on, rate per source
    in source order: decoder column j applied to the sink's columns in `cols`
    gives the sum over the sources of input j."""
    field, n, rate = decoder.field, len(inputs[0]), len(inputs) // net.num_sources
    received = [cols[e.id] for e in net.in_edges[net.sink]]
    return all(
        field.combination(zip(dec_col, received), n)
        == field.combination(((1, inputs[first + j]) for first in range(0, len(inputs), rate)), n)
        for j, dec_col in enumerate(decoder.columns())
    )


# -- multicast on the reversed network ---------------------------------------------

@dataclass(frozen=True, eq=False)
class MulticastCode:
    """A decodable rate-R single-source code on the reversed network.

    Kernel rows/columns and decode-matrix columns are indexed by the original
    network's edge order throughout.
    """

    field: Field
    rate: int
    kernels: dict[str, Matrix]
    global_kernels: dict[str, tuple[int, ...]]
    decode_matrices: dict[str, Matrix]
    right_inverses: dict[str, Matrix]


def build_reversed_multicast(net: Network, rate: int, field: Field, seed: int) -> MulticastCode:
    """Draw random local kernels on the reversed network until every original
    source, acting as a multicast sink, can decode all R symbols."""
    if rate > c_min(net):
        raise RateExceedsMinCut(f"rate {rate} exceeds the smallest source min-cut {c_min(net)}")
    if rate < 1:
        raise RateInfeasible("multicast rate must be positive")
    draws = map(random.Random(f"{seed}|{field.p}^{field.m}|{rate}").randrange, itertools.repeat(field.q))
    # walk the reversed network: reversed edge order, inputs the sink's rate unit columns
    walk = tuple(reversed(net.order))
    step = {eid: rate + p for p, eid in enumerate(walk)}
    # per kernel node, in draw order: its rows (reversed in-edges) and columns (its in-edges),
    # each column a slice of an attempt's draws; per edge, the steps feeding it and its
    # column.  Original sources are multicast sinks and get no kernel.
    kernel_cols, shape, total = {}, {}, 0
    for v in net.nodes:
        if v not in net.sources:
            feeds = range(rate) if v == net.sink else [step[d.id] for d in net.out_edges[v]]
            n_in, n_out = len(feeds), len(net.in_edges[v])
            kernel_cols[v] = [slice(total + j, total + n_in * n_out, n_out) for j in range(n_out)]
            shape.update((e.id, (feeds, cut)) for e, cut in zip(net.in_edges[v], kernel_cols[v]))
            total += n_in * n_out
    outs = {s: [step[e.id] - rate for e in net.out_edges[s]] for s in net.sources}
    # the walk and the rank tests run in Echelon's row form; only the accepted attempt is unpacked
    form, eye = Echelon(field), Matrix.identity(field, rate)
    units = [form.row(unit) for unit in eye.data]
    for _ in range(MULTICAST_ATTEMPTS):
        # every draw of an attempt comes before any check, so the codes follow the seed alone
        drawn = tuple(itertools.islice(draws, total))
        cols = _propagate(form.combination, [zip(feeds, drawn[c]) for feeds, c in map(shape.get, walk)], units)
        # a source decodes exactly when its rate x |out(s)| decode matrix has full row rank
        if all(form.rank_with([cols[p] for p in ps]) == rate for ps in outs.values()):
            break
    else:
        raise FieldTooSmallForMulticast(
            f"no decodable rate-{rate} multicast code found over {field!r} in {MULTICAST_ATTEMPTS} attempts"
        )
    kernels = {v: Matrix.from_columns(field, [drawn[cut] for cut in cuts]) for v, cuts in kernel_cols.items()}
    decode = {s: Matrix.from_columns(field, [form.vector(cols[p]) for p in ps], rate) for s, ps in outs.items()}
    right = {s: d.solve_right(eye) for s, d in decode.items()}
    return MulticastCode(field, rate, kernels, dict(zip(walk, map(form.vector, cols))), decode, right)


def sum_code_from_multicast(mc: MulticastCode, net: Network) -> SumCode:
    """Transpose the reversed multicast kernels into a sum-computing code.

    Per-source matrices come from the transposed right inverses, intermediate
    coefficients from the transposed kernels, and the decoder from the
    transposed kernel of the original sink; before returning, the computability
    rule checks that D decodes the stacked identity.
    """
    field = mc.field
    rate = mc.rate
    source_matrices: dict[str, dict[str, tuple[int, ...]]] = {}
    for s in net.sources:
        k = mc.right_inverses[s]  # |out(s)| x R, rows indexed by out-edges
        source_matrices[s] = {e.id: k.row(i) for i, e in enumerate(net.out_edges[s])}
    local_coeffs: dict[str, dict[str, int]] = {}
    for v in net.nodes:
        if v not in net.sources and v != net.sink:
            # kernel rows: out-edges of v, columns: in-edges of v
            for e_out, row in zip(net.out_edges[v], mc.kernels[v].data):
                entry = {e_in.id: coeff for e_in, coeff in zip(net.in_edges[v], row) if coeff}
                if entry:
                    local_coeffs[e_out.id] = entry
    decoder = mc.kernels[net.sink].transpose()  # |in(sink)| x R
    code = SumCode(field, rate, source_matrices, local_coeffs, decoder)
    # the unit walk is the one `global_vectors` reads later: it runs once per code
    units = _unit_columns(field, rate * net.num_sources)
    if not _computable(decoder, net, units, _unit_walk(net, code)):
        raise ReversalInconsistent("reversed code does not decode the stacked identity")
    return code


@per_network
def _sum_code(net: Network, rate: int, field: Field, seed: str) -> SumCode | FieldTooSmallForMulticast:
    """The sum code `construct` shares across security levels, or the multicast
    search's failure.  `seed` is the string the draws are seeded with."""
    try:
        mc = build_reversed_multicast(net, rate, field, seed)
    except FieldTooSmallForMulticast as exc:
        return exc.with_traceback(None)  # a kept traceback would hold the search's frames
    return sum_code_from_multicast(mc, net)


# -- mixing matrix -----------------------------------------------------------------

SCAN_CAP = 1024


@lru_cache(maxsize=16)  # one entry per (p, n) in use; q^R <= SCAN_CAP bounds the size of each
def _digit_moves(p: int, n: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per base-p digit k of the indices below p^n and per d in [0, p), the move
    that adds d to digit k of every index, as (low, high, up, down): the bits in
    `low`, whose digit k is below p - d, rise by up = d * p^k, and the bits in
    `high` wrap down by down = (p - d) * p^k."""
    full = (1 << p**n) - 1
    moves = []
    for k in range(n):
        block = p**k
        starts = full // ((1 << (p * block)) - 1)  # a bit at each multiple of p^(k+1)
        lows = [starts * ((1 << ((p - d) * block)) - 1) for d in range(p)]
        moves.append(tuple((low, full ^ low, d * block, (p - d) * block) for d, low in enumerate(lows)))
    return tuple(moves)


class _Candidates:
    """The q^dim candidate columns of the mixing scan as the bits of one int.

    Bit i is the i-th vector of `itertools.product(field.elements(), repeat=dim)`,
    that is the vector read as a base-q number, so the lowest clear bit of a mask
    is the lexicographically first vector outside it.  A field element is its
    base-p digits (`gf`), so i read in base p lists every coordinate's digits, and
    a vector sum adds indices digit by digit mod p: a set's translate by a vector
    moves its bits with two masks and two shifts per nonzero digit of the vector.
    """

    def __init__(self, field: Field, dim: int):
        self.field, self.dim = field, dim
        self.size = field.q**dim
        self._moves = _digit_moves(field.p, field.m * dim)
        self._lines: dict[tuple[int, ...], list] = {}  # a wiretap set's columns recur in many obstacles

    def first_outside(self, mask: int) -> tuple[int, ...] | None:
        """The lexicographically first vector whose bit is clear, or None."""
        i = ((mask + 1) & ~mask).bit_length() - 1
        if i >= self.size:
            return None
        q = self.field.q
        return tuple(i // q**k % q for k in reversed(range(self.dim)))

    def _line(self, v: tuple[int, ...]) -> list[list[tuple[int, int, int, int]]]:
        """The digit moves of v times x^j for j < m, a GF(p)-basis of v's line."""
        field, p, q = self.field, self.field.p, self.field.q
        line = []
        for j in range(field.m):
            w = 0
            for x in v:
                w = w * q + (field.mul(p**j, x) if j else x)
            moves, k = [], 0
            while w:
                w, d = divmod(w, p)
                if d:
                    moves.append(self._moves[k][d])
                k += 1
            line.append(moves)
        return line

    def close(self, mask: int, v) -> int:
        """`mask` plus the line of v: the union of its translates by every multiple of v."""
        v = tuple(v)
        line = self._lines.get(v)
        if line is None:
            line = self._lines[v] = self._line(v)
        for moves in line:
            grown = mask
            for _ in range(self.field.p - 1):  # mask plus 0, 1, ..., p - 1 times the basis vector
                for low, high, up, down in moves:
                    grown = ((grown & low) << up) | ((grown & high) >> down)
                grown |= mask
            mask = grown
        return mask

    def span(self, vectors) -> int:
        """The mask of the span of `vectors`."""
        return reduce(self.close, vectors, 1)


def _scan_picks(field: Field, rate: int, r: int, obstacles: list[tuple]):
    """The scan's mixing columns, position by position; None where none is left.

    `blocked` holds the union of the obstacle spans plus the chosen columns, and
    `spanned` the chosen span.  A span plus a chosen column is the span closed
    under that column's line, and closing a union closes each of its sets, so
    one closure of the union per pick stands for one per span.
    """
    cands = _Candidates(field, rate)
    blocked = reduce(operator.or_, map(cands.span, obstacles), 1)  # the zero vector is never admissible
    spanned = 1
    for j in range(rate):
        pick = cands.first_outside(blocked if j < rate - r else spanned)
        yield pick
        if j + 1 < rate:
            spanned = cands.close(spanned, pick)
            if j + 1 < rate - r:
                blocked = cands.close(blocked, pick)


def _first_outside(span: Echelon, units: list) -> tuple:
    """The first unit vector outside `span` and its residue there, in row form.  A
    unit vector whose 1 is in no pivot column meets no row, so it is its own residue."""
    for i, unit in enumerate(units):
        if i not in span.rows:
            return unit, unit
        residue = span.outside(unit)
        if residue is not None:
            return unit, residue
    raise InvariantViolated("a proper subspace misses some standard basis vector")


def _avoiding(field: Field, spans: list[Echelon], units: list) -> tuple | None:
    """A vector outside every span, in row form, with its residue in each span; or
    None.  The walk starts at the first unit vector outside the first span and,
    at each later span that holds it (a hit), moves along a line out of that span;
    a full span holds every vector and fails the walk.

    Every span keeps its residue of the vector.  At a hit on span S, w is the
    first unit vector outside S, and v + c*w lies outside S for every c != 0.  A
    passed span P misses v, so the line meets P at most once: at the c with
    a + c*b = 0, where a and b are P's residues of v and w (`Echelon.line_point`).
    The smallest c in 1, 2, ..., q - 1 that no passed span blocks is the move, and
    each residue a becomes a + c*b.  With no c left the walk fails.
    """
    dim = len(units)
    if spans[0].rank >= dim:
        return None
    v, residue = _first_outside(spans[0], units)
    residues = [residue]
    for i in range(1, len(spans)):
        span = spans[i]
        residue = span.outside(v)
        if residue is None:
            if span.rank >= dim:  # a full span holds every vector: no move leaves it
                return None
            w, along = _first_outside(span, units)
            moves = [p.outside(w) for p in itertools.islice(spans, i)]
            blocked = {span.line_point(a, b) for a, b in zip(residues, moves) if b is not None}
            c = next((c for c in range(1, field.q) if c not in blocked), None)
            if c is None:
                return None
            v = span.combination(((1, v), (c, w)))
            residues = [a if b is None else span.combination(((1, a), (c, b))) for a, b in zip(residues, moves)]
            residue = span.combination(((c, along),))
        residues.append(residue)
    return v, residues


def _walk_picks(field: Field, rate: int, r: int, obstacles: list[tuple]):
    """The walk's mixing columns, position by position; None where the walk fails.

    At each position the walk reads its spans in order: one per obstacle, made of
    the obstacle's columns and the columns chosen so far, while the position is
    below rate - r; after that, or with no obstacle, the chosen span alone.  A
    plain walk would build each obstacle's `Echelon` from its columns, reduce
    every vector it tries against every span afresh, try the multiples c = 1, 2,
    ... of each move in turn against every passed span, and add each pick to each
    obstacle span by reducing it again.  This walk asks the same questions in the
    same order and gets the same answers with less work:

    - shared prefixes: each distinct column goes to row form once, and obstacles
      whose column tuples share a prefix share the span of that prefix, built once
      by extending a copy of the span of the prefix one shorter.  A span and its
      rows depend on its columns alone, so every obstacle gets the rows it would
      get alone; a family in lexicographic order shares most prefixes;
    - kept residues: every span keeps its residue of the current vector.  The
      reduction is linear, so a move v + c*w turns residue a into a + c*b, where b
      is the residue of w, and at the end of a position every kept residue is the
      pick's: the pick joins each obstacle span as that residue scaled to a
      leading 1, the row a second reduction would add;
    - one blocked-c pass per hit: where a span holds the vector, one reduction of
      w per passed span gives the one c, if any, that each passed span blocks, so
      the smallest free c is the first multiple the plain walk would accept
      (`_avoiding`).
    """
    form = Echelon(field)
    units = [form.row(tuple(int(i == k) for i in range(rate))) for k in range(rate)]
    rows: dict[tuple, tuple] = {}  # column -> (its number, its row form), each made once
    grown: dict[tuple, Echelon] = {}  # (span, column number) -> the span extended by the column
    spans = []
    for cols in obstacles:
        span = form
        for col in map(tuple, cols):
            number, x = rows.get(col) or rows.setdefault(col, (len(rows), form.row(col)))
            child = grown.get((span, number))  # a number hashes faster than the column it names
            if child is None:
                child = grown[span, number] = span.copy()
                child.add_row(x)
            span = child
        # a span is copied into its extensions as they are built, before any pick joins
        # it, so an obstacle can keep the span of its whole column tuple as its own
        spans.append(span)
    chosen = form.copy()
    for j in range(rate):
        found = _avoiding(field, spans if j < rate - r and spans else [chosen], units)
        if found is None:
            yield None
            return
        pick, residues = found
        yield form.vector(pick)
        chosen.add_row(pick)
        if j + 1 < rate - r:  # the obstacle spans are read only at the positions before rate - r
            for span, residue in zip(spans, residues):
                span.insert(residue)


def choose_mixing_matrix(
    code: SumCode, r: int, family: list[tuple[str, ...]], net: Network
) -> Matrix:
    """Pick the R columns of B greedily.

    The first R - r columns must avoid, for every wiretap set in the family and
    every source, the span of that source's observable columns plus the columns
    already chosen; the rest only need to keep B invertible, so they avoid the
    span of the chosen columns.  Up to q^R = `SCAN_CAP` candidates, each pick is
    the lexicographically first admissible vector, read off one int whose bit i
    stands for the vector read as a base-q number (`_Candidates`).  The first
    vector outside a set of vectors depends on that set alone, not on the spans
    whose union it is, so the scan builds the union once, closes it under each
    pick and takes its lowest clear bit (`_scan_picks`).  Beyond the cap a
    subspace-avoidance walk over `Echelon` spans picks (`_walk_picks`): it starts
    at the first unit vector outside the first span and moves along a line out of
    each later span that holds its vector.  It reduces each vector once per span,
    keeps every span's residue as the vector moves, and finds the multiples of a
    move that passed spans block in one pass; obstacles share the spans of their
    common column prefixes.
    """
    field = code.field
    rate = code.rate
    if not 0 <= r <= rate:
        raise ShapeMismatch(f"security level {r} out of range for rate {rate}")
    vectors = global_vectors(code, net)
    blocks = []  # per source, each edge's block of its global vector, sliced once per search; None where zero
    for i in range(0, rate * net.num_sources, rate):
        sliced = {eid: vector[i : i + rate] for eid, vector in vectors.items()}
        blocks.append({eid: block if any(block) else None for eid, block in sliced.items()})
    # one obstacle per distinct column tuple; a repeated span cannot change the pick: the
    # scan's answer depends only on the union of the spans, the walk keeps its vector
    # outside every span it has passed, and every span receives the same chosen columns
    obstacles: dict[tuple, None] = {}
    for wset in family:
        for seen in blocks:
            cols = tuple(filter(None, map(seen.__getitem__, wset)))
            if cols:
                obstacles[cols] = None
    picks = _scan_picks if field.q**rate <= SCAN_CAP else _walk_picks
    chosen = []
    for j, pick in enumerate(picks(field, rate, r, list(obstacles))):
        if pick is None:
            raise FieldTooSmall(f"no admissible mixing column over {field!r} at position {j + 1}")
        chosen.append(pick)
    return Matrix.from_columns(field, chosen, nrows=rate)


def secure_code(code: SumCode, mixing: Matrix, r: int) -> SecureCode:
    """Wrap a sum code with a mixing matrix, splitting each source into
    rate - r message and r key coordinates."""
    if mixing.nrows != code.rate or mixing.ncols != code.rate:
        raise ShapeMismatch(f"mixing matrix must be {code.rate}x{code.rate}")
    if not 0 <= r < code.rate:
        raise ShapeMismatch(f"security level {r} out of range for rate {code.rate}")
    if mixing.field != code.field:
        raise ShapeMismatch("mixing matrix over the wrong field")
    secure = SecureCode(code, r, mixing)
    try:
        secure.mixing_inverse  # inverted once here; every later use reads the cached inverse
    except Singular:
        raise SingularB("mixing matrix is singular") from None
    return secure


# -- end-to-end construction ----------------------------------------------------------

def construct(
    net: Network,
    r: int,
    rate: int | None = None,
    field: Field | None = None,
    seed: int = 0,
) -> SecureCode:
    """Build an admissible secure sum-computing code of message rate R - r.

    Small fields are tried first (they often work well below the counting
    guarantee q > s * |family|); on failure the extension degree grows until the
    guarantee kicks in or the supported field size runs out.  Only B depends on
    r: the sum code under it, or the multicast search's failure, is built once
    per (network, rate, field, seed) and shared by every r (`_sum_code`).
    """
    cm = c_min(net)
    target_rate = cm if rate is None else rate
    if not 0 <= r <= cm:
        raise RateInfeasible(f"security level {r} outside [0, {cm}]")
    if not r <= target_rate <= cm:
        raise RateInfeasible(f"rate {target_rate} outside [{r}, {cm}]")
    if target_rate - r < 1:
        raise RateInfeasible(f"rate {target_rate} leaves no message coordinates at security level {r}")
    family = primary_wiretap_sets(net, r, exact_size=True)
    p = field.p if field is not None else 2
    degree = field.m if field is not None else 1
    last_error: Exception | None = None
    while p**degree <= MAX_FIELD_SIZE:
        fld = field if field is not None and degree == field.m else make_field(p, degree)
        outcome = _sum_code(net, target_rate, fld, f"{seed}")
        if isinstance(outcome, SumCode):
            try:
                if r == 0:
                    mixing = Matrix.identity(fld, target_rate)
                else:
                    mixing = choose_mixing_matrix(outcome, r, family, net)
                return secure_code(outcome, mixing, r)
            except FieldTooSmall as exc:
                outcome = exc.with_traceback(None)  # a kept traceback would hold this frame in a cycle
        last_error = outcome
        degree += 1
    raise ConstructionFailed(
        f"no field of size <= {MAX_FIELD_SIZE} admits the construction: {last_error}"
    )


# -- extension-field lifting ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LiftedCode:
    """A secure code over GF(p^L) re-read as a vector-linear code over GF(p).

    Every scalar becomes its L x L multiplication matrix, so the code computes
    the sum ell = (R - r) * L times per n = L network uses; the message rate
    R - r is unchanged.  `rate` holds that message rate R - r, whereas
    `SumCode.rate` and `SecureCode.rate` hold R, keys included; `r` is the
    security level, so a source holds rate + r symbols.

    Block (i, j) of an expanded matrix is the multiplication matrix of entry
    (i, j): coords(out_j) = sum_i block(i, j) coords(in_i), in `Field.coeffs`
    coordinates.  Inputs are a source's R coordinates (messages first), an
    in-edge's symbol or the sink's in-edges; outputs an edge's symbol or a sum.
    """

    base_prime: int
    ell: int
    n: int
    rate: int
    r: int
    source_matrices: dict[str, dict[str, Matrix]]
    local_matrices: dict[str, dict[str, Matrix]]
    decoder: Matrix


def lift_extension(code: SecureCode, net: Network) -> LiftedCode:
    field = code.field
    if field.m == 1:
        raise PrimeFieldInput("the code is already over a prime field")
    L, rate = field.m, code.rate
    # a source edge's block of its secure vector is B^-1 times its raw column
    vectors = secure_vectors(code, net)
    src_mats = {
        s: {
            e.id: companion_expand(Matrix.column(field, vectors[e.id][i * rate : (i + 1) * rate]))
            for e in net.out_edges[s]
        }
        for i, s in enumerate(net.sources)
    }
    local_mats = {
        eid: {
            did: companion_expand(Matrix.build(field, [[coeff]]))
            for did, coeff in incoming.items()
        }
        for eid, incoming in code.base.local_coeffs.items()
    }
    return LiftedCode(
        base_prime=field.p,
        ell=code.ell * L,
        n=L,
        rate=code.ell,
        r=code.r,
        source_matrices=src_mats,
        local_matrices=local_mats,
        decoder=companion_expand(message_decoder(code)),
    )


# -- serialization -----------------------------------------------------------------------

def code_to_dict(code: SecureCode, net: Network) -> dict:
    field = code.field
    vectors = global_vectors(code.base, net)
    return {
        "field": field.spec_string(),
        "modulus": list(field.modulus),
        "rate": code.rate,
        "r": code.r,
        "sources": list(net.sources),
        "source_matrices": {
            s: {eid: list(col) for eid, col in sorted(cols.items())}
            for s, cols in code.base.source_matrices.items()
        },
        "local_coeffs": {
            eid: dict(sorted(entry.items())) for eid, entry in sorted(code.base.local_coeffs.items())
        },
        "B": [list(row) for row in code.mixing.data],
        "global_vectors": {eid: list(vectors[eid]) for eid in net.order},
        "decoder_D": [list(row) for row in code.base.decoder.data],
    }


def save_code(path: str, code: SecureCode, net: Network) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code, net), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_code(doc: dict | str | bytes, net: Network) -> SecureCode:
    """Parse a code file, recompute its global vectors, and cross-check the
    stored ones before returning the code.  Every number must be an int, not a
    bool."""
    if not isinstance(doc, dict):
        doc = _json_object(doc, "code")

    def index(x) -> int:
        # operator.index refuses a float or a string rather than truncating it; JSON true is not 1
        if isinstance(x, bool):
            raise TypeError(f"{x!r} is not an int")
        return operator.index(x)

    try:
        modulus = doc.get("modulus")
        fld = parse_field(str(doc["field"]), None if modulus is None else [index(c) for c in modulus])
        rate = index(doc["rate"])
        r = index(doc["r"])
        if not isinstance(doc["sources"], list):
            raise MalformedInput("sources must be a JSON array")
        sources = [str(s) for s in doc["sources"]]
        raw_sources = dict(doc["source_matrices"])
        raw_coeffs = dict(doc.get("local_coeffs") or {})
        raw_b = [[index(x) for x in row] for row in doc["B"]]
        raw_decoder = [[index(x) for x in row] for row in doc["decoder_D"]]
    except (KeyError, TypeError, ValueError, AttributeError, MalformedInput) as exc:
        raise MalformedInput(f"bad code document: {exc}") from None
    if sources != list(net.sources):
        raise MalformedInput("code sources do not match the network")
    if rate < 1 or not 0 <= r < rate:
        raise MalformedInput(f"need 0 <= r < rate, got r={r}, rate={rate}")
    try:
        source_matrices: dict[str, dict[str, tuple[int, ...]]] = {}
        for s, cols in raw_sources.items():
            if s not in net.sources:
                raise MalformedInput(f"unknown source {s!r}")
            out_ids = {e.id for e in net.out_edges[s]}
            parsed = {}
            for eid, col in cols.items():
                if eid not in out_ids:
                    raise MalformedInput(f"edge {eid!r} is not an out-edge of {s!r}")
                if len(col) != rate:
                    raise ShapeMismatch(f"source column for {eid!r} must have length {rate}")
                parsed[eid] = tuple(index(x) % fld.q for x in col)
            source_matrices[s] = parsed
        local_coeffs: dict[str, dict[str, int]] = {}
        src_set = set(net.sources)
        for eid, entry in raw_coeffs.items():
            if eid not in net.edge_by_id:
                raise MalformedInput(f"unknown edge {eid!r} in local_coeffs")
            tail = net.edge_by_id[eid].tail
            if tail in src_set:
                raise MalformedInput(f"edge {eid!r} leaves a source; it belongs in source_matrices")
            in_ids = {e.id for e in net.in_edges[tail]}
            parsed_entry = {}
            for did, coeff in entry.items():
                if did not in in_ids:
                    raise MalformedInput(f"{did!r} is not an in-edge of the tail of {eid!r}")
                parsed_entry[did] = index(coeff) % fld.q
            local_coeffs[eid] = parsed_entry
    except (TypeError, ValueError, AttributeError) as exc:
        raise MalformedInput(f"bad code document: {exc}") from None
    n_in = len(net.in_edges[net.sink])
    if len(raw_decoder) != n_in or any(len(row) != rate for row in raw_decoder):
        raise ShapeMismatch(f"decoder must be {n_in}x{rate}")
    decoder = Matrix.build(fld, raw_decoder, ncols=rate)
    if len(raw_b) != rate or any(len(row) != rate for row in raw_b):
        raise ShapeMismatch(f"B must be {rate}x{rate}")
    mixing = Matrix.build(fld, raw_b, ncols=rate)
    base = SumCode(fld, rate, source_matrices, local_coeffs, decoder)
    code = secure_code(base, mixing, r)
    stored = doc.get("global_vectors")
    if stored is not None:
        recomputed = global_vectors(base, net)
        try:
            for eid in stored:
                if eid not in recomputed:
                    raise MalformedInput(f"stored global vector for unknown edge {eid!r}")
            for eid in net.order:
                expect = recomputed[eid]
                got = stored.get(eid)
                if got is None or tuple(index(x) % fld.q for x in got) != expect:
                    raise MalformedInput(f"stored global vector for {eid!r} fails the audit")
        except (TypeError, ValueError, AttributeError) as exc:
            raise MalformedInput(f"bad global vectors: {exc}") from None
    return code


def load_code_file(path: str, net: Network) -> SecureCode:
    with open(path, "rb") as fh:
        return load_code(fh.read(), net)
