"""Linear sum-computing network codes and their key-mixing secure variants.

The pipeline: draw a random rate-R multicast code on the edge-reversed network,
transpose its kernels into a code that delivers the coordinate-wise sum of all
source vectors to the sink, then pre-multiply every source by the inverse of a
mixing matrix B whose leading columns stay clear of everything any allowed
wiretap set can observe.  Each source then spends R - r coordinates on messages
and r on uniform one-time keys.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property

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
from .network import Network

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

    def effective_source_column(self, source: str, edge_id: str) -> tuple[int, ...]:
        """The column actually applied at the source: B^-1 times the raw column."""
        raw = self.base.source_column(source, edge_id)
        return self.mixing_inverse.mul(Matrix.column(self.field, raw)).col(0)


def message_selector(code: SecureCode) -> Matrix:
    """rate x ell selector keeping the message coordinates of one source."""
    return Matrix.build(
        code.field,
        [[1 if i == j else 0 for j in range(code.ell)] for i in range(code.rate)],
        ncols=code.ell,
    )


def message_decoder(code: SecureCode) -> Matrix:
    """|in(sink)| x ell matrix taking received symbols straight to the message sums."""
    return code.base.decoder.mul(code.mixing).mul(message_selector(code))


def as_secure(code: SumCode | SecureCode, r: int | None = None) -> SecureCode:
    """View any code as a secure code; a bare sum code gets B = I and r = 0."""
    if isinstance(code, SecureCode):
        if r is None or r == code.r:
            return code
        if not 0 <= r <= code.rate:
            raise ShapeMismatch(f"security level {r} out of range for rate {code.rate}")
        return SecureCode(code.base, r, code.mixing)
    r = 0 if r is None else r
    if not 0 <= r <= code.rate:
        raise ShapeMismatch(f"security level {r} out of range for rate {code.rate}")
    return SecureCode(code, r, Matrix.identity(code.field, code.rate))


# -- propagation ---------------------------------------------------------------------
#
# Every walk over the local rules runs one plan over columns.  A plan holds, per
# edge in walk order, the (index, coefficient) taps whose sum gives that edge's
# column; indices below the number of input columns name inputs, the rest name
# the edges before it.  The inputs decide what a column means: unit columns give
# global vectors, one column per input coordinate over all states gives every
# state's symbols at once.  Columns are the field's packed columns (`Field.pack`),
# and each step is one `Field.combination`.

def _propagate(field: Field, plan: list, inputs: list, keep=None) -> list:
    """Run `plan` over the equal-length `inputs`: one column per plan step.

    With `keep` (a set of plan positions), every other column, inputs included,
    is dropped to None after its last use, so the live columns are the kept ones
    plus the frontier of the walk.  Without it every column is returned.
    """
    n, n_in = len(inputs[0]), len(inputs)
    cols = list(inputs)
    retire = itertools.repeat(())
    if keep is not None:
        retire = [[] for _ in plan]
        last = {n_in + p: p for p in range(len(plan))}
        for p, taps in enumerate(plan):
            last.update((idx, p) for idx, _ in taps)
        for idx, p in last.items():
            if idx - n_in not in keep:
                retire[p].append(idx)
    for taps, done in zip(plan, retire):
        cols.append(field.combination([(c, cols[idx]) for idx, c in taps], n))
        for idx in done:
            cols[idx] = None
    return cols[n_in:]


def _propagation_plan(code: SumCode, net: Network) -> list[list[tuple[int, int]]]:
    """The sum code's local rules in `net.order`, over the raw source columns.

    Input i * rate + k is coordinate k of source i; edge p of the order is
    index s * rate + p.  The mixing matrix is not in the plan: see `_mix_inputs`.
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
        plan.append(taps)
    return plan


def _mix_inputs(code: SecureCode, inputs: list) -> list:
    """The input columns with B^-1 applied once per source.

    The secure code sends <x, B^-1 c> on a source edge with raw column c, which
    is <(B^-1)^T x, c>: transforming the inputs replaces a matrix product per
    source edge.
    """
    field, n, rate = code.field, len(inputs[0]), code.rate
    binv = code.mixing_inverse.columns()
    return [
        field.combination(zip(col, inputs[first : first + rate]), n)
        for first in range(0, len(inputs), rate)
        for col in binv
    ]


def _unit_columns(field: Field, n: int) -> list:
    return [field.pack(int(t == k) for t in range(n)) for k in range(n)]


def _edge_vectors(code: SumCode, net: Network, inputs: list) -> dict[str, tuple[int, ...]]:
    cols = _propagate(code.field, _propagation_plan(code, net), inputs)
    return dict(zip(net.order, map(tuple, cols)))


# -- global encoding vectors ---------------------------------------------------------

def global_vectors(code: SumCode | SecureCode, net: Network) -> dict[str, tuple[int, ...]]:
    """Per-edge stacked column vectors mapping all source inputs to edge symbols.

    Computed by propagating the s * rate unit columns through the local rules of
    the sum code (of a secure code's base: the raw source columns, without B).
    """
    base = code.base if isinstance(code, SecureCode) else code
    if not isinstance(base, SumCode):
        raise InvariantViolated(f"expected a sum or secure code, got {type(base).__name__}")
    return _edge_vectors(base, net, _unit_columns(base.field, base.rate * net.num_sources))


def sink_matrix(vectors: dict[str, tuple[int, ...]], net: Network, field: Field, dim: int) -> Matrix:
    """Columns of the sink's in-edges, in topological order."""
    cols = [vectors[e.id] for e in net.in_edges[net.sink]]
    return Matrix.from_columns(field, cols, nrows=dim)


def secure_vectors(code: SecureCode, net: Network) -> dict[str, tuple[int, ...]]:
    """The global vectors of what actually flows: B^-1 enters through the inputs."""
    units = _unit_columns(code.field, code.rate * net.num_sources)
    return _edge_vectors(code.base, net, _mix_inputs(code, units))


def decodes_message_sum(code: SecureCode, net: Network) -> bool:
    """The computability criterion: the sink matrix of the secure global vectors
    times the message decoder equals the message selector stacked once per source."""
    s = net.num_sources
    sink = sink_matrix(secure_vectors(code, net), net, code.field, code.rate * s)
    return sink.mul(message_decoder(code)).data == message_selector(code).data * s


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
    rng = random.Random(f"{seed}|{field.p}^{field.m}|{rate}")
    eye = Matrix.identity(field, rate)
    # walk the reversed network: reversed edge order, inputs the sink's rate unit columns
    walk = tuple(reversed(net.order))
    step = {eid: rate + p for p, eid in enumerate(walk)}
    col_pos = {e.id: j for v in net.nodes for j, e in enumerate(net.in_edges[v])}
    shape = []  # per walked edge: its reversed tail, the steps feeding it, its kernel column
    for eid in walk:
        v = net.edge_by_id[eid].head
        feeds = range(rate) if v == net.sink else [step[d.id] for d in net.out_edges[v]]
        shape.append((v, feeds, col_pos[eid]))
    units = _unit_columns(field, rate)
    for _ in range(MULTICAST_ATTEMPTS):
        kernels: dict[str, Matrix] = {}
        for v in net.nodes:
            if v in net.sources:
                continue  # original sources are multicast sinks: no kernel
            n_in = rate if v == net.sink else len(net.out_edges[v])
            n_out = len(net.in_edges[v])
            kernels[v] = Matrix.build(
                field,
                [[rng.randrange(field.q) for _ in range(n_out)] for _ in range(n_in)],
                ncols=n_out,
            )
        plan = [[(idx, row[j]) for idx, row in zip(feeds, kernels[v].data)] for v, feeds, j in shape]
        fe = dict(zip(walk, map(tuple, _propagate(field, plan, units))))
        # a source decodes exactly when its rate x |out(s)| decode matrix has a right inverse
        decode, right = {}, {}
        for s in net.sources:
            decode[s] = Matrix.from_columns(field, [fe[e.id] for e in net.out_edges[s]], nrows=rate)
            right[s] = decode[s].solve_right(eye)
            if right[s] is None:
                break
        else:
            return MulticastCode(field, rate, kernels, fe, decode, right)
    raise FieldTooSmallForMulticast(
        f"no decodable rate-{rate} multicast code found over {field!r} in {MULTICAST_ATTEMPTS} attempts"
    )


def sum_code_from_multicast(mc: MulticastCode, net: Network) -> SumCode:
    """Transpose the reversed multicast kernels into a sum-computing code.

    Per-source matrices come from the transposed right inverses, intermediate
    coefficients from the transposed kernels, and the decoder from the
    transposed kernel of the original sink; the stacked-identity decoding
    property is asserted before returning.
    """
    field = mc.field
    rate = mc.rate
    source_matrices: dict[str, dict[str, tuple[int, ...]]] = {}
    for s in net.sources:
        k = mc.right_inverses[s]  # |out(s)| x R, rows indexed by out-edges
        source_matrices[s] = {e.id: k.row(i) for i, e in enumerate(net.out_edges[s])}
    local_coeffs: dict[str, dict[str, int]] = {}
    for v in net.nodes:
        if v in net.sources or v == net.sink:
            continue
        kernel = mc.kernels[v]  # rows: out-edges of v, cols: in-edges of v
        for row_pos, e_out in enumerate(net.out_edges[v]):
            entry = {}
            for col_pos, e_in in enumerate(net.in_edges[v]):
                coeff = kernel.data[row_pos][col_pos]
                if coeff:
                    entry[e_in.id] = coeff
            if entry:
                local_coeffs[e_out.id] = entry
    decoder = mc.kernels[net.sink].transpose()  # |in(sink)| x R
    code = SumCode(field, rate, source_matrices, local_coeffs, decoder)
    if not decodes_message_sum(as_secure(code), net):
        raise ReversalInconsistent("reversed code does not decode the stacked identity")
    return code


# -- mixing matrix -----------------------------------------------------------------

SCAN_CAP = 1024


def _first_outside(span: Echelon, dim: int) -> tuple[int, ...]:
    for i in range(dim):
        basis = tuple(1 if k == i else 0 for k in range(dim))
        if not span.contains(basis):
            return basis
    raise InvariantViolated("a proper subspace misses some standard basis vector")


def _vector_avoiding(field: Field, spans: list[Echelon], dim: int) -> tuple[int, ...] | None:
    """A vector outside every span, or None.

    Below the scan cap this is the lexicographically first such vector; beyond
    it, a deterministic subspace-avoidance walk (move along a line out of each
    offending span) that succeeds whenever the field outgrows the span count.
    """
    if any(s.rank >= dim for s in spans):
        return None
    if field.q**dim <= SCAN_CAP:
        for cand in itertools.product(field.elements(), repeat=dim):
            if all(not s.contains(cand) for s in spans):
                return cand
        return None
    v = _first_outside(spans[0], dim)
    passed = [spans[0]]
    for span in spans[1:]:
        if span.contains(v):
            w = _first_outside(span, dim)
            for lam in range(1, field.q):
                cand = tuple(field.add(a, field.mul(lam, b)) for a, b in zip(v, w))
                if not span.contains(cand) and all(not p.contains(cand) for p in passed):
                    v = cand
                    break
            else:
                return None
        passed.append(span)
    return v


def choose_mixing_matrix(
    code: SumCode, r: int, family: list[tuple[str, ...]], net: Network
) -> Matrix:
    """Pick the R columns of B greedily.

    The first R - r columns must avoid, for every wiretap set in the family and
    every source, the span of that source's observable columns plus the columns
    already chosen; the rest only need to keep B invertible.  Candidates are
    scanned in lexicographic order of their integer encodings (the scan falls
    back to a constructive walk only beyond the exhaustive-scan cap).
    """
    field = code.field
    rate = code.rate
    if not 0 <= r <= rate:
        raise ShapeMismatch(f"security level {r} out of range for rate {rate}")
    vectors = global_vectors(code, net)
    # one span per distinct RREF, in first-seen order: the walk beyond SCAN_CAP depends on it
    obstacles: dict[tuple, Echelon] = {}
    for wset in family:
        for i in range(net.num_sources):
            cols = [
                vectors[eid][i * rate : (i + 1) * rate]
                for eid in wset
                if any(vectors[eid][i * rate : (i + 1) * rate])
            ]
            if not cols:
                continue
            span = Echelon(field, cols)
            obstacles.setdefault(span.reduced(), span)
    observed = list(obstacles.values())
    chosen: list[tuple[int, ...]] = []
    chosen_span = Echelon(field)
    for j in range(rate):
        active = (observed or [chosen_span]) if j < rate - r else [chosen_span]
        pick = _vector_avoiding(field, active, rate)
        if pick is None:
            raise FieldTooSmall(f"no admissible mixing column over {field!r} at position {j + 1}")
        chosen.append(pick)
        chosen_span.add(pick)
        for span in observed:
            span.add(pick)
    return Matrix.from_columns(field, chosen, nrows=rate)


def secure_code(code: SumCode, mixing: Matrix, r: int) -> SecureCode:
    """Wrap a sum code with a mixing matrix, splitting each source into
    rate - r message and r key coordinates."""
    if mixing.nrows != code.rate or mixing.ncols != code.rate:
        raise ShapeMismatch(f"mixing matrix must be {code.rate}x{code.rate}")
    if not 0 <= r <= code.rate:
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
    guarantee kicks in or the supported field size runs out.
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
        try:
            mc = build_reversed_multicast(net, target_rate, fld, seed)
            base = sum_code_from_multicast(mc, net)
            if r == 0:
                mixing = Matrix.identity(fld, target_rate)
            else:
                mixing = choose_mixing_matrix(base, r, family, net)
            return secure_code(base, mixing, r)
        except (FieldTooSmall, FieldTooSmallForMulticast) as exc:
            last_error = exc
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
    R - r is unchanged.
    """

    base_prime: int
    ell: int
    n: int
    rate: int
    source_matrices: dict[str, dict[str, Matrix]]
    local_matrices: dict[str, dict[str, Matrix]]
    decoder: Matrix


def lift_extension(code: SecureCode, net: Network) -> LiftedCode:
    field = code.field
    if field.m == 1:
        raise PrimeFieldInput("the code is already over a prime field")
    L = field.m
    src_mats = {
        s: {
            e.id: companion_expand(Matrix.column(field, code.effective_source_column(s, e.id)))
            for e in net.out_edges[s]
        }
        for s in net.sources
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
    stored ones before returning the code."""
    if not isinstance(doc, dict):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput("code document must be a JSON object")
    try:
        fld = parse_field(str(doc["field"]), doc.get("modulus"))
        rate = int(doc["rate"])
        r = int(doc["r"])
        sources = [str(s) for s in doc["sources"]]
        raw_sources = dict(doc["source_matrices"])
        raw_coeffs = dict(doc.get("local_coeffs") or {})
        raw_b = [list(row) for row in doc["B"]]
        raw_decoder = [list(row) for row in doc["decoder_D"]]
        int_rows = lambda rows: [[int(x) for x in row] for row in rows]
        raw_b, raw_decoder = int_rows(raw_b), int_rows(raw_decoder)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
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
                parsed[eid] = tuple(int(x) % fld.q for x in col)
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
                parsed_entry[did] = int(coeff) % fld.q
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
            for eid in net.order:
                expect = recomputed[eid]
                got = stored.get(eid)
                if got is None or tuple(int(x) % fld.q for x in got) != expect:
                    raise MalformedInput(f"stored global vector for {eid!r} fails the audit")
        except (TypeError, ValueError, AttributeError) as exc:
            raise MalformedInput(f"bad global vectors: {exc}") from None
    return code


def load_code_file(path: str, net: Network) -> SecureCode:
    with open(path, "rb") as fh:
        return load_code(fh.read(), net)
