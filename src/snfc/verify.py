"""Independent checking of constructed and hand-authored codes.

Computability has an exact algebraic criterion (the composite map from source
inputs through the network to the decoder must equal the message-sum selector)
and an exhaustive one (simulate every input and compare).  Security likewise has
a rank criterion (what a wiretap set sees must be linearly independent of the
message coordinates) and an exhaustive tabulation of the conditional message
distribution.  The two routes must agree wherever both run.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from .bounds import primary_wiretap_sets, upper_bound
from .codes import SecureCode, SumCode, as_secure, secure_vectors, sink_matrix
from .errors import MalformedInput, NegativeSecurityLevel, ShapeMismatch, TooLarge
from .gf import Matrix
from .network import Network

DEFAULT_STATE_CAP = 16_777_216
ENV_STATE_CAP = "SNFC_MAX_EXHAUSTIVE"


def state_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get(ENV_STATE_CAP)
    if not raw:
        return DEFAULT_STATE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise MalformedInput(f"{ENV_STATE_CAP}={raw!r} is not an integer") from None
    if value < 0:
        raise MalformedInput(f"{ENV_STATE_CAP}={raw!r} is negative")
    return value


@dataclass(frozen=True)
class VerifyReport:
    computable: bool
    secure_rank: bool
    secure_exhaustive: bool | None
    failing_W: tuple[str, ...] | None
    rate: Fraction
    bound_consistent: bool

    @property
    def all_passed(self) -> bool:
        return (
            self.computable
            and self.secure_rank
            and (self.secure_exhaustive is None or self.secure_exhaustive)
            and self.bound_consistent
        )

    def to_dict(self) -> dict:
        rate = (
            int(self.rate)
            if self.rate.denominator == 1
            else [self.rate.numerator, self.rate.denominator]
        )
        return {
            "computable": self.computable,
            "secure_rank": self.secure_rank,
            "secure_exhaustive": self.secure_exhaustive,
            "failing_W": None if self.failing_W is None else list(self.failing_W),
            "rate": rate,
            "bound_consistent": self.bound_consistent,
        }


# -- shared plumbing -----------------------------------------------------------------

def wiretap_family(net: Network, r: int, fast: bool = False) -> list[tuple[str, ...]]:
    """All wiretap sets of size <= r, or only the primary ones with the fast flag."""
    if fast:
        return primary_wiretap_sets(net, r)
    ids = sorted(net.edge_by_id)
    out: list[tuple[str, ...]] = []
    for k in range(r + 1):
        out.extend(itertools.combinations(ids, k))
    out.sort()
    return out


def _check_shapes(code: SecureCode, net: Network) -> None:
    n_in = len(net.in_edges[net.sink])
    if code.base.decoder.shape != (n_in, code.rate):
        raise ShapeMismatch(
            f"decoder is {code.base.decoder.shape}, expected {(n_in, code.rate)}"
        )
    for s in net.sources:
        for eid, col in code.base.source_matrices.get(s, {}).items():
            if len(col) != code.rate:
                raise ShapeMismatch(f"source column for {eid!r} has length {len(col)}")


def _message_selector(code: SecureCode) -> Matrix:
    """rate x ell selector keeping the message coordinates of one source."""
    return Matrix.build(
        code.field,
        [[1 if i == j else 0 for j in range(code.ell)] for i in range(code.rate)],
        ncols=code.ell,
    )


def _stacked_selector(code: SecureCode, s: int) -> Matrix:
    sel = _message_selector(code)
    out = sel
    for _ in range(s - 1):
        out = out.vstack(sel)
    return out


def _blockdiag_selector(code: SecureCode, s: int) -> Matrix:
    """The (rate*s) x (ell*s) block-diagonal message selector."""
    field = code.field
    rate, ell = code.rate, code.ell
    rows = []
    for i in range(rate * s):
        block, inner = divmod(i, rate)
        row = [0] * (ell * s)
        if inner < ell:
            row[block * ell + inner] = 1
        rows.append(tuple(row))
    return Matrix(field, tuple(rows), ell * s)


def message_decoder(code: SecureCode) -> Matrix:
    """|in(sink)| x ell matrix taking received symbols straight to the message sums."""
    return code.base.decoder.mul(code.mixing).mul(_message_selector(code))


# -- simulation ------------------------------------------------------------------------

def _propagation_plan(code: SecureCode, net: Network):
    """Per-edge instructions for simulating one input through the local rules."""
    src_index = {s: i for i, s in enumerate(net.sources)}
    pos = net.order_index
    plan = []
    for eid in net.order:
        e = net.edge_by_id[eid]
        if e.tail in src_index:
            plan.append(("src", src_index[e.tail], code.effective_source_column(e.tail, eid)))
        else:
            taps = [
                (pos[d.id], code.base.coefficient(d.id, eid))
                for d in net.in_edges[e.tail]
                if code.base.coefficient(d.id, eid)
            ]
            plan.append(("mix", taps))
    return plan


def _run_plan(field, plan, inputs) -> list[int]:
    y: list[int] = []
    for step in plan:
        acc = 0
        if step[0] == "src":
            _, i, col = step
            for a, b in zip(inputs[i], col):
                if a and b:
                    acc = field.add(acc, field.mul(a, b))
        else:
            for idx, coeff in step[1]:
                if y[idx]:
                    acc = field.add(acc, field.mul(coeff, y[idx]))
        y.append(acc)
    return y


def simulate(code: SecureCode, net: Network, inputs: tuple[tuple[int, ...], ...]) -> dict[str, int]:
    """Propagate one full source input (message and key coordinates) edge by edge."""
    y = _run_plan(code.field, _propagation_plan(code, net), inputs)
    return {eid: y[i] for i, eid in enumerate(net.order)}


def decode(code: SecureCode, net: Network, symbols: dict[str, int]) -> tuple[int, ...]:
    """Apply the decoder to the sink's received symbols; returns the ell message sums."""
    field = code.field
    received = [symbols[e.id] for e in net.in_edges[net.sink]]
    dec = message_decoder(code)
    return tuple(
        _dot(field, received, dec.col(j)) for j in range(dec.ncols)
    )


def _dot(field, xs, ys) -> int:
    acc = 0
    for a, b in zip(xs, ys):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _all_states(code: SecureCode, net: Network):
    """Every (message, key) assignment, yielded with its per-source input rows."""
    field = code.field
    s = net.num_sources
    for flat in itertools.product(field.elements(), repeat=code.rate * s):
        yield tuple(flat[i * code.rate : (i + 1) * code.rate] for i in range(s))


def _state_count(code: SecureCode, net: Network) -> int:
    return code.field.q ** (code.rate * net.num_sources)


# -- computability -----------------------------------------------------------------------

def check_computability(
    code: SecureCode | SumCode,
    net: Network,
    method: str = "algebraic",
    cap: int | None = None,
) -> bool:
    """Does the sink always recover the coordinate-wise message sum?

    The algebraic route compares the end-to-end linear map against the stacked
    message selector; the exhaustive route simulates every input.
    """
    secure = as_secure(code)
    _check_shapes(secure, net)
    s = net.num_sources
    if method == "algebraic":
        vectors = secure_vectors(secure, net)
        h_rho = sink_matrix(vectors, net, secure.field, secure.rate * s)
        achieved = h_rho.mul(message_decoder(secure))
        return achieved.data == _stacked_selector(secure, s).data
    if method == "exhaustive":
        if _state_count(secure, net) > state_cap(cap):
            raise TooLarge(
                f"{_state_count(secure, net)} states exceed the cap {state_cap(cap)}"
            )
        field = secure.field
        ell = secure.ell
        plan = _propagation_plan(secure, net)
        dec_cols = message_decoder(secure).columns()
        sink_pos = [net.order_index[e.id] for e in net.in_edges[net.sink]]
        for inputs in _all_states(secure, net):
            y = _run_plan(field, plan, inputs)
            received = [y[i] for i in sink_pos]
            expected = tuple(
                _sum_over(field, (inputs[i][j] for i in range(s))) for j in range(ell)
            )
            if tuple(_dot(field, received, col) for col in dec_cols) != expected:
                return False
        return True
    raise ValueError(f"unknown method {method!r}")


def _sum_over(field, values) -> int:
    acc = 0
    for v in values:
        acc = field.add(acc, v)
    return acc


# -- security ------------------------------------------------------------------------------

def check_security_rank(
    code: SecureCode | SumCode,
    net: Network,
    r: int | None = None,
    fast: bool = False,
) -> tuple[bool, tuple[str, ...] | None]:
    """Rank criterion: what each wiretap set observes must add full message rank.

    Returns (ok, first failing wiretap set).
    """
    secure = as_secure(code, r)
    _check_shapes(secure, net)
    s = net.num_sources
    vectors = secure_vectors(secure, net)
    gamma = _blockdiag_selector(secure, s)
    gamma_rank = gamma.rank()
    assert gamma_rank == secure.ell * s
    for wset in wiretap_family(net, secure.r, fast):
        if not wset:
            continue
        h_w = Matrix.from_columns(
            secure.field, [vectors[eid] for eid in wset], nrows=secure.rate * s
        )
        if h_w.hstack(gamma).rank() != h_w.rank() + gamma_rank:
            return False, wset
    return True, None


def check_security_exhaustive(
    code: SecureCode | SumCode,
    net: Network,
    r: int | None = None,
    fast: bool = False,
    cap: int | None = None,
) -> tuple[bool, tuple[str, ...] | None]:
    """Tabulate the conditional message distribution for every wiretap set.

    Secure means: given any observable symbol tuple, every message vector is
    still equally likely.  Exact but exponential; guarded by the state cap.
    """
    secure = as_secure(code, r)
    _check_shapes(secure, net)
    total = _state_count(secure, net)
    if total > state_cap(cap):
        raise TooLarge(f"{total} states exceed the cap {state_cap(cap)}")
    s = net.num_sources
    ell = secure.ell
    family = [w for w in wiretap_family(net, secure.r, fast) if w]
    pos = net.order_index
    plan = _propagation_plan(secure, net)
    positions = [[pos[eid] for eid in wset] for wset in family]
    tables: list[dict[tuple[int, ...], dict[tuple[int, ...], int]]] = [{} for _ in family]
    for inputs in _all_states(secure, net):
        ordered = _run_plan(secure.field, plan, inputs)
        message = tuple(inputs[i][j] for i in range(s) for j in range(ell))
        for table, wpos in zip(tables, positions):
            key = tuple(ordered[p] for p in wpos)
            bucket = table.setdefault(key, {})
            bucket[message] = bucket.get(message, 0) + 1
    n_messages = secure.field.q ** (ell * s)
    for wset, table in zip(family, tables):
        for bucket in table.values():
            if len(bucket) != n_messages or len(set(bucket.values())) != 1:
                return False, wset
    return True, None


# -- aggregate -----------------------------------------------------------------------------

def verify(
    code: SecureCode | SumCode,
    net: Network,
    r: int | None = None,
    exhaustive: bool | str = "auto",
    fast: bool = False,
    cap: int | None = None,
) -> VerifyReport:
    """Run every applicable check and fold the outcomes into one report."""
    if r is not None and r < 0:
        raise NegativeSecurityLevel(f"security level {r} is negative")
    secure = as_secure(code, r)
    computable = check_computability(secure, net, "algebraic")
    secure_rank, failing = check_security_rank(secure, net, fast=fast)
    run_exhaustive = (
        exhaustive is True
        or (exhaustive == "auto" and _state_count(secure, net) <= state_cap(cap))
    )
    sec_ex: bool | None = None
    if run_exhaustive:
        computable = computable and check_computability(secure, net, "exhaustive", cap=cap)
        sec_ex, failing_ex = check_security_exhaustive(secure, net, fast=fast, cap=cap)
        if failing is None:
            failing = failing_ex
    rate = Fraction(secure.ell, 1)
    bound = upper_bound(net, secure.r)
    return VerifyReport(
        computable=computable,
        secure_rank=secure_rank,
        secure_exhaustive=sec_ex,
        failing_W=failing,
        rate=rate,
        bound_consistent=rate <= bound.upper,
    )
