"""Independent checking of constructed and hand-authored codes.

Computability has an exact algebraic criterion (the composite map from source
inputs through the network to the decoder must equal the message-sum selector,
`codes.decodes_message_sum`) and an exhaustive one (simulate every input and
compare).  Security likewise has a rank criterion and an exhaustive tabulation
of the conditional message distribution.  The two routes must agree wherever
both run.

The rank criterion: a wiretap set W leaks exactly when some nonzero combination
of the global vectors it sees is zero on every key coordinate, for that
combination of its symbols is a function of the messages alone.  With each
vector's r*s key coordinates first, this is a pivot at index >= r*s in the
echelon form of W's vectors.  It is the test rank([H_W | Gamma]) =
rank(H_W) + ell*s read directly: Gamma, the block-diagonal message selector,
spans exactly the vectors that vanish on the keys.

The exhaustive route simulates the local rules of the code, never its global
vectors.  One pass, `check_exhaustive`, pushes all q^(rate * s) states through the
network at once, one symbol column per edge, with the walker `codes._propagate`
(which also gives the global vectors, from unit inputs).  It then decodes the
sink's columns against the message sums and tabulates one wiretap set at a time.
The mixing matrix enters through the input columns: each source's state columns
are mixed by (B^-1)^T before the walk, and the plan holds the raw local rules.
Time is O(states * (|E| + |family|)).  A column is the field's packed column
(`Field.pack`: one byte per state, two once q > 256), each sum of scaled
columns is one `Field.combination`, and a column lives until its last use: the
pass keeps the sink's in-edges and every edge that some wiretap set reads, plus
the propagation frontier, so its memory is O(states * |E|) bytes (at most the
state cap times |E|) plus the table of one wiretap set.  `simulate` is the
per-state reference.
"""

from __future__ import annotations

import itertools
import operator
import os
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .bounds import primary_wiretap_sets, upper_bound
from .codes import (
    SecureCode,
    SumCode,
    _mix_inputs,
    _propagate,
    _propagation_plan,
    as_secure,
    decodes_message_sum,
    message_decoder,
    secure_vectors,
)
from .errors import (
    MalformedInput,
    NegativeSecurityLevel,
    ShapeMismatch,
    TooLarge,
)
from .gf import Echelon, Matrix
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


# -- simulation ------------------------------------------------------------------------

def _run_plan(field, plan, inputs) -> list[int]:
    """One state through the plan, symbol by symbol: the reference for `_propagate`."""
    y = list(inputs)
    for taps in plan:
        acc = 0
        for idx, coeff in taps:
            if y[idx]:
                acc = field.add(acc, field.mul(coeff, y[idx]))
        y.append(acc)
    return y[len(inputs):]


def simulate(code: SecureCode, net: Network, inputs: tuple[tuple[int, ...], ...]) -> dict[str, int]:
    """Propagate one full source input (message and key coordinates) edge by edge."""
    binv = code.mixing_inverse
    mixed = [Matrix.build(code.field, [row], ncols=code.rate).mul(binv).row(0) for row in inputs]
    y = _run_plan(code.field, _propagation_plan(code.base, net), [x for row in mixed for x in row])
    return {eid: y[i] for i, eid in enumerate(net.order)}


def _state_count(code: SecureCode, net: Network) -> int:
    return code.field.q ** (code.rate * net.num_sources)


def _check_state_count(code: SecureCode, net: Network, cap: int | None) -> int:
    total = _state_count(code, net)
    limit = state_cap(cap)
    if total > limit:
        raise TooLarge(f"{total} states exceed the cap {limit}")
    return total


# -- column simulation -----------------------------------------------------------------
#
# The exhaustive pass pushes every state through the network at once: each input
# coordinate is one column over all states, and `codes._propagate` turns the
# B^-1-mixed input columns into one symbol column per edge.  State t holds, at
# input coordinate k of the rate * s flattened source rows, the base-q digit k of
# t, most significant first: the order of itertools.product.

def _simulate_columns(code: SecureCode, net: Network, keep) -> tuple[list, dict]:
    """Simulate every state at once.

    Returns the input columns of each source (rate columns per source) and the
    symbol column of each edge in `keep`.  Every other edge column is dropped
    after its last use, so the live columns are those of `keep` plus the
    current frontier of the propagation.
    """
    field = code.field
    q, n_coords = field.q, code.rate * net.num_sources
    flat = []
    for k in range(n_coords):
        run = q ** (n_coords - 1 - k)
        block = itertools.chain.from_iterable(itertools.repeat(v, run) for v in range(q))
        flat.append(field.pack(block) * q**k)
    inputs = [flat[i * code.rate : (i + 1) * code.rate] for i in range(net.num_sources)]
    pos = net.order_index
    plan = _propagation_plan(code.base, net)
    cols = _propagate(code.field, plan, _mix_inputs(code, flat), {pos[eid] for eid in keep})
    return inputs, {eid: cols[pos[eid]] for eid in keep}


def _digits_to_ints(cols: list, q: int, n: int):
    """Iterate one integer per state: the given columns read as base-q digits."""
    if not cols:
        return itertools.repeat(0, n)
    acc = iter(cols[0])
    for col in cols[1:]:
        acc = map(operator.add, map(operator.mul, acc, itertools.repeat(q)), col)
    return acc


def _uniform_given_key(keys, messages, n_messages: int) -> bool:
    """Is every message equally likely given each observed key?

    `keys` yields one integer per state, read once; `messages` holds one
    integer in range(n_messages) per state.  True exactly when every key sees
    all n_messages messages, each equally often: there are n_keys * n_messages
    distinct (key, message) pairs and each key has one pair count.  The linear
    codes simulated here give every pair one count, so the test on the counts
    alone settles the common case; the per-key test, which builds one (key,
    count) tuple per pair, runs only when the counts differ.
    """
    scaled = map(operator.mul, keys, itertools.repeat(n_messages))
    pairs = Counter(map(operator.add, scaled, messages))
    n_keys = len(set(map(operator.floordiv, pairs, itertools.repeat(n_messages))))
    return len(pairs) == n_keys * n_messages and (
        len(set(pairs.values())) == 1
        or len(set(zip(map(operator.floordiv, pairs, itertools.repeat(n_messages)), pairs.values()))) == n_keys
    )


# -- computability -----------------------------------------------------------------------

def check_computability(code: SecureCode | SumCode, net: Network) -> bool:
    """Does the sink always recover the coordinate-wise message sum?

    The end-to-end linear map from the source inputs to the decoder output must
    equal the stacked message selector (`codes.decodes_message_sum`).
    """
    secure = as_secure(code)
    _check_shapes(secure, net)
    return decodes_message_sum(secure, net)


# -- security ------------------------------------------------------------------------------

def check_security_rank(
    code: SecureCode | SumCode,
    net: Network,
    r: int | None = None,
    fast: bool = False,
) -> tuple[bool, tuple[str, ...] | None]:
    """Rank criterion: no combination of what a wiretap set sees may be keyless.

    Each global vector is reordered so that the r*s key coordinates come first.
    A wiretap set leaks exactly when the echelon form of its vectors has a
    pivot at index >= r*s: that row combines the observed symbols into a
    nonzero function of the messages alone.  This equals the test
    rank([H_W | Gamma]) == rank(H_W) + ell*s with Gamma the block-diagonal
    message selector, because Gamma's column span is exactly the vectors that
    vanish on every key coordinate.

    Returns (ok, first failing wiretap set in family order).
    """
    secure = as_secure(code, r)
    _check_shapes(secure, net)
    rate, ell = secure.rate, secure.ell
    blocks = range(net.num_sources)
    keys = [b * rate + j for b in blocks for j in range(ell, rate)]
    order = keys + [b * rate + j for b in blocks for j in range(ell)]
    vectors = {eid: tuple(v[k] for k in order) for eid, v in secure_vectors(secure, net).items()}
    for wset in wiretap_family(net, secure.r, fast):
        span = Echelon(secure.field, (vectors[eid] for eid in wset))
        if any(pivot >= len(keys) for pivot in span.rows):
            return False, wset
    return True, None


# -- exhaustive ----------------------------------------------------------------------------

def check_exhaustive(
    code: SecureCode | SumCode,
    net: Network,
    r: int | None = None,
    fast: bool = False,
    cap: int | None = None,
) -> tuple[bool, bool, tuple[str, ...] | None]:
    """Simulate every state once and check both properties on the same columns.

    Computable means the decoded sink columns equal the column sums of the
    messages.  Secure means: given any observable symbol tuple, every message
    vector is still equally likely; the wiretap sets are tabulated one at a
    time, in family order.  Exact but exponential; guarded by the state cap.

    Returns (computable, secure, first failing wiretap set in family order).
    """
    secure = as_secure(code, r)
    _check_shapes(secure, net)
    total = _check_state_count(secure, net, cap)
    q, ell, s = secure.field.q, secure.ell, net.num_sources
    family = wiretap_family(net, secure.r, fast)
    received_ids = [e.id for e in net.in_edges[net.sink]]
    inputs, cols = _simulate_columns(
        secure, net, {*received_ids, *(eid for wset in family for eid in wset)}
    )
    combination = secure.field.combination
    received = [cols[eid] for eid in received_ids]
    computable = all(
        combination(zip(dec_col, received), total) == combination(((1, inputs[i][j]) for i in range(s)), total)
        for j, dec_col in enumerate(message_decoder(secure).columns())
    )
    messages = array("q", _digits_to_ints([row[j] for row in inputs for j in range(ell)], q, total))
    n_messages = q ** (ell * s)
    for wset in family:
        if not wset:
            continue
        keys = _digits_to_ints([cols[eid] for eid in wset], q, total)
        if not _uniform_given_key(keys, messages, n_messages):
            return computable, False, wset
    return computable, True, None


# -- aggregate -----------------------------------------------------------------------------

def verify(
    code: SecureCode | SumCode,
    net: Network,
    r: int | None = None,
    exhaustive: bool = False,
    fast: bool = False,
    cap: int | None = None,
) -> VerifyReport:
    """Run every applicable check and fold the outcomes into one report.

    The exhaustive pass runs when the states fit under the cap, or always
    with `exhaustive` (then a state count over the cap raises TooLarge).
    """
    if r is not None and r < 0:
        raise NegativeSecurityLevel(f"security level {r} is negative")
    secure = as_secure(code, r)
    computable = check_computability(secure, net)
    secure_rank, failing = check_security_rank(secure, net, fast=fast)
    sec_ex: bool | None = None
    if exhaustive or _state_count(secure, net) <= state_cap(cap):
        computable_ex, sec_ex, failing_ex = check_exhaustive(secure, net, fast=fast, cap=cap)
        computable = computable and computable_ex
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
