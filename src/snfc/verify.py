"""Independent checking of constructed and hand-authored codes.

A check runs a code in two steps from `codes`: `_run_code` runs it on input
columns and returns every edge's column, and `_computable`, the
computability rule, reads the message decoder against the sink's columns:
decoder column j gives the sum over the sources of message input j.  The rule
is linear, so it holds on every state exactly when it holds on inputs that
span them, such as the unit inputs in any order.  A report runs the code on
the unit inputs once, for the rank route, and applies the rule once:
`check_exhaustive` to every state's columns when the exhaustive pass runs,
else `verify` to the rank route's own inputs and columns.  Alone,
`check_computability` runs the code on the unit inputs and applies the rule.

Security has two independent routes, a rank criterion and an exhaustive
tabulation of the conditional message distribution, which must agree wherever
both run.  Each runs the code once on its own inputs (`_settle`), keeping every
edge's column.

The rank criterion (`check_security_rank`): a wiretap set W leaks exactly when
some nonzero combination of the global vectors it sees is zero on every key
coordinate, for that combination of its symbols is a function of the messages
alone.  Run on the unit inputs with the r*s key coordinates first, an edge's
column is its global vector in that order, and a leak is a pivot at index
>= r*s in the echelon form of W's columns.

The exhaustive route (`check_exhaustive`) simulates the local rules of the
code, never its global vectors: it pushes all q^(rate * s) states through the
network at once, one symbol column per edge, then tabulates one view at a
time.  The mixing matrix enters through the input columns: each source's
state columns are mixed by (B^-1)^T before the walk (`codes._walk`), which
runs the raw local rules.  Time is O(states * (|E| + |views|)).  A column is
the field's packed column (`Field.pack`: one byte per state, two once
q > 256), each sum of scaled columns is one `Field.combination`, and every
edge's column is kept, so the pass holds states * |E| * bytes per symbol of
columns, the quantity EXHAUSTIVE_BYTES_LIMIT bounds before the pass.  On one
source the states of a message are a run of q^r, and the run test
(`_runs_distinct`) clears an r-edge view with q^r <= 256 whose runs each see
distinct keys, at one byte per state.  Any other view is tabulated from its
pair column, one value key * q^(ell*s) + message per state, built with int
arithmetic on fixed-width lanes (see `_lanes`); `_uniform_given_key` settles
it with one `Counter`, at one lane of at most 8 bytes per state plus one count
per distinct pair.
The per-state reference, `simulate`, lives with the tests in
`tests/reference.py`.

Both security checks test each distinct view once, maximal views first
(`_first_leak`): a wiretap set's view is the set of its edges' classes, and
edges whose columns agree up to a nonzero scalar share one (`_view_classes`).
Only on a leak is the family scanned in order for the first failing set.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass

from .bounds import lower_bound, primary_wiretap_sets, upper_bound
from .codes import (
    SecureCode, SumCode, _computable, _run_code, as_secure, message_decoder
)
from .errors import (
    MalformedInput,
    NegativeSecurityLevel,
    ShapeMismatch,
    TooLarge,
)
from .gf import Echelon, Field, unit_vectors
from .network import Network

DEFAULT_STATE_CAP = 16_777_216
ENV_STATE_CAP = "SNFC_MAX_EXHAUSTIVE"
WIRETAP_FAMILY_LIMIT = 1_000_000
# the exhaustive pass's column bytes, states * |E| * bytes per symbol, may not exceed this
EXHAUSTIVE_BYTES_LIMIT = 1 << 30


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
    rate: int
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
        return {
            "computable": self.computable,
            "secure_rank": self.secure_rank,
            "secure_exhaustive": self.secure_exhaustive,
            "failing_W": None if self.failing_W is None else list(self.failing_W),
            "rate": self.rate,
            "bound_consistent": self.bound_consistent,
        }


# -- shared plumbing -----------------------------------------------------------------

def wiretap_family(net: Network, r: int, fast: bool = False) -> list[tuple[str, ...]]:
    """All wiretap sets of size <= r, or only the primary ones with the fast flag.

    The sets of size <= r are counted before any is listed, and more than
    WIRETAP_FAMILY_LIMIT of them raise TooLarge.
    """
    if fast:
        return primary_wiretap_sets(net, r)
    ids = sorted(net.edge_by_id)
    sizes = range(min(r, len(ids)) + 1)
    count = sum(math.comb(len(ids), k) for k in sizes)
    if count > WIRETAP_FAMILY_LIMIT:
        raise TooLarge(f"{count} wiretap sets exceed the cap {WIRETAP_FAMILY_LIMIT}")
    return list(heapq.merge(*(itertools.combinations(ids, k) for k in sizes)))


def _maximal_sets(family: list[tuple]) -> list[tuple]:
    """The nonempty inclusion-maximal members of a family of wiretap sets or views."""
    maximal: list[tuple] = []
    containing: dict[object, list[frozenset]] = {}  # maximal sets found so far, by member
    ordered = sorted(family, key=len, reverse=True)
    for wset in ordered:
        if not wset:
            break
        members = frozenset(wset)
        # a set of the largest size is maximal; a smaller one is not when some
        # maximal set holds it, and such a set holds its first member
        if len(wset) < len(ordered[0]) and any(members < big for big in containing.get(wset[0], ())):
            continue
        maximal.append(wset)
        for eid in wset:
            containing.setdefault(eid, []).append(members)
    return maximal


def _view_classes(field: Field, cols: dict[str, bytes | array]) -> dict[str, int]:
    """A class id for each edge whose packed column is not zero.

    Two edges share a class when their columns agree up to a nonzero scalar:
    each column is scaled by the inverse of its first nonzero entry.  Scaling
    by a nonzero element is a bijection on symbols, so edges of one class split
    the states alike, and a wiretap set's view, the set of its edges' classes,
    fixes what it sees.  A zero column sees a constant and gets no class.
    """
    ids: dict[bytes, int] = {}
    classes: dict[str, int] = {}
    for eid, col in cols.items():
        lead = next(filter(None, col), 0)
        if lead:
            scaled = bytes(field.combination([(field.inv(lead), col)], len(col)))
            classes[eid] = ids.setdefault(scaled, len(ids))
    return classes


def _first_leak(family: list[tuple[str, ...]], classes: dict[str, int], leaks) -> tuple[bool, tuple[str, ...] | None]:
    """(True, None) when no set of `family` leaks, else (False, the first one that does).

    Each distinct view is tested once, maximal views first.  The view of a set
    is the sorted tuple of the distinct `classes` of its edges, and sets with
    equal views see the same thing, so `leaks` runs on the first member of the
    family with each view and its verdict stands for the rest.  A view inside
    another sees less, so a view that leaks nothing has no leaking subview:
    the maximal views settle whether any set leaks, and only then is the
    family scanned in order, reading the verdicts, for the first.  The empty
    view sees a constant and never leaks.
    """
    views = [tuple(sorted({classes[eid] for eid in wset if eid in classes})) for wset in family]
    first: dict[tuple[int, ...], tuple[str, ...]] = {}
    for view, wset in zip(views, family):
        first.setdefault(view, wset)
    verdicts: dict[tuple[int, ...], bool] = {(): False}

    def view_leaks(view):
        if view not in verdicts:
            verdicts[view] = leaks(first[view])
        return verdicts[view]

    if not any(map(view_leaks, _maximal_sets(list(first)))):
        return True, None
    return False, next(wset for wset, view in zip(family, views) if view_leaks(view))


def _settle(secure: SecureCode, net: Network, fast: bool, inputs: list, leaks) -> tuple:
    """Run the code once on `inputs` and settle the family's views, built from the
    tapped edges' columns, by `leaks(cols, wset)`: (every edge's column, secure,
    first failing set).  A caller that reads computability applies the rule to
    these columns.
    """
    family = wiretap_family(net, secure.r, fast)
    tapped = {eid for wset in family for eid in wset}
    cols = _run_code(secure, net, inputs)
    classes = _view_classes(secure.field, {eid: cols[eid] for eid in tapped})
    return (cols, *_first_leak(family, classes, lambda wset: leaks(cols, wset)))


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


# -- state count -----------------------------------------------------------------------

def _state_count(code: SecureCode, net: Network) -> int:
    return code.field.q ** (code.rate * net.num_sources)


def _exhaustive_refusal(code: SecureCode, net: Network, cap: int | None) -> str | None:
    """Why the exhaustive pass may not run, or None: more states than the state
    cap, or more column bytes than EXHAUSTIVE_BYTES_LIMIT."""
    total, limit = _state_count(code, net), state_cap(cap)
    if total > limit:
        return f"{total} states exceed the cap {limit}"
    size = total * len(net.edges) * (1 if code.field.q <= 256 else 2)
    if size > EXHAUSTIVE_BYTES_LIMIT:
        return f"{size} bytes of state columns exceed the cap {EXHAUSTIVE_BYTES_LIMIT}"
    return None


# -- state columns ---------------------------------------------------------------------
#
# The exhaustive pass pushes every state through the network at once: each input
# coordinate is one column over all states, and `codes._run_code` turns these
# columns into one symbol column per edge.  State t holds, at input coordinate k
# of the rate * s flattened source rows, the base-q digit k of t, most
# significant first: the order of itertools.product.  The run test in
# `check_exhaustive` relies on this order: on one source the messages are the
# top digits, so the states of one message are consecutive.

def _state_columns(code: SecureCode, net: Network) -> list:
    """The rate * s input columns over all states, rate per source in source order."""
    field = code.field
    q, n_coords = field.q, code.rate * net.num_sources
    flat = []
    for k in range(n_coords):
        run = q ** (n_coords - 1 - k)
        block = itertools.chain.from_iterable(itertools.repeat(v, run) for v in range(q))
        flat.append(field.pack(block) * q**k)
    return flat


# A wiretap set's pair column holds, for each state, key * n_messages + message:
# the key is the set's symbols read as base-q digits, the message the message
# coordinates.  Every pair is below q^(|W| + ell*s) <= q^(rate*s) = total, as
# |W| <= r, so one fixed-width lane per state holds it, and the column is built
# as one int: each packed column is widened into the lanes of an int, and the
# digits are combined Horner-style on whole ints, which never carries from one
# lane into the next.  Lanes are in native byte order, so the int's bytes cast
# back into one machine integer per state.

_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_width(total: int) -> int:
    """The fewest bytes, 1, 2, 4 or 8, in a lane that holds every value below total."""
    for width in (1, 2, 4):
        if total <= 1 << (8 * width):
            return width
    return 8


def _lanes(col, width: int) -> int:
    """A packed column widened to `width`-byte lanes, read as one int."""
    view = memoryview(col)
    raw, size = view.cast("B"), view.itemsize
    lanes = bytearray(width * len(view))
    low = 0 if sys.byteorder == "little" else width - size
    for j in range(size):
        lanes[low + j :: width] = raw[j::size]
    return int.from_bytes(lanes, sys.byteorder)


def _base_q(cols: list, q: int, width: int) -> int:
    """The lanes of the columns read as base-q digits, most significant first."""
    acc = 0
    for col in cols:
        acc = acc * q + _lanes(col, width)
    return acc


def _unlanes(value: int, width: int, n: int) -> memoryview:
    """The n lane values of an int, one machine integer each."""
    return memoryview(value.to_bytes(width * n, sys.byteorder)).cast(_LANE_FORMATS[width])


def _runs_distinct(n_keys: int, total: int):
    """The run test on one-byte key lanes (`_base_q(cols, q, 1)`) of `total`
    states: are the keys of each run of n_keys <= 256 consecutive states distinct?

    A fixed column lifts each run by (index mod 256 // n_keys) * n_keys, so a
    chunk of that many runs is distinct exactly when each run is; `maketrans`
    sends each byte to its last position and `translate` reads them back, the
    identity exactly when no byte repeats.
    """
    per = 256 // n_keys * n_keys
    lift = bytes(sorted(bytes(range(0, per, n_keys)) * n_keys))  # each run's offset, n_keys times
    offsets = int.from_bytes((lift * (total // per + 1))[:total], sys.byteorder)
    ident = bytes(range(per))

    def distinct(keys: int) -> bool:
        lifted = (keys + offsets).to_bytes(total, sys.byteorder)
        pieces = (lifted[i : i + per] for i in range(0, total, per))
        return all(p.translate(bytes.maketrans(p, ident[: len(p)])) == ident[: len(p)] for p in pieces)

    return distinct


def _uniform_given_key(pairs, n_messages: int) -> bool:
    """Is every message equally likely given each observed key?

    `pairs` holds key * n_messages + message for each state, with message in
    range(n_messages): a lane-built pair column.  `Counter` tabulates the
    pairs, and each observed key must see all n_messages messages, with one
    count per key.  A repeated pair alone is no leak: when some key is never
    observed the others see each message more than once.
    """
    counts = Counter(pairs)
    keys = list(map(operator.floordiv, counts, itertools.repeat(n_messages)))
    observed = len(set(keys))
    return len(counts) == observed * n_messages and (
        len(set(counts.values())) == 1 or len(set(zip(keys, counts.values()))) == observed
    )


# -- computability -----------------------------------------------------------------------

def check_computability(code: SecureCode | SumCode, net: Network) -> bool:
    """Does the sink always recover the coordinate-wise message sum?

    The computability rule on the unit inputs: they span every input, so the
    sink decodes every message sum exactly when it decodes theirs.
    """
    secure = as_secure(code)
    _check_shapes(secure, net)
    units = unit_vectors(secure.rate * net.num_sources, secure.field.pack)
    return _computable(message_decoder(secure), net, units, _run_code(secure, net, units))


# -- security ------------------------------------------------------------------------------

def check_security_rank(
    code: SecureCode | SumCode, net: Network, *, fast: bool = False
) -> tuple[bool, tuple[str, ...] | None]:
    """Rank criterion: no combination of what a wiretap set sees may be keyless.

    A leak is a pivot at index >= r*s in the echelon form of a set's key-first
    columns (see the module docstring): the test rank([H_W | Gamma]) ==
    rank(H_W) + ell*s read directly, as Gamma, the block-diagonal message
    selector, spans exactly the vectors that vanish on every key coordinate.

    Returns (ok, first failing wiretap set in family order).
    """
    secure = as_secure(code)
    _check_shapes(secure, net)
    return _rank_route(secure, net, fast)[2:]


def _rank_route(secure: SecureCode, net: Network, fast: bool) -> tuple:
    """The rank criterion on a shape-checked secure code: (the key-first unit
    inputs, every edge's column on them, secure, first failing set)."""
    rate, ell = secure.rate, secure.ell
    blocks = range(net.num_sources)
    keys = [b * rate + j for b in blocks for j in range(ell, rate)]
    order = keys + [b * rate + j for b in blocks for j in range(ell)]
    units = unit_vectors(len(order), secure.field.pack)
    inputs = [units[order.index(k)] for k in range(len(order))]

    def leaks(cols, wset):
        span = Echelon(secure.field, (cols[eid] for eid in wset))
        return any(pivot >= len(keys) for pivot in span.rows)

    return (inputs, *_settle(secure, net, fast, inputs, leaks))


# -- exhaustive ----------------------------------------------------------------------------

def check_exhaustive(
    code: SecureCode | SumCode, net: Network, *, fast: bool = False, cap: int | None = None
) -> tuple[bool, bool, tuple[str, ...] | None]:
    """Simulate every state once and check both properties on the same columns.

    Computable is the computability rule on every state (`codes._computable`).
    Secure means: given any observable symbol tuple, every message vector is
    still equally likely; the wiretap sets are tabulated one at a time, maximal
    sets first.  Exact but exponential; guarded by the state cap and by
    EXHAUSTIVE_BYTES_LIMIT, both checked before any column is built.

    Returns (computable, secure, first failing wiretap set in family order).
    """
    secure = as_secure(code)
    _check_shapes(secure, net)
    if refusal := _exhaustive_refusal(secure, net, cap):
        raise TooLarge(refusal)
    total = _state_count(secure, net)
    q, rate, ell, s = secure.field.q, secure.rate, secure.ell, net.num_sources
    inputs = _state_columns(secure, net)
    width, n_messages, n_keys = _lane_width(total), q ** (ell * s), q**secure.r
    runs_distinct = _runs_distinct(n_keys, total) if s == 1 and n_keys <= 256 else None
    messages = None  # built at the first view the run test leaves open

    def leaks(cols, wset):
        nonlocal messages
        if runs_distinct and len(wset) == secure.r and runs_distinct(_base_q([cols[eid] for eid in wset], q, 1)):
            return False
        if messages is None:
            messages = _base_q([inputs[i * rate + j] for i in range(s) for j in range(ell)], q, width)
        keys = _base_q([cols[eid] for eid in wset], q, width)
        pairs = _unlanes(keys * n_messages + messages, width, total)
        return not _uniform_given_key(pairs, n_messages)

    cols, ok, failing = _settle(secure, net, fast, inputs, leaks)
    return _computable(message_decoder(secure), net, inputs, cols), ok, failing


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

    The exhaustive pass runs when the states fit under the cap and their
    columns under EXHAUSTIVE_BYTES_LIMIT, or always with `exhaustive` (then
    either excess raises TooLarge).
    Computability is checked once: on every state when the exhaustive pass
    runs, else on the unit inputs the rank route ran, the same verdict.
    """
    if r is not None and r < 0:
        raise NegativeSecurityLevel(f"security level {r} is negative")
    secure = as_secure(code, r)
    _check_shapes(secure, net)
    inputs, cols, secure_rank, failing = _rank_route(secure, net, fast)
    if exhaustive or _exhaustive_refusal(secure, net, cap) is None:
        computable, sec_ex, failing_ex = check_exhaustive(secure, net, fast=fast, cap=cap)
        if failing is None:
            failing = failing_ex
    else:
        computable, sec_ex = _computable(message_decoder(secure), net, inputs, cols), None
    # lower <= upper, so the sweep runs only when ell exceeds the lower bound
    ell, level = secure.ell, secure.r
    return VerifyReport(
        computable=computable,
        secure_rank=secure_rank,
        secure_exhaustive=sec_ex,
        failing_W=failing,
        rate=ell,
        bound_consistent=ell <= lower_bound(net, level) or ell <= upper_bound(net, level).upper,
    )
