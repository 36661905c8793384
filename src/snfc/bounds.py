"""Upper and lower bounds on the secure computing rate, exactness detection, and
an exhaustive brute-force oracle for cross-checking the graph-theoretic path.

The upper bound minimizes, over wiretap sets W of size at most r, the capacity
of the origin-side minimum cut separating the sink from the sources feeding W
once W is deleted.  Restricting the sweep to primary wiretap sets (sets equal to
their own origin-side minimum cut) loses nothing.

A single edge e is a primary set exactly when no other edge lies on every path
from the sources to e (dominates e); one pass in topological order finds these
edges (`cuts._primary_edges`).  Every edge of a primary set W is itself a primary
single edge.  Suppose another edge e' dominates some e in W:

- if e' is not in W, swapping e for e' gives a cut of W with as many edges,
  nearer the sources, so W is not the origin-side minimum cut;
- if e' is in W, every flow path to e crosses e', where it already ends, so
  the maximum flow into W is below |W| and W is not a minimum cut.

So the sets of two or more edges are drawn from the primary single edges only,
and each is still confirmed with one max-flow (`is_primary`).

The sweep runs only the max-flows its answer needs:

- it stops at the floor.  It keeps the first set of least residual cut in
  family order, and no set leaves less than max(c_min - r, 0) (the lower bound
  on the rate is at most the upper one).  So the first set that reaches that
  floor is the witness, and the sets after it are not looked at;
- it confirms lazily.  The family is one stream of candidates per size, each
  in lexicographic order, merged; a candidate of two or more edges gets its
  max-flow only when the sweep reaches it.  Every size is counted first, so
  PRIMARY_SET_LIMIT refuses a family before any max-flow runs;
- the residual cut of a set is cut from the flow to the sink of its feeding
  sources, built once (`cuts.node_flow`) and shared with c_min and c_min_bar.

The lower bound max(c_min - r, 0) is the exact rate in four cases: r = 0,
r >= c_min_bar (rate 0), c_min = c_min_bar, and the cut structure case.  The
last one asks for a minimum cut C of some source with min cut c_min, having r
edges that only sources separated by C can reach.  When
1 <= r < c_min_bar and c_min < c_min_bar, it holds exactly when the upper bound
equals c_min - r, so it is read off the sweep:

- given such a C, let W be those r edges.  The sources feeding W are separated
  by C, and C minus W still separates them once W is deleted, so W leaves at
  most c_min - r and the bound, being at least c_min - r, equals it;
- given a nonempty primary W leaving c_min - r, let D be its residual cut.
  C = D + W separates the sources feeding W with at most c_min edges, and every
  source has min cut at least c_min, so |W| = r, |C| = c_min, each feeding
  source is tight and separated by C, and only those sources reach W.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .cuts import (
    CutReport,
    _primary_edges,
    c_min,
    c_min_bar,
    c_min_bar_witness,
    feeding_sources,
    is_primary,
    node_flow,
    source_cut_reports,
)
from .errors import InvariantViolated, NegativeSecurityLevel, TooLarge
from .network import Network

ORACLE_EDGE_LIMIT = 16
# the cut structure case is reported only while C(|E|, c_min) is at most this;
# lifting the limit would change `exact` on large networks such as the 200-edge
# benchmark stars, whose recorded outputs have it null
CUT_SCAN_LIMIT = 200_000
# candidate primary sets of one size, C(|primary edges|, k), each confirmed by a
# max-flow; more raise TooLarge before any is listed
PRIMARY_SET_LIMIT = 1_000_000


class ExactCapacity(NamedTuple):
    value: int
    reason: str


@dataclass(frozen=True)
class BoundReport:
    r: int
    upper: int
    lower: int
    c_min: int
    c_min_bar: int
    witness_W: tuple[str, ...]
    witness_cut: tuple[str, ...]
    exact: ExactCapacity | None

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "upper": self.upper,
            "lower": self.lower,
            "c_min": self.c_min,
            "c_min_bar": self.c_min_bar,
            "witness_W": list(self.witness_W),
            "witness_cut": list(self.witness_cut),
            "exact": None if self.exact is None else {"value": self.exact.value, "reason": self.exact.reason},
        }


# -- the residual cut statistic ---------------------------------------------------

def _omega_report(net: Network, wiretap: tuple[str, ...]) -> CutReport:
    """The residual cut of a wiretap set.

    Sets with the same feeding sources share one maximum flow on the intact
    network; each set then costs at most |W| augmenting paths.
    """
    if not wiretap:
        # no edges removed: the smallest cut over all sources
        return min(source_cut_reports(net), key=lambda report: report.capacity)
    return node_flow(net, feeding_sources(net, wiretap), net.sink).cut_without(wiretap)


# -- wiretap-set enumeration --------------------------------------------------------

def _count_primary_candidates(net: Network, k: int) -> None:
    count = math.comb(len(_primary_edges(net)), k)
    if count > PRIMARY_SET_LIMIT:
        raise TooLarge(f"{count} candidate primary sets of size {k} exceed the cap {PRIMARY_SET_LIMIT}")


def _primary_stream(net: Network, k: int) -> Iterator[tuple[str, ...]]:
    """The primary sets of size k in lexicographic order, confirmed as they are read.

    Every edge of a primary set is a primary singleton (module docstring), so
    sets of size 0 and 1 need no max-flow.  Count the size first.
    """
    for candidate in itertools.combinations(sorted(_primary_edges(net)), k):
        if k <= 1 or is_primary(net, candidate):
            yield candidate


@lru_cache(maxsize=None)
def _primary_sets_of_size(net: Network, k: int) -> tuple[tuple[str, ...], ...]:
    _count_primary_candidates(net, k)
    return tuple(_primary_stream(net, k))


def primary_wiretap_sets(net: Network, r: int, exact_size: bool = False) -> list[tuple[str, ...]]:
    """All primary wiretap sets of size <= r (or exactly r), lexicographically sorted.

    The empty set is the size-0 wiretap set and is included unless a positive
    exact size is requested.
    """
    _check_level(r)
    sizes = [r] if exact_size else range(r + 1)
    out: list[tuple[str, ...]] = []
    for k in sizes:
        out.extend(_primary_sets_of_size(net, k))
    out.sort()
    return out


# -- bounds ---------------------------------------------------------------------------

def _check_level(r: int) -> None:
    if r < 0:
        raise NegativeSecurityLevel(f"security level {r} is negative")


def lower_bound(net: Network, r: int) -> int:
    _check_level(r)
    return max(c_min(net) - r, 0)


def zero_capacity(net: Network, r: int) -> bool:
    _check_level(r)
    return r >= c_min_bar(net)


def exact_capacity(net: Network, r: int) -> ExactCapacity | None:
    """The exact secure computing rate when one of the closed-form cases applies.

    The first three cases follow from c_min, c_min_bar and r alone.  The cut
    structure case holds exactly when the upper bound equals c_min - r (see the
    module docstring), so it comes from `upper_bound`'s sweep, and only while
    C(|E|, c_min) <= CUT_SCAN_LIMIT.
    """
    return upper_bound(net, r).exact


def upper_bound(net: Network, r: int) -> BoundReport:
    """Best provable ceiling on the secure computing rate at security level r."""
    _check_level(r)
    cm = c_min(net)
    cb = c_min_bar(net)
    if r >= cb:
        witness = c_min_bar_witness(net)
        upper = 0
        witness_cut: tuple[str, ...] = ()
    else:
        sizes = range(1, r + 1)
        for k in sizes:
            _count_primary_candidates(net, k)
        floor = max(cm - r, 0)
        # the empty set comes first in the family (module docstring)
        best, witness = _omega_report(net, ()), ()
        for wiretap in heapq.merge(*(_primary_stream(net, k) for k in sizes)):
            report = _omega_report(net, wiretap)
            if report.capacity < best.capacity:
                best, witness = report, wiretap
                if best.capacity <= floor:
                    break
        upper, witness_cut = best.capacity, best.cut_edges
    if not max(cm - r, 0) <= upper <= cm:
        raise InvariantViolated(f"upper bound {upper} outside [max(c_min - r, 0), c_min] for c_min {cm}")
    if r == 0:
        exact: ExactCapacity | None = ExactCapacity(cm, "r_zero")
    elif r >= cb:
        exact = ExactCapacity(0, "zero_capacity")
    elif cm == cb:
        # r < cb = cm here, so the rate is positive
        exact = ExactCapacity(cm - r, "cmin_equals_cminbar")
    elif r <= cm and upper == cm - r and math.comb(len(net.edges), cm) <= CUT_SCAN_LIMIT:
        exact = ExactCapacity(cm - r, "cut_structure")
    else:
        exact = None
    if exact is not None and not max(cm - r, 0) <= exact.value <= upper:
        raise InvariantViolated(f"exact capacity {exact.value} outside [max(c_min - r, 0), {upper}]")
    return BoundReport(
        r=r,
        upper=upper,
        lower=lower_bound(net, r),
        c_min=cm,
        c_min_bar=cb,
        witness_W=witness,
        witness_cut=witness_cut,
        exact=exact,
    )


# -- brute-force oracle -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _oracle_cut_stats(net: Network) -> tuple[tuple[int, int], ...]:
    """For every cut set C: (|C|, number of edges of C fed only by separated sources)."""
    ids = list(net.order)
    n = len(ids)
    index = {eid: i for i, eid in enumerate(ids)}
    out_arcs: dict[str, list[tuple[int, str]]] = {node: [] for node in net.nodes}
    for eid in ids:
        e = net.edge_by_id[eid]
        out_arcs[e.tail].append((index[eid], e.head))
    # per-edge bitmask of sources that can reach it
    feeders = [0] * n
    for si, s in enumerate(net.sources):
        reach = net.nodes_reachable_from([s])
        for eid in ids:
            if net.edge_by_id[eid].tail in reach:
                feeders[index[eid]] |= 1 << si
    stats = []
    for mask in range(1, 1 << n):
        separated = 0
        for si, s in enumerate(net.sources):
            stack = [s]
            seen = {s}
            alive = False
            while stack:
                u = stack.pop()
                if u == net.sink:
                    alive = True
                    break
                for ei, head in out_arcs[u]:
                    if not mask >> ei & 1 and head not in seen:
                        seen.add(head)
                        stack.append(head)
            if not alive:
                separated |= 1 << si
        if not separated:
            continue
        size = mask.bit_count()
        avail = sum(
            1
            for ei in range(n)
            if mask >> ei & 1 and feeders[ei] | separated == separated
        )
        stats.append((size, avail))
    return tuple(stats)


def upper_bound_oracle(net: Network, r: int) -> int:
    """Direct minimization over all (wiretap set, cut set) pairs; exponential in |E|."""
    if len(net.edges) > ORACLE_EDGE_LIMIT:
        raise TooLarge(f"oracle limited to {ORACLE_EDGE_LIMIT} edges")
    return min(size - min(r, avail) for size, avail in _oracle_cut_stats(net))
