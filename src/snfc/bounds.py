"""Upper and lower bounds on the secure computing rate, exactness detection, and
an exhaustive brute-force oracle for cross-checking the graph-theoretic path.

The upper bound minimizes, over wiretap sets W of size at most r, the capacity
of the origin-side minimum cut separating the sink from the sources feeding W
once W is deleted.  Restricting the sweep to primary wiretap sets (sets equal to
their own origin-side minimum cut) loses nothing and keeps the enumeration small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .cuts import (
    CutReport,
    ResidualFlow,
    c_min,
    c_min_bar,
    c_min_bar_witness,
    feeding_sources,
    is_primary,
    source_cut_reports,
    source_min_cuts,
)
from .errors import InvariantViolated, NegativeSecurityLevel, TooLarge
from .network import Network, reach_sets

ORACLE_EDGE_LIMIT = 16
CUT_SCAN_LIMIT = 200_000


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

def _omega_reports(net: Network, wiretaps: Iterable[tuple[str, ...]]) -> Iterator[CutReport]:
    """The residual cut of each wiretap set.

    Sets with the same feeding sources share one maximum flow on the intact
    network; each set then costs at most |W| augmenting paths.
    """
    flows: dict[frozenset[str], ResidualFlow] = {}
    for wiretap in wiretaps:
        if not wiretap:
            # no edges removed: the smallest cut over all sources
            yield min(source_cut_reports(net), key=lambda report: report.capacity)
            continue
        feeding = feeding_sources(net, wiretap)
        flow = flows.get(feeding)
        if flow is None:
            flow = flows[feeding] = ResidualFlow(net, sorted(feeding), net.sink)
        yield flow.cut_without(wiretap)


def omega(net: Network, wiretap: Iterable[str]) -> int:
    """Capacity left for the sources feeding the wiretap set once it is removed."""
    (report,) = _omega_reports(net, [net.check_edges(wiretap)])
    return report.capacity


# -- wiretap-set enumeration --------------------------------------------------------

@lru_cache(maxsize=None)
def _primary_sets_of_size(net: Network, k: int) -> tuple[tuple[str, ...], ...]:
    if k == 0:
        return ((),)
    ids = sorted(net.edge_by_id)
    return tuple(c for c in itertools.combinations(ids, k) if is_primary(net, c))


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
    """The exact secure computing rate when one of the closed-form cases applies."""
    _check_level(r)
    cm = c_min(net)
    if r == 0:
        return ExactCapacity(cm, "r_zero")
    cb = c_min_bar(net)
    if r >= cb:
        return ExactCapacity(0, "zero_capacity")
    if cm == cb:
        # r < cb = cm here, so the rate is positive
        return ExactCapacity(cm - r, "cmin_equals_cminbar")
    if r <= cm and _cut_structure_holds(net, r, cm):
        return ExactCapacity(cm - r, "cut_structure")
    return None


def _cut_structure_holds(net: Network, r: int, cm: int) -> bool:
    """Look for a smallest-capacity source whose minimum cut has r edges that no
    outside source can reach."""
    per_source = source_min_cuts(net)
    tight = {s for s, v in per_source.items() if v == cm}
    if not tight:
        return False
    ids = sorted(net.edge_by_id)
    total = 1
    for i in range(cm):
        total = total * (len(ids) - i) // (i + 1)
    if total > CUT_SCAN_LIMIT:
        return False  # give up conservatively; the caller falls back to bounds only
    for combo in itertools.combinations(ids, cm):
        rs = reach_sets(net, combo)
        if not (rs.separated & tight):
            continue
        outside = [s for s in net.sources if s not in rs.separated]
        poisoned = net.edges_reachable_from(outside) if outside else set()
        if sum(1 for eid in combo if eid not in poisoned) >= r:
            return True
    return False


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
        family = primary_wiretap_sets(net, r)  # never empty: it holds the empty set
        best, witness = min(zip(_omega_reports(net, family), family), key=lambda pair: pair[0].capacity)
        upper, witness_cut = best.capacity, best.cut_edges
    if not max(cm - r, 0) <= upper <= cm:
        raise InvariantViolated(f"upper bound {upper} outside [max(c_min - r, 0), c_min] for c_min {cm}")
    exact = exact_capacity(net, r)
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
