"""Second routes to what the package computes, kept for the tests to compare.

The package has one implementation of each object; these are the independent
(or plainer) versions the tests hold it against.  Nothing in `snfc` calls them.

- `reachable`: plain reachability with some edges deleted, for brute-force cut
  oracles;
- `reach_sets`: the feeding / separated / leaking source partition of an edge
  set, by reachability;
- `omega`: the residual cut of one wiretap set, through the production
  `bounds._omega_report`;
- `full_sweep`: the upper bound's witness from the residual cut of every
  primary wiretap set, against `bounds.upper_bound`, which stops at the floor
  and confirms candidates lazily;
- `transfer_global_vectors`: global encoding vectors from the closed-form
  transfer matrix (I - A)^-1, against the propagation in `codes.global_vectors`;
- `simulate`: one full source input pushed through the local rules edge by edge,
  against the column pass in `verify.check_exhaustive`;
- `first_leak`: every maximal wiretap set tested, then the family scanned in
  order, with no sharing between sets that see alike, against
  `verify._first_leak`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from snfc.bounds import _omega_report, primary_wiretap_sets
from snfc.cuts import CutReport
from snfc.codes import SecureCode, SumCode, _propagation_plan
from snfc.errors import InvariantViolated
from snfc.gf import Matrix
from snfc.network import Network
from snfc.verify import _maximal_sets


# -- reachability ----------------------------------------------------------------

def reachable(net: Network, starts: Iterable[str], removed: frozenset[str] = frozenset()) -> set[str]:
    """Nodes reachable from `starts` without using an edge in `removed`."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        n = stack.pop()
        for e in net.out_edges[n]:
            if e.id not in removed and e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return seen


class ReachSets(NamedTuple):
    feeding: frozenset[str]      # sources with a path to some edge of the set
    separated: frozenset[str]    # sources disconnected from the sink once the set is deleted
    leaking: frozenset[str]      # feeding minus separated


def reach_sets(net: Network, edge_set: Iterable[str]) -> ReachSets:
    """The three source partitions induced by an edge set."""
    ids = net.check_edges(edge_set)
    tails = {net.edge_by_id[eid].tail for eid in ids}
    upstream = net.nodes_reaching(tails) if tails else set()
    feeding = frozenset(s for s in net.sources if s in upstream)
    removed = frozenset(ids)
    separated = frozenset(
        s for s in net.sources if net.sink not in reachable(net, [s], removed)
    )
    if not separated <= feeding:
        raise InvariantViolated("separated sources must feed the deleted set")
    return ReachSets(feeding, separated, frozenset(feeding - separated))


# -- the residual cut statistic ----------------------------------------------------

def omega(net: Network, wiretap: Iterable[str]) -> int:
    """Capacity left for the sources feeding the wiretap set once it is removed."""
    return _omega_report(net, net.check_edges(wiretap)).capacity


def full_sweep(net: Network, r: int) -> tuple[CutReport, tuple[str, ...]]:
    """The least residual cut over all primary wiretap sets of size <= r, with
    its wiretap set; the first such set in family order wins a tie."""
    family = primary_wiretap_sets(net, r)
    return min(zip((_omega_report(net, w) for w in family), family), key=lambda pair: pair[0].capacity)


# -- global encoding vectors -------------------------------------------------------

def transfer_global_vectors(code: SumCode, net: Network) -> dict[str, tuple[int, ...]]:
    """The vectors of `codes.global_vectors` via the closed-form transfer matrix (I - A)^-1.

    Kept as an independent route: the propagation in global_vectors and this
    inversion must agree on every edge.
    """
    field = code.field
    n = len(net.order)
    pos = net.order_index
    a_rows = [[0] * n for _ in range(n)]
    for eid, incoming in code.local_coeffs.items():
        for did, coeff in incoming.items():
            if coeff:
                if pos[did] >= pos[eid]:
                    raise InvariantViolated(
                        f"local coefficient {did!r} -> {eid!r} runs against the edge order"
                    )
                a_rows[pos[did]][pos[eid]] = coeff % field.q
    eye = Matrix.identity(field, n)
    i_minus_a = Matrix.build(field, [
        [field.add(eye.data[i][j], field.neg(a_rows[i][j])) for j in range(n)] for i in range(n)
    ])
    transfer = i_minus_a.inverse()
    blocks: list[Matrix] = []
    for source in net.sources:
        rows = [[0] * n for _ in range(code.rate)]
        for e in net.out_edges[source]:
            col = code.source_column(source, e.id)
            for i in range(code.rate):
                rows[i][pos[e.id]] = col[i]
        blocks.append(Matrix.build(field, rows, n).mul(transfer))
    return {
        eid: tuple(itertools.chain.from_iterable(b.col(pos[eid]) for b in blocks))
        for eid in net.order
    }


# -- per-state simulation ----------------------------------------------------------

def _run_plan(field, plan, inputs) -> list[int]:
    """One state through the plan, symbol by symbol: the reference for `codes._propagate`."""
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


# -- first leaking wiretap set -------------------------------------------------------

def first_leak(family: list[tuple[str, ...]], leaks) -> tuple[bool, tuple[str, ...] | None]:
    """(True, None) when no set of `family` leaks, else (False, the first one that does).

    Every inclusion-maximal set is tested, and on a leak every nonempty set up
    to the first failure, each on its own: the reference for the one test per
    distinct view in `verify._first_leak`.
    """
    if not any(map(leaks, _maximal_sets(family))):
        return True, None
    return False, next(wset for wset in family if wset and leaks(wset))
