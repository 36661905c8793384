"""Second routes to what the package computes, kept for the tests to compare.

The package has one implementation of each object; these are the independent
(or plainer) versions the tests hold it against.  Nothing in `snfc` calls them.

- `node_order`, `order`, `out_edges`, `in_edges` and `validate`: a network's
  topological node order, its edge order, each node's edges in that order and
  the validation checks, all by node name, with sets and dicts of names,
  against the position index that `network.Network` builds once (`_index`);
- `reachable`: plain reachability with some edges deleted, for brute-force cut
  oracles and the tests' reach walks;
- `reach_sets`: the feeding / separated / leaking source partition of an edge
  set, by reachability from each source;
- `matmul`: the matrix product entry by entry, against `Matrix.mul`, which
  takes each product row as one `Echelon.combination` in row form;
- `reduced`: a span's reduced row echelon form as tuples, canonical for the
  span, against `Echelon.back_substituted`, which keeps it in row form;
- `hstack`: two matrices side by side as a tuple `Matrix`, for building
  augmented matrices and joint spans in the tests;
- `solve_right` and `inverse`: the augmented matrix built as a tuple `Matrix`
  (`hstack`, identity columns for an inverse) and read off `reduced` as
  tuples, against `Matrix.solve_right` and `Matrix.inverse`, which reduce the
  augmented rows in `Echelon`'s row form and slice the right-hand part off each
  reduced row;
- `rank_with`: the rank of a span extended by row-form vectors, every vector
  added, against `Echelon.reaches`, which stops once its verdict is known;
- `contains`: whether a span holds a vector, by reducing its row form, for the
  tests' plain scans and walks;
- `max_flow_cut`: the origin-side minimum cut from a general-capacity
  Edmonds–Karp max-flow with a super-source, built from scratch, against the
  unit-arc flow of `cuts.ResidualFlow` and its incremental `cut_without`;
- `primary_edges`: the edges that no other edge dominates, by the plain
  dominance pass that builds every node's set, against `cuts._primary_edges`,
  which skips the sets it can tell are empty;
- `omega_report` and `omega`: the residual cut of one wiretap set and its
  capacity, from a flow built from scratch on `residual(net, W)` out of the
  sources feeding W (`reach_sets`), against the shared flow's incremental
  `cut_without` in `bounds.upper_bound`;
- `full_sweep`: the upper bound's witness from `omega`'s cut of every primary
  wiretap set, against `bounds.upper_bound`, which stops at the floor, skips
  the sets that cannot win and confirms primality last;
- `transfer_global_vectors`: global encoding vectors from the closed-form
  transfer matrix (I - A)^-1, against the propagation in `codes.global_vectors`;
- `multicast_attempts`: the multicast search attempt by attempt: kernels drawn
  row by row, a plan per attempt with its coefficients inline, a plain walk of
  one `Field.combination` per step and `Echelon(field, cols).rank`, against the
  walk by draw position (`Field.propagate`) and the early-stopping rank test of
  `codes.build_reversed_multicast`;
- `simulate`: one full source input pushed through the local rules edge by edge
  (`_run_plan`, one state through a plan, symbol by symbol), against the column
  pass of `codes._run_code` (`Field.propagate`) that `verify.check_exhaustive`
  runs on every state and, read through the message decoder on every state,
  the computability rule it applies;
- `run_lifted`: a lifted code run state by state over the base field, against
  the same-field claim that `codes.lift_extension` rests on: it computes every
  message sum, and no set of at most r edges learns anything of the messages;
- `first_leak`: every maximal wiretap set tested, then the family scanned in
  order, with no sharing between sets that see alike, against
  `verify._first_leak`;
- `scan_avoiding`: the first vector in lexicographic order outside every span,
  each candidate tested against the spans in list order, against the bitmask
  scan of `codes._Candidates`, which reads the first vector outside the spans'
  union off one int;
- `greedy_mixing`: the mixing columns picked one by one with `scan_avoiding`
  over freshly built `Echelon` spans, against `codes.choose_mixing_matrix` in
  its scan regime (q^R <= `codes.SCAN_CAP`);
- `walk_picks`: the subspace-avoidance walk over one `Echelon` per obstacle,
  each vector tried reduced afresh against every span, each multiple of a move
  tried in turn and each pick added by a second reduction, against
  `codes._walk_picks`, which shares prefixes, keeps residues and finds every
  blocked multiple of a move in one pass.

One test fixture lives here too, since only the tests use it:
`butterfly_sum_code_gf2`, the butterfly's GF(4) sum code read over GF(2).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Iterable, NamedTuple

from snfc.bounds import primary_wiretap_sets
from snfc.cuts import CutReport, min_cut, residual
from snfc import codes
from snfc.codes import LiftedCode, SecureCode, SumCode, _propagation_plan
from snfc.errors import (
    Cycle,
    InvariantViolated,
    MalformedInput,
    SinkHasOutEdge,
    SourceHasInEdge,
    UnknownNode,
    UnreachableSink,
)
from snfc import fixtures
from snfc.gf import Echelon, Field, Matrix, make_field
from snfc.network import Network
from snfc.verify import _maximal_sets


# -- the network's rules by node name -------------------------------------------------

def node_order(net: Network) -> tuple[str, ...]:
    """Kahn's topological order, each step taking the ready node listed first in `nodes`."""
    position = {n: i for i, n in enumerate(net.nodes)}
    indegree = {n: 0 for n in net.nodes}
    succ: dict[str, list[str]] = {n: [] for n in net.nodes}
    for e in net.edges:
        indegree[e.head] += 1
        succ[e.tail].append(e.head)
    ready = [position[n] for n in net.nodes if indegree[n] == 0]  # a heap of positions
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        n = net.nodes[heapq.heappop(ready)]
        out.append(n)
        for h in succ[n]:
            indegree[h] -= 1
            if indegree[h] == 0:
                heapq.heappush(ready, position[h])
    if len(out) != len(net.nodes):
        raise Cycle("graph contains a directed cycle")
    return tuple(out)


def order(net: Network) -> tuple[str, ...]:
    """The edges sorted, stably, by their tail: a source by its place in
    `sources`, any other node after every source by its place in `node_order`."""
    first = {s: i for i, s in enumerate(net.sources)}
    node_pos = {n: len(first) + i for i, n in enumerate(node_order(net))}
    return tuple(e.id for e in sorted(net.edges, key=lambda e: first.get(e.tail, node_pos[e.tail])))


def out_edges(net: Network) -> dict[str, tuple]:
    """Each node's out-edges, in `order`."""
    by_id = {e.id: e for e in net.edges}
    out: dict[str, list] = {n: [] for n in net.nodes}
    for eid in order(net):
        out[by_id[eid].tail].append(by_id[eid])
    return {n: tuple(v) for n, v in out.items()}


def in_edges(net: Network) -> dict[str, tuple]:
    """Each node's in-edges, in `order`."""
    by_id = {e.id: e for e in net.edges}
    out: dict[str, list] = {n: [] for n in net.nodes}
    for eid in order(net):
        out[by_id[eid].head].append(by_id[eid])
    return {n: tuple(v) for n, v in out.items()}


def validate(net: Network) -> None:
    """Every check of a network, in this order: the node lists, then each edge
    in file order, the cycle, orphan nodes and nodes with no path to the sink,
    each in `nodes` order."""
    names = set(net.nodes)
    if len(names) != len(net.nodes):
        raise MalformedInput("duplicate node ids")
    if not net.sources:
        raise MalformedInput("at least one source is required")
    for s in net.sources:
        if s not in names:
            raise UnknownNode(f"source {s!r} not among nodes")
    if net.sink not in names:
        raise UnknownNode(f"sink {net.sink!r} not among nodes")
    if net.sink in net.sources:
        raise MalformedInput("the sink cannot be a source")
    if len(set(net.sources)) != len(net.sources):
        raise MalformedInput("duplicate sources")
    seen_ids = set()
    for e in net.edges:
        if e.id in seen_ids:
            raise MalformedInput(f"duplicate edge id {e.id!r}")
        seen_ids.add(e.id)
        if e.tail not in names or e.head not in names:
            raise UnknownNode(f"edge {e.id!r} references an unknown node")
        if e.head in net.sources:
            raise SourceHasInEdge(f"edge {e.id!r} enters source {e.head!r}")
        if e.tail == net.sink:
            raise SinkHasOutEdge(f"edge {e.id!r} leaves the sink")
    node_order(net)  # raises Cycle on failure
    heads = {e.head for e in net.edges}
    for n in net.nodes:
        if n not in heads and n not in net.sources and n != net.sink:
            raise MalformedInput(f"node {n!r} has no in-edges but is not a source")
    can_reach_sink = {net.sink}
    stack = [net.sink]
    ins = in_edges(net)
    while stack:
        for e in ins[stack.pop()]:
            if e.tail not in can_reach_sink:
                can_reach_sink.add(e.tail)
                stack.append(e.tail)
    for n in net.nodes:
        if n != net.sink and n not in can_reach_sink:
            raise UnreachableSink(f"node {n!r} has no path to the sink")


# -- reachability ----------------------------------------------------------------

def reachable(net: Network, starts: Iterable[str], removed: frozenset[str] = frozenset()) -> set[str]:
    """Nodes reachable from `starts` without using an edge in `removed`."""
    seen = set(starts)
    stack = list(seen)
    outs: dict[str, list] = {n: [] for n in net.nodes}
    for e in net.edges:
        outs[e.tail].append(e)
    while stack:
        n = stack.pop()
        for e in outs[n]:
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
    feeding = frozenset(s for s in net.sources if tails & reachable(net, [s]))
    removed = frozenset(ids)
    separated = frozenset(
        s for s in net.sources if net.sink not in reachable(net, [s], removed)
    )
    if not separated <= feeding:
        raise InvariantViolated("separated sources must feed the deleted set")
    return ReachSets(feeding, separated, frozenset(feeding - separated))


# -- matrix product ------------------------------------------------------------------

def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b entry by entry: each row of a times b as a sum of b's rows, skipping
    zeros on both sides."""
    f = a.field
    out = []
    for row in a.data:
        acc = [0] * b.ncols
        for x, b_row in zip(row, b.data):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] = f.add(acc[j], f.mul(x, y))
        out.append(tuple(acc))
    return Matrix(f, tuple(out), b.ncols)


# -- linear solves -------------------------------------------------------------------

def reduced(span: Echelon) -> tuple[tuple[int, ...], ...]:
    """The reduced row echelon form of `span` as tuples, rows in pivot order: each row
    reduced by the already reduced rows of larger pivot, then unpacked.  It is canonical
    for the span: two generating sets give equal results exactly when they span the
    same space."""
    done = Echelon(span.field)
    done._width = span._width
    for p in sorted(span.rows, reverse=True):
        done.rows[p] = done.outside(span.rows[p])  # the rows are independent: never None
    return tuple(map(done.vector, reversed(done.rows.values())))


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """[a | b]: each row of a followed by the same row of b."""
    if a.field != b.field or a.nrows != b.nrows:
        raise ValueError(f"hstack {a.shape} | {b.shape}")
    return Matrix(a.field, tuple(map(tuple.__add__, a.data, b.data)), a.ncols + b.ncols)


def solve_right(a: Matrix, rhs: Matrix) -> Matrix | None:
    """X with a @ X = rhs, free variables zero, or None when inconsistent: the
    reduced row echelon form of the tuple matrix [a | rhs], read row by row."""
    n = a.ncols
    span = Echelon(a.field, hstack(a, rhs).data)
    if any(p >= n for p in span.rows):
        return None
    out = [(0,) * rhs.ncols] * n
    for p, row in zip(sorted(span.rows), reduced(span)):
        out[p] = row[n:]
    return Matrix(a.field, tuple(out), rhs.ncols)


def inverse(a: Matrix) -> Matrix | None:
    """The inverse of the square a, or None when a is singular."""
    n = a.nrows
    return solve_right(a, Matrix(a.field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n))


def rank_with(span: Echelon, xs) -> int:
    """The rank of `span` extended by the row-form xs, each added in turn to a copy,
    against `Echelon.reaches`, which stops once its verdict is known."""
    return span.rank + sum(map(span.copy().add_row, xs))


def contains(span: Echelon, v) -> bool:
    return span.outside(span.row(v)) is None


# -- maximum flow --------------------------------------------------------------------

INF = 1 << 30


def max_flow_cut(net: Network, origin: Iterable[str], target) -> CutReport:
    """The origin-side minimum cut from a general-capacity Edmonds–Karp max-flow,
    built from scratch (Edmonds and Karp, 1972).

    A super-source feeds each origin node through an arc of capacity INF.  Each
    target edge (a node target stands for its in-edges) runs from its tail into
    a super-sink.  Every shortest augmenting path carries its bottleneck, found
    by a walk back along the path.
    """
    targets = {e.id for e in net.in_edges[target]} if isinstance(target, str) else set(target)
    idx = {n: i for i, n in enumerate(net.nodes)}
    s_star, t_star = len(idx), len(idx) + 1
    arcs = [
        (idx[e.tail], t_star if e.id in targets else idx[e.head], 1)
        for e in map(net.edge_by_id.__getitem__, net.order)
    ]
    arcs += [(s_star, idx[n], INF) for n in origin]
    adj: list[list[int]] = [[] for _ in range(len(idx) + 2)]
    for i, (u, v, _) in enumerate(arcs):
        adj[u].append(2 * i)
        adj[v].append(2 * i + 1)
    to = [x for u, v, _ in arcs for x in (v, u)]
    cap = [x for _, _, c in arcs for x in (c, 0)]
    value = 0
    while True:
        parent_arc = {s_star: -1}
        queue = [s_star]
        while queue and t_star not in parent_arc:
            nxt = []
            for u in queue:
                for a in adj[u]:
                    if cap[a] > 0 and to[a] not in parent_arc:
                        parent_arc[to[a]] = a
                        nxt.append(to[a])
            queue = nxt
        if t_star not in parent_arc:
            break
        path = []
        v = t_star
        while v != s_star:
            path.append(parent_arc[v])
            v = to[parent_arc[v] ^ 1]
        bottleneck = min(cap[a] for a in path)
        for a in path:
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
        value += bottleneck
    cut = sorted(
        eid
        for i, eid in enumerate(net.order)
        if to[2 * i + 1] in parent_arc and to[2 * i] not in parent_arc and cap[2 * i + 1]
    )
    side = sorted(n for n in net.nodes if idx[n] in parent_arc)
    return CutReport(value, tuple(cut), tuple(side))


def primary_edges(net: Network) -> frozenset[str]:
    """The edges e with {e} primary: dom[v], the edges on every source path to
    v, is the intersection over v's in-edges e of dom[tail(e)] plus e, built
    for every node in topological order; e is primary when dom[tail(e)] is empty."""
    dom = {s: frozenset() for s in net.sources}
    ins = in_edges(net)
    for v in node_order(net):
        if v not in dom:
            dom[v] = frozenset.intersection(*(dom[e.tail] | {e.id} for e in ins[v]))
    return frozenset(e.id for e in net.edges if not dom[e.tail])


# -- the residual cut statistic ----------------------------------------------------

def omega_report(net: Network, wiretap: Iterable[str]) -> CutReport:
    """The origin-side minimum cut from the sources feeding the wiretap set to
    the sink once the set is removed, each flow built from scratch on the
    residual network.  The empty set feeds no source and removes no edge: its
    cut is the smallest single-source cut, the first in source order on a tie."""
    ids = net.check_edges(wiretap)
    rest = residual(net, ids)
    origins = [reach_sets(net, ids).feeding] if ids else [[s] for s in net.sources]
    return min((min_cut(rest, origin, net.sink) for origin in origins), key=lambda report: report.capacity)


def omega(net: Network, wiretap: Iterable[str]) -> int:
    """Capacity left for the sources feeding the wiretap set once it is removed."""
    return omega_report(net, wiretap).capacity


def full_sweep(net: Network, r: int) -> tuple[CutReport, tuple[str, ...]]:
    """The least residual cut over all primary wiretap sets of size <= r, with
    its wiretap set; the first such set in family order wins a tie."""
    family = primary_wiretap_sets(net, r)
    return min(zip((omega_report(net, w) for w in family), family), key=lambda pair: pair[0].capacity)


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
        eid: tuple(itertools.chain.from_iterable(b.columns()[pos[eid]] for b in blocks))
        for eid in net.order
    }


# -- multicast search --------------------------------------------------------------

def multicast_attempts(net: Network, rate: int, field: Field, draw) -> list[tuple[dict, dict, bool]]:
    """The multicast search on packed columns, until an attempt is accepted or
    `codes.MULTICAST_ATTEMPTS` have run.

    Each attempt draws every kernel entry with `draw(q)`, node by node and row by
    row, builds its plan from the rows with each tap's coefficient inline, walks
    the reversed network from the packed unit columns with one `Field.combination`
    per step, and is accepted when every source's columns have
    `Echelon(field, cols).rank == rate`.  Per attempt: the kernel rows of each
    node, each walked edge's column as a tuple, and the verdict.
    """
    units = [field.pack(int(t == k) for t in range(rate)) for k in range(rate)]
    walk = tuple(reversed(net.order))
    step = {eid: rate + p for p, eid in enumerate(walk)}
    attempts = []
    for _ in range(codes.MULTICAST_ATTEMPTS):
        rows = {}
        for v in net.nodes:
            if v not in net.sources:
                n_rows = rate if v == net.sink else len(net.out_edges[v])
                rows[v] = [tuple(draw(field.q) for _ in net.in_edges[v]) for _ in range(n_rows)]
        plan = []
        for eid in walk:
            v = net.edge_by_id[eid].head
            feeds = range(rate) if v == net.sink else [step[d.id] for d in net.out_edges[v]]
            j = [e.id for e in net.in_edges[v]].index(eid)
            plan.append([(idx, row[j]) for idx, row in zip(feeds, rows[v])])
        walked = list(units)
        for taps in plan:
            walked.append(field.combination([(c, walked[idx]) for idx, c in taps], rate))
        cols = dict(zip(walk, walked[rate:]))
        accepted = all(Echelon(field, [cols[e.id] for e in net.out_edges[s]]).rank == rate for s in net.sources)
        attempts.append((rows, {eid: tuple(col) for eid, col in cols.items()}, accepted))
        if accepted:
            break
    return attempts


# -- per-state simulation ----------------------------------------------------------

def _run_plan(field, plan, inputs) -> list[int]:
    """One state through a plan of (index, coefficient) taps, symbol by symbol: the
    reference for `Field.propagate`, which walks every state at once."""
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
    mixed = [Matrix.build(code.field, [row], ncols=code.rate).mul(binv).data[0] for row in inputs]
    y = _run_plan(code.field, _propagation_plan(net, code.base), [x for row in mixed for x in row])
    return {eid: y[i] for i, eid in enumerate(net.order)}


# -- lifted codes ------------------------------------------------------------------

def run_lifted(lifted: LiftedCode, net: Network) -> tuple[bool, bool]:
    """(computable, secure) of a lifted code at its security level r, state by state over GF(p).

    A symbol is L = lifted.n base symbols, and block (i, j) of a matrix maps the
    i-th input's symbol to its part of the j-th output, as the `LiftedCode`
    docstring states.  Each source holds R = lifted.rate + lifted.r symbols, the message
    ones first.  Computable: on every state, decoder output j is the sum over the
    sources of their message symbol j.  Secure: for every set of at most r edges,
    the r * L base symbols it sees are independent of the messages.
    """
    p, L, ell, r = lifted.base_prime, lifted.n, lifted.rate, lifted.r
    R, sources = ell + r, list(net.sources)

    def block(mat: Matrix, i: int, j: int) -> list[tuple[int, ...]]:
        return [row[j * L : (j + 1) * L] for row in mat.data[i * L : (i + 1) * L]]

    def apply(terms) -> tuple[int, ...]:
        out = [0] * L
        for rows, symbol in terms:
            for a, row in enumerate(rows):
                out[a] += sum(x * y for x, y in zip(row, symbol))
        return tuple(x % p for x in out)

    sink_in = [e.id for e in net.in_edges[net.sink]]
    family = [w for k in range(1, r + 1) for w in itertools.combinations(net.order, k)]
    views: list[Counter] = [Counter() for _ in family]
    messages: Counter = Counter()
    computable = True
    for flat in itertools.product(range(p), repeat=len(sources) * R * L):
        x = {s: [flat[(i * R + k) * L : (i * R + k + 1) * L] for k in range(R)] for i, s in enumerate(sources)}
        y: dict[str, tuple[int, ...]] = {}
        for eid in net.order:
            tail = net.edge_by_id[eid].tail
            if tail in x:
                mat = lifted.source_matrices[tail][eid]
                y[eid] = apply((block(mat, k, 0), x[tail][k]) for k in range(R))
            else:
                incoming = lifted.local_matrices.get(eid, {})
                y[eid] = apply((block(mat, 0, 0), y[did]) for did, mat in incoming.items())
        for j in range(ell):
            decoded = apply((block(lifted.decoder, i, j), y[eid]) for i, eid in enumerate(sink_in))
            computable = computable and decoded == tuple(sum(col) % p for col in zip(*(x[s][j] for s in sources)))
        message = tuple(itertools.chain.from_iterable(x[s][:ell] for s in sources))
        messages[message] += 1
        for counts, wset in zip(views, family):
            counts[tuple(y[eid] for eid in wset), message] += 1
    n_messages = len(messages)
    secure = True
    for counts in views:
        seen = Counter()
        for (view, _), c in counts.items():
            seen[view] += c
        # independent: every view seen meets every message, each as often
        secure = secure and len(counts) == len(seen) * n_messages and all(
            c * n_messages == seen[view] for (view, _), c in counts.items()
        )
    return computable, secure


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


# -- mixing-column scan ----------------------------------------------------------------

def scan_avoiding(field: Field, spans: list[Echelon], dim: int) -> tuple[int, ...] | None:
    """The lexicographically first vector of length `dim` in no span, or None."""
    for cand in itertools.product(field.elements(), repeat=dim):
        if not any(contains(s, cand) for s in spans):
            return cand
    return None


def greedy_mixing(code: SumCode, r: int, family: list[tuple[str, ...]], net: Network) -> Matrix | None:
    """B by the plain greedy of `codes.choose_mixing_matrix`, or None where a
    position has no admissible column.  Every position avoids the span of the
    columns chosen so far; one before rate - r also avoids, per wiretap set and
    source, the span of the observed columns plus the chosen ones."""
    field, rate = code.field, code.rate
    vectors = codes.global_vectors(code, net)
    observed = [
        [vectors[eid][i * rate : (i + 1) * rate] for eid in wset]
        for wset in family
        for i in range(net.num_sources)
    ]
    chosen: list[tuple[int, ...]] = []
    for j in range(rate):
        spans = [Echelon(field, chosen)]
        if j < rate - r:
            spans += [Echelon(field, cols + chosen) for cols in observed]
        pick = scan_avoiding(field, spans, rate)
        if pick is None:
            return None
        chosen.append(pick)
    return Matrix.from_columns(field, chosen, nrows=rate)


# -- mixing-column walk ----------------------------------------------------------------

def first_outside(span: Echelon, dim: int) -> tuple[int, ...]:
    for i in range(dim):
        basis = tuple(1 if k == i else 0 for k in range(dim))
        if not contains(span, basis):
            return basis
    raise InvariantViolated("a proper subspace misses some standard basis vector")


def vector_avoiding(field: Field, spans: list[Echelon], dim: int) -> tuple[int, ...] | None:
    """A vector outside every span, by a deterministic subspace-avoidance walk
    (move along a line out of each offending span), or None.  The walk succeeds
    whenever the field outgrows the span count."""
    if any(s.rank >= dim for s in spans):
        return None
    v = first_outside(spans[0], dim)
    passed = [spans[0]]
    for span in spans[1:]:
        if contains(span, v):
            w = first_outside(span, dim)
            for lam in range(1, field.q):
                cand = tuple(field.add(a, field.mul(lam, b)) for a, b in zip(v, w))
                if not contains(span, cand) and not any(contains(p, cand) for p in passed):
                    v = cand
                    break
            else:
                return None
        passed.append(span)
    return v


def walk_picks(field: Field, rate: int, r: int, obstacles: list[tuple]):
    """The walk's mixing columns, position by position, over `Echelon` spans that
    receive every chosen column they are read with; None where the walk fails."""
    observed = [Echelon(field, cols) for cols in obstacles]
    chosen_span = Echelon(field)
    for j in range(rate):
        active = (observed or [chosen_span]) if j < rate - r else [chosen_span]
        pick = vector_avoiding(field, active, rate)
        yield pick
        chosen_span.add(pick)
        if j + 1 < rate - r:  # the obstacle spans are read only at the positions before rate - r
            for span in observed:
                span.add(pick)


# -- fixtures ----------------------------------------------------------------------------

def butterfly_sum_code_gf2() -> SumCode:
    """The butterfly fixture's sum code with the same coefficients read over GF(2);
    every entry is 0 or 1."""
    gf2 = make_field(2, 1)
    base = fixtures.code("butterfly").base
    return SumCode(
        gf2,
        base.rate,
        base.source_matrices,
        base.local_coeffs,
        Matrix.build(gf2, base.decoder.data, ncols=base.decoder.ncols),
    )
