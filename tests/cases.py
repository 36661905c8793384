"""Networks and codes that several test modules build.

Test modules import these from here and never from one another, so each test
file collects on its own.  Importing this module builds no code: a case that
needs one is named by its id while pytest collects, and built inside its test
by `column_case`, once per id.
"""

import functools
import random

from snfc import Matrix, construct, fixtures, make_field, make_network, secure_code
from snfc.codes import SumCode
from snfc.network import Network


def parallel_network(n_edges: int) -> Network:
    """One source, no middle nodes and n parallel edges e1 .. en into the sink."""
    return make_network(["s1", "rho"], [(f"e{i + 1}", "s1", "rho") for i in range(n_edges)], ["s1"], "rho")


def two_source_star(seed: int, n_edges: int) -> Network:
    return star_from(random.Random(f"star:{seed}"), n_edges)


def bound_large_stars(seed: int, count: int) -> list[Network]:
    """The first 200-edge stars of the `bound_large` benchmark workload's seed."""
    rng = random.Random(f"bound_large:{seed}")
    return [star_from(rng, 200) for _ in range(count)]


def star_from(rng: random.Random, n_edges: int) -> Network:
    """Two sources, one layer of hubs and a sink.  Every hub has an edge in and
    an edge out; the other edges, parallel ones included, run from a random
    source to a random hub or from a random hub to the sink."""
    sources = ["s1", "s2"]
    hubs = [f"v{i + 1}" for i in range(n_edges // 6)]
    pairs = [(rng.choice(sources), hub) for hub in hubs] + [(hub, "rho") for hub in hubs]
    while len(pairs) < n_edges:
        hub = rng.choice(hubs)
        pairs.append((rng.choice(sources), hub) if rng.random() < 0.5 else (hub, "rho"))
    edges = [(f"e{i + 1}", tail, head) for i, (tail, head) in enumerate(pairs)]
    return make_network([*sources, *hubs, "rho"], edges, sources, "rho")


def source_star(n_sources: int) -> Network:
    """Each source has an edge to one hub and an edge to the sink, and the hub
    has one to the sink: c_min = 2 and c_min_bar sweeps 2^n - 1 source subsets."""
    sources = [f"s{i + 1}" for i in range(n_sources)]
    edges = [("h", "rho")] + [(s, head) for s in sources for head in ("h", "rho")]
    return make_network([*sources, "h", "rho"], [(f"e{i}", *e) for i, e in enumerate(edges)], sources, "rho")


def many_source_network(seed: int, max_edges: int) -> Network:
    """4 to 6 sources, one or two layers of 1 to 3 inner nodes, and the sink.
    Every node but a source has an in-edge from an earlier layer and every node
    but the sink an out-edge to a later one; further edges, parallel ones
    included, run forward up to max_edges edges in all."""
    rng = random.Random(f"many_sources:{seed}")
    layers = [[f"s{i + 1}" for i in range(rng.randint(4, 6))]]
    layers += [[f"v{d}_{i}" for i in range(rng.randint(1, 3))] for d in range(rng.randint(1, 2))]
    layers.append(["rho"])

    def later(d):  # a node of a layer after layer d
        return rng.choice(layers[rng.randint(d + 1, len(layers) - 1)])

    pairs = [(rng.choice(layers[rng.randrange(d)]), v) for d in range(1, len(layers)) for v in layers[d]]
    for d in range(len(layers) - 1):
        pairs += [(v, later(d)) for v in layers[d] if all(tail != v for tail, _ in pairs)]
    while len(pairs) < max_edges:
        d = rng.randrange(len(layers) - 1)
        pairs.append((rng.choice(layers[d]), later(d)))
    edges = [(f"e{i + 1}", tail, head) for i, (tail, head) in enumerate(pairs)]
    return make_network([n for layer in layers for n in layer], edges, layers[0], "rho")


def random_code(field, net, rate, r, rng):
    """A code with uniformly random local rules, decoder and invertible mixing."""
    source_matrices = {
        s: {e.id: tuple(rng.randrange(field.q) for _ in range(rate)) for e in net.out_edges[s]}
        for s in net.sources
    }
    local_coeffs = {}
    for v in net.nodes:
        if v in net.sources or v == net.sink:
            continue
        for e in net.out_edges[v]:
            local_coeffs[e.id] = {d.id: rng.randrange(field.q) for d in net.in_edges[v]}
    decoder = Matrix.build(
        field,
        [[rng.randrange(field.q) for _ in range(rate)] for _ in net.in_edges[net.sink]],
        ncols=rate,
    )
    while True:
        rows = [[rng.randrange(field.q) for _ in range(rate)] for _ in range(rate)]
        mixing = Matrix.build(field, rows)
        if mixing.rank() == rate:
            break
    return secure_code(SumCode(field, rate, source_matrices, local_coeffs, decoder), mixing, r)


# -- the column cases: small codes whose every state the column pass runs ----------------

def _fixture_case(name, net_name):
    return fixtures.code(name), fixtures.network(net_name)


def _random_case(field, net_name, rate, r, key):
    net = fixtures.network(net_name)
    return random_code(field, net, rate, r, random.Random(key)), net


def _constructed_case():
    net = fixtures.network("butterfly")
    return construct(net, 0, field=make_field(3, 1), seed=0), net


def _half_decoder_case():
    code, net = column_case("GF(3^1)-butterfly-r0")
    half = Matrix.build(code.field, [[row[0], 0] for row in code.base.decoder.data])
    base = SumCode(code.field, code.rate, code.base.source_matrices, code.base.local_coeffs, half)
    return secure_code(base, code.mixing, 0), net


def _column_builders():
    # each case's id and the call that builds its (code, network)
    for name, net_name in [("butterfly", "butterfly"), ("butterfly_gf2", "butterfly"), ("n1", "n1")]:
        yield name, functools.partial(_fixture_case, name, net_name)
    for field in (make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(3, 2)):
        for name in ("n1", "butterfly"):
            for seed in range(3):
                key = f"{field!r}:{name}:{seed}"
                yield f"{field!r}-{name}-{seed}", functools.partial(_random_case, field, name, 2, 1, key)
    # GF(256) fills its translate tables with no padding; beyond 256 elements there
    # is no product table and the columns are arrays
    for field in (make_field(2, 8), make_field(257, 1), make_field(2, 9)):
        yield f"{field!r}-fig2", functools.partial(_random_case, field, "fig2", 1, 0, f"{field!r}:fig2")
    # two message sums: a constructed code decodes both, and with its second
    # decoder column zeroed only the first
    yield "GF(3^1)-butterfly-r0", _constructed_case
    yield "GF(3^1)-butterfly-r0-half-decoder", _half_decoder_case


_COLUMN_BUILDERS = dict(_column_builders())
COLUMN_CASE_IDS = list(_COLUMN_BUILDERS)


@functools.cache
def column_case(case_id: str):
    """The (code, network) of column case `case_id`, built on its first use."""
    return _COLUMN_BUILDERS[case_id]()
