"""Seeded random layered DAGs for property tests and oracle experiments."""

from __future__ import annotations

import random
from typing import Iterator

from .network import Network, make_network

MAX_SOURCES = 3
MAX_LAYERS = 3
MAX_WIDTH = 3


def random_network(seed: int, max_edges: int = 12) -> Network:
    """A small valid network: layered, acyclic, every node on a sink path.

    Multi-edges are allowed and appear regularly, matching the model.  The same
    seed always yields the same network.
    """
    rng = random.Random(f"corpus:{seed}")
    n_sources = rng.randint(1, MAX_SOURCES)
    layers: list[list[str]] = [[f"s{i + 1}" for i in range(n_sources)]]
    n_mid_layers = rng.randint(0, MAX_LAYERS - 1)
    node_counter = 0
    for _ in range(n_mid_layers):
        width = rng.randint(1, MAX_WIDTH)
        layer = []
        for _ in range(width):
            node_counter += 1
            layer.append(f"v{node_counter}")
        layers.append(layer)
    layers.append(["rho"])
    nodes = [n for layer in layers for n in layer]
    edges: list[tuple[str, str, str]] = []

    def add_edge(tail: str, head: str) -> None:
        edges.append((f"e{len(edges) + 1}", tail, head))

    # every non-source node needs an in-edge from an earlier layer
    for li in range(1, len(layers)):
        for node in layers[li]:
            tail_layer = layers[rng.randint(0, li - 1)]
            add_edge(rng.choice(tail_layer), node)
    # every non-sink node needs an out-edge to a later layer
    for li in range(len(layers) - 1):
        for node in layers[li]:
            if not any(t == node for _, t, _ in edges):
                head_layer = layers[rng.randint(li + 1, len(layers) - 1)]
                add_edge(node, rng.choice(head_layer))
    # sprinkle extra (possibly parallel) edges up to the budget
    while len(edges) < max_edges and rng.random() < 0.75:
        li = rng.randint(0, len(layers) - 2)
        lj = rng.randint(li + 1, len(layers) - 1)
        add_edge(rng.choice(layers[li]), rng.choice(layers[lj]))
    return make_network(nodes, edges, layers[0], "rho")


def corpus(count: int, base_seed: int = 0, **kwargs) -> Iterator[Network]:
    for i in range(count):
        yield random_network(base_seed + i, **kwargs)
