"""Built-in networks and codes used by the CLI and the test suite.

Three networks ship with the package: ``n1`` (two sources sharing a relay, one
source with a direct sink edge), ``butterfly`` (two sources, two relay chains,
rate-2 sum capacity), and ``fig2`` (a single-source relay chain with a detour,
used for cut queries).  ``n1`` and ``butterfly`` carry admissible secure codes at security
level 1; ``butterfly_gf2`` is a hand-built binary code on the butterfly whose
key flow cancels before the sink, which no mixing-matrix construction produces.
"""

from __future__ import annotations

from .codes import SecureCode, SumCode, load_code
from .network import Network, network_from_dict

_NETWORKS = {
    "n1": {
        "nodes": ["s1", "s2", "v3", "rho"],
        "sources": ["s1", "s2"],
        "sink": "rho",
        "edges": [
            {"id": "e1", "tail": "s1", "head": "v3"},
            {"id": "e2", "tail": "s1", "head": "v3"},
            {"id": "e3", "tail": "s2", "head": "v3"},
            {"id": "e4", "tail": "s2", "head": "rho"},
            {"id": "e5", "tail": "v3", "head": "rho"},
        ],
    },
    "butterfly": {
        "nodes": ["s1", "s2", "v3", "v4", "v5", "v6", "rho"],
        "sources": ["s1", "s2"],
        "sink": "rho",
        "edges": [
            {"id": "e1", "tail": "s1", "head": "v4"},
            {"id": "e2", "tail": "s1", "head": "v3"},
            {"id": "e3", "tail": "s2", "head": "v3"},
            {"id": "e4", "tail": "s2", "head": "v5"},
            {"id": "e5", "tail": "v3", "head": "v6"},
            {"id": "e6", "tail": "v6", "head": "v4"},
            {"id": "e7", "tail": "v6", "head": "v5"},
            {"id": "e8", "tail": "v4", "head": "rho"},
            {"id": "e9", "tail": "v5", "head": "rho"},
        ],
    },
    "fig2": {
        "nodes": ["s", "u1", "u2", "v3", "v6", "v5", "v4"],
        "sources": ["s"],
        "sink": "v4",
        "edges": [
            {"id": "e1", "tail": "s", "head": "u1"},
            {"id": "e2", "tail": "s", "head": "u2"},
            {"id": "e3", "tail": "u1", "head": "v3"},
            {"id": "e4", "tail": "u2", "head": "v3"},
            {"id": "e5", "tail": "v3", "head": "v6"},
            {"id": "e6", "tail": "v6", "head": "v4"},
            {"id": "e7", "tail": "v6", "head": "v5"},
            {"id": "e8", "tail": "v5", "head": "v4"},
        ],
    },
}

# n1 at security level 1: each source sends its key on one edge and the masked
# message on the other; the relay folds everything into message1 + key2.
_N1_CODE = {
    "field": "2",
    "modulus": [0, 1],
    "rate": 2,
    "r": 1,
    "sources": ["s1", "s2"],
    "source_matrices": {
        "s1": {"e1": [0, 1], "e2": [1, 1]},
        "s2": {"e3": [0, 1], "e4": [1, 1]},
    },
    "local_coeffs": {"e5": {"e1": 1, "e2": 1, "e3": 1}},
    "B": [[1, 0], [0, 1]],
    "global_vectors": {
        "e1": [0, 1, 0, 0],
        "e2": [1, 1, 0, 0],
        "e3": [0, 0, 0, 1],
        "e4": [0, 0, 1, 1],
        "e5": [1, 0, 0, 1],
    },
    "decoder_D": [[1, 0], [1, 0]],
}

# The rate-2 sum code on the butterfly over GF(4) together with the mixing
# matrix [[1,0],[a,1]]; integer 2 encodes the generator a, 3 encodes 1+a.
_BUTTERFLY_CODE = {
    "field": "2^2",
    "modulus": [1, 1, 1],
    "rate": 2,
    "r": 1,
    "sources": ["s1", "s2"],
    "source_matrices": {
        "s1": {"e1": [1, 1], "e2": [0, 1]},
        "s2": {"e3": [1, 0], "e4": [1, 1]},
    },
    "local_coeffs": {
        "e5": {"e2": 1, "e3": 1},
        "e6": {"e5": 1},
        "e7": {"e5": 1},
        "e8": {"e1": 1, "e6": 1},
        "e9": {"e4": 1, "e7": 1},
    },
    "B": [[1, 0], [2, 1]],
    "global_vectors": {
        "e1": [1, 1, 0, 0],
        "e2": [0, 1, 0, 0],
        "e3": [0, 0, 1, 0],
        "e4": [0, 0, 1, 1],
        "e5": [0, 1, 1, 0],
        "e6": [0, 1, 1, 0],
        "e7": [0, 1, 1, 0],
        "e8": [1, 0, 1, 0],
        "e9": [0, 1, 0, 1],
    },
    "decoder_D": [[1, 0], [0, 1]],
}

# A binary butterfly code at security level 1: source 1's key cancels on the way
# to the sink (edge e7 carries the constant zero), so it is not of the mixed form.
_BUTTERFLY_GF2_CODE = {
    "field": "2",
    "modulus": [0, 1],
    "rate": 2,
    "r": 1,
    "sources": ["s1", "s2"],
    "source_matrices": {
        "s1": {"e1": [1, 1], "e2": [0, 1]},
        "s2": {"e3": [0, 1], "e4": [1, 1]},
    },
    "local_coeffs": {
        "e5": {"e2": 1, "e3": 1},
        "e6": {"e5": 1},
        "e7": {"e5": 0},
        "e8": {"e1": 1, "e6": 1},
        "e9": {"e4": 1, "e7": 1},
    },
    "B": [[1, 0], [0, 1]],
    "global_vectors": {
        "e1": [1, 1, 0, 0],
        "e2": [0, 1, 0, 0],
        "e3": [0, 0, 0, 1],
        "e4": [0, 0, 1, 1],
        "e5": [0, 1, 0, 1],
        "e6": [0, 1, 0, 1],
        "e7": [0, 0, 0, 0],
        "e8": [1, 0, 0, 1],
        "e9": [0, 0, 1, 1],
    },
    "decoder_D": [[1, 0], [1, 0]],
}

_CODES = {
    "n1": ("n1", _N1_CODE),
    "butterfly": ("butterfly", _BUTTERFLY_CODE),
    "butterfly_gf2": ("butterfly", _BUTTERFLY_GF2_CODE),
}


def network_names() -> list[str]:
    return sorted(_NETWORKS)


def code_names() -> list[str]:
    return sorted(_CODES)


def network(name: str) -> Network:
    if name not in _NETWORKS:
        raise KeyError(f"unknown fixture {name!r}; have {network_names()}")
    return network_from_dict(_NETWORKS[name])


def network_dict(name: str) -> dict:
    return dict(_NETWORKS[name])


def _code_entry(name: str) -> tuple[str, dict]:
    if name not in _CODES:
        raise KeyError(f"unknown code fixture {name!r}; have {code_names()}")
    return _CODES[name]


def code(name: str) -> SecureCode:
    net_name, doc = _code_entry(name)
    return load_code(doc, network(net_name))


def code_dict(name: str) -> dict:
    return dict(_code_entry(name)[1])


def code_network_name(name: str) -> str:
    return _code_entry(name)[0]


def butterfly_sum_code() -> SumCode:
    """The underlying GF(4) sum code of the butterfly fixture, without mixing."""
    return code("butterfly").base
