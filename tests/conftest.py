import pytest

from snfc import fixtures, make_network


@pytest.fixture
def n1():
    return fixtures.network("n1")


@pytest.fixture
def butterfly():
    return fixtures.network("butterfly")


@pytest.fixture
def fig2():
    return fixtures.network("fig2")


@pytest.fixture
def line():
    return make_network(
        ["s1", "v", "rho"],
        [("e1", "s1", "v"), ("e2", "v", "rho")],
        ["s1"],
        "rho",
    )


@pytest.fixture
def cut_structure():
    # s1 is the tight source (min cut 2 through shared relays, out-degree 3);
    # the minimum cut {e3, e7} has one edge (e3) that s2 cannot reach, so the
    # cut structure condition holds at r = 1 even though c_min < c_min_bar
    return make_network(
        ["s1", "s2", "w1", "w2", "w3", "rho"],
        [
            ("e1", "s1", "w1"),
            ("e2", "s1", "w1"),
            ("e3", "s1", "w2"),
            ("e4", "s2", "w1"),
            ("e5", "s2", "w2"),
            ("e6", "s2", "w3"),
            ("e7", "w1", "rho"),
            ("e8", "w2", "rho"),
            ("e9", "w3", "rho"),
        ],
        ["s1", "s2"],
        "rho",
    )
