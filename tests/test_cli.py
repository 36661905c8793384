import json
import os
import subprocess
import sys
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import snfc
from snfc import fixtures
from snfc.cli import main
from cases import parallel_network, source_star, two_source_star


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def butterfly_file(tmp_path):
    path = tmp_path / "butterfly.json"
    path.write_text(json.dumps(fixtures.network_dict("butterfly")))
    return str(path)


@pytest.fixture
def n1_file(tmp_path):
    path = tmp_path / "n1.json"
    path.write_text(json.dumps(fixtures.network_dict("n1")))
    return str(path)


@pytest.fixture
def n1_code_file(tmp_path):
    path = tmp_path / "n1_code.json"
    path.write_text(json.dumps(fixtures.code_dict("n1")))
    return str(path)


def test_bound_json(runner, butterfly_file):
    result = runner.invoke(main, ["bound", "--network", butterfly_file, "--r", "1", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["upper"] == 1
    assert payload["lower"] == 1
    assert payload["c_min"] == 2
    assert payload["exact"] == {"value": 1, "reason": "cmin_equals_cminbar"}


def test_bound_with_oracle(runner, butterfly_file):
    result = runner.invoke(
        main, ["bound", "--network", butterfly_file, "--r", "1", "--oracle", "--json"]
    )
    payload = json.loads(result.output)
    assert payload["oracle"] == payload["upper"] == 1


def test_bound_json_is_byte_stable(runner, butterfly_file):
    args = ["bound", "--network", butterfly_file, "--r", "1", "--json"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


@pytest.mark.parametrize(
    "r, expected",
    [
        (1, '{"c_min":2,"c_min_bar":3,"exact":{"reason":"cut_structure","value":1},"lower":1,"r":1,'
            '"upper":1,"witness_W":["e3"],"witness_cut":["e7"]}'),
        (2, '{"c_min":2,"c_min_bar":3,"exact":null,"lower":0,"r":2,'
            '"upper":1,"witness_W":["e1","e2"],"witness_cut":["e3"]}'),
    ],
)
def test_bound_json_cut_structure_is_pinned(runner, cut_structure, tmp_path, r, expected):
    path = tmp_path / "cut_structure.json"
    path.write_text(json.dumps(cut_structure.to_dict()))
    result = runner.invoke(main, ["bound", "--network", str(path), "--r", str(r), "--json"])
    assert result.exit_code == 0, result.output
    assert result.output == expected + "\n"


def test_bound_json_on_a_large_star_is_pinned(runner, tmp_path):
    # 60 edges, 54 of them primary singletons; recorded before primary sets
    # came from edge dominators
    path = tmp_path / "star.json"
    path.write_text(json.dumps(two_source_star(2, 60).to_dict()))
    result = runner.invoke(main, ["bound", "--network", str(path), "--r", "1", "--json"])
    assert result.exit_code == 0, result.output
    assert result.output == (
        '{"c_min":10,"c_min_bar":12,"exact":null,"lower":9,"r":1,"upper":9,"witness_W":["e29"],'
        '"witness_cut":["e13","e38","e4","e40","e5","e57","e6","e8","e9"]}\n'
    )


def test_primary_sets_over_the_cap_are_a_domain_error(runner, monkeypatch, tmp_path):
    # the 60-edge star has 54 primary single edges, so C(54, 2) = 1431 candidate pairs
    path = tmp_path / "star.json"
    path.write_text(json.dumps(two_source_star(2, 60).to_dict()))
    bounds = sys.modules["snfc.bounds"]
    monkeypatch.setattr(bounds, "PRIMARY_SET_LIMIT", 1430)
    result = runner.invoke(main, ["bound", "--network", str(path), "--r", "2", "--json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "TooLarge"


def test_source_subsets_over_the_cap_are_a_domain_error(runner, monkeypatch, tmp_path):
    # four sources: c_min_bar would sweep 15 nonempty source subsets
    path = tmp_path / "star.json"
    path.write_text(json.dumps(source_star(4).to_dict()))
    monkeypatch.setattr(sys.modules["snfc.cuts"], "SOURCE_SUBSET_LIMIT", 14)
    result = runner.invoke(main, ["bound", "--network", str(path), "--r", "1", "--json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "TooLarge"


# -- text mode: the lines printed without --json -----------------------------------------

def test_bound_text_is_pinned(runner, butterfly_file):
    result = runner.invoke(main, ["bound", "--network", butterfly_file, "--r", "1"])
    assert result.exit_code == 0, result.output
    assert result.stdout == (
        "r=1  upper=1  lower=1  c_min=2  c_min_bar=2\n"
        "witness W: ['e1']  witness cut: ['e2']\n"
        "exact capacity: 1 (cmin_equals_cminbar)\n"
    )


def test_cuts_mincut_text_is_pinned(runner, butterfly_file):
    result = runner.invoke(
        main, ["cuts", "mincut", "--network", butterfly_file, "--from", "s1", "--to", "rho"]
    )
    assert result.exit_code == 0, result.output
    assert result.stdout == "capacity: 2\ncut: ['e1', 'e2']\n"


def test_verify_text_names_the_failing_set_and_exits_one(runner, butterfly_file, tmp_path):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    doc["B"] = [[1, 0], [0, 1]]
    path = tmp_path / "unmixed.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["verify", "--network", butterfly_file, "--code", str(path), "--r", "1"]
    )
    assert result.exit_code == 1
    assert result.stdout == (
        "computable: True\n"
        "secure (rank): False\n"
        "secure (exhaustive): False\n"
        "rate: 1  within bound: True\n"
        "failing wiretap set: ['e3']\n"
    )


def test_domain_error_text_goes_to_stderr(runner, butterfly_file):
    result = runner.invoke(main, ["bound", "--network", butterfly_file, "--r", "-1"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: NegativeSecurityLevel: security level -1 is negative\n"


def test_example_fig2_primary_cut(runner):
    result = runner.invoke(
        main,
        ["example", "fig2", "--cuts", "primary", "--sources", "u1,u2", "--edges", "e7,e8", "--json"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"cut": ["e5"]}


def test_example_mincut(runner):
    result = runner.invoke(
        main, ["example", "fig2", "--cuts", "mincut", "--sources", "s", "--to", "v4", "--json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["capacity"] == 1


# Recorded before the cut layer moved to one max-flow engine; source_side,
# witness_cut and the c_min_bar witness printed once r >= c_min_bar all come
# from that engine, so these pins guard every byte of it that the CLI shows.
PINNED_EXAMPLE_OUTPUTS = {
    "n1 --r 0": '{"c_min":1,"c_min_bar":2,"exact":{"reason":"r_zero","value":1},"lower":1,"r":0,"upper":1,"witness_W":[],"witness_cut":["e5"]}',
    "n1 --r 1": '{"c_min":1,"c_min_bar":2,"exact":null,"lower":0,"r":1,"upper":1,"witness_W":[],"witness_cut":["e5"]}',
    "n1 --r 2": '{"c_min":1,"c_min_bar":2,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":2,"upper":0,"witness_W":["e1","e2"],"witness_cut":[]}',
    "n1 --r 3": '{"c_min":1,"c_min_bar":2,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":3,"upper":0,"witness_W":["e1","e2"],"witness_cut":[]}',
    "n1 --cuts mincut --sources s1 --to rho": '{"capacity":1,"cut":["e5"],"source_side":["s1","v3"]}',
    "n1 --cuts mincut --sources s2 --to rho": '{"capacity":2,"cut":["e3","e4"],"source_side":["s2"]}',
    "butterfly --r 0": '{"c_min":2,"c_min_bar":2,"exact":{"reason":"r_zero","value":2},"lower":2,"r":0,"upper":2,"witness_W":[],"witness_cut":["e1","e2"]}',
    "butterfly --r 1": '{"c_min":2,"c_min_bar":2,"exact":{"reason":"cmin_equals_cminbar","value":1},"lower":1,"r":1,"upper":1,"witness_W":["e1"],"witness_cut":["e2"]}',
    "butterfly --r 2": '{"c_min":2,"c_min_bar":2,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":2,"upper":0,"witness_W":["e1","e2"],"witness_cut":[]}',
    "butterfly --r 3": '{"c_min":2,"c_min_bar":2,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":3,"upper":0,"witness_W":["e1","e2"],"witness_cut":[]}',
    "butterfly --cuts mincut --sources s1 --to rho": '{"capacity":2,"cut":["e1","e2"],"source_side":["s1"]}',
    "butterfly --cuts mincut --sources s2 --to rho": '{"capacity":2,"cut":["e3","e4"],"source_side":["s2"]}',
    "fig2 --r 0": '{"c_min":1,"c_min_bar":1,"exact":{"reason":"r_zero","value":1},"lower":1,"r":0,"upper":1,"witness_W":[],"witness_cut":["e5"]}',
    "fig2 --r 1": '{"c_min":1,"c_min_bar":1,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":1,"upper":0,"witness_W":["e5"],"witness_cut":[]}',
    "fig2 --r 2": '{"c_min":1,"c_min_bar":1,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":2,"upper":0,"witness_W":["e5"],"witness_cut":[]}',
    "fig2 --r 3": '{"c_min":1,"c_min_bar":1,"exact":{"reason":"zero_capacity","value":0},"lower":0,"r":3,"upper":0,"witness_W":["e5"],"witness_cut":[]}',
    "fig2 --cuts mincut --sources s --to v4": '{"capacity":1,"cut":["e5"],"source_side":["s","u1","u2","v3"]}',
    # targets with out-edges, recorded before a flow to a node took the node as its sink
    "fig2 --cuts mincut --sources s --to v6": '{"capacity":1,"cut":["e5"],"source_side":["s","u1","u2","v3"]}',
    "butterfly --cuts mincut --sources s1,s2 --to v6": '{"capacity":1,"cut":["e5"],"source_side":["rho","s1","s2","v3","v4","v5"]}',
    "fig2 --cuts primary --sources u1,u2 --edges e7,e8": '{"cut":["e5"]}',
    "butterfly --verify": '{"bound_consistent":true,"computable":true,"failing_W":null,"rate":1,"secure_exhaustive":true,"secure_rank":true}',
    "butterfly --verify --exhaustive": '{"bound_consistent":true,"computable":true,"failing_W":null,"rate":1,"secure_exhaustive":true,"secure_rank":true}',
    "butterfly --verify --fast": '{"bound_consistent":true,"computable":true,"failing_W":null,"rate":1,"secure_exhaustive":true,"secure_rank":true}',
    "n1 --verify --fast": '{"bound_consistent":true,"computable":true,"failing_W":null,"rate":1,"secure_exhaustive":true,"secure_rank":true}',
    "n1 --verify --exhaustive": '{"bound_consistent":true,"computable":true,"failing_W":null,"rate":1,"secure_exhaustive":true,"secure_rank":true}',
    "butterfly --code-name butterfly_gf2 --verify --exhaustive": '{"bound_consistent":true,"computable":true,"failing_W":null,"rate":1,"secure_exhaustive":true,"secure_rank":true}',
}


@pytest.mark.parametrize("query", sorted(PINNED_EXAMPLE_OUTPUTS))
def test_example_json_is_pinned_byte_for_byte(runner, query):
    result = runner.invoke(main, ["example", *query.split(), "--json"])
    assert result.exit_code == 0, result.output
    assert result.output == PINNED_EXAMPLE_OUTPUTS[query] + "\n"


def test_example_summary(runner):
    result = runner.invoke(main, ["example", "butterfly", "--json"])
    payload = json.loads(result.output)
    assert payload["edges"] == 9
    assert "butterfly_gf2" in payload["codes"]


def test_example_show_network(runner):
    result = runner.invoke(main, ["example", "n1", "--show", "network", "--json"])
    assert json.loads(result.output) == fixtures.network_dict("n1")


def test_example_show_code_is_the_embedded_code(runner):
    result = runner.invoke(main, ["example", "butterfly", "--show", "code", "--json"])
    assert_clean_exit(result, 0)
    payload = json.loads(result.output)
    assert payload == fixtures.code_dict("butterfly")
    assert snfc.load_code(payload, fixtures.network("butterfly")).r == 1


@pytest.mark.parametrize(
    "query, message",
    [
        (["--cuts", "primary", "--edges", "e6"], "primary cut queries need --sources and --edges"),
        (["--cuts", "primary", "--sources", "s1,s2"], "primary cut queries need --sources and --edges"),
        (["--cuts", "mincut", "--sources", "s1"], "mincut queries need --sources and --to"),
    ],
    ids=["primary-no-sources", "primary-no-edges", "mincut-no-to"],
)
def test_incomplete_example_cut_query_is_a_usage_error(runner, query, message):
    result = runner.invoke(main, ["example", "butterfly", *query, "--json"])
    assert_clean_exit(result, 2)
    assert message in result.output


def test_example_verify_embedded_code(runner):
    result = runner.invoke(main, ["example", "butterfly", "--verify", "--exhaustive", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["computable"] and payload["secure_rank"] and payload["secure_exhaustive"]


def test_verify_hand_code_exhaustive(runner, n1_file, n1_code_file):
    result = runner.invoke(
        main,
        ["verify", "--network", n1_file, "--code", n1_code_file, "--r", "1", "--exhaustive"],
    )
    assert result.exit_code == 0, result.output


def test_cuts_mincut_command(runner, butterfly_file):
    result = runner.invoke(
        main,
        ["cuts", "mincut", "--network", butterfly_file, "--from", "s1", "--to", "rho", "--json"],
    )
    assert json.loads(result.output)["capacity"] == 2


def test_cuts_primary_command(runner, butterfly_file):
    result = runner.invoke(
        main,
        ["cuts", "primary", "--network", butterfly_file, "--sources", "s1,s2", "--edges", "e6", "--json"],
    )
    assert json.loads(result.output) == {"cut": ["e5"]}


@pytest.mark.parametrize(
    "command",
    [["cuts", "mincut", "--from", ",", "--to", "rho"], ["cuts", "primary", "--sources", ",", "--edges", "e6"]],
    ids=["mincut", "primary"],
)
def test_cuts_with_an_empty_origin_set_are_a_domain_error(runner, butterfly_file, command):
    result = runner.invoke(main, [*command, "--network", butterfly_file, "--json"])
    assert_clean_exit(result, 1)
    assert json.loads(result.output)["error"] == "MalformedInput"


@pytest.mark.parametrize("nodes, sources", [("st", "s"), ({"s": 1, "t": 2}, {"s": 0})], ids=["strings", "objects"])
def test_bound_refuses_nodes_and_sources_that_are_not_arrays(runner, tmp_path, nodes, sources):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": nodes, "sources": sources, "sink": "t", "edges": [{"id": "e", "tail": "s", "head": "t"}]}))
    result = runner.invoke(main, ["bound", "--network", str(path), "--r", "0", "--json"])
    assert_clean_exit(result, 1)
    assert json.loads(result.output)["error"] == "MalformedInput"


def test_construct_verify_round_trip(runner, butterfly_file, tmp_path):
    out = str(tmp_path / "code.json")
    built = runner.invoke(
        main,
        ["construct", "--network", butterfly_file, "--r", "1", "--seed", "3", "--out", out, "--json"],
    )
    assert built.exit_code == 0, built.output
    assert json.loads(built.output)["message_rate"] == 1
    checked = runner.invoke(
        main, ["verify", "--network", butterfly_file, "--code", out, "--r", "1", "--exhaustive"]
    )
    assert checked.exit_code == 0, checked.output


def test_construct_round_trip_is_deterministic(runner, butterfly_file, tmp_path):
    paths = [str(tmp_path / f"code{i}.json") for i in range(2)]
    for p in paths:
        runner.invoke(
            main,
            ["construct", "--network", butterfly_file, "--r", "1", "--seed", "3", "--out", p],
        )
    assert open(paths[0]).read() == open(paths[1]).read()


def test_domain_error_exit_code(runner, n1_file, tmp_path):
    result = runner.invoke(
        main,
        ["construct", "--network", n1_file, "--r", "1", "--out", str(tmp_path / "x.json"), "--json"],
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "RateInfeasible"


def test_usage_error_exit_code(runner, butterfly_file):
    result = runner.invoke(main, ["bound", "--network", butterfly_file])
    assert result.exit_code == 2


def test_negative_security_level_is_a_domain_error(runner, butterfly_file):
    result = runner.invoke(main, ["bound", "--network", butterfly_file, "--r", "-1", "--json"])
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "NegativeSecurityLevel"


def test_negative_security_level_is_rejected_without_asserts(butterfly_file):
    # python -O strips assert statements; the check must not depend on them
    src = os.path.dirname(os.path.dirname(snfc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "snfc.cli", "bound", "--network", butterfly_file, "--r", "-1", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == "NegativeSecurityLevel"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("raw", ["abc", "1.5", "-1"])
def test_bad_state_cap_setting_is_a_domain_error(runner, monkeypatch, butterfly_file, tmp_path, raw):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(fixtures.code_dict("butterfly")))
    monkeypatch.setenv("SNFC_MAX_EXHAUSTIVE", raw)
    result = runner.invoke(
        main, ["verify", "--network", butterfly_file, "--code", str(code_path), "--r", "1", "--json"]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "MalformedInput"


def test_wiretap_family_over_the_cap_is_a_domain_error(runner, monkeypatch, butterfly_file, tmp_path):
    # the butterfly's family at r = 1 is the empty set and nine singletons
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(fixtures.code_dict("butterfly")))
    monkeypatch.setattr(sys.modules["snfc.verify"], "WIRETAP_FAMILY_LIMIT", 9)
    result = runner.invoke(
        main, ["verify", "--network", butterfly_file, "--code", str(code_path), "--r", "1", "--json"]
    )
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "TooLarge"


def test_verify_fails_on_broken_code(runner, butterfly_file, n1_code_file):
    result = runner.invoke(
        main, ["verify", "--network", butterfly_file, "--code", n1_code_file, "--r", "1", "--json"]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "MalformedInput"


def test_verify_exit_one_when_insecure(runner, butterfly_file, tmp_path):
    # strip the mixing matrix: the raw sum code is computable but not secure
    doc = fixtures.code_dict("butterfly")
    doc = json.loads(json.dumps(doc))
    doc["B"] = [[1, 0], [0, 1]]
    path = tmp_path / "unmixed.json"
    path.write_text(json.dumps(doc))
    expected = (
        '{"bound_consistent":true,"computable":true,"failing_W":["e3"],"rate":1,'
        '"secure_exhaustive":false,"secure_rank":false}\n'
    )
    for extra in ([], ["--exhaustive"], ["--fast"], ["--exhaustive", "--fast"]):
        result = runner.invoke(
            main,
            ["verify", "--network", butterfly_file, "--code", str(path), "--r", "1", "--json", *extra],
        )
        assert result.exit_code == 1, extra
        assert result.output == expected, extra


@pytest.mark.parametrize(
    "mixing,expected",
    [
        # the zeroed decoder alone: secure, but the sink recovers nothing
        (None, '{"bound_consistent":true,"computable":false,"failing_W":null,"rate":1,'
               '"secure_exhaustive":true,"secure_rank":true}'),
        # without the mixing matrix as well: e3 leaks the message of source 2
        ([[1, 0], [0, 1]], '{"bound_consistent":true,"computable":false,"failing_W":["e3"],"rate":1,'
                           '"secure_exhaustive":false,"secure_rank":false}'),
    ],
)
def test_verify_exit_one_when_not_computable(runner, butterfly_file, tmp_path, mixing, expected):
    doc = json.loads(json.dumps(fixtures.code_dict("butterfly")))
    doc["decoder_D"] = [[0] * len(row) for row in doc["decoder_D"]]
    if mixing is not None:
        doc["B"] = mixing
    path = tmp_path / "zeroed.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--exhaustive"], ["--fast"]):
        result = runner.invoke(
            main,
            ["verify", "--network", butterfly_file, "--code", str(path), "--r", "1", "--json", *extra],
        )
        assert result.exit_code == 1, extra
        assert result.output == expected + "\n", extra


def test_construct_with_rate_and_field_flags(runner, butterfly_file, tmp_path):
    out = str(tmp_path / "code.json")
    result = runner.invoke(
        main,
        [
            "construct", "--network", butterfly_file, "--r", "1", "--rate", "2",
            "--field", "2^2", "--seed", "5", "--out", out, "--json",
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["field"] == "2^2" and payload["rate"] == 2
    checked = runner.invoke(
        main, ["verify", "--network", butterfly_file, "--code", out, "--r", "1"]
    )
    assert checked.exit_code == 0, checked.output


TWO_PARALLEL_EDGES = parallel_network(2).to_dict()


@pytest.mark.parametrize(
    "network,field,extra,error",
    [
        # odd characteristic: no XOR columns
        ("butterfly", "3", ["--exhaustive"], None),
        ("butterfly", "3^2", ["--exhaustive"], None),
        # beyond 256 elements with a nonempty wiretap set: 257^2 and 512^2 states
        ("parallel", "257", ["--exhaustive"], None),
        ("parallel", "2^9", ["--exhaustive"], None),
        # beyond 256 elements elimination keeps tuple rows; 512^4 states exceed the cap
        ("butterfly", "2^9", [], None),
        # refused at once, before any power or primality work
        ("butterfly", "3^1000000000", [], "DimensionMismatch"),
    ],
    ids=["butterfly-3", "butterfly-3^2", "parallel-257", "parallel-2^9", "butterfly-2^9", "oversize"],
)
def test_construct_verify_round_trip_over_other_fields(runner, tmp_path, network, field, extra, error):
    net_path = tmp_path / "net.json"
    doc = fixtures.network_dict("butterfly") if network == "butterfly" else TWO_PARALLEL_EDGES
    net_path.write_text(json.dumps(doc))
    out = str(tmp_path / "code.json")
    built = runner.invoke(
        main, ["construct", "--network", str(net_path), "--r", "1", "--field", field, "--out", out, "--json"]
    )
    if error is not None:
        assert_clean_exit(built, 1)
        assert json.loads(built.output)["error"] == error
        assert not os.path.exists(out)
        return
    assert_clean_exit(built, 0)
    assert json.loads(built.output)["message_rate"] == 1
    checked = runner.invoke(
        main, ["verify", "--network", str(net_path), "--code", out, "--r", "1", "--json", *extra]
    )
    assert_clean_exit(checked, 0)
    report = json.loads(checked.output)
    assert report["secure_rank"] is True
    assert report["secure_exhaustive"] is (True if extra else None)


@pytest.mark.parametrize("command", ["verify", "example"])
def test_security_level_at_the_code_rate_is_a_shape_mismatch(runner, butterfly_file, tmp_path, command):
    # r = rate leaves no message coordinate: refused, as a code file or construct refuses it
    if command == "verify":
        code_path = tmp_path / "code.json"
        code_path.write_text(json.dumps(fixtures.code_dict("butterfly")))
        args = ["verify", "--network", butterfly_file, "--code", str(code_path)]
    else:
        args = ["example", "butterfly", "--verify"]
    result = runner.invoke(main, [*args, "--r", "2", "--json"])
    assert_clean_exit(result, 1)
    assert json.loads(result.output)["error"] == "ShapeMismatch"


# -- malformed input never ends in a traceback ------------------------------------------

def assert_clean_exit(result, expected=None):
    """Exit 0, 1 or 2 through the CLI's own handling, never an escaped exception."""
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code in ({0, 1, 2} if expected is None else {expected}), result.output


LONG_INT = b'{"junk": 1' + b"0" * 5000 + b"}"


@pytest.mark.parametrize("which", ["network", "code"])
@pytest.mark.parametrize(
    "content",
    [b"not json", b"\xff\xfe\x7b", b"[" * 100_000, LONG_INT],
    ids=["not-json", "not-utf8", "deep", "long-int"],
)
def test_undecodable_file_is_a_domain_error(runner, butterfly_file, tmp_path, which, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    network, code = (str(bad), butterfly_file) if which == "network" else (butterfly_file, str(bad))
    result = runner.invoke(main, ["verify", "--network", network, "--code", code, "--r", "1", "--json"])
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if content is LONG_INT and not 0 < digit_limit < 5001:
        # no digit limit: the literal parses, and the document is refused (or not) on its merits
        assert_clean_exit(result)
        return
    assert_clean_exit(result, 1)
    assert json.loads(result.stdout)["error"] == "MalformedInput"


@pytest.mark.parametrize(
    "command, which",
    [
        (["bound", "--r", "1"], "network"),
        (["cuts", "mincut", "--from", "s1", "--to", "rho"], "network"),
        (["cuts", "primary", "--sources", "s1,s2", "--edges", "e6"], "network"),
        (["construct", "--r", "1", "--out", "code.json"], "network"),
        (["verify", "--r", "1"], "network"),
        (["verify", "--r", "1"], "code"),
    ],
    ids=["bound", "cuts-mincut", "cuts-primary", "construct", "verify-network", "verify-code"],
)
def test_directory_as_input_file_is_a_usage_error(
    runner, butterfly_file, tmp_path, monkeypatch, command, which
):
    monkeypatch.chdir(tmp_path)
    os.mkdir("a_dir")
    args = [*command, "--network", "a_dir" if which == "network" else butterfly_file]
    if command[0] == "verify":
        args += ["--code", "a_dir" if which == "code" else butterfly_file]
    result = runner.invoke(main, [*args, "--json"])
    assert_clean_exit(result, 2)
    assert "is a directory" in result.output


def test_unknown_fixture_is_a_usage_error(runner):
    result = runner.invoke(main, ["example", "nope"])
    assert_clean_exit(result, 2)
    assert "unknown fixture 'nope'" in result.output


@pytest.mark.parametrize("mode", [["--verify"], ["--show", "code"]])
def test_unknown_embedded_code_is_a_usage_error(runner, mode):
    result = runner.invoke(main, ["example", "butterfly", *mode, "--code-name", "nope"])
    assert_clean_exit(result, 2)
    assert "unknown code fixture 'nope'" in result.output


def test_embedded_code_of_another_network_is_a_usage_error(runner):
    result = runner.invoke(main, ["example", "butterfly", "--verify", "--code-name", "n1"])
    assert_clean_exit(result, 2)
    assert "does not belong to network 'butterfly'" in result.output


def test_unwritable_output_path_is_a_usage_error(runner, butterfly_file, tmp_path, monkeypatch):
    """A missing directory, or a directory as the file, exits 2 before
    construct runs and creates nothing."""

    def construct(*args, **kwargs):
        raise AssertionError("construct ran before --out was checked")

    monkeypatch.setattr("snfc.cli.construct", construct)
    (tmp_path / "a_dir").mkdir()
    for target, message in [("missing_dir/x.json", "cannot write"), ("a_dir", "is a directory")]:
        out = str(tmp_path / target)
        result = runner.invoke(main, ["construct", "--network", butterfly_file, "--r", "1", "--out", out, "--json"])
        assert_clean_exit(result, 2)
        assert message in result.output
        assert "--out" in result.output
    assert not (tmp_path / "missing_dir").exists()
    assert (tmp_path / "a_dir").is_dir()


def test_failed_code_write_is_a_usage_error(runner, butterfly_file, tmp_path, monkeypatch):
    """A write that fails after construct, here a full disk, exits 2 with no traceback."""

    def save_code(path, code, net):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("snfc.cli.save_code", save_code)
    out = str(tmp_path / "code.json")
    result = runner.invoke(main, ["construct", "--network", butterfly_file, "--r", "1", "--out", out, "--json"])
    assert_clean_exit(result, 2)
    assert f"cannot write {out}: No space left on device" in result.output


def _mutated_document(data, doc: dict) -> bytes:
    """A fixture document with one random defect, serialized to bytes."""
    doc = json.loads(json.dumps(doc))
    text = json.dumps(doc).encode()
    mutation = data.draw(st.sampled_from(["none", "drop", "retype", "truncate", "bytes"]))
    if mutation == "bytes":
        return data.draw(st.binary(max_size=12))
    if mutation == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    if mutation != "none":
        key = data.draw(st.sampled_from(sorted(doc)))
        if mutation == "drop":
            del doc[key]
        else:
            doc[key] = data.draw(st.sampled_from([None, -1, "x", [], {}, [["x"]]]))
    return json.dumps(doc).encode()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cli_fuzz_exits_cleanly(data):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        network_path = os.path.join(tmp, "net.json")
        code_path = os.path.join(tmp, "code.json")
        with open(network_path, "wb") as fh:
            fh.write(_mutated_document(data, fixtures.network_dict("butterfly")))
        with open(code_path, "wb") as fh:
            fh.write(_mutated_document(data, fixtures.code_dict("butterfly")))
        r = str(data.draw(st.integers(-2, 3)))
        names = st.sampled_from(["s1", "s2", "rho", "e1", "e6", "e9", "nope", ""])
        args = data.draw(st.sampled_from([
            ["bound", "--network", network_path, "--r", r],
            ["verify", "--network", network_path, "--code", code_path, "--r", r],
            ["construct", "--network", network_path, "--r", r,
             "--field", data.draw(st.sampled_from(["2", "2^2", "4", "x", "2^0", "1^1"])),
             "--out", os.path.join(tmp, data.draw(st.sampled_from(["out.json", "missing/out.json", ""])))],
            ["cuts", "mincut", "--network", network_path, "--from", data.draw(names), "--to", data.draw(names)],
            ["cuts", "primary", "--network", network_path, "--sources", data.draw(names), "--edges", data.draw(names)],
            ["example", data.draw(st.sampled_from(["butterfly", "n1", "fig2", "nope"])),
             "--code-name", data.draw(st.sampled_from(["butterfly", "butterfly_gf2", "n1", "nope"])),
             *data.draw(st.sampled_from([["--verify"], ["--show", "code"], ["--r", r], []]))],
        ]))
        if data.draw(st.booleans()):
            args.append("--json")
        assert_clean_exit(runner.invoke(main, args))
