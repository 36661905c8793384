import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import snfc
from snfc import fixtures
from snfc.cli import main


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


def test_example_summary(runner):
    result = runner.invoke(main, ["example", "butterfly", "--json"])
    payload = json.loads(result.output)
    assert payload["edges"] == 9
    assert "butterfly_gf2" in payload["codes"]


def test_example_show_network(runner):
    result = runner.invoke(main, ["example", "n1", "--show", "network", "--json"])
    assert json.loads(result.output) == fixtures.network_dict("n1")


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
    result = runner.invoke(
        main,
        ["verify", "--network", butterfly_file, "--code", str(path), "--r", "1", "--json"],
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["computable"] and not payload["secure_rank"]


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
