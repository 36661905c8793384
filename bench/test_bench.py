"""Checks of the benchmark itself; run with `python3 -m pytest bench/test_bench.py`.

They start the benchmark's worker and entry point in fresh processes, on short
runs; the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import Tracer, snfc_modules  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _is_count(name: str) -> bool:
    """Counts and ratios of counts; timings and the trace's own ratios vary."""
    return not (name.startswith("trace.") or name.endswith("_s"))


def _traced(workload: str, seed: int, seconds: int) -> dict:
    workdir = os.path.join(ROOT, ".bench_work", f"test-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        args = SimpleNamespace(workload=workload, seed=seed, seconds=seconds)
        return run._child(args, "trace", workdir, time.monotonic() + 120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    first = _traced(workload, seed=3, seconds=2)
    second = _traced(workload, seed=3, seconds=2)
    assert not first["failures"] and not second["failures"]
    counts = {k: v for k, v in first["layers"].items() if _is_count(k)}
    assert counts == {k: v for k, v in second["layers"].items() if _is_count(k)}
    assert first["digests"] == second["digests"]
    assert any(v for k, v in counts.items() if k.endswith(".calls"))
    traced = set(first["layers"]) | {"trace.overhead_ratio", "trace.untraced_share"}
    assert traced == {m["name"] for m in _declared()["per_layer"]}


def test_tracer_wraps_every_binding_and_restores_it():
    import snfc
    import snfc.cli

    verify_module = sys.modules["snfc.verify"]  # the package attribute is the function
    originals = {mod.__name__: dict(vars(mod)) for mod in snfc_modules()}
    rank = snfc.Matrix.rank
    callback = snfc.cli.bound.callback
    tracer = Tracer().install()
    try:
        assert tracer.unwrapped_bindings() == []
        for bound in (snfc.verify, verify_module.verify, snfc.cli.run_verify):
            assert bound.__wrapped__ is originals["snfc.verify"]["verify"]
        assert snfc.codes.c_min is snfc.cuts.c_min is snfc.c_min
        assert snfc.Matrix.rank is not rank
        assert snfc.cli.bound.callback is not callback
    finally:
        tracer.uninstall()
    for mod in snfc_modules():
        for name, value in originals[mod.__name__].items():
            assert vars(mod)[name] is value, f"{mod.__name__}.{name} was not restored"
    assert snfc.Matrix.rank is rank
    assert snfc.cli.bound.callback is callback


def test_tracer_charges_child_spans_to_the_parent():
    import snfc

    tracer = Tracer().install()
    try:
        net = snfc.make_network(["s1", "v", "rho"], [("e1", "s1", "v"), ("e2", "v", "rho")], ["s1"], "rho")
        snfc.upper_bound(net, 0)
    finally:
        tracer.uninstall()
    upper = tracer.stats["bounds.upper_bound"]
    assert upper.calls == 1
    assert 0 <= upper.self_s < upper.total_s
    assert tracer.stats["cuts.min_cut"].calls >= 1
    assert tracer.stats["cuts.min_cut"].counts["arcs"] >= 2


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=180,
    )


def test_refuses_a_state_cap_from_the_environment():
    env = dict(os.environ, SNFC_MAX_EXHAUSTIVE="4096")
    proc = _bench("--workload", "verify_exhaustive", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_library_sources():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _bench("--workload", "bound_large", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_declared_metrics(trace, kind):
    proc = _bench("--workload", "bound_large", "--seed", "2", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()[kind]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
