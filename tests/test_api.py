import ast
import importlib
import inspect
import pathlib
import pkgutil
import sys
import types

import pytest

import snfc

PUBLIC_NAMES = [
    "BoundReport",
    "CutReport",
    "Edge",
    "ExactCapacity",
    "Field",
    "LiftedCode",
    "Matrix",
    "MulticastCode",
    "Network",
    "SecureCode",
    "SumCode",
    "VerifyReport",
    "build_reversed_multicast",
    "c_min",
    "c_min_bar",
    "check_computability",
    "check_exhaustive",
    "check_security_rank",
    "choose_mixing_matrix",
    "code_to_dict",
    "companion_expand",
    "construct",
    "exact_capacity",
    "global_vectors",
    "is_primary",
    "lift_extension",
    "load_code",
    "load_code_file",
    "lower_bound",
    "make_field",
    "make_network",
    "min_cut",
    "min_cut_edge_target",
    "network_from_dict",
    "parse_field",
    "parse_network",
    "primary_min_cut",
    "primary_wiretap_sets",
    "reduce_linear_to_sum",
    "residual",
    "save_code",
    "secure_code",
    "secure_vectors",
    "sum_code_from_multicast",
    "upper_bound",
    "upper_bound_oracle",
    "verify",
    "zero_capacity",
]

# second routes and helpers the tests keep in tests/reference.py, not in the
# package; "Class.member" names a member of the class of that name
TEST_ONLY = [
    "Matrix.hstack",
    "Network._positions",
    "Network.node_order",
    "Network.nodes_reachable_from",
    "Network.nodes_reaching",
    "butterfly_sum_code",
    "network_dict",
    "omega",
    "reach_sets",
    "simulate",
    "transfer_global_vectors",
]


def test_public_api_is_pinned():
    # adding or removing a public name must be an edit to this list
    assert sorted(snfc.__all__) == PUBLIC_NAMES
    assert all(hasattr(snfc, name) for name in PUBLIC_NAMES)
    modules = [snfc] + [
        importlib.import_module(f"snfc.{info.name}") for info in pkgutil.iter_modules(snfc.__path__)
    ]
    assert len(modules) > 1
    owners = set()
    for module in modules:
        for name in TEST_ONLY:
            owner, _, member = name.rpartition(".")
            if owner and not hasattr(module, owner):
                continue
            owners.add(owner)
            assert not hasattr(getattr(module, owner) if owner else module, member), f"{module.__name__}.{name}"
    assert owners == {"", "Matrix", "Network"}


# what bench/tracer.py, bench/workloads.py and bench/test_bench.py read of snfc
# beyond __all__, as module paths under snfc: the benchmark runs outside these
# tests, so a cleanup of src/ that drops one of these fails here first
BENCH_READS = [
    "bounds.primary_wiretap_sets",
    "cli.bound.callback",
    "cli.main",
    "cli.run_verify",
    "codes.as_secure",
    "codes.c_min",
    "corpus.random_network",
    "cuts.ResidualNetwork",
    "cuts.c_min.cache_info",
    "gf.Matrix.inverse",
    "gf.Matrix.mul",
    "gf.Matrix.rank",
    "gf.Matrix.solve_right",
]


@pytest.mark.parametrize("path", BENCH_READS)
def test_names_the_benchmark_reads_still_exist(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"snfc.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"bench/ reads snfc.{path}"
        obj = getattr(obj, attr)


def test_the_benchmark_reaches_the_verify_module_and_its_keywords():
    # the package binds the verify function over the module's name, so bench/
    # reaches the module through sys.modules
    module = sys.modules["snfc.verify"]
    assert isinstance(module, types.ModuleType), "bench/ reads sys.modules['snfc.verify']"
    keywords = inspect.signature(module.verify).parameters
    assert {"cap", "fast", "exhaustive"} <= keywords.keys(), "bench/workloads.py calls verify(..., cap=, fast=)"


def test_verify_runs_codes_through_the_one_entry_in_codes():
    # the walk over the local rules lives in codes.py; verify reaches it only through codes._run_code
    module = sys.modules["snfc.verify"]
    for name in ("_walk", "_propagate", "_propagation_plan", "_mix_inputs", "_sums_decoded"):
        assert not hasattr(module, name), f"snfc.verify.{name}"
    assert module._run_code is importlib.import_module("snfc.codes")._run_code


def test_src_checks_survive_python_O():
    # python -O strips assert statements; every check in src/ raises a domain error instead
    found = []
    for path in sorted(pathlib.Path(snfc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_test_modules_import_no_other_test_module():
    # helpers that several test files share live in tests/cases.py and tests/reference.py,
    # so each test file collects and fails on its own
    tests = pathlib.Path(__file__).parent
    test_modules = {path.stem for path in tests.glob("test_*.py")}
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {name}" for name in names if name.split(".")[0] in test_modules]
    assert found == []
