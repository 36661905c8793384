import importlib
import pkgutil

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

# second routes the tests keep in tests/reference.py, not in the package
TEST_ONLY = ["omega", "reach_sets", "simulate", "transfer_global_vectors"]


def test_public_api_is_pinned():
    # adding or removing a public name must be an edit to this list
    assert sorted(snfc.__all__) == PUBLIC_NAMES
    assert all(hasattr(snfc, name) for name in PUBLIC_NAMES)
    modules = [snfc] + [
        importlib.import_module(f"snfc.{info.name}") for info in pkgutil.iter_modules(snfc.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        for name in TEST_ONLY:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
