import importlib

import pytest

import spiralforge

# the names the package exported when its __init__ imported every submodule,
# by defining submodule
EXPORTS = {
    "errors": ["GraphTooLargeError", "InvalidImmersionError", "InvalidVariationError",
               "NoProfileError", "RejectedParametersError", "SpiralforgeError"],
    "jets": ["Jet", "Variation", "aspect_ratio", "mean_curvature", "taylor_remainder",
             "taylor_remainder_integral", "unit_normal"],
    "spirals": ["SpiralParams", "SpiralSpec", "frenet_generator", "invariants_to_spiral",
                "matrix_invariants", "spiral_invariants", "spiral_point"],
    "tube": ["check_injectivity", "max_embed_ell", "tube_jacobian", "tube_map",
             "tube_radius"],
    "helicoid": ["gauss_map", "helicoid_jet", "kernel_fn", "kernel_pairing",
                 "reference_jet", "stability_apply", "substitute_fn",
                 "substitute_image"],
    "bent": ["BentSurface", "GraphFunction", "bent_jet", "normalized_jet", "solve_u0"],
    "solver": ["SolverState", "Workspace", "linear_solve", "invert_mean",
               "psi_step", "solve_minimal"],
    "verify": ["Mesh", "SolveReport", "check_embedded", "check_self_similarity",
               "export_mesh", "weighted_norm"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_export_is_submodule_object(module, name):
    defined = getattr(importlib.import_module(f"spiralforge.{module}"), name)
    assert getattr(spiralforge, name) is defined


def test_star_import_binds_every_export():
    namespace = {}
    exec("from spiralforge import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(spiralforge, name), name
    assert sorted(spiralforge.__all__) == sorted(name for _, name in NAMES)


def test_dir_lists_exports_and_submodules():
    listed = set(dir(spiralforge))
    assert {name for _, name in NAMES} <= listed
    assert set(EXPORTS) | {"cutoffs", "numerics", "__version__"} <= listed


def test_submodules_resolve_as_attributes():
    # an eager __init__ bound these; `import spiralforge; spiralforge.solver`
    # keeps working
    for module in [*EXPORTS, "cutoffs", "numerics"]:
        assert getattr(spiralforge, module) is importlib.import_module(f"spiralforge.{module}")


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        spiralforge.no_such_name
    assert not hasattr(spiralforge, "cli_main")
