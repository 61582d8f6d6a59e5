import ast
import importlib
import pkgutil
import re
from pathlib import Path

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
                 "reference_jet", "stability_apply"],
    "bent": ["BentSurface", "bent_jet", "normalized_jet", "solve_u0"],
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


def test_readme_module_names_resolve():
    # every backticked `module.name` in README.md whose module is a
    # spiralforge submodule names an attribute of it, so a rename or a
    # deletion leaves no stale reference behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {info.name for info in pkgutil.iter_modules(spiralforge.__path__)}
    refs = sorted({ref for ref in re.findall(r"`(\w+)\.(\w+)`", readme) if ref[0] in modules})
    assert len(refs) >= 20
    stale = [f"{module}.{name}" for module, name in refs
             if not hasattr(importlib.import_module(f"spiralforge.{module}"), name)]
    assert stale == []


# the public names of src that nothing in the package calls, each kept on
# purpose: the paper's closed-form identities and second routes, which the
# tests check the numerics against
ORACLES = {
    "helicoid_jet": "the Jet route: the helicoid's analytic jet",
    "bent_jet": "the Jet route: the bent surface's lab jet",
    "graph_jet": "the Jet route: a graph's jet; bench/spans.py patches it",
    "graph_variation": "the Jet route: the variation of a graph's jet",
    "kernel_pairing": "the kernel/substitute pairing by quadrature",
    "stability_apply": "the stability operator by plain differences",
    "invert_mean": "the mean-mode inverse by nested quadrature",
    "taylor_remainder": "the Taylor remainder of a jet quantity",
    "taylor_remainder_integral": "its integral form",
    "tube_jacobian": "the tube map's Jacobian in closed form",
    "check_injectivity": "the tube map's injectivity check",
    "gauss_map": "the helicoid's Gauss map and its conformal factor",
    "reference_point": "the reference immersion's point, the Jet route's point",
    "bent_point": "the bent surface's point, the tube map of the helicoid",
    "substitute": "the substitute functions and their images as whole fields",
    "spiral_point": "a point of the spiral from its invariants",
    "spiral_invariants": "the spiral's curvature, torsion and speed",
    "from_invariants": "a spiral spec from its invariants",
    "fix_gauge": "the gauge fix whose copy semantics a solver test pins",
}


def test_every_public_name_is_called_in_the_package():
    # a module function or class, public or private, counts as called when
    # src names it or reads it as a module attribute, a method when src
    # reads it as an attribute; dunders are called by the language.  What
    # only the tests reach belongs in the tests
    src = Path(spiralforge.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defined, names, attributes = [], set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(sub.name, True) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    unused = {name for name, method in defined if not re.fullmatch(r"__\w+__", name)
              and name not in attributes and (method or name not in names)}
    assert sorted(unused) == sorted(ORACLES)
