"""Helicoid-like minimal disks with logarithmic-spiral axes.

Construction, linear theory and fixed-point solver for minimal normal
graphs over a helicoid bent along a self-similar space curve, together with
the closed-form identities (spiral invariants, tube-map geometry, kernel
pairings) that the numerics are verified against.

The package namespace is lazy (PEP 562): `import spiralforge` loads no
submodule, and so neither numpy nor scipy; each exported name imports its
submodule on first access.  This keeps every CLI start cheap and lets
`spiralforge.cli` set its thread caps before numpy initializes.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": ("GraphTooLargeError", "InvalidImmersionError", "InvalidVariationError",
               "NoProfileError", "RejectedParametersError", "SpiralforgeError"),
    "jets": ("Jet", "Variation", "aspect_ratio", "mean_curvature", "taylor_remainder",
             "taylor_remainder_integral", "unit_normal"),
    "spirals": ("SpiralParams", "SpiralSpec", "frenet_generator", "invariants_to_spiral",
                "matrix_invariants", "spiral_invariants", "spiral_point"),
    "tube": ("check_injectivity", "max_embed_ell", "tube_jacobian", "tube_map",
             "tube_radius"),
    "helicoid": ("gauss_map", "helicoid_jet", "kernel_fn", "kernel_pairing",
                 "reference_jet", "stability_apply", "substitute_fn",
                 "substitute_image"),
    "bent": ("BentSurface", "bent_jet", "normalized_jet", "solve_u0"),
    "solver": ("SolverState", "Workspace", "linear_solve", "invert_mean",
               "psi_step", "solve_minimal"),
    "verify": ("Mesh", "SolveReport", "check_embedded", "check_self_similarity",
               "export_mesh", "weighted_norm"),
}
# the submodules an eager import used to bind as attributes of the package
_SUBMODULES = frozenset(_EXPORTS) | {"cutoffs", "numerics"}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
