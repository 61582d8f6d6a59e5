"""Helicoid-like minimal disks with logarithmic-spiral axes.

Construction, linear theory and fixed-point solver for minimal normal
graphs over a helicoid bent along a self-similar space curve, together with
the closed-form identities (spiral invariants, tube-map geometry, kernel
pairings) that the numerics are verified against.
"""

from .errors import (GraphTooLargeError, InvalidImmersionError,
                     InvalidVariationError, NoProfileError,
                     RejectedParametersError, SpiralforgeError)
from .jets import (Jet, Variation, aspect_ratio, mean_curvature,
                   taylor_remainder, taylor_remainder_integral, unit_normal)
from .spirals import (SpiralParams, SpiralSpec, frenet_generator,
                      invariants_to_spiral, matrix_invariants, spiral_invariants,
                      spiral_point)
from .tube import check_injectivity, max_embed_ell, tube_jacobian, tube_map, tube_radius
from .helicoid import (gauss_map, helicoid_jet, kernel_fn, kernel_pairing,
                       stability_apply, substitute_fn, substitute_image)
from .bent import BentSurface, GraphFunction, bent_jet, normalized_jet, \
    reference_jet, solve_u0
from .solver import SolverState, Workspace, linear_solve, meridian_split, \
    invert_mean, orthogonalize, invert_perp, psi_step, solve_minimal
from .verify import (Mesh, SolveReport, check_embedded, check_self_similarity,
                     export_mesh, weighted_norm)

__version__ = "0.1.0"
