import tracemalloc

import numpy as np
import pytest

from spiralforge import solver, spirals
from spiralforge.bent import BentSurface, solve_u0
from spiralforge.helicoid import StabilityModes
from spiralforge.numerics import Grid, fd_weights, theta_derivative

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # the same draws on every run, with no per-example deadline and no
    # example database, so the suite stays deterministic and bounded
    settings.register_profile("spiralforge", derandomize=True, deadline=None,
                              database=None, max_examples=100)
    settings.load_profile("spiralforge")

# nine-point central stencils for curve derivatives up to third order
_OFF = np.arange(-4, 5)
_W = fd_weights(_OFF.astype(float), 0.0, 3)


def fd_derivatives(curve, t, h):
    """High-order finite-difference (c', c'', c''') of a curve R -> R^3.

    The curve is re-centered at curve(t) before differencing so that a large
    offset from the origin does not poison the stencil with cancellation.
    """
    center = curve(t)
    pts = np.array([curve(t + k * h) - center for k in _OFF])
    return (_W[:, 1] @ pts / h, _W[:, 2] @ pts / h ** 2, _W[:, 3] @ pts / h ** 3)


def frenet_oracle(curve, t, h=0.03):
    """(speed, curvature, torsion) by finite differences; fully independent
    of any closed-form invariant formulas."""
    d1, d2, d3 = fd_derivatives(curve, t, h)
    speed = np.linalg.norm(d1)
    cr = np.cross(d1, d2)
    kappa = np.linalg.norm(cr) / speed ** 3
    tau = float(np.dot(cr, d3)) / float(np.dot(cr, cr))
    return speed, kappa, tau


def rel_err(got, want):
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), 1e-300)
    return np.max(np.abs(np.asarray(got) - want) / scale)


def profile(delta_xi, grid):
    """solve_u0 on grid with the grid's own m = 0 inverse."""
    return solve_u0(delta_xi, grid, StabilityModes(grid, 0))


def bent_surface(spec, ell, n_s, n_theta):
    """(BentSurface on a new grid, the derivative bundle of u0 solved on it),
    as Workspace sets them up; Q at u + u0 takes the sum of the bundles."""
    grid = Grid(ell, n_s, n_theta)
    return BentSurface(spec, grid), grid.derivatives(profile(spec.lam, grid).values[:, None])


def rows_of(derivs):
    """A whole-grid derivative bundle in the form BentSurface.q_operator
    takes: rows -> the bundle's rows."""
    return lambda rows: [f[rows] for f in derivs]


def apply_operator(ws, v):
    """The discrete flattened stability operator the workspace's mode solves
    invert: d2 v + v_tt + (2 sech^2 s) v."""
    g = ws.grid
    return (g.d2 @ v + theta_derivative(v, order=2)
            + ws.modes.potential[:, None] * v)


@pytest.fixture(scope="session")
def demo_spec():
    return spirals.SpiralSpec.from_invariants(1.0, 0.0, 1.0, 1e-3)


@pytest.fixture(scope="session")
def demo_solve(demo_spec):
    """A converged small-grid solve shared by solver/verify tests."""
    report, ws, state = solver.solve_minimal(
        demo_spec, 32.0, n_s=256, n_theta=32, tol=1e-10, max_iter=50)
    assert report.converged
    return report, ws, state


@pytest.fixture(scope="session")
def traced_default_solve(demo_spec):
    """The default 1024x64 solve and its tracemalloc peak in MiB."""
    tracemalloc.start()
    try:
        report, ws, state = solver.solve_minimal(demo_spec, 32.0)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert report.converged
    return peak, report, ws, state
