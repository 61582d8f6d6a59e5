"""Linear inverse of the flattened stability operator and the fixed-point map.

The inhomogeneous term is inverted one theta mode at a time.  The mean
(m = 0) is inverted by direct integration (realized with the grid stencils,
its output vanishing to second order at s = 0).  The bounded kernel, the
horizontal translations cos(theta)/cosh(s) and sin(theta)/cosh(s), lives in
m = 1 alone: there the kernel content is removed by subtracting a multiple of
the substitute images' mode-1 coefficient.  Every mode m >= 1 is then
inverted by a banded direct solve under zero Dirichlet data.

One step of the fixed-point map evaluates the bent-surface operator Q at the
current graph, cuts it off so it vanishes at the domain boundary, and feeds
it to the linear inverse.  At a fixed point the operator vanishes identically
on the inner region where the cutoff is 1, which is the minimality being
sought.  The graph u0 + psi v + b_x u_x + b_y u_y, u0 added where the
graph is formed and nowhere else, enters Q as its derivative bundle; the
audits and the export read its values (graph_values).
"""

import time
from dataclasses import dataclass

import numpy as np

from . import verify
from .bent import BentSurface, solve_u0
from .cutoffs import even_cutoff
from .errors import RejectedParametersError
from .helicoid import StabilityModes, kernel_fn, substitute_factors
from .numerics import (Grid, cumulative_from_zero, fd_weights, iterate, row_blocks,
                       theta_derivative)

# smallness budget delta (1 + |R| + |xi|) ell of the perturbation argument
GATE_BUDGET = 0.2
# the slots of a derivative bundle that hold no theta-derivative: u0 depends
# on s alone, so it adds into these only
_S_SLOTS = (0, 2, 4)


@dataclass(frozen=True)
class SolverState:
    v: np.ndarray
    b_x: float
    b_y: float


def invert_mean(e_bar, grid):
    """Direct-integration solution of v'' + 2 sech^2 v = e_bar.

    v(s) = tanh(s) * int_0^s tanh(s')^-2 [int_0^s' tanh(s'') e_bar ds''] ds',
    evaluated by cumulative quadrature from s = 0 outwards.  (Differentiating
    twice confirms this kernel; an extra sech^2 weight on the inner
    integrand would solve the equation against sech^2 e_bar instead.)  The
    inner ratio has a removable singularity at 0 which is bridged by its
    cubic Taylor expansion, with coefficients from grid derivatives of e_bar.
    The output is the particular solution with v(0) = v'(0) = 0.
    """
    s, h, i0 = grid.s, grid.h, grid.i_zero
    tanh = np.tanh(s)
    inner = cumulative_from_zero(tanh * e_bar, h, i0, grid.d1)

    with np.errstate(divide="ignore", invalid="ignore"):
        q = inner / tanh ** 2
    e0 = e_bar[i0]
    e1 = (grid.d1 @ e_bar)[i0]
    e2 = (grid.d2 @ e_bar)[i0]
    w3 = fd_weights(np.arange(-4, 5) * h, 0.0, 3)[:, 3]
    e3 = float(w3 @ e_bar[i0 - 4:i0 + 5])
    s_c = max(0.025, 4.0 * h)
    near = np.abs(s) <= s_c
    sn = s[near]
    q[near] = (0.5 * e0 + (e1 / 3.0) * sn + (e2 / 8.0 + e0 / 4.0) * sn ** 2
               + (e3 / 30.0 + 7.0 * e1 / 45.0) * sn ** 3)
    outer = cumulative_from_zero(q, h, i0, grid.d1)
    return tanh * outer


class Workspace:
    """Grid-bound data for repeated linear solves over one bent surface."""

    def __init__(self, spec, ell, n_s, n_theta, tol=1e-9):
        # checked before any set-up: the mean solve pins v(0) = v'(0) = 0
        if n_s % 2 != 0:
            raise ValueError("n_s must be even so that s = 0 is a grid point")
        if n_theta % 2 != 0:
            raise ValueError("n_theta must be even")
        self.spec = spec
        self.ell = float(ell)
        # the one set-up sequence: u0 is solved on this grid and m = 0 inverse
        g = self.grid = Grid(ell, n_s, n_theta)
        self.modes = StabilityModes(g, n_theta // 2)
        self.u0 = solve_u0(spec.lam, g, self.modes, tol)
        self.u0_bundle = g.derivatives(self.u0.values[:, None])
        self.surface = BentSurface(spec, g)
        s_col, t_row = g.s[:, None], g.theta[None, :]

        self.psi = even_cutoff(np.arccosh(ell / 2.0), np.arccosh(ell / 4.0), g.s)[0]
        self.psi_outer = even_cutoff(np.arccosh(ell), np.arccosh(ell / 2.0), g.s)[0]
        kappa_x = kernel_fn("x", s_col, t_row)
        kappa_y = kernel_fn("y", s_col, t_row)
        # u_x and u_y as s-profiles times theta-rows, for _add_substitutes
        # and the images' w_x, w_y
        self.substitutes = [substitute_factors(which, s_col, t_row) for which in "xy"]

        self._gauge_x = kappa_x / np.sqrt(self.inner_flat(kappa_x, kappa_x))
        self._gauge_y = kappa_y / np.sqrt(self.inner_flat(kappa_y, kappa_y))
        self.kernel_profile = self._near_null_profile()
        # mode-1 coefficient of w_x; that of w_y is -1j times it
        self.w_hat1 = np.fft.rfft(self.w_x, axis=1)[:, 1]
        self.interior = g.interior_mask()

    @property
    def w_x(self):
        """The image cosh^2 L u_x on the grid, formed from its factors."""
        w, row = self.substitutes[0][1]
        return w * row

    @property
    def w_y(self):
        """The image cosh^2 L u_y on the grid, formed from its factors."""
        w, row = self.substitutes[1][1]
        return w * row

    def _near_null_profile(self):
        """Left near-null vector of the m = 1 mode system, by inverse iteration.

        The m = 1 matrix has one eigenvalue of size O(1/ell^2) whose left
        eigenvector is the grid realization of the bounded kernel profile
        1/cosh(s); projecting the mode-1 coefficient of inhomogeneous terms
        against *this* vector (rather than the continuum profile under some
        quadrature) is what keeps the mode solve bounded: the O(h^2) gap
        between the two, amplified by the inverse of the small eigenvalue,
        would otherwise dominate the solution.
        """
        g = self.grid
        x = 1.0 / np.cosh(g.s)
        x[0] = x[-1] = 0.0
        lu = self.modes.lu[1]
        for _ in range(12):
            x = lu.solve(x, trans=1)
            x /= np.linalg.norm(x)
        return x

    def inner_flat(self, u, v):
        """Uniform-weight grid pairing (rectangle rule; exact on theta modes)."""
        return float(self.grid.h * self.grid.w_theta * np.sum(u * v))

    def fix_gauge(self, v):
        """Remove the horizontal-translation content of v.

        The bounded kernel directions correspond to translating the whole
        surface, which the operator cannot see: left in, they form a neutral
        family along which the iteration wanders indefinitely.  Projecting
        them out pins one representative.  (The vertical direction is
        already pinned by the mean solve's value/slope normalization.)
        """
        for gauge in (self._gauge_x, self._gauge_y):
            v = v - self.inner_flat(v, gauge) * gauge
        return v

    def apply_operator(self, v):
        """The discrete flattened stability operator used by the mode solves."""
        g = self.grid
        return (g.d2 @ v + theta_derivative(v, order=2)
                + self.modes.potential[:, None] * v)


def linear_solve(ws, e):
    """Total inverse: v with cosh^2 L v = e - b_x w_x - b_y w_y on the grid.

    One pass over the theta modes of e.  Mode 0 is the discrete
    direct-integration solve (same normalization as invert_mean, but
    stencil-exact).  Mode 1 loses beta times w_x's coefficient, where
    beta = b_x - 1j b_y makes the remainder orthogonal to the discrete
    kernel profile; kernel content left in would be amplified by the
    inverse of the m = 1 system's near-zero eigenvalue.  Every mode m >= 1
    is solved with zero Dirichlet data at s = +-s_max.  The defining
    identity holds on interior rows to rounding.
    """
    g = ws.grid
    eh = np.fft.rfft(e, axis=1)
    kp = ws.kernel_profile
    beta = (kp @ eh[:, 1]) / (kp @ ws.w_hat1)
    eh[:, 1] -= beta * ws.w_hat1
    eh[:, 0] = g.n_theta * ws.modes.solve_mean(e.mean(axis=1))
    for m in range(1, g.n_theta // 2 + 1):
        rhs = eh[:, m]
        rhs[0] = rhs[-1] = 0.0
        sol = ws.modes.lu[m].solve(np.column_stack([rhs.real, rhs.imag]))
        eh[:, m] = sol[:, 0] + 1j * sol[:, 1]
    return np.fft.irfft(eh, n=g.n_theta, axis=1), float(beta.real), float(-beta.imag)


def _add_substitutes(ws, state, fields):
    """Add b_x u_x + b_y u_y + u0 into fields in place and return them.

    fields are the leading slots of a derivative bundle on the grid; each
    gets the same slots of the substitute bundles, formed from their
    factors a block of numerics.row_blocks rows at a time, and of u0's
    bundle where it is not a theta-derivative.  A block's profile * row is
    the whole-grid product element for element, and the sum is
    ((field + b_x u_x) + b_y u_y) + u0, so the result is bit for bit the
    whole-grid sum.  This is the one place u0 enters the solved graph.
    """
    (ux, _), (uy, _) = ws.substitutes
    for blk in row_blocks(*fields[0].shape):
        for i, (f, (px, rx), (py, ry)) in enumerate(zip(fields, ux, uy)):
            f[blk] += state.b_x * (px[blk] * rx)
            f[blk] += state.b_y * (py[blk] * ry)
            if i in _S_SLOTS:
                f[blk] += ws.u0_bundle[i][blk]
    return fields


def graph_values(ws, state):
    """The graph u0 + psi v + b_x u_x + b_y u_y of state on the grid, values
    only: the first field of its derivative bundle, bit for bit."""
    return _add_substitutes(ws, state, [ws.psi[:, None] * state.v])[0]


def _graph_bundle(ws, state):
    """u0 + psi v + b_x u_x + b_y u_y as a derivative bundle.

    The product psi * v is differenced by the same grid stencils the linear
    inverse is built from, so the inverse reproduces it exactly and the
    cutoff-band stencil error cancels through the round trip.  The substitute
    functions carry analytic derivatives, matching the analytic images used
    in the kernel projection; differencing them instead would feed the
    cutoff's aliased derivatives into the b-coefficients and destabilize the
    iteration.  They and u0's bundle are added into the freshly formed psi v
    bundle in place.
    """
    return _add_substitutes(ws, state, ws.grid.derivatives(ws.psi[:, None] * state.v))


def _residual(ws, state):
    """Q at the graph of state, and its sup over the interior rows."""
    q = ws.surface.q_operator(_graph_bundle(ws, state))
    return q, float(np.abs(q[ws.interior, :]).max())


def psi_step(ws, state):
    """One full application of the fixed-point map, a step of numerics.iterate.

    Returns (new_state, the interior residual of Q at the *incoming* state,
    the weighted C^2 norm of the update).
    """
    q, q_interior = _residual(ws, state)
    rhs = ws.psi_outer[:, None] * q
    v_hat, beta_x, beta_y = linear_solve(ws, rhs)
    new = SolverState(ws.fix_gauge(ws.psi[:, None] * state.v - v_hat),
                      state.b_x - beta_x, state.b_y - beta_y)
    update = (verify.weighted_norm(new.v - state.v, ws.grid)
              + abs(new.b_x - state.b_x) + abs(new.b_y - state.b_y))
    return new, q_interior, update


def check_gates(spec, ell):
    """Parameter gates of the nonlinear solve; raises RejectedParametersError."""
    # written so that a nan ell fails it
    if not ell > 16.0:
        raise RejectedParametersError(f"ell = {ell:g} must exceed 16")
    # with ell > 16 the budget also keeps delta |xi| below GATE_BUDGET / 16
    budget = spec.delta * (1.0 + spec.r_norm + abs(spec.xi)) * ell
    if budget > GATE_BUDGET:
        raise RejectedParametersError(
            f"delta (1 + |R| + |xi|) ell = {budget:g} exceeds the gate {GATE_BUDGET:g}")


def solve_minimal(spec, ell, n_s=1024, n_theta=64, tol=1e-9, max_iter=50):
    """Drive the graph over the bent helicoid to minimality.

    Iterates the fixed-point map under numerics.iterate, u0's stop rule too,
    on the interior residual of Q.  The report records its history, the
    final graph coefficients, weighted norms, the embeddedness verdict from
    the closed-form bound, and the self-similarity defect of the solved
    surface.  A solve that stops after n steps builds the graph's derivative
    bundle n + 1 times: once per step and once for the final residual.
    """
    check_gates(spec, ell)
    t0 = time.perf_counter()
    ws = Workspace(spec, ell, n_s, n_theta, tol)

    state = SolverState(np.zeros((len(ws.grid.s), n_theta)), 0.0, 0.0)
    state, history, converged = iterate(lambda x: psi_step(ws, x), state,
                                        lambda x: _residual(ws, x)[1], tol, max_iter)

    norm_v = verify.weighted_norm(state.v, ws.grid)
    denom = spec.delta * ell ** 0.25 * spec.r_norm
    zeta = max(norm_v, abs(state.b_x), abs(state.b_y)) / denom if denom > 0 else np.inf

    verdict = "certified" if verify.certified(spec, ell, converged) else "not-certified"

    defect = verify.check_self_similarity(ws.surface, graph_values(ws, state))
    report = verify.SolveReport(
        residual_history=history,
        b_x=state.b_x,
        b_y=state.b_y,
        norm_v=norm_v,
        embed_verdict=verdict,
        self_similarity_defect=defect,
        runtime=time.perf_counter() - t0,
        converged=converged,
        zeta=float(zeta),
        u0_c_hat=ws.u0.c_hat,
    )
    return report, ws, state
