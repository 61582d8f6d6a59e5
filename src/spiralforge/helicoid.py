"""The conformal helicoid, its stability operator, kernel, and substitutes.

The immersion is F(s, theta) = (sinh s sin theta, sinh s cos theta, theta)
on the cylinder theta ~ theta + 2 pi.  Its metric is cosh^2(s)(ds^2 +
dtheta^2), and cosh^2(s) L = Laplacian + 2 / cosh^2(s) is the conformally
flattened stability operator.  Bounded elements of its kernel are the three
components of the unit normal; the substitute functions u_x, u_y, u_z are
explicit growing functions whose images w = cosh^2 L u pair against the
kernel like a (near-)identity matrix, which is what lets the solver
prescribe the kernel content of an inhomogeneous term.

The vertical substitute profile is the odd function psi(|s|) * s / (4 pi):
the even |s|-profile would pair to zero against the odd kernel element
tanh(s), while the odd one integrates to exactly 1 by the divergence
identity.

`StabilityModes` holds the banded LU factors of the flattened operator per
theta mode, the one inverse both the solver's linear steps and the
straightening profile u0 go through.
"""

import numpy as np

from .cutoffs import Cutoff
from .jets import jet_from_arrays
from .numerics import BandedLU, derivative_matrix, theta_derivatives

# the substitutes' cutoff band: 0 for |s| <= 1, 1 for |s| >= 2; and
# kernel_pairing's quad breakpoints, ascending: +- those of _BAND
_BAND = Cutoff(1.0, 2.0)
_CUT_BREAKPOINTS = tuple(sorted(sign * t for t in _BAND.breakpoints()
                                for sign in (-1.0, 1.0)))


def reference_jet(delta_xi, s, theta):
    """Analytic jet of the straight-axis reference immersion.

    The reference surface is (e^{lam theta} sin theta sinh s,
    e^{lam theta} cos theta sinh s, (e^{lam theta} - 1) / lam) with
    lam = delta_xi; the vertical component is translation-adjusted so the
    lam -> 0 limit is the helicoid itself, exactly.
    """
    lam = float(delta_xi)
    s, theta = np.broadcast_arrays(np.asarray(s, float), np.asarray(theta, float))
    sh, ch = np.sinh(s), np.cosh(s)
    grow = np.exp(lam * theta)
    v = np.stack([grow * np.sin(theta), grow * np.cos(theta)], axis=-1)
    m2 = np.array([[lam, 1.0], [-1.0, lam]])
    v1 = v @ m2.T
    v2 = v1 @ m2.T
    zero = np.zeros_like(s)

    pack = lambda pair, vert: np.stack([pair[..., 0], pair[..., 1], vert], axis=-1)
    g_t = pack(v1 * sh[..., None], grow)
    g_s = pack(v * ch[..., None], zero)
    g_tt = pack(v2 * sh[..., None], lam * grow)
    g_ss = pack(v * sh[..., None], zero)
    g_ts = pack(v1 * ch[..., None], zero)
    return jet_from_arrays(g_t, g_s, g_tt, g_ss, g_ts)


def reference_point(delta_xi, s, theta):
    lam = float(delta_xi)
    s, theta = np.broadcast_arrays(np.asarray(s, float), np.asarray(theta, float))
    grow = np.exp(lam * theta)
    vert = np.expm1(lam * theta) / lam if lam != 0.0 else theta + 0.0
    return np.stack([grow * np.sin(theta) * np.sinh(s),
                     grow * np.cos(theta) * np.sinh(s), vert], axis=-1)


def helicoid_jet(s, theta):
    """Analytic jet of the helicoid F, the reference immersion at lam = 0;
    slot order (theta, s)."""
    return reference_jet(0.0, s, theta)


def gauss_map(s, theta):
    """Unit normal of F and the conformal factor of its Gauss map.

    Returns (nu, factor) with factor = 1 / cosh^4(s); the pullback of the
    round metric under nu equals factor times the metric of F.  The bounded
    kernel elements are the normal's components: nu = (-k_x, k_y, k_z).
    """
    s, theta = np.broadcast_arrays(np.asarray(s, float), np.asarray(theta, float))
    nu = np.stack([-kernel_fn("x", s, theta), kernel_fn("y", s, theta),
                   kernel_fn("z", s, theta)], axis=-1)
    return nu, (1.0 / np.cosh(s)) ** 4


def kernel_fn(which, s, theta):
    """Bounded kernel elements of the stability operator."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if which == "x":
        return np.cos(theta) / np.cosh(s)
    if which == "y":
        return np.sin(theta) / np.cosh(s)
    if which == "z":
        return np.tanh(s) * np.ones_like(theta)
    raise ValueError(f"which must be one of x, y, z, not {which!r}")


def substitute(which, s, theta):
    """Substitute function u, its grid derivatives and its image, closed form.

    Returns ((u, u_t, u_s, u_tt, u_ss, u_ts), w): u's derivative bundle in
    bent.graph_slots order and its image w = cosh^2(s) L u, each field the
    product of its substitute_factors, with the shapes of s and theta
    broadcast.  Grid stencils must never touch these: the cutoff's high
    derivatives alias badly on solver grids.
    """
    fields, (w, row) = substitute_factors(which, s, theta)
    return tuple(profile * trig for profile, trig in fields), w * row


def substitute_factors(which, s, theta):
    """The substitute function u as s-profiles times theta-rows.

    Returns (fields, image): fields holds one (profile, row) pair per slot of
    u's derivative bundle (u, u_t, u_s, u_tt, u_ss, u_ts), image the pair of
    w = cosh^2(s) L u; each field is profile * row.  The profiles have the
    shape of s, the rows that of theta.  psi is the radial cutoff vanishing
    on |s| <= 1.

    Writing u_x = psi f cos(theta) with f = cosh(s)/(4 pi), the operator gives
    cos(theta) (psi'' f + 2 psi' f' + psi (f'' - f) + 2 psi f / cosh^2); the
    cosh profile satisfies f'' = f so only the cutoff band and the 2/cosh^2
    potential survive.  w is summed in that form, not as u_ss + u_tt +
    2 u / cosh^2, whose r'' - r cancels to rounding outside the band.
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    psi, dpsi, ddpsi = _BAND.even_jet(s)
    if which == "z":
        one = np.ones_like(theta)
        r = psi * s / (4.0 * np.pi)
        r1 = (dpsi * s + psi) / (4.0 * np.pi)
        r2 = (ddpsi * s + 2.0 * dpsi) / (4.0 * np.pi)
        w = (ddpsi * s + 2.0 * dpsi + 2.0 * psi * s / np.cosh(s) ** 2) / (4.0 * np.pi)
        zero = np.zeros_like(r)
        return tuple((f, one) for f in (r, zero, r1, zero, r2, zero)), (w, one)
    if which not in ("x", "y"):
        raise ValueError(f"which must be one of x, y, z, not {which!r}")
    ch, sh = np.cosh(s), np.sinh(s)
    r = psi * ch / (4.0 * np.pi)
    r1 = (dpsi * ch + psi * sh) / (4.0 * np.pi)
    r2 = (ddpsi * ch + 2.0 * dpsi * sh + psi * ch) / (4.0 * np.pi)
    w = (ddpsi * ch + 2.0 * dpsi * sh + 2.0 * psi / ch) / (4.0 * np.pi)
    cs, sn = np.cos(theta), np.sin(theta)
    if which == "x":
        return ((r, cs), (-r, sn), (r1, cs), (-r, cs), (r2, cs), (-r1, sn)), (w, cs)
    return ((r, sn), (r, cs), (r1, sn), (-r, sn), (r2, sn), (r1, cs)), (w, sn)


def stability_apply(u, s):
    """cosh^2(s) L u on a tensor grid: u has shape (len(s), n_theta).

    Second-order central differences in s (one-sided of the same order at
    the edges), exact mode-wise differentiation in theta.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if u.ndim != 2 or u.shape[0] != len(s):
        raise ValueError("u must have shape (len(s), n_theta)")
    h = s[1] - s[0]
    d2 = derivative_matrix(len(s), h, 2, acc=2)
    u_ss = d2 @ u
    (u_tt,) = theta_derivatives(u, (2,))
    return u_ss + u_tt + 2.0 * u / np.cosh(s)[:, None] ** 2


class StabilityModes:
    """The flattened stability operator d2 + 2 sech^2(s) - m^2 per theta mode.

    lu[m] is the banded LU of its grid realization band(m) (the grid's
    fourth-order d2, Dirichlet rows at s = +-s_max) for m = 0 ... m_max,
    assembled directly in LAPACK's band layout; solve_mean is
    the m = 0 inverse normalized to vanish to second order at s = 0.
    """

    def __init__(self, grid, m_max):
        self.potential = 2.0 / np.cosh(grid.s) ** 2
        # interior rows d2 + potential, identity rows at the rim
        self._ab, self.kl, self.ku = grid.d2.band()
        self._ab[self.ku, 1:-1] += self.potential[1:-1]
        self._ab[self.ku, [0, -1]] = 1.0
        self.lu = [BandedLU(self.band(m), self.kl, self.ku) for m in range(m_max + 1)]
        # boundary solutions of the m = 0 system, the pin rows giving v(0)
        # and (d1 v)(0), and the inverse of the 2x2 pin matrix
        unit = np.zeros((len(grid.s), 2))
        unit[[0, -1], [0, 1]] = 1.0
        self._rim_sol = self.lu[0].solve(unit)
        self._pins = np.vstack([np.eye(1, len(grid.s), grid.i_zero),
                                grid.d1.row(grid.i_zero)])
        self._pin_inv = np.linalg.inv(self._pins @ self._rim_sol)

    def band(self, m):
        """The mode-m matrix, identity rows at the rim, in LAPACK's band
        layout with self.kl, self.ku."""
        ab = self._ab.copy()
        ab[self.ku, 1:-1] -= m * m
        return ab

    def solve_mean(self, e_bar):
        """Discrete mean-mode inverse with the direct-integration normalization.

        Collocates the ODE at every interior point and pins v(0) = v'(0) = 0
        in place of the two boundary rows: the m = 0 Dirichlet solution plus
        the combination of the two boundary solutions that restores the pins.
        This is the same solution the nested-quadrature formula produces, but
        realized with the identical stencils the rest of the solver uses, so
        the fixed-point map reproduces its own output exactly; inverting by
        quadrature instead leaves an O(h^4 * cutoff-band) mismatch that grows
        slowly but geometrically over the iteration.
        """
        rhs = np.asarray(e_bar, dtype=float).copy()
        rhs[0] = rhs[-1] = 0.0
        v = self.lu[0].solve(rhs)
        return v - self._rim_sol @ (self._pin_inv @ (self._pins @ v))


def kernel_pairing(which, s_max):
    """Quadrature of the kernel/substitute pairing over |s| <= s_max.

    Converges to 1 as s_max grows (the deficit is set by the boundary flux,
    of size 1 - tanh(s_max)).
    """
    # imported here, not at module level: scipy.integrate is slow to import
    # and only this quadrature oracle needs it
    from scipy.integrate import quad

    if s_max < 3.0:
        raise ValueError("s_max must cover the cutoff band, s_max >= 3")
    if which in ("x", "y"):
        def integrand(s):
            psi, dpsi, ddpsi = _BAND.even_jet(s)
            return 0.25 * (ddpsi + 2.0 * dpsi * np.tanh(s)
                           + 2.0 * psi / np.cosh(s) ** 2)
    elif which == "z":
        def integrand(s):
            psi, dpsi, ddpsi = _BAND.even_jet(s)
            return 0.5 * np.tanh(s) * (ddpsi * s + 2.0 * dpsi
                                       + 2.0 * psi * s / np.cosh(s) ** 2)
    else:
        raise ValueError(f"which must be one of x, y, z, not {which!r}")

    pts = [p for p in _CUT_BREAKPOINTS if abs(p) < s_max]
    val, _ = quad(integrand, -s_max, s_max, points=pts, limit=200)
    return val
