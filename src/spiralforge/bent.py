"""The helicoid bent along a logarithmic spiral, and normal graphs over it.

The composed immersion is G(s, theta) = M(F(s, theta)) where M is the tube
map and F the conformal helicoid: explicitly

    G = gamma(theta) + e^{lam theta} sinh(s) E(theta) c(theta),

with E the moving frame, c(theta) = (sin theta, cos theta, 0) and
lam = delta * xi.  Because the frame is generated by a constant matrix, all
derivatives of G are closed-form: each is P(theta) = e^{lam theta} E(theta)
times a 2 pi-periodic "bracket" vector.  The normalized jet (gauge
P(theta)^{-1} applied to every slot) is therefore exactly periodic, and the
whole nonlinear operator

    Q[u] = cosh^2(s) H( normalized jet of G + graph by e^{lam theta}(u + u0) )

is assembled here in that gauge, so the output of Q is periodic to roundoff
rather than to discretization error.

The gauge has curvature: grid derivatives of the normalized components are
not normalized higher components.  Wherever a theta-derivative of a gauged
field appears it is the covariant one, d_theta + delta * R.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import GraphTooLargeError, NoProfileError, RejectedParametersError
from .jets import Jet, jet_from_arrays
from .numerics import BandedLU, Grid, theta_derivative
from .spirals import SpiralSpec


def _circ(theta):
    """c(theta) and its derivative cycle: c' = c1, c'' = -c, c''' = -c1."""
    theta = np.asarray(theta, dtype=float)
    zero = np.zeros_like(theta)
    c0 = np.stack([np.sin(theta), np.cos(theta), zero], axis=-1)
    c1 = np.stack([np.cos(theta), -np.sin(theta), zero], axis=-1)
    return c0, c1


def _apply(mat, vec):
    return np.einsum("ij,...j->...i", mat, vec)


# ---------------------------------------------------------------------------
# jets of G
# ---------------------------------------------------------------------------

def _first_brackets(spec, s, theta):
    """a1, a2 (the first-order brackets) and the pieces they are built from.

    Shapes broadcast (s, theta) -> (..., 3).  Returns (a1, a2, parts) with
    parts = (sh, ch, c0, c1, e3, q1), which the higher brackets reuse.
    """
    s, theta = np.broadcast_arrays(np.asarray(s, float), np.asarray(theta, float))
    s = s[..., None]
    c0, c1 = _circ(theta)
    e3 = np.broadcast_to(np.array([0.0, 0.0, 1.0]), c0.shape)
    sh, ch = np.sinh(s), np.cosh(s)
    q1 = _apply(spec.b_mat, c0) + c1
    return e3 + sh * q1, ch * c0, (sh, ch, c0, c1, e3, q1)


def _brackets(spec, s, theta, order):
    """Periodic bracket vectors of the normalized jet of G.

    Shapes broadcast (s, theta) -> (..., 3).
    """
    a1, a2, (sh, ch, c0, c1, e3, q1) = _first_brackets(spec, s, theta)
    b = spec.b_mat
    out = {
        "a1": a1,
        "a2": a2,
        "a11": _apply(b, e3) + sh * (_apply(b, q1) + _apply(b, c1) - c0),
        "a22": sh * c0,
        "a12": ch * q1,
    }
    if order >= 3:
        b2 = b @ b
        w3 = _apply(b2 @ b, c0) + 3.0 * _apply(b2, c1) - 3.0 * _apply(b, c0) - c1
        out["a111"] = _apply(b2, e3) + sh * w3
        out["a112"] = ch * (_apply(b2, c0) + 2.0 * _apply(b, c1) - c0)
        out["a122"] = sh * q1
        out["a222"] = ch * c0
    return out


def normalized_jet(spec, s, theta, order=2):
    """Jet of G with every slot pulled back by e^{-lam theta} R(theta).

    All components are 2 pi-periodic in theta in closed form; slot order is
    (theta, s).
    """
    br = _brackets(spec, s, theta, order)
    third = None
    if order >= 3:
        third = (br["a111"], br["a112"], br["a122"], br["a222"])
    return jet_from_arrays(br["a1"], br["a2"], br["a11"], br["a22"], br["a12"],
                           third=third)


def _gauge(spec, theta):
    """P(theta) = e^{lam theta} E(theta); its inverse undoes the gauge."""
    theta = np.asarray(theta, dtype=float)
    return np.exp(spec.lam * theta)[..., None, None] * spec.frame(theta)


def bent_jet(spec, s, theta, order=2):
    """Lab-frame jet of G = M o F; slot order (theta, s), order <= 3."""
    tilde = normalized_jet(spec, s, theta, order)
    p = _gauge(spec, theta)
    apply_p = lambda a: np.einsum("...ij,...kj->...ki", p, a)
    d3 = None if tilde.d3 is None else apply_p(tilde.d3)
    return Jet(apply_p(tilde.d1), apply_p(tilde.d2), d3)


def bent_point(spec, s, theta):
    s, theta = np.broadcast_arrays(np.asarray(s, float), np.asarray(theta, float))
    c0, _ = _circ(theta)
    p = _gauge(spec, theta)
    return spec.gamma(theta) + np.sinh(s)[..., None] * np.einsum(
        "...ij,...j->...i", p, c0)


def reference_jet(delta_xi, s, theta, order=2):
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
    third = None
    if order >= 3:
        v3 = v2 @ m2.T
        g_ttt = pack(v3 * sh[..., None], lam * lam * grow)
        g_tts = pack(v2 * ch[..., None], zero)
        g_tss = pack(v1 * sh[..., None], zero)
        g_sss = pack(v * ch[..., None], zero)
        third = (g_ttt, g_tts, g_tss, g_sss)
    return jet_from_arrays(g_t, g_s, g_tt, g_ss, g_ts, third=third)


def reference_point(delta_xi, s, theta):
    lam = float(delta_xi)
    s, theta = np.broadcast_arrays(np.asarray(s, float), np.asarray(theta, float))
    grow = np.exp(lam * theta)
    vert = np.expm1(lam * theta) / lam if lam != 0.0 else theta + 0.0
    return np.stack([grow * np.sin(theta) * np.sinh(s),
                     grow * np.cos(theta) * np.sinh(s), vert], axis=-1)


# ---------------------------------------------------------------------------
# unit normal with derivatives
# ---------------------------------------------------------------------------

def _normal_bundle(a1, a2, da1, da2, dda1, dda2):
    """nu = a1 x a2 / |.| and its first/second grid derivatives.

    da* = (d_theta, d_s), dda* = (d_theta_theta, d_theta_s, d_s_s) of the two
    first-order brackets: their literal derivatives, not normalized jet slots.
    """
    cross = np.cross
    n = cross(a1, a2)
    n_t = cross(da1[0], a2) + cross(a1, da2[0])
    n_s = cross(da1[1], a2) + cross(a1, da2[1])
    n_tt = cross(dda1[0], a2) + 2.0 * cross(da1[0], da2[0]) + cross(a1, dda2[0])
    n_ts = (cross(dda1[1], a2) + cross(da1[0], da2[1])
            + cross(da1[1], da2[0]) + cross(a1, dda2[1]))
    n_ss = cross(dda1[2], a2) + 2.0 * cross(da1[1], da2[1]) + cross(a1, dda2[2])

    dot = lambda u, v: np.einsum("...i,...i->...", u, v)
    r = np.sqrt(dot(n, n))
    r_t = dot(n, n_t) / r
    r_s = dot(n, n_s) / r
    r_tt = (dot(n_t, n_t) + dot(n, n_tt)) / r - r_t * r_t / r
    r_ts = (dot(n_t, n_s) + dot(n, n_ts)) / r - r_t * r_s / r
    r_ss = (dot(n_s, n_s) + dot(n, n_ss)) / r - r_s * r_s / r

    r_ = r[..., None]
    nu = n / r_
    d_first = lambda n_a, r_a: n_a / r_ - n * (r_a / (r * r))[..., None]
    nu_t = d_first(n_t, r_t)
    nu_s = d_first(n_s, r_s)

    def d_second(n_ab, r_a, r_b, n_a, n_b, r_ab):
        return (n_ab / r_
                - (n_a * r_b[..., None] + n_b * r_a[..., None] + n * r_ab[..., None]) / (r * r)[..., None]
                + 2.0 * n * (r_a * r_b / (r * r * r))[..., None])

    nu_tt = d_second(n_tt, r_t, r_t, n_t, n_t, r_tt)
    nu_ts = d_second(n_ts, r_t, r_s, n_t, n_s, r_ts)
    nu_ss = d_second(n_ss, r_s, r_s, n_s, n_s, r_ss)
    return {"nu": nu, "nu_t": nu_t, "nu_s": nu_s,
            "nu_tt": nu_tt, "nu_ts": nu_ts, "nu_ss": nu_ss}


def _gauged_normal(spec, s, theta):
    """The gauged unit normal alone: the "nu" of _gauged_normal_bundle."""
    a1, a2, _ = _first_brackets(spec, s, theta)
    n = np.cross(a1, a2)
    return n / np.sqrt(np.einsum("...i,...i->...", n, n))[..., None]


def _gauged_normal_bundle(spec, s, theta):
    """Normal bundle of the normalized jet plus its covariant derivatives.

    Covariant theta-derivatives (d_theta + delta R) convert grid derivatives
    of the gauged normal into the gauged derivatives of the lab normal,
    which is what the graph variation needs.
    """
    a1, a2, (sh, ch, c0, c1, _, q1) = _first_brackets(spec, s, theta)
    q2 = _apply(spec.b_mat, c1) - c0
    da1 = (sh * q2, ch * q1)
    da2 = (ch * c1, sh * c0)
    dda1 = (-sh * q1, ch * q2, sh * q1)
    dda2 = (-ch * c0, sh * c1, ch * c0)
    nb = _normal_bundle(a1, a2, da1, da2, dda1, dda2)

    rw = spec.delta * spec.r_mat
    nu, nu_t, nu_s = nb["nu"], nb["nu_t"], nb["nu_s"]
    return {
        "nu": nu,
        "nu_s": nu_s,
        "nu_ss": nb["nu_ss"],
        "nu_t": nu_t + _apply(rw, nu),
        "nu_ts": nb["nu_ts"] + _apply(rw, nu_s),
        "nu_tt": nb["nu_tt"] + 2.0 * _apply(rw, nu_t) + _apply(rw @ rw, nu),
    }


# ---------------------------------------------------------------------------
# graphs and the Q operator
# ---------------------------------------------------------------------------

@dataclass
class U0Profile:
    s: np.ndarray
    values: np.ndarray
    residual_sup: float
    iterations: int
    c_hat: float


@dataclass
class GraphFunction:
    """A graph function together with its first and second grid derivatives.

    The solver's graph candidates contain cutoff factors whose high
    derivatives are far too spiky for grid stencils (the error feeds back
    through the iteration and destabilizes it), so the derivative data
    travels with the values: products with cutoffs and the substitute
    functions fill these fields in closed form, and only genuinely smooth
    fields are ever differenced.
    """

    values: np.ndarray
    d_t: np.ndarray
    d_s: np.ndarray
    d_tt: np.ndarray
    d_ss: np.ndarray
    d_ts: np.ndarray

    @classmethod
    def from_values(cls, u, d1_mat, d2_mat):
        """Derive a smooth grid function: stencils in s, modes in theta."""
        u_t = theta_derivative(u)
        return cls(u, u_t, d1_mat @ u, theta_derivative(u, order=2),
                   d2_mat @ u, d1_mat @ u_t)

    def __add__(self, other):
        return GraphFunction(self.values + other.values, self.d_t + other.d_t,
                             self.d_s + other.d_s, self.d_tt + other.d_tt,
                             self.d_ss + other.d_ss, self.d_ts + other.d_ts)

    def __mul__(self, c):
        return GraphFunction(c * self.values, c * self.d_t, c * self.d_s,
                             c * self.d_tt, c * self.d_ss, c * self.d_ts)

    __rmul__ = __mul__


def variation_from_derivatives(spec, normals, u, u_t, u_s, u_tt, u_ss, u_ts):
    """Gauged jet variation of the graph e^{lam theta} u from u's derivatives.

    The lam-shifts on theta-derivatives come from differentiating the
    dilation gauge; the covariant normal fields in `normals` already absorb
    the rotation gauge.
    """
    lam = spec.lam
    du_t = u_t + lam * u
    du_tt = u_tt + 2.0 * lam * u_t + lam * lam * u
    du_ts = u_ts + lam * u_s
    nu, nu_t, nu_s = normals["nu"], normals["nu_t"], normals["nu_s"]
    nu_tt, nu_ts, nu_ss = normals["nu_tt"], normals["nu_ts"], normals["nu_ss"]
    uc = u[..., None]
    e1 = du_t[..., None] * nu + uc * nu_t
    e2 = u_s[..., None] * nu + uc * nu_s
    e11 = du_tt[..., None] * nu + 2.0 * du_t[..., None] * nu_t + uc * nu_tt
    e22 = u_ss[..., None] * nu + 2.0 * u_s[..., None] * nu_s + uc * nu_ss
    e12 = (du_ts[..., None] * nu + du_t[..., None] * nu_s
           + u_s[..., None] * nu_t + uc * nu_ts)
    return jet_from_arrays(e1, e2, e11, e22, e12)


def variation_from_graph(spec, normals, gf):
    return variation_from_derivatives(spec, normals, gf.values, gf.d_t,
                                      gf.d_s, gf.d_tt, gf.d_ss, gf.d_ts)


class BentSurface:
    """Grid-sampled geometry of G over |s| <= arccosh(ell), theta-periodic.

    Everything geometric is cached at construction: the normalized jet, the
    gauged normal bundle, and the straightening profile u0 (solved on the
    same s-grid so no interpolation enters the Q operator).  A given u0
    (values on the s-grid) is used as is instead; the mesh export passes
    zeros because its resampled graph already contains u0.  Instances are
    treated as immutable.
    """

    def __init__(self, spec: SpiralSpec, ell, n_s, n_theta, u0=None):
        self.spec = spec
        self.grid = Grid(ell, n_s, n_theta)
        g = self.grid
        self.ch = np.cosh(g.s)
        self.jet = normalized_jet(spec, g.s[:, None], g.theta[None, :], order=2)
        self.normals = _gauged_normal_bundle(spec, g.s[:, None], g.theta[None, :])
        # recorded conformality margin: 1 - min aspect ~ delta (|R| + |xi|)
        self.min_aspect = float(jets.aspect_ratio(self.jet).min())
        if u0 is not None:
            self.u0 = np.asarray(u0, dtype=float)
            self.u0_info = None
        elif spec.lam == 0.0:
            self.u0 = np.zeros_like(g.s)
            self.u0_info = U0Profile(g.s, self.u0, 0.0, 0, 0.0)
        else:
            prof = solve_u0(spec.lam, ell, n=n_s)
            self.u0 = prof.values
            self.u0_info = prof
        zero = np.zeros((len(g.s), 1))
        self.u0_fn = GraphFunction(self.u0[:, None], zero, (g.d1 @ self.u0)[:, None],
                                   zero, (g.d2 @ self.u0)[:, None], zero)

    def as_graph_function(self, u):
        if isinstance(u, GraphFunction):
            return u
        g = self.grid
        return GraphFunction.from_values(np.asarray(u, dtype=float), g.d1, g.d2)

    def graph_variation(self, u):
        """The gauged jet variation generated by the graph e^{lam theta} u."""
        return variation_from_graph(self.spec, self.normals,
                                    self.as_graph_function(u))

    def graph_jet(self, u):
        """Normalized-gauge jet of the graph of e^{lam theta} u over G."""
        total = self.jet + self.graph_variation(u)
        a = jets.aspect_ratio(total)
        if np.any(a < jets.ASPECT_FLOOR):
            raise GraphTooLargeError("graph leaves the immersion set")
        return total

    def q_operator(self, u):
        """cosh^2(s) times the gauged mean curvature of the graph by u + u0.

        u may be a plain grid array (derived by stencils; only safe for
        smooth fields) or a GraphFunction carrying its own derivatives.  The
        output is a 2 pi-periodic grid function.
        """
        total = self.graph_jet(self.as_graph_function(u) + self.u0_fn)
        return self.ch[:, None] ** 2 * jets.mean_curvature(total)


# ---------------------------------------------------------------------------
# the straightening profile u0
# ---------------------------------------------------------------------------

def solve_u0(delta_xi, ell, n=512, tol=1e-11, max_iter=40, eps0=1.5):
    """Odd profile u0(s) making the reference immersion's normal graph minimal.

    The reference immersion is G over the trivial generator (a straight
    axis).  The graph equation restricted to theta-independent functions is
    a second order ODE in s; the admissible solution vanishes to second
    order at s = 0 (u0(0) = u0'(0) = 0) and is extended oddly.  Solved by
    damped Newton on the n-interval grid over |s| <= arccosh(ell): unknowns
    are the values at s > 0, equations are the u0'(0) = 0 pin followed by
    the ODE (BentSurface.q_operator) at interior positive points; the outer
    rim point carries no collocation (free boundary).

    Returns a U0Profile; c_hat reports sup |u0| / (s^2 delta_xi), the
    measured constant of the quadratic smallness bound.
    """
    lam = float(delta_xi)
    s_max = float(np.arccosh(ell))
    if lam != 0.0 and s_max > eps0 * abs(lam) ** -0.25:
        raise RejectedParametersError(
            f"profile domain arccosh(ell) = {s_max:.3f} exceeds "
            f"{eps0:g} * (delta |xi|)^(-1/4) = {eps0 * abs(lam) ** -0.25:.3f}")
    flat = BentSurface(SpiralSpec(np.zeros((3, 3)), 1.0, lam, allow_trivial=True),
                       ell, n, 1, u0=np.zeros(n + 1))
    s, h, i_zero = flat.grid.s, flat.grid.h, flat.grid.i_zero
    if lam == 0.0:
        return U0Profile(s, np.zeros_like(s), 0.0, 0, 0.0)

    def expand(u_pos):
        u = np.zeros(n + 1)
        u[i_zero + 1:] = u_pos
        u[:i_zero] = -u_pos[::-1]
        return u

    def residual_vec(u_pos):
        q = flat.q_operator(expand(u_pos)[:, None])[:, 0]
        # odd-aware fourth-order derivative at 0: u'(0) = (8 u_1 - u_2) / 6h
        slope = (8.0 * u_pos[0] - u_pos[1]) / (6.0 * h)
        return np.concatenate([[slope], q[i_zero + 1:-1]])  # rim excluded

    # Equation k (the pin, then collocation at grid point i_zero + k) sees only
    # unknowns within `reach` of k, as the stencils span at most 5 grid points
    # (one-sided edge rows): unknowns `stride` apart never share an equation,
    # and colored differences fill the band column by column.
    reach, stride = 5, 11

    def jacobian_band(u_pos):
        m = len(u_pos)
        ab = np.zeros((2 * reach + 1, m))
        eps = 1e-7 * max(1.0, float(np.abs(u_pos).max()))
        for c in range(min(stride, m)):
            pert = np.zeros(m)
            pert[c::stride] = eps
            col = (residual_vec(u_pos + pert) - residual_vec(u_pos - pert)) / (2.0 * eps)
            for j in range(c, m, stride):
                lo, hi = max(0, j - reach), min(m, j + reach + 1)
                ab[reach + lo - j:reach + hi - j, j] = col[lo:hi]
        return ab

    u_pos = np.zeros(n - i_zero)
    r = residual_vec(u_pos)
    it = 0
    for it in range(1, max_iter + 1):
        rn = np.abs(r).max()
        if rn <= tol:
            break
        try:
            step = BandedLU(jacobian_band(u_pos), reach, reach).solve(-r)
        except np.linalg.LinAlgError:
            raise NoProfileError("singular Newton system for the profile")
        lam_step = 1.0
        for _ in range(10):
            cand = u_pos + lam_step * step
            r_cand = residual_vec(cand)
            if np.abs(r_cand).max() < rn:
                u_pos, r = cand, r_cand
                break
            lam_step *= 0.5
        else:
            raise NoProfileError("profile Newton stalled (no descent step)")
    else:
        raise NoProfileError(
            f"profile Newton did not reach tolerance {tol:g}; "
            f"residual {np.abs(r).max():.3e}")

    u_full = expand(u_pos)
    s_pos = s[i_zero + 1:]
    c_hat = float(np.max(np.abs(u_pos) / s_pos ** 2) / abs(lam))
    return U0Profile(s, u_full, float(np.abs(residual_vec(u_pos)).max()),
                     it, c_hat)
