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

    Q[u] = cosh^2(s) H( normalized jet of G + graph by e^{lam theta} u )

is assembled here in that gauge, so the output of Q is periodic to roundoff
rather than to discretization error.

The gauge has curvature: grid derivatives of the normalized components are
not normalized higher components.  Wherever a theta-derivative of a gauged
field appears it is the covariant one, d_theta + delta * R.

Vector fields are held component-major, shape (3,) + grid shape, and the
geometry is written as elementwise dot and cross products of their
components.  geometry is the one assembly of the pointwise geometry Q
needs (the brackets as s-profiles times theta-rows, the gauged normal
bundle, cosh^2 s).  The functions returning a `Jet` (normalized_jet,
bent_jet, graph_jet, graph_variation) or a (..., 3) array (bent_point,
graph_point) move the component axis last at their boundary; the Q
operator never packs a Jet.  Lab points go through tube.frame_point, the
one evaluation of the tube map.

The normal is separable in s and theta: a1 x a2 = cosh(s) (A(theta) +
sinh(s) B(theta)), so the bundle takes its cross products on theta-rows
only and differentiates m / |m| in closed form.  BentSurface builds it a
block of numerics.row_blocks rows at a time into the arrays it keeps
(9 MiB at 1024x64) and keeps the brackets as their s-profiles and
theta-rows alone: at 1024x64 its set-up peaks at 12.0 MiB (tracemalloc)
and takes about 15 ms CPU, against 24.6 MiB and 26 ms when it also kept
the 15 bracket fields (7.5 MiB) on the whole grid (one thread on a 2-vCPU
x86-64 host).  BentSurface.q_operator runs graph_q a block of rows at a
time, the loop the mesh export and the OBJ/CSV writers also use: it asks
for each block's derivative bundle as it reaches it, forms the block's
brackets from their factors, and evaluates the slots, the first form and
H in place in buffers allocated once per call.  At 1024x64 a solver
residual (the graph's bundle and Q) peaks at 2.5 MiB, against 5.5 MiB
when Q read a whole-grid bundle and cached brackets.

The straightening profile u0 solves Q = 0 for theta-independent graphs over
G with the trivial generator, by a chord iteration on the solve's own grid
and m = 0 inverse (the solver's StabilityModes.solve_mean).  The solved
graph u is u0 + psi v + b_x u_x + b_y u_y, and u0 enters it in one place,
where the solver forms the graph's bundle; BentSurface holds G alone.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (GraphTooLargeError, InvalidImmersionError, NoProfileError,
                     RejectedParametersError)
from .jets import Jet, jet_from_arrays
from .numerics import iterate, residual_dropped, row_blocks, weighted_norm
from .spirals import SpiralSpec
from .tube import frame_point

# slots of a second-order jet, in jet_from_arrays order
_SLOTS = ("a1", "a2", "a11", "a22", "a12")
# u0's domain gate: arccosh(ell) <= PROFILE_GATE * (delta |xi|)^(-1/4)
PROFILE_GATE = 1.5
PROFILE_STEPS = 40  # the cap on u0's chord steps
# u0's first residual over Q_flat's roundoff floor above which c_hat is
# reported: c_hat is 0.2% off at 172 times the floor and 2.4% at 19
PROFILE_RESOLVED = 100.0


def _dot(a, b):
    # summed in the order np.einsum uses on C-contiguous (..., 3) slots, so
    # that the geometry rounds exactly as the Jet route through jets does
    return a[0] * b[0] + a[2] * b[2] + a[1] * b[1]


def _cross(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[j] * b[k], a[k] * b[j], out=out[i, ...])
    return out


def _apply(mat, vec):
    """mat @ vec for a component-major field vec."""
    return np.stack([_dot(row, vec) for row in mat])


def _last(vec):
    """Component-major (3, ...) to the (..., 3) layout of Jet slots (a view)."""
    return np.moveaxis(vec, 0, -1)


def _pack(*slots):
    """C-contiguous Jet from component-major slots (first partials, then
    11, 22, 12)."""
    return jet_from_arrays(*(np.ascontiguousarray(_last(a)) for a in slots))


def _same_ndim(s, theta):
    """s and theta as float arrays padded with leading axes to equal ndim, so
    that (s-shape) * (3, theta-shape) broadcasts to (3,) + the grid shape."""
    s, theta = np.asarray(s, dtype=float), np.asarray(theta, dtype=float)
    nd = max(s.ndim, theta.ndim)
    return (s.reshape((1,) * (nd - s.ndim) + s.shape),
            theta.reshape((1,) * (nd - theta.ndim) + theta.shape))


def _circ(theta):
    """c(theta) and c'(theta), component-major; c'' = -c."""
    sin, cos, zero = np.sin(theta), np.cos(theta), np.zeros_like(theta)
    return np.stack([sin, cos, zero]), np.stack([cos, -sin, zero])


# ---------------------------------------------------------------------------
# jets of G
# ---------------------------------------------------------------------------

def _factors(spec, s, theta):
    """(sh, ch, c0, c1, e3, q1), the factors every bracket and normal is built
    from: sh = sinh s and ch = cosh s on the s-shape, the vectors
    component-major on the theta-shape, padded so that their products
    broadcast to (3,) + broadcast(s, theta)."""
    s, theta = _same_ndim(s, theta)
    c0, c1 = _circ(theta)
    e3 = np.zeros_like(c0)
    e3[2] = 1.0
    q1 = _apply(spec.b_mat, c0) + c1
    return np.sinh(s), np.cosh(s), c0, c1, e3, q1


def _brackets(spec, factors):
    """Periodic bracket vectors of the normalized jet of G by slot, from
    factors = _factors(spec, s, theta), each as (r0, p, row): the bracket
    is r0 + p * row (p * row where r0 is None), with p = sinh s or cosh s
    on the s-shape and r0, row component-major on the theta-shape.

    The one form of the brackets: a block of grid rows slices p alone, and
    _bracket forms a whole field.
    """
    sh, ch, c0, c1, e3, q1 = factors
    b = spec.b_mat
    return {
        "a1": (e3, sh, q1),
        "a2": (None, ch, c0),
        "a11": (_apply(b, e3), sh, _apply(b, q1) + _apply(b, c1) - c0),
        "a22": (None, sh, c0),
        "a12": (None, ch, q1),
    }


def _bracket(r0, p, row):
    """One bracket of _brackets as a field, shape (3,) + broadcast(p, row)."""
    return p * row if r0 is None else r0 + p * row


def normalized_jet(spec, s, theta):
    """Jet of G with every slot pulled back by e^{-lam theta} R(theta).

    All components are 2 pi-periodic in theta in closed form; slot order is
    (theta, s).
    """
    br = _brackets(spec, _factors(spec, s, theta))
    return _pack(*(_bracket(*br[k]) for k in _SLOTS))


def bent_jet(spec, s, theta):
    """Lab-frame jet of G = M o F, the normalized jet pushed forward by
    P(theta) = e^{lam theta} E(theta); slot order (theta, s)."""
    tilde = normalized_jet(spec, s, theta)
    theta = np.asarray(theta, dtype=float)
    p = np.exp(spec.lam * theta)[..., None, None] * spec.frame(theta)
    apply_p = lambda a: np.einsum("...ij,...kj->...ki", p, a)
    return Jet(apply_p(tilde.d1), apply_p(tilde.d2))


def bent_point(spec, s, theta):
    """G(s, theta), shape broadcast(s, theta) + (3,): the tube map of
    sinh(s) c(theta) at height theta."""
    s, theta = _same_ndim(s, theta)
    return _last(frame_point(spec, theta, np.sinh(s) * _circ(theta)[0]))


def graph_point(spec, s, theta, u, nu=None):
    """Lab points of the normal graph by e^{lam theta} u over G, shape
    broadcast(s, theta, u) + (3,): the one evaluation of a graph's lab
    points, which the self-similarity audit, the embed samples and the mesh
    build all call (the audit and the build a block of numerics.row_blocks
    rows at a time).

    nu is the gauged unit normal at the same points, component-major, where
    the caller holds it (a normal bundle's "nu"); by default it is formed
    here, bit for bit the bundle's.
    """
    if nu is None:
        nu = _gauged_normal(spec, s, theta)
    s, theta = _same_ndim(s, theta)
    return _last(frame_point(spec, theta, np.sinh(s) * _circ(theta)[0] + u * nu))


# ---------------------------------------------------------------------------
# unit normal with derivatives
# ---------------------------------------------------------------------------

def _unit_normal(factors):
    """The gauged unit normal nu = m / |m| and |m|, with m's theta-row
    factors A = e3 x c0 and B = q1 x c0.

    a1 x a2 = cosh(s) m with m = A + sinh(s) B, so nu depends on s only
    through sigma = sinh s, and only m and nu are whole-grid fields.
    """
    sh, _, c0, _, e3, q1 = factors
    a, b = _cross(e3, c0), _cross(q1, c0)
    m = a + sh * b
    r = np.sqrt(_dot(m, m))
    return m / r, r, a, b


def _normal_bundle(spec, factors):
    """Gauged unit normal nu and its covariant derivatives, component-major,
    shape (3,) + broadcast(s, theta), from factors = _factors(spec, s, theta).

    nu = m / |m| with m = A + sigma B, sigma = sinh s (_unit_normal), so
    m_sigma = B, m_sigma_sigma = 0, m_t = A' + sigma B', m_tt = -A + sigma B''
    and m_sigma_t = B', with A' = e3 x c1, B' = q2 x c0 + q1 x c1 and
    B'' = 2 q2 x c1 - 2 B: every cross product is on theta-rows.  With
    r_a = nu . m_a, the derivatives of m / |m| are

        nu_a  = (m_a - r_a nu) / |m|,
        nu_ab = (m_ab - r_b nu_a - r_a nu_b - (nu_b . m_a + nu . m_ab) nu) / |m|,

    and sigma-derivatives become s-derivatives by nu_s = ch nu_sigma,
    nu_ss = sh nu_sigma + ch^2 nu_sigma_sigma, nu_ts = ch nu_sigma_t.  The
    covariant theta-derivatives (d_theta + delta R) then convert them into
    the gauged derivatives of the lab normal, which is what the graph
    variation needs.
    """
    sh, ch, c0, c1, e3, q1 = factors
    nu, r, a, b = _unit_normal(factors)
    # suffix g: a derivative in sigma
    q2 = _apply(spec.b_mat, c1) - c0
    b_t = _cross(q2, c0) + _cross(q1, c1)
    m_t = _cross(e3, c1) + sh * b_t
    m_tt = sh * (2.0 * _cross(q2, c1) - 2.0 * b) - a
    inv = 1.0 / r
    r_g, r_t = _dot(nu, b), _dot(nu, m_t)
    nu_g = (b - r_g * nu) * inv
    nu_t = (m_t - r_t * nu) * inv
    nu_gg = -(2.0 * r_g * nu_g + _dot(nu_g, b) * nu) * inv
    nu_gt = (b_t - r_t * nu_g - r_g * nu_t - (_dot(nu_t, b) + _dot(nu, b_t)) * nu) * inv
    nu_tt = (m_tt - 2.0 * r_t * nu_t - (_dot(nu_t, m_t) + _dot(nu, m_tt)) * nu) * inv
    nu_s = ch * nu_g

    rw = spec.delta * spec.r_mat
    return {
        "nu": nu,
        "nu_s": nu_s,
        "nu_ss": sh * nu_g + ch * ch * nu_gg,
        "nu_t": nu_t + _apply(rw, nu),
        "nu_ts": ch * nu_gt + _apply(rw, nu_s),
        "nu_tt": nu_tt + 2.0 * _apply(rw, nu_t) + _apply(rw @ rw, nu),
    }


def geometry(spec, s, theta):
    """(brackets, normals, ch2): the pointwise geometry of G that Q needs on
    broadcast(s, theta), the brackets in _brackets' form, the normal bundle
    as a component-major dict of shape (3,) + broadcast(s, theta), and
    cosh^2 s."""
    factors = _factors(spec, s, theta)
    return _brackets(spec, factors), _normal_bundle(spec, factors), np.cosh(s) ** 2


def _gauged_normal(spec, s, theta):
    """The gauged unit normal alone, component-major: the "nu" of _normal_bundle."""
    return _unit_normal(_factors(spec, s, theta))[0]


# ---------------------------------------------------------------------------
# graphs and the Q operator
# ---------------------------------------------------------------------------

@dataclass
class U0Profile:
    values: np.ndarray
    residual_sup: float
    iterations: int
    c_hat: float


def _scratch(shape):
    """The buffers of one graph_slots or graph_q evaluation on points of
    shape: six component-major vector fields (the five slots and a
    temporary) and nine scalar fields."""
    return np.empty((6, 3) + shape), np.empty((9,) + shape)


def _points(normals, derivs):
    """The shape of the points of a normal bundle and a derivative bundle."""
    return np.broadcast_shapes(normals["nu"].shape[1:], *(np.shape(d) for d in derivs))


def _products(out, tmp, *pairs):
    """The sum of a * b over pairs (a, b), added left to right, into out,
    with tmp as scratch; returns out."""
    (a, b), *rest = pairs
    np.multiply(a, b, out=out)
    for a, b in rest:
        out += np.multiply(a, b, out=tmp)
    return out


def _dot_into(out, tmp, a, b):
    """_dot(a, b) into out, in _dot's order."""
    return _products(out, tmp, (a[0], b[0]), (a[2], b[2]), (a[1], b[1]))


def _variation(lam, normals, derivs, work):
    """Gauged jet variation (e1, e2, e11, e22, e12) of the graph e^{lam theta} u,
    component-major, into the first five vector buffers of work (_scratch).

    normals is a component-major normal bundle and derivs = (u, u_t, u_s,
    u_tt, u_ss, u_ts) u's derivative bundle on the same points.  The
    lam-shifts on theta-derivatives come from differentiating the dilation
    gauge; the covariant normal fields already absorb the rotation gauge.
    Every sum is added left to right in the order written here, and every
    product as written, so the slots are bit for bit those of the same
    expressions on whole arrays.
    """
    u, u_t, u_s, u_tt, u_ss, u_ts = derivs
    (*slots, tmp), (du_t, du_tt, du_ts, t, *_) = work
    e1, e2, e11, e22, e12 = slots
    nu, nu_t, nu_s = normals["nu"], normals["nu_t"], normals["nu_s"]
    nu_tt, nu_ts, nu_ss = normals["nu_tt"], normals["nu_ts"], normals["nu_ss"]
    # du_t = u_t + lam u, du_tt = u_tt + (2 lam) u_t + (lam lam) u,
    # du_ts = u_ts + lam u_s
    np.add(u_t, np.multiply(lam, u, out=du_t), out=du_t)
    np.add(u_tt, np.multiply(2.0 * lam, u_t, out=du_tt), out=du_tt)
    du_tt += np.multiply(lam * lam, u, out=t)
    np.add(u_ts, np.multiply(lam, u_s, out=du_ts), out=du_ts)
    _products(e1, tmp, (du_t, nu), (u, nu_t))
    _products(e2, tmp, (u_s, nu), (u, nu_s))
    _products(e11, tmp, (du_tt, nu), (np.multiply(2.0, du_t, out=t), nu_t), (u, nu_tt))
    _products(e22, tmp, (u_ss, nu), (np.multiply(2.0, u_s, out=t), nu_s), (u, nu_ss))
    _products(e12, tmp, (du_ts, nu), (du_t, nu_s), (u_s, nu_t), (u, nu_ts))
    return slots


def _first_form(x1, x2, scalars):
    """g11, g12, g22, det g and the conformality ratio of jets.aspect_ratio,
    2 sqrt(max(det g, 0)) / (g11 + g22), into the last six scalar buffers
    of _scratch.

    Raises InvalidImmersionError on an identically zero first jet.
    """
    *_, trace, g11, g12, g22, det, aspect = scalars
    _dot_into(g11, trace, x1, x1)
    _dot_into(g12, trace, x1, x2)
    _dot_into(g22, trace, x2, x2)
    np.add(g11, g22, out=trace)
    if np.any(trace == 0.0):
        raise InvalidImmersionError("zero first-order jet")
    np.multiply(g11, g22, out=det)
    det -= np.multiply(g12, g12, out=aspect)
    np.sqrt(np.maximum(det, 0.0, out=aspect), out=aspect)
    aspect *= 2.0
    aspect /= trace
    return g11, g12, g22, det, aspect


def graph_slots(lam, brackets, normals, derivs, work=None):
    """Component-major slots of the graph by e^{lam theta} u over G, and its
    first form.

    brackets (in _brackets' form) and normals are on a grid (or a block of
    grid rows), derivs = (u, u_t, u_s, u_tt, u_ss, u_ts), u's derivative
    bundle on the same points (numerics.Grid.derivatives or
    helicoid.substitute).  Everything is formed in place in work, the
    buffers of _scratch for these points (allocated here by default), and
    the slots and the form returned are views of them.  Raises
    GraphTooLargeError where the graph leaves the immersion set.
    """
    if work is None:
        work = _scratch(_points(normals, derivs))
    slots = _variation(lam, normals, derivs, work)
    tmp = work[0][5]
    for e, key in zip(slots, _SLOTS):
        r0, p, row = brackets[key]
        np.multiply(p, row, out=tmp)
        if r0 is not None:
            tmp += r0
        e += tmp
    form = _first_form(slots[0], slots[1], work[1])
    *_, aspect = form
    if np.any(aspect < jets.ASPECT_FLOOR):
        raise GraphTooLargeError("graph leaves the immersion set")
    return slots, form


def graph_q(lam, brackets, normals, ch2, derivs, out=None, work=None):
    """cosh^2(s) times the gauged mean curvature of the graph by derivs.

    The arguments are those of graph_slots plus ch2 = cosh^2(s) broadcasting
    against the points, and out, where the result is written (a new array
    by default).  Every step is pointwise, so any block of grid rows gives
    the rows of the whole-grid result.  H is jets.mean_curvature's
    (g22 A11 - 2 g12 A12 + g11 A22) / det g, evaluated on components.
    """
    if work is None:
        work = _scratch(_points(normals, derivs))
    (x1, x2, x11, x22, x12), (g11, g12, g22, det, _) = graph_slots(
        lam, brackets, normals, derivs, work)
    # the slots' first-form scratch and the variation's are free again
    n = work[0][5]
    r, d, h, t, *_ = work[1]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(x1[j], x2[k], out=n[i])
        n[i] -= np.multiply(x1[k], x2[j], out=t)
    # |n| summed in order, as np.linalg.norm does in jets.unit_normal
    n /= np.sqrt(_products(r, t, (n[0], n[0]), (n[1], n[1]), (n[2], n[2])), out=r)
    np.multiply(g22, _dot_into(d, t, x11, n), out=h)
    h -= np.multiply(np.multiply(2.0, g12, out=r), _dot_into(d, t, x12, n), out=r)
    h += np.multiply(g11, _dot_into(d, t, x22, n), out=d)
    h /= det
    return np.multiply(ch2, h, out=out)


# the keys of a normal bundle (_normal_bundle)
_NORMALS = ("nu", "nu_s", "nu_ss", "nu_t", "nu_ts", "nu_tt")


class BentSurface:
    """Geometry of G sampled on a grid over |s| <= arccosh(ell).

    The surface keeps the normal bundle on the grid, component-major with
    shape (3, n_s + 1, n_theta) (9 MiB at 1024x64), built a block of
    numerics.row_blocks rows at a time into these arrays, and the brackets
    in _brackets' form alone: sinh s and cosh s on the s-column and
    theta-rows.  A graph enters as its derivative bundle on the same grid,
    the whole graph (u0 included, as solver._graph_bundle forms it), and
    every method reads it as given.  Instances are treated as immutable.
    Q itself is graph_q, which q_operator and the mesh export both evaluate
    a block of rows at a time.
    """

    def __init__(self, spec: SpiralSpec, grid):
        self.spec, self.grid = spec, grid
        s = grid.s[:, None]
        sh, ch, *rows = factors = _factors(spec, s, grid.theta[None, :])
        self.brackets = _brackets(spec, factors)
        self.ch2 = np.cosh(s) ** 2
        shape = (3, grid.n_s + 1, grid.n_theta)
        self.normals = {key: np.empty(shape) for key in _NORMALS}
        for blk in row_blocks(grid.n_s + 1, grid.n_theta):
            for key, f in _normal_bundle(spec, (sh[blk], ch[blk], *rows)).items():
                self.normals[key][:, blk] = f

    def graph_variation(self, derivs):
        """The gauged jet variation generated by the graph e^{lam theta} u,
        from u's derivative bundle."""
        work = _scratch(_points(self.normals, derivs))
        return _pack(*_variation(self.spec.lam, self.normals, derivs, work))

    def graph_jet(self, derivs):
        """Normalized-gauge jet of the graph of e^{lam theta} u over G, from
        u's derivative bundle."""
        slots, _ = graph_slots(self.spec.lam, self.brackets, self.normals, derivs)
        return _pack(*slots)

    def q_operator(self, bundle):
        """cosh^2(s) times the gauged mean curvature of the graph of
        e^{lam theta} u over G, where bundle(rows) is u's derivative bundle
        on the grid rows rows, a slice.

        The output is a 2 pi-periodic grid function (see graph_q), evaluated
        a block of numerics.row_blocks rows at a time into one output array,
        each block's brackets formed from their factors and its bundle asked
        for as it is reached, in buffers allocated once per call: every step
        is pointwise, so it equals the whole-grid graph_q bit for bit, while
        the memory in use stays that of a block (about 1.5 MiB of buffers at
        1024x64).
        """
        out = np.empty((self.grid.n_s + 1, self.grid.n_theta))
        blocks = row_blocks(*out.shape)
        vectors, scalars = _scratch(out[blocks[0]].shape)
        for blk in blocks:
            brackets = {k: (r0, p[blk], row) for k, (r0, p, row) in self.brackets.items()}
            normals = {k: f[:, blk] for k, f in self.normals.items()}
            rows = out[blk]
            # a block a row shorter than the first uses the buffers' leading rows
            work = vectors[:, :, :len(rows)], scalars[:, :len(rows)]
            graph_q(self.spec.lam, brackets, normals, self.ch2[blk], bundle(blk), rows, work)
        return out


# ---------------------------------------------------------------------------
# the straightening profile u0
# ---------------------------------------------------------------------------

def _flat_q(lam, grid):
    """Q_flat of the reference immersion with dilation lam on grid: u(s) ->
    (graph_q of its theta-independent graph on one theta column, the sup of
    |Q_flat| over the interior rows)."""
    flat = SpiralSpec(np.zeros((3, 3)), 1.0, lam, allow_trivial=True)
    brackets, normals, ch2 = geometry(flat, grid.s[:, None], grid.theta[None, :1])

    def q_flat(u):
        q = graph_q(flat.lam, brackets, normals, ch2, grid.derivatives(u[:, None]))[:, 0]
        return q, float(np.abs(q[1:-1]).max())
    return q_flat


def solve_u0(delta_xi, grid, modes, tol=1e-9):
    """Odd profile u0(s) making the reference immersion's normal graph minimal.

    The reference immersion is G over the trivial generator (a straight
    axis).  The graph equation restricted to theta-independent functions,
    Q_flat[u] = 0 with Q_flat its graph_q on one theta column of grid, is a
    second order ODE in s; the admissible solution vanishes to second order
    at s = 0 (u0(0) = u0'(0) = 0) and is odd.  Its linearization is a small
    perturbation of the m = 0 flattened stability operator d2 + 2 sech^2 s,
    so the chord iteration on the solve's own inverse of it (modes, a
    StabilityModes on grid)

        u <- odd(u - modes.solve_mean(Q_flat[u])),   odd(u) = (u - u[::-1]) / 2,

    converges fast: the residual falls by about delta_xi^2 / 2 per step
    (measured for |delta_xi| from 1e-3 to 0.05).  solve_mean collocates at
    every interior point and pins u(0) = (d1 u)(0) = 0; the rim points carry
    no collocation (free boundary).  numerics.iterate stops it as it stops
    the solve, on max |Q_flat| over the interior rows and the weighted C^2
    update (2.3e-10 at the second step for delta_xi = 1e-3); NoProfileError
    unless it converged within PROFILE_STEPS steps.  Its first residual is
    O(delta_xi), so below |delta_xi| of about 1e-27 it lies within
    1 / RESIDUAL_DROP of Q_flat's roundoff floor (about 5e-32, its residual
    on the helicoid at u = 0) and cannot fall by RESIDUAL_DROP: a last
    residual below floor / RESIDUAL_DROP counts as converged too.

    The domain gate arccosh(ell) <= PROFILE_GATE |delta_xi|^(-1/4) guards
    direct library calls.  A solve never reaches it: solver.check_gates
    keeps |delta_xi| within GATE_BUDGET / ell, where the gate holds with a
    margin of at least 1 for every ell > 16.

    Returns a U0Profile on grid.s (iterations: chord steps); c_hat reports
    sup |u0| / (s^2 delta_xi), the measured constant of the quadratic bound,
    or nan where the first residual, about |delta_xi|, is below
    PROFILE_RESOLVED times the floor (|delta_xi| below about 6e-30, and 0):
    there u0 is mostly a fixed roundoff pattern, and the quotient grows like
    1 / |delta_xi| (0.684 at delta_xi = 1e-33 on 512x8, 6.8e269 at -1e-303).
    """
    lam = float(delta_xi)
    u = np.zeros(grid.n_s + 1)
    if lam == 0.0:
        return U0Profile(u, 0.0, 0, float("nan"))
    bound = PROFILE_GATE * abs(lam) ** -0.25
    if grid.s_max > bound:
        raise RejectedParametersError(
            f"profile domain arccosh(ell) = {grid.s_max:.3f} exceeds "
            f"{PROFILE_GATE:g} * (delta |xi|)^(-1/4) = {bound:.3f}")
    q_flat = _flat_q(lam, grid)

    def chord(u):
        q, r = q_flat(u)
        new = u - modes.solve_mean(q)
        new = 0.5 * (new - new[::-1])
        return new, r, weighted_norm((new - u)[:, None], grid)

    # Q_flat's roundoff floor: its residual on the helicoid (lam = 0) at the
    # exact profile u = 0, about 5e-32
    floor = functools.cache(lambda: _flat_q(0.0, grid)(np.zeros(grid.n_s + 1))[1])
    u, residuals, converged = iterate(chord, u, lambda u: q_flat(u)[1], tol, PROFILE_STEPS,
                                      floor)
    if not converged:
        raise NoProfileError(f"profile iteration did not converge: residual "
                             f"{residuals[0]:.3e} -> {residuals[-1]:.3e}")
    # a residual that fell by RESIDUAL_DROP (iterate's drop clause) started
    # at least 1e4 times above the last, which lies at the floor or above
    # (0.8 to 2.4 times it, 512x8 and 4096x8); only an iteration that the
    # floor clause converged, which has evaluated the floor, compares it
    resolved = residual_dropped(residuals) or residuals[0] >= PROFILE_RESOLVED * floor()
    s, i_zero = grid.s, grid.i_zero
    c_hat = (float(np.max(np.abs(u[i_zero + 1:]) / s[i_zero + 1:] ** 2) / abs(lam))
             if resolved else float("nan"))
    return U0Profile(u, residuals[-1], len(residuals) - 1, c_hat)
