import tracemalloc

import numpy as np
import pytest

from spiralforge import bent, helicoid, jets, numerics, tube
from spiralforge.bent import BentSurface, bent_jet, bent_point, normalized_jet
from spiralforge.errors import (GraphTooLargeError, InvalidImmersionError,
                               NoProfileError, RejectedParametersError)
from spiralforge.helicoid import reference_jet, reference_point
from spiralforge.numerics import Grid, theta_derivative
from spiralforge.spirals import SpiralSpec

from conftest import bent_surface, profile, rows_of

_C1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def fd1(f, x, h=1e-3):
    return sum(c * f(x + k * h) for c, k in zip(_C1, range(-3, 4))) / h


@pytest.fixture(scope="module")
def spec():
    return SpiralSpec.from_invariants(1.0, 0.4, 1.0, 1e-3)


class TestBentJet:
    def test_point_is_tube_of_helicoid(self, spec):
        s, t = 0.8, 1.3
        f = helicoid.reference_point(0.0, s, t)
        want = tube.tube_map(spec, f[0], f[1], f[2])
        assert np.abs(bent_point(spec, s, t) - want).max() < 1e-12

    def test_first_jet_vs_fd(self, spec):
        s, t = 0.8, 1.3
        j = bent_jet(spec, s, t)
        assert np.abs(j.d1[0] - fd1(lambda tt: bent_point(spec, s, tt), t)).max() < 1e-7
        assert np.abs(j.d1[1] - fd1(lambda ss: bent_point(spec, ss, t), s)).max() < 1e-7

    def test_higher_jets_vs_fd(self, spec):
        s, t = -0.4, 0.9
        j = bent_jet(spec, s, t)
        fd_tt = fd1(lambda tt: bent_jet(spec, s, tt).d1[0], t)
        fd_ts = fd1(lambda tt: bent_jet(spec, s, tt).d1[1], t)
        assert np.abs(j.d2[0] - fd_tt).max() < 1e-10
        assert np.abs(j.d2[3] - fd_ts).max() < 1e-10

    def test_normalized_periodicity(self, spec):
        a = normalized_jet(spec, 0.7, 0.4)
        b = normalized_jet(spec, 0.7, 0.4 + 2 * np.pi)
        assert np.abs(a.d1 - b.d1).max() < 1e-14
        assert np.abs(a.d2 - b.d2).max() < 1e-14

    def test_normalized_is_gauged_lab_jet(self, spec):
        s, t = 0.5, -2.2
        p = np.exp(spec.lam * t) * spec.frame(t)
        lab = bent_jet(spec, s, t)
        tilde = normalized_jet(spec, s, t)
        back = np.linalg.solve(p, lab.d1.T).T
        assert np.abs(back - tilde.d1).max() < 1e-13

    def test_lab_jet_similarity(self, spec):
        # jets one period later are the similarity image of the jets here
        scale, rot = spec.similarity()
        j0 = bent_jet(spec, 0.6, 0.3)
        j1 = bent_jet(spec, 0.6, 0.3 + 2 * np.pi)
        assert np.abs(j1.d1 - scale * np.einsum("ij,kj->ki", rot, j0.d1)).max() < 1e-12

    def test_small_delta_limit(self):
        # the normalized jet approaches the helicoid jet at rate delta cosh(s)
        s = np.linspace(-3, 3, 41)[:, None]
        t = np.linspace(-np.pi, np.pi, 9)[None, :]
        hj = helicoid.helicoid_jet(s, t)
        for delta in (1e-5, 1e-6):
            sp = SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
            nj = normalized_jet(sp, s, t)
            diff = np.abs(nj.d1 - hj.d1).max(axis=(-2, -1)) / np.cosh(s)
            assert diff.max() < 1e-4
            assert diff.max() / delta < 5.0  # linear in delta

    def test_closeness_ratio_stable_under_halving(self):
        # |tilde G - tilde G0| <= C delta |R| cosh(s), C stable across delta
        s = np.linspace(-3, 3, 31)[:, None]
        t = np.linspace(-np.pi, np.pi, 9)[None, :]
        ratios = []
        for delta in (1e-2, 1e-3):
            sp = SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
            nj = normalized_jet(sp, s, t)
            r0 = reference_jet(sp.lam, s, t)
            tilde0 = np.exp(-sp.lam * t)[..., None, None] * r0.d1
            diff = np.abs(nj.d1 - tilde0).max(axis=(-2, -1))
            ratios.append((diff / np.cosh(s)).max() / (delta * sp.r_norm))
        assert ratios[0] < 10.0
        assert 0.2 < ratios[0] / ratios[1] < 5.0

    def test_aspect_near_one(self):
        s = np.linspace(-4, 4, 41)[:, None]
        t = np.linspace(-np.pi, np.pi, 9)[None, :]
        consts = []
        for delta in (1e-2, 5e-3):
            sp = SpiralSpec.from_invariants(1.0, 0.5, 1.0, delta)
            a = jets.aspect_ratio(normalized_jet(sp, s, t))
            consts.append((1.0 - a.min()) / (delta * (sp.r_norm + abs(sp.xi))))
        assert consts[0] < 10.0
        assert 0.3 < consts[0] / consts[1] < 3.0

    def test_mean_curvature_gauge(self, spec):
        # H of the lab jet and of the normalized jet differ by e^{lam theta}
        s = np.linspace(-2, 2, 21)[:, None]
        t = np.linspace(-np.pi, np.pi, 9)[None, :]
        h_lab = jets.mean_curvature(bent_jet(spec, s, t))
        h_til = jets.mean_curvature(normalized_jet(spec, s, t))
        diff = np.abs(h_til - np.exp(spec.lam * t) * h_lab).max()
        assert diff < 1e-11 * np.abs(h_til).max()


class TestReferenceJet:
    def test_fd_oracle(self):
        lam, s, t = 0.02, 0.8, 1.3
        j = reference_jet(lam, s, t)
        assert np.abs(j.d1[0] - fd1(lambda tt: reference_point(lam, s, tt), t)).max() < 1e-8
        assert np.abs(j.d1[1] - fd1(lambda ss: reference_point(lam, ss, t), s)).max() < 1e-8
        fd_tt = fd1(lambda tt: reference_jet(lam, s, tt).d1[0], t)
        assert np.abs(j.d2[0] - fd_tt).max() < 1e-10

    def test_is_gauged_jet_over_trivial_generator(self):
        # the reference immersion is G over R = 0, where the gauge is the bare
        # dilation e^{lam theta}; solve_u0 relies on this to use graph_q
        lam = 0.02
        flat = SpiralSpec(np.zeros((3, 3)), 1.0, lam, allow_trivial=True)
        s = np.linspace(-3, 3, 21)[:, None]
        t = np.linspace(-np.pi, 3 * np.pi, 17)[None, :]
        grow = np.exp(lam * t)[..., None, None]
        tilde, ref = normalized_jet(flat, s, t), reference_jet(lam, s, t)
        assert np.abs(grow * tilde.d1 - ref.d1).max() < 1e-12
        assert np.abs(grow * tilde.d2 - ref.d2).max() < 1e-12

    def test_distance_to_helicoid_linear_in_rate(self):
        s = np.linspace(-3, 3, 31)[:, None]
        t = np.linspace(-np.pi, np.pi, 9)[None, :]
        hj = helicoid.helicoid_jet(s, t)
        ratios = []
        for lam in (1e-2, 5e-3):
            rj = reference_jet(lam, s, t)
            tilde = np.exp(-lam * t)[..., None, None] * rj.d1
            diff = np.abs(tilde - hj.d1).max(axis=(-2, -1))
            ratios.append((diff / np.cosh(s)).max() / lam)
        assert 0.3 < ratios[0] / ratios[1] < 3.0


@pytest.fixture(scope="module")
def surface_and_u0(spec):
    return bent_surface(spec, 32.0, 128, 16)


@pytest.fixture(scope="module")
def surface(surface_and_u0):
    return surface_and_u0[0]


class TestGraphJet:

    def test_zero_graph(self, surface):
        g = surface.grid
        total = surface.graph_jet(g.derivatives(np.zeros((129, 16))))
        jet = normalized_jet(surface.spec, g.s[:, None], g.theta[None, :])
        assert np.abs(total.d1 - jet.d1).max() == 0.0

    def test_linearity(self, surface):
        rng = np.random.default_rng(0)
        u = 0.01 * rng.standard_normal((129, 16))
        v = 0.01 * rng.standard_normal((129, 16))
        g = surface.grid
        e_u = surface.graph_variation(g.derivatives(u))
        e_v = surface.graph_variation(g.derivatives(v))
        e_c = surface.graph_variation(g.derivatives(2 * u + 3 * v))
        assert np.abs(e_c.d1 - 2 * e_u.d1 - 3 * e_v.d1).max() < 1e-12
        assert np.abs(e_c.d2 - 2 * e_u.d2 - 3 * e_v.d2).max() < 1e-12

    def test_variation_periodic(self, spec):
        # the gauged variation of a periodic u built at theta and theta + 2 pi
        # agrees: evaluate via two surfaces on shifted windows
        nb1 = bent.geometry(spec, 0.7, 0.4)[1]
        nb2 = bent.geometry(spec, 0.7, 0.4 + 2 * np.pi)[1]
        for key in nb1:
            assert np.abs(nb1[key] - nb2[key]).max() < 1e-13

    def test_normal_only_matches_bundle(self, spec):
        s = np.linspace(-3, 3, 31)[:, None]
        t = np.linspace(-np.pi, 3 * np.pi, 9)[None, :]
        assert np.array_equal(bent._gauged_normal(spec, s, t),
                              bent.geometry(spec, s, t)[1]["nu"])

    def test_too_large_graph_rejected(self):
        # on the flat rig a constant offset by the focal distance cosh^2(s_k)
        # makes det(I + u S) vanish exactly at the grid row s_k
        flat = SpiralSpec(np.zeros((3, 3)), 1e-3, 0.0, allow_trivial=True)
        surf, _ = bent_surface(flat, 32.0, 128, 16)
        u = np.full((129, 16), np.cosh(surf.grid.s[10]) ** 2)
        with pytest.raises(GraphTooLargeError):
            surf.graph_jet(surf.grid.derivatives(u))

    def test_normal_difference_to_reference(self):
        # sup |nu_tilde - nu_ref| / (delta |R|) bounded, stable under halving
        s = np.linspace(-3, 3, 31)[:, None]
        t = np.linspace(-np.pi, np.pi, 9)[None, :]
        consts = []
        for delta in (1e-2, 5e-3):
            sp = SpiralSpec.from_invariants(1.0, 0.3, 1.0, delta)
            nu = np.moveaxis(bent.geometry(sp, s, t)[1]["nu"], 0, -1)
            nu_ref = jets.unit_normal(reference_jet(sp.lam, s, t))
            consts.append(np.abs(nu - nu_ref).max() / (delta * sp.r_norm))
        assert consts[0] < 10.0
        assert 0.3 < consts[0] / consts[1] < 3.0


# (kappa0, tau0, xi): the default spiral, and two with torsion and either sign of xi
_NAMED = [(1.0, 0.0, 1.0), (0.95, 0.3, 1.05), (1.1, 0.4, -0.95)]


def _cross_product_bundle(spec, s, theta):
    """The normal bundle by cross products of the first brackets' literal
    derivatives: n = a1 x a2 and its partials, then nu = n / |n| differentiated
    through |n|.  A second route to bent._normal_bundle's separable form."""
    cross, dot, apply = bent._cross, bent._dot, bent._apply
    sh, ch, c0, c1, e3, q1 = bent._factors(spec, s, theta)
    a1, a2 = e3 + sh * q1, ch * c0
    q2 = apply(spec.b_mat, c1) - c0
    a1_t, a1_s = sh * q2, ch * q1
    a2_t, a2_s = ch * c1, sh * c0
    a1_tt, a1_ts, a1_ss = -sh * q1, ch * q2, sh * q1
    a2_tt, a2_ts, a2_ss = -ch * c0, sh * c1, ch * c0

    n = cross(a1, a2)
    r = np.sqrt(dot(n, n))
    n_t = cross(a1_t, a2) + cross(a1, a2_t)
    n_s = cross(a1_s, a2) + cross(a1, a2_s)
    n_tt = cross(a1_tt, a2) + 2.0 * cross(a1_t, a2_t) + cross(a1, a2_tt)
    n_ts = (cross(a1_ts, a2) + cross(a1_t, a2_s)
            + cross(a1_s, a2_t) + cross(a1, a2_ts))
    n_ss = cross(a1_ss, a2) + 2.0 * cross(a1_s, a2_s) + cross(a1, a2_ss)

    r_t = dot(n, n_t) / r
    r_s = dot(n, n_s) / r
    r_tt = (dot(n_t, n_t) + dot(n, n_tt)) / r - r_t * r_t / r
    r_ts = (dot(n_t, n_s) + dot(n, n_ts)) / r - r_t * r_s / r
    r_ss = (dot(n_s, n_s) + dot(n, n_ss)) / r - r_s * r_s / r

    r2 = r * r
    nu = n / r
    nu_t = n_t / r - n * (r_t / r2)
    nu_s = n_s / r - n * (r_s / r2)

    def d_second(n_ab, r_a, r_b, n_a, n_b, r_ab):
        return (n_ab / r - (n_a * r_b + n_b * r_a + n * r_ab) / r2
                + 2.0 * n * (r_a * r_b / (r2 * r)))

    rw = spec.delta * spec.r_mat
    return {
        "nu": nu,
        "nu_s": nu_s,
        "nu_ss": d_second(n_ss, r_s, r_s, n_s, n_s, r_ss),
        "nu_t": nu_t + apply(rw, nu),
        "nu_ts": d_second(n_ts, r_t, r_s, n_t, n_s, r_ts) + apply(rw, nu_s),
        "nu_tt": (d_second(n_tt, r_t, r_t, n_t, n_t, r_tt)
                  + 2.0 * apply(rw, nu_t) + apply(rw @ rw, nu)),
    }


class TestNormalBundle:
    @pytest.mark.parametrize("shift", [0.0, 2 * np.pi], ids=["theta", "theta+2pi"])
    @pytest.mark.parametrize("invariants", _NAMED, ids=str)
    def test_matches_cross_product_route(self, invariants, shift):
        sp = SpiralSpec.from_invariants(*invariants, 1e-3)
        g = Grid(32.0, 256, 16)
        s, t = g.s[:, None], g.theta[None, :] + shift
        got = bent.geometry(sp, s, t)[1]
        want = _cross_product_bundle(sp, s, t)
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert np.abs(got[key] - w).max() <= 1e-13 * np.abs(w).max(), key

    @pytest.mark.parametrize("invariants", _NAMED, ids=str)
    def test_s_derivatives_by_differences(self, invariants):
        # seven-point central differences in s of the unit normal alone
        sp = SpiralSpec.from_invariants(*invariants, 1e-3)
        s = np.linspace(-3.0, 3.0, 13)[:, None]
        t = np.linspace(-np.pi, 3 * np.pi, 9)[None, :]
        h = 1e-2
        c2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        nus = [bent._gauged_normal(sp, s + k * h, t) for k in range(-3, 4)]
        got = bent.geometry(sp, s, t)[1]
        nu_s = sum(c * n for c, n in zip(_C1, nus)) / h
        nu_ss = sum(c * n for c, n in zip(c2, nus)) / h ** 2
        assert np.abs(got["nu_s"] - nu_s).max() < 1e-10
        assert np.abs(got["nu_ss"] - nu_ss).max() < 1e-9


class TestQOperator:
    def test_flat_rig_zero(self):
        flat = SpiralSpec(np.zeros((3, 3)), 1e-3, 0.0, allow_trivial=True)
        surf, _ = bent_surface(flat, 32.0, 128, 16)
        q = surf.q_operator(rows_of(surf.grid.derivatives(np.zeros((129, 16)))))
        assert np.abs(q).max() < 1e-11

    def test_periodicity_of_output(self, spec):
        # evaluate the same periodic graph on the theta window shifted by a
        # full period: Q must reproduce itself to roundoff
        from spiralforge.numerics import derivative_matrix, theta_derivative
        s = np.linspace(-2.0, 2.0, 65)
        theta = -np.pi + 2 * np.pi * np.arange(16) / 16
        h = s[1] - s[0]
        d1 = derivative_matrix(len(s), h, 1, acc=4)
        d2 = derivative_matrix(len(s), h, 2, acc=4)
        rng = np.random.default_rng(5)
        u = 1e-3 * rng.standard_normal((65, 16))
        u_t = theta_derivative(u)
        derivs = (u, u_t, d1 @ u, theta_derivative(u, order=2), d2 @ u, d1 @ u_t)

        def q_of(t):
            brackets, normals, ch2 = bent.geometry(spec, s[:, None], t[None, :])
            return bent.graph_q(spec.lam, brackets, normals, ch2, derivs)

        assert np.abs(q_of(theta) - q_of(theta + 2 * np.pi)).max() < 1e-10

    def test_scaling_in_delta(self):
        sups = []
        weighted = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            sp = SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
            surf, u0 = bent_surface(sp, 32.0, 256, 32)
            zero = surf.grid.derivatives(np.zeros((257, 32)))
            q = surf.q_operator(rows_of([z + d0 for z, d0 in zip(zero, u0)]))
            sups.append(np.abs(q).max())
            w = np.abs(q).max(axis=1) / np.cosh(surf.grid.s) ** 0.75
            weighted.append(w.max() / (delta * 32.0 ** 0.25 * sp.r_norm))
        for hi, lo in zip(sups, sups[1:]):
            assert 0.35 <= lo / hi <= 0.65
        # the weighted size of the initial defect is linear in delta with a
        # stable measured constant
        assert max(weighted) / min(weighted) < 1.5

    @pytest.mark.parametrize("rows", [None, 7, 0], ids=["default", "7-rows", "sub-row"])
    def test_blocks_equal_whole_grid(self, surface_and_u0, monkeypatch, rows):
        # 7 n_theta + 3 points is 7 rows a block with a partial last block;
        # 3 points is less than one row, so one row a block
        surface, u0 = surface_and_u0
        g = surface.grid
        if rows is not None:
            monkeypatch.setattr(numerics, "BLOCK", rows * g.n_theta + 3)
        rng = np.random.default_rng(3)
        derivs = g.derivatives(1e-3 * rng.standard_normal((g.n_s + 1, g.n_theta)))
        with_u0 = [d + d0 for d, d0 in zip(derivs, u0)]
        brackets, normals, ch2 = bent.geometry(surface.spec, g.s[:, None], g.theta[None, :])
        whole = bent.graph_q(surface.spec.lam, brackets, normals, ch2, with_u0)
        assert np.array_equal(surface.q_operator(rows_of(with_u0)), whole)

    def test_bounded_memory(self, spec):
        # the temporaries of one block, not of the grid: about 16.5 MB when
        # Q ran on the whole 1024x64 grid at once
        grid = Grid(32.0, 1024, 64)
        surf = BentSurface(spec, grid)
        rng = np.random.default_rng(4)
        derivs = grid.derivatives(1e-3 * rng.standard_normal((1025, 64)))
        tracemalloc.start()
        try:
            surf.q_operator(rows_of(derivs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20

    def test_linearization_is_stability_operator(self):
        # flat rig: dQ/du at 0 equals the discrete flattened stability operator
        flat = SpiralSpec(np.zeros((3, 3)), 1e-3, 0.0, allow_trivial=True)
        surf, _ = bent_surface(flat, 32.0, 256, 16)
        g = surf.grid
        u = (1 - (g.s[:, None] / g.s_max) ** 2) ** 2 * (
            np.cos(g.theta)[None, :] / np.cosh(g.s)[:, None])
        eps = 1e-6
        dq = (surf.q_operator(rows_of(g.derivatives(eps * u)))
              - surf.q_operator(rows_of(g.derivatives(-eps * u)))) / (2 * eps)
        want = (g.d2 @ u + theta_derivative(u, order=2)
                + 2 * u / np.cosh(g.s)[:, None] ** 2)
        assert np.abs(dq - want).max() < 1e-8


# bent's bracket, slot and Q code in its whole-array expression form, kept
# as the reference of the in-place kernel: same operations, same order


def _ref_brackets(spec, factors):
    sh, ch, c0, c1, e3, q1 = factors
    b = spec.b_mat
    return {
        "a1": e3 + sh * q1,
        "a2": ch * c0,
        "a11": bent._apply(b, e3) + sh * (bent._apply(b, q1) + bent._apply(b, c1) - c0),
        "a22": sh * c0,
        "a12": ch * q1,
    }


def _ref_variation(lam, normals, u, u_t, u_s, u_tt, u_ss, u_ts):
    du_t = u_t + lam * u
    du_tt = u_tt + 2.0 * lam * u_t + lam * lam * u
    du_ts = u_ts + lam * u_s
    nu, nu_t, nu_s = normals["nu"], normals["nu_t"], normals["nu_s"]
    nu_tt, nu_ts, nu_ss = normals["nu_tt"], normals["nu_ts"], normals["nu_ss"]
    return (du_t * nu + u * nu_t,
            u_s * nu + u * nu_s,
            du_tt * nu + 2.0 * du_t * nu_t + u * nu_tt,
            u_ss * nu + 2.0 * u_s * nu_s + u * nu_ss,
            du_ts * nu + du_t * nu_s + u_s * nu_t + u * nu_ts)


def _ref_first_form(x1, x2):
    _dot = bent._dot
    g11, g12, g22 = _dot(x1, x1), _dot(x1, x2), _dot(x2, x2)
    trace = g11 + g22
    if np.any(trace == 0.0):
        raise InvalidImmersionError("zero first-order jet")
    det = g11 * g22 - g12 * g12
    return g11, g12, g22, det, 2.0 * np.sqrt(np.maximum(det, 0.0)) / trace


def _ref_graph_slots(lam, brackets, normals, derivs):
    slots = _ref_variation(lam, normals, *derivs)
    for e, key in zip(slots, bent._SLOTS):
        e += brackets[key]
    form = _ref_first_form(slots[0], slots[1])
    *_, aspect = form
    if np.any(aspect < jets.ASPECT_FLOOR):
        raise GraphTooLargeError("graph leaves the immersion set")
    return slots, form


def _ref_graph_q(lam, brackets, normals, ch2, derivs):
    _dot = bent._dot
    (x1, x2, x11, x22, x12), (g11, g12, g22, det, _) = _ref_graph_slots(
        lam, brackets, normals, derivs)
    if np.any(det <= 0.0):
        raise InvalidImmersionError("degenerate metric in mean curvature")
    n = bent._cross(x1, x2)
    nu = n / np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    h = (g22 * _dot(x11, nu) - 2.0 * g12 * _dot(x12, nu)
         + g11 * _dot(x22, nu)) / det
    return ch2 * h


def _random_graph(g, seed):
    """A random graph's bundle plus u0's on g, as Q sees the solved graph."""
    rng = np.random.default_rng(seed)
    derivs = g.derivatives(1e-3 * rng.standard_normal((g.n_s + 1, g.n_theta)))
    u0 = g.derivatives(profile(1e-3, g).values[:, None])
    return [d + d0 for d, d0 in zip(derivs, u0)]


class TestInPlaceKernel:
    """graph_slots, graph_q and the surface's per-block normal bundle equal
    the expression form above bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_whole_grid(self, surface, seed):
        spec, g = surface.spec, surface.grid
        s, t = g.s[:, None], g.theta[None, :]
        derivs = _random_graph(g, seed)
        brackets, normals, ch2 = bent.geometry(spec, s, t)
        ref = _ref_brackets(spec, bent._factors(spec, s, t))
        slots, form = bent.graph_slots(spec.lam, brackets, normals, derivs)
        want_slots, want_form = _ref_graph_slots(spec.lam, ref, normals, derivs)
        assert all(np.array_equal(a, b) for a, b in zip(slots, want_slots))
        assert all(np.array_equal(a, b) for a, b in zip(form, want_form))
        want = _ref_graph_q(spec.lam, ref, normals, ch2, derivs)
        assert np.array_equal(bent.graph_q(spec.lam, brackets, normals, ch2, derivs), want)
        jet, want_jet = surface.graph_jet(derivs), bent._pack(*want_slots)
        assert np.array_equal(jet.d1, want_jet.d1) and np.array_equal(jet.d2, want_jet.d2)
        var = surface.graph_variation(derivs)
        want_var = bent._pack(*_ref_variation(spec.lam, normals, *derivs))
        assert np.array_equal(var.d1, want_var.d1) and np.array_equal(var.d2, want_var.d2)

    @pytest.mark.parametrize("n_s,n_theta,rows", [(1024, 64, None), (128, 16, 7), (128, 16, 0)],
                             ids=["default", "7-rows", "sub-row"])
    def test_blocks(self, spec, monkeypatch, n_s, n_theta, rows):
        # the default BLOCK is 128 rows at 1024x64, with a last block of one
        # row; 7 n_theta + 3 points is 7 rows a block with a partial last
        # block; 3 points is less than one row, so one row a block
        g = Grid(32.0, n_s, n_theta)
        if rows is not None:
            monkeypatch.setattr(numerics, "BLOCK", rows * g.n_theta + 3)
        surf = BentSurface(spec, g)
        s, t = g.s[:, None], g.theta[None, :]
        derivs = _random_graph(g, 2)
        _, normals, ch2 = bent.geometry(spec, s, t)
        assert surf.normals.keys() == normals.keys()
        assert all(np.array_equal(surf.normals[k], f) for k, f in normals.items())
        want = _ref_graph_q(spec.lam, _ref_brackets(spec, bent._factors(spec, s, t)),
                            normals, ch2, derivs)
        assert np.array_equal(surf.q_operator(rows_of(derivs)), want)


def _q_by_jets(surface, gf):
    """cosh^2 H by the Jet route: normalized_jet plus the packed variation of
    the graph's bundle gf, through jets.mean_curvature."""
    g = surface.grid
    total = (normalized_jet(surface.spec, g.s[:, None], g.theta[None, :])
             + surface.graph_variation(gf))
    return np.cosh(g.s)[:, None] ** 2 * jets.mean_curvature(total)


class TestQAgainstJetRoute:
    def test_cutoff_graph_function(self, spec):
        from spiralforge import solver
        assert spec.tau0 != 0.0
        ws = solver.Workspace(spec, 32.0, 128, 16)
        g = ws.grid
        rng = np.random.default_rng(7)
        v = 1e-3 * np.cos(g.theta)[None, :] * np.tanh(g.s)[:, None] \
            + 1e-4 * rng.standard_normal((129, 16))
        state = solver.SolverState(v, 0.02, -0.01)
        gf = solver._graph_bundle(ws, state, ws.psi[:, None] * v)(slice(None))
        q = ws.surface.q_operator(rows_of(gf))
        assert np.abs(q - _q_by_jets(ws.surface, gf)).max() <= 1e-13 * np.abs(q).max()

    def test_flat_u0_surface(self):
        flat = SpiralSpec(np.zeros((3, 3)), 1.0, 1e-3, allow_trivial=True)
        surf = BentSurface(flat, Grid(32.0, 256, 1))
        u = (1e-3 * np.sinh(surf.grid.s) ** 2 * np.tanh(surf.grid.s))[:, None]
        gf = surf.grid.derivatives(u)
        q = surf.q_operator(rows_of(gf))
        assert np.abs(q - _q_by_jets(surf, gf)).max() <= 1e-13 * np.abs(q).max()


class TestProfile:
    def test_zero_rate(self):
        prof = profile(0.0, Grid(32.0, 64, 1))
        assert np.all(prof.values == 0.0)

    def test_oddness_exact(self):
        prof = profile(1e-3, Grid(32.0, 128, 1))
        assert np.abs(prof.values + prof.values[::-1]).max() == 0.0

    def test_residual_and_iterations(self):
        prof = profile(1e-3, Grid(32.0, 256, 1))
        assert prof.residual_sup <= 1e-11
        assert prof.iterations <= 10

    def test_quadratic_bound_constant_stable(self):
        grid = Grid(32.0, 256, 1)
        c1 = profile(1e-3, grid).c_hat
        c2 = profile(5e-4, grid).c_hat
        assert 0.5 < c1 / c2 < 2.0

    def test_domain_gate(self):
        with pytest.raises(RejectedParametersError):
            profile(0.05, Grid(2000.0, 512, 1))

    def test_negative_rate(self):
        prof = profile(-1e-3, Grid(32.0, 128, 1))
        assert prof.residual_sup <= 1e-11

    def test_constant_only_above_the_roundoff_floor(self):
        # c_hat is reported while u0's first residual, about |delta_xi|, is
        # at least PROFILE_RESOLVED times Q_flat's roundoff floor (5.9e-32);
        # the switch lies at |delta_xi| of about 5.8e-30.  Above it c_hat is
        # within 1% of its value at delta_xi = 1e-3; below it, nan
        grid = Grid(32.0, 512, 1)
        c_hat = profile(1e-3, grid).c_hat
        assert abs(profile(1e-29, grid).c_hat / c_hat - 1.0) < 0.01
        for lam in (0.0, 3e-30, 1e-31, -1e-303):
            assert np.isnan(profile(lam, grid).c_hat)

    @pytest.mark.parametrize("lam", [1e-28, -1e-303])
    def test_rate_at_the_roundoff_floor(self, lam):
        # the first residual, O(delta_xi), lies within 1 / RESIDUAL_DROP of
        # Q_flat's roundoff floor (about 5e-32), so it cannot fall by
        # RESIDUAL_DROP; it converges by ending below floor / RESIDUAL_DROP
        prof = profile(lam, Grid(32.0, 512, 1))
        assert prof.residual_sup < 1e-30

    @pytest.mark.parametrize("lam", [1e-3, -1e-3])
    def test_against_positive_half_root(self, lam):
        # independent route: the positive-half system (unknowns u at s > 0,
        # odd extension, the odd-aware pin u'(0) = (8 u_1 - u_2) / 6h, Q at
        # the positive interior points) solved by a general root finder
        from scipy.optimize import root

        n = 128
        flat = BentSurface(SpiralSpec(np.zeros((3, 3)), 1.0, lam, allow_trivial=True),
                           Grid(32.0, n, 1))
        i0, h = flat.grid.i_zero, flat.grid.h

        def expand(u_pos):
            return np.r_[-u_pos[::-1], 0.0, u_pos]

        def system(u_pos):
            q = flat.q_operator(rows_of(flat.grid.derivatives(expand(u_pos)[:, None])))[:, 0]
            return np.r_[(8.0 * u_pos[0] - u_pos[1]) / (6.0 * h), q[i0 + 1:-1]]

        # hybr may report failure at this xtol although the residual sits at
        # rounding level, so the residual is what is checked
        sol = root(system, np.zeros(n - i0), method="hybr", options={"xtol": 1e-14})
        assert np.abs(system(sol.x)).max() <= 1e-14
        prof = profile(lam, flat.grid)
        assert np.abs(prof.values - expand(sol.x)).max() <= 1e-13
        assert prof.values[i0] == 0.0
        assert abs((flat.grid.d1 @ prof.values)[i0]) <= 1e-12

    def test_roundoff_floor_stops(self):
        # at n = 16384 the residual of Q stalls near 2e-11; the update still
        # falls below tol, and the residual has fallen far below its first value
        prof = profile(1e-3, Grid(32.0, 16384, 1))
        assert prof.residual_sup <= 1e-10
        assert prof.iterations <= 3

    def test_divergent_chord_raises(self):
        # at delta_xi = 2 the chord iteration diverges: there is no profile
        with pytest.raises(NoProfileError, match="did not converge"):
            profile(2.0, Grid(1.886, 256, 1))

    @pytest.mark.parametrize("n", [512, 1024, 4096])
    def test_few_q_calls(self, n, monkeypatch):
        calls = []
        graph_q = bent.graph_q

        def counted(*args):
            calls.append(1)
            return graph_q(*args)

        monkeypatch.setattr(bent, "graph_q", counted)
        profile(1e-3, Grid(32.0, n, 1))
        assert 0 < len(calls) <= 5

    def test_surface_runs_no_profile_solve(self, spec, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("BentSurface solved a profile")

        monkeypatch.setattr(bent, "solve_u0", refuse)
        grid = Grid(32.0, 64, 8)
        surf = BentSurface(spec, grid)
        assert surf.grid is grid
