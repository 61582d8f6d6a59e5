import numpy as np
import pytest

from spiralforge import helicoid, jets
from spiralforge.helicoid import (gauss_map, helicoid_jet, kernel_fn, kernel_pairing,
                                  reference_point, stability_apply, substitute)

from conftest import rel_err


def grid(s_max=6.0, n_s=512, n_theta=32):
    s = np.linspace(-s_max, s_max, n_s + 1)
    theta = -np.pi + 2 * np.pi * np.arange(n_theta) / n_theta
    return s, theta, s[:, None], theta[None, :]


class TestHelicoidJet:
    def test_base_point(self):
        assert np.allclose(reference_point(0.0, 0.0, 0.0), [0, 0, 0])
        j = helicoid_jet(0.0, 0.0)
        assert np.allclose(j.d1[1], [0, 1, 0])   # s-slot
        assert np.allclose(j.d1[0], [0, 0, 1])   # theta-slot

    def test_metric_conformal(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(-3, 3, 50)
        t = rng.uniform(-np.pi, np.pi, 50)
        g11, g12, g22 = jets.metric(helicoid_jet(s, t))
        ch2 = np.cosh(s) ** 2
        assert np.abs(g11 - ch2).max() < 1e-12 * ch2.max()
        assert np.abs(g22 - ch2).max() < 1e-12 * ch2.max()
        assert np.abs(g12).max() < 1e-13 * ch2.max()

    def test_minimal(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-4, 4, 100)
        t = rng.uniform(-np.pi, np.pi, 100)
        assert np.abs(jets.mean_curvature(helicoid_jet(s, t))).max() < 1e-12


class TestGaussMap:
    def test_base_point(self):
        nu, factor = gauss_map(0.0, 0.0)
        assert np.allclose(nu, [-1, 0, 0])
        assert factor == 1.0

    def test_punctures(self):
        nu, _ = gauss_map(30.0, 0.3)
        assert np.allclose(nu, [0, 0, 1], atol=1e-12)
        nu, _ = gauss_map(-30.0, -2.0)
        assert np.allclose(nu, [0, 0, -1], atol=1e-12)

    def test_matches_jet_normal(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-3, 3, 40)
        t = rng.uniform(-np.pi, np.pi, 40)
        nu, _ = gauss_map(s, t)
        assert np.abs(nu - jets.unit_normal(helicoid_jet(s, t))).max() < 1e-13

    def test_conformality(self):
        # |d_s nu|^2 = factor * g_ss at random points
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(1000):
            s = rng.uniform(-3, 3)
            t = rng.uniform(-np.pi, np.pi)
            dnu = (gauss_map(s + h, t)[0] - gauss_map(s - h, t)[0]) / (2 * h)
            factor = gauss_map(s, t)[1]
            g_ss = np.cosh(s) ** 2
            assert abs(np.dot(dnu, dnu) - factor * g_ss) < 1e-8 * max(1, factor * g_ss)


class TestKernel:
    def test_values(self):
        assert kernel_fn("x", 0.0, 0.0) == 1.0
        assert kernel_fn("z", -1.3, 0.0) == -kernel_fn("z", 1.3, 0.0)

    def test_unit_norm_as_vector(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-4, 4, 30)
        t = rng.uniform(-np.pi, np.pi, 30)
        total = (kernel_fn("x", s, t) ** 2 + kernel_fn("y", s, t) ** 2
                 + kernel_fn("z", s, t) ** 2)
        assert np.abs(total - 1.0).max() < 1e-14

    def test_annihilation_and_refinement(self):
        # second-order convergence of the discrete operator on the kernel
        sups = {}
        for n_s in (1024, 2048):
            s, theta, sc, tr = grid(6.0, n_s, 16)
            worst = 0.0
            for which in "xyz":
                img = stability_apply(kernel_fn(which, sc, tr), s)
                worst = max(worst, np.abs(img).max())
            sups[n_s] = worst
        assert sups[1024] <= 1e-4
        assert sups[1024] / sups[2048] >= 3.5

    def test_bad_name(self):
        with pytest.raises(ValueError):
            kernel_fn("w", 0.0, 0.0)


class TestSubstitute:
    def test_vanishes_inside_cutoff(self):
        assert substitute("x", 0.5, 0.7)[0][0] == 0.0
        assert substitute("z", -0.9, 0.0)[0][0] == 0.0

    def test_odd_vertical_profile(self):
        s = np.linspace(-5, 5, 101)
        u = substitute("z", s, 0.0)[0][0]
        assert np.abs(u + u[::-1]).max() < 1e-15

    def test_theta_independence_of_vertical(self):
        t = np.linspace(-np.pi, np.pi, 9)
        u = substitute("z", 3.0, t)[0][0]
        w = substitute("z", 3.0, t)[1]
        assert np.ptp(u) == 0.0
        assert np.ptp(w) == 0.0

    def test_image_closed_form_outside_band(self):
        # where the cutoff is identically 1 the image is 2 cos(theta) /
        # (4 pi cosh) -- the curvature potential acting on cos cosh
        for s in (2.5, -3.0, 4.0):
            for t in (0.0, 1.1):
                want = 2.0 * np.cos(t) / np.cosh(s) / (4 * np.pi)
                assert rel_err(substitute("x", s, t)[1], want) < 1e-13

    def test_image_matches_discrete_operator(self):
        # independent route: apply the discrete operator to u_x and refine;
        # the difference must shrink at second order toward the closed form
        errs = []
        for n_s in (2048, 4096):
            s, theta, sc, tr = grid(6.0, n_s, 8)
            ux = substitute("x", sc, tr)[0][0]
            wx = substitute("x", sc, tr)[1]
            errs.append(np.abs(stability_apply(ux, s) - wx).max())
        assert errs[0] / errs[1] > 3.0

    def test_derivative_bundle_consistency(self):
        s = np.linspace(-4, 4, 201)[:, None]
        t = (np.linspace(-np.pi, np.pi, 9)[:-1])[None, :]
        (u, u_t, u_s, u_tt, u_ss, u_ts), _ = substitute("x", s, t)
        h = 1e-5
        up = substitute("x", s + h, t)[0][0]
        um = substitute("x", s - h, t)[0][0]
        assert np.abs((up - um) / (2 * h) - u_s).max() < 1e-7
        assert np.abs((up - 2 * u + um) / h ** 2 - u_ss).max() < 5e-4
        vp = substitute("x", s, t + h)[0][0]
        vm = substitute("x", s, t - h)[0][0]
        assert np.abs((vp - vm) / (2 * h) - u_t).max() < 1e-9


class TestPairings:
    def test_diagonal_pairings(self):
        for which in "xyz":
            assert abs(kernel_pairing(which, 10.0) - 1.0) < 1e-6

    def test_pairing_converges_with_s_max(self):
        d4 = abs(kernel_pairing("x", 4.0) - 1.0)
        d8 = abs(kernel_pairing("x", 8.0) - 1.0)
        assert d8 < d4

    def test_cross_pairings_on_grid(self):
        # quadrature oracle for the theta-orthogonality of cross pairings
        s, theta, sc, tr = grid(10.0, 2048, 32)
        w_s = np.ones(len(s)) * (s[1] - s[0])
        w_s[0] = w_s[-1] = 0.5 * (s[1] - s[0])
        dth = 2 * np.pi / len(theta)
        for ki in "xyz":
            for wj in "xyz":
                if ki == wj:
                    continue
                val = float(w_s @ (kernel_fn(ki, sc, tr)
                                   * substitute(wj, sc, tr)[1]) @ np.ones(len(theta))) * dth
                assert abs(val) < 1e-8

    def test_breakpoints_follow_the_cutoff(self):
        # quad's breakpoints come from cutoffs.Cutoff(*helicoid._BAND), equal
        # bit for bit to the band's transition points, and the pairings they
        # give are those of the literal points
        assert helicoid._CUT_BREAKPOINTS == (-2.0, -5.0 / 3.0, -4.0 / 3.0, -1.0,
                                             1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0)
        pinned = {"x": "0x1.ffffffdc96f2cp-1", "y": "0x1.ffffffdc96f2cp-1",
                  "z": "0x1.fffffd1861f66p-1"}
        for which, value in pinned.items():
            assert kernel_pairing(which, 10.0) == float.fromhex(value)

    def test_s_max_gate(self):
        with pytest.raises(ValueError):
            kernel_pairing("x", 2.0)


class TestStabilityApply:
    def test_linear_profile(self):
        # u = s has vanishing derivatives beyond the potential term
        s, theta, sc, tr = grid(5.0, 512, 8)
        u = sc * np.ones_like(tr)
        got = stability_apply(u, s)
        want = 2 * sc / np.cosh(sc) ** 2 * np.ones_like(tr)
        assert np.abs(got - want).max() < 1e-9

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            stability_apply(np.zeros((10, 8)), np.linspace(-1, 1, 11))
