import warnings

import numpy as np
import pytest

from spiralforge.spirals import (SpiralParams, SpiralSpec, frenet_generator,
                                 invariants_to_spiral, matrix_invariants,
                                 spiral_invariants, spiral_point, skew)

from conftest import frenet_oracle, rel_err


class TestSpiralPoint:
    def test_unit_circle(self):
        p = spiral_point(SpiralParams(0, 0, 1), np.pi / 2)
        assert np.allclose(p, [0, 1, 0], atol=1e-15)

    def test_growing_spiral_at_zero(self):
        p = spiral_point(SpiralParams(1, 0, 1), 0.0)
        assert np.allclose(p, [1, 0, 0])

    def test_periodicity_identity(self):
        # e^{2 pi a / c} p(t) = p(t + 2 pi / c)
        rng = np.random.default_rng(2)
        params = SpiralParams(0.4, -0.8, 1.3)
        t = rng.uniform(-3, 3, 20)
        lhs = np.exp(2 * np.pi * params.a / params.c) * spiral_point(params, t)
        rhs = spiral_point(params, t + 2 * np.pi / params.c)
        assert rel_err(lhs, rhs) < 1e-12

    def test_degenerate_exponent_limit(self):
        # |a| < 1e-12 switches to the translation-adjusted vertical term
        p = spiral_point(SpiralParams(0.0, 2.0, 1.0), 3.0)
        assert np.allclose(p, [np.cos(3), np.sin(3), 6.0])


class TestSpiralInvariants:
    def test_unit_circle(self):
        speed, kappa, tau = spiral_invariants(SpiralParams(0, 0, 1), 0.7)
        assert np.allclose([speed, kappa, tau], [1, 1, 0])

    def test_unit_111(self):
        speed, kappa, tau = spiral_invariants(SpiralParams(1, 1, 1), 0.0)
        assert np.allclose([speed, kappa, tau],
                           [np.sqrt(3), np.sqrt(2) / 3, 1.0 / 3.0])

    def test_decay_case(self):
        _, kappa, _ = spiral_invariants(SpiralParams(1, 0, 1), 1.0)
        assert abs(kappa - np.sqrt(2) / 2 * np.exp(-1)) < 1e-14

    def test_zero_params_rejected(self):
        with pytest.raises(ValueError):
            spiral_invariants(SpiralParams(0, 0, 0), 0.0)

    def test_against_frenet_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.uniform(-1.2, 1.2)
            b = np.sign(rng.standard_normal()) * rng.uniform(0.5, 2.0)
            c = np.sign(rng.standard_normal()) * rng.uniform(0.6, 2.0)
            t = rng.uniform(-5, 5)
            params = SpiralParams(a, b, c)
            want = spiral_invariants(params, t)
            # step balanced against the curve's angular scale
            h = 0.03 / max(0.7, np.hypot(a, c))
            got = frenet_oracle(lambda tt: spiral_point(params, tt), t, h=h)
            assert rel_err(got, want) < 1e-8


class TestInvariantsToSpiral:
    def test_planar(self):
        p, scale = invariants_to_spiral(1.0, 0.0, 1.0)
        assert (p.a, p.b, p.c) == (1.0, 0.0, 1.0)
        assert abs(scale - 1 / np.sqrt(2)) < 1e-15

    def test_with_torsion(self):
        p, _ = invariants_to_spiral(1.0, 1.0, 1.0)
        assert abs(p.a - 1) < 1e-15
        assert abs(p.c - np.sqrt(2)) < 1e-15
        assert abs(p.b - np.sqrt(3)) < 1e-15

    def test_round_trip(self):
        for kappa0, tau0, xi in [(1, 0, 1), (1.3, 0.6, -0.4), (0.5, -1.1, 2.0)]:
            p, scale = invariants_to_spiral(kappa0, tau0, xi)
            speed, kappa, tau = spiral_invariants(p, 0.0)
            # rescaling by `scale` divides speed and multiplies curvatures
            assert rel_err([speed * scale, kappa / scale, tau / scale],
                           [1.0, kappa0, tau0]) < 1e-10

    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            invariants_to_spiral(0.0, 1.0, 1.0)


class TestMatrixInvariants:
    def test_rotation_about_y(self):
        # generator with R e3 = -e_x: pure curvature, no torsion
        r = skew([0.0, 1.0, 0.0])
        kappa0, tau0 = matrix_invariants(r)
        assert (kappa0, tau0) == (1.0, 0.0)

    def test_scaling(self):
        r = skew([0.0, 1.0, 0.5])
        k1, t1 = matrix_invariants(r)
        k3, t3 = matrix_invariants(3.0 * r)
        assert np.allclose([k3, t3], [3 * k1, 3 * t1])

    def test_torsion_matches_numeric_frenet(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal(3)
        spec = SpiralSpec(skew(w), 0.01, 0.7)
        _, kappa, tau = frenet_oracle(spec.gamma, 0.5, h=0.1)
        z = 0.5
        assert rel_err(kappa, spec.delta * spec.kappa0 * np.exp(-spec.lam * z)) < 1e-7
        assert rel_err(tau, spec.delta * spec.tau0 * np.exp(-spec.lam * z)) < 1e-7

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            matrix_invariants(skew([0.0, 0.0, 1.0]))

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            matrix_invariants(np.eye(3))


class TestFrame:
    def test_identity_at_zero(self, demo_spec):
        assert np.allclose(demo_spec.frame(0.0), np.eye(3))

    def test_quarter_turn(self):
        # generator about e_y with R e3 = -e_x: a quarter turn carries e3 there
        spec = SpiralSpec(skew([0.0, -1.0, 0.0]), 1.0, 0.0)
        e = spec.frame(np.pi / 2)
        assert np.allclose(e[:, 2], [-1, 0, 0], atol=1e-14)

    def test_orthonormality_large_range(self, demo_spec):
        z = np.linspace(-100, 100, 41) / demo_spec.delta / 100.0
        frames = demo_spec.frame(z)
        eye = np.einsum("...ji,...jk->...ik", frames, frames)
        assert np.abs(eye - np.eye(3)).max() < 1e-13

    def test_semigroup(self, demo_spec):
        rng = np.random.default_rng(10)
        for _ in range(5):
            z, dz = rng.uniform(-20, 20, 2)
            lhs = demo_spec.frame(z + dz)
            rhs = demo_spec.frame(dz) @ demo_spec.frame(z)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_frame_ode(self, demo_spec):
        h, z = 1e-5, 0.8
        fd = (demo_spec.frame(z + h) - demo_spec.frame(z - h)) / (2 * h)
        want = demo_spec.delta * demo_spec.r_mat @ demo_spec.frame(z)
        assert np.abs(fd - want).max() < 1e-9


class TestRotation:
    def test_identity_at_zero(self, demo_spec):
        assert np.allclose(demo_spec.rotation(0.0), np.eye(3))

    def test_maps_frame_to_standard(self, demo_spec):
        rng = np.random.default_rng(12)
        for theta in rng.uniform(-10, 10, 20):
            r = demo_spec.rotation(theta)
            e = demo_spec.frame(theta)
            assert np.abs(r @ e[:, 2] - np.array([0, 0, 1.0])).max() < 1e-13
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-13


class TestGamma:
    def test_unit_speed_at_xi_zero(self):
        spec = SpiralSpec.from_invariants(1.0, 0.3, 0.0, 0.01)
        h = 1e-5
        for z in (-2.0, 0.0, 3.0):
            d = (spec.gamma(z + h) - spec.gamma(z - h)) / (2 * h)
            assert abs(np.linalg.norm(d) - 1.0) < 1e-9

    def test_velocity_identity(self, demo_spec):
        h = 1e-5
        for z in (-1.0, 0.5, 4.0):
            fd = (demo_spec.gamma(z + h) - demo_spec.gamma(z - h)) / (2 * h)
            want = np.exp(demo_spec.lam * z) * demo_spec.frame(z)[:, 2]
            # the anchored curve sits far from the origin, so the FD loses
            # ~ulp(|gamma|)/h; the identity itself is exact
            assert np.abs(fd - want).max() < 1e-7

    def test_curvature_decay(self):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.01)
        for z in (-10.0, 0.0, 10.0):
            _, kappa, _ = frenet_oracle(spec.gamma, z, h=0.02)
            want = spec.delta * spec.kappa0 * np.exp(-spec.lam * z)
            assert rel_err(kappa, want) < 1e-8

    def test_axis_norm_identity(self):
        spec = SpiralSpec.from_invariants(1.3, 0.7, 1.1, 0.01)
        z = np.array([-5.0, 0.0, 2.0, 7.0])
        got = np.linalg.norm(spec.gamma(z), axis=-1)
        want = (np.exp(spec.lam * z) / spec.lam
                * np.sqrt((spec.tau0 ** 2 + spec.xi ** 2)
                          / (spec.rho0 ** 2 + spec.xi ** 2)))
        assert rel_err(got, want) < 1e-10

    def test_one_period_similarity(self, demo_spec):
        scale, rot = demo_spec.similarity()
        z = np.linspace(-3, 3, 7)
        lhs = demo_spec.gamma(z + 2 * np.pi)
        rhs = scale * np.einsum("ij,...j->...i", rot, demo_spec.gamma(z))
        denom = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() / denom < 1e-9

    def test_continuous_similarity(self):
        # gamma(z + P) = e^{2 pi xi / rho0} gamma(z) at the full rotation period
        spec = SpiralSpec.from_invariants(1.0, 0.4, 0.8, 0.01)
        period = 2 * np.pi / (spec.delta * spec.rho0)
        z = np.linspace(-1, 1, 5)
        lhs = spec.gamma(z + period)
        rhs = np.exp(2 * np.pi * spec.xi / spec.rho0) * spec.gamma(z)
        assert rel_err(lhs, rhs) < 1e-9

    def test_anchor_has_no_translation_defect(self):
        # Frenet-aligned and arbitrary antisymmetric generators alike
        specs = [SpiralSpec.from_invariants(kappa0, tau0, xi, 0.01)
                 for kappa0, tau0, xi in [(1, 0, 1), (1.3, 0.7, 1.1), (0.8, -0.5, 0.6)]]
        specs += [SpiralSpec(skew(w), 0.01, xi) for w, xi in [
            ([0.4, 0.9, 0.3], 1.0), ([-1.2, 0.1, 0.7], 0.6), ([0.05, -0.3, 1.1], -0.9)]]
        for spec in specs:
            assert spec.similarity_defect() < 1e-10


class TestSpecValidation:
    def test_trivial_rejected_by_default(self):
        with pytest.raises(ValueError):
            SpiralSpec(np.zeros((3, 3)), 1e-3, 0.0)

    def test_trivial_allowed_explicitly(self):
        spec = SpiralSpec(np.zeros((3, 3)), 1e-3, 0.0, allow_trivial=True)
        assert spec.trivial

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            SpiralSpec(frenet_generator(1.0, 0.0), -1.0, 0.0)

    def test_underflowing_rates_rejected(self):
        # gamma divides by (delta xi)^2 + (delta |R|)^2, which must stay a
        # normal float; the trivial generator has no such denominator
        for delta in (1e-170, 1e-160):
            with pytest.raises(ValueError, match="delta"):
                SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 2e-154)
        assert np.all(np.isfinite(spec.gamma(np.linspace(-10.0, 10.0, 9))))
        assert SpiralSpec(np.zeros((3, 3)), 1e-170, 1.0, allow_trivial=True).trivial

    @pytest.mark.parametrize("kappa0, tau0, xi, delta, match", [
        (1e300, 0.0, 1.0, 1e-3, r"1e\+300 overflow"),
        (1e200, 0.0, 1.0, 1e-3, r"1e\+200 overflow"),
        (1.0, 0.0, np.inf, 1e-3, "xi = inf"),
        (1.0, 0.0, np.nan, 1e-3, "xi = nan"),
        (1.0, np.nan, 1.0, 1e-3, "entry nan"),
        (np.nan, 0.0, 1.0, 1e-3, "entry nan"),
        (1.0, np.inf, 1.0, 1e-3, "entry -inf"),
        (1.0, 0.0, 1.0, np.nan, "delta = nan"),
        (1.0, 0.0, 1.0, np.inf, "delta = inf"),
    ])
    def test_non_finite_or_overflowing_input_rejected(self, kappa0, tau0, xi,
                                                      delta, match):
        # named in a ValueError before any arithmetic can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                SpiralSpec.from_invariants(kappa0, tau0, xi, delta)

    @pytest.mark.parametrize("xi, delta, match", [
        (1e200, 1e-3, r"xi = 1e\+200 is too large"),
        (-1e200, 1e-3, r"xi = -1e\+200 is too large"),
        (np.float64(1e300), 1e-3, r"xi = 1e\+300 is too large"),
        (1.0, np.float64(1e300), r"delta = 1e\+300 is too large"),
        (1.0, 1e155, r"delta = 1e\+155 is too large"),
        (1e150, 1e10, r"delta = 1e\+10 is too large"),
    ])
    def test_overflowing_rates_rejected(self, xi, delta, match):
        # the normal form squares xi and the delta-scaled rates: an overflow
        # names its parameter in a ValueError, not as an errno tuple
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                SpiralSpec(frenet_generator(1.0, 0.3), delta, xi)

    def test_largest_rates_build_finite(self):
        # tau0 takes a cube of the generator's entries: 1e100 still fits;
        # xi = 1e150 and delta = 1e100 pass the overflow gates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = SpiralSpec.from_invariants(1e100, 0.0, 1.0, 1e-3)
            assert np.all(np.isfinite(spec.gamma(np.linspace(-1.0, 1.0, 5))))
            for xi, delta in ((1e150, 1e-3), (1.0, 1e100)):
                assert np.all(np.isfinite(
                    SpiralSpec.from_invariants(1.0, 0.3, xi, delta).anchor))
        assert spec.kappa0 == 1e100 and spec.tau0 == 0.0

    def test_rho_equals_rotation_rate(self):
        # |omega| = rho0 identically: every constant generator drives a frame
        # that is Frenet up to one rigid rotation
        rng = np.random.default_rng(21)
        for _ in range(10):
            w = rng.standard_normal(3)
            if np.hypot(w[0], w[1]) < 1e-3:
                continue
            spec = SpiralSpec(skew(w), 0.01, 0.5)
            assert abs(spec.rho0 - np.linalg.norm(w)) < 1e-12
