import numpy as np
import pytest

from spiralforge import jets
from spiralforge.errors import InvalidImmersionError, InvalidVariationError
from spiralforge.helicoid import helicoid_jet

from conftest import rel_err


def simple_jet(v1, v2, w11=None, w22=None, w12=None):
    z = np.zeros(3)
    return jets.jet_from_arrays(np.asarray(v1, float), np.asarray(v2, float),
                                z if w11 is None else np.asarray(w11, float),
                                z if w22 is None else np.asarray(w22, float),
                                z if w12 is None else np.asarray(w12, float))


def random_jet(rng, conformal=False):
    if conformal:
        # random orthonormal pair of equal length
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        scale = rng.uniform(0.5, 2.0)
        d1 = np.stack([scale * q[:, 0], scale * q[:, 1]])
    else:
        d1 = rng.standard_normal((2, 3))
    d2 = rng.standard_normal((4, 3))
    d2[3] = d2[2]
    return jets.Jet(d1, d2)


class TestAspectRatio:
    def test_orthonormal(self):
        assert jets.aspect_ratio(simple_jet([1, 0, 0], [0, 1, 0])) == 1.0

    def test_unequal_lengths(self):
        # 2 * det / |d1|^2 = 2 * 2 / 5
        a = jets.aspect_ratio(simple_jet([1, 0, 0], [0, 2, 0]))
        assert abs(a - 0.8) < 1e-15

    def test_parallel_degenerate(self):
        assert jets.aspect_ratio(simple_jet([1, 0, 0], [2, 0, 0])) == 0.0

    def test_zero_jet_rejected(self):
        with pytest.raises(InvalidImmersionError):
            jets.aspect_ratio(simple_jet([0, 0, 0], [0, 0, 0]))

    def test_bounded_by_one_and_conformal_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = jets.aspect_ratio(random_jet(rng))
            assert a <= 1.0 + 1e-14
        for _ in range(50):
            a = jets.aspect_ratio(random_jet(rng, conformal=True))
            assert abs(a - 1.0) < 1e-12


class TestUnitNormal:
    def test_standard_plane(self):
        nu = jets.unit_normal(simple_jet([1, 0, 0], [0, 1, 0]))
        assert np.allclose(nu, [0, 0, 1])

    def test_helicoid_origin(self):
        nu = jets.unit_normal(helicoid_jet(0.0, 0.0))
        assert np.allclose(nu, [-1, 0, 0], atol=1e-15)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        j = random_jet(rng)
        assert np.allclose(jets.unit_normal(j.scaled(7.0)), jets.unit_normal(j))

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidImmersionError):
            jets.unit_normal(simple_jet([1, 0, 0], [1, 0, 0]))


class TestMeanCurvature:
    def test_helicoid_minimal(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-3, 3, 100)
        t = rng.uniform(-np.pi, np.pi, 100)
        h = jets.mean_curvature(helicoid_jet(s, t))
        assert np.abs(h).max() < 1e-12

    def test_unit_sphere_graph(self):
        # graph of z = sqrt(1 - x^2 - y^2) at the north pole, slots (x, y);
        # the induced normal points up (outward) and H = -2
        j = simple_jet([1, 0, 0], [0, 1, 0], [0, 0, -1], [0, 0, -1], [0, 0, 0])
        assert abs(jets.mean_curvature(j) + 2.0) < 1e-14

    def test_degenerate_rejected(self):
        # det g = 0 gives aspect ratio 0, which the unit normal rejects
        # before H divides by det g
        with pytest.raises(InvalidImmersionError):
            jets.mean_curvature(simple_jet([1, 0, 0], [1, 0, 0]))

    def test_degree_minus_one(self):
        rng = np.random.default_rng(5)
        for c in (0.5, 2.0, 10.0):
            j = random_jet(rng)
            if jets.aspect_ratio(j) < 1e-3:
                continue
            assert rel_err(jets.mean_curvature(j.scaled(c)),
                           jets.mean_curvature(j) / c) < 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        j = random_jet(rng)
        jr = jets.Jet(*(np.einsum("ij,...kj->...ki", q, a) for a in (j.d1, j.d2)))
        assert rel_err(jets.mean_curvature(jr), jets.mean_curvature(j)) < 1e-12
        assert np.allclose(jets.unit_normal(jr), q @ jets.unit_normal(j), atol=1e-12)

    def test_homogeneity_suite(self):
        rng = np.random.default_rng(13)
        j = random_jet(rng)
        for c in (0.5, 2.0, 10.0):
            assert rel_err(jets.aspect_ratio(j.scaled(c)), jets.aspect_ratio(j)) < 1e-12
            assert np.allclose(jets.unit_normal(j.scaled(c)), jets.unit_normal(j),
                               atol=1e-12)


class TestTaylorRemainder:
    def test_zero_variation(self):
        rng = np.random.default_rng(1)
        j = random_jet(rng)
        var = jets.Jet(np.zeros((2, 3)), np.zeros((4, 3)))
        assert jets.taylor_remainder("mean_curvature", j, var, 1) == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_remainder_order(self, k):
        # |R^(k)(eps e)| = Theta(eps^(k+1)): halving ratios within 20 % of 2^(k+1)
        rng = np.random.default_rng(17 + k)
        for trial in range(3):
            base = random_jet(rng)
            if jets.aspect_ratio(base) < 0.2:
                continue
            var = jets.Jet(rng.standard_normal((2, 3)), rng.standard_normal((4, 3)))
            vals = [abs(jets.taylor_remainder("mean_curvature", base,
                                              var.scaled(eps), k))
                    for eps in (1e-2, 5e-3, 2.5e-3)]
            for hi, lo in zip(vals, vals[1:]):
                ratio = hi / lo
                assert abs(ratio - 2 ** (k + 1)) < 0.2 * 2 ** (k + 1)

    def test_matches_integral_form(self):
        # the finite-difference remainder agrees with the independent
        # integral-form quadrature
        rng = np.random.default_rng(23)
        base = random_jet(rng, conformal=True)
        var = jets.Jet(0.05 * rng.standard_normal((2, 3)),
                       0.05 * rng.standard_normal((4, 3)))
        for k in (0, 1):
            a = jets.taylor_remainder("mean_curvature", base, var, k)
            b = jets.taylor_remainder_integral("mean_curvature", base, var, k)
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    def test_aspect_remainder_bound(self):
        # order-0 remainder of the conformality ratio is <= C |e| / |d1|
        rng = np.random.default_rng(29)
        for _ in range(20):
            base = random_jet(rng, conformal=True)
            var = jets.Jet(0.01 * rng.standard_normal((2, 3)), np.zeros((4, 3)))
            r = jets.taylor_remainder("aspect_ratio", base, var, 0)
            bound = np.linalg.norm(var.d1) / np.linalg.norm(base.d1)
            assert abs(r) <= 10.0 * bound

    def test_invalid_path(self):
        base = simple_jet([1, 0, 0], [0, 1, 0])
        var = jets.Jet(np.array([[-1.0, 0, 0], [0, -1.0, 0]]), np.zeros((4, 3)))
        with pytest.raises(InvalidVariationError):
            jets.taylor_remainder("aspect_ratio", base, var, 0)

    def test_unknown_quantity(self):
        base = simple_jet([1, 0, 0], [0, 1, 0])
        var = jets.Jet(np.zeros((2, 3)), np.ones((4, 3)))
        with pytest.raises(KeyError):
            jets.taylor_remainder("nonsense", base, var, 0)
