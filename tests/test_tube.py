import random

import numpy as np
import pytest

from spiralforge import tube
from spiralforge.spirals import SpiralSpec

from conftest import rel_err


@pytest.fixture(scope="module")
def spec():
    return SpiralSpec.from_invariants(1.0, 0.7, 1.1, 0.01)


def fd_jacobian(spec, x, y, z, h=1e-6):
    cols = []
    for dx, dy, dz in np.eye(3) * h:
        plus = tube.tube_map(spec, x + dx, y + dy, z + dz)
        minus = tube.tube_map(spec, x - dx, y - dy, z - dz)
        cols.append((plus - minus) / (2 * h))
    return np.stack(cols, axis=-1)


def test_axis_is_gamma(spec):
    z = np.linspace(-3, 3, 7)
    assert np.allclose(tube.tube_map(spec, 0.0, 0.0, z), spec.gamma(z))


def test_radial_norm_identity(spec):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, 2)
        z = rng.uniform(-3, 3)
        d = np.linalg.norm(tube.tube_map(spec, x, y, z)
                           - tube.tube_map(spec, 0.0, 0.0, z))
        want = np.exp(spec.lam * z) * np.hypot(x, y)
        assert rel_err(d, want) < 1e-12


def test_jacobian_matches_fd(spec):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, y, z = rng.uniform(-1, 1, 3)
        got = tube.tube_jacobian(spec, x, y, z)
        assert np.abs(got - fd_jacobian(spec, x, y, z)).max() < 1e-8


def test_jacobian_columns(spec):
    x, y, z = 0.3, -0.1, 2.0
    jac = tube.tube_jacobian(spec, x, y, z)
    frame = spec.frame(z)
    growth = np.exp(spec.lam * z)
    assert np.allclose(jac[:, 0], growth * frame[:, 0])
    assert np.allclose(jac[:, 1], growth * frame[:, 1])


def test_determinant_identity_on_axis(spec):
    # det DM = e^{3 lam z} is exact on the axis; off it the frame rotation
    # contributes 1 - delta <x e1 + y e2, R e3>
    for z in (-2.0, 0.0, 1.5, 4.0):
        det = np.linalg.det(tube.tube_jacobian(spec, 0.0, 0.0, z))
        assert rel_err(det, np.exp(3 * spec.lam * z)) < 1e-12


def test_determinant_off_axis_correction(spec):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, y, z = rng.uniform(-1, 1, 3)
        det = np.linalg.det(tube.tube_jacobian(spec, x, y, z))
        frame = spec.frame(z)
        radial = x * frame[:, 0] + y * frame[:, 1]
        corr = 1.0 - spec.delta * float(radial @ (spec.r_mat @ frame[:, 2]))
        assert rel_err(det, np.exp(3 * spec.lam * z) * corr) < 1e-11


def test_tube_radius_value():
    spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.01)
    assert abs(tube.tube_radius(spec, 0.5) - 50 * np.sqrt(0.5)) < 1e-10
    assert tube.tube_radius(spec, 0.0) == 0.0


def test_tube_radius_scales_inversely_in_delta():
    r1 = tube.tube_radius(SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.01), 0.4)
    r2 = tube.tube_radius(SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.005), 0.4)
    assert abs(r2 - 2 * r1) < 1e-9


def test_max_embed_ell_value():
    spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.01)
    want = 100.0 * np.tanh(np.pi / 2) * np.sqrt(0.5)
    assert rel_err(tube.max_embed_ell(spec), want) < 1e-12


def test_max_embed_ell_monotone_in_delta():
    b1 = tube.max_embed_ell(SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.01))
    b2 = tube.max_embed_ell(SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.02))
    assert abs(b1 - 2 * b2) < 1e-9


def test_max_embed_ell_large_torsion_limit():
    base = SpiralSpec.from_invariants(1.0, 50.0, 1.0, 0.01)
    bound = tube.max_embed_ell(base)
    # shape factor tends to tau0 / rho0 <= 1, so the bound stays finite
    cap = (1 / (base.delta * base.xi)) * np.tanh(np.pi * base.xi / (2 * base.rho0))
    assert 0 < bound <= cap * 1.000001


def test_xi_zero_rejected():
    spec = SpiralSpec.from_invariants(1.0, 0.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        tube.tube_radius(spec, 0.5)
    with pytest.raises(ValueError):
        tube.max_embed_ell(spec)


def test_uniform_takes_53_bits_per_double_from_random():
    # the byte stream of randbytes is that of getrandbits(64) per value
    x = tube.uniform(random.Random(11), -2.0, 3.0, 1000)
    ref = random.Random(11)
    want = [-2.0 + 5.0 * ((ref.getrandbits(64) >> 11) * 2.0 ** -53) for _ in range(1000)]
    assert np.array_equal(x, want)
    assert x.min() >= -2.0 and x.max() < 3.0
    assert len(tube.uniform(random.Random(11), 0.0, 1.0, 0)) == 0


class TestInjectivity:
    def test_valid_radius_clears_margin(self):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 0.05, 0.01)
        radius = tube.tube_radius(spec, 0.9 * tube.injectivity_margin(spec))
        verdict, sep = tube.check_injectivity(spec, radius, n_samples=10000, seed=0)
        assert verdict == "injective-sample"
        assert sep > 0

    def test_oversized_radius_collides(self):
        # a nearly planar spiral with slow growth: ten times the certified
        # radius overlaps consecutive turns
        spec = SpiralSpec.from_invariants(1.0, 0.0, 0.05, 0.01)
        radius = 10.0 * tube.tube_radius(spec, tube.injectivity_margin(spec))
        verdict, sep = tube.check_injectivity(spec, radius, n_samples=3000, seed=0)
        assert verdict == "collision-suspected"

    def test_invalid_radius(self):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            tube.check_injectivity(spec, -1.0)


def brute_pairs(points, radius, block=256):
    """Blocked brute force: {(i, j): distance} over every pair i < j within
    radius, distances formed as near_pairs forms them."""
    found = {}
    for s in range(0, len(points), block):
        d = np.sqrt(((points[s:s + block, None] - points[None]) ** 2).sum(axis=-1))
        for i, j in zip(*np.nonzero(d <= radius)):
            if s + i < j:
                found[(s + i, j)] = d[i, j]
    return found


def brute_min_separation(points, params, exclusion, radius, block=256):
    """Blocked brute force: the closest pair within radius whose parameters
    are at least exclusion apart, inf when there is none."""
    best = np.inf
    for s in range(0, len(points), block):
        d = np.sqrt(((points[s:s + block, None] - points[None]) ** 2).sum(axis=-1))
        far = np.linalg.norm(params[s:s + block, None] - params[None], axis=-1) >= exclusion
        best = min(best, d[far & (d <= radius)].min(initial=np.inf))
    return best


class TestPairSearch:
    def test_two_sheets_exact_where_sixteen_neighbours_miss(self):
        # two parallel, densely sampled sheets 0.1 apart: every point has 16
        # same-sheet neighbours closer than the other sheet, so a 16-nearest-
        # neighbour search sees no far pair at all
        rng = np.random.default_rng(12)
        n, gap = 400, 0.1
        xy = rng.uniform(0.0, 0.35, (2 * n, 2))
        sheet = np.repeat([0.0, 1.0], n)
        pts = np.column_stack([xy, gap * sheet])
        params = np.column_stack([xy, 10.0 * sheet])
        for half in (xy[:n], xy[n:]):
            same = np.sqrt(((half[:, None] - half[None]) ** 2).sum(axis=-1))
            assert np.sort(same, axis=1)[:, 16].max() < gap
        # below the gap: no far pair, as the oracle agrees
        assert brute_min_separation(pts, params, 2.0, 0.05) == np.inf
        assert tube.sampled_min_separation(pts, params, 2.0, 0.05) == (np.inf, (-1, -1))
        # above it: the closest cross-sheet pair, exactly
        md, (i, j) = tube.sampled_min_separation(pts, params, 2.0, 0.11)
        assert md == brute_min_separation(pts, params, 2.0, 0.11)
        assert gap <= md <= 0.11 and sheet[i] != sheet[j]
        assert np.sqrt(((pts[i] - pts[j]) ** 2).sum()) == md

    def test_spread_far_beyond_radius(self):
        # points spread over 1e12 searched at radius 1e-6: 1e18 cells per
        # axis would overflow a combined int64 cell key; tight clusters near
        # the origin and around far centres give the pairs to find
        rng = np.random.default_rng(5)
        centres = rng.uniform(-5e11, 5e11, (150, 3))
        centres[:50] = rng.uniform(-1e-5, 1e-5, (50, 3))
        pts = np.repeat(centres, 3, axis=0) + rng.uniform(-6e-7, 6e-7, (450, 3))
        got = {}
        for i, j, d in tube.near_pairs(pts, 1e-6):
            for a, b, dist in zip(i, j, d):
                assert (min(a, b), max(a, b)) not in got
                got[(min(a, b), max(a, b))] = dist
        want = brute_pairs(pts, 1e-6)
        assert len(want) > 50
        assert got == want

    @pytest.mark.parametrize("block", [7, tube.PAIR_BLOCK])
    def test_every_pair_once(self, monkeypatch, block):
        # 4^3 cubes of side 0.25: pairs cross every kind of cube face, edge
        # and corner; blocks of 7 are far smaller than one cube's candidates
        monkeypatch.setattr(tube, "PAIR_BLOCK", block)
        pts = np.random.default_rng(8).uniform(0.0, 1.0, (300, 3))
        got = [(min(a, b), max(a, b), dist) for i, j, d in tube.near_pairs(pts, 0.2)
               for a, b, dist in zip(i, j, d)]
        assert len(got) == len(set(got))
        assert {(a, b): dist for a, b, dist in got} == brute_pairs(pts, 0.2)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            next(tube.near_pairs(np.zeros((4, 3)), radius))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            tube.sampled_min_separation(pts, np.zeros((4, 1)), 1.0, 0.5)
