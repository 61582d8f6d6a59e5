import importlib.util
import sys
import types

import numpy as np
import pytest

from spiralforge import numerics
from spiralforge.numerics import (LAGRANGE_NODES, Grid, derivative_matrix, fd_weights,
                                  lagrange_resample, lagrange_weights)


def _reference_rows(n_pts, h, order, acc):
    """(row, columns, weights) per row: one Fornberg stencil per row, central
    in the interior and one-sided within `half` points of either edge."""
    width, half = order + acc, (order + acc - 1) // 2
    for i in range(n_pts):
        if half <= i < n_pts - half:
            idx = np.arange(i - half, i + half + 1)
        else:
            start = 0 if i < half else n_pts - width
            idx = np.arange(start, start + width)
        yield i, idx, fd_weights((idx - i) * h, 0.0, order)[:, order]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_pts", [6, 7, 9, 33, 257])
def test_derivative_matrix_rows_are_fd_weights(n_pts, order):
    h, acc = 0.037, 4
    want = np.zeros((n_pts, n_pts))
    for i, idx, w in _reference_rows(n_pts, h, order, acc):
        want[i, idx] = w
    stencil = derivative_matrix(n_pts, h, order, acc)
    assert np.array_equal(stencil @ np.eye(n_pts), want)
    for i in (0, 1, n_pts // 2, n_pts - 1):
        assert np.array_equal(stencil.row(i), want[i])
    # rows 1 ... n-2 in LAPACK band layout, ab[ku + i - j, j] = A[i, j]: the
    # fourth-order stencils reach 4 columns past the diagonal in row 1 (d2)
    # or 3 (d1), and nothing of those rows lies outside the band
    ab, kl, ku = stencil.band()
    assert (kl, ku) == ((4, 4) if order == 2 else (3, 3))
    i, j = np.meshgrid(np.arange(n_pts), np.arange(n_pts), indexing="ij")
    inside = (i - j <= kl) & (j - i <= ku)
    assert not np.any(want[1:-1][~inside[1:-1]])
    layout = np.zeros_like(ab)
    rows = inside & (i > 0) & (i < n_pts - 1)
    layout[(ku + i - j)[rows], j[rows]] = want[rows]
    assert np.array_equal(ab, layout)


@pytest.mark.parametrize("acc", [2, 4])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_pts", [6, 7, 33, 1025])
def test_stencil_product_is_bitwise_csr(n_pts, order, acc):
    # test-only oracle: the same weights as a scipy.sparse CSR matrix, the
    # central first derivative's zero middle weight stored, whose row sums
    # run in column order as the stencil's do
    from scipy import sparse

    h = 0.037
    rows, cols, vals = zip(*((np.full(len(idx), i), idx, w)
                             for i, idx, w in _reference_rows(n_pts, h, order, acc)))
    csr = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n_pts, n_pts))
    stencil = derivative_matrix(n_pts, h, order, acc)
    rng = np.random.default_rng(n_pts + 10 * order + acc)
    for shape in [(n_pts,), (n_pts, 5), (n_pts, 5, 1)]:
        u = rng.standard_normal(shape)
        want = (csr @ u.reshape(n_pts, -1)).reshape(shape)
        got = stencil @ u
        assert got.shape == shape
        assert np.all(got == want)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_pts", [6, 7, 33])
def test_stencil_rows_are_bitwise_rows_of_the_product(n_pts, order):
    # every block of rows, from the rows it reads within the stencil's reach
    stencil = derivative_matrix(n_pts, 0.037, order, 4)
    u = np.random.default_rng(n_pts + order).standard_normal((n_pts, 3))
    whole = stencil @ u
    for lo in range(n_pts):
        for hi in range(lo + 1, n_pts + 1):
            first = max(lo - stencil.reach, 0)
            part = u[first:min(hi + stencil.reach, n_pts)]
            assert np.array_equal(stencil.rows(part, slice(lo, hi), first), whole[lo:hi])
    # a halo one row short is refused, not read past, and so are rows
    # beyond the stencil's n
    with pytest.raises(ValueError, match="outside"):
        stencil.rows(u[1:], slice(0, 1), 1)
    with pytest.raises(ValueError, match="given to a stencil"):
        stencil.rows(np.zeros((n_pts + 1, 3)), slice(0, n_pts))


def test_stencil_rows_cut_once_per_range():
    # the same row range asked twice, for different fields, is cut once and
    # gives those rows of each field's whole product bit for bit
    stencil = derivative_matrix(33, 0.037, 2, 4)
    rng = np.random.default_rng(12)
    first, rows = 3, slice(8, 20)
    for _ in range(2):
        u = rng.standard_normal((33, 4))
        got = stencil.rows(u[first:25], rows, first)
        assert np.array_equal(got, (stencil @ u)[rows])
    assert sorted(stencil._plans) == [(0, 33), (8, 20)]


@pytest.mark.parametrize("n_rows, row_size", [
    (4097, 8), (1025, 64), (513, 8), (1024, 8), (1025, 8), (64, 64), (256, 1024),
    (10001, 1), (1, 8), (7, 10000), (129, 16), (0, 8)])
def test_row_blocks_are_even_and_cover_the_rows_in_order(n_rows, row_size):
    step = max(1, numerics.BLOCK // row_size)
    blocks = numerics.row_blocks(n_rows, row_size)
    sizes = [blk.stop - blk.start for blk in blocks]
    assert [i for blk in blocks for i in range(blk.start, blk.stop)] == list(range(n_rows))
    assert len(blocks) == -(-n_rows // step)
    if blocks:
        assert max(sizes) <= step and max(sizes) - min(sizes) <= 1
        assert sizes[0] == max(sizes) and sizes == sorted(sizes, reverse=True)


def test_one_column_derivatives_are_exact_zeros_without_a_transform(monkeypatch):
    # u0's profile and its chord steps: the theta slots of a field constant
    # in theta are fresh zeros, equal to what the transform gives, and the
    # s slots are those of the stencils
    g = Grid(32.0, 64, 8)
    u = np.random.default_rng(13).standard_normal((65, 1))
    spectrum = np.fft.rfft(u, axis=-1)
    via_fft = [np.fft.irfft(spectrum * (1j * np.arange(1)) ** order, n=1, axis=-1)
               for order in (1, 2)]
    monkeypatch.setattr(np.fft, "rfft", None)
    for rows in (slice(None), slice(10, 17)):
        f, f_t, f_s, f_tt, f_ss, f_ts = g.derivatives(u, rows)
        for got, want in ((f_t, via_fft[0]), (f_tt, via_fft[1]), (f_ts, g.d1 @ via_fft[0])):
            assert got.shape == f.shape and not np.any(got)
            assert np.array_equal(got, want[rows])
        assert np.array_equal(f_s, (g.d1 @ u)[rows]) and np.array_equal(f_ss, (g.d2 @ u)[rows])
        for field in (f_t, f_tt, f_ts):
            field += 1.0
    zeros = numerics.theta_derivatives(u, (1, 2, 3))
    assert len(zeros) == 3 and all(z.shape == u.shape and not np.any(z) for z in zeros)


def test_grid_derivatives_of_rows_are_the_whole_bundle_rows():
    g = Grid(32.0, 40, 8)
    # the one-sided d2 at a rim row reads 5 rows beyond it, d1 4
    assert (g.d1.reach, g.d2.reach, g.halo) == (4, 5, 5)
    u = np.random.default_rng(4).standard_normal((41, 8))
    whole = g.derivatives(u)
    for rows in (slice(0, 3), slice(10, 17), slice(38, 60)):
        own = range(41)[rows]
        for got, want in zip(g.derivatives(u, rows), whole):
            assert np.array_equal(got, want[own.start:own.stop])


def test_halo_rows_pads_a_block_by_the_halo_within_the_grid():
    # the rows weighted_norm, the solver's graph bundle and the mesh build
    # read for a block: halo rows on either side, clipped to the grid's 41
    # rows; a nan outside them stays out of the block's bundle rows
    g = Grid(32.0, 40, 8)
    assert g.halo == 5
    cases = [(slice(10, 17), slice(5, 22)),   # interior block
             (slice(0, 3), slice(0, 8)),      # at the lower rim
             (slice(36, 41), slice(31, 41)),  # at the upper rim
             (slice(38, 60), slice(33, 41)),  # a last block running past it
             (slice(20, 21), slice(15, 26)),  # one row
             (slice(None), slice(0, 41))]
    u = np.random.default_rng(6).standard_normal((41, 8))
    whole = g.derivatives(u)
    for rows, reads in cases:
        part = np.full_like(u, np.nan)
        part[reads] = u[reads]
        own = range(41)[rows]
        for got, full in zip(g.derivatives(part, rows), whole):
            assert np.array_equal(got, full[own.start:own.stop])


def test_grid_derivatives_are_fresh_arrays():
    # callers add into a bundle in place (solver._add_substitutes), and the
    # solver's bundle is formed from the psi v that becomes the new v
    g = Grid(32.0, 40, 8)
    u = np.random.default_rng(6).standard_normal((41, 8))
    kept = u.copy()
    for rows in (slice(10, 17), slice(None)):
        for field in g.derivatives(u, rows):
            field += 1.0
        assert np.array_equal(u, kept)


def _ref_weighted_norm(u, grid):
    """The whole-grid weighted_norm that the row-block one replaced, verbatim."""
    u_t, u_tt = numerics.theta_derivatives(u, (1, 2))
    total = np.abs(u)
    total += np.abs(grid.d1 @ u)
    total += np.abs(u_t)
    total += np.abs(grid.d2 @ u)
    total += np.abs(u_tt)
    del u_tt
    total += np.abs(grid.d1 @ u_t)
    weight = np.cosh(grid.s) ** -0.75
    return float(np.max(weight[:, None] * total))


@pytest.mark.parametrize("n_s, n_theta, block", [
    (1024, 64, None), (1024, 64, 7), (4096, 8, None), (4096, 8, 60), (256, 32, None),
    (256, 32, 7), (256, 8, 60), (256, 8, 7), (1024, 1, None), (4096, 1, 60), (1024, 1, 7)])
def test_weighted_norm_is_the_whole_grid_norm_bit_for_bit(monkeypatch, n_s, n_theta, block):
    # blocks of BLOCK points (None: the default) with the halo differenced:
    # at n_theta = 8, 60 points are at most 7 rows a block, blocks of 7 and
    # 6 rows, and 7 points are one row at n_theta >= 8; the (n_s + 1, 1)
    # columns are u0's chord updates.  Besides noise, smooth bumps put the
    # sup in the first block, an inner one and the last.
    if block is not None:
        monkeypatch.setattr(numerics, "BLOCK", block)
    g = Grid(32.0, n_s, max(n_theta, 2))
    rng = np.random.default_rng(n_s + n_theta)
    s, theta = g.s[:, None], g.theta[None, :n_theta]
    fields = [rng.standard_normal((n_s + 1, n_theta))]
    for centre in (g.s[0], g.s[n_s // 3], g.s[-1]):
        bump = np.exp(-((s - centre) / (20 * g.h)) ** 2) * np.cosh(s) ** 0.75
        fields.append(bump * np.cos(2 * theta + rng.uniform(0, 6)))
    for u in fields:
        assert numerics.weighted_norm(u, g) == _ref_weighted_norm(u, g)
    u[n_s // 3, 0] = np.nan
    assert np.isnan(numerics.weighted_norm(u, g))


def test_weighted_norm_sums_in_the_whole_grid_order(monkeypatch):
    # the six magnitudes are added in the reference's order: another order
    # moves the sum's last bit at a few points in a thousand, so many small
    # fields are compared, in five blocks of 7 rows and one of 6
    monkeypatch.setattr(numerics, "BLOCK", 56)
    g = Grid(32.0, 40, 8)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        u = rng.standard_normal((41, 8)) * rng.uniform(0.1, 10.0, size=(1, 8))
        assert numerics.weighted_norm(u, g) == _ref_weighted_norm(u, g)


def test_banded_lu_rejects_a_singular_band():
    # a zero column: gbtrf reports a zero pivot
    ab = np.zeros((3, 4))
    ab[1] = [1.0, 0.0, 1.0, 1.0]
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        numerics.BandedLU(ab, 1, 1)


def test_derivative_matrix_rejects_short_grids():
    with pytest.raises(ValueError, match="6-point stencil"):
        derivative_matrix(5, 0.1, 2, 4)
    with pytest.raises(ValueError, match="7 points"):
        derivative_matrix(7, 0.1, 2, 4) @ np.zeros(6)


@pytest.mark.parametrize("ell", [np.nan, np.inf, 1.0, -2.0])
def test_grid_rejects_ell_outside_one_to_inf(ell):
    # arccosh(ell) must be a finite positive half-width
    with pytest.raises(ValueError, match="must be finite and exceed 1"):
        Grid(ell, 16, 8)


def test_missing_lapack_wrappers_name_the_file(monkeypatch, tmp_path):
    # no fallback route: without scipy's compiled wrappers the load fails
    # and says which file it looked for
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=f"{tmp_path}/linalg/_flapack"):
        numerics._load_flapack()


def _grid(n_pts):
    return np.linspace(-3.2, 3.5, n_pts)


@pytest.mark.parametrize("n_pts", [6, 7, 33, 1025])
def test_lagrange_weights_are_fd_weights(n_pts):
    s = _grid(n_pts)
    h = s[1] - s[0]
    rng = np.random.default_rng(n_pts)
    # random points, the two edge cells on either side, and both ends
    x = np.concatenate([rng.uniform(s[0], s[-1], 50),
                        rng.uniform(s[0], s[0] + 2 * h, 5),
                        rng.uniform(s[-1] - 2 * h, s[-1], 5), [s[0], s[-1]]])
    idx, w = lagrange_weights(s, x)
    assert idx.shape == w.shape == (LAGRANGE_NODES, len(x))
    for i, xi in enumerate(x):
        nodes = s[idx[:, i]]
        assert np.array_equal(np.diff(idx[:, i]), np.ones(LAGRANGE_NODES - 1))
        # the stencil holds the point, centred on its cell away from the edges
        assert nodes[0] <= xi <= nodes[-1]
        if s[0] + 2 * h < xi < s[-1] - 3 * h:
            assert nodes[2] <= xi <= nodes[3]
        np.testing.assert_allclose(w[:, i], fd_weights(nodes, xi, 0)[:, 0],
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_pts", [6, 33, 1025])
def test_lagrange_resample_exact_on_quintics(n_pts):
    s = _grid(n_pts)
    coeffs = np.array([[0.7, -1.3, 0.4, 0.25, -0.08, 0.011],
                       [-2.0, 0.5, 1.1, -0.3, 0.02, -0.004]])
    values = np.polynomial.polynomial.polyval(s, coeffs.T).T     # (n, 2)
    x = np.random.default_rng(0).uniform(s[0], s[-1], 200)
    want = np.polynomial.polynomial.polyval(x, coeffs.T).T
    got = lagrange_resample(s, values, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lagrange_resample_reproduces_nodes():
    s = _grid(65)
    values = np.exp(np.sin(3.0 * s))
    np.testing.assert_allclose(lagrange_resample(s, values, s), values, rtol=1e-14, atol=0)


def test_lagrange_resample_value_shapes():
    s = _grid(33)
    x = np.linspace(s[0], s[-1], 17)
    table = np.column_stack([np.sin(s), np.cos(s), s ** 2])
    one = lagrange_resample(s, table[:, 0], x)
    many = lagrange_resample(s, table, x)
    assert one.shape == (17,) and many.shape == (17, 3)
    np.testing.assert_allclose(many[:, 0], one, rtol=0, atol=1e-15)
    stacked = lagrange_resample(s, table.reshape(33, 3, 1), x)
    assert stacked.shape == (17, 3, 1)
    np.testing.assert_allclose(many, np.column_stack([np.sin(x), np.cos(x), x ** 2]),
                               rtol=0, atol=1e-6)


def test_grid_resample_exact_on_quintic_times_trig_polynomial():
    # a quintic in s times modes 0 ... 3 on 8 angles (below Nyquist) is
    # reproduced at a shared row of angles and at one angle per point
    g = Grid(32.0, 40, 8)
    quintic = lambda s: np.polynomial.polynomial.polyval(
        s, [0.7, -1.3, 0.4, 0.25, -0.08, 0.011])
    trig = lambda t: 0.3 + np.cos(t) - 0.5 * np.sin(2 * t) + 0.25 * np.cos(3 * t - 0.4)
    u = quintic(g.s)[:, None] * trig(g.theta)[None, :]
    rng = np.random.default_rng(5)
    s = rng.uniform(-g.s_max, g.s_max, 50)
    t = rng.uniform(-np.pi, 3 * np.pi, 50)
    scale = np.abs(u).max()
    shared = g.resample(u, s, t[:7])
    assert shared.shape == (50, 7)
    assert np.abs(shared - quintic(s)[:, None] * trig(t[:7])).max() <= 1e-13 * scale
    own = g.resample(u, s, t[:, None])
    assert own.shape == (50, 1)
    assert np.abs(own[:, 0] - quintic(s) * trig(t)).max() <= 1e-13 * scale


def test_iterate_asks_the_floor_only_when_the_drop_falls_short():
    # constant updates stall the iteration at its second step
    calls = []

    def floor():
        calls.append(1)
        return 1.0

    def converged(fall, first, floor=None):
        step = lambda x: (fall * x, x, 1.0)
        return numerics.iterate(step, first, lambda x: x, 0.0, 10, floor)[2]

    assert converged(1e-5, 1e3, floor) and not calls        # fell by 1e-10
    assert converged(1.0, 1e3, floor) and len(calls) == 1   # 1e3 * 1e-4 < 1
    assert not converged(1.0, 1e5, floor)                   # 1e5 * 1e-4 > 1
    assert not converged(1.0, 1e3)                          # no floor given
