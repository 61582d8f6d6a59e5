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
