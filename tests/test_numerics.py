import numpy as np
import pytest

from spiralforge.numerics import derivative_matrix, fd_weights


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_pts", [6, 7, 9, 33, 257])
def test_derivative_matrix_rows_are_fd_weights(n_pts, order):
    # reference: one Fornberg stencil per row, central in the interior and
    # one-sided within `half` points of either edge
    h, acc = 0.037, 4
    width, half = order + acc, (order + acc - 1) // 2
    want = np.zeros((n_pts, n_pts))
    for i in range(n_pts):
        if half <= i < n_pts - half:
            idx = np.arange(i - half, i + half + 1)
        else:
            start = 0 if i < half else n_pts - width
            idx = np.arange(start, start + width)
        want[i, idx] = fd_weights((idx - i) * h, 0.0, order)[:, order]
    mat = derivative_matrix(n_pts, h, order, acc)
    assert np.array_equal(mat.toarray(), want)
    # every stencil node is stored, explicit zeros (the central first
    # derivative's middle weight) included, in sorted column order
    counts = [width if not half <= i < n_pts - half else 2 * half + 1
              for i in range(n_pts)]
    assert np.array_equal(np.diff(mat.indptr), counts)
    assert mat.has_sorted_indices
