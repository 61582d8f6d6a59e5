"""Finite-difference and quadrature helpers used throughout the package.

Everything here operates on uniform 1-D grids or on (s, theta) tensor grids
with a periodic theta direction.  Derivatives in s are banded stencil
applications (one-sided near the edges); derivatives in theta are exact
mode-wise differentiation through the FFT.
"""

import importlib.machinery
import importlib.util
import os
import sys
from math import factorial

import numpy as np


def fd_weights(nodes, x0, max_order):
    """Fornberg weights for derivatives 0..max_order at x0 from the given nodes.

    Returns an array w of shape (len(nodes), max_order + 1); column k holds
    the weights of the k-th derivative.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    w = np.zeros((n, max_order + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the module scipy.linalg._flapack.

    Loaded from its file in scipy's install directory, so that neither scipy
    nor scipy.linalg runs its package __init__: that import would load
    scipy's array-API shim and with it numpy.f2py and numpy.testing, which
    cost several times what a small solve does.  The module is registered
    under its own name, so a later `import scipy.linalg` reuses it and
    scipy.linalg.lapack.dgbtrf is this module's dgbtrf.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")      # does not import scipy
    if scipy_spec is None:
        raise ImportError("spiralforge needs scipy's LAPACK wrappers; scipy is not installed")
    stem = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers not found: no file {stem}"
                          f"{{{', '.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs


class BandStencil:
    """An n x n finite-difference stencil, applied along the first axis.

    Held as constant-weight diagonal runs (d, j0, j1, w), A[j - d, j] = w for
    j0 <= j < j1, sorted by d.  `stencil @ u` takes u of shape (n,) or
    (n, ...) and adds the runs' products to zero in that order, so each row
    sums its products in increasing column order: the order of a CSR row
    product, so every value equals that of the same matrix stored as CSR.
    reach is the largest |d|: how many rows beyond its own a row reads.
    """

    def __init__(self, n, runs):
        self.n = n
        self.runs = sorted(runs, key=lambda run: run[0])
        self.reach = max(abs(run[0]) for run in self.runs)

    def __matmul__(self, u):
        u = np.asarray(u, dtype=float)
        if len(u) != self.n:
            raise ValueError(f"stencil of {self.n} points applied to shape {u.shape}")
        return self.rows(u, slice(0, self.n))

    def _cut(self, lo, hi):
        """The runs, in order, cut to rows lo ... hi - 1; empty ones dropped."""
        runs = [(d, max(j0, lo + d), min(j1, hi + d), w) for d, j0, j1, w in self.runs]
        return [run for run in runs if run[1] < run[2]]

    def rows(self, u, rows, first=0):
        """Rows rows.start ... rows.stop - 1 of the product with a field of
        which u holds the rows first ... first + len(u) - 1.

        Each run is cut to the requested rows and applied in its stored
        order, so every row sums the same products in the same order as the
        whole product does: the rows are bit for bit those of `stencil @ U`.
        u must hold every column those rows read.
        """
        lo, hi = rows.start, rows.stop
        if first < 0 or first + len(u) > self.n:
            raise ValueError(f"rows {first} ... {first + len(u) - 1} given to a stencil "
                             f"of {self.n} points")
        runs = self._cut(lo, hi)
        read = (min(run[1] for run in runs), max(run[2] for run in runs))
        if read[0] < first or read[1] > first + len(u):
            raise ValueError(f"rows {lo} ... {hi - 1} read columns {read[0]} ... "
                             f"{read[1] - 1}, outside the given {first} ... "
                             f"{first + len(u) - 1}")
        out = np.zeros((hi - lo, *u.shape[1:]))
        tmp = np.empty(out.shape)
        for d, j0, j1, w in runs:
            out[j0 - d - lo:j1 - d - lo] += np.multiply(w, u[j0 - first:j1 - first],
                                                        out=tmp[:j1 - j0])
        return out

    def row(self, i):
        """Row i of the matrix, dense."""
        out = np.zeros(self.n)
        for _, j, _, w in self._cut(i, i + 1):
            out[j] = w
        return out

    def band(self):
        """(ab, kl, ku): rows 1 ... n-2 in LAPACK's band layout,
        ab[ku + i - j, j] = A[i, j], with rows 0 and n-1 left zero.

        Without the two rim rows, whose one-sided stencils would widen it,
        the band of the fourth-order d2 is kl = ku = 4.
        """
        n = self.n
        runs = self._cut(1, n - 1)
        kl, ku = -runs[0][0], runs[-1][0]
        ab = np.zeros((kl + ku + 1, n))
        for d, j0, j1, w in runs:
            ab[ku - d, j0:j1] = w
        return ab, kl, ku


def derivative_matrix(n_pts, h, order, acc):
    """n_pts x n_pts BandStencil of the `order`-th s-derivative at accuracy `acc`.

    Central stencils in the interior, one-sided stencils of the same order of
    accuracy near the edges.  The grid is uniform with spacing h.
    """
    width = order + acc            # nodes per one-sided stencil
    half = (order + acc - 1) // 2  # central half-width
    if n_pts < width:
        raise ValueError(f"a {width}-point stencil needs at least {width} points, "
                         f"not {n_pts}")
    weights = lambda nodes: fd_weights(nodes * h, 0.0, order)[:, order]
    # one run per central weight, over rows half ... n-half-1; then one
    # single-entry run per weight of the `half` one-sided rows at either end,
    # where row j0 + i holds the weights at node i of columns j0 ... j0+width-1
    runs = [(k - half, k, n_pts - 2 * half + k, w)
            for k, w in enumerate(weights(np.arange(-half, half + 1)))]
    edges = [(0, i) for i in range(half)] + [(n_pts - width, i) for i in range(width - half, width)]
    for j0, i in edges:
        runs += [(k - i, j0 + k, j0 + k + 1, w)
                 for k, w in enumerate(weights(np.arange(width) - i))]
    return BandStencil(n_pts, runs)


class BandedLU:
    """LU factors of a band matrix (LAPACK gbtrf), kept for repeated solves.

    Takes (ab, kl, ku) in LAPACK's band layout, ab[ku + i - j, j] = A[i, j].
    solve accepts right-hand sides of shape (n,) or (n, k); trans=1 solves
    with the transpose.
    """

    def __init__(self, ab, kl, ku):
        work = np.zeros((2 * kl + ku + 1, ab.shape[1]))
        work[kl:] = ab          # gbtrf needs kl extra rows for fill-in
        self._lu, self._piv, info = dgbtrf(work, kl, ku, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular banded matrix")
        self.kl, self.ku = kl, ku

    def solve(self, rhs, trans=0):
        x, _ = dgbtrs(self._lu, self.kl, self.ku, rhs, self._piv, trans=trans)
        return x


def theta_derivative(u, order=1):
    """Exact mode-wise theta derivative of u with shape (..., n_theta)."""
    return theta_derivatives(u, (order,))[0]


def theta_derivatives(u, orders):
    """The theta derivatives of u of the given orders, from one spectrum."""
    n = u.shape[-1]
    m = np.arange(n // 2 + 1)  # rfft wavenumbers of a 2 pi-periodic grid
    uh = np.fft.rfft(u, axis=-1)
    out = []
    for order in orders:
        fac = (1j * m) ** order
        if order % 2 == 1 and n % 2 == 0:
            fac[-1] = 0.0  # odd derivative of the Nyquist mode is ambiguous
        out.append(np.fft.irfft(uh * fac, n=n, axis=-1))
    return out


def trig_interpolate(values, t_new):
    """Evaluate the band-limited interpolant of periodic samples at new angles.

    values has shape (..., n) sampled on theta_j = -pi + 2 pi j / n; t_new
    has shape (..., p) and broadcasts against the leading axes of values, so
    a 1-D array of p angles is shared by every row while an (r, 1) array
    gives each of r rows its own angle.  Returns shape (..., p).  Exact on
    the trigonometric polynomial the samples determine.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    c = np.fft.rfft(values, axis=-1)
    modes = np.arange(c.shape[-1])
    weights = np.full(c.shape[-1], 2.0 / n)
    weights[0] = 1.0 / n
    if n % 2 == 0:
        weights[-1] = 1.0 / n
    ang = np.multiply.outer(np.asarray(t_new, dtype=float) + np.pi, modes)
    re = np.cos(ang) * weights
    im = np.sin(ang) * weights
    return (np.einsum("...m,...pm->...p", c.real, re)
            - np.einsum("...m,...pm->...p", c.imag, im))


# nodes of the local Lagrange interpolant in s: degree 5, error O(h^6)
LAGRANGE_NODES = 6


def _products_of_others(d):
    """p[j] = product of d[i] over i != j along the first axis, without
    division (d may hold zeros)."""
    rows = np.arange(len(d))
    return np.stack([np.prod(d[rows != j], axis=0) for j in rows])


def lagrange_weights(s, s_new):
    """Node indices and weights of local Lagrange interpolation on a uniform grid.

    s is the uniform grid (at least LAGRANGE_NODES points); each point of
    s_new, shape (m,), gets the LAGRANGE_NODES grid points centred on the
    cell that holds it, shifted inward near the edges.  Returns (idx, w),
    both of shape (LAGRANGE_NODES, m): point i interpolates as
    sum_j w[j, i] * values[idx[j, i]], and w[:, i] equals
    fd_weights(s[idx[:, i]], s_new[i], 0)[:, 0], for all points at once.
    """
    s = np.asarray(s, dtype=float)
    s_new = np.asarray(s_new, dtype=float)
    n, k = len(s), LAGRANGE_NODES
    h = (s[-1] - s[0]) / (n - 1)
    cell = np.clip(np.floor((s_new - s[0]) / h).astype(int), 0, n - 2)
    start = np.clip(cell - (k // 2 - 1), 0, n - k)
    # in the stencil's coordinate t = (s_new - s[start]) / h the nodes are
    # 0 .. k-1, so w_j = prod over i != j of (t - i) / (j - i), whose
    # denominator is (-1)^(k-1-j) j! (k-1-j)!
    j = np.arange(k)
    denominators = np.array([(-1) ** (k - 1 - i) * factorial(i) * factorial(k - 1 - i)
                             for i in j], dtype=float)
    t = (s_new - s[start]) / h
    return start + j[:, None], _products_of_others(t - j[:, None]) / denominators[:, None]


def lagrange_resample(s, values, s_new):
    """Values on the uniform grid s, shape (n,) or (n, ...), interpolated at
    the points s_new (m,) along the first axis: shape (m,) or (m, ...).

    Fifth-order local Lagrange interpolation (see lagrange_weights): exact
    on polynomials of degree 5, and the grid values at the nodes to roundoff.
    """
    idx, w = lagrange_weights(s, s_new)
    return np.einsum("jm,jm...->m...", w, np.take(np.asarray(values, dtype=float), idx, axis=0))


def cumulative_from_zero(y, h, i_zero, d1_matrix):
    """Cumulative integral of grid samples y from the grid point at index i_zero.

    Endpoint-corrected trapezoid rule.  The Euler-Maclaurin correction uses a
    fourth-order first derivative so the quadrature error is O(h^4) and, more
    importantly, smooth in the grid index (no parity sawtooth that a second
    difference would amplify).  d1_matrix is that derivative on the grid of
    y, as in Grid.d1.
    """
    y = np.asarray(y, dtype=float)
    t = np.concatenate([[0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))])
    yp = d1_matrix @ y
    c = t - (h * h / 12.0) * (yp - yp[0])
    return c - c[i_zero]


# points per block of the pointwise passes over a grid (Q, the mesh build)
# and of the OBJ/CSV writers, so that their working memory is bounded and
# is reused from block to block instead of faulted in afresh per call
BLOCK = 8192


def row_blocks(n_rows, row_size):
    """Slices of max(1, BLOCK // row_size) rows covering n_rows rows in order."""
    step = max(1, BLOCK // row_size)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


class Grid:
    """Uniform tensor grid on the cylinder section |s| <= arccosh(ell).

    s has n_s intervals (n_s + 1 points; s = 0 is a grid point only when
    n_s is even); theta has n_theta uniform points on [-pi, pi) with
    periodic wrap.  halo is the number of rows the s-stencils read beyond
    a row on one side (5: the one-sided d2 at a rim row spans 6 points);
    derivatives cuts it from the whole-grid field for a block of rows, so
    no caller works out which rows a block reads.
    """

    def __init__(self, ell, n_s, n_theta):
        # written so that a nan ell fails it
        if not 1.0 < ell < np.inf:
            raise ValueError(f"ell = {ell} must be finite and exceed 1")
        self.ell = float(ell)
        self.n_s = int(n_s)
        self.n_theta = int(n_theta)
        self.s_max = float(np.arccosh(ell))
        self.s = np.linspace(-self.s_max, self.s_max, n_s + 1)
        self.h = self.s[1] - self.s[0]
        self.theta = -np.pi + 2.0 * np.pi * np.arange(n_theta) / n_theta
        self.w_theta = 2.0 * np.pi / n_theta
        self.d1 = derivative_matrix(n_s + 1, self.h, 1, acc=4)
        self.d2 = derivative_matrix(n_s + 1, self.h, 2, acc=4)
        self.halo = max(self.d1.reach, self.d2.reach)

    @property
    def i_zero(self):
        """Index of the grid point s = 0; raises ValueError for odd n_s."""
        if self.n_s % 2 != 0:
            raise ValueError("n_s must be even so that s = 0 is a grid point")
        return self.n_s // 2

    def resample(self, u, s_new, t_new):
        """u, shape (n_s + 1, n_theta), at the points s_new (m,): fifth-order
        Lagrange in s (lagrange_resample), then the exact trigonometric
        interpolant in theta (trig_interpolate) at t_new, a row of angles
        (p,) shared by every point or one angle per point (m, 1).  Returns
        shape (m, p) or (m, 1).  The one off-grid evaluation of a grid
        function: the mesh build and the embed samples both go through it.
        """
        return trig_interpolate(lagrange_resample(self.s, u, s_new), t_new)

    def derivatives(self, u, rows=slice(None)):
        """The derivative bundle (u, u_t, u_s, u_tt, u_ss, u_ts) of u, shape
        (n_s + 1, n_theta) or (n_s + 1, 1), on the grid rows rows, a slice:
        stencils in s, modes in theta.

        It differences rows and the halo rows on either side that their
        s-stencils read, clipped to the grid, so the bundle is bit for bit
        those rows of the whole grid's bundle.  Every field is a fresh
        array: a caller may add into the bundle without touching u.

        Only for smooth fields: a cutoff's high derivatives alias on the grid,
        so the substitute functions carry closed-form bundles instead.
        """
        n = self.n_s + 1
        rows = slice(*rows.indices(n)[:2])
        first = max(rows.start - self.halo, 0)
        u = u[first:min(rows.stop + self.halo, n)]
        own = slice(rows.start - first, rows.stop - first)
        u_t, u_tt = theta_derivatives(u, (1, 2))
        return (u[own].copy(), u_t[own], self.d1.rows(u, rows, first), u_tt[own],
                self.d2.rows(u, rows, first), self.d1.rows(u_t, rows, first))


def weighted_norm(u, grid):
    """Weighted C^2 grid sup norm: sup cosh(s)^-0.75 (|u| + |u_s| + |u_t| +
    |u_ss| + |u_tt| + |u_ts|), the derivatives those of grid.derivatives.

    The Hoelder seminorm of the continuous counterpart is deliberately
    omitted.  u has shape (n_s + 1, n_theta) or (n_s + 1, 1).  It runs one
    row_blocks block at a time (Grid.derivatives of the block's rows), so
    it allocates block-sized arrays only; the bundle is that of the whole
    grid bit for bit, and the max over the blocks' maxima is exact (a nan
    propagates).
    """
    weight = np.cosh(grid.s) ** -0.75
    peaks = []
    for rows in row_blocks(*u.shape):
        f, f_t, f_s, f_tt, f_ss, f_ts = grid.derivatives(u, rows)
        total = np.abs(f)
        for field in (f_s, f_t, f_ss, f_tt, f_ts):
            total += np.abs(field)
        peaks.append(np.max(weight[rows, None] * total))
    return float(np.max(peaks))


STALL_RATIO, RESIDUAL_DROP = 0.5, 1e-4  # the stop rule of iterate


def residual_dropped(residuals):
    """Whether the last residual is at most RESIDUAL_DROP times the first:
    iterate's test of convergence when no floor is involved."""
    return residuals[-1] <= RESIDUAL_DROP * residuals[0]


def iterate(step, x, residual, tol, max_iter, floor=None):
    """Run x <- step(x) until it stops; returns (x, residuals, converged).

    step(x) returns (x_new, the residual at x, the norm of x_new - x), and
    residual(x) the residual alone, at the last x.  It stops when an update
    is below tol, or (a nan too) above STALL_RATIO times the one before: the
    gated maps contract by 1e-3 to 1e-2 per step, and at the roundoff floor
    the ratio is about 1.  It has converged if it stopped within max_iter
    steps with the last residual at most RESIDUAL_DROP times the first
    (residual_dropped), or below floor() / RESIDUAL_DROP when a floor is
    given: floor() returns the residual's roundoff floor, and is called only
    when the drop falls short, since a residual within 1 / RESIDUAL_DROP of
    it has no room left to fall by RESIDUAL_DROP.
    """
    residuals, last = [], np.inf
    for _ in range(max_iter):
        x, r, update = step(x)
        residuals.append(r)
        if update < tol or not update <= STALL_RATIO * last:
            residuals.append(residual(x))
            return x, residuals, (residual_dropped(residuals) or (
                floor is not None and residuals[-1] * RESIDUAL_DROP < floor()))
        last = update
    return x, residuals + [residual(x)], False
