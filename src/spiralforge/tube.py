"""The tube map around a logarithmic spiral and its embeddedness bounds.

M(x, y, z) = gamma(z) + e^{delta xi z} (x e_1(z) + y e_2(z)) carries a solid
cylinder around the z-axis onto a "logarithmic cone" around the curve.  The
closed-form Jacobian, the injectivity radius of the tube, the resulting
bound on the solve half-width ell, and a sampling-based injectivity check
live here.

The determinant identity det DM = e^{3 delta xi z} is exact on the axis
x = y = 0; off the axis the frame rotation contributes the extra factor
1 - delta <x e_1 + y e_2, R e_3>, of size O(delta * kappa0 * radius).  The
Jacobian returned here is the true derivative of M (it matches finite
differences everywhere); the bare exponential identity is therefore an
on-axis statement.
"""

import math
import random

import numpy as np


def frame_point(spec, z, vec):
    """gamma(z) + e^{lam z} E(z) vec: the one evaluation of the tube map.

    vec is component-major, shape (3,) + a grid shape that z broadcasts
    against at equal ndim; so is the result.  The frame and gamma are
    evaluated at z alone, so a row of theta values broadcast along s costs
    one frame per value.
    """
    z = np.asarray(z, dtype=float)
    frame = np.moveaxis(spec.frame(z), (-2, -1), (0, 1))
    rotated = frame[:, 0] * vec[0] + frame[:, 1] * vec[1] + frame[:, 2] * vec[2]
    return np.moveaxis(spec.gamma(z), -1, 0) + np.exp(spec.lam * z) * rotated


def tube_map(spec, x, y, z):
    """Image of (x, y, z), shape broadcast(x, y, z) + (3,)."""
    x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                  np.asarray(z, float))
    vec = np.stack([x, y, np.zeros_like(x)])
    return np.moveaxis(frame_point(spec, z, vec), 0, -1)


def tube_jacobian(spec, x, y, z):
    """Derivative matrix of the tube map (exact, all terms)."""
    x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                  np.asarray(z, float))
    frame = spec.frame(z)
    e1 = frame[..., :, 0]
    e2 = frame[..., :, 1]
    e3 = frame[..., :, 2]
    growth = np.exp(spec.lam * z)[..., None]
    radial = x[..., None] * e1 + y[..., None] * e2
    col_z = growth * (e3 + spec.lam * radial
                      + spec.delta * np.einsum("ij,...j->...i", spec.r_mat, radial))
    return np.stack([growth * e1, growth * e2, col_z], axis=-1)


def tube_radius(spec, alpha):
    """Radius of the tube that M maps diffeomorphically, at margin alpha < 1."""
    if spec.xi == 0.0:
        raise ValueError("tube radius bound requires xi != 0")
    if spec.trivial:
        raise ValueError("tube radius bound requires a non-trivial generator")
    shape = np.sqrt((spec.tau0 ** 2 + spec.xi ** 2) / (spec.rho0 ** 2 + spec.xi ** 2))
    return alpha / (spec.delta * abs(spec.xi)) * shape


def injectivity_margin(spec):
    """Largest admissible alpha: (e^{pi xi / rho0} - 1) / (e^{pi xi / rho0} + 1)."""
    if spec.trivial:
        raise ValueError("requires a non-trivial generator")
    return float(np.tanh(np.pi * spec.xi / (2.0 * spec.rho0)))


def max_embed_ell(spec):
    """Upper bound on ell below which the solved surface is certified embedded."""
    return tube_radius(spec, abs(injectivity_margin(spec)))


# candidate pairs formed per block of joined cells in `near_pairs`, so that a
# search's working memory does not grow with the number of candidates
PAIR_BLOCK = 1 << 18

# the cell itself and its 13 forward neighbours: every unordered pair of
# adjacent cells is joined exactly once
_FORWARD = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            if (dx, dy, dz) >= (0, 0, 0)]


def _axis_cells(x, side):
    """Cell coordinates along one axis, compressed to fewer than 2 n values:
    occupied cells that touch stay one apart, all others at least two."""
    cells, inverse = np.unique(np.floor(x / side), return_inverse=True)
    step = np.where(np.diff(cells) == 1.0, 1, 2)
    return np.concatenate([[0], np.cumsum(step)])[inverse]


def _ranks(sizes):
    """0 ... size - 1 for each entry of sizes, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def near_pairs(points, radius):
    """Every pair of rows of points (n, 3) at distance <= radius, exactly once.

    A uniform cell-list search: the points are binned into cubes, sorted by
    cell key, and each occupied cell is joined with itself and its 13
    forward neighbours.  The cube side is the power of two in [radius,
    2 radius), so x / side is exact and two coordinates within radius of
    each other always fall into the same or adjacent cells.  Cell
    coordinates are compressed per axis, so one int64 key holds the cells of
    up to 2^20 points however far they spread.  Yields blocks (i, j, d) of
    index arrays and distances, i != j, each from about `PAIR_BLOCK`
    candidates (at most `PAIR_BLOCK` + n).
    """
    points = np.asarray(points, dtype=float)
    if not 0.0 < radius < np.inf:
        raise ValueError(f"search radius must be positive and finite, got {radius}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    if len(points) < 2:
        return
    mantissa, exponent = math.frexp(radius)
    side = math.ldexp(1.0, exponent - (mantissa == 0.5))
    axes = [_axis_cells(points[:, a], side) for a in range(3)]
    # one free slot past each axis' last cell: a neighbour offset off the
    # end of one row lands on a free slot, never on the next row's cells
    dims = [int(c.max()) + 2 for c in axes]
    if dims[0] * dims[1] * dims[2] >= 2 ** 63:
        raise ValueError(f"{len(points)} points are too many for one cell key")
    key = (axes[0] * dims[1] + axes[1]) * dims[2] + axes[2]
    order = np.argsort(key, kind="stable")
    cell, start, count = np.unique(key[order], return_index=True, return_counts=True)
    a, b = [], []
    for dx, dy, dz in _FORWARD:
        target = cell + (dx * dims[1] + dy) * dims[2] + dz
        pos = np.minimum(np.searchsorted(cell, target), len(cell) - 1)
        hit = np.flatnonzero(cell[pos] == target)
        a.append(hit)
        b.append(pos[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    # one row per point of each joined cell a, holding the sorted positions
    # lo ... hi - 1 it pairs with: all of cell b, or the later points of a
    # when b is a itself; a block is a run of whole rows
    reps = count[a]
    first = np.repeat(start[a], reps) + _ranks(reps)
    lo = np.where(np.repeat(a == b, reps), first + 1, np.repeat(start[b], reps))
    width = np.repeat(start[b] + count[b], reps) - lo
    bound = np.cumsum(width)
    cuts = np.searchsorted(bound, np.arange(PAIR_BLOCK, bound[-1], PAIR_BLOCK))
    for blk in np.split(np.arange(len(width)), cuts):
        w = width[blk]
        i = order[np.repeat(first[blk], w)]
        j = order[np.repeat(lo[blk], w) + _ranks(w)]
        d = np.sqrt(((points[i] - points[j]) ** 2).sum(axis=1))
        near = d <= radius
        yield i[near], j[near], d[near]


def sampled_min_separation(points, params, exclusion, radius):
    """Minimum distance among sample pairs that are far apart in parameters.

    points: (n, 3) samples of a surface or solid; params: (n, d) their
    parameters; pairs closer than `exclusion` in parameter space are skipped
    (they are neighbours on the same sheet).  Exact within `radius`: returns
    (min_distance, (i, j)) of the closest far pair at distance <= radius,
    and (inf, (-1, -1)) when there is none.
    """
    best, pair = np.inf, (-1, -1)
    for i, j, d in near_pairs(points, radius):
        far = np.linalg.norm(params[i] - params[j], axis=1) >= exclusion
        if np.any(far):
            m = np.argmin(np.where(far, d, np.inf))
            if d[m] < best:
                best, pair = float(d[m]), (int(i[m]), int(j[m]))
    return best, pair


def uniform(rng, low, high, n):
    """n doubles uniform on [low, high) from rng, a random.Random: each
    takes 53 bits of rng.randbytes.  The sampled audits draw from the
    standard library, since loading numpy's random-number extension modules
    costs a CLI start about 6 MB of memory and 0.04 s of CPU."""
    bits = np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> np.uint64(11)
    return low + (high - low) * (bits * 2.0 ** -53)


def check_injectivity(spec, radius, n_samples=4000, seed=0):
    """Sampled injectivity audit of the tube of the given radius.

    Stratified samples (three strata per axis), drawn by uniform from
    random.Random(seed), fill the tube over two full periods of the axis
    rotation; the minimum image distance is taken over pairs whose
    z-preimages lie two or more half-period bins apart.  The verdict is
    "injective-sample" when that minimum clears a margin set by the sampling
    resolution itself (a quarter of the median nearest-neighbour spacing),
    so genuinely overlapping sheets are flagged while honest tubes pass with
    a wide gap.

    Returns (verdict, min_separation); min_separation is exact when it is at
    most the margin and inf when no far pair lies within it.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = random.Random(seed)
    period = 2.0 * np.pi / (spec.delta * spec.rho0)
    edges = np.linspace(-radius, radius, 4)
    z_edges = np.linspace(0.0, 2.0 * period, 4)
    per_cell = max(n_samples // 27, 4)
    pts_param = []
    for ix in range(3):
        for iy in range(3):
            for iz in range(3):
                got = 0
                tries = 0
                while got < per_cell and tries < 40 * per_cell:
                    m = per_cell - got
                    xs = uniform(rng, edges[ix], edges[ix + 1], m)
                    ys = uniform(rng, edges[iy], edges[iy + 1], m)
                    keep = xs ** 2 + ys ** 2 <= radius ** 2
                    tries += m
                    if np.any(keep):
                        zs = uniform(rng, z_edges[iz], z_edges[iz + 1], int(keep.sum()))
                        pts_param.append(np.column_stack([xs[keep], ys[keep], zs]))
                        got += int(keep.sum())
    params = np.concatenate(pts_param, axis=0)
    images = tube_map(spec, params[:, 0], params[:, 1], params[:, 2])

    # median nearest-neighbour spacing, exact: widen the search from the
    # mean sample spacing until more than half the points have a neighbour
    # within it (on the axis det DM = e^{3 lam z} gives the image volume)
    n = len(images)
    growth = np.mean(np.exp(3.0 * spec.lam * params[:, 2]))
    volume = np.pi * radius ** 2 * 2.0 * period * growth
    reach = (volume / n) ** (1.0 / 3.0)
    while True:
        nearest = np.full(n, np.inf)
        for i, j, d in near_pairs(images, reach):
            np.minimum.at(nearest, i, d)
            np.minimum.at(nearest, j, d)
        if np.count_nonzero(nearest <= reach) > n / 2:
            break
        reach *= 2.0
    margin = 0.25 * float(np.median(nearest))

    # bins of half-period width: points two or more bins apart are "far" in z
    n_bins = 4
    bin_idx = np.minimum((params[:, 2] / (period / 2.0)).astype(int), n_bins - 1)
    min_sep, _ = sampled_min_separation(images, bin_idx[:, None], 2, margin)
    verdict = "injective-sample" if min_sep > margin else "collision-suspected"
    return verdict, min_sep
