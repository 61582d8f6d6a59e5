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

import numpy as np


def tube_map(spec, x, y, z):
    """Image of (x, y, z); broadcasts over array inputs."""
    x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                  np.asarray(z, float))
    frame = spec.frame(z)
    growth = np.exp(spec.lam * z)
    return (spec.gamma(z)
            + growth[..., None] * (x[..., None] * frame[..., :, 0]
                                   + y[..., None] * frame[..., :, 1]))


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


def check_injectivity(spec, radius, n_samples=4000, seed=0):
    """Sampled injectivity audit of the tube of the given radius.

    Stratified samples (three strata per axis) fill the tube over two full
    periods of the axis rotation; the minimum image distance is taken over
    pairs whose z-preimages differ by at least half a period.  The verdict is
    "injective-sample" when that minimum clears a margin set by the sampling
    resolution itself (a quarter of the median nearest-neighbour spacing), so
    genuinely overlapping sheets are flagged while honest tubes pass with a
    wide gap.

    Returns (verdict, min_separation).
    """
    from scipy.spatial import cKDTree

    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
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
                    xs = rng.uniform(edges[ix], edges[ix + 1], m)
                    ys = rng.uniform(edges[iy], edges[iy + 1], m)
                    keep = xs ** 2 + ys ** 2 <= radius ** 2
                    tries += m
                    if np.any(keep):
                        zs = rng.uniform(z_edges[iz], z_edges[iz + 1], int(keep.sum()))
                        pts_param.append(np.column_stack([xs[keep], ys[keep], zs]))
                        got += int(keep.sum())
    params = np.concatenate(pts_param, axis=0)
    images = tube_map(spec, params[:, 0], params[:, 1], params[:, 2])

    # bins of half-period width: points two or more bins apart are "far" in z
    n_bins = 4
    bin_idx = np.minimum((params[:, 2] / (period / 2.0)).astype(int), n_bins - 1)
    groups = [images[bin_idx == b] for b in range(n_bins)]
    min_sep = np.inf
    for i in range(n_bins):
        for j in range(i + 2, n_bins):
            if len(groups[i]) == 0 or len(groups[j]) == 0:
                continue
            tree = cKDTree(groups[j])
            d, _ = tree.query(groups[i], k=1)
            min_sep = min(min_sep, float(d.min()))

    tree_all = cKDTree(images)
    nn, _ = tree_all.query(images, k=2)
    margin = 0.25 * float(np.median(nn[:, 1]))
    verdict = "injective-sample" if min_sep > margin else "collision-suspected"
    return verdict, min_sep
