"""Verification of solved surfaces and mesh/CSV export.

Three independent audits of a solve: the discrete dilation defect (the
solved graph must inherit the spiral's one-period similarity), a sampled
self-intersection search with a parameter-space exclusion radius, and
weighted sup norms reproducing the solve's size bounds.  Export writes an
ASCII OBJ in full double precision with a CSV sidecar carrying the scalar
fields a mesh file cannot.
"""

from dataclasses import dataclass, field

import numpy as np

from . import bent
from .numerics import Grid, lagrange_resample, theta_derivative, trig_interpolate
from .tube import max_embed_ell, sampled_min_separation


@dataclass
class SolveReport:
    residual_history: list
    final_interior_residual: float
    b_x: float
    b_y: float
    norm_v: float
    embed_verdict: str
    self_similarity_defect: float
    runtime: float
    converged: bool
    zeta: float
    iterations: int
    u0_c_hat: float
    config: dict = field(default_factory=dict)


@dataclass
class Mesh:
    vertices: np.ndarray
    faces: np.ndarray
    scalars: dict


def weighted_norm(u, grid, rho=0.75, k=0):
    """Weighted grid sup norm: sup cosh(s)^-rho (|u| + |first derivs| + ...).

    Derivatives in s are fourth-order stencils, in theta exact mode-wise
    differentiation; the Hoelder seminorm of the continuous counterpart is
    deliberately omitted.
    """
    u = np.asarray(u, dtype=float)
    terms = [np.abs(u)]
    if k >= 1:
        u_theta = theta_derivative(u)
        terms += [np.abs(grid.d1 @ u), np.abs(u_theta)]
    if k >= 2:
        terms += [np.abs(grid.d2 @ u), np.abs(theta_derivative(u, order=2)),
                  np.abs(grid.d1 @ u_theta)]
    total = sum(terms)
    weight = np.cosh(grid.s) ** (-rho)
    return float(np.max(weight[:, None] * total))


def check_self_similarity(surface, u):
    """Relative defect of G_w(s, theta + 2 pi) = scale * rot * G_w(s, theta).

    Zero to roundoff for periodic u over a correctly anchored curve; the
    similarity is centered at the origin, so any mis-anchoring (a translated
    copy of the same surface) shows up as an O(|offset|) defect.
    """
    spec, g = surface.spec, surface.grid
    s_col, t_row = g.s[:, None], g.theta[None, :]
    utot = u + surface.u0[:, None]
    t_next = t_row + 2.0 * np.pi
    x1 = bent.graph_point(spec, s_col, t_row, utot, surface.normals["nu"])
    x2 = bent.graph_point(spec, s_col, t_next, utot,
                          bent._gauged_normal(spec, s_col, t_next))
    scale, rot = spec.similarity()
    image = scale * np.einsum("ij,...j->...i", rot, x1)
    gauge = np.exp(-spec.lam * g.theta)[:, None]
    defect = np.abs(x2 - image) * gauge
    denom = np.abs(x1 * gauge).max()
    return float(defect.max() / denom)


def embed_bound(spec):
    """The closed-form embeddedness bound on ell, nan where it is undefined
    (xi = 0); ell <= embed_bound(spec) is false there."""
    try:
        return max_embed_ell(spec)
    except ValueError:
        return float("nan")


# the audit's collision threshold, as a fraction of the sheet spacing
# e^{-|lam| 3 pi}, and its exclusion radius in grid cells
COLLISION_MARGIN = 0.1
EXCLUSION_CELLS = 3


def check_embedded(surface, u, converged, n_samples=10000, seed=0):
    """Two-stage embeddedness audit.

    Stage one checks the closed-form bound ell <= max_embed_ell, which
    certifies embeddedness for a converged solve.  Stage two samples the
    graph surface over two theta-periods and searches for image points that
    are close despite being more than EXCLUSION_CELLS grid cells apart in
    parameter space; a pair within the collision threshold overrules stage
    one.  The search is exact within the threshold: info's min_separation
    is the closest such pair's distance when it is at most the threshold,
    and inf when no such pair lies within it.

    Returns (verdict, info) with verdict in {"certified", "sampled-ok",
    "not-certified"}.
    """
    spec, g = surface.spec, surface.grid
    bound = embed_bound(spec)
    certified = bool(g.ell <= bound) and converged
    threshold = COLLISION_MARGIN * float(np.exp(-abs(spec.lam) * 3.0 * np.pi))
    min_d, pair = sampled_min_separation(
        *_embed_samples(surface, u, n_samples, seed), radius=threshold)
    info = {"ell_bound": bound, "min_separation": min_d, "pair": pair,
            "threshold": threshold}
    if min_d < threshold:
        return "not-certified", info
    return ("certified" if certified else "sampled-ok"), info


def _embed_samples(surface, u, n_samples, seed):
    """Random points of the graph surface over two theta-periods.

    Returns (points, params, exclusion): the (n, 3) lab-frame points, their
    (s, theta) parameters, and the parameter distance below which two
    samples count as neighbours on the same sheet.
    """
    spec, g = surface.spec, surface.grid
    rng = np.random.default_rng(seed)
    s_samp = rng.uniform(-g.s_max, g.s_max, n_samples)
    t_samp = rng.uniform(-np.pi, 3.0 * np.pi, n_samples)

    # u is band-limited in theta and smooth in s: local Lagrange in s first,
    # then evaluate each row's trigonometric interpolant at its own angle.
    utot = u + surface.u0[:, None]
    rows = lagrange_resample(g.s, utot, s_samp)
    u_vals = trig_interpolate(rows, t_samp[:, None])[:, 0]
    pts = bent.graph_point(spec, s_samp, t_samp, u_vals,
                           bent._gauged_normal(spec, s_samp, t_samp))
    cell = max(g.h, 2.0 * np.pi / g.n_theta)
    return pts, np.column_stack([s_samp, t_samp]), EXCLUSION_CELLS * cell


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

# points per block of the mesh build and of the OBJ/CSV writers, so that
# the export's working memory does not grow with the mesh
EXPORT_BLOCK = 8192


def build_mesh(surface, u, resolution=(64, 64), periods=1):
    """Triangulated graph surface, optionally extended by the similarity.

    resolution = (n_s, n_theta) vertices per period in each direction; the
    theta samples are uniform without the wrap point, so one period of an
    (n, m) mesh has exactly n * m vertices.  Additional periods are images
    of the first under the discrete dilation, so the seams are exact.
    """
    spec, g = surface.spec, surface.grid
    n_sm, n_tm = resolution
    mesh_grid = Grid(g.ell, n_sm - 1, n_tm)
    s_m, t_m = mesh_grid.s, mesh_grid.theta

    # resample u: exact trigonometric interpolation in theta, fifth-order
    # local Lagrange in s
    u_theta = trig_interpolate(u + surface.u0[:, None], t_m)
    u_mesh = lagrange_resample(g.s, u_theta, s_m)
    # s-stencils need whole columns; all that follows is pointwise, so it
    # runs a block of mesh rows at a time into the preallocated mesh arrays
    derivs = bent.GraphFunction.from_values(u_mesh, mesh_grid.d1,
                                            mesh_grid.d2).derivatives()

    n_cols = periods * n_tm
    vertices = np.empty((n_sm, n_cols, 3))
    scalars = {k: np.empty((n_sm, n_cols)) for k in ("s", "theta", "H_abs", "u")}
    scale, rot = spec.similarity()
    t_row = t_m[None, :]
    rows = max(1, EXPORT_BLOCK // n_tm)
    for r0 in range(0, n_sm, rows):
        blk = slice(r0, r0 + rows)
        s_col = s_m[blk, None]
        brackets, normals, ch2 = bent.geometry(spec, s_col, t_row)
        # mean curvature: the solver's Q (aspect guard included), then undo
        # the gauge factors
        q = bent.graph_q(spec.lam, brackets, normals, ch2, [d[blk] for d in derivs])
        del brackets  # not held through the next block's geometry
        h_abs = np.abs(q) / (np.exp(spec.lam * t_row) * ch2)
        x = bent.graph_point(spec, s_col, t_row, u_mesh[blk], normals["nu"])
        for p in range(periods):
            cols = slice(p * n_tm, (p + 1) * n_tm)
            vertices[blk, cols] = x if p == 0 else (scale ** p) * np.einsum(
                "ij,...j->...i", np.linalg.matrix_power(rot, p), x)
            scalars["s"][blk, cols] = s_col
            scalars["theta"][blk, cols] = t_row + 2.0 * np.pi * p
            scalars["H_abs"][blk, cols] = h_abs / scale ** p
            scalars["u"][blk, cols] = u_mesh[blk]

    # two triangles per cell, cells row by row: (a, b, b + 1), (a, b + 1, a + 1)
    # with a the cell's corner and b the vertex below it
    a = (np.arange(n_sm - 1)[:, None] * n_cols + np.arange(n_cols - 1)).ravel()
    b = a + n_cols
    faces = np.column_stack([a, b, b + 1, a, b + 1, a + 1]).reshape(-1, 3)
    return Mesh(vertices.reshape(-1, 3), faces,
                {k: v.reshape(-1) for k, v in scalars.items()})


def _write_blocks(fh, row_format, n_rows, rows_of):
    """Write n_rows rows of row_format, formatting EXPORT_BLOCK rows per %
    operation; rows_of(sl) gives the rows of slice sl as a 2-D array."""
    for i in range(0, n_rows, EXPORT_BLOCK):
        block = rows_of(slice(i, i + EXPORT_BLOCK))
        fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def write_obj(mesh, path):
    """ASCII OBJ, vertices in full double precision, 1-indexed faces."""
    with open(path, "w") as fh:
        _write_blocks(fh, "v %.17g %.17g %.17g\n", len(mesh.vertices),
                      lambda sl: mesh.vertices[sl])
        _write_blocks(fh, "f %d %d %d\n", len(mesh.faces),
                      lambda sl: mesh.faces[sl] + 1)


def read_obj(path):
    vertices, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x.split("/")[0]) - 1 for x in parts[1:4]])
    return np.array(vertices), np.array(faces, dtype=int)


def write_csv(mesh, path):
    """CSV sidecar: header s,theta,H_abs,u, then one CRLF-ended row per vertex."""
    cols = [mesh.scalars[k] for k in ("s", "theta", "H_abs", "u")]
    with open(path, "w", newline="") as fh:
        fh.write("s,theta,H_abs,u\r\n")
        _write_blocks(fh, "%.17g,%.17g,%.17g,%.17g\r\n", len(cols[0]),
                      lambda sl: np.column_stack([c[sl] for c in cols]))


def export_mesh(surface, u, obj_path, resolution=(64, 64), periods=1,
                csv_path=None):
    """Write the OBJ (and CSV sidecar) for the solved graph surface."""
    mesh = build_mesh(surface, u, resolution=resolution, periods=periods)
    try:
        write_obj(mesh, obj_path)
        if csv_path is not None:
            write_csv(mesh, csv_path)
    except OSError as exc:
        raise OSError(f"mesh export to {obj_path} failed: {exc}") from exc
    return mesh


def report_text(report):
    """Deterministic key = value rendering of a solve report.

    Volatile fields (wall-clock runtime) are excluded on purpose so that
    identical configurations produce byte-identical files.
    """
    lines = ["[report]"]
    lines.append(f"converged = {str(report.converged).lower()}")
    lines.append(f"iterations = {report.iterations}")
    lines.append(f"final_interior_residual = {report.final_interior_residual:.17g}")
    lines.append(f"b_x = {report.b_x:.17g}")
    lines.append(f"b_y = {report.b_y:.17g}")
    lines.append(f"norm_v = {report.norm_v:.17g}")
    lines.append(f"zeta = {report.zeta:.17g}")
    lines.append(f"u0_c_hat = {report.u0_c_hat:.17g}")
    lines.append(f"embed_verdict = {report.embed_verdict}")
    lines.append(f"self_similarity_defect = {report.self_similarity_defect:.17g}")
    lines.append("residual_history = " + ",".join(f"{x:.17g}" for x in report.residual_history))
    if report.config:
        lines.append("")
        lines.append("[config]")
        for key in sorted(report.config):
            lines.append(f"{key} = {report.config[key]}")
    return "\n".join(lines) + "\n"
