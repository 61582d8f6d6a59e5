"""Verification of solved surfaces and mesh/CSV export.

Three independent audits of a solve: the discrete dilation defect (the
solved graph must inherit the spiral's one-period similarity), a sampled
self-intersection search with a parameter-space exclusion radius, and
weighted sup norms reproducing the solve's size bounds.  Export writes an
ASCII OBJ in full double precision with a CSV sidecar carrying the scalar
fields a mesh file cannot.
"""

import functools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bent
from .numerics import (Grid, lagrange_resample, row_blocks, trig_interpolate,
                       weighted_norm)
from .tube import max_embed_ell, sampled_min_separation, uniform


@dataclass
class SolveReport:
    residual_history: list
    b_x: float
    b_y: float
    norm_v: float
    embed_verdict: str
    self_similarity_defect: float
    runtime: float
    converged: bool
    zeta: float
    u0_c_hat: float
    config: dict = field(default_factory=dict)

    @property
    def final_interior_residual(self):
        """The interior residual of Q at the final state."""
        return self.residual_history[-1]

    @property
    def iterations(self):
        """Fixed-point steps taken: the history holds one residual more."""
        return len(self.residual_history) - 1


CSV_KEYS = ("s", "theta", "H_abs", "u")


class Mesh:
    """The (n_s, periods * n_theta) mesh of build_mesh, kept as its first
    period: lab points x (n_s, n_theta, 3), |H| and u on the mesh grid
    (s, theta).  Period p is the image of the first under the similarity:
    scale^p rot^p x, |H| / scale^p, theta + 2 pi p.  The writers read it as
    blocks of mesh rows (see _write_rows), which form it as they go: the
    vertices' three columns, each scalar column of CSV_KEYS with only the
    axes it varies along, and the faces, numbered from 1 as the OBJ does,
    as slices of the text of their corner ids.  vertices, faces (0-based)
    and scalars form the whole arrays on access."""

    def __init__(self, s, theta, x, h_abs, u, similarity, periods):
        self.s, self.theta, self.x, self.h_abs, self.u = s, theta, x, h_abs, u
        scale, rot = similarity
        self.maps = [(scale ** p, np.linalg.matrix_power(rot, p)) for p in range(periods)]
        self.n_cols = periods * len(theta)

    def _vertices(self, rows):
        x = self.x[rows]
        out = np.empty((len(x), len(self.maps), *x.shape[1:]))
        for p, (scale_p, rot_p) in enumerate(self.maps):
            out[:, p] = x if p == 0 else scale_p * np.einsum("ij,...j->...i", rot_p, x)
        return out.reshape(-1, 3)

    def _scalars(self, rows):
        """The CSV_KEYS columns of the mesh rows, each with only the axes of
        (row, period, theta) it varies along."""
        periods = np.arange(len(self.maps))[:, None]
        scales = np.array([scale_p for scale_p, _ in self.maps])[:, None]
        return (self.s[rows, None, None], (self.theta + 2.0 * np.pi * periods)[None],
                self.h_abs[rows, None] / scales, self.u[rows, None])

    def _corners(self, cells):
        """Vertex ids (rows, n_cols) of the mesh rows that bound the cells."""
        rows = np.arange(len(self.s))[cells.start:cells.stop + 1]
        return rows[:, None] * self.n_cols + np.arange(self.n_cols)

    def vertex_blocks(self):
        return (tuple(self._vertices(rows).T)
                for rows in row_blocks(len(self.s), self.n_cols))

    def face_blocks(self):
        for cells in row_blocks(len(self.s) - 1, 2 * self.n_cols):
            chars, keep = _text(self._corners(cells) + 1)
            yield [_Text(*text) for text in zip(_triangles(chars), _triangles(keep))]

    def scalar_blocks(self):
        return map(self._scalars, row_blocks(len(self.s), self.n_cols))

    @property
    def vertices(self):
        return self._vertices(slice(None))

    @property
    def faces(self):
        ids = self._corners(slice(0, len(self.s) - 1))
        return np.stack(_triangles(ids), axis=-1).reshape(-1, 3)

    @property
    def scalars(self):
        shape = (len(self.s), len(self.maps), len(self.theta))
        return {key: np.broadcast_to(column, shape).ravel()
                for key, column in zip(CSV_KEYS, self._scalars(slice(None)))}


def _triangles(ids):
    """The three face columns of the cells between the rows of ids (...,
    rows, cols), two triangles per cell, cells row by row: (a, b, b + 1),
    (a, b + 1, a + 1) with a the cell's corner and b the vertex below it.
    Each column is (..., rows - 1, cols - 1, 2), two slices of ids stacked
    (broadcasting a along the last axis would make the writer's copies run
    two bytes at a time)."""
    a, b = ids[..., :-1, :-1], ids[..., 1:, :-1]
    a1, b1 = ids[..., :-1, 1:], ids[..., 1:, 1:]
    return [np.stack(pair, axis=-1) for pair in ((a, a), (b, b1), (b1, a1))]


def check_self_similarity(surface, u):
    """Relative defect of G_w(s, theta + 2 pi) = scale * rot * G_w(s, theta)
    for the graph G_w of the values u (solver.graph_values) on the surface's
    grid, whose cached normal it reads at theta.

    Zero to roundoff for periodic u over a correctly anchored curve; the
    similarity is centered at the origin, so any mis-anchoring (a translated
    copy of the same surface) shows up as an O(|offset|) defect.  Every step
    is pointwise, so it runs a block of numerics.row_blocks rows at a time,
    and the blocks' maxima give the whole-grid maxima exactly.
    """
    spec, g = surface.spec, surface.grid
    scale, rot = spec.similarity()
    t_row = g.theta[None, :]
    t_next = t_row + 2.0 * np.pi
    gauge = np.exp(-spec.lam * g.theta)[:, None]
    defects, sizes = [], []
    for blk in row_blocks(*u.shape):
        s_col = g.s[blk, None]
        x1 = bent.graph_point(spec, s_col, t_row, u[blk], surface.normals["nu"][:, blk])
        x2 = bent.graph_point(spec, s_col, t_next, u[blk])
        image = scale * np.einsum("ij,...j->...i", rot, x1)
        defects.append((np.abs(x2 - image) * gauge).max())
        sizes.append(np.abs(x1 * gauge).max())
    return float(np.max(defects) / np.max(sizes))


def embed_bound(spec):
    """The closed-form embeddedness bound on ell, nan where it is undefined
    (xi = 0); ell <= embed_bound(spec) is false there."""
    try:
        return max_embed_ell(spec)
    except ValueError:
        return float("nan")


def certified(spec, ell, converged):
    """The one certification rule, of the solve's verdict and of
    check_embedded's first stage: a converged solve within the closed-form
    bound, ell <= embed_bound(spec)."""
    return bool(ell <= embed_bound(spec)) and converged


# the audit's collision threshold, as a fraction of the sheet spacing
# e^{-|lam| 3 pi}, and its exclusion radius in grid cells
COLLISION_MARGIN = 0.1
EXCLUSION_CELLS = 3


def check_embedded(spec, grid, u, converged, n_samples=10000, seed=0):
    """Two-stage embeddedness audit.

    Stage one is the certification rule (certified): the closed-form bound
    ell <= max_embed_ell certifies embeddedness for a converged solve.
    Stage two samples the graph surface over two theta-periods and searches
    for image points that are close despite being more than EXCLUSION_CELLS
    grid cells apart in parameter space; a pair within the collision
    threshold overrules stage one.  The search is exact within the
    threshold: info's min_separation is the closest such pair's distance
    when it is at most the threshold, and inf when no such pair lies within
    it.

    u is the solved graph's values on grid (solver.graph_values).  Returns
    (verdict, info) with verdict in {"certified", "sampled-ok",
    "not-certified"}.
    """
    threshold = COLLISION_MARGIN * float(np.exp(-abs(spec.lam) * 3.0 * np.pi))
    min_d, pair = sampled_min_separation(
        *_embed_samples(spec, grid, u, n_samples, seed), radius=threshold)
    info = {"ell_bound": embed_bound(spec), "min_separation": min_d, "pair": pair,
            "threshold": threshold}
    if min_d < threshold:
        return "not-certified", info
    return ("certified" if certified(spec, grid.ell, converged) else "sampled-ok"), info


def _embed_samples(spec, grid, u, n_samples, seed):
    """Random points of the graph surface over two theta-periods, uniform in
    (s, theta) from tube.uniform on random.Random(seed).

    Returns (points, params, exclusion): the (n, 3) lab-frame points, their
    (s, theta) parameters, and the parameter distance below which two
    samples count as neighbours on the same sheet.
    """
    rng = random.Random(seed)
    s_samp = uniform(rng, -grid.s_max, grid.s_max, n_samples)
    t_samp = uniform(rng, -np.pi, 3.0 * np.pi, n_samples)

    # u is band-limited in theta and smooth in s: local Lagrange in s first,
    # then evaluate each row's trigonometric interpolant at its own angle,
    # a block of samples' rows at a time (the resampling gathers six grid
    # rows per sample)
    u_vals = np.empty(n_samples)
    for blk in row_blocks(n_samples, grid.n_theta):
        rows = lagrange_resample(grid.s, u, s_samp[blk])
        u_vals[blk] = trig_interpolate(rows, t_samp[blk, None])[:, 0]
    pts = bent.graph_point(spec, s_samp, t_samp, u_vals)
    cell = max(grid.h, 2.0 * np.pi / grid.n_theta)
    return pts, np.column_stack([s_samp, t_samp]), EXCLUSION_CELLS * cell


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

def build_mesh(spec, grid, u, resolution=(64, 64), periods=1):
    """Triangulated graph surface, optionally extended by the similarity.

    u is the solved graph's values on grid (solver.graph_values).
    resolution = (n_s, n_theta) vertices per period in each direction; the
    theta samples are uniform without the wrap point, so one period of an
    (n, m) mesh has exactly n * m vertices.  Additional periods are images of the first
    under the discrete dilation, so the seams are exact; the returned Mesh
    holds the first period only and forms the others as they are read.

    It runs a block of numerics.row_blocks mesh rows at a time into the
    preallocated period.  u is resampled on the block and the mesh
    grid's halo of 5 mesh rows on either side, the reach of its s-stencils:
    exact trigonometric interpolation in theta of only the solve-grid rows
    the block's fifth-order Lagrange stencils in s read.
    Each row is resampled and differenced as on the whole mesh, so every
    value is bit for bit the whole-mesh one.
    """
    n_sm, n_tm = resolution
    mesh_grid = Grid(grid.ell, n_sm - 1, n_tm)
    s_m, t_m, halo = mesh_grid.s, mesh_grid.theta, mesh_grid.halo

    def solve_rows(rows):
        return trig_interpolate(u[rows], t_m)

    x = np.empty((n_sm, n_tm, 3))
    h_abs = np.empty((n_sm, n_tm))
    u_mesh = np.empty((n_sm, n_tm))
    t_row = t_m[None, :]
    for blk in row_blocks(n_sm, n_tm):
        ext = slice(max(blk.start - halo, 0), min(blk.stop + halo, n_sm))
        derivs = mesh_grid.derivatives(lagrange_resample(grid.s, solve_rows, s_m[ext]),
                                       blk, ext.start)
        u_mesh[blk] = derivs[0]
        s_col = s_m[blk, None]
        brackets, normals, ch2 = bent.geometry(spec, s_col, t_row)
        # mean curvature: the solver's Q (aspect guard included), then undo
        # the gauge factors
        q = bent.graph_q(spec.lam, brackets, normals, ch2, derivs)
        del brackets  # not held through the next block's geometry
        h_abs[blk] = np.abs(q) / (np.exp(spec.lam * t_row) * ch2)
        x[blk] = bent.graph_point(spec, s_col, t_row, u_mesh[blk], normals["nu"])
    return Mesh(s_m, t_m, x, h_abs, u_mesh, spec.similarity(), periods)


# ---------------------------------------------------------------------------
# OBJ/CSV text: "%.17g" and "%d", byte for byte, a block of rows at a time
# ---------------------------------------------------------------------------
#
# A block's text is laid out in planes: plane j of a field holds byte j of
# that field for every row, and a mask keeps the bytes of each row's text,
# so reading the kept bytes row by row gives the rows.  Each column is laid
# out from its own values and its planes are broadcast into the block's, so
# a value that repeats along an axis of the block (s along a mesh row, theta
# down the rows, u in every period) is formatted once per block; the faces'
# three columns are slices of the text of their corner ids.
#
# A float's 17 digits come from |x| 10^(16 - k) in double-double arithmetic,
# correctly rounded as CPython's dtoa rounds them, unless the rounding
# fraction lies within the product's error bound of 1/2 (ties and near-ties)
# or k lies outside the power table (subnormals, |x| beyond 1e280): such
# values take Python's own "%.17g", one at a time.

_K_MAX = 280               # |k| covered by the power table, with one to spare
_N_MIN = 15 - _K_MAX       # its smallest power of ten, 16 - (_K_MAX + 1)
# the product y = |x| 10^(16 - k) < 2^57 is within 2^-104 y < 2^-47 of exact
# (Dekker's exact two-product, a table tail good to 2^-106 and one rounding),
# so a rounding fraction within 2^-40 of 1/2 is left undecided
_TIE = 2.0 ** -40
# constant planes after the 17 digits; the layouts index into all 23
_CONST = np.frombuffer(b".0naif", np.uint8)[:, None]
_DOT, _ZERO, _N, _A, _I, _F = range(17, 23)
# digit position weights for the last significant digit
_POS = np.arange(1, 17, dtype=np.uint8)[:, None]
# widest field: sign, "0.000" and 17 digits, "e-308"
_FIELD_MAX = 28


def _layout(code):
    """Source planes of a float's text by layout code: 1-17 put the point
    after that many digits, 18-21 lead with "0." and 0-3 zeros (exponents
    -1 to -4), 22-24 spell 0, nan and inf."""
    if code <= 17:
        return [*range(code), _DOT, *range(code, 17)]
    if code <= 21:
        return [_ZERO, _DOT, *[_ZERO] * (code - 18), *range(17)]
    return ([_ZERO], [_N, _A, _N], [_I, _N, _F])[code - 22]


@functools.cache
def _pow10():
    """10^n for n = _N_MIN .. 17 + _K_MAX as double-doubles (hi, lo): hi
    correctly rounded, lo the rounded rest, both from exact integers."""
    hi, lo = [], []
    for n in range(_N_MIN, 18 + _K_MAX):
        num, den = (10 ** n, 1) if n >= 0 else (1, 10 ** -n)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    return np.array(hi), np.array(lo)


@functools.cache
def _exponents():
    """"e%+03d" % X for X = -_K_MAX - 1 .. _K_MAX + 1: five planes, and the
    lengths."""
    text = [b"e%+03d" % x for x in range(-_K_MAX - 1, _K_MAX + 2)]
    planes = np.frombuffer(b"".join(t.ljust(5) for t in text), np.uint8)
    return planes.reshape(-1, 5).T.copy(), np.array(list(map(len, text)), np.uint8)


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(ax, k):
    """ax 10^(16 - k) as a double-double (hi, lo)."""
    tab_hi, tab_lo = _pow10()
    i = 16 - k - _N_MIN
    ph = tab_hi[i]
    p = ax * ph
    (ah, al), (bh, bl) = _split(ax), _split(ph)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl + ax * tab_lo[i]
    hi = p + err
    return hi, err - (hi - p)


def _decimal17(ax):
    """(D, X, undecided) for positive ax in the table's range: ax rounded to
    17 significant digits is D 10^(X - 16), 10^16 <= D < 10^17, wherever
    undecided is false."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _scaled(ax, k)
    # log10 can miss by one next to a power of ten: rescale where the
    # product fell outside [10^16, 10^17)
    adj = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
           - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
    redo = np.flatnonzero(adj)
    if len(redo):
        k[redo] += adj[redo]
        hi[redo], lo[redo] = _scaled(ax[redo], k[redo])
    # hi >= 10^16 > 2^53 is an integer, so the fraction is lo's
    whole = np.floor(lo)
    frac = lo - whole
    D = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10 ** 17  # 99...95 and up round into the next decade
    D[carry] = 10 ** 16
    return D, (k + carry).astype(np.int16), np.abs(frac - 0.5) < _TIE


def _digits(v, out):
    """ASCII digits of the non-negative integers v (< 10^len(out)) into the
    planes out, most significant first, zero-padded."""
    v = v.astype(np.uint32 if len(out) <= 9 else np.int64)
    for j in range(len(out) - 1, 0, -1):
        q = v // 10
        np.subtract(v, 10 * q, out=out[j], casting="unsafe")
        v = q
    out[0] = v
    out += ord("0")


def _float_field(x, chars, keep):
    """Lay out "%.17g" % v for each v of x in the planes chars and mark its
    bytes in keep; returns the number of planes used."""
    ax = np.abs(x)
    nonzero = np.isfinite(x) & (ax > 0)
    in_table = (ax >= 10.0 ** -_K_MAX) & (ax <= 10.0 ** _K_MAX)
    D, X, undecided = _decimal17(np.where(in_table, ax, 1.0))
    src = np.empty((17 + len(_CONST), len(x)), np.uint8)
    _digits(D // 10 ** 8, src[:9])
    _digits(D % 10 ** 8, src[9:17])
    src[17:] = _CONST
    n_sig = 1 + ((src[1:17] != ord("0")) * _POS).max(axis=0)
    # %g at precision 17: fixed for -4 <= X < 17, trailing zeros trimmed,
    # and the point dropped when no digit follows it
    fixed = (X >= -4) & (X <= 16)
    lead = np.where(fixed & (X < 0), -X, 0)
    dot = np.where(fixed & (X > 0), X + 1, 1)
    code = np.where(lead > 0, 17 + lead, dot)
    nan, inf = np.isnan(x), np.isinf(x)
    code[x == 0] = 22
    code[nan] = 23
    code[inf] = 24
    used = n_sig + lead
    body_len = np.where(used <= dot, dot, used + 1).astype(np.uint8)
    body_len[nan | inf] = 3  # a zero's one digit already gives "0"

    w = 0
    neg = np.signbit(x) & ~nan
    if neg.any():
        chars[0] = ord("-")
        keep[0] = neg
        w = 1
    # the most common layout fills all rows, the others overwrite theirs
    counts = np.bincount(code, minlength=25)
    codes = np.flatnonzero(counts)
    base = codes[counts[codes].argmax()]
    width = max(len(_layout(c)) for c in codes)
    body = chars[w:w + width]
    body[:len(_layout(base))] = src[_layout(base)]
    for c in codes[codes != base]:
        rows = np.flatnonzero(code == c)
        planes = _layout(c)
        body[:len(planes), rows] = src.take(rows, axis=1)[planes]
    for j in range(width):
        np.greater(body_len, j, out=keep[w + j])
    w += width

    expo = nonzero & ~fixed
    if expo.any():
        text, lengths = _exponents()
        i = X + _K_MAX + 1
        np.take(text, i, axis=1, out=chars[w:w + 5])
        exp_len = np.where(expo, lengths[i], 0).astype(np.uint8)
        for j in range(5):
            np.greater(exp_len, j, out=keep[w + j])
        w += 5

    fallback = np.flatnonzero(nonzero & (~in_table | undecided))
    if len(fallback):
        text = [b"%.17g" % v for v in x[fallback].tolist()]
        lengths = np.array(list(map(len, text)))
        if lengths.max() > w:
            keep[w:lengths.max()] = False
            w = int(lengths.max())
        padded = np.frombuffer(b"".join(t.ljust(w) for t in text), np.uint8)
        chars[:w, fallback] = padded.reshape(-1, w).T
        keep[:w, fallback] = np.arange(w)[:, None] < lengths
    return w


def _int_field(v, chars, keep):
    """Lay out "%d" % i for each non-negative integer i of v in the planes
    chars and mark its bytes in keep; returns the number of planes used."""
    width = len(str(int(v.max(initial=0))))
    _digits(v, chars[:width])
    for j in range(width - 1):
        np.greater_equal(v, 10 ** (width - 1 - j), out=keep[j])
    keep[width - 1] = True
    return width


class _Text(NamedTuple):
    """Values' text as planes: chars[j] holds byte j of each value's text
    and keep[j] marks the values whose text has that byte; shape (width,
    *values' shape)."""
    chars: np.ndarray
    keep: np.ndarray

    @property
    def shape(self):
        return self.chars.shape[1:]


def _text(values):
    """The _Text of an array of floats ("%.17g") or non-negative integers
    ("%d")."""
    flat = values.ravel()
    field = _float_field if flat.dtype.kind == "f" else _int_field
    chars = np.empty((_FIELD_MAX, flat.size), np.uint8)
    keep = np.empty((_FIELD_MAX, flat.size), bool)
    w = field(flat, chars, keep)
    return _Text(chars[:w].reshape(w, *values.shape), keep[:w].reshape(w, *values.shape))


def _write_rows(fh, blocks, prefix, sep, end):
    """Write each row of each block as prefix, the row's fields joined by
    sep, and end, one write per block.

    A block is a sequence of columns with equally many axes that broadcast
    against each other, one line per element of their broadcast shape in C
    order.  A column is an array of values or their _Text: each column is
    formatted from its own values, and its planes are broadcast into the
    block's.
    """
    for columns in blocks:
        shape = np.broadcast_shapes(*(col.shape for col in columns))
        literals = [prefix, *[sep] * (len(columns) - 1), end]
        size = sum(map(len, literals)) + len(columns) * _FIELD_MAX
        chars = np.empty((size, *shape), np.uint8)
        keep = np.empty((size, *shape), bool)
        axes, w = [1] * len(shape), 0
        for j, lit in enumerate(literals):
            chars[w:w + len(lit)] = np.frombuffer(lit, np.uint8).reshape(-1, *axes)
            keep[w:w + len(lit)] = True
            w += len(lit)
            if j < len(columns):
                text = columns[j] if isinstance(columns[j], _Text) else _text(columns[j])
                chars[w:w + len(text.chars)] = text.chars
                keep[w:w + len(text.chars)] = text.keep
                w += len(text.chars)
        fh.write(chars[:w].reshape(w, -1).T[keep[:w].reshape(w, -1).T])


def write_obj(mesh, path):
    """ASCII OBJ, vertices in full double precision, 1-indexed faces."""
    with open(path, "wb") as fh:
        _write_rows(fh, mesh.vertex_blocks(), b"v ", b" ", b"\n")
        _write_rows(fh, mesh.face_blocks(), b"f ", b" ", b"\n")


def read_obj(path):
    """Vertices and 0-based faces of an OBJ file."""
    with open(path) as fh:
        rows = [line.split() for line in fh]
    vertices = [[float(x) for x in r[1:4]] for r in rows if r[:1] == ["v"]]
    faces = [[int(x.split("/")[0]) - 1 for x in r[1:4]] for r in rows if r[:1] == ["f"]]
    return np.array(vertices), np.array(faces, dtype=int)


def write_csv(mesh, path):
    """CSV sidecar: header s,theta,H_abs,u (CSV_KEYS), then one CRLF-ended
    row per vertex."""
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_KEYS).encode() + b"\r\n")
        _write_rows(fh, mesh.scalar_blocks(), b"", b",", b"\r\n")


def export_mesh(spec, grid, u, obj_path, csv_path, resolution=(64, 64), periods=1):
    """Write the OBJ and CSV sidecar of build_mesh's mesh of the graph u."""
    mesh = build_mesh(spec, grid, u, resolution=resolution, periods=periods)
    for write, path in ((write_obj, obj_path), (write_csv, csv_path)):
        try:
            write(mesh, path)
        except OSError as exc:
            raise OSError(f"mesh export to {path} failed: {exc}") from exc
    return mesh


def report_text(report):
    """Deterministic key = value rendering of a solve report.

    Volatile fields (wall-clock runtime) are excluded on purpose so that
    identical configurations produce byte-identical files.
    """
    keys = ("final_interior_residual", "b_x", "b_y", "norm_v", "zeta", "u0_c_hat")
    lines = ["[report]", f"converged = {str(report.converged).lower()}",
             f"iterations = {report.iterations}",
             *(f"{key} = {getattr(report, key):.17g}" for key in keys),
             f"embed_verdict = {report.embed_verdict}",
             f"self_similarity_defect = {report.self_similarity_defect:.17g}",
             "residual_history = " + ",".join(f"{x:.17g}" for x in report.residual_history)]
    if report.config:
        lines += ["", "[config]", *(f"{key} = {report.config[key]}"
                                    for key in sorted(report.config))]
    return "\n".join(lines) + "\n"
