import csv
import io
import os
import time
import tracemalloc
from dataclasses import MISSING, fields

import numpy as np
import pytest

from spiralforge import bent, numerics, solver, verify
from spiralforge.errors import GraphTooLargeError
from spiralforge.numerics import Grid, lagrange_resample, trig_interpolate
from spiralforge.spirals import SpiralSpec

from conftest import profile, rows_of

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property test skips itself without hypothesis
    given = None


class TestWeightedNorm:
    def test_closed_form_c2(self):
        # u = s^2 + s cos(theta): the s-stencils are exact on quadratics and
        # the theta derivatives on one mode, so the norm is the grid sup of
        # cosh^-0.75 times the sum of the six exact derivative magnitudes
        g = Grid(32.0, 128, 16)
        s, cos, sin = g.s[:, None], np.cos(g.theta)[None, :], np.sin(g.theta)[None, :]
        u = s ** 2 + s * cos
        fields = (u, 2 * s + cos, s * sin, 2.0, s * cos, sin)
        want = np.max(np.cosh(s) ** -0.75 * sum(np.abs(f) for f in fields))
        assert abs(verify.weighted_norm(u, g) - want) <= 1e-12 * want


def whole_grid_self_similarity(spec, g, u):
    """check_self_similarity's formula on whole-grid arrays."""
    s_col, t_row = g.s[:, None], g.theta[None, :]
    t_next = t_row + 2.0 * np.pi
    nu = bent._gauged_normal(spec, s_col, t_row)
    x1 = bent.graph_point(spec, s_col, t_row, u, nu)
    x2 = bent.graph_point(spec, s_col, t_next, u, nu)
    scale, rot = spec.similarity()
    image = scale * np.einsum("ij,...j->...i", rot, x1)
    gauge = np.exp(-spec.lam * g.theta)[:, None]
    return float((np.abs(x2 - image) * gauge).max() / np.abs(x1 * gauge).max())


def whole_mesh(spec, g, u, resolution):
    """build_mesh's first period on whole-mesh arrays: u resampled on the
    whole mesh, then Grid.derivatives of the whole mesh; returns (x, h_abs,
    u)."""
    mesh_grid = Grid(g.ell, resolution[0] - 1, resolution[1])
    s_col, t_row = mesh_grid.s[:, None], mesh_grid.theta[None, :]
    u_mesh = g.resample(u, mesh_grid.s, mesh_grid.theta)
    brackets, normals, ch2 = bent.geometry(spec, s_col, t_row)
    q = bent.graph_q(spec.lam, brackets, normals, ch2, mesh_grid.derivatives(u_mesh))
    x = bent.graph_point(spec, s_col, t_row, u_mesh, normals["nu"])
    return x, np.abs(q) / (np.exp(spec.lam * t_row) * ch2), u_mesh


def mesh_vertices(mesh):
    """The whole (n_vertices, 3) vertex array of a verify.Mesh."""
    return mesh._vertices(slice(None))


def mesh_faces(mesh):
    """The whole (n_faces, 3) array of a verify.Mesh's 0-based faces."""
    ids = mesh._corners(slice(0, len(mesh.s) - 1))
    return np.stack(verify._triangles(ids), axis=-1).reshape(-1, 3)


def mesh_scalars(mesh):
    """The whole CSV_KEYS columns of a verify.Mesh, one value per vertex."""
    shape = (len(mesh.s), len(mesh.scales), len(mesh.theta))
    return {key: np.broadcast_to(column, shape).ravel()
            for key, column in zip(verify.CSV_KEYS, mesh._scalars(slice(None)))}


def read_obj(path):
    """Vertices and 0-based faces of an OBJ file."""
    with open(path) as fh:
        rows = [line.split() for line in fh]
    vertices = [[float(x) for x in r[1:4]] for r in rows if r[:1] == ["v"]]
    faces = [[int(x.split("/")[0]) - 1 for x in r[1:4]] for r in rows if r[:1] == ["f"]]
    return np.array(vertices), np.array(faces, dtype=int)


def _obj_text(vertices, faces):
    """The OBJ text of "%.17g" per coordinate and "%d" per 1-based id."""
    text = "".join(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in vertices)
    text += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces)
    return text.encode()


def _csv_text(scalars):
    """The CSV text of the csv module's rows of "%.17g" per value."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["s", "theta", "H_abs", "u"])
    for row in zip(*(scalars[k] for k in ("s", "theta", "H_abs", "u"))):
        writer.writerow([f"{x:.17g}" for x in row])
    return out.getvalue().encode()


class TestSelfSimilarity:
    def test_bare_surface(self, demo_solve):
        _, ws, _ = demo_solve
        # the graph of the zero state: u0 alone
        defect = verify.check_self_similarity(
            ws.spec, ws.grid, np.zeros((len(ws.grid.s), 32)) + ws.u0.values[:, None])
        assert defect < 1e-12

    def test_solved_surface(self, demo_solve):
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        assert verify.check_self_similarity(ws.spec, ws.grid, u) < 1e-10

    def test_torsion_case(self):
        spec = SpiralSpec.from_invariants(1.0, 0.6, 0.9, 1e-3)
        g = Grid(32.0, 128, 16)
        u0 = profile(spec.lam, g).values
        assert verify.check_self_similarity(spec, g, np.zeros((129, 16)) + u0[:, None]) < 1e-12

    def test_row_blocks_match_the_whole_grid(self, traced_default_solve):
        # the whole-grid audit as a second route: the blocks' maxima give
        # its float exactly, within 3 MiB instead of about 9.6
        _, _, ws, state = traced_default_solve
        u = solver.graph_values(ws, state)
        tracemalloc.start()
        try:
            got = verify.check_self_similarity(ws.spec, ws.grid, u)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 3.0
        assert got == whole_grid_self_similarity(ws.spec, ws.grid, u)

    def test_one_normal_per_block(self, monkeypatch):
        # the gauged normal is 2 pi-periodic in closed form: the audit forms
        # it once per block of rows, for theta and theta + 2 pi alike
        spec = SpiralSpec.from_invariants(1.0, 0.6, 0.9, 1e-3)
        g = Grid(32.0, 128, 16)
        u = np.zeros((129, 16)) + profile(spec.lam, g).values[:, None]
        calls = []
        normal = bent._gauged_normal

        def counted(*args):
            calls.append(args)
            return normal(*args)

        monkeypatch.setattr(numerics, "BLOCK", 16 * 20)
        monkeypatch.setattr(bent, "_gauged_normal", counted)
        assert verify.check_self_similarity(spec, g, u) < 1e-12
        assert len(calls) == len(numerics.row_blocks(129, 16)) == 7

    def test_mis_anchored_control(self, demo_solve):
        # translating the surface breaks the origin-centred similarity: the
        # dilation no longer fixes the right point.  every constant generator
        # produces a Frenet-equivalent frame, so a translation offset is the
        # faithful negative control for a broken normal form.
        _, ws, _ = demo_solve
        spec, g = ws.surface.spec, ws.grid
        s_col, t_row = g.s[:, None], g.theta[None, :]
        u0 = ws.u0.values[:, None] * np.ones((1, g.n_theta))
        nu_next = bent._gauged_normal(spec, s_col, t_row + 2 * np.pi)
        x1 = bent.graph_point(spec, s_col, t_row, u0, ws.surface.normals["nu"])
        x2 = bent.graph_point(spec, s_col, t_row + 2 * np.pi, u0, nu_next)
        offset = np.array([5.0, 0.0, 0.0])
        scale, rot = spec.similarity()
        gauge = np.exp(-spec.lam * g.theta)[None, :, None]
        image = scale * np.einsum("ij,...j->...i", rot, x1 + offset)
        defect = np.abs((x2 + offset) - image) * gauge
        rel = defect.max() / np.abs((x1 + offset) * gauge).max()
        assert rel > 1e-5


class TestTrigInterpolate:
    def test_per_row_angles_are_grid_diagonal(self):
        # an (n, 1) array of angles gives each row its own angle: the result
        # is the diagonal of evaluating every row at every angle
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((40, 16))
        t = rng.uniform(-np.pi, 3 * np.pi, 40)
        per_row = trig_interpolate(rows, t[:, None])
        assert per_row.shape == (40, 1)
        grid_form = trig_interpolate(rows, t)
        assert np.abs(per_row[:, 0] - np.diag(grid_form)).max() < 1e-15


class TestEmbeddedness:
    def test_certified(self, demo_solve):
        report, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        verdict, info = verify.check_embedded(ws.spec, ws.grid, u, report.converged,
                                              n_samples=2000, seed=0)
        assert verdict == "certified"

    def test_sampling_clears_margin(self, demo_solve):
        report, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        verdict, info = verify.check_embedded(ws.spec, ws.grid, u, report.converged,
                                              n_samples=10000, seed=1)
        assert verdict == "certified"
        assert info["min_separation"] > 10 * info["threshold"]

    def test_collision_overrules_the_bound(self, demo_solve, monkeypatch):
        # a margin above the closest far pair of these samples (0.584 in
        # space, just past the 0.589 exclusion in parameters) makes that
        # pair a collision, which overrules the closed-form certificate
        report, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        monkeypatch.setattr(verify, "COLLISION_MARGIN", 0.6)
        verdict, info = verify.check_embedded(ws.spec, ws.grid, u, report.converged,
                                              n_samples=10000, seed=1)
        assert verify.certified(ws.spec, ws.grid.ell, report.converged)
        assert verdict == "not-certified"
        assert 0.58 < info["min_separation"] < info["threshold"]
        assert min(info["pair"]) >= 0

    def test_margin_of_the_sample(self, demo_solve):
        # the audit searches only up to its threshold; the same exact search
        # on the same samples shows the margin beyond it.  No far pair lies
        # within 5 thresholds.  Within 10 lie same-sheet pairs just past the
        # exclusion radius (0.589 in parameters, 0.584 in space), so the
        # margin shows with the exclusion doubled: no other sheet within 10
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        threshold = 0.1 * np.exp(-abs(ws.spec.lam) * 3.0 * np.pi)
        pts, params, exclusion = verify._embed_samples(ws.spec, ws.grid, u, 10000, 1)
        none = (np.inf, (-1, -1))
        assert verify.sampled_min_separation(
            pts, params, exclusion, radius=5 * threshold) == none
        assert verify.sampled_min_separation(
            pts, params, 2 * exclusion, radius=10 * threshold) == none

    def test_memory_bounded(self, demo_solve):
        # the samples are resampled a block at a time: 18.2 MiB when all
        # 10000 gathered their six grid rows of 32 values at once
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        tracemalloc.start()
        try:
            verify.check_embedded(ws.spec, ws.grid, u, True, n_samples=10000)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 5.0

    @pytest.mark.parametrize("block", [None, 7, 100], ids=["default", "block7", "block100"])
    def test_sample_blocks_match_all_at_once(self, demo_solve, monkeypatch, block):
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)
        pts, params, _ = verify._embed_samples(ws.spec, ws.grid, u, 1000, 3)
        g, (s, t) = ws.grid, params.T
        rows = numerics.lagrange_resample(g.s, u, s)
        u_vals = trig_interpolate(rows, t[:, None])[:, 0]
        want = bent.graph_point(ws.spec, s, t, u_vals, bent._gauged_normal(ws.spec, s, t))
        assert np.array_equal(pts, want)

    def test_beyond_bound_sampled_ok(self):
        # small growth rate: the certified bound drops below ell = 32, but
        # the surface is still embedded and sampling confirms it
        from spiralforge.tube import max_embed_ell
        spec = SpiralSpec.from_invariants(1.0, 0.0, 0.02, 1e-3)
        assert max_embed_ell(spec) < 32.0
        report, ws, state = solver.solve_minimal(spec, 32.0, n_s=128,
                                                 n_theta=16, tol=1e-9)
        u = solver.graph_values(ws, state)
        verdict, info = verify.check_embedded(ws.spec, ws.grid, u, report.converged,
                                              n_samples=4000, seed=2)
        assert verdict == "sampled-ok"

    def test_xi_zero_has_no_bound(self):
        # the closed-form bound is undefined at xi = 0: the solve is never
        # certified and the audit falls through to sampling
        spec = SpiralSpec.from_invariants(1.0, 0.0, 0.0, 1e-3)
        assert np.isnan(verify.embed_bound(spec))
        report, ws, state = solver.solve_minimal(spec, 32.0, n_s=128,
                                                 n_theta=8, tol=1e-9)
        assert report.embed_verdict == "not-certified"
        u = solver.graph_values(ws, state)
        verdict, info = verify.check_embedded(ws.spec, ws.grid, u, report.converged,
                                              n_samples=4000, seed=2)
        assert np.isnan(info["ell_bound"])
        assert verdict == "sampled-ok"

    def test_figure_eight_flagged(self):
        # lemniscate cylinder: genuine crossings at t = pi/2 and 3 pi/2; the
        # parameter window is trimmed away from the wrap seam
        rng = np.random.default_rng(3)
        t = rng.uniform(0.15, 2 * np.pi - 0.15, 4000)
        z = rng.uniform(0.0, 1.0, 4000)
        denom = 1.0 + np.sin(t) ** 2
        pts = np.column_stack([np.cos(t) / denom,
                               np.sin(t) * np.cos(t) / denom, z])
        md, pair = verify.sampled_min_separation(
            pts, np.column_stack([t, z]), exclusion=0.5, radius=0.1)
        assert md < 0.02
        t1, t2 = t[pair[0]], t[pair[1]]
        assert abs(abs(t1 - t2) - np.pi) < 0.5  # the two crossing branches

    def test_plain_cylinder_clears(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(0.15, 2 * np.pi - 0.15, 3000)
        z = rng.uniform(0.0, 1.0, 3000)
        pts = np.column_stack([np.cos(t), np.sin(t), z])
        md, _ = verify.sampled_min_separation(
            pts, np.column_stack([t, z]), exclusion=0.5, radius=0.1)
        assert md > 0.1


class TestExport:
    def test_vertex_count_and_roundtrip(self, demo_solve, tmp_path):
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        mesh = verify.export_mesh(ws.spec, ws.grid, u, tmp_path / "m.obj",
                                  tmp_path / "m.csv", resolution=(64, 64))
        assert mesh_vertices(mesh).shape == (4096, 3)
        assert mesh_faces(mesh).shape == (2 * 63 * 63, 3)
        v2, f2 = read_obj(tmp_path / "m.obj")
        assert np.array_equal(v2, mesh_vertices(mesh))
        assert np.array_equal(f2, mesh_faces(mesh))
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == "s,theta,H_abs,u"

    def test_faces_in_range(self, demo_solve):
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        mesh = verify.build_mesh(ws.spec, ws.grid, u, resolution=(16, 16))
        assert mesh_faces(mesh).min() == 0
        assert mesh_faces(mesh).max() == len(mesh_vertices(mesh)) - 1

    def test_strip_topology_watertight_except_boundary(self, demo_solve):
        # every interior edge is shared by exactly two consistently oriented
        # triangles; boundary edges by exactly one
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        mesh = verify.build_mesh(ws.spec, ws.grid, u, resolution=(12, 12))
        from collections import Counter
        directed = Counter()
        for a, b, c in mesh_faces(mesh):
            for e in ((a, b), (b, c), (c, a)):
                directed[e] += 1
        # consistent orientation: no directed edge repeats
        assert max(directed.values()) == 1
        undirected = Counter(tuple(sorted(e)) for e in directed)
        counts = Counter(undirected.values())
        assert set(counts) == {1, 2}

    def test_h_column_matches_q(self, demo_solve):
        # at solver resolution the resampling is exact, so the CSV curvature
        # column must reproduce q / (e^{lam theta} cosh^2) computed by the
        # bent-surface machinery
        _, ws, state = demo_solve
        g = ws.grid
        u = solver.graph_values(ws, state)
        mesh = verify.build_mesh(ws.spec, ws.grid, u, resolution=(len(g.s), g.n_theta))
        q = ws.surface.q_operator(rows_of(g.derivatives(u)))
        want = np.abs(q) / (np.exp(ws.spec.lam * g.theta)[None, :]
                            * np.cosh(g.s)[:, None] ** 2)
        got = mesh_scalars(mesh)["H_abs"].reshape(len(g.s), g.n_theta)
        assert np.abs(got - want).max() < 1e-12

    def test_many_periods_build_at_once(self):
        # every period's map comes from one closed-form similarity call:
        # 100,000 periods of a 6x6 mesh build in well under a second
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 1e-3)
        g = Grid(32.0, 64, 8)
        u = np.zeros((65, 8)) + profile(spec.lam, g).values[:, None]
        start = time.process_time()
        mesh = verify.build_mesh(spec, g, u, (6, 6), periods=100_000)
        assert time.process_time() - start < 1.0
        assert mesh.scales.shape == (100_000,) and mesh.rots.shape == (100_000, 3, 3)
        assert mesh.n_cols == 600_000

    @pytest.mark.parametrize("xi", [1.0, -1.0])
    def test_similarity_factor_overflow_raises(self, xi):
        # exp(2 pi delta xi (periods - 1)) or its inverse leaves the double
        # range past 112,966 periods at delta = 1e-3, |xi| = 1
        spec = SpiralSpec.from_invariants(1.0, 0.0, xi, 1e-3)
        g = Grid(32.0, 64, 8)
        u = np.zeros((65, 8)) + profile(spec.lam, g).values[:, None]
        verify.build_mesh(spec, g, u, (6, 6), periods=112_966)
        with pytest.raises(OverflowError, match="periods = 112968"):
            verify.build_mesh(spec, g, u, (6, 6), periods=112_968)

    def test_too_large_graph_rejected(self):
        # the flat rig of the solver's aspect guard test: offsetting by the
        # focal distance cosh^2 of a mesh row degenerates that row of the mesh
        flat = SpiralSpec(np.zeros((3, 3)), 1e-3, 0.0, allow_trivial=True)
        grid = Grid(32.0, 128, 16)
        s_mesh = np.linspace(-grid.s_max, grid.s_max, 33)
        u = np.full((129, 16), np.cosh(s_mesh[4]) ** 2)
        with pytest.raises(GraphTooLargeError):
            verify.build_mesh(flat, grid, u, (33, 16))

    def test_two_period_similarity(self, demo_solve):
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        mesh = verify.build_mesh(ws.spec, ws.grid, u, resolution=(24, 24), periods=2)
        pts = mesh_vertices(mesh).reshape(24, 48, 3)
        scale, rot = ws.spec.similarity()
        image = scale * np.einsum("ij,...j->...i", rot, pts[:, :24, :])
        rel = np.abs(pts[:, 24:, :] - image).max() / np.abs(pts).max()
        assert rel < 1e-9

    @pytest.mark.parametrize("block", [None, 7, 60], ids=["default", "block7", "block60"])
    def test_matches_per_row_writers(self, demo_solve, tmp_path, monkeypatch, block):
        # the vectorized faces and block-wise writers against the plain loops
        # they replace; a block of 7 points splits the 12x12 two-period mesh
        # into one mesh row per block and the writers into many blocks with a
        # partial last one, a block of 60 into mesh rows 5 + 5 + 2
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        whole = verify.build_mesh(ws.spec, ws.grid, u, resolution=(12, 12), periods=2)
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)
        mesh = verify.build_mesh(ws.spec, ws.grid, u, resolution=(12, 12), periods=2)
        assert np.array_equal(mesh_vertices(mesh), mesh_vertices(whole))
        assert np.array_equal(mesh_faces(mesh), mesh_faces(whole))
        for key, values in mesh_scalars(whole).items():
            assert np.array_equal(mesh_scalars(mesh)[key], values)
        n_cols = 24
        faces = []
        for i in range(11):
            for j in range(n_cols - 1):
                a, b = i * n_cols + j, (i + 1) * n_cols + j
                faces += [(a, b, b + 1), (a, b + 1, a + 1)]
        assert np.array_equal(mesh_faces(mesh), np.array(faces))
        verify.write_obj(mesh, tmp_path / "m.obj")
        verify.write_csv(mesh, tmp_path / "m.csv")
        assert ((tmp_path / "m.obj").read_bytes()
                == _obj_text(mesh_vertices(mesh), mesh_faces(mesh)))
        assert (tmp_path / "m.csv").read_bytes() == _csv_text(mesh_scalars(mesh))

    def test_memory_bounded(self, demo_solve, tmp_path):
        # block-wise export: the writers' working memory stays at one block
        # and the mesh build holds no whole-mesh normal bundle
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)

        def peak_mb(fn, *args):
            tracemalloc.start()
            try:
                result = fn(*args)
                return tracemalloc.get_traced_memory()[1] / 2 ** 20, result
            finally:
                tracemalloc.stop()

        _, mesh = peak_mb(verify.build_mesh, ws.spec, ws.grid, u, (128, 128), 2)
        assert peak_mb(verify.write_obj, mesh, tmp_path / "m.obj")[0] < 4.0
        assert peak_mb(verify.write_csv, mesh, tmp_path / "m.csv")[0] < 4.0
        del mesh
        assert peak_mb(verify.build_mesh, ws.spec, ws.grid, u, (256, 256), 2)[0] < 35.0

    @pytest.mark.parametrize("block", [None, 7, 60], ids=["default", "block7", "block60"])
    def test_halo_build_matches_the_whole_mesh(self, demo_solve, monkeypatch, block):
        # meshes coarser than the 257-row solve grid (whose stencils skip
        # solve rows), finer than it, odd, and the smallest the stencils
        # allow; blocks of 7 and 60 points cut them into one or a few mesh
        # rows, so most blocks' halos are cut by the rim
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)
        for resolution in ((6, 6), (13, 11), (64, 16), (300, 17)):
            mesh = verify.build_mesh(ws.spec, ws.grid, u, resolution)
            x, h_abs, u_mesh = whole_mesh(ws.spec, ws.grid, u, resolution)
            assert np.array_equal(mesh.x, x)
            assert np.array_equal(mesh.h_abs, h_abs)
            assert np.array_equal(mesh.u, u_mesh)

    def test_resample_moves_the_old_mesh_values_by_roundoff(self, demo_solve):
        # the mesh's u was the trigonometric interpolant first, then Lagrange
        # in s; Grid.resample takes them the other way round, which moves a
        # 256^2 mesh's u by 7.5e-16 max|u|
        _, ws, state = demo_solve
        g, u = ws.grid, solver.graph_values(ws, state)
        mesh_grid = Grid(g.ell, 255, 256)
        old = lagrange_resample(g.s, trig_interpolate(u, mesh_grid.theta), mesh_grid.s)
        new = g.resample(u, mesh_grid.s, mesh_grid.theta)
        assert np.abs(new - old).max() <= 2e-15 * np.abs(u).max()

    def test_build_memory_bounded(self, demo_solve):
        # the halo build forms no whole-mesh derivative bundle (9.8 MiB when
        # it did); its one whole-period resample is the u the mesh keeps
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        tracemalloc.start()
        try:
            verify.build_mesh(ws.spec, ws.grid, u, (256, 256), 2)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 8.0

    def test_export_memory_does_not_grow_with_the_mesh(self, demo_solve, tmp_path):
        # the mesh keeps one period; the writers form the later periods, the
        # s/theta columns and the faces a block of mesh rows at a time
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)

        def peak_mb(resolution, periods):
            tracemalloc.start()
            try:
                verify.export_mesh(ws.spec, ws.grid, u, tmp_path / "m.obj",
                                   tmp_path / "m.csv", resolution, periods)
                return tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()

        assert peak_mb((256, 256), 2) < 12.0
        assert peak_mb((128, 128), 4) < peak_mb((128, 128), 1) + 2.0

    @pytest.mark.parametrize("block", [None, 7, 60], ids=["default", "block7", "block60"])
    def test_lazy_rows_match_materialized_mesh(self, demo_solve, tmp_path, monkeypatch,
                                               block):
        # three periods of an odd 13x11 mesh: blocks of 7 and 60 points split
        # the 33-vertex mesh rows and leave a partial last block; the files
        # are the per-value text of the whole arrays of mesh_vertices, mesh_faces
        # and mesh_scalars
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)
        mesh = verify.export_mesh(ws.spec, ws.grid, u, tmp_path / "lazy.obj",
                                  tmp_path / "lazy.csv", (13, 11), 3)
        assert mesh_vertices(mesh).shape == (13 * 33, 3)
        assert mesh_faces(mesh).shape == (2 * 12 * 32, 3)
        assert ((tmp_path / "lazy.obj").read_bytes()
                == _obj_text(mesh_vertices(mesh), mesh_faces(mesh)))
        assert (tmp_path / "lazy.csv").read_bytes() == _csv_text(mesh_scalars(mesh))

    def test_io_failure_surfaces_path(self, demo_solve, tmp_path):
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        bad = os.path.join("definitely", "missing", "dir", "m.obj")
        with pytest.raises(OSError) as err:
            verify.export_mesh(ws.spec, ws.grid, u, bad, tmp_path / "m.csv",
                               resolution=(8, 8))
        assert "m.obj" in str(err.value)

    def test_io_failure_names_the_csv(self, demo_solve, tmp_path):
        # the OBJ is written; the error names the CSV whose write failed
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        bad = tmp_path / "missing" / "m.csv"
        with pytest.raises(OSError) as err:
            verify.export_mesh(ws.spec, ws.grid, u, tmp_path / "m.obj", bad,
                               resolution=(8, 8))
        assert f"mesh export to {bad} failed" in str(err.value)
        assert "m.obj" not in str(err.value)
        assert (tmp_path / "m.obj").stat().st_size > 0

    @pytest.mark.parametrize("block", [None, 7, 60], ids=["default", "block7", "block60"])
    def test_awkward_values_match_per_row_writers(self, tmp_path, monkeypatch, block):
        # signed zeros, nan, infinities, a subnormal, 1e300 and negative
        # values among ordinary ones: the per-value fallback and the special
        # layouts land inside blocks of 7 and 60 rows, and next to rows of
        # every %g form.  The block writer gets the columns of each block of
        # rows, as the writers hand it a mesh's
        rng = np.random.default_rng(5)
        n = 70
        values = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-8, 20, (n, 7))
        awkward = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300,
                   -1e300, -1.0, -0.001, 1e16, 1e17, 0.5]
        for i, v in enumerate(awkward):
            values.flat[(i * 37) % values.size] = v
        faces = rng.integers(0, n, (2 * n, 3))
        faces[0] = [0, 9, 99]
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)

        def blocks(columns):
            return ([verify._text(c[sl]) for c in columns]
                    for sl in numerics.row_blocks(len(columns[0]), 1))

        obj, sidecar = io.BytesIO(), io.BytesIO()
        sidecar.write(b"s,theta,H_abs,u\r\n")
        verify._write_rows(obj, blocks(values[:, :3].T), b"v ", b" ", b"\n")
        verify._write_rows(obj, blocks((faces + 1).T), b"f ", b" ", b"\n")
        verify._write_rows(sidecar, blocks(values[:, 3:].T), b"", b",", b"\r\n")
        assert obj.getvalue() == _obj_text(values[:, :3], faces)
        assert sidecar.getvalue() == _csv_text(
            dict(zip(("s", "theta", "H_abs", "u"), values[:, 3:].T)))

    @pytest.mark.parametrize("block", [None, 7], ids=["default", "block7"])
    def test_each_distinct_value_formatted_once(self, demo_solve, tmp_path, monkeypatch,
                                                block):
        # the writers format s once per mesh row, theta once per column, u
        # once per vertex of the first period, |H| once per vertex, and each
        # face corner once per block of cell rows it bounds
        _, ws, state = demo_solve
        u = solver.graph_values(ws, state)
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)
        n_s, n_theta, periods = 13, 11, 3
        n_cols = periods * n_theta
        mesh = verify.build_mesh(ws.spec, ws.grid, u, (n_s, n_theta), periods)
        counts = {}

        def counted(name):
            field = getattr(verify, name)

            def count(values, chars):
                counts[name] += len(values)
                return field(values, chars)
            return count

        def formatted(write, path):
            counts.update(_float_field=0, _int_field=0)
            write(mesh, path)
            return counts["_float_field"], counts["_int_field"]

        for name in ("_float_field", "_int_field"):
            monkeypatch.setattr(verify, name, counted(name))
        floats, ints = formatted(verify.write_csv, tmp_path / "m.csv")
        assert ints == 0
        assert floats == n_s + n_cols + n_s * n_theta * (periods + 1)
        floats, ints = formatted(verify.write_obj, tmp_path / "m.obj")
        assert floats == 3 * n_s * n_cols
        cell_blocks = numerics.row_blocks(n_s - 1, 2 * n_cols)
        corner_rows = sum(len(range(n_s)[sl.start:sl.stop + 1]) for sl in cell_blocks)
        assert ints <= corner_rows * n_cols

    def test_broadcast_columns_match_materialized(self):
        # columns that broadcast against each other, holding values that take
        # the per-value fallback (which widens a field), the special layouts
        # and every %g form, write the bytes of the same columns materialized
        # as one block of 1-D columns, and those of "%.17g" per value
        rng = np.random.default_rng(11)
        awkward = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300,
                   1125899906842624.25, 0.0]
        forms = [1.2345e-5, -1e-4, 0.5, 1.0, -12.5, 123456789.0, 1e16,
                 1.2345678901234567e16, 1e17, -3.75e22, 1.25e-300]
        pool = np.array(awkward + forms)
        rows, periods, n_theta = len(pool), 2, 5
        columns = [pool[:, None, None],
                   rng.permutation(pool)[:periods * n_theta].reshape(1, periods, n_theta),
                   (rng.standard_normal((rows, periods, n_theta))
                    * 10.0 ** rng.integers(-8, 20, (rows, periods, n_theta))),
                   rng.choice(pool, (rows, 1, n_theta))]
        columns[2].flat[::7] = rng.permutation(pool)[:len(columns[2].flat[::7])]
        shape = (rows, periods, n_theta)
        full = np.column_stack([np.broadcast_to(c, shape).ravel() for c in columns])
        broadcast, materialized = io.BytesIO(), io.BytesIO()
        verify._write_rows(broadcast, [list(map(verify._text, columns))], b"", b",", b"\r\n")
        verify._write_rows(materialized, [list(map(verify._text, full.T))], b"", b",",
                           b"\r\n")
        assert broadcast.getvalue() == materialized.getvalue()
        want = "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in full.tolist())
        assert broadcast.getvalue() == want.encode()


def _text_lines(values):
    """The writers' text of each value, one value per row."""
    values = np.asarray(values)
    fh = io.BytesIO()
    blocks = ([verify._text(values[sl])] for sl in numerics.row_blocks(len(values), 1))
    verify._write_rows(fh, blocks, b"", b"", b"\n")
    return fh.getvalue().decode().split("\n")[:-1]


class TestNumberText:
    """The writers' number formatter against Python's "%.17g" and "%d"."""

    EDGES = [
        1e16, 1e17, 1e22, 9.999999999999999e22, 1e23,
        # doubles below a power of ten whose 17-digit rounding carries into
        # the next decade
        1e-79, 1e-176, 1e-243,
        np.nextafter(1e-4, 0), np.nextafter(1e17, 0), np.nextafter(1.0, 0),
        # %g's switch points: exponents -5/-4 and 16/17
        1e-5, 1.2345e-5, 1e-4, 1.2345e-4, 1.2345678901234567e16, 1.2345678901234567e17,
        # exact ties at the 17th digit (round half to even)
        1125899906842624.25, 1125899906842624.75, 2.0 ** 53 + 2.0, 0.1, 1 / 3,
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-280, 1e280, 1.0000000000000001e-281, 1e281, 0.0, -0.0,
        np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.5, 123456789.0, 0.5,
    ]

    def test_edge_values(self):
        values = [sign * v for v in self.EDGES for sign in (1.0, -1.0)]
        assert _text_lines(values) == ["%.17g" % v for v in values]

    def test_random_bit_patterns(self):
        values = np.random.default_rng(0).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10 ** 5,
            dtype=np.int64, endpoint=True).view(np.float64)
        assert _text_lines(values) == ["%.17g" % v for v in values.tolist()]

    def test_powers_of_ten_and_neighbours(self):
        # log10 misses by one next to a power of ten
        p = 10.0 ** np.arange(-300, 301)
        values = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        assert _text_lines(values) == ["%.17g" % v for v in values.tolist()]

    @pytest.mark.skipif(given is None, reason="needs hypothesis")
    def test_hypothesis_floats(self):
        @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                  allow_subnormal=True), min_size=1, max_size=40))
        def check(values):
            assert _text_lines(values) == ["%.17g" % v for v in values]

        check()

    def test_integers(self, demo_solve):
        _, ws, state = demo_solve
        mesh = verify.build_mesh(ws.spec, ws.grid, solver.graph_values(ws, state), (16, 16))
        largest = int(mesh_faces(mesh).max()) + 1
        values = np.array([1, 9, 10, 99, 100, largest, 10 ** 17 - 1,
                           np.iinfo(np.int64).max], dtype=np.int64)
        assert _text_lines(values) == ["%d" % v for v in values.tolist()]


class TestReportText:
    def test_deterministic_and_excludes_runtime(self, demo_solve):
        report, _, _ = demo_solve
        report.config = {"ell": 32.0, "delta": 1e-3}
        a = verify.report_text(report)
        report.runtime = 123.456
        b = verify.report_text(report)
        assert a == b
        assert "runtime" not in a
        assert "final_interior_residual" in a


def test_solve_report_counts_follow_the_history(demo_solve):
    report, _, _ = demo_solve
    assert report.final_interior_residual == report.residual_history[-1]
    assert report.iterations == len(report.residual_history) - 1
    with pytest.raises(AttributeError):
        report.iterations = 0
    with pytest.raises(AttributeError):
        report.final_interior_residual = 0.0


def test_solve_report_fields_are_required():
    # solve_minimal sets every field; no default can certify a report for it
    optional = [f.name for f in fields(verify.SolveReport)
                if f.default is not MISSING or f.default_factory is not MISSING]
    assert optional == ["config"]
