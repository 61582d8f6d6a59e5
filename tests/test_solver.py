import gc
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spiralforge import bent, numerics, solver
from spiralforge.errors import RejectedParametersError
from spiralforge.helicoid import StabilityModes, kernel_fn, substitute
from spiralforge.numerics import BandedLU, Grid
from spiralforge.spirals import SpiralSpec

from conftest import apply_operator


@pytest.fixture(scope="module")
def ws(demo_spec):
    return solver.Workspace(demo_spec, 32.0, 256, 32)


def smooth_rhs(grid, seed=3):
    rng = np.random.default_rng(seed)
    s_col, t_row = grid.s[:, None], grid.theta[None, :]
    bump = (1 - (s_col / grid.s_max) ** 2) ** 2
    return bump * (np.tanh(s_col) + np.cos(t_row) * np.exp(-s_col ** 2)
                   + 0.3 * np.sin(2 * t_row) / np.cosh(s_col)
                   + 0.2 * np.sin(t_row) * np.tanh(s_col)
                   + 0.1 * np.cos(5 * t_row))


@pytest.mark.parametrize("n_s, n_theta, match", [
    (255, 32, "n_s must be even"), (256, 31, "n_theta must be even")])
def test_workspace_rejects_odd_grids(demo_spec, n_s, n_theta, match):
    with pytest.raises(ValueError, match=match):
        solver.Workspace(demo_spec, 32.0, n_s, n_theta)


def _band_of(dense, kl, ku):
    """dense in LAPACK's band layout, ab[ku + i - j, j] = dense[i, j]."""
    n = len(dense)
    ab = np.zeros((kl + ku + 1, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            ab[ku + i - j, j] = dense[i, j]
    return ab


def test_band_storage_layout():
    # each mode's band is d2 + 2 sech^2 s - m^2 with identity rows at the rim
    for n_s, m in [(8, 0), (8, 2), (64, 0), (64, 2)]:
        g = Grid(32.0, n_s, 8)
        modes = StabilityModes(g, 2)
        assert (modes.kl, modes.ku) == (4, 4)
        dense = g.d2 @ np.eye(n_s + 1) + np.diag(modes.potential) - m * m * np.eye(n_s + 1)
        dense[[0, -1]] = np.eye(n_s + 1)[[0, -1]]
        i, j = np.indices(dense.shape)
        assert not np.any(dense[(i - j > 4) | (j - i > 4)])
        assert np.array_equal(modes.band(m), _band_of(dense, 4, 4))


def test_banded_lu_matches_dense():
    rng = np.random.default_rng(1)
    dense = np.triu(np.tril(rng.standard_normal((9, 9)), 2), -1) + 4 * np.eye(9)
    lu = BandedLU(_band_of(dense, 1, 2), 1, 2)
    rhs = rng.standard_normal((9, 2))
    assert np.abs(lu.solve(rhs) - np.linalg.solve(dense, rhs)).max() < 1e-13
    assert np.abs(lu.solve(rhs[:, 0], trans=1)
                  - np.linalg.solve(dense.T, rhs[:, 0])).max() < 1e-13


def test_lapack_is_scipys_and_scipy_linalg_still_imports():
    # numerics loads scipy's compiled LAPACK wrappers without scipy.linalg's
    # package, so a solve loads no other scipy module; a later import of
    # scipy.linalg must reuse the wrappers and work
    code = """
import sys, tempfile
import numpy as np
from spiralforge import cli, numerics
from spiralforge.helicoid import StabilityModes
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["solve", "--ns", "128", "--ntheta", "8", "--mesh-resolution", "16",
                     "--out", out]) == 0
modes = StabilityModes(numerics.Grid(32.0, 64, 8), 3)
rhs = np.random.default_rng(0).standard_normal(65)
x = modes.lu[3].solve(rhs)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
import scipy.linalg
from scipy.linalg import lapack
print(numerics.dgbtrf._cpointer == lapack.dgbtrf._cpointer,
      numerics.dgbtrs._cpointer == lapack.dgbtrs._cpointer)
want = scipy.linalg.solve_banded((modes.kl, modes.ku), modes.band(3), rhs)
print(float(np.abs(x - want).max() / np.abs(want).max()))
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded, same, err = r.stdout.strip().splitlines()[-3:]
    assert loaded == "['scipy.linalg._flapack']"
    assert same == "True True"
    assert float(err) < 1e-13


class TestInvertMean:
    def test_zero(self):
        g = Grid(32.0, 128, 16)
        assert np.abs(solver.invert_mean(np.zeros(129), g)).max() == 0.0

    def test_odd_grid_rejected(self):
        # s = 0 is a grid point only for even n_s
        g = Grid(32.0, 127, 16)
        with pytest.raises(ValueError, match="n_s must be even"):
            solver.invert_mean(np.zeros(128), g)

    def test_closed_form_case(self):
        # v'' + 2 sech^2 v = 2 s sech^2 with v(0) = v'(0) = 0 is s - tanh(s)
        g = Grid(32.0, 512, 16)
        e = 2 * g.s / np.cosh(g.s) ** 2
        v = solver.invert_mean(e, g)
        assert np.abs(v - (g.s - np.tanh(g.s))).max() < 1e-7

    def test_operator_roundtrip_second_order(self):
        # manufactured solution: smoothly damped s^2 (vanishing to second
        # order at 0, like the inverse's normalization); the quadrature
        # inverse reproduces the input under the discrete operator within
        # O(h^2)
        errs = []
        for n_s in (256, 512):
            g = Grid(32.0, n_s, 16)
            phi = g.s ** 2 * np.exp(-(g.s / 2.5) ** 4)
            e_bar = g.d2 @ phi + 2 * phi / np.cosh(g.s) ** 2
            v = solver.invert_mean(e_bar, g)
            resid = g.d2 @ v + 2 * v / np.cosh(g.s) ** 2 - e_bar
            errs.append(np.abs(resid[1:-1]).max())
        assert errs[0] < 5e-4
        assert errs[1] < max(errs[0] / 3.0, 1e-12)

    def test_matrix_solve_matches_quadrature(self, ws):
        g = ws.grid
        e = np.exp(-g.s ** 2) * np.sin(g.s) + 0.4 / np.cosh(g.s)
        v_quad = solver.invert_mean(e, g)
        v_mat = ws.modes.solve_mean(e)
        assert np.abs(v_quad - v_mat).max() < 1e-6
        # the discrete system it solves: interior collocation and the two pins
        i0 = g.i_zero
        resid = g.d2 @ v_mat + ws.modes.potential * v_mat - e
        assert np.abs(resid[1:-1]).max() < 1e-10 * np.abs(e).max()
        assert abs(v_mat[i0]) < 1e-14 and abs((g.d1 @ v_mat)[i0]) < 1e-12

    def test_stability_apply_roundtrip(self):
        # the public second-order operator applied to the inverse's output
        # reproduces the input at its own discretization order
        from spiralforge.helicoid import stability_apply
        g = Grid(32.0, 1024, 8)
        e = 2 * g.s / np.cosh(g.s) ** 2
        v = solver.invert_mean(e, g)
        got = stability_apply(np.broadcast_to(v[:, None], (len(g.s), 8)).copy(), g.s)
        assert np.abs(got[1:-1, 0] - e[1:-1]).max() < 1e-4


class TestOrthogonalize:
    """The kernel projection on mode 1 inside linear_solve."""

    def test_substitute_image_extracts_unit(self, ws):
        _, bx, by = solver.linear_solve(ws, ws.w_x)
        assert abs(bx - 1.0) < 1e-12
        assert abs(by) < 1e-12
        w_y = np.multiply(*ws.substitutes[1][1])
        e_perp = ws.w_x - bx * ws.w_x - by * w_y
        assert np.abs(e_perp).max() < 1e-12

    def test_linear_combination(self, ws):
        w_y = np.multiply(*ws.substitutes[1][1])
        e = 3.0 * ws.w_x - 2.0 * w_y
        _, bx, by = solver.linear_solve(ws, e)
        assert abs(bx - 3.0) < 1e-10
        assert abs(by + 2.0) < 1e-10

    def test_projections_vanish(self, ws):
        # an independent oracle in physical space: what remains after the
        # substitute images are removed pairs to zero with the discrete
        # kernel the solve needs; the pairing against the continuum profile
        # differs by the quadrature of the substitute image's cutoff band,
        # which is not a small quantity
        g = ws.grid
        e = smooth_rhs(g)
        _, bx, by = solver.linear_solve(ws, e)
        e_perp = e - bx * ws.w_x - by * np.multiply(*ws.substitutes[1][1])
        for trig in (np.cos, np.sin):
            kernel = ws.kernel_profile[:, None] * trig(g.theta)[None, :]
            assert abs(ws.inner_flat(e_perp, kernel)) < 1e-10

    def test_already_orthogonal(self, ws):
        g = ws.grid
        e = np.cos(2 * g.theta)[None, :] / np.cosh(g.s)[:, None]
        _, bx, by = solver.linear_solve(ws, e)
        assert abs(bx) < 1e-13 and abs(by) < 1e-13


class TestLinearSolve:
    def test_defining_identity(self, ws):
        e = smooth_rhs(ws.grid)
        v, bx, by = solver.linear_solve(ws, e)
        w_y = np.multiply(*ws.substitutes[1][1])
        resid = apply_operator(ws, v) - (e - bx * ws.w_x - by * w_y)
        assert np.abs(resid[1:-1, :]).max() < 1e-6

    def test_linearity(self, ws):
        e = smooth_rhs(ws.grid)
        v1, b1x, b1y = solver.linear_solve(ws, e)
        v2, b2x, b2y = solver.linear_solve(ws, 2.0 * e)
        assert np.abs(v2 - 2 * v1).max() < 1e-12
        assert abs(b2x - 2 * b1x) < 1e-12
        assert abs(b2y - 2 * b1y) < 1e-12

    def test_substitute_rhs_gives_no_v(self, ws):
        w_y = np.multiply(*ws.substitutes[1][1])
        for image, want in ((ws.w_x, (1.0, 0.0)), (w_y, (0.0, 1.0))):
            v, bx, by = solver.linear_solve(ws, image)
            assert abs(bx - want[0]) < 1e-12
            assert abs(by - want[1]) < 1e-12
            assert np.abs(v - v[:, :1]).max() < 1e-10  # only a mean-mode remnant
            assert np.abs(v).max() < 1e-10

    def test_zero(self, ws):
        v, bx, by = solver.linear_solve(ws, np.zeros((257, 32)))
        assert np.abs(v).max() == 0.0
        assert bx == 0.0 and by == 0.0

    def test_manufactured_roundtrip(self, ws):
        # start from a smooth periodic u with zero mean and zero boundary
        # values, push it through the discrete operator and invert: up to
        # kernel content the result reproduces u
        g = ws.grid
        u = (1 - (g.s[:, None] / g.s_max) ** 2) ** 2 * (
            np.cos(2 * g.theta)[None, :] * np.exp(-g.s[:, None] ** 2))
        e = apply_operator(ws, u)
        v, _, _ = solver.linear_solve(ws, e)
        resid = apply_operator(ws, v) - e
        assert np.abs(resid[1:-1, :]).max() < 1e-9


class TestPsiStep:
    def test_contraction_and_idempotence(self, demo_solve):
        report, ws, state = demo_solve
        hist = report.residual_history
        # monotone decrease of the residual after the first correction
        assert hist[2] < hist[1] < hist[0]
        new, _, update = solver.psi_step(ws, state)
        assert update < 1e-9

    def test_gauge_projection_removes_kernel(self, ws):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((257, 32))
        v_fixed = ws.fix_gauge(v)
        assert abs(ws.inner_flat(v_fixed, ws.gauge("x"))) < 1e-12
        assert abs(ws.inner_flat(v_fixed, ws.gauge("y"))) < 1e-12

    def test_solves_leave_their_arguments_unchanged(self, ws):
        # the step works in place on its own arrays only: linear_solve and
        # fix_gauge take e and v as they are, so a caller may reuse them
        # (acceptance criterion 8 solves e, then 2 e)
        e = smooth_rhs(ws.grid)
        kept = e.copy()
        v1, b1x, b1y = solver.linear_solve(ws, e)
        assert np.array_equal(e, kept)
        v2, b2x, b2y = solver.linear_solve(ws, e)
        assert np.array_equal(v1, v2) and (b1x, b1y) == (b2x, b2y)
        v = np.random.default_rng(2).standard_normal(e.shape)
        kept = v.copy()
        assert not np.array_equal(ws.fix_gauge(v), kept)
        assert np.array_equal(v, kept)
        # and a step leaves the incoming state's v as it is
        state = solver.SolverState(1e-3 * v, 0.1, -0.1)
        solver.psi_step(ws, state)
        assert np.array_equal(state.v, 1e-3 * kept)

    def test_nan_in_q_stops_the_iteration(self, ws, monkeypatch):
        # a nan anywhere in Q's interior rows is the interior residual, and
        # the update it spreads to stops iterate at its stall test
        q_operator = ws.surface.q_operator

        def q_with_nan(bundle):
            q = q_operator(bundle)
            q[ws.grid.i_zero, 3] = np.nan
            return q
        monkeypatch.setattr(ws.surface, "q_operator", q_with_nan)
        state = solver.SolverState(np.zeros((257, 32)), 0.0, 0.0)
        assert np.isnan(solver._residual(ws, state, ws.psi[:, None] * state.v)[1])
        _, history, converged = numerics.iterate(
            lambda x: solver.psi_step(ws, x), state,
            lambda x: solver._residual(ws, x, ws.psi[:, None] * x.v)[1], 1e-9, 50)
        assert len(history) == 2 and np.isnan(history).all()
        assert not converged

    def test_gauges_are_the_unit_kernel_fields(self, ws):
        # formed afresh from kernel_fn and the norms set-up computed
        g = ws.grid
        for which in "xy":
            kappa = kernel_fn(which, g.s[:, None], g.theta[None, :])
            gauge = ws.gauge(which)
            assert np.array_equal(gauge, kappa / np.sqrt(ws.inner_flat(kappa, kappa)))
            assert abs(ws.inner_flat(gauge, gauge) - 1.0) < 1e-14


class TestSolveMinimal:
    def test_demo_converges(self, demo_solve):
        report, ws, state = demo_solve
        assert report.converged
        assert report.final_interior_residual <= 1e-8
        assert report.final_interior_residual == report.residual_history[-1]
        assert report.embed_verdict == "certified"

    def test_xi_zero_runs_uncertified(self):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 0.0, 1e-3)
        report, ws, state = solver.solve_minimal(spec, 32.0, n_s=128,
                                                 n_theta=16, tol=1e-9)
        assert report.converged
        assert report.embed_verdict == "not-certified"
        assert np.all(ws.u0.values == 0.0)

    def test_delta_scaling(self):
        norms = []
        for delta in (1e-3, 5e-4):
            spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
            report, _, _ = solver.solve_minimal(spec, 32.0, n_s=128,
                                                n_theta=16, tol=1e-9)
            norms.append((report.norm_v, abs(report.b_x)))
        assert 0.4 < norms[1][0] / norms[0][0] < 0.6
        assert 0.4 < norms[1][1] / norms[0][1] < 0.6

    def test_solve_path_packs_no_jet(self, demo_spec, monkeypatch):
        # Q and the audits run on component arrays; the Jet API is for the
        # tests and the jets oracles only
        from spiralforge import bent, jets

        def forbidden(*args, **kwargs):
            raise AssertionError("Jet packing on the solve path")

        monkeypatch.setattr(jets, "mean_curvature", forbidden)
        monkeypatch.setattr(bent, "jet_from_arrays", forbidden)
        report, _, _ = solver.solve_minimal(demo_spec, 32.0, n_s=256, n_theta=8)
        assert report.converged

    def test_gate_ell(self, demo_spec):
        with pytest.raises(RejectedParametersError):
            solver.solve_minimal(demo_spec, 8.0)

    def test_gate_nan_ell(self, demo_spec):
        with pytest.raises(RejectedParametersError, match="must exceed 16"):
            solver.check_gates(demo_spec, float("nan"))
        with pytest.raises(RejectedParametersError, match="must exceed 16"):
            solver.solve_minimal(demo_spec, float("nan"), n_s=16, n_theta=8)

    def test_one_grid_and_one_factorization_per_mode(self, demo_spec, monkeypatch):
        # u0 is solved on the solve's own grid and m = 0 factorization
        built = []
        for cls in (Grid, BandedLU):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        solver.solve_minimal(demo_spec, 32.0, n_s=64, n_theta=8)
        assert built.count(Grid) == 1
        assert built.count(BandedLU) == 8 // 2 + 1

    def test_gate_budget(self):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 5e-3)
        with pytest.raises(RejectedParametersError):
            solver.solve_minimal(spec, 32.0)

    def test_gate_delta_xi(self):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 30.0, 5e-3)
        with pytest.raises(RejectedParametersError):
            solver.solve_minimal(spec, 17.0)

    def test_gates_accept_the_stated_set(self):
        # the stated gates: ell > 16, delta |xi| < 0.1 and the budget
        # delta (1 + |R| + |xi|) ell <= 0.2; with ell > 16 the budget implies
        # the delta |xi| gate, so it rejects every such spec by itself
        for kappa0, tau0 in ((0.2, 0.1), (1.0, 0.0), (1.0, -0.6), (3.0, 2.0)):
            for delta in (1e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.05, 0.1, 0.2):
                for xi in (-30.0, -1.0, 0.0, 0.5, 1.0, 3.0, 30.0, 100.0):
                    spec = SpiralSpec.from_invariants(kappa0, tau0, xi, delta)
                    for ell in (8.0, 16.0, 16.5, 17.0, 32.0, 64.0, 200.0):
                        budget = delta * (1.0 + spec.r_norm + abs(xi)) * ell
                        accept = ell > 16.0 and delta * abs(xi) < 0.1 and budget <= 0.2
                        if accept:
                            solver.check_gates(spec, ell)
                            continue
                        match = "must exceed 16" if ell <= 16.0 else "exceeds the gate 0.2"
                        with pytest.raises(RejectedParametersError, match=match):
                            solver.check_gates(spec, ell)

    def test_gates_imply_the_profile_gate(self):
        # u0's domain gate arccosh(ell) <= PROFILE_GATE (delta |xi|)^(-1/4)
        # cannot fire on the solve path: check_gates keeps delta |xi| within
        # GATE_BUDGET / ell, and there the profile gate holds for every ell
        # in (16, 1e12], with its least margin (1.02) next to ell = 16
        ell = np.concatenate([16.0 + np.logspace(-9, 0, 1000),
                              np.logspace(np.log10(17.0), 12.0, 200000)])
        widest = solver.GATE_BUDGET / ell
        margin = bent.PROFILE_GATE * widest ** -0.25 - np.arccosh(ell)
        assert margin.min() > 1.0
        # a spec just inside the budget passes check_gates with delta |xi|
        # within that bound
        for e in (16.5, 1e3, 1e12):
            spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, solver.GATE_BUDGET / (3.001 * e))
            solver.check_gates(spec, e)
            assert abs(spec.lam) <= solver.GATE_BUDGET / e

    def test_coarse_grid_takes_the_full_step(self, demo_spec):
        # the full step stops on 16x8 within 5 steps, but the residual rises
        # from 1.3e-2 to 2.3e-2: that is no convergence
        report, _, _ = solver.solve_minimal(demo_spec, 32.0, n_s=16, n_theta=8)
        assert not report.converged
        assert report.iterations <= 5

    @pytest.mark.parametrize("n_s", [48, 64])
    def test_coarsest_converging_grids(self, demo_spec, n_s):
        report, _, _ = solver.solve_minimal(demo_spec, 32.0, n_s=n_s, n_theta=8)
        assert report.converged
        assert report.final_interior_residual <= 1e-4 * report.residual_history[0]

    def test_tolerance_below_the_roundoff_floor(self, demo_spec):
        # the update cannot fall below 1e-12 at 8192x8; the stall stops it
        report, _, _ = solver.solve_minimal(demo_spec, 32.0, n_s=8192, n_theta=8,
                                            tol=1e-12)
        assert report.converged
        assert report.iterations <= 10

    def test_graph_values_are_the_bundle_values(self, demo_solve):
        _, ws, state = demo_solve
        bundle = solver._graph_bundle(ws, state, ws.psi[:, None] * state.v)
        assert np.array_equal(solver.graph_values(ws, state), bundle(slice(None))[0])

    def test_graph_of_the_zero_state_is_u0(self, demo_solve):
        # u0 enters the solved graph where the graph is formed: at the zero
        # state the graph is u0 on every theta column
        _, ws, _ = demo_solve
        g = ws.grid
        zero = solver.SolverState(np.zeros((g.n_s + 1, g.n_theta)), 0.0, 0.0)
        u = solver.graph_values(ws, zero)
        assert np.any(ws.u0.values != 0.0)
        assert np.array_equal(u, np.broadcast_to(ws.u0.values[:, None], u.shape))

    @pytest.mark.parametrize("block", [None, 7, 60], ids=["default", "block7", "block60"])
    def test_substitutes_match_the_whole_grid_bundles(self, demo_spec, monkeypatch, block):
        # at n_theta = 8, blocks of 60 points are 7 rows with a partial last
        # block, and blocks of 7 points one row: each block's bundle, its
        # rows and the halo differenced, is those rows of the whole one
        ws = solver.Workspace(demo_spec, 32.0, 256, 8)
        if block is not None:
            monkeypatch.setattr(numerics, "BLOCK", block)
        g = ws.grid
        (ux, wx), (uy, wy) = (substitute(which, g.s[:, None], g.theta[None, :])
                              for which in "xy")
        rng = np.random.default_rng(5)
        state = solver.SolverState(1e-3 * rng.standard_normal((g.n_s + 1, g.n_theta)),
                                   0.7, -0.3)
        psi_v = ws.psi[:, None] * state.v
        kept = psi_v.copy()
        psi_v_bundle = g.derivatives(psi_v)
        want = [p + state.b_x * x + state.b_y * y for p, x, y in zip(psi_v_bundle, ux, uy)]
        for i in (0, 2, 4):  # u0 depends on s alone: its value, u_s and u_ss
            want[i] = want[i] + ws.u0_bundle[i]
        added = solver._add_substitutes(ws, state, list(psi_v_bundle), slice(None))
        bundle = solver._graph_bundle(ws, state, psi_v)
        assert all(np.array_equal(a, b) for a, b in zip(added, want))
        assert all(np.array_equal(a, b) for a, b in zip(bundle(slice(None)), want))
        for blk in numerics.row_blocks(g.n_s + 1, g.n_theta):
            assert all(np.array_equal(a, b[blk]) for a, b in zip(bundle(blk), want))
        # psi v, which the psi step makes the new v, is read and not written
        assert np.array_equal(psi_v, kept)
        assert np.array_equal(solver.graph_values(ws, state), want[0])
        assert np.array_equal(ws.w_x, wx)
        assert np.array_equal(np.multiply(*ws.substitutes[1][1]), wy)

    def test_default_solve_memory(self, traced_default_solve):
        # the substitute bundles held as profiles times rows, the audit on
        # row blocks: 39.5 MiB when they were whole-grid arrays
        assert traced_default_solve[0] <= 30.0

    def test_default_solve_memory_without_whole_grid_brackets(self, traced_default_solve):
        # the surface keeps its normal bundle alone, and Q forms the brackets
        # and the graph's bundle a block at a time: 28.3 MiB when the
        # brackets and the whole graph bundle were whole-grid arrays
        assert traced_default_solve[0] <= 22.0

    def test_workspace_keeps_no_whole_grid_brackets(self, demo_spec):
        # a 1024x64 workspace keeps its surface's normal bundle (9 MiB), the
        # mode factorizations and the gauges; 21.8 MiB with the 15 bracket
        # fields (7.5 MiB) on the whole grid
        solver.Workspace(demo_spec, 32.0, 64, 8)  # first-call allocations
        tracemalloc.start()
        try:
            ws = solver.Workspace(demo_spec, 32.0, 1024, 64)
            kept = tracemalloc.get_traced_memory()[0] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert ws.surface.normals["nu"].shape == (3, 1025, 64)
        assert kept <= 16.0

    def test_default_solve_memory_without_whole_grid_step_temporaries(
            self, traced_default_solve):
        # the psi step forms its right-hand side, psi v - v_hat, the gauge
        # projections and the update in arrays it already holds, and the
        # norms run on row blocks: 20.4 MiB when each step allocated about
        # ten whole-grid temporaries
        assert traced_default_solve[0] <= 18.5

    def test_psi_step_rise(self, traced_default_solve):
        # one step at the default solve's final state: Q's block buffers and
        # array, then at most four whole-grid arrays; 5.0 MiB when each
        # intermediate of the step's expression form was its own array
        _, _, ws, state = traced_default_solve
        solver.psi_step(ws, state)  # first-call allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solver.psi_step(ws, state)
            rise = (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
        finally:
            tracemalloc.stop()
        assert rise <= 4.0

    def test_workspace_keeps_no_whole_grid_gauges(self, demo_spec):
        # the gauges are formed when fix_gauge runs and the w_x spectrum is
        # freed once its mode-1 column is copied: 14.35 MiB with the two
        # gauges (1 MiB) and the spectrum (0.5 MiB) kept
        solver.Workspace(demo_spec, 32.0, 64, 8)  # first-call allocations
        tracemalloc.start()
        try:
            ws = solver.Workspace(demo_spec, 32.0, 1024, 64)
            kept = tracemalloc.get_traced_memory()[0] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert kept <= 13.5
        assert ws.w_hat1.base is None

    def test_final_q_consistency(self, demo_solve):
        # the reported residual is the interior sup of Q at the final state
        report, ws, state = demo_solve
        q = ws.surface.q_operator(solver._graph_bundle(ws, state, ws.psi[:, None] * state.v))
        assert abs(np.abs(q[ws.interior_rows]).max()
                   - report.final_interior_residual) < 1e-15

    @pytest.mark.parametrize("kappa0,tau0,xi,ell", [
        (1.0, 0.0, -1.0, 32.0),    # negative growth rate
        (1.0, -0.6, -0.8, 32.0),   # mixed signs
        (1.0, 0.0, 1.0, 64.0),     # larger domain, still inside the gates
        (0.2, 0.1, 0.5, 32.0),     # gentle curvature
    ])
    def test_parameter_regimes(self, kappa0, tau0, xi, ell):
        spec = SpiralSpec.from_invariants(kappa0, tau0, xi, 1e-3)
        report, ws, state = solver.solve_minimal(spec, ell, n_s=128,
                                                 n_theta=16, tol=1e-9)
        assert report.converged
        assert report.final_interior_residual < 1e-8
        assert report.self_similarity_defect < 1e-12

    def test_independent_fd_minimality(self, demo_solve):
        # strongest end-to-end oracle: evaluate the solved graph pointwise in
        # the lab frame (smooth fields splined, cutoff factors analytic) and
        # compute the mean curvature from finite differences of the points
        # alone.  Away from the substitute band, where the oracle's own
        # spline differentiation is accurate, the surface must be minimal.
        from scipy.interpolate import CubicSpline
        from spiralforge import bent, helicoid, jets
        from spiralforge.cutoffs import even_cutoff
        from spiralforge.numerics import trig_interpolate

        _, ws, st = demo_solve
        spec, g = ws.spec, ws.grid
        v_spl = CubicSpline(g.s, st.v, axis=0)
        u0_spl = CubicSpline(g.s, ws.u0.values)

        def graph_u(ss, th):
            v_rows = trig_interpolate(v_spl(ss), th)
            psi = even_cutoff(np.arccosh(ws.ell / 2), np.arccosh(ws.ell / 4),
                              ss)[0]
            ux = helicoid.substitute("x", ss[:, None], th[None, :])[0][0]
            uy = helicoid.substitute("y", ss[:, None], th[None, :])[0][0]
            return (psi[:, None] * v_rows + st.b_x * ux + st.b_y * uy
                    + u0_spl(ss)[:, None])

        def points(ds, dt):
            ss, th = g.s + ds, g.theta + dt
            nu = bent._gauged_normal(spec, ss[:, None], th[None, :])
            return bent.graph_point(spec, ss[:, None], th[None, :],
                                    graph_u(ss, th), nu)

        h = 2e-3
        c1 = np.array([-1, 9, -45, 0, 45, -9, 1.0]) / (60 * h)
        c2 = np.array([2, -27, 270, -490, 270, -27, 2.0]) / (180 * h * h)
        ks = range(-3, 4)
        ps = {k: points(k * h, 0.0) for k in ks}
        pt = {k: points(0.0, k * h) for k in ks}
        x_s = sum(c * ps[k] for c, k in zip(c1, ks))
        x_t = sum(c * pt[k] for c, k in zip(c1, ks))
        x_ss = sum(c * ps[k] for c, k in zip(c2, ks))
        x_tt = sum(c * pt[k] for c, k in zip(c2, ks))
        x_ts = sum(cs * sum(ct * points(k1 * h, k2 * h)
                            for ct, k2 in zip(c1, ks))
                   for cs, k1 in zip(c1, ks))
        from spiralforge.jets import jet_from_arrays, mean_curvature
        big_h = np.abs(mean_curvature(
            jet_from_arrays(x_t, x_s, x_tt, x_ss, x_ts)))
        interior = np.cosh(g.s) <= g.ell / 4.0
        smooth = interior & ~((np.abs(g.s) >= 1.0) & (np.abs(g.s) <= 2.0))
        assert big_h[smooth, :].max() < 1e-5
