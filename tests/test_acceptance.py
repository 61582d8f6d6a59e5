"""Acceptance suite: every closed-form identity and end-to-end target.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.  Each criterion is pinned at its stated tolerance; nothing is
deferred to later calibration.
"""

import time

import numpy as np
import pytest

from spiralforge import helicoid, jets, solver, spirals, tube, verify
from spiralforge.numerics import Grid
from spiralforge.spirals import SpiralParams, SpiralSpec

from conftest import apply_operator, bent_surface, frenet_oracle, rel_err, rows_of


def announce(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"criterion {num:02d}: {text}"


@pytest.fixture(scope="module")
def full_solve():
    spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 1e-3)
    t0 = time.perf_counter()
    report, ws, state = solver.solve_minimal(spec, 32.0, n_s=1024, n_theta=64,
                                             tol=1e-9, max_iter=50)
    return report, ws, state, time.perf_counter() - t0


def test_01_closed_form_invariants_vs_frenet_oracle():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(-1.2, 1.2)
        b = np.sign(rng.standard_normal()) * rng.uniform(0.5, 2.0)
        c = np.sign(rng.standard_normal()) * rng.uniform(0.6, 2.0)
        t = rng.uniform(-5.0, 5.0)
        params = SpiralParams(a, b, c)
        h = 0.03 / max(0.7, float(np.hypot(a, c)))
        got = frenet_oracle(lambda tt: spirals.spiral_point(params, tt), t, h=h)
        worst = max(worst, rel_err(got, spirals.spiral_invariants(params, t)))
    elapsed = time.perf_counter() - t0
    announce(1, worst < 1e-8 and elapsed < 5.0,
             f"closed-form invariants vs FD Frenet oracle: worst rel err "
             f"{worst:.2e} (tol 1e-8), runtime {elapsed:.2f} s (< 5 s)")


def test_02_spiral_periodicity():
    rng = np.random.default_rng(7)
    params = SpiralParams(0.35, -0.9, 1.4)
    t = rng.uniform(-4.0, 4.0, 20)
    lhs = np.exp(2 * np.pi * params.a / params.c) * spirals.spiral_point(params, t)
    rhs = spirals.spiral_point(params, t + 2 * np.pi / params.c)
    err = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    announce(2, err < 1e-12,
             f"dilation periodicity of the spiral: rel defect {err:.2e} (tol 1e-12)")


def test_03_jacobian_identity_and_fd_agreement():
    spec = SpiralSpec.from_invariants(1.0, 0.7, 1.1, 0.01)
    rng = np.random.default_rng(3)
    # the bare exponential determinant identity, exact on the axis
    det_err = 0.0
    for z in rng.uniform(-3.0, 3.0, 10):
        det = np.linalg.det(tube.tube_jacobian(spec, 0.0, 0.0, z))
        det_err = max(det_err, rel_err(det, np.exp(3 * spec.lam * z)))
    # finite-difference agreement of the full Jacobian, off axis included
    fd_err = 0.0
    h = 1e-5
    for _ in range(10):
        x, y, z = rng.uniform(-1.0, 1.0, 3)
        jac = tube.tube_jacobian(spec, x, y, z)
        for k, dv in enumerate(np.eye(3) * h):
            col = (tube.tube_map(spec, x + dv[0], y + dv[1], z + dv[2])
                   - tube.tube_map(spec, x - dv[0], y - dv[1], z - dv[2])) / (2 * h)
            fd_err = max(fd_err, float(np.abs(jac[:, k] - col).max()))
    announce(3, det_err < 1e-12 and fd_err < 1e-8,
             f"tube Jacobian: axis determinant defect {det_err:.2e} (tol 1e-12), "
             f"FD agreement {fd_err:.2e} (tol 1e-8)")


def test_04_axis_norm_identity():
    spec = SpiralSpec.from_invariants(1.3, 0.7, 1.1, 0.01)
    z = np.linspace(-6.0, 6.0, 25)
    got = np.linalg.norm(tube.tube_map(spec, 0.0, 0.0, z), axis=-1)
    want = (np.exp(spec.lam * z) / spec.lam
            * np.sqrt((spec.tau0 ** 2 + spec.xi ** 2)
                      / (spec.rho0 ** 2 + spec.xi ** 2)))
    err = rel_err(got, want)
    announce(4, err < 1e-10,
             f"axis norm identity of the tube map: rel err {err:.2e} (tol 1e-10)")


def test_05_kernel_annihilation():
    sups = {}
    for n_s in (1024, 2048):
        s = np.linspace(-6.0, 6.0, n_s + 1)
        theta = -np.pi + 2 * np.pi * np.arange(16) / 16
        worst = 0.0
        for which in "xyz":
            img = helicoid.stability_apply(
                helicoid.kernel_fn(which, s[:, None], theta[None, :]), s)
            worst = max(worst, float(np.abs(img).max()))
        sups[n_s] = worst
    ratio = sups[1024] / sups[2048]
    announce(5, sups[1024] <= 1e-4 and ratio >= 3.5,
             f"kernel annihilation: sup {sups[1024]:.2e} at 1024 (tol 1e-4), "
             f"doubling ratio {ratio:.2f} (>= 3.5)")


def test_06_kernel_pairings():
    worst = 0.0
    for i, ki in enumerate("xyz"):
        for j, wj in enumerate("xyz"):
            if i == j:
                val = helicoid.kernel_pairing(ki, 10.0)
                worst = max(worst, abs(val - 1.0))
            else:
                # quadrature oracle on a fine grid for the cross terms
                s = np.linspace(-10, 10, 4097)
                th = -np.pi + 2 * np.pi * np.arange(64) / 64
                f = (helicoid.kernel_fn(ki, s[:, None], th[None, :])
                     * helicoid.substitute(wj, s[:, None], th[None, :])[1])
                val = np.trapezoid(f.sum(axis=1) * 2 * np.pi / 64, s)
                worst = max(worst, abs(val))
    announce(6, worst < 1e-6,
             f"kernel/substitute pairing matrix vs identity: worst defect "
             f"{worst:.2e} (tol 1e-6)")


def test_07_direct_integration_inverse():
    # closed-form case plus a manufactured smooth case at two resolutions
    g = Grid(32.0, 1024, 16)
    e = 2 * g.s / np.cosh(g.s) ** 2
    exact_err = np.abs(solver.invert_mean(e, g) - (g.s - np.tanh(g.s))).max()
    errs = []
    for n_s in (512, 1024):
        gg = Grid(32.0, n_s, 16)
        phi = gg.s ** 2 * np.exp(-(gg.s / 2.5) ** 4)
        e_bar = gg.d2 @ phi + 2 * phi / np.cosh(gg.s) ** 2
        v = solver.invert_mean(e_bar, gg)
        resid = gg.d2 @ v + 2 * v / np.cosh(gg.s) ** 2 - e_bar
        errs.append(float(np.abs(resid[1:-1]).max()))
    order_ok = errs[1] < errs[0] / 3.0
    announce(7, exact_err < 1e-8 and errs[1] < 1e-4 and order_ok,
             f"direct-integration inverse: closed-form err {exact_err:.2e}, "
             f"manufactured residual {errs[0]:.2e} -> {errs[1]:.2e} "
             f"(at least second order)")


def test_08_total_linear_inverse():
    spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, 1e-3)
    ws = solver.Workspace(spec, 32.0, 2048, 64)
    g = ws.grid
    s_col, t_row = g.s[:, None], g.theta[None, :]
    bump = (1 - (s_col / g.s_max) ** 2) ** 2
    e = bump * (np.tanh(s_col) + np.cos(t_row) * np.exp(-s_col ** 2)
                + 0.3 * np.sin(2 * t_row) / np.cosh(s_col)
                + 0.2 * np.sin(t_row) * np.tanh(s_col)
                + 0.1 * np.cos(5 * t_row))
    v, b_x, b_y = solver.linear_solve(ws, e)
    w_y = np.multiply(*ws.substitutes[1][1])
    resid = apply_operator(ws, v) - (e - b_x * ws.w_x - b_y * w_y)
    err = float(np.abs(resid[1:-1, :]).max())
    announce(8, err < 1e-6,
             f"total linear inverse at (2048, 64), ell = 32: defining-identity "
             f"residual {err:.2e} (tol 1e-6)")


def test_09_q_scaling_in_delta():
    sups = []
    for delta in (1e-2, 5e-3, 2.5e-3):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
        surf, u0 = bent_surface(spec, 32.0, 512, 32)
        zero = surf.grid.derivatives(np.zeros((513, 32)))
        q = surf.q_operator(rows_of([z + d0 for z, d0 in zip(zero, u0)]))
        sups.append(float(np.abs(q).max()))
    ratios = [lo / hi for hi, lo in zip(sups, sups[1:])]
    ok = all(0.35 <= r <= 0.65 for r in ratios)
    announce(9, ok,
             f"linear scaling of the initial defect: sup-norm ratios "
             f"{[f'{r:.3f}' for r in ratios]} within [0.35, 0.65]")


def test_10_end_to_end_solve(full_solve):
    report, ws, state, elapsed = full_solve
    ok_main = (report.converged and report.iterations <= 50
               and report.final_interior_residual <= 1e-8 and elapsed < 60.0)
    announce(10, ok_main,
             f"end-to-end solve (1024 x 64): interior residual "
             f"{report.final_interior_residual:.2e} (tol 1e-8) in "
             f"{report.iterations} iterations, {elapsed:.1f} s (< 60 s)")
    # solution norms scale linearly in delta (same grid, halved rates)
    norms = [(report.norm_v, abs(report.b_x), abs(report.b_y))]
    for delta in (5e-4, 2.5e-4):
        spec = SpiralSpec.from_invariants(1.0, 0.0, 1.0, delta)
        rep, _, _ = solver.solve_minimal(spec, 32.0, n_s=1024, n_theta=64,
                                         tol=1e-9, max_iter=50)
        assert rep.converged
        norms.append((rep.norm_v, abs(rep.b_x), abs(rep.b_y)))
    v_ratios = [b[0] / a[0] for a, b in zip(norms, norms[1:])]
    bx_ratios = [b[1] / a[1] for a, b in zip(norms, norms[1:])]
    ok_family = all(0.35 <= r <= 0.65 for r in v_ratios + bx_ratios)
    # b_y sits at the symmetry floor for this torsion-free family; it obeys
    # the O(delta) bound rather than a clean ratio
    ok_by = all(n[2] <= 10.0 * n[1] + 1e-6 for n in norms)
    announce(10, ok_family and ok_by,
             f"solution-norm scaling: |v| ratios {[f'{r:.3f}' for r in v_ratios]}, "
             f"b_x ratios {[f'{r:.3f}' for r in bx_ratios]} (linear in delta)")


def test_11_self_similarity_of_solved_surface(full_solve):
    report, ws, state, _ = full_solve
    defect = report.self_similarity_defect
    announce(11, defect <= 1e-10,
             f"discrete dilation invariance of the solved surface: defect "
             f"{defect:.2e} (tol 1e-10 = 10 x grid tolerance)")


def test_12_embeddedness(full_solve):
    report, ws, state, _ = full_solve
    assert ws.grid.ell <= tube.max_embed_ell(ws.spec)
    u = solver.graph_values(ws, state)
    verdict, info = verify.check_embedded(ws.spec, ws.grid, u, report.converged,
                                          n_samples=10000, seed=5)
    ok_pos = verdict == "certified" and \
        info["min_separation"] > info["threshold"]
    # synthetic self-intersecting control: lemniscate cylinder
    rng = np.random.default_rng(6)
    t = rng.uniform(0.15, 2 * np.pi - 0.15, 5000)
    z = rng.uniform(0.0, 1.0, 5000)
    denom = 1.0 + np.sin(t) ** 2
    pts = np.column_stack([np.cos(t) / denom, np.sin(t) * np.cos(t) / denom, z])
    md, pair = verify.sampled_min_separation(pts, np.column_stack([t, z]),
                                             exclusion=0.5, radius=0.1)
    ok_neg = md < 0.02
    # the search is exact up to the threshold and reports inf beyond it
    sep = info["min_separation"]
    shown = f"> {info['threshold']:.3f}" if np.isinf(sep) else f"{sep:.3f}"
    announce(12, ok_pos and ok_neg,
             f"embeddedness: no collision among 10^4 surface samples "
             f"(min separation {shown}, collision threshold "
             f"{info['threshold']:.3f}); synthetic control flagged at "
             f"{md:.2e}")


def test_13_taylor_remainder_orders():
    rng = np.random.default_rng(31)
    ok = True
    detail = []
    for k in (0, 1, 2):
        base = jets.Jet(rng.standard_normal((2, 3)), rng.standard_normal((4, 3)))
        while jets.aspect_ratio(base) < 0.3:
            base = jets.Jet(rng.standard_normal((2, 3)),
                            rng.standard_normal((4, 3)))
        var = jets.Jet(rng.standard_normal((2, 3)), rng.standard_normal((4, 3)))
        vals = [abs(jets.taylor_remainder("mean_curvature", base,
                                          var.scaled(eps), k))
                for eps in (1e-2, 5e-3, 2.5e-3)]
        ratios = [hi / lo for hi, lo in zip(vals, vals[1:])]
        target = 2.0 ** (k + 1)
        ok = ok and all(abs(r - target) <= 0.2 * target for r in ratios)
        detail.append(f"k={k}: {[f'{r:.2f}' for r in ratios]} ~ {target:g}")
    announce(13, ok, "Taylor remainder halving ratios within 20 %: "
             + "; ".join(detail))
