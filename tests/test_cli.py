import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from spiralforge import cli

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test skips itself without hypothesis
    given = None


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "spiralforge.cli", *args],
                          capture_output=True, text=True)


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config(None, {})
        assert cfg.kappa0 == 1.0 and cfg.ell == 32.0

    def test_file_with_sections_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[run]\n# comment\nkappa0 = 2.0\nxi = 0.5  # inline\n")
        cfg = cli.parse_config(str(p), {})
        assert cfg.kappa0 == 2.0 and cfg.xi == 0.5

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kappa0 = 2.0\n")
        cfg = cli.parse_config(str(p), {"kappa0": 3.0})
        assert cfg.kappa0 == 3.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kappa_zero = 2.0\n")
        with pytest.raises(ValueError, match="kappa_zero"):
            cli.parse_config(str(p), {})

    def test_small_ell_rejected(self):
        with pytest.raises(ValueError, match="ell > 16"):
            cli.parse_config(None, {"ell": 8.0})

    @pytest.mark.parametrize("xi", [1.0, -1.0])
    def test_periods_keep_the_similarity_factor_a_double(self, xi):
        # the last period's factor exp(2 pi delta xi (periods - 1)) and its
        # inverse stay finite and nonzero up to the bound, and one period
        # more is rejected by name (xi < 0 would underflow the factor); the
        # smallest mesh keeps both counts of vertices under the cap
        last = math.floor(math.log(sys.float_info.max) / (2e-3 * math.pi)) + 1
        mesh = {"xi": xi, "mesh_resolution": 6}
        assert 36 * (last + 1) <= cli.MAX_MESH_VERTICES
        cfg = cli.parse_config(None, {**mesh, "periods": last})
        scale = cfg.spec().similarity()[0]
        assert 0.0 < scale ** (last - 1) < math.inf
        assert 0.0 < scale ** (1 - last) < math.inf
        with pytest.raises(ValueError, match="double range"):
            cli.parse_config(None, {**mesh, "periods": last + 1})

    @pytest.mark.parametrize("resolution, periods", [(2048, 1), (1024, 4)])
    def test_mesh_vertex_cap(self, resolution, periods):
        # a mesh of exactly MAX_MESH_VERTICES passes, one period more does not
        assert resolution ** 2 * periods == cli.MAX_MESH_VERTICES
        cli.parse_config(None, {"mesh_resolution": resolution, "periods": periods})
        with pytest.raises(ValueError, match=r"\bmesh_resolution\b.*\bperiods\b"):
            cli.parse_config(None, {"mesh_resolution": resolution, "periods": periods + 1})

    def test_ntheta_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            cli.parse_config(None, {"n_theta": 48})

    def test_explicit_generator_consistent(self):
        cfg = cli.parse_config(None, {"r12": -0.5, "r13": 1.0, "r23": 0.0,
                                      "kappa0": 1.0, "tau0": 0.5})
        r = cfg.generator()
        assert np.allclose(r, -r.T)
        spec = cfg.spec()
        assert abs(spec.kappa0 - 1.0) < 1e-12
        assert abs(spec.tau0 - 0.5) < 1e-12

    def test_explicit_generator_partial_rejected(self):
        cfg = cli.parse_config(None, {"r12": 0.5})
        with pytest.raises(ValueError, match="r12"):
            cfg.generator()

    def test_explicit_generator_mismatch_warns(self, capsys):
        cfg = cli.parse_config(None, {"r12": -0.5, "r13": 1.0, "r23": 0.0,
                                      "kappa0": 2.0})
        cfg.generator()
        assert "differ" in capsys.readouterr().err


class TestCommands:
    def test_spiral_table(self):
        r = run_cli("spiral", "--kappa0", "1", "--xi", "1", "--delta", "0.01")
        assert r.returncode == 0
        assert "embeddedness bound" in r.stdout
        assert "curvature" in r.stdout

    def test_rejected_parameters_exit_code(self):
        r = run_cli("solve", "--ell", "8")
        assert r.returncode == 2

    def test_gate_violation_exit_code(self):
        # passes config validation but trips the solver's budget gate
        r = run_cli("solve", "--delta", "5e-3", "--ns", "64", "--ntheta", "8")
        assert r.returncode == 2
        assert "rejected" in r.stderr

    def test_solve_artifacts_and_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_s = 128\nn_theta = 16\nmesh_resolution = 16\n")
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            r = run_cli("solve", "--config", str(cfg), "--out", str(out))
            assert r.returncode == 0, r.stderr
            assert "converged = True" in r.stdout
            names = ("report.txt", "surface.obj", "fields.csv")
            assert all((out / n).exists() for n in names)
            digests.append(tuple(hashlib.sha256((out / n).read_bytes()).hexdigest()
                                 for n in names))
        assert digests[0] == digests[1]
        text = (tmp_path / "a" / "report.txt").read_text()
        assert "[config]" in text and "runtime" not in text

    def test_check_embed(self, tmp_path):
        r = run_cli("check-embed", "--ns", "128", "--ntheta", "16")
        assert r.returncode == 0
        assert "certified" in r.stdout
        # the search is exact up to the collision threshold, so a clear
        # sample reports the threshold as a lower bound, not a number
        assert ("sampled min separation: > 0.0991 (no far pair within the "
                "collision threshold)") in r.stdout.splitlines()

    def test_export(self, tmp_path):
        out = tmp_path / "exp"
        r = run_cli("export", "--ns", "128", "--ntheta", "16",
                    "--mesh-resolution", "16", "--periods", "2",
                    "--out", str(out))
        assert r.returncode == 0
        assert (out / "surface.obj").exists()
        assert (out / "fields.csv").exists()


@pytest.mark.parametrize("argv, key", [
    (["solve", "--delta", "nan"], "delta"),
    (["solve", "--xi", "nan"], "xi"),
    (["solve", "--ell", "nan"], "ell"),
    (["solve", "--tol", "nan"], "tol"),
    (["solve", "--config", "damping = 0.5"], "damping"),
    (["solve", "--ns", "0"], "n_s"),
    (["solve", "--ns", "4"], "n_s"),
    (["export", "--mesh-resolution", "1"], "mesh_resolution"),
    (["export", "--mesh-resolution", "5"], "mesh_resolution"),
    (["export", "--periods", "0"], "periods"),
    (["check-embed", "--seed", "-1"], "seed"),
    (["check-embed", "--config", "n_samples = 0"], "n_samples"),
    (["check-embed", "--config", "n_samples = 1"], "n_samples"),
    (["spiral", "--alpha", "3"], "alpha"),
    (["spiral", "--alpha", "0"], "alpha"),
    (["solve", "--tol", "0"], "tol"),
    (["solve", "--tol", "-1"], "tol"),
    (["solve", "--max-iter", "0"], "max_iter"),
    # finite but overflowing the spiral's closed forms
    (["spiral", "--xi", "1e200"], "xi"),
    (["spiral", "--kappa0", "1e300"], "rejected"),
    (["spiral", "--delta", "1e300"], "delta"),
    # so small that gamma's denominator (delta xi)^2 + (delta |R|)^2 underflows
    (["spiral", "--delta", "1e-170"], "delta"),
    (["spiral", "--delta", "1e-160"], "delta"),
    (["solve", "--delta", "1e-170"], "delta"),
    (["solve", "--delta", "1e-160"], "delta"),
    # the gates are constants of the solve, no longer config keys
    (["solve", "--config", "eps1 = 0.2"], "eps1"),
    (["solve", "--config", "delta0 = 0.1"], "delta0"),
    # overflowing the normal form's squared rates, named like the underflow
    (["solve", "--xi", "1e300"], "xi"),
    # the mesh's similarity factor would overflow: rejected before the solve
    (["export", "--ns", "64", "--ntheta", "8", "--mesh-resolution", "6",
      "--periods", "1000000000"], "periods"),
    (["solve", "--kappa0", "0"], "kappa0"),
    (["solve", "--delta", "0"], "delta"),
    (["solve", "--ns", "7"], "n_s"),
    (["solve", "--config", "kappa0 2.0"], "expected key = value"),
])
def test_bad_input_rejected_at_boundary(argv, key, tmp_path, capsys):
    if "--config" in argv:
        # keys without a flag go through a config file; the argument holds its text
        i = argv.index("--config") + 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[i] + "\n")
        argv = [*argv[:i], str(cfg), *argv[i + 1:]]
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_REJECTED
    out, err = capsys.readouterr()
    assert re.search(rf"\b{key}\b", err)
    # rejected before any output, even where the rejection is an overflow
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] in ([], ["run.cfg"])


# each flag's values for the argv property test: admissible ones and the
# edges of the admissible box, on grids small enough to solve in a few ms
_ARGV_VALUES = {
    "--kappa0": ["1", "0.8", "1.2", "0", "-1", "nan", "1e300"],
    "--tau0": ["0", "0.5", "-0.8", "inf", "1e200"],
    "--xi": ["1", "0.9", "-1", "0", "1e-25", "1e200", "-inf"],
    "--delta": ["1e-3", "2e-3", "5e-3", "0", "-1e-3", "1e-170", "1e300"],
    "--ell": ["32", "17", "16", "8", "1e300", "nan"],
    "--tol": ["1e-9", "1e-3", "0", "-1"],
    "--alpha": ["0.5", "0.1", "0", "1"],
    "--ns": ["64", "96", "128", "24", "7", "4", "0"],
    "--ntheta": ["8", "4", "16", "6", "2", "0"],
    "--max-iter": ["50", "1", "2", "0"],
    "--seed": ["0", "7", "-1"],
    "--periods": ["1", "2", "3", "0", "1000000000"],
    "--mesh-resolution": ["6", "8", "5", "0", "100000"],
}


def _argv_runs():
    flags = st.dictionaries(st.sampled_from(sorted(_ARGV_VALUES)), st.integers(0, 6),
                            max_size=4)
    commands = st.sampled_from(["spiral", "solve", "check-embed", "export"])
    # the output path is sometimes a regular file, which the writers cannot use
    return st.tuples(commands, flags, st.booleans())


@pytest.mark.skipif(given is None, reason="hypothesis not installed")
def test_argv_exit_codes_property(tmp_path_factory):
    # any command with any of these flags exits 0, 2, 3, 4 or 5 (never by an
    # uncaught exception, which a console script turns into 1), and a
    # rejected run writes nothing into its output directory
    @settings(max_examples=100)
    @given(_argv_runs())
    def check(run):
        command, picks, out_is_file = run
        # the grid stays bounded unless a flag of the draw sets it
        argv = [command, "--ns", "64", "--ntheta", "8", "--mesh-resolution", "6"]
        for flag, i in sorted(picks.items()):
            values = _ARGV_VALUES[flag]
            argv.append(f"{flag}={values[i % len(values)]}")
        out = tmp_path_factory.mktemp("argv")
        if out_is_file:
            out = out / "taken"
            out.write_text("")
        code = cli.main([*argv, "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_REJECTED, cli.EXIT_NO_CONVERGENCE,
                        cli.EXIT_IO, cli.EXIT_COLLISION), argv
        if out_is_file:
            # solve and export write into the output directory
            assert code != cli.EXIT_OK or command in ("spiral", "check-embed"), argv
            assert out.read_text() == "", argv
        elif code == cli.EXIT_REJECTED:
            assert list(out.iterdir()) == [], argv

    check()


def test_export_above_the_vertex_cap_is_rejected_at_once(tmp_path, capsys):
    # 64^2 * 112,966 vertices: the similarity factor is still a double, the
    # mesh is far above the cap, and nothing is solved or written
    start = time.process_time()
    argv = ["export", "--periods", "112966", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_REJECTED
    assert time.process_time() - start < 0.2
    out, err = capsys.readouterr()
    assert out == "" and re.search(r"\bperiods\b", err)
    assert list(tmp_path.iterdir()) == []


def test_missing_config_exits_4(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert cli.main(["spiral", "--config", str(missing)]) == cli.EXIT_IO
    assert f"cannot read config {missing}" in capsys.readouterr().err


def test_out_on_a_regular_file_exits_4(tmp_path, capsys):
    # the solve runs, then the output directory cannot be made
    out = tmp_path / "taken"
    out.write_text("")
    argv = ["solve", "--ns", "64", "--ntheta", "8", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_IO
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == ""


def test_spiral_at_xi_zero_has_no_tube_bound(capsys):
    assert cli.main(["spiral", "--xi", "0"]) == cli.EXIT_OK
    assert ("tube radius / embeddedness bound: not defined at xi = 0"
            in capsys.readouterr().out.splitlines())


def test_check_embed_prints_a_collision(capsys, monkeypatch):
    # a margin above the closest far pair of the 256x32 samples (0.584)
    # turns it into a collision, printed with its distance
    from spiralforge import verify

    monkeypatch.setattr(verify, "COLLISION_MARGIN", 0.6)
    assert cli.main(["check-embed", "--ns", "256", "--ntheta", "32"]) == cli.EXIT_COLLISION
    out = capsys.readouterr().out.splitlines()
    assert "embeddedness verdict: not-certified" in out
    lines = [re.fullmatch(r"sampled min separation: (\S+) \(collision threshold (\S+)\)",
                          line) for line in out]
    (d, threshold), = [m.groups() for m in lines if m]
    assert 0.58 < float(d) <= float(threshold)


def test_spiral_normal_form_follows_explicit_generator(tmp_path, capsys):
    # this generator's invariants are (kappa0, tau0) = (1, 0.5), whatever
    # tau0 the configuration declares
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r12 = -0.5\nr13 = 1\nr23 = 0\n")
    lines = []
    for argv in (["--config", str(cfg)], ["--tau0", "0.5"]):
        assert cli.main(["spiral", *argv]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        lines.append([ln for ln in out if ln.startswith("normal form:")])
    assert lines[0] == lines[1]
    assert "b = 0.75," in lines[0][0]


def test_smallest_normal_rates_print_finite_gamma(capsys):
    # (delta xi)^2 + (delta |R|)^2 = 8e-308 is just above the smallest normal float
    assert cli.main(["spiral", "--delta", "2e-154"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[-9:]
    assert all(np.isfinite(float(row.split()[-1])) for row in rows)


def test_smallest_accepted_mesh_exports(tmp_path):
    # the mesh bound is the width of derivative_matrix's one-sided d2 stencil
    from spiralforge.numerics import derivative_matrix

    derivative_matrix(cli._STENCIL_POINTS, 0.1, 2, 4)
    with pytest.raises(ValueError, match="stencil"):
        derivative_matrix(cli._STENCIL_POINTS - 1, 0.1, 2, 4)
    argv = ["export", "--ns", "128", "--ntheta", "8", "--mesh-resolution", "6",
            "--periods", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    obj = (tmp_path / "surface.obj").read_text().splitlines()
    assert sum(line.startswith("v ") for line in obj) == 36
    csv = (tmp_path / "fields.csv").read_text().splitlines()
    assert len(csv) == 1 + 36     # a header, then one row per vertex


@pytest.mark.parametrize("command", ["check-embed", "export"])
def test_non_converged_solve_exits_3(command, tmp_path, capsys):
    # one iteration cannot converge; the audit or export still runs
    argv = [command, "--ns", "256", "--ntheta", "8", "--max-iter", "1",
            "--mesh-resolution", "16", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
    assert capsys.readouterr().out


def test_no_profile_exits_3(tmp_path, capsys, monkeypatch):
    # a profile solve that fails, as a diverging chord iteration does
    from spiralforge import solver
    from spiralforge.errors import NoProfileError

    def no_profile(*args, **kwargs):
        raise NoProfileError("profile iteration did not converge")

    monkeypatch.setattr(solver, "solve_u0", no_profile)
    argv = ["solve", "--ns", "64", "--ntheta", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
    assert "profile" in capsys.readouterr().err


def test_solve_builds_the_graph_bundle_once_per_residual(tmp_path, monkeypatch):
    # one bundle per step and one for the final residual, each formed a block
    # of rows at a time with every grid row formed once; the audit and the
    # export read the graph's values alone
    from spiralforge import solver

    calls = []
    bundle = solver._graph_bundle

    def counted(*args):
        rows = []
        calls.append(rows)
        formed = bundle(*args)

        def recorded(blk):
            rows.extend(range(*blk.indices(513)))
            return formed(blk)
        return recorded

    monkeypatch.setattr(solver, "_graph_bundle", counted)
    argv = ["solve", "--ns", "512", "--ntheta", "8", "--mesh-resolution", "16",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    report = (tmp_path / "report.txt").read_text()
    iterations = int(re.search(r"^iterations = (\d+)$", report, re.M).group(1))
    assert len(calls) == iterations + 1
    assert all(rows == list(range(513)) for rows in calls)


def test_solve_frees_the_surface(monkeypatch):
    # _solve hands the post-solve phases the spec, grid and graph values
    # alone: the workspace's surface and its cached normal bundle (9 MiB at
    # 1024x64) are unreachable once it returns, so the export and the embed
    # audit reuse that memory; keeping it raised the default solve's peak
    # RSS by 0.26 MB
    from spiralforge import solver

    surfaces = []
    solve = solver.solve_minimal

    def recorded(*args, **kwargs):
        report, ws, state = solve(*args, **kwargs)
        surfaces.append(weakref.ref(ws.surface))
        return report, ws, state

    monkeypatch.setattr(solver, "solve_minimal", recorded)
    report, spec, grid, u = cli._solve(cli.parse_config(None, {"n_s": 512, "n_theta": 8}))
    gc.collect()
    assert report.converged and u.shape == (grid.n_s + 1, grid.n_theta)
    assert len(surfaces) == 1 and surfaces[0]() is None


@pytest.mark.parametrize("argv", [["--ns", "16384", "--ntheta", "4"],
                                  ["--xi", "3", "--ns", "8192", "--ntheta", "4"]])
def test_profile_roundoff_floor_exits_0(argv, tmp_path):
    # u0's residual stalls at its roundoff floor on these grids, far below
    # its first value: the solve converges
    argv = ["solve", *argv, "--mesh-resolution", "16", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("xi", ["1e-25", "-1e-300"])
def test_tiny_growth_rate_converges(xi, tmp_path):
    # u0's first residual, O(delta xi), is within four orders of its
    # roundoff floor: the profile is accepted and the solve converges.  Its
    # constant c_hat is reported while that residual is at least 100 times
    # the floor (1.7e3 times at xi = 1e-25), and nan below, where u0 is a
    # roundoff pattern and the quotient would read 6.8e269 at xi = -1e-300
    c_hat = {"1e-25": "0.31701620250669732", "-1e-300": "nan"}[xi]
    argv = ["solve", f"--xi={xi}", "--ns", "512", "--ntheta", "8",
            "--mesh-resolution", "16", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    report = (tmp_path / "report.txt").read_text()
    assert "converged = true" in report
    assert f"\nu0_c_hat = {c_hat}\n" in report


@pytest.mark.parametrize("n_s", [8, 16, 24, 32])
def test_coarse_grid_is_not_converged(n_s, tmp_path):
    # on these grids the iteration stops while the residual of Q stays above
    # a quarter of its first value
    argv = ["solve", "--ns", str(n_s), "--ntheta", "8", "--mesh-resolution", "16",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
    report = (tmp_path / "report.txt").read_text()
    assert "converged = false" in report
    assert "embed_verdict = not-certified" in report


# every submodule, then an in-process solve, check-embed and export on a
# small grid, for the probes below
_PIPELINE = """
import sys, tempfile
from spiralforge import *
from spiralforge import cli
grid = ["--ns", "128", "--ntheta", "8", "--mesh-resolution", "16"]
with tempfile.TemporaryDirectory() as out:
    for command in ("solve", "check-embed", "export"):
        assert cli.main([command, *grid, "--out", out]) == 0, command
"""


# a sampled tube injectivity audit alone
_INJECTIVITY = """
from spiralforge import SpiralSpec, tube
spec = SpiralSpec.from_invariants(1.0, 0.0, 0.05, 0.01)
radius = tube.tube_radius(spec, 0.9 * tube.injectivity_margin(spec))
assert tube.check_injectivity(spec, radius, n_samples=1000)[0] == "injective-sample"
"""


@pytest.mark.parametrize("code, module", [
    # scipy.integrate serves only the kernel_pairing test oracle and
    # scipy.interpolate nothing at all (s-resampling in the audits and the
    # mesh export is local Lagrange); each costs a noticeable share of every
    # CLI start-up, so a run that loads the whole pipeline must load neither
    pytest.param(_PIPELINE, "scipy.integrate", id="scipy.integrate"),
    pytest.param(_PIPELINE, "scipy.interpolate", id="scipy.interpolate"),
    # the pipeline takes LAPACK from scipy's compiled wrappers alone: no
    # sparse matrices, and not scipy.linalg's package, whose import loads
    # scipy's array-API shim (scipy._lib) with numpy.f2py and numpy.testing;
    # the embeddedness audits search pairs in numpy, not with scipy.spatial,
    # which loads all of these
    pytest.param(_PIPELINE, "scipy.sparse", id="scipy.sparse"),
    pytest.param(_PIPELINE, "scipy._lib", id="scipy._lib"),
    pytest.param(_PIPELINE, "scipy.spatial", id="scipy.spatial"),
    # the OBJ/CSV writers' power-of-ten table is built from Python ints: a
    # Fraction- or Decimal-built one costs every solve the module's import
    pytest.param(_PIPELINE, "fractions", id="fractions"),
    pytest.param(_PIPELINE, "decimal", id="decimal"),
    pytest.param(_INJECTIVITY, "scipy", id="injectivity-scipy"),
    # the sampled audits draw from the standard library's random.Random:
    # loading numpy.random's extension modules costs a cold start 6.2 MB of
    # RSS and about 0.04 s of CPU
    pytest.param(_PIPELINE, "numpy.random", id="numpy.random"),
    pytest.param(_INJECTIVITY, "numpy.random", id="injectivity-numpy.random"),
    # the package namespace is lazy; spiral tables and rejected input need
    # numpy only
    pytest.param("import spiralforge", "scipy", id="package-scipy"),
    pytest.param("import spiralforge.cli", "scipy", id="cli-scipy"),
    pytest.param("from spiralforge import cli; cli.main(['spiral'])", "scipy",
                 id="spiral-scipy"),
    pytest.param("from spiralforge import cli; cli.main(['solve', '--delta', 'nan'])",
                 "scipy", id="rejected-scipy"),
    # the surface geometry takes the m = 0 inverse as an argument and does
    # not depend on the linear theory
    pytest.param("import spiralforge.bent", "spiralforge.helicoid", id="bent-helicoid"),
    # the post-solve phases take (spec, grid, u): neither the solver nor its
    # surface
    pytest.param("import spiralforge.verify", "spiralforge.solver", id="verify-solver"),
])
def test_import_leaves_module_unloaded(code, module):
    probe = (f"{code}\nimport sys\n"
             f"print(any(m == {module!r} or m.startswith({module + '.'!r}) "
             f"for m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "False"


def test_thread_cap_precedes_numpy():
    # SPIRALFORGE_THREADS only caps the BLAS pools if cli sets their variables
    # before numpy loads, so importing the package must not load numpy
    code = ("import os, sys, spiralforge\n"
            "before = 'numpy' in sys.modules\n"
            "from spiralforge import cli\n"
            "print(before, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["SPIRALFORGE_THREADS"] = "1"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True", "1"]
