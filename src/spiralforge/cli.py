"""Command-line entry point: spiral tables, solves, embeddedness, export.

Usage:
    spiralforge <spiral|solve|check-embed|export> [--config PATH] [flags]

Configuration is flat ``key = value`` text with optional [section] headers
and # comments; command-line flags override file values.  Reports are
written as deterministic key = value files (identical configuration gives
byte-identical output; wall-clock timing goes to the console only).

Exit codes: 0 success, 2 rejected parameters, 3 non-convergence, 4 I/O, 5 a
collision found by check-embed (3 wins when the solve did not converge too).
"""

import argparse
import math
import os
import sys

# honor the thread cap before numpy initializes its thread pools
_threads = os.environ.get("SPIRALFORGE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import numpy as np

from dataclasses import dataclass, asdict, fields

from .errors import NoProfileError, RejectedParametersError
from .spirals import SpiralSpec, frenet_generator, invariants_to_spiral, matrix_invariants

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_COLLISION = 5

# the most mesh vertices written: 32 times a 256^2 two-period mesh, ~0.8 GB of text
MAX_MESH_VERTICES = 2 ** 22

# grid points the one-sided second-derivative stencil of numerics.derivative_matrix
# spans at accuracy 4 (order + acc); shorter grids cannot be differenced
_STENCIL_POINTS = 6


@dataclass
class RunConfig:
    kappa0: float = 1.0
    tau0: float = 0.0
    xi: float = 1.0
    delta: float = 1e-3
    ell: float = 32.0
    n_s: int = 1024
    n_theta: int = 64
    tol: float = 1e-9
    max_iter: int = 50
    seed: int = 0
    output_dir: str = "."
    # optional explicit generator (off-diagonal entries); overrides kappa0/tau0
    r12: float = None
    r13: float = None
    r23: float = None
    alpha: float = 0.5
    mesh_resolution: int = 64
    periods: int = 1
    n_samples: int = 10000

    def validate(self):
        for key in sorted(f.name for f in fields(self) if f.type is float):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.kappa0 <= 0.0:
            raise ValueError("kappa0 must be positive (a straight axis is excluded)")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.ell <= 16.0:
            raise ValueError(f"ell = {self.ell:g} rejected: the solve requires ell > 16")
        if self.tol <= 0.0:
            raise ValueError(f"tol = {self.tol:g} must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter = {self.max_iter} must be at least 1")
        n = self.n_theta
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("n_theta must be a power of two")
        if self.n_s % 2 != 0:
            raise ValueError("n_s must be even")
        if self.n_s + 1 < _STENCIL_POINTS:
            raise ValueError(f"n_s = {self.n_s} rejected: the fourth-order stencils "
                             f"need n_s + 1 >= {_STENCIL_POINTS} points")
        if self.mesh_resolution < _STENCIL_POINTS:
            raise ValueError(f"mesh_resolution = {self.mesh_resolution} rejected: the "
                             f"fourth-order stencils need at least {_STENCIL_POINTS}")
        if self.periods < 1:
            raise ValueError(f"periods = {self.periods} must be at least 1")
        # the mesh scales its last period by exp(2 pi delta xi (periods - 1));
        # past this bound that factor or its inverse is no finite nonzero double
        if (2.0 * math.pi * self.delta * abs(self.xi) * (self.periods - 1)
                > math.log(sys.float_info.max)):
            raise ValueError(f"periods = {self.periods} rejected: the similarity factor "
                             f"exp(2 pi delta xi (periods - 1)) leaves the double range")
        if self.mesh_resolution ** 2 * self.periods > MAX_MESH_VERTICES:
            raise ValueError(f"mesh_resolution^2 * periods = {self.mesh_resolution}^2 * "
                             f"{self.periods} rejected: above {MAX_MESH_VERTICES} vertices")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be non-negative")
        if self.n_samples < 2:
            raise ValueError(f"n_samples = {self.n_samples} rejected: a separation "
                             f"needs at least 2 samples")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha = {self.alpha:g} must lie in (0, 1)")
        return self

    def generator(self):
        """The antisymmetric generator: explicit entries if given, else the
        Frenet-aligned synthesis from (kappa0, tau0)."""
        explicit = [self.r12, self.r13, self.r23]
        if any(x is not None for x in explicit):
            if any(x is None for x in explicit):
                raise ValueError("explicit generator needs all of r12, r13, r23")
            r = np.array([[0.0, self.r12, self.r13],
                          [-self.r12, 0.0, self.r23],
                          [-self.r13, -self.r23, 0.0]])
            k, t = matrix_invariants(r)
            if abs(k - self.kappa0) > 1e-9 * max(1.0, self.kappa0) or \
               abs(t - self.tau0) > 1e-9 * max(1.0, abs(self.tau0)):
                print(f"warning: generator invariants ({k:.6g}, {t:.6g}) differ "
                      f"from declared (kappa0, tau0) = ({self.kappa0:g}, {self.tau0:g})",
                      file=sys.stderr)
            return r
        return frenet_generator(self.kappa0, self.tau0)

    def spec(self):
        return SpiralSpec(self.generator(), self.delta, self.xi)


def parse_config(path=None, overrides=None):
    """RunConfig from an optional file plus flag overrides.

    Unknown keys are rejected by name; flags win over file values.
    """
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
        for ln, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or (line.startswith("[") and line.endswith("]")):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    types = {f.name: f.type for f in fields(RunConfig)}
    unknown = set(values) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = RunConfig()
    for key, val in values.items():
        setattr(cfg, key, types[key](val))
    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    return cfg.validate()


def config_dict(cfg):
    # output_dir is environment, not a run parameter: identical runs into
    # different directories must still produce byte-identical reports
    d = asdict(cfg)
    return {k: v for k, v in d.items() if v is not None and k != "output_dir"}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spiral(cfg):
    from . import tube

    spec = cfg.spec()
    params, scale = invariants_to_spiral(spec.kappa0, spec.tau0, spec.xi)
    print(f"generator invariants: kappa0 = {spec.kappa0:.12g}, "
          f"tau0 = {spec.tau0:.12g}, rho0 = {spec.rho0:.12g}")
    print(f"normal form: a = {params.a:.12g}, b = {params.b:.12g}, "
          f"c = {params.c:.12g}, scale = {scale:.12g}")
    if cfg.xi != 0.0:
        print(f"tube radius (alpha = {cfg.alpha:g}): "
              f"{tube.tube_radius(spec, cfg.alpha):.12g}")
        print(f"embeddedness bound on ell: {tube.max_embed_ell(spec):.12g}")
    else:
        print("tube radius / embeddedness bound: not defined at xi = 0")
    print(f"{'z':>8} {'speed':>14} {'curvature':>14} {'torsion':>14} {'|gamma|':>14}")
    for z in np.linspace(-10.0, 10.0, 9):
        speed = float(np.exp(spec.lam * z))
        kap = spec.delta * spec.kappa0 * np.exp(-spec.lam * z)
        tau = spec.delta * spec.tau0 * np.exp(-spec.lam * z)
        print(f"{z:8.2f} {speed:14.6e} {kap:14.6e} {tau:14.6e} "
              f"{np.linalg.norm(spec.gamma(z)):14.6e}")
    return EXIT_OK


def _solve(cfg):
    """Run the solve cfg describes; returns (report, spec, grid, the solved
    graph's values u).  The workspace and its surface are dropped here, so
    their cached geometry is freed before the post-solve phases run and
    their allocations reuse that memory."""
    from . import solver

    report, ws, state = solver.solve_minimal(
        cfg.spec(), cfg.ell, n_s=cfg.n_s, n_theta=cfg.n_theta, tol=cfg.tol,
        max_iter=cfg.max_iter)
    return report, ws.spec, ws.grid, solver.graph_values(ws, state)


def _export(cfg, spec, grid, u):
    """Write surface.obj and fields.csv into the output directory."""
    from . import verify

    out = cfg.output_dir
    verify.export_mesh(spec, grid, u, os.path.join(out, "surface.obj"),
                       os.path.join(out, "fields.csv"),
                       resolution=(cfg.mesh_resolution, cfg.mesh_resolution),
                       periods=cfg.periods)


def cmd_solve(cfg):
    from . import verify

    report, spec, grid, u = _solve(cfg)
    report.config = config_dict(cfg)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(verify.report_text(report))
    _export(cfg, spec, grid, u)
    print(f"converged = {report.converged} after {report.iterations} iterations; "
          f"interior residual {report.final_interior_residual:.3e}; "
          f"runtime {report.runtime:.2f} s")
    print(f"artifacts in {out}: report.txt, surface.obj, fields.csv")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_check_embed(cfg):
    from . import verify

    report, spec, grid, u = _solve(cfg)
    verdict, info = verify.check_embedded(
        spec, grid, u, report.converged, n_samples=cfg.n_samples, seed=cfg.seed)
    print(f"embeddedness verdict: {verdict}")
    print(f"closed-form bound on ell: {info['ell_bound']:.6g} (ell = {cfg.ell:g})")
    # the sampled search always runs, exact up to the threshold
    min_d, threshold = info["min_separation"], info["threshold"]
    if min_d <= threshold:
        print(f"sampled min separation: {min_d:.6g} "
              f"(collision threshold {threshold:.3g})")
    else:
        print(f"sampled min separation: > {threshold:.3g} "
              f"(no far pair within the collision threshold)")
    if not report.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_COLLISION if verdict == "not-certified" else EXIT_OK


def cmd_export(cfg):
    report, spec, grid, u = _solve(cfg)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    _export(cfg, spec, grid, u)
    print(f"wrote {out}/surface.obj and {out}/fields.csv "
          f"({cfg.periods} period(s) at resolution {cfg.mesh_resolution})")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def build_parser():
    p = argparse.ArgumentParser(prog="spiralforge", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("spiral", "solve", "check-embed", "export"):
        q = sub.add_parser(name)
        q.add_argument("--config", default=None)
        for flag in ("kappa0", "tau0", "xi", "delta", "ell", "tol", "alpha"):
            q.add_argument(f"--{flag}", type=float)
        for flag, dest in (("ns", "n_s"), ("ntheta", "n_theta"), ("max-iter", "max_iter"),
                           ("seed", "seed"), ("periods", "periods"),
                           ("mesh-resolution", "mesh_resolution")):
            q.add_argument(f"--{flag}", type=int, dest=dest)
        q.add_argument("--out", dest="output_dir")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = parse_config(args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED if isinstance(exc, ValueError) else EXIT_IO
    handler = {
        "spiral": cmd_spiral,
        "solve": cmd_solve,
        "check-embed": cmd_check_embed,
        "export": cmd_export,
    }[args.command]
    try:
        return handler(cfg)
    except (RejectedParametersError, ValueError, OverflowError) as exc:
        print(f"error: parameters rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except NoProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
