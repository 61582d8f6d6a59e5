"""Workload definitions, seeded inputs and per-command output checks.

Standard library only: the orchestrating process never imports numpy or
the package, so its own start-up and memory stay out of the measurements.
"""

import hashlib
import os
import random
from dataclasses import dataclass, field

DELTA = "1e-3"
ELL = "32"

# grid (n_s, n_theta) and the CLI commands of one workload iteration, in order
WORKLOADS = {
    # README demo: 32 theta modes, so Q, the per-mode factorizations and the
    # self-similarity audit dominate; u0 and the 64^2 mesh are small
    "solve-demo": {"grid": (1024, 64), "commands": ("solve",)},
    # long thin grid: u0's dense Newton Jacobian and Grid's stencil set-up
    # dominate; only four theta modes, so Q and the factorizations are small
    "solve-fine-s": {"grid": (4096, 8), "commands": ("solve",)},
    # four cold starts and three identical small solves; mesh build and the
    # OBJ/CSV writes dominate, so Q or factorization changes should not show
    "pipeline-export": {"grid": (512, 8),
                        "commands": ("spiral", "solve", "check-embed", "export")},
}

# small grid for the harness self-test; coarser grids miss the residual gate
QUICK_GRID = (512, 8)

DEFAULT_MESH = 64          # the CLI's default mesh resolution, one period
EXPORT_MESH = (256, 2)     # export --mesh-resolution 256 --periods 2
QUICK_EXPORT_MESH = (16, 2)

MAX_RESIDUAL = 1e-10
MAX_DEFECT = 1e-13

# b_x and norm_v of the default seed, recorded at the commit that added the
# benchmark (one BLAS thread, x86-64, numpy 2.4.6, scipy 1.17.1).  Each solve
# converges to an interior residual below 1e-10, so a relative change beyond
# REFERENCE_TOL means the answer moved, not the rounding.
DEFAULT_SEED = 0
REFERENCE = {
    "solve-demo": {"b_x": 0.044065090453523054, "norm_v": 0.6967186767399669},
    "solve-fine-s": {"b_x": 0.04400025353724115, "norm_v": 0.69572120746283284},
    "pipeline-export": {"b_x": 0.047183172690035372, "norm_v": 0.69857373826839142},
}
REFERENCE_TOL = 1e-9       # relative


@dataclass
class Params:
    """Spiral parameters of one seed, as passed to the CLI."""
    seed: int
    kappa0: str
    tau0: str
    xi: str
    embed_seed: int

    def spiral_flags(self):
        return ["--kappa0", self.kappa0, "--tau0", self.tau0, "--xi", self.xi,
                "--delta", DELTA, "--ell", ELL]

    def record(self):
        return {"seed": self.seed, "kappa0": float(self.kappa0),
                "tau0": float(self.tau0), "xi": float(self.xi),
                "delta": float(DELTA), "ell": float(ELL),
                "check_embed_seed": self.embed_seed}


def params_for_seed(seed):
    """kappa0 in [0.8, 1.2], tau0 in [0, 0.8], xi in [0.9, 1.2]; every corner
    of this box passes the solve gates and converges in 4-5 iterations."""
    rng = random.Random(seed)
    return Params(seed=seed,
                  kappa0=f"{rng.uniform(0.8, 1.2):.6f}",
                  tau0=f"{rng.uniform(0.0, 0.8):.6f}",
                  xi=f"{rng.uniform(0.9, 1.2):.6f}",
                  embed_seed=rng.randrange(2 ** 31))


@dataclass
class Command:
    """One CLI invocation and what its outputs must look like."""
    name: str
    argv: list
    out_dir: str = None
    mesh: tuple = None     # (resolution, periods) of the OBJ/CSV it writes
    writes_report: bool = False


def commands(workload, params, work_dir, quick=False):
    n_s, n_theta = QUICK_GRID if quick else WORKLOADS[workload]["grid"]
    grid = ["--ns", str(n_s), "--ntheta", str(n_theta)]
    export_res, export_periods = QUICK_EXPORT_MESH if quick else EXPORT_MESH
    solve_mesh = QUICK_EXPORT_MESH[0] if quick else DEFAULT_MESH
    out = []
    for name in WORKLOADS[workload]["commands"]:
        argv = [name] + params.spiral_flags()
        if name == "spiral":
            out.append(Command(name, argv))
        elif name == "solve":
            d = os.path.join(work_dir, "solve")
            mesh = ["--mesh-resolution", str(solve_mesh)] if quick else []
            out.append(Command(name, argv + grid + mesh + ["--out", d], d,
                               (solve_mesh, 1), writes_report=True))
        elif name == "check-embed":
            out.append(Command(name, argv + grid + ["--seed", str(params.embed_seed)]))
        elif name == "export":
            d = os.path.join(work_dir, "export")
            out.append(Command(name, argv + grid + [
                "--mesh-resolution", str(export_res), "--periods", str(export_periods),
                "--out", d], d, (export_res, export_periods)))
    return out


def parse_report(text):
    """The [report] section of report.txt as a dict of strings."""
    values = {}
    for line in text.split("\n\n", 1)[0].splitlines()[1:]:
        key, _, val = line.partition(" = ")
        values[key] = val
    return values


ACCURACY_KEYS = ("b_x", "b_y", "norm_v", "final_interior_residual",
                 "self_similarity_defect", "iterations")


@dataclass
class Checker:
    """Checks each command's outputs; remembers report digests per command
    so that repetitions of one seed must produce byte-identical reports.
    With a reference (the default seed on full grids), b_x and norm_v must
    also match the recorded values."""
    reference: dict = None
    digests: dict = field(default_factory=dict)
    accuracy: dict = None

    def check(self, cmd, rc, stdout):
        """None when the command's outputs are right, else what is wrong."""
        if rc != 0:
            return f"{cmd.name}: exit code {rc}"
        errors = []
        if cmd.name == "spiral" and "generator invariants" not in stdout:
            errors.append("spiral: no invariants line")
        if cmd.name == "check-embed" and "embeddedness verdict: certified" not in stdout:
            errors.append("check-embed: verdict is not certified")
        if cmd.writes_report:
            errors += self._check_report(cmd)
        if cmd.mesh is not None:
            errors += check_mesh(cmd)
        return "; ".join(errors) or None

    def _check_report(self, cmd):
        try:
            with open(os.path.join(cmd.out_dir, "report.txt"), "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return [f"{cmd.name}: {exc}"]
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault(cmd.name, digest)
        errors = [] if first == digest else [f"{cmd.name}: report.txt differs between repetitions"]
        rep = parse_report(raw.decode(errors="replace"))
        try:
            if rep.get("converged") != "true":
                errors.append(f"{cmd.name}: converged = {rep.get('converged')}")
            if rep.get("embed_verdict") != "certified":
                errors.append(f"{cmd.name}: embed_verdict = {rep.get('embed_verdict')}")
            if not float(rep["final_interior_residual"]) <= MAX_RESIDUAL:
                errors.append(f"{cmd.name}: residual {rep['final_interior_residual']}")
            if not float(rep["self_similarity_defect"]) <= MAX_DEFECT:
                errors.append(f"{cmd.name}: defect {rep['self_similarity_defect']}")
            acc = {k: float(rep[k]) for k in ACCURACY_KEYS}
        except (KeyError, ValueError) as exc:
            return errors + [f"{cmd.name}: malformed report ({exc!r})"]
        self.accuracy = acc
        for key, want in (self.reference or {}).items():
            if abs(acc[key] - want) > REFERENCE_TOL * abs(want):
                errors.append(f"{cmd.name}: {key} = {acc[key]!r}, recorded {want!r}")
        return errors


def check_mesh(cmd):
    """OBJ vertex/face counts and CSV rows must match resolution x periods."""
    res, periods = cmd.mesh
    n_vert = res * res * periods
    n_face = 2 * (res - 1) * (res * periods - 1)
    try:
        with open(os.path.join(cmd.out_dir, "surface.obj"), "rb") as fh:
            obj = fh.read()
        with open(os.path.join(cmd.out_dir, "fields.csv"), "rb") as fh:
            csv_rows = fh.read().count(b"\n") - 1
    except OSError as exc:
        return [f"{cmd.name}: {exc}"]
    got_v = obj.count(b"\nv ") + obj.startswith(b"v ")
    got_f = obj.count(b"\nf ")
    errors = []
    if (got_v, got_f) != (n_vert, n_face):
        errors.append(f"{cmd.name}: OBJ has {got_v} vertices / {got_f} faces, "
                      f"expected {n_vert} / {n_face}")
    if csv_rows != n_vert:
        errors.append(f"{cmd.name}: CSV has {csv_rows} rows, expected {n_vert}")
    return errors
