"""In-memory spans around the package's public callables, and the per-layer
metrics derived from them.

The package is not modified: `install` replaces each traced callable with
a wrapper wherever a spiralforge module binds it (and patches methods on
their class), so calls the package makes by name at call time are
recorded.  `uninstall` restores the originals.
"""

import json
import os
import statistics
import sys
import time

# (span name, module, attribute); "Class.method" patches the method on the class
TRACED = (
    ("cli.main", "spiralforge.cli", "main"),
    ("solver.solve_minimal", "spiralforge.solver", "solve_minimal"),
    ("solver.workspace", "spiralforge.solver", "Workspace.__init__"),
    ("solver.psi_step", "spiralforge.solver", "psi_step"),
    ("solver.linear_solve", "spiralforge.solver", "linear_solve"),
    ("bent.surface", "spiralforge.bent", "BentSurface.__init__"),
    ("bent.q_operator", "spiralforge.bent", "BentSurface.q_operator"),
    ("bent.graph_jet", "spiralforge.bent", "BentSurface.graph_jet"),
    ("bent.solve_u0", "spiralforge.bent", "solve_u0"),
    ("jets.mean_curvature", "spiralforge.jets", "mean_curvature"),
    ("numerics.grid", "spiralforge.numerics", "Grid.__init__"),
    ("verify.check_self_similarity", "spiralforge.verify", "check_self_similarity"),
    ("verify.check_embedded", "spiralforge.verify", "check_embedded"),
    ("verify.build_mesh", "spiralforge.verify", "build_mesh"),
    ("verify.write_obj", "spiralforge.verify", "write_obj"),
    ("verify.write_csv", "spiralforge.verify", "write_csv"),
)


class Tracer:
    """Span recorder: (name, start, end, parent index, run id) per call,
    plus a few values read off arguments and results."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = 0
        self._restore = []

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "run": tracer.run_id}
            spans.append(span)
            stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            tracer._annotate(span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @staticmethod
    def _annotate(span, args, result):
        name = span["name"]
        if name == "bent.solve_u0":
            span["newton_iters"] = int(result.iterations)
        elif name == "solver.solve_minimal":
            span["iterations"] = int(result[0].iterations)
        elif name in ("verify.write_obj", "verify.write_csv"):
            span["bytes"] = os.path.getsize(args[1])

    def install(self):
        for name, module, attr in TRACED:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig)
            package = [m for mod_name, m in sys.modules.items()
                       if mod_name == "spiralforge" or mod_name.startswith("spiralforge.")]
            for other in package:
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)
                        self._restore.append((other, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and properly nested, so the children of a span
    are disjoint and their durations simply add.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


def layer_metrics(spans, run_walls):
    """Per-layer metrics of one traced workload; run_walls maps each traced
    iteration's run id to its wall time.

    Per-call times are the median over workload iterations of (time in the
    layer / calls to it); a layer not reached on this workload reads 0.
    Counts are per workload iteration (median over iterations).  The
    top-level share is the part of each iteration's wall time that spans
    directly under the CLI commands cover.
    """
    selfs = self_times(spans)
    by_run = {r: [] for r in run_walls}
    for i, sp in enumerate(spans):
        by_run[sp["run"]].append(i)

    def per_call(name, self_time=False, parent=None):
        vals = []
        for idx in by_run.values():
            hits = [i for i in idx if spans[i]["name"] == name and (
                parent is None or (spans[i]["parent"] is not None
                                   and spans[spans[i]["parent"]]["name"] == parent))]
            if hits:
                total = sum(selfs[i] if self_time else spans[i]["end"] - spans[i]["start"]
                            for i in hits)
                vals.append(total / len(hits))
        return statistics.median(vals) if vals else 0.0

    def per_run(fn):
        return statistics.median(fn(idx) for idx in by_run.values())

    def count(name):
        return per_run(lambda idx: sum(spans[i]["name"] == name for i in idx))

    def field_sum(name, key):
        return per_run(lambda idx: sum(spans[i].get(key, 0) for i in idx
                                       if spans[i]["name"] == name))

    def field_mean(name, key):
        def one(idx):
            vals = [spans[i][key] for i in idx if spans[i]["name"] == name]
            return statistics.fmean(vals) if vals else 0
        return per_run(one)

    def top_level_share(run):
        covered = sum(spans[i]["end"] - spans[i]["start"] for i in by_run[run]
                      if spans[i]["parent"] is not None
                      and spans[spans[i]["parent"]]["name"] == "cli.main")
        return covered / run_walls[run]

    n_solves = max(count("solver.solve_minimal"), 1)
    return {
        "cli.commands": (count("cli.main"), "count"),
        "solver.solve_calls": (count("solver.solve_minimal"), "count"),
        "numerics.grid_s": (per_call("numerics.grid"), "s"),
        "bent.surface_s": (per_call("bent.surface"), "s"),
        "bent.solve_u0_s": (per_call("bent.solve_u0"), "s"),
        "bent.u0_newton_iters": (field_mean("bent.solve_u0", "newton_iters"), "count"),
        "bent.q_operator_s": (per_call("bent.q_operator"), "s"),
        "bent.q_operator_calls": (count("bent.q_operator") / n_solves, "count"),
        "bent.graph_jet_s": (per_call("bent.graph_jet"), "s"),
        "jets.mean_curvature_s": (per_call("jets.mean_curvature",
                                           parent="bent.q_operator"), "s"),
        "solver.workspace_s": (per_call("solver.workspace"), "s"),
        "solver.workspace_self_s": (per_call("solver.workspace", self_time=True), "s"),
        "solver.linear_solve_s": (per_call("solver.linear_solve"), "s"),
        "solver.psi_step_s": (per_call("solver.psi_step", self_time=True), "s"),
        "solver.iterations": (field_mean("solver.solve_minimal", "iterations"), "count"),
        "solver.solve_minimal_s": (per_call("solver.solve_minimal"), "s"),
        "verify.check_self_similarity_s": (per_call("verify.check_self_similarity"), "s"),
        "verify.build_mesh_s": (per_call("verify.build_mesh"), "s"),
        "verify.write_obj_s": (per_call("verify.write_obj"), "s"),
        "verify.write_csv_s": (per_call("verify.write_csv"), "s"),
        "verify.obj_bytes": (field_sum("verify.write_obj", "bytes"), "bytes"),
        "verify.csv_bytes": (field_sum("verify.write_csv", "bytes"), "bytes"),
        "verify.check_embedded_s": (per_call("verify.check_embedded"), "s"),
        "trace.top_level_share": (statistics.median(map(top_level_share, by_run)), "ratio"),
    }
