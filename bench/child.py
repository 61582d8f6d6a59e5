"""In-process half of the benchmark: runs one workload's CLI commands through
`spiralforge.cli.main(argv)` in this (fresh) interpreter, on request.

    python3 bench/child.py <job.json>

After importing the package it prints "ready", then reads one request per
line from stdin and answers each with one JSON line on stdout:

untraced  run the workload's commands once; answer {wall, cpu, attempted,
          failures} (seconds of wall-clock and CPU time, both spanning the
          commands only; the output checks run after the timing);
traced    the same with spans around the package's public callables;
calibrate run the fixed reference work of `calibration`; answer {cpu}, its
          CPU seconds (the parent divides by these to take out the host's
          speed of the moment);
finish    write the spans (if any) and answer the report digests, the
          accuracy record, library versions and the per-layer metrics.

The parent puts the package's src/ on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time
import traceback

import numpy
import scipy
import scipy.linalg
import spiralforge
from spiralforge import cli

import spans as spanlib
from workloads import Checker, Command


def run_iteration(cmds, checker):
    outputs = []
    t0, c0 = time.perf_counter(), time.process_time()
    for cmd in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                # looked up at call time, so the traced wrapper applies
                rc = cli.main(cmd.argv)
            except SystemExit as exc:      # argparse rejects bad flags this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:              # a crash is a failed command, as in a cold run
                traceback.print_exc()
                rc = 1
        outputs.append((cmd, rc, buf.getvalue()))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    failures = [checker.check(cmd, rc, out) for cmd, rc, out in outputs]
    return {"wall": wall, "cpu": cpu, "attempted": len(cmds),
            "failures": [f for f in failures if f]}


def calibration():
    """Reference work that does not touch the package, so that its CPU time
    tracks only the host: a dense LU (as in u0's Newton steps), 3-vector
    array arithmetic on a (1025, 64, 3) field (as in Q) and byte-compiling
    Python source (as in interpreter start and import), about a third each.
    Inputs are fixed; returns a function that runs it once and gives its
    CPU seconds."""
    rng = numpy.random.default_rng(0)
    dense = rng.standard_normal((1024, 1024))
    field = rng.standard_normal((1025, 64, 3))
    source = "".join(f"def f{i}(x, y):\n    return [x * {i} + y for _ in range(3)]\n"
                     for i in range(600))

    def run():
        c0 = time.process_time()
        scipy.linalg.lu_factor(dense)
        for _ in range(10):
            v = numpy.cross(field, field[::-1])
            numpy.sqrt(v * v + 1.0, out=v)
            numpy.cumsum(v, axis=0)
        compile(source, "<calibration>", "exec")
        return time.process_time() - c0

    return run


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    cmds = [Command(**c) for c in job["commands"]]
    checker = Checker(job["reference"])
    tracer = spanlib.Tracer()
    run_walls = {}
    calibrate = calibration()
    print("ready", flush=True)
    for line in sys.stdin:
        request = line.strip()
        if request == "finish":
            break
        if request == "calibrate":
            print(json.dumps({"cpu": calibrate()}), flush=True)
            continue
        if request == "traced":
            tracer.run_id += 1
            tracer.install()
        try:
            answer = run_iteration(cmds, checker)
        finally:
            tracer.uninstall()
        if request == "traced":
            run_walls[tracer.run_id] = answer["wall"]
        print(json.dumps(answer), flush=True)

    final = {"digests": checker.digests, "accuracy": checker.accuracy,
             "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "spiralforge_file": spiralforge.__file__}}
    if run_walls:
        tracer.write(job["trace_path"])
        final["layers"] = spanlib.layer_metrics(tracer.spans, run_walls)
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
