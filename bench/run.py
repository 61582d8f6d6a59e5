"""spiralforge benchmark: cold CLI cost, in-process solve cost, set-up cost and
memory per workload, or (with --trace 1) per-module numbers from a traced run.

    python3 bench/run.py --workload solve-demo --seed 0 --seconds 40 --trace 0

Run from a source checkout: the package is imported from ./src.  Every
child gets SPIRALFORGE_THREADS=1 and the BLAS thread variables set to 1, and
children run one at a time (closed loop, one client).

--trace 0 reports (end-to-end metrics, each the median over its samples,
times scaled to the reference host speed as described below):
  setup_s      CPU time of a fresh interpreter that only runs
               `import spiralforge`;
  cold_cpu_s   CPU time of one cold workload iteration: every CLI command is
               a fresh process, spawn to exit, summed over the commands;
  work_cpu_s   CPU time of the same commands through
               spiralforge.cli.main(argv) in one long-lived child that has
               already imported the package, untraced;
  peak_rss_mb  the largest max-RSS of any child in a cold iteration.
Set-up samples, cold and in-process iterations interleave over the whole
run (SHARES), until the next one would overrun --seconds (counted from the
start; each series gets at least two samples), so that a slow spell of
the host falls on all of them alike.  CPU time
(os.wait4 for children, process_time in-process) rather than wall time is
gated, because hypervisor steal on a shared host moves wall time by up to
a third between runs; the wall-clock twins (setup_wall_s, cold_wall_s,
untraced_wall_s) are printed and recorded.

CPU time still follows the speed of a shared host, which drifts by 10-30%
over minutes.  So before every sample the in-process child runs a fixed
piece of reference work that does not touch the package
(child.calibration), and each gated time is multiplied by
host_speed = CALIBRATION_REF_S / median(calibration CPU time of this run):
it reads as seconds on a host as fast as the one the benchmark was written
on.  The raw medians and host_speed are in the record.

--trace 1 reads import times from `python -X importtime` and alternates
untraced and traced in-process iterations; spans around the package's
public callables (bench/spans.py) give the per-layer metrics, and the two
kinds of iteration give the tracing overhead.

Every command's outputs are checked (bench/workloads.py).  A command that
exits non-zero or fails a check counts in "failed" and stays in the
timings.  Stdout carries a summary per sample series (median, the highest
percentile with at least ten samples beyond it, sample count), then the
parameters, accuracy, every sample and the environment as one JSON line
(the record), and as its last line the result object.  Spans and records
go to bench/out/.

CPU frequency and the load of other tenants on a shared host are not
controlled; the record carries the steal share seen during the run.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, Checker, commands, params_for_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("SPIRALFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLI = "import sys; from spiralforge.cli import main; sys.exit(main())"
IMPORT_MODULES = ("helicoid", "numerics", "verify")
CHILD_TIMEOUT_S = 120

# share of a run's time each series of samples gets
SHARES = {0: {"setup": 0.15, "cold": 0.425, "untraced": 0.425},
          1: {"untraced": 0.5, "traced": 0.5}}
# CPU seconds of child.calibration() on the host the benchmark was written
# on (median, when that host ran at its usual speed); see measure()
CALIBRATION_REF_S = 0.12

# end-to-end metric: (sample series it is the median of, unit); the
# wall-clock twins of the CPU series stay in the record
END_TO_END = {"cold_cpu_s": ("cold_cpu_s", "s"), "work_cpu_s": ("untraced_cpu_s", "s"),
              "setup_s": ("setup_cpu_s", "s"), "peak_rss_mb": ("peak_rss_mb", "MB")}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Exited:
    wall: float       # spawn to exit, seconds
    cpu: float        # user + system CPU seconds of the child
    rss_mb: float     # the child's max resident set size
    rc: int
    out: str
    err: str


def spawn(argv, env, scratch):
    """Run one child to completion and reap it with os.wait4, which gives
    its own CPU time and max-RSS; a child still running after
    CHILD_TIMEOUT_S is killed."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text(errors="replace"),
                  err_path.read_text(errors="replace"))


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; None below eleven samples) and the sample count."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n > 10 else None
    tail = None
    if pct is not None and pct > 50:
        tail = {"pct": pct, "value": sorted(values)[math.ceil(pct * n / 100) - 1]}
    return {"median": statistics.median(values), "tail": tail, "n": n}


class InProcess:
    """The fresh interpreter (bench/child.py) that runs workload iterations
    through spiralforge.cli.main on request; see child.py for the protocol."""

    def __init__(self, job, env, scratch):
        job_path = scratch / "job.json"
        job_path.write_text(json.dumps(job))
        self._err_path = scratch / "in-process.err"
        self._err = open(self._err_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err, cwd=ROOT,
            text=True)
        self._killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._killer.start()
        try:
            if self._read() != "ready":
                raise BenchError("in-process child did not start")
        except BenchError as exc:
            self.__exit__(type(exc), exc, None)
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self._err.flush()
            err = self._err_path.read_text(errors="replace")
            raise BenchError(f"in-process child exited early:\n{err[-2000:]}")
        return line.strip()

    def request(self, what):
        """"untraced", "traced" or "finish"; returns the child's answer."""
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        return json.loads(self._read())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._killer.cancel()
        if self.proc.poll() is None and exc[0] is not None:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def import_only(env, scratch, *flags):
    done = spawn([sys.executable, *flags, "-c", "import spiralforge"], env, scratch)
    if done.rc != 0:
        raise BenchError(f"`import spiralforge` failed:\n{done.err[-2000:]}")
    return done


def cold_iteration(cmds, checker, env, scratch, hook=None):
    """One workload iteration, one fresh process per command: the wall and
    CPU time summed over the commands, and the largest child max-RSS.
    hook(cmd) runs after each command and before its outputs are checked."""
    done, failures = [], []
    for cmd in cmds:
        done.append(spawn([sys.executable, "-c", CLI] + cmd.argv, env, scratch))
        if hook is not None:
            hook(cmd)
        problem = checker.check(cmd, done[-1].rc, done[-1].out)
        if problem:
            failures.append(problem)
    return {"wall": sum(d.wall for d in done), "cpu": sum(d.cpu for d in done),
            "rss_mb": max(d.rss_mb for d in done), "attempted": len(cmds),
            "failures": failures}


def import_times(env, scratch, repeats):
    """Cumulative import time of selected package modules (seconds, median
    over `python -X importtime` runs)."""
    found = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        for line in import_only(env, scratch, "-X", "importtime").err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("spiralforge."):
                mod = parts[2].split(".", 1)[1]
                if mod in found:
                    found[mod].append(int(parts[1]) / 1e6)
    return {m: statistics.median(v) for m, v in found.items() if v}


def steal_ticks():
    """Hypervisor steal time of this machine so far, in clock ticks."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def environment(seed, versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "thread_caps": {v: "1" for v in THREAD_VARS},
            "seed": seed,
            "not_controlled": "CPU frequency and neighbour load on a shared host"}


def measure(workload, seed, seconds, trace, quick=False, hook=None):
    """One benchmark run; returns (record, result) where result is the
    final JSON object.  quick runs tiny grids (for the self-test); hook is
    passed to cold_iteration.

    `seconds` counts from the start.  The series of samples in SHARES[trace]
    interleave, the one furthest below its share of the time spent so far
    going next, until the next sample would overrun `seconds` (each series
    gets at least two): with trace 0 set-up samples, cold and in-process
    iterations, with trace 1 untraced and traced in-process iterations.
    """
    params = params_for_seed(seed)
    scratch = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = child_env()
    cmds = commands(workload, params, str(scratch), quick=quick)
    reference = REFERENCE.get(workload) if seed == DEFAULT_SEED and not quick else None
    checker = Checker(reference)
    trace_path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    job = {"commands": [vars(c) for c in cmds], "reference": reference,
           "trace_path": str(trace_path)}
    record = {"workload": workload, "params": params.record(), "quick": quick}
    min_samples = 1 if quick else 2
    shares = SHARES[trace]
    answers = {what: [] for what in shares}
    calibration = []
    t0, steal0 = time.perf_counter(), steal_ticks()
    try:
        with InProcess(job, env, scratch) as child:
            if trace:
                imports = import_times(env, scratch, 1 if quick else 3)
            spent = dict.fromkeys(shares, 0.0)
            deadline = t0 + seconds
            while True:
                what = min(shares, key=lambda s: spent[s] / shares[s])
                if (all(len(answers[s]) >= min_samples for s in shares)
                        and time.perf_counter() + answers[what][-1]["wall"] > deadline):
                    break
                if not trace:
                    calibration.append(child.request("calibrate")["cpu"])
                if what == "setup":
                    exited = import_only(env, scratch)
                    answers[what].append({"wall": exited.wall, "cpu": exited.cpu,
                                          "attempted": 0, "failures": []})
                elif what == "cold":
                    answers[what].append(cold_iteration(cmds, checker, env, scratch, hook))
                else:
                    answers[what].append(child.request(what))
                spent[what] += answers[what][-1]["wall"]
            final = child.request("finish")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.perf_counter() - t0

    done = [a for group in answers.values() for a in group]
    attempted = sum(a["attempted"] for a in done)
    failures = [f for a in done for f in a["failures"]]
    for name, digest in final["digests"].items():
        if checker.digests.get(name, digest) != digest:
            failures.append(f"{name}: report.txt differs between cold and in-process runs")
    samples = {f"{what}_{kind}_s": [a[kind] for a in group]
               for what, group in answers.items() if group for kind in ("wall", "cpu")}
    if trace:
        metrics = {f"{m}.import_s": (imports.get(m, 0.0), "s") for m in IMPORT_MODULES}
        metrics.update(final["layers"])
        metrics["trace.overhead_cpu_s"] = (statistics.median(samples["traced_cpu_s"])
                                           - statistics.median(samples["untraced_cpu_s"]), "s")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        samples.update({"peak_rss_mb": [a["rss_mb"] for a in answers["cold"]],
                        "calibration_cpu_s": calibration})
        record["host_speed"] = CALIBRATION_REF_S / statistics.median(calibration)
        metrics = {name: (statistics.median(samples[series])
                          * (record["host_speed"] if unit == "s" else 1.0), unit)
                   for name, (series, unit) in END_TO_END.items()}
    record["summary"] = {k: summary(v) for k, v in samples.items()}
    record["samples"] = samples
    record["accuracy"] = final["accuracy"]
    record["environment"] = environment(seed, final["versions"])
    record["environment"]["steal_share"] = (
        (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK") / elapsed)
    record["failures"] = failures[:20]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return record, result


def print_summary(record, result):
    print(f"workload {record['workload']}  params {json.dumps(record['params'])}")
    for name, s in record["summary"].items():
        tail = f"p{s['tail']['pct']} {s['tail']['value']:.4f}" if s["tail"] else "no tail (n < 11)"
        print(f"  {name:<18} median {s['median']:.4f}  {tail}  n = {s['n']}")
    if "trace_file" in record:
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    if "host_speed" in record:
        print(f"  host speed {record['host_speed']:.4f} (the gated times are scaled by it)")
    print(f"  steal share {record['environment']['steal_share']:.3f} of one CPU")
    print(f"  ops: {result['failed']} failed of {result['attempted']} attempted")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "spiralforge" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'spiralforge'}", file=sys.stderr)
        return 2
    try:
        record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print_summary(record, result)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
