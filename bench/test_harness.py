"""Self-test of the benchmark harness on tiny grids.

    python3 -m pytest bench/test_harness.py -q

Checks that a quick run passes its own output checks, that a corrupted
output counts as a failed operation, that every metric BENCHMARK.json names
is reported with its unit, and that the benchmark refuses to run without
the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def reported(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_quick_run_reports_every_end_to_end_metric():
    record, result = run.measure("pipeline-export", seed=3, seconds=1, trace=0, quick=True)
    assert result["failed"] == 0, record["failures"]
    assert result["correct"] is True
    assert result["attempted"] >= 8          # four commands, cold and warm
    assert reported(result) == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["host_speed"] > 0
    assert record["accuracy"]["final_interior_residual"] <= 1e-10


def test_quick_traced_run_reports_every_per_layer_metric():
    record, result = run.measure("pipeline-export", seed=3, seconds=1, trace=1, quick=True)
    assert result["failed"] == 0, record["failures"]
    assert reported(result) == units(SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.commands"] == 4 and m["solver.solve_calls"] == 3
    assert m["verify.check_embedded_s"] > 0 and m["verify.obj_bytes"] > 0
    # on tiny grids CLI parsing and the spiral table are a visible share;
    # the full-size workloads cover at least 90%
    assert 0.5 < m["trace.top_level_share"] < 1.5


def test_corrupted_output_counts_as_failed():
    def truncate_obj(cmd):
        if cmd.mesh is not None:
            with open(Path(cmd.out_dir) / "surface.obj", "r+b") as fh:
                fh.truncate(100)

    record, result = run.measure("solve-demo", seed=3, seconds=1, trace=0, quick=True,
                                 hook=truncate_obj)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert any("OBJ has" in f for f in record["failures"])


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve-demo",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
