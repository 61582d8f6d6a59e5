"""The traced benchmark (bench/run.py --trace 1) patches the package by the
names in bench/spans.py: every traced target must exist, and the writers'
spans read the output path as their second positional argument."""

import importlib
import inspect
from pathlib import Path

import pytest

from spiralforge import verify

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    """bench/spans.py as a namespace, compiled from its text so that nothing
    is written next to it."""
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


SPANS_NS = _load_spans()
TRACED = SPANS_NS["TRACED"]


@pytest.mark.parametrize("name, module, attr", TRACED, ids=[t[0] for t in TRACED])
def test_traced_target_exists(name, module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))


@pytest.mark.parametrize("writer", ["write_obj", "write_csv"])
def test_writers_take_the_path_second(writer):
    params = list(inspect.signature(getattr(verify, writer)).parameters.values())
    assert params[1].kind in (params[1].POSITIONAL_ONLY, params[1].POSITIONAL_OR_KEYWORD)
    assert params[1].default is params[1].empty


def test_traced_export_records_the_file_sizes(demo_solve, tmp_path):
    from spiralforge import solver

    _, ws, state = demo_solve
    u = solver.graph_values(ws, state)
    for _, module, _ in TRACED:
        importlib.import_module(module)
    tracer = SPANS_NS["Tracer"]()
    tracer.install()
    try:
        verify.export_mesh(ws.spec, ws.grid, u, tmp_path / "m.obj", tmp_path / "m.csv",
                           (8, 8))
    finally:
        tracer.uninstall()
    sizes = {sp["name"]: sp.get("bytes") for sp in tracer.spans}
    assert "verify.build_mesh" in sizes
    assert sizes["verify.write_obj"] == (tmp_path / "m.obj").stat().st_size > 0
    assert sizes["verify.write_csv"] == (tmp_path / "m.csv").stat().st_size > 0
