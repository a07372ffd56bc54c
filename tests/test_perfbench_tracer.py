"""The benchmark's per-layer tracer (`perfbench/tracer.py`) patches names in
the package's modules; entering it fails if one of them is gone."""

import importlib.util
from pathlib import Path

from ifmkit import auditor, cli, contraction, solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_the_package_and_restores_it():
    modules = {"cli": cli, "auditor": auditor, "contraction": contraction, "solver": solver}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    with _tracer_module().Tracer(modules, "spans"):
        assert cli.write_trace_csv is not before["cli"]["write_trace_csv"]
        assert contraction._minimize_contraction_witness is not (
            before["contraction"]["_minimize_contraction_witness"])
    for name, module in modules.items():
        assert vars(module).keys() == before[name].keys(), name
        assert all(vars(module)[key] is value for key, value in before[name].items()), name
