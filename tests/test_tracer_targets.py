"""The benchmark's tracer wraps library functions by name: keep them resolvable.

``perfbench/run.py --trace 1`` raises ``TracerError`` when a target is
renamed or removed; these tests make such a rename fail here first.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from brinkmann.canonical import FlatBlockData, reconstruct
from brinkmann.ode import stage_grid
from brinkmann.spaces import fixture

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
METRICS = ROOT / "metrics"


@pytest.fixture()
def tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    for target in module.TARGETS:
        importlib.import_module(target.module)
    return module


def test_every_tracer_target_resolves(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()    # raises TracerError on a target it cannot wrap
    try:
        assert len(tracer._undo) >= len(tracer_module.TARGETS)
    finally:
        tracer.uninstall()


def test_precompute_cache_grows_by_the_evaluated_us(tracer_module):
    data = FlatBlockData(fixture("scrambled_cw4"), (0, 1))
    _, grid, _ = stage_grid(-0.2, 0.01, 30)
    data.precompute(grid)
    assert len(data._cache) == len(grid)
    # the tracer's canonical.precompute.u_points counts the same growth
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        reconstruct(fixture("scrambled_cw4"), u_interval=(-0.2, 0.1), steps=40)
    finally:
        tracer.uninstall()
    assert tracer.u_points == 2 * 40 + 1
    fired = {t.attr: n for t, n in tracer.fired.items() if t.module == "brinkmann.canonical"}
    assert fired == {"FlatBlockData.precompute": 1, "solve_rotation_ode": 1, "recover_A": 1,
                     "solve_translation_ode": 1, "verify_canonical": 1}


def test_transport_workload_fires_every_transport_target(tracer_module, tmp_path, monkeypatch):
    # the four transport experiments of the benchmark, at its smoke size of 20 steps
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.build_transport(0, str(METRICS), str(tmp_path), smoke=True)
    assert [op.work for op in wl.ops] == [20] * 4
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        exit_codes = [op.run()[0] for op in wl.ops]
    finally:
        tracer.uninstall()
    assert exit_codes == [0] * 4
    assert tracer.missing("transport") == []
    # Gamma and the metric values come from the compiled tape: no jet inverse is wasted
    assert tracer.inverse_calls > 0 and tracer.inverse_wasted == 0
