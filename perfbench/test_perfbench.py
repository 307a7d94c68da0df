"""The benchmark's own test: every workload at minimal size, and gates that trip.

    python3 -m pytest perfbench/test_perfbench.py -q

It lives outside the library's test suite, so the library's tier-1 run does
not pay for it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"][:1] + [os.path.join(cwd, SPEC["command"][1])] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "throughput", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_gate(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    record = json.loads(done.stdout.splitlines()[-2])["record"]
    assert result["attempted"] >= 2 * len(record["per_op"])
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        import numpy as np

        spans = np.load(os.path.join(ROOT, record["spans_file"]))
        dur = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][nested], weights=dur[nested],
                              minlength=len(dur))
        own = dur - covered - spans["hidden"]
        names = list(spans["layer_names"])
        for layer in tracer.TIMED:
            mine = spans["layer"] == (names.index(layer) if layer in names else len(names))
            assert result["metrics"][f"{layer}.self_s"]["value"] == pytest.approx(
                float(np.sum(own[mine])), abs=1e-12)
        # the tracer's own work is taken out of self time, never added to it
        assert np.all(spans["hidden"] >= 0)
        assert np.all(own > -1e-6)
        assert own.sum() <= dur[~nested].sum() + 1e-9
    else:
        # every timed op was scaled by the reference chunks around it
        assert all(op["scaled_median_s"] > 0 for op in record["per_op"])
        assert record["unscaled"]["reference_s"] > 0


def test_setup_only_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "classify", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def _smoke_run(name: str, tmp_path) -> bench.Run:
    wl = workloads.FACTORIES[name](7, bench.METRICS, str(tmp_path), smoke=True)
    run = bench.Run(wl)
    run.closed_loop(0.0, deadline=float("inf"))
    return run


def test_classify_gate_trips_on_a_wrong_verdict(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_VERDICTS, "scrambled_cw4", "locally_symmetric")
    run = _smoke_run("classify", tmp_path)
    assert run.failed == 2  # both passes of the one op
    assert any("verdict 'proper_second_symmetric'" in f for f in run.failures)


def test_null_zero_cluster_fails_where_a_flat_cluster_exists(tmp_path):
    wl = workloads.FACTORIES["classify"](7, bench.METRICS, str(tmp_path), smoke=True)
    op = next(o for o in wl.ops if o.name == "check:scrambled_cw4")
    rc, out = op.run()
    assert op.check(rc, out)[0] == []
    report = json.loads(out)
    report["eisenhart"]["zero_cluster"] = None
    errors, _ = op.check(rc, json.dumps(report).encode())
    assert errors == ["null or non-finite value at .eisenhart.zero_cluster"]


def test_transport_gate_trips_on_a_wrong_rotation(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCRAMBLED_CW4_OMEGA", 0.31)
    run = _smoke_run("transport", tmp_path)
    assert run.failed == 2
    assert all(f.startswith("d0:scrambled_cw4: frame turned") for f in run.failures)


def test_canonical_gate_trips_on_a_wrong_spectrum(tmp_path, monkeypatch):
    # the seeded scramble is built from the patched wave and still passes;
    # the bundled scrambled_cw4 is not
    monkeypatch.setattr(workloads, "CW4_R2", (workloads.CW4_R2[0], 2 * workloads.CW4_R2[1]))
    run = _smoke_run("canonical", tmp_path)
    assert run.failed == 2
    assert all(f.startswith("reconstruct:scrambled_cw4: P(u) spectrum") for f in run.failures)


def test_output_that_changes_between_passes_fails(tmp_path):
    wl = workloads.FACTORIES["canonical"](7, bench.METRICS, str(tmp_path), smoke=True)
    op = wl.ops[0]
    calls = []

    def drifting():
        calls.append(1)
        rc, cf = original()
        cf.A_of_u[0, 0, 0] += len(calls) * 1e-9
        return rc, cf

    original, op.run = op.run, drifting
    run = bench.Run(wl)
    run.closed_loop(0.0, deadline=float("inf"))
    assert run.failures == [f"{op.name}: output bytes differ between passes"]


def test_wrapper_that_never_fires_is_an_error():
    t = tracer.Tracer()
    assert any("curvature_at" in m for m in t.missing("classify"))
    assert not any("curvature_at" in m for m in t.missing("canonical"))


def test_renamed_function_cannot_be_wrapped(monkeypatch):
    gone = tracer.Target("jets.mul", "brinkmann.jets", "Jet.no_such_method", ())
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    with pytest.raises(tracer.TracerError, match="no_such_method"):
        tracer.Tracer().install()
