"""Benchmark of the brinkmann library: one workload, one seed, one run.

    python3 perfbench/run.py --workload {classify,transport,canonical} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the library is imported from
``src/`` and the bundled metrics from ``metrics/``. The loop is closed and
single-process: one client, and the next op starts when the previous one
has ended. Every op runs at least twice, so each op's output bytes are
compared across two passes; ops then keep cycling until ``--seconds`` have
been measured.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time before the first
  timed op (importing brinkmann, generating and parsing the inputs,
  building the jet contexts).
* ``throughput``: work delivered per second, from the median time of each
  op (classify: sample points; transport: trajectory nodes; canonical:
  u-grid nodes).
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Both times are given at a nominal host speed. A fixed reference chunk runs
before and after each set-up probe, and before, every 0.1 s during, and
after each timed op; the time of the probe or op is scaled by
``REFERENCE_S`` over the chunks' mean time (see ``reference.py``). The
shared host's speed drifts by a third within minutes; the scaled times do
not follow it. The raw times are in the record line.

``--trace 1`` runs one untraced pass and then one pass with every layer
wrapped (see ``tracer.py``), and reports per-layer calls, self times and
counts, the tracing overhead, and the accuracy figures. Its spans are
written to ``.perfbench_work/spans-<workload>.npz`` (the last traced
run of each workload; the record line names its seed).

The last line of standard output is the JSON result; the line before it
is a JSON record of the environment, the per-op timings, the accuracy
figures and any gate failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
METRICS = os.path.join(ROOT, "metrics")
WORK = os.path.join(ROOT, ".perfbench_work")

# BLAS/OpenMP pools, pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MIN_PASSES = 2
SETUP_PROBES = 9
# Reference chunks run before and after each set-up probe.
PROBE_CHUNKS = 10
PROBE_TIMEOUT_S = 60
# No op starts after this many seconds, so a run ends well inside 180 s.
RUN_BUDGET_S = 140.0


def locate_library() -> None:
    if not (os.path.isfile(os.path.join(SRC, "brinkmann", "__init__.py"))
            and os.path.isdir(METRICS)):
        raise SystemExit(f"perfbench: no brinkmann source tree (src/, metrics/) under {ROOT}")
    sys.path[:0] = [SRC, HERE]


def setup(workload: str, seed: int, work_dir: str, smoke: bool):
    """Everything a run does before its first timed op."""
    import brinkmann
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(brinkmann.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported brinkmann from {brinkmann.__file__}, not {SRC}")
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.FACTORIES[workload](seed, METRICS, work_dir, smoke)
    wl.warm_up()
    return wl


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process, the way a CLI user pays it, raw and
    scaled to the reference speed."""
    import reference

    chunks = reference.measure(PROBE_CHUNKS)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    raw = float(done.stdout.strip().splitlines()[-1])
    chunks += reference.measure(PROBE_CHUNKS)
    return raw, raw * reference.scale(chunks)


class Run:
    """Timings, gate results and determinism bookkeeping of one run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.times: list[list[float]] = [[] for _ in wl.ops]
        # Op times scaled to the reference speed (closed_loop only).
        self.scaled: list[list[float]] = [[] for _ in wl.ops]
        self.reference_s: list[float] = []
        self.first: list[tuple[int, bytes] | None] = [None] * len(wl.ops)
        self.first_errors: list[list[str]] = [[] for _ in wl.ops]
        self.accuracy: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = self.failed = 0

    def execute(self, i: int, sampled: bool = False) -> float:
        """Run op ``i`` once; ``sampled`` also scales its time to the reference speed."""
        import reference

        op = self.wl.ops[i]
        with reference.Clock(sampled) as clock:
            try:
                rc, payload = op.run()
            except Exception:  # an op that raises is a failed op, not a crashed run
                rc, payload = -1, traceback.format_exc().encode()
        dt = clock.elapsed
        if sampled:
            self.scaled[i].append(dt * clock.scale)
            self.reference_s += clock.chunks
        try:
            result = (rc, payload if rc == -1 else op.encode(payload))
        except Exception:
            result = (-1, traceback.format_exc().encode())
        self.attempted += 1
        self.times[i].append(dt)
        if self.first[i] is None:
            self.first[i] = result
            self.first_errors[i] = self._check(op, result)
            errors = self.first_errors[i]
        elif result != self.first[i]:
            errors = ["output bytes differ between passes"]
        else:
            errors = self.first_errors[i]
        if errors:
            self.failed += 1
            self.failures.extend(f"{op.name}: {e}" for e in errors)
        return dt

    def _check(self, op, result) -> list[str]:
        rc, out = result
        if rc == -1:
            return [out.decode().strip().splitlines()[-1]]
        try:
            errors, accuracy = op.check(rc, out)
        except Exception:
            return ["gate raised: " + traceback.format_exc().strip().splitlines()[-1]]
        for key, value in accuracy.items():
            if key == "verdict_mismatches":
                self.accuracy[key] = self.accuracy.get(key, 0.0) + value
            else:
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)
        return errors

    def closed_loop(self, seconds: float, deadline: float,
                    between: Callable[[int], None] | None = None) -> None:
        """Cycle the ops: at least MIN_PASSES passes, then until ``seconds`` are measured.

        Each op's time is also scaled to the reference speed.
        ``between(k)`` runs untimed before the k-th op.
        """
        n = len(self.wl.ops)
        measured = 0.0
        k = 0
        while k < MIN_PASSES * n or measured < seconds:
            if time.perf_counter() > deadline:
                if k < MIN_PASSES * n:
                    self.failures.append(f"run budget exhausted after {k} of "
                                         f"{MIN_PASSES * n} ops")
                    self.failed += 1
                break
            if between:
                between(k)
            measured += self.execute(k % n, sampled=True)
            k += 1

    def throughput(self, times: list[list[float]]) -> float:
        work = sum(op.work for op in self.wl.ops)
        return work / sum(statistics.median(t) for t in times)

    def per_op(self) -> list[dict]:
        return [{"op": op.name, "work": op.work, "runs": len(t),
                 "median_s": statistics.median(t), "min_s": min(t), "max_s": max(t),
                 "scaled_median_s": statistics.median(s) if s else None}
                for op, t, s in zip(self.wl.ops, self.times, self.scaled) if t]


def traced_pass(run: Run, spans_path: str) -> tuple[dict[str, float], dict]:
    """One pass with every layer wrapped: the per-layer metrics, and per op
    the (calls, self seconds) of every layer that ran in it."""
    import tracer as tr

    wl = run.wl
    untraced = sum(run.times[i][0] for i in range(len(wl.ops)))
    t = tr.Tracer()
    try:
        t.install()
    except tr.TracerError as err:
        run.failures.append(str(err))
        run.failed += 1
        return {}, {}
    try:
        traced = 0.0
        for i in range(len(wl.ops)):
            t.op_id = i
            traced += run.execute(i)
    finally:
        t.uninstall()
    missing = t.missing(wl.name)
    run.failures.extend(missing)
    run.failed += bool(missing)
    import numpy as np
    np.savez(spans_path, ops=np.array([op.name for op in wl.ops]), **t.spans())
    totals = t.layer_totals()
    by_op = {op.name: t.layer_totals(op=i) for i, op in enumerate(wl.ops)}
    metrics: dict[str, float] = {}
    for layer in tr.COUNTED:
        metrics[f"{layer}.calls"] = totals.get(layer, (0, 0.0))[0]
    for layer in tr.TIMED:
        metrics[f"{layer}.self_s"] = totals.get(layer, (0, 0.0))[1]
    work = sum(op.work for op in wl.ops)
    metrics["jets.coeff_products"] = t.coeff_products
    metrics["chart.jet_inverse.useful_ratio"] = (
        1.0 - t.inverse_wasted / t.inverse_calls if t.inverse_calls else 1.0)
    metrics["canonical.precompute.u_points"] = t.u_points
    metrics["transport.christoffel_per_node"] = (
        totals.get("transport.christoffel", (0, 0.0))[0] / work if wl.name == "transport" else 0.0)
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, by_op


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(), "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


UNITS = {"calls": "count", "self_s": "s", "coeff_products": "count", "useful_ratio": "ratio",
         "u_points": "count", "christoffel_per_node": "calls/node", "overhead_ratio": "ratio",
         "verdict_mismatches": "count", "d0_angle_error": "rad"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "1")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("classify", "transport", "canonical"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal inputs, for the benchmark's own test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t_process = time.perf_counter()
    args = parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # set-up probes inherit it
    locate_library()
    work_dir = os.path.join(WORK, str(os.getpid()))
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            setup(args.workload, args.seed, work_dir, args.smoke)
            print(repr(time.perf_counter() - t0))
            return 0
        import workloads

        wl = setup(args.workload, args.seed, work_dir, args.smoke)
        run = Run(wl)
        deadline = t_process + RUN_BUDGET_S
        setup_samples: list[tuple[float, float]] = []
        raw = {}
        spans_path = None
        if args.trace:
            for i in range(len(wl.ops)):
                run.execute(i)
            spans_path = os.path.join(WORK, f"spans-{args.workload}.npz")
            metrics, layers_by_op = traced_pass(run, spans_path)
            for key in workloads.ACCURACY_KEYS:
                metrics[f"accuracy.{key}"] = run.accuracy.get(key, 0.0)
        else:
            layers_by_op = None
            # Probes spread over the first passes sample the machine at the
            # same moments as the ops, not in one burst before them.
            slots = [j * MIN_PASSES * len(wl.ops) // SETUP_PROBES for j in range(SETUP_PROBES)]

            def probe(k: int) -> None:
                setup_samples.extend(probe_setup(args) for _ in range(slots.count(k)))

            run.closed_loop(args.seconds, deadline, probe)
            raw = {"setup_s": statistics.median(s[0] for s in setup_samples),
                   "throughput": run.throughput(run.times),
                   "reference_s": statistics.median(run.reference_s)}
            metrics = {"setup_s": statistics.median(s[1] for s in setup_samples),
                       "throughput": run.throughput(run.scaled),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    correct = run.failed == 0
    record = {"workload": wl.name, "work_unit": workloads.WORK_UNITS[wl.name],
              "environment": environment(args.seed), "unscaled": raw,
              "setup_samples_s": setup_samples,
              "per_op": run.per_op(), "accuracy": run.accuracy,
              "failures": run.failures[:50]}
    if layers_by_op is not None:
        record["layers_by_op"] = layers_by_op
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps({"record": record}))
    units = {"setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)}
                    for k, v in metrics.items()}}))
    for line in run.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
