"""Per-layer spans, taken from outside the library.

``Tracer.install`` wraps public functions by rebinding them in their
defining module, in every ``brinkmann`` module that imported them by name,
and (for methods) on their class. Each call becomes a span (layer, start,
end, parent span, op id) kept in flat arrays in memory; self times and
counts are worked out once the traced pass has ended. A layer's self time
is its spans' duration minus the time their child spans cover and minus the
tracer's own work around each child (bookkeeping and counting hooks), so a
change that only cuts calls does not show as a faster caller.

Targets marked ``outermost`` record only the outermost call of a recursion
(``expr.eval_jet`` walks the AST by calling itself).

Which end-to-end figure each layer should move:

* ``jets.*`` (mul, einsum, elem, coeff_products): ``throughput`` on all three
  workloads, each with its own jet shape.
* ``expr.eval_jet``, ``chart.*``, ``oracle.assemble``: ``transport``
  throughput; ``canonical`` should not move.
* ``transport.*``: ``transport`` throughput only.
* ``curvature.curvature_at``, ``oracle.frame_blocks``,
  ``oracle.coordinate_curvature``, ``classify.*``: ``classify`` throughput;
  ``transport`` and ``canonical`` should not move.
* ``canonical.*``: ``canonical`` throughput only.
* ``metricfile.load``, ``cli.report``: ``setup_s``, and ``classify``.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

ALL = ("classify", "transport", "canonical")
CLASSIFY = ("classify",)
TRANSPORT = ("transport",)
CANONICAL = ("canonical",)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``fires_on`` lists the workloads it must fire on."""

    layer: str
    module: str
    attr: str
    fires_on: tuple[str, ...]
    outermost: bool = False
    values_only: bool = False   # caller that keeps only values, never a jet inverse


TARGETS = (
    Target("jets.mul", "brinkmann.jets", "Jet.__mul__", ALL),
    Target("jets.mul", "brinkmann.jets", "Jet.__truediv__", ("classify",)),
    Target("jets.mul", "brinkmann.jets", "Jet.reciprocal", ("classify",)),
    Target("jets.mul", "brinkmann.jets", "pow_int", ALL),
    Target("jets.einsum", "brinkmann.jets", "jet_einsum", ("classify", "transport")),
    Target("jets.elem", "brinkmann.jets", "sin", ALL),
    Target("jets.elem", "brinkmann.jets", "cos", ALL),
    Target("jets.elem", "brinkmann.jets", "exp", CLASSIFY),
    Target("jets.elem", "brinkmann.jets", "sqrt", ()),
    Target("expr.eval_jet", "brinkmann.expr", "eval_jet", ALL, outermost=True),
    Target("chart.eval_metric", "brinkmann.chart", "eval_metric", ("classify", "transport")),
    Target("chart.jet_inverse", "brinkmann.chart", "jet_matrix_inverse",
           ("classify", "transport")),
    Target("oracle.assemble", "brinkmann.oracle", "assemble_coordinate_metric",
           ("classify", "transport")),
    Target("oracle.frame_blocks", "brinkmann.oracle", "frame_blocks_from_oracle", CLASSIFY),
    Target("oracle.coordinate_curvature", "brinkmann.oracle", "coordinate_curvature",
           ("classify", "transport")),
    Target("transport.christoffel", "brinkmann.transport", "christoffel_values", TRANSPORT,
           values_only=True),
    Target("transport.metric_values", "brinkmann.transport", "metric_values", TRANSPORT,
           values_only=True),
    Target("transport.null_velocity", "brinkmann.transport", "null_velocity", TRANSPORT,
           values_only=True),
    Target("transport.geodesic", "brinkmann.transport", "geodesic_integrate", TRANSPORT),
    Target("transport.parallel", "brinkmann.transport", "parallel_transport", TRANSPORT),
    Target("transport.nullsec", "brinkmann.transport", "null_sectional_growth", TRANSPORT),
    Target("transport.d0", "brinkmann.transport", "d0_transport", TRANSPORT, values_only=True),
    Target("curvature.curvature_at", "brinkmann.curvature", "curvature_at", CLASSIFY),
    Target("classify.evaluate_samples", "brinkmann.classify", "evaluate_samples", CLASSIFY),
    Target("classify.reports", "brinkmann.classify", "symmetry_order", CLASSIFY),
    Target("classify.reports", "brinkmann.classify", "check_theorem_redu", CLASSIFY),
    Target("classify.reports", "brinkmann.classify", "extract_A_tilde", CLASSIFY),
    Target("classify.reports", "brinkmann.classify", "eisenhart_split", CLASSIFY),
    Target("canonical.precompute", "brinkmann.canonical", "FlatBlockData.precompute",
           CANONICAL),
    Target("canonical.rotation_ode", "brinkmann.canonical", "solve_rotation_ode", CANONICAL),
    Target("canonical.recover_A", "brinkmann.canonical", "recover_A", CANONICAL),
    Target("canonical.translation_ode", "brinkmann.canonical", "solve_translation_ode",
           CANONICAL),
    Target("canonical.verify", "brinkmann.canonical", "verify_canonical", CANONICAL),
    Target("metricfile.load", "brinkmann.metricfile", "load_metric_file",
           ("classify", "transport")),
    Target("cli.report", "brinkmann.cli", "format_json", CLASSIFY, outermost=True),
)

# Layers reported as calls and self time; the rest report self time only.
COUNTED = ("jets.mul", "jets.einsum", "jets.elem", "expr.eval_jet", "chart.eval_metric",
           "chart.jet_inverse", "oracle.assemble", "transport.christoffel",
           "curvature.curvature_at", "oracle.frame_blocks", "oracle.coordinate_curvature",
           "canonical.precompute")
TIMED = COUNTED + ("transport.geodesic", "transport.parallel", "transport.nullsec",
                   "transport.d0", "classify.evaluate_samples", "classify.reports",
                   "canonical.rotation_ode", "canonical.recover_A",
                   "canonical.translation_ode", "canonical.verify", "metricfile.load",
                   "cli.report")


class TracerError(RuntimeError):
    """A target could not be wrapped: renamed, removed or no longer callable."""


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.hidden = array("d")    # tracer time spent around this span's children
        self.stack: list[int] = []
        self.op_id = -1
        self.fired: dict[Target, int] = {t: 0 for t in TARGETS}
        self.coeff_products = 0
        self.inverse_calls = self.inverse_wasted = 0
        self.u_points = 0
        self._values_only_depth = 0
        self._undo: list[tuple[object, str, object]] = []
        self._products_per_pair: dict[tuple[int, int], int] = {}

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        try:
            for target in TARGETS:
                owner, name = self._resolve(target)
                original = (owner.__dict__[name] if isinstance(owner, type)
                            else getattr(owner, name))
                self._rebind(original, self._wrap(target, original))
        except TracerError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _resolve(self, target: Target):
        module = sys.modules.get(target.module)
        owner, *path = [module] + target.attr.split(".")
        try:
            for part in path[:-1]:
                owner = getattr(owner, part)
            if not callable(getattr(owner, path[-1])):
                raise AttributeError(target.attr)
        except AttributeError:
            raise TracerError(f"cannot wrap {target.module}.{target.attr}: not found") from None
        return owner, path[-1]

    def _rebind(self, original, wrapper) -> None:
        """Point every brinkmann-level reference to ``original`` at ``wrapper``."""
        owners = [m for n, m in sys.modules.items()
                  if m is not None and (n == "brinkmann" or n.startswith("brinkmann."))]
        owners += [v for m in owners for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("brinkmann")]
        for owner in dict.fromkeys(owners):
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, name, original))
                    setattr(owner, name, wrapper)

    # -- spans -------------------------------------------------------------------------

    def _layer_code(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap(self, target: Target, fn):
        code = self._layer_code(target.layer)
        before, after = self._hooks(target)
        clock = time.perf_counter
        start, end, layer, parent, op, hidden, stack = (
            self.start, self.end, self.layer, self.parent, self.op, self.hidden, self.stack)
        fired = self.fired
        active = [0]
        tracer = self

        def wrapper(*args, **kwargs):
            if target.outermost and active[0]:
                return fn(*args, **kwargs)
            entered = clock()
            token = before(args) if before else None
            idx = len(start)
            up = stack[-1] if stack else -1
            layer.append(code)
            parent.append(up)
            op.append(tracer.op_id)
            end.append(0.0)
            hidden.append(0.0)
            stack.append(idx)
            active[0] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[0] -= 1
                stack.pop()
                fired[target] += 1
                if after:
                    after(args, token)
                if up >= 0:
                    hidden[up] += (start[idx] - entered) + (clock() - end[idx])

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, target: Target):
        """Counting done outside the span; ``hidden`` takes its time out of the caller's."""
        if target.values_only:
            def enter(args):
                self._values_only_depth += 1

            def leave(args, token):
                self._values_only_depth -= 1
            return enter, leave
        if target.attr == "Jet.__mul__":
            def products(args):
                a, b = args
                if hasattr(b, "ctx"):
                    shape = np.broadcast_shapes(a.data.shape[:-1], b.data.shape[:-1])
                    self.coeff_products += self._pair_products(a, b) * math.prod(shape)
            return products, None
        if target.attr == "jet_einsum":
            def products(args):
                subscripts, a, b = args
                s1, s2 = subscripts.replace(" ", "").split("->")[0].split(",")
                dims = dict(zip(s1, a.data.shape[:-1]))
                dims.update(zip(s2, b.data.shape[:-1]))
                self.coeff_products += self._pair_products(a, b) * math.prod(dims.values())
            return products, None
        if target.attr == "jet_matrix_inverse":
            def inverse(args):
                self.inverse_calls += 1
                self.inverse_wasted += self._values_only_depth > 0
            return inverse, None
        if target.attr == "FlatBlockData.precompute":
            # u values newly evaluated = growth of the sampler's private cache
            def cached(args):
                return len(args[0]._cache)

            def computed(args, before):
                self.u_points += len(args[0]._cache) - before
            return cached, computed
        return None, None

    def _pair_products(self, a, b) -> int:
        """Coefficient products of one truncated product of two jets."""
        from brinkmann import jets

        key = (a.ctx.nvars, min(a.ctx.order, b.ctx.order))
        if key not in self._products_per_pair:
            self._products_per_pair[key] = len(jets.context(*key).mul_flat()[0])
        return self._products_per_pair[key]

    # -- results -----------------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Wrapped functions that should have fired on ``workload`` but never did."""
        return [f"{t.module}.{t.attr} ({t.layer}) never fired on {workload}"
                for t in TARGETS if workload in t.fires_on and not self.fired[t]]

    def layer_totals(self, op: int | None = None) -> dict[str, tuple[int, float]]:
        """Per layer that ran (in op ``op``, if given): (calls, self seconds)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.uint16)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - covered - np.frombuffer(self.hidden, dtype=float)
        if op is not None:
            mine = np.frombuffer(self.op, dtype=np.int64) == op
            layer, own = layer[mine], own[mine]
        k = len(self.layers)
        calls = np.bincount(layer, minlength=k)
        self_s = np.bincount(layer, weights=own, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.layers) if calls[i]}

    def spans(self) -> dict[str, np.ndarray]:
        return {"layer_names": np.array(self.layers),
                "layer": np.frombuffer(self.layer, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "hidden": np.frombuffer(self.hidden, dtype=float),
                "op": np.frombuffer(self.op, dtype=np.int64)}
