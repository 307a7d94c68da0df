"""The three benchmark workloads: seeded inputs, the ops, and their gates.

Every op drives the library through a public entry point (``cli.main`` or
``canonical.reconstruct``) and returns its exit code and output bytes.
Each op's ``check`` turns those bytes into gate failures (empty when the op
passed) plus accuracy figures, so an op that got faster by losing digits
fails instead of counting as a speed-up.

Workloads and why they were chosen:

* ``classify``: ``check`` at 4 samples + centre, depth 2, on the bundled
  metrics plus two seeded ones. Engine and oracle at jet order 5 in
  dimensions 4-6: small batches, high-order jets. No transport or
  canonical code runs.
* ``transport``: four ``transport`` runs from seeded start points. Thousands
  of order 0-2 metric evaluations, where per-call overhead dominates. The
  curvature engine never runs.
* ``canonical``: ``reconstruct`` at its default step count on bundled and
  seeded scrambled plane waves. Batched order-3 jets over thousands of u
  values plus small-matrix RK4 stages. The engine and oracle never run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from brinkmann import cli, expr, jets, metricfile, spaces
from brinkmann.canonical import reconstruct
from brinkmann.chart import MetricSpec

WORKLOADS = ("classify", "transport", "canonical")

ENGINE_ORACLE_TOL = 1e-8
GEODESIC_DRIFT_TOL = 1e-7
NULLSEC_SECOND_DIFF_TOL = 1e-6
D0_ORTHONORMAL_TOL = 1e-9
D0_ANGLE_TOL = 1e-9
CANONICAL_RESIDUAL_TOL = 1e-8
SPECTRUM_TOL = 1e-6

# Rotation rate injected into the bundled scrambled_cw4 chart: transverse
# transport along E_0 must turn the leaf frame at exactly this rate.
SCRAMBLED_CW4_OMEGA = 0.3

# The plane waves behind the bundled and seeded canonical inputs:
# H = P_ij(u) x^i x^j with P(u) = P0 + u P1.
CW4_R2 = (np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
CW6_R2 = (np.array([[0.5, 0.1, 0.0, 0.0], [0.1, -0.3, 0.0, 0.0],
                    [0.0, 0.0, 0.2, 0.0], [0.0, 0.0, 0.0, 0.0]]),
          np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.2, 0.0],
                    [0.0, 0.2, 0.5, 0.0], [0.0, 0.0, 0.0, 0.25]]))

EXPECTED_VERDICTS = {
    "flat": "flat",
    "cw4_order1": "locally_symmetric",
    "cw4_order1_hyperbolic": "locally_symmetric",
    "rotation_w": "locally_symmetric",
    "cw4_order2": "proper_second_symmetric",
    "cw4_order2_sphere": "proper_second_symmetric",
    "cw6_order2": "proper_second_symmetric",
    "scrambled_cw4": "proper_second_symmetric",
    "seeded_affine_cw4_r2": "proper_second_symmetric",
    "cw4_order3": "undetermined",
    "poly_seed1": "undetermined",
    "poly_seed2": "undetermined",
    "seeded_poly4": "undetermined",
}

# Halton samples per check (the centre is added): the fewest symmetry_order
# accepts. Every point costs the same engine + oracle work, so fewer points
# keep the jet shapes of the CLI default (8) and let two passes of all 13
# inputs fit one run.
CHECK_SAMPLES = 4

# (metric file, experiment, span, steps)
TRANSPORT_RUNS = (
    ("poly_seed2", "geodesic", 0.7, 150),
    ("cw4_order2", "nullsec", 0.9, 600),
    ("cw4_order2_sphere", "geodesic", 0.9, 600),
    ("scrambled_cw4", "d0", 0.7, 200),
)

# What each workload counts as one unit of delivered work.
WORK_UNITS = {"classify": "sample points", "transport": "trajectory nodes",
              "canonical": "u-grid nodes"}

ACCURACY_KEYS = (
    "engine_oracle_max_dev", "verdict_mismatches", "canonical_affine_residual_max",
    "canonical_orthogonality_max", "geodesic_energy_drift_max",
    "geodesic_pairing_drift_max", "nullsec_second_diff_max", "d0_angle_error",
)


def _same(payload: bytes) -> bytes:
    return payload


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed; ``encode`` and ``check`` are not.

    ``run`` returns (exit code, payload), ``encode`` turns the payload into
    the output bytes, and ``check`` returns the gate failures for those bytes
    plus accuracy figures.
    """

    name: str
    work: int
    run: Callable[[], tuple[int, object]]
    check: Callable[[int, bytes], tuple[list[str], dict[str, float]]]
    encode: Callable[[object], bytes] = _same


@dataclass
class Workload:
    name: str
    ops: list[Op]
    jet_shapes: set[tuple[int, int]] = field(default_factory=set)

    def warm_up(self) -> None:
        """Build the jet contexts (product and derivative tables) the ops use."""
        for nv, top in sorted(self.jet_shapes):
            for order in range(top + 1):
                ctx = jets.context(nv, order)
                ctx.mul_flat()
                if order:
                    for var in range(nv):
                        ctx.diff_table(var)


# -- shared helpers --------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    if err.getvalue():
        text += "\n#stderr " + err.getvalue()
    return rc, text.encode()


# Report fields that ``check`` leaves null by design: the affine test of A is
# not requested.
NULLABLE = frozenset({".A_tilde.affine_in_u", ".A_tilde.affine_residual"})
# ... and on these metrics only, which have no flat Ricci cluster.
NO_FLAT_CLUSTER = frozenset({"poly_seed1", "poly_seed2", "seeded_poly4"})
NULLABLE_WITHOUT_FLAT_CLUSTER = NULLABLE | {".eisenhart.zero_cluster",
                                            ".eisenhart.atil_on_flat_block"}


def _nulls(obj, nullable: frozenset[str] = frozenset(), path: str = "") -> list[str]:
    """Paths of every null (outside ``nullable``) or non-finite number in a report."""
    if obj is None:
        return [] if path in nullable else [path or "<root>"]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nulls(v, nullable, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nulls(v, nullable, f"{path}[{i}]")]
    return []


def _parse_csv(out: bytes) -> tuple[list[str], np.ndarray, list[str], list[str]]:
    """Header, numeric rows, trailing '#' rows and any non-finite cells."""
    lines = out.decode().splitlines()
    header = lines[0].split(",")
    rows, comments, bad = [], [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
            continue
        cells = line.split(",")
        for cell in cells:
            if cell == "null" or not math.isfinite(float(cell)):
                bad.append(line)
                break
        else:
            rows.append([float(c) for c in cells])
    return header, np.array(rows), comments, bad


def _in_box(values: np.ndarray, box) -> bool:
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return bool(np.all(values >= lo) and np.all(values <= hi))


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# -- classify ---------------------------------------------------------------------------


def build_classify(seed: int, metrics_dir: str, work_dir: str, smoke: bool = False) -> Workload:
    rng = _rng(seed, "classify")
    poly = spaces.random_polynomial_spec(int(rng.integers(1 << 31)), n=4)
    base = spaces.fixture("cw4_r2")
    affine = spaces.apply_chart_change(base, spaces.random_affine_change(base, rng))
    files = {name: os.path.join(metrics_dir, name + ".metric")
             for name in EXPECTED_VERDICTS if not name.startswith("seeded_")}
    files["seeded_poly4"] = _write(os.path.join(work_dir, "seeded_poly4.metric"),
                                   metricfile.spec_to_text(poly))
    files["seeded_affine_cw4_r2"] = _write(os.path.join(work_dir, "seeded_affine_cw4_r2.metric"),
                                           metricfile.spec_to_text(affine))
    samples = CHECK_SAMPLES
    if smoke:
        # the smallest set on which every classify-side wrapper still fires
        files = {k: files[k] for k in ("cw4_order1_hyperbolic", "scrambled_cw4",
                                       "seeded_poly4", "seeded_affine_cw4_r2")}
    wl = Workload("classify", [])
    for name, path in files.items():
        spec = metricfile.load_metric_file(path)
        wl.jet_shapes.add((spec.num_vars, 5))
        wl.ops.append(Op(
            name=f"check:{name}", work=samples + 1,
            run=lambda path=path: call_cli(["check", path, "--samples", str(samples),
                                            "--depth", "2"]),
            check=lambda rc, out, name=name: check_classify(name, samples, rc, out)))
    return wl


def check_classify(name: str, samples: int, rc: int,
                   out: bytes) -> tuple[list[str], dict[str, float]]:
    expected = EXPECTED_VERDICTS[name]
    try:
        report = json.loads(out)
    except ValueError:
        return [f"exit {rc}, report is not JSON: {out[:200]!r}"], {}
    nullable = NULLABLE_WITHOUT_FLAT_CLUSTER if name in NO_FLAT_CLUSTER else NULLABLE
    errors = [f"null or non-finite value at {p}" for p in _nulls(report, nullable)[:5]]
    verdict = report.get("verdict")
    agreement = report.get("engine_agreement")
    accuracy = {"verdict_mismatches": float(verdict != expected)}
    if isinstance(agreement, (int, float)):
        accuracy["engine_oracle_max_dev"] = float(agreement)
    if verdict != expected:
        errors.append(f"verdict {verdict!r}, expected {expected!r}")
    want_rc = 2 if expected == "undetermined" else 0
    if rc != want_rc:
        errors.append(f"exit code {rc}, expected {want_rc}")
    if not (isinstance(agreement, (int, float)) and agreement < ENGINE_ORACLE_TOL):
        errors.append(f"engine/oracle agreement {agreement!r} not below {ENGINE_ORACLE_TOL}")
    if len(report.get("samples", [])) != samples + 1:
        errors.append(f"{len(report.get('samples', []))} samples, expected {samples + 1}")
    return errors, accuracy


# -- transport --------------------------------------------------------------------------


def start_point(box, span: float, rng: np.random.Generator) -> list[float]:
    """A start point in the central part of the box whose u-run of ``span`` fits."""
    (ulo, uhi), leaf = box[0], box[1:]
    room = (uhi - ulo) - span
    u0 = ulo + room * (0.5 + 0.4 * (rng.random() - 0.5))
    return [u0] + [0.5 * (lo + hi) + 0.2 * (hi - lo) * (rng.random() - 0.5) for lo, hi in leaf]


def build_transport(seed: int, metrics_dir: str, work_dir: str, smoke: bool = False) -> Workload:
    rng = _rng(seed, "transport")
    wl = Workload("transport", [])
    for name, experiment, span, steps in TRANSPORT_RUNS:
        path = os.path.join(metrics_dir, name + ".metric")
        spec = metricfile.load_metric_file(path)
        wl.jet_shapes.add((spec.num_vars, 2))
        point = start_point(spec.box, span, rng)
        if smoke:
            steps = 20
        argv = ["transport", path, "--experiment", experiment, "--span", repr(span),
                "--steps", str(steps), "--point"] + [repr(p) for p in point]
        wl.ops.append(Op(
            name=f"{experiment}:{name}", work=steps,
            run=lambda argv=argv: call_cli(argv),
            check=TransportCheck(path, spec, experiment, point, span, steps)))
    return wl


@dataclass
class TransportCheck:
    path: str
    spec: MetricSpec
    experiment: str
    point: list[float]
    span: float
    steps: int
    _path_in_box: bool | None = None

    def __call__(self, rc: int, out: bytes) -> tuple[list[str], dict[str, float]]:
        if rc != 0:
            return [f"exit code {rc}: {out[-300:]!r}"], {}
        header, rows, comments, bad = _parse_csv(out)
        errors = [f"non-finite row: {line[:120]}" for line in bad[:3]]
        if rows.shape[0] != self.steps + 1:
            return errors + [f"{rows.shape[0]} nodes, expected {self.steps + 1}"], {}
        return getattr(self, "_" + self.experiment)(header, rows, comments, errors)

    def _geodesic(self, header, rows, comments, errors):
        n = self.spec.n
        coords = rows[:, 1:1 + n]
        if not _in_box(np.column_stack([coords[:, :1], coords[:, 2:]]), self.spec.box):
            errors.append("geodesic left the admissible box")
        energy = rows[:, header.index("energy")]
        pairing = rows[:, header.index("k_pairing")]
        accuracy = {"geodesic_energy_drift_max": float(np.max(np.abs(energy - energy[0]))),
                    "geodesic_pairing_drift_max": float(np.max(np.abs(pairing - pairing[0])))}
        for key, value in accuracy.items():
            if not value < GEODESIC_DRIFT_TOL:
                errors.append(f"{key} {value:.3e} not below {GEODESIC_DRIFT_TOL}")
        return errors, accuracy

    def _nullsec(self, header, rows, comments, errors):
        tail = [c for c in comments if c.startswith("# max_second_difference,")]
        if len(tail) != 1:
            return errors + ["missing max_second_difference row"], {}
        value = float(tail[0].split(",")[1])
        if not value < NULLSEC_SECOND_DIFF_TOL:
            errors.append(f"max second difference {value:.3e} not below "
                          f"{NULLSEC_SECOND_DIFF_TOL}")
        if not self.path_in_box():
            errors.append("nullsec geodesic left the admissible box")
        return errors, {"nullsec_second_diff_max": value}

    def path_in_box(self) -> bool:
        """The nullsec CSV has no coordinates: integrate its geodesic once to see."""
        if self._path_in_box is None:
            rc, out = call_cli(["transport", self.path, "--experiment", "geodesic",
                                "--span", repr(self.span), "--steps", str(self.steps),
                                "--point"] + [repr(p) for p in self.point])
            geodesic = TransportCheck(self.path, self.spec, "geodesic", self.point,
                                      self.span, self.steps)
            self._path_in_box = not geodesic(rc, out)[0]
        return self._path_in_box

    def _d0(self, header, rows, comments, errors):
        spec, m = self.spec, self.spec.m
        us = rows[:, 0]
        if not _in_box(np.column_stack([us] + [np.full_like(us, x) for x in self.point[1:]]),
                       spec.box):
            errors.append("d0 curve left the admissible box")
        X = rows[:, 1:].reshape(-1, m, m)
        env = {f"x{i + 2}": x for i, x in enumerate(self.point[1:])}
        ortho = 0.0
        for u, Xk in zip(us, X):
            env["u"] = float(u)
            G = np.array([[expr.eval_scalar(spec.g[i][j], env) for j in range(m)]
                          for i in range(m)])
            ortho = max(ortho, float(np.max(np.abs(Xk @ G @ Xk.T - np.eye(m)))))
        turned = math.atan2(float(X[-1, 0, 1]), float(X[-1, 0, 0]))
        angle_error = abs(turned + SCRAMBLED_CW4_OMEGA * (us[-1] - us[0]))
        if not ortho < D0_ORTHONORMAL_TOL:
            errors.append(f"transported frame not orthonormal: {ortho:.3e}")
        if not angle_error < D0_ANGLE_TOL:
            errors.append(f"frame turned by {turned:.12f} rad, expected "
                          f"{-SCRAMBLED_CW4_OMEGA * (us[-1] - us[0]):.12f}")
        return errors, {"d0_angle_error": angle_error}


# -- canonical --------------------------------------------------------------------------


def _scramble(params: tuple[np.ndarray, np.ndarray], rng: np.random.Generator):
    """A cw plane wave behind a u-dependent rotation and a c*u^2 translation.

    As in the bundled scrambled_cw4, the rotation turns the first two leaf
    slots and the translation moves the first. The seed draws only the
    numbers (rate omega, coefficient c), so every seed gives expressions of
    the same shape and the same cost. The u-range is [-0.5, 0.5], so the
    default grid has 2001 nodes and a run keeps to its time budget.
    """
    base = spaces.make_cw(spaces.CwParams(2 + len(params[0]), params))
    omega = float(rng.uniform(0.1, 0.5))
    c = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
    change = spaces.rotation_chart_change(
        base, (0, 1), omega, translation={0: expr.parse(f"{c!r} * u^2", base.n)})
    return spaces.apply_chart_change(base, change,
                                     box=((-0.5, 0.5),) + ((-0.8, 0.8),) * (base.n - 2))


def build_canonical(seed: int, metrics_dir: str, work_dir: str, smoke: bool = False) -> Workload:
    rng = _rng(seed, "canonical")
    inputs = [  # (name, file, block, injected P(u) = P0 + u P1)
        ("scrambled_cw4", os.path.join(metrics_dir, "scrambled_cw4.metric"), None, CW4_R2),
        ("cw6_order2", os.path.join(metrics_dir, "cw6_order2.metric"), None, CW6_R2),
        ("cw4_order2_sphere", os.path.join(metrics_dir, "cw4_order2_sphere.metric"), (0, 1),
         CW4_R2),
    ]
    for name, params in (("seeded_scramble_cw4_r2", CW4_R2), ("seeded_scramble_cw6_r2", CW6_R2)):
        text = metricfile.spec_to_text(_scramble(params, rng))
        inputs.append((name, _write(os.path.join(work_dir, name + ".metric"), text), None,
                       params))
    if smoke:
        inputs = inputs[:1] + inputs[3:4]
    wl = Workload("canonical", [])
    for name, path, block, params in inputs:
        spec = metricfile.load_metric_file(path)
        wl.jet_shapes.add((spec.num_vars, 3))
        u0, u1 = spec.box[0]
        steps = 200 if smoke else None
        nodes = (steps or max(200, int(2000 * abs(u1 - u0)))) + 1
        wl.ops.append(Op(
            name=f"reconstruct:{name}", work=nodes,
            run=lambda spec=spec, block=block, steps=steps: (
                0, reconstruct(spec, block=block, steps=steps)),
            check=lambda rc, out, params=params, nodes=nodes: check_canonical(params, nodes,
                                                                            rc, out),
            encode=encode_canonical))
    return wl


def encode_canonical(cf) -> bytes:
    """The JSON summary, then the raw A(u), R(u), D(u), so every bit is compared."""
    arrays = np.concatenate([cf.A_of_u.ravel(), cf.R_of_u.ravel(), cf.D_of_u.ravel()])
    return json.dumps(cf.to_dict()).encode() + b"\n" + arrays.tobytes()


def check_canonical(params, nodes: int, rc: int, out: bytes) -> tuple[list[str], dict[str, float]]:
    head, _, raw = out.partition(b"\n")
    report = json.loads(head)
    us = np.array(report["u_samples"])
    arrays = np.frombuffer(raw, dtype=float)
    errors = [f"null or non-finite value at {p}" for p in _nulls(report)[:5]]
    if not np.all(np.isfinite(arrays)):
        errors.append("non-finite entries in A(u), R(u) or D(u)")
    if len(us) != nodes:
        return errors + [f"{len(us)} u-grid nodes, expected {nodes}"], {}
    d = len(params[0])
    P = -arrays[: nodes * d * d].reshape(nodes, d, d)
    want = np.linalg.eigvalsh(params[0][None] + us[:, None, None] * params[1][None])
    got = np.linalg.eigvalsh(0.5 * (P + P.transpose(0, 2, 1)))
    spectrum = float(np.max(np.abs(got - want)))
    accuracy = {key: float(v) if isinstance(v, (int, float)) else math.nan
                for key, v in (("canonical_affine_residual_max", report["affine_residual"]),
                               ("canonical_orthogonality_max", report["orthogonality_error"]))}
    if report["proper"] is not True:
        errors.append("reconstruction not proper")
    for key, value in accuracy.items():
        if not value < CANONICAL_RESIDUAL_TOL:
            errors.append(f"{key} {value!r} not below {CANONICAL_RESIDUAL_TOL}")
    if not spectrum < SPECTRUM_TOL:
        errors.append(f"P(u) spectrum off the injected one by {spectrum:.3e}")
    return errors, accuracy


FACTORIES = {"classify": build_classify, "transport": build_transport,
            "canonical": build_canonical}
