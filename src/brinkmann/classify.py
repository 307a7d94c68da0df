"""Symmetry-order classification, structural checks and the Ricci-block split.

The classifier never trusts a single pipeline: at every sample point the
specialized frame formulas and the brute-force coordinate oracle are both
evaluated and compared block by block.  A disagreement beyond
ENGINE_AGREEMENT_TOL means an internal bug, not a property of the metric,
and aborts the run.

Residual semantics: a tensor depth (R, nabla R, nabla nabla R) counts as
*zero* below ``tol`` and as *detected* above DETECTION_FLOOR, both scaled by
(1 + curvature magnitude); anything caught in between is a refusal to
over-claim and yields the undetermined verdict.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chart import NODE_BLOCK, ChartPoint, MetricSpec, first_failing_node
from .curvature import FRAME_BLOCKS, ChartCurvature, curvature_at, d0_op, leaf_grad
from .jets import Jet
from .oracle import frame_blocks_from_oracle

__all__ = [
    "EngineDisagreement",
    "SymmetryReport",
    "StructuralChecks",
    "AtilReport",
    "EisenhartSplit",
    "sample_points",
    "evaluate_samples",
    "symmetry_order",
    "check_theorem_redu",
    "extract_A_tilde",
    "eisenhart_split",
    "gbar_eigh",
    "algebra_lemma_probe",
    "LemmaProbeResult",
]

ENGINE_AGREEMENT_TOL = 1e-6
# extract_A_tilde differentiates the depth-1 block Atil once more, and A twice
# in u: depth 1, plus two orders for R, plus one for that derivative.
A_TILDE_ORDER = 1 + 3
DEFAULT_TOL = 1e-9
DETECTION_FLOOR = 1e-3
SAMPLE_MARGIN = 0.1  # samples keep this fraction of each box side from its ends


class EngineDisagreement(RuntimeError):
    """Specialized formulas and the coordinate oracle disagree: engine bug."""


# -- sampling -----------------------------------------------------------------------


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def sample_points(spec: MetricSpec, count: int = 8) -> list[ChartPoint]:
    """Deterministic low-discrepancy samples in the admissible box, plus its center."""
    nv = spec.num_vars
    inner = 1.0 - 2.0 * SAMPLE_MARGIN
    pts = []
    for k in range(1, count + 1):
        coords = []
        for d, (lo, hi) in enumerate(spec.box):
            t = SAMPLE_MARGIN + inner * _halton(k, _PRIMES[d % len(_PRIMES)])
            coords.append(lo + t * (hi - lo))
        pts.append(ChartPoint(coords[0], tuple(coords[1:])))
    pts.append(spec.center())
    assert len(pts[0].x) == nv - 1
    return pts


# -- engine/oracle pairing ------------------------------------------------------------


# Entries of one rank-6 coordinate tensor (N n^6 at N samples of dimension n)
# per oracle call: the oracle runs on sub-stacks of
# max(1, ORACLE_STACK_ENTRIES // n**6) samples, so 19 at n = 4, 5 at n = 5 and
# one at n = 6.  Per sample at depth 2 (median of 15, shared 2-vCPU VM), with
# the tracemalloc peak of one call:
#   n = 4, cw4_order2, N = 1 / 5 / 19 / 64:  1.49 / 0.75 / 0.63 / 0.68 ms,
#       0.3 / 1.2 / 4.7 / 15.7 MB (the time is flat from N = 19 on);
#   n = 5, poly_seed2, N = 1 / 5 / 8:  6.63 / 3.45 / 3.12 ms, 0.7 / 4.0 / 6.4 MB;
#   n = 6, cw6_order2, N = 1 / 2 / 5:  6.59 / 6.21 / 5.70 ms, 1.8 / 4.3 / 10.9 MB.
# Five-sample stacks at n = 6 left the classify benchmark's throughput within
# its noise (200.3 and 194.2 against 190.7 and 201.2 samples/s) and raised its
# peak RSS from 50.5-51.0 to 60.0 MB, so n = 6 stays at one sample per call.
ORACLE_STACK_ENTRIES = 80_000


def _node_max_abs(values: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each node of a stack (N, ...) of blocks, 0
    for empty blocks; NaN propagates."""
    flat = np.abs(values).reshape(len(values), -1)
    return flat.max(axis=1) if flat.shape[1] else np.zeros(len(values))


def _stack(points: Sequence[ChartPoint]) -> ChartPoint:
    """The points as one stack of chart points."""
    return ChartPoint(np.array([q.u for q in points]),
                      tuple(np.array(c) for c in zip(*(q.x for q in points))))


@dataclass
class SampleEvaluation:
    """Both pipelines at one sample.  ``cc`` keeps the blocks, ``cj`` and the
    jets the reports read (gamma, tup, A, Atil); its other jets are None."""

    point: ChartPoint
    cc: ChartCurvature
    oracle: dict[str, np.ndarray | float]
    agreement: dict[str, float]


# The engine jets no report reads, dropped before the evaluations are returned.
_UNREAD_JETS = ("h", "t", "hup", "Rbar_up", "B", "Ahat", "Btil", "Bhat", "Rtil", "gradRbar")


def evaluate_samples(spec: MetricSpec, samples: Sequence[ChartPoint], depth: int = 2,
                     order: int | None = None) -> list[SampleEvaluation]:
    """Run both pipelines at each sample and record per-block deviations.

    The engine runs once per block of ``NODE_BLOCK`` samples, on their stack;
    the oracle runs once per sub-stack of at most
    ``max(1, ORACLE_STACK_ENTRIES // n**6)`` of them.  The engine's jets have
    order ``depth + 2`` unless ``order`` asks for more; of those jets, each
    evaluation keeps only what the reports read.  Overflow inside the jets is
    not reported as it happens; instead a non-finite deviation aborts with
    ``EngineDisagreement``, naming the first such block and its sample.  Any
    failure is the one a loop over the samples raises: the engine's at sample
    k, then the oracle's at sample k, then sample k + 1.
    """
    evaluations = []
    for start in range(0, len(samples), NODE_BLOCK):
        p = _stack(samples[start:start + NODE_BLOCK])
        evaluations += first_failing_node(p, lambda q: _evaluate(spec, q, depth, order))
    return evaluations


def _evaluate(spec: MetricSpec, p: ChartPoint, depth: int,
              order: int | None) -> list[SampleEvaluation]:
    """The evaluations of the samples of p (a stack, or one point): one engine
    call on the stack, one oracle call per sub-stack, deviations on each
    sub-stack."""
    points = [p.node(k) for k in range(p.shape[0])] if p.shape else [p]
    per_call = max(1, ORACLE_STACK_ENTRIES // spec.n ** 6)
    evaluations = []
    with np.errstate(all="ignore"):
        cc = curvature_at(spec, _stack(points), order=order, depth=depth)
        cc = dataclasses.replace(cc, **dict.fromkeys(_UNREAD_JETS))
        for start in range(0, len(points), per_call):
            part = points[start:start + per_call]
            oracle = frame_blocks_from_oracle(spec, _stack(part), depth=depth)
            agreement = {key: _node_max_abs(cc.blocks[key][start:start + len(part)] - o)
                         / (1.0 + _node_max_abs(o)) for key, o in oracle.items()}
            evaluations += [
                SampleEvaluation(q, cc.node(start + k),
                                 {key: float(o[k]) if o.ndim == 1 else o[k]
                                  for key, o in oracle.items()},
                                 {key: float(dev[k]) for key, dev in agreement.items()})
                for k, q in enumerate(part)]
    _check_finite(evaluations)
    return evaluations


def _check_finite(evaluations: list[SampleEvaluation]) -> None:
    """Raise on the first non-finite engine/oracle deviation, naming block and sample."""
    for ev in evaluations:
        for key, dev in ev.agreement.items():
            if not math.isfinite(dev):
                raise EngineDisagreement(
                    f"engine/oracle agreement is {dev} (worst block {key} at sample "
                    f"{list(ev.point.coords)}): the curvature jets are not finite there, "
                    "so no verdict can be reached")


def _key_max(block_sets: Sequence[dict[str, np.ndarray | float]], key: str) -> float:
    """Largest absolute entry of block ``key`` over the given block dicts, one
    max on the stack of their blocks; 0 where no dict holds the key or the
    block is empty.  NaN propagates."""
    values = [blocks[key] for blocks in block_sets if key in blocks]
    return float(np.abs(np.array(values)).max()) if values and np.size(values[0]) else 0.0


def _depth_norm(block_sets: Sequence[dict[str, np.ndarray | float]], depth: int) -> float:
    """Max-norm of one depth's blocks (R, nabla R or nabla nabla R) over the
    given block dicts; 0 where that depth was not evaluated."""
    return float(np.max([_key_max(block_sets, key) for key in FRAME_BLOCKS[depth]]))


def _evaluated_depth(evaluations: Sequence[SampleEvaluation], need: int, who: str) -> int:
    """The depth all evaluations reach; raise if it is below ``need``."""
    depth = min(ev.cc.depth for ev in evaluations)
    if depth < need:
        raise ValueError(f"{who} needs evaluations of depth >= {need} (got depth {depth}); "
                         f"pass depth={need} to evaluate_samples")
    return depth


# -- symmetry order --------------------------------------------------------------------


@dataclass
class StructuralChecks:
    leaf_locally_symmetric: bool
    bhat_zero: bool
    rtil_zero: bool
    ahat_zero: bool
    btil_zero: bool
    scalar_constant: bool
    scalar_value: float
    scalar_spread: float

    def all_pass(self) -> bool:
        return (self.leaf_locally_symmetric and self.bhat_zero and self.rtil_zero
                and self.ahat_zero and self.btil_zero and self.scalar_constant)

    def to_dict(self) -> dict:
        return {
            "leaf_locally_symmetric": self.leaf_locally_symmetric,
            "bhat_zero": self.bhat_zero,
            "rtil_zero": self.rtil_zero,
            "ahat_zero": self.ahat_zero,
            "btil_zero": self.btil_zero,
            "scalar_constant": self.scalar_constant,
            "scalar_value": self.scalar_value,
            "scalar_spread": self.scalar_spread,
        }


@dataclass
class SymmetryReport:
    verdict: str  # flat | locally_symmetric | proper_second_symmetric | undetermined
    residuals: dict[str, float]
    scale: float
    tol: float
    floor: float
    engine_agreement: float
    second_block_norms: dict[str, float]
    samples: list[ChartPoint]
    structural: StructuralChecks | None = None
    atil: "AtilReport | None" = None

    @property
    def determinate(self) -> bool:
        return self.verdict != "undetermined"

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "scale": self.scale,
            "tol": self.tol,
            "detection_floor": self.floor,
            "engine_agreement": self.engine_agreement,
            "second_block_norms": dict(self.second_block_norms),
            "samples": [list(p.coords) for p in self.samples],
        }
        if self.structural is not None:
            out["structural_checks"] = self.structural.to_dict()
        if self.atil is not None:
            out["A_tilde"] = self.atil.to_dict()
        return out


def _classify_residual(value: float, tol: float, scale: float) -> str:
    if value < tol * scale:
        return "zero"
    if value > DETECTION_FLOOR * scale:
        return "nonzero"
    return "gray"


def _check_agreement(evaluations: list[SampleEvaluation]) -> float:
    """Worst engine/oracle deviation; raise if it is above the tolerance or not finite."""
    # Evaluations may come from the caller, so finiteness is checked again here.
    _check_finite(evaluations)
    dev, key, point = max(((dev, key, ev.point) for ev in evaluations
                           for key, dev in ev.agreement.items()), key=lambda b: b[0])
    if dev > ENGINE_AGREEMENT_TOL:
        raise EngineDisagreement(
            f"engine and oracle disagree by {dev:.3e} (worst block {key} at sample "
            f"{list(point.coords)}); "
            "this indicates an internal inconsistency, not a property of the metric")
    return dev


def symmetry_order(spec: MetricSpec, samples: Sequence[ChartPoint] | None = None,
                   tol: float = DEFAULT_TOL,
                   evaluations: list[SampleEvaluation] | None = None,
                   depth: int = 2) -> SymmetryReport:
    """Classify the symmetry order of the metric from sampled frame blocks.

    The depth is that of ``evaluations`` when they are given.  With depth 1
    the second derivative is not computed, so the verdict can only be flat,
    locally_symmetric or undetermined; depth 0 is refused.
    """
    if samples is None:
        samples = sample_points(spec)
    if len(samples) < 5:
        raise ValueError("need at least 5 sample points")
    if evaluations is None:
        evaluations = evaluate_samples(spec, samples, depth=depth)
    depth = _evaluated_depth(evaluations, 1, "symmetry_order")

    agreement = _check_agreement(evaluations)

    both = [blocks for ev in evaluations for blocks in (ev.cc.blocks, ev.oracle)]
    r0, r1, r2 = (_depth_norm(both, d) for d in range(3))
    scale = 1.0 + r0

    s0 = _classify_residual(r0, tol, 1.0)
    s1 = _classify_residual(r1, tol, scale)
    s2 = _classify_residual(r2, tol, scale) if depth == 2 else "unknown"

    if s0 == "zero":
        verdict = "flat"
    elif s1 == "zero" and s0 == "nonzero":
        verdict = "locally_symmetric"
    elif s2 == "zero" and s1 == "nonzero":
        verdict = "proper_second_symmetric"
    else:
        verdict = "undetermined"

    engine = [ev.cc.blocks for ev in evaluations]
    block_norms = {k: _key_max(engine, k) for k in FRAME_BLOCKS[2]} if depth == 2 else {}

    return SymmetryReport(
        verdict=verdict,
        residuals={"R": r0, "nabla_R": r1, "nabla2_R": r2},
        scale=scale,
        tol=tol,
        floor=DETECTION_FLOOR,
        engine_agreement=agreement,
        second_block_norms=block_norms,
        samples=list(samples),
    )


# -- consequences of 2nd-symmetry -------------------------------------------------------


def check_theorem_redu(spec: MetricSpec, samples: Sequence[ChartPoint] | None = None,
                       tol: float = DEFAULT_TOL,
                       evaluations: list[SampleEvaluation] | None = None) -> StructuralChecks:
    """Check the structural consequences of 2nd-symmetry on the chart.

    On a 2nd-symmetric space the leaf must be locally symmetric, the four
    slices Bhat, Rtil, Ahat, Btil must vanish, and the scalar curvature is
    constant.  Failures are reported, never raised: a failing check means
    the spec is outside the theorem's hypothesis.
    """
    if samples is None:
        samples = sample_points(spec)
    if evaluations is None:
        evaluations = evaluate_samples(spec, samples, depth=1)
    _evaluated_depth(evaluations, 1, "check_theorem_redu")
    engine = [ev.cc.blocks for ev in evaluations]
    eps = tol * (1.0 + _depth_norm(engine, 0))

    svals = np.array([ev.cc.blocks["S"] for ev in evaluations])
    spread = float(svals.max() - svals.min())
    return StructuralChecks(
        leaf_locally_symmetric=_key_max(engine, "gradRbar") < eps,
        bhat_zero=_key_max(engine, "Bhat") < eps,
        rtil_zero=_key_max(engine, "Rtil") < eps,
        ahat_zero=_key_max(engine, "Ahat") < eps,
        btil_zero=_key_max(engine, "Btil") < eps,
        scalar_constant=spread < tol * (1.0 + float(np.max(np.abs(svals)))),
        scalar_value=float(svals.mean()),
        scalar_spread=spread,
    )


@dataclass
class AtilReport:
    values: list[np.ndarray]          # per sample
    eigenvalues: list[np.ndarray]     # with respect to the leaf metric
    grad_parallel: bool               # leaf covariant derivative vanishes
    d0_parallel: bool                 # transverse derivative vanishes
    grad_residual: float
    d0_residual: float
    affine_in_u: bool | None          # second u-derivative of A (canonical charts)
    affine_residual: float | None

    def to_dict(self) -> dict:
        return {
            "values": [v.tolist() for v in self.values],
            "eigenvalues": [list(map(float, e)) for e in self.eigenvalues],
            "grad_parallel": self.grad_parallel,
            "d0_parallel": self.d0_parallel,
            "grad_residual": self.grad_residual,
            "d0_residual": self.d0_residual,
            "affine_in_u": self.affine_in_u,
            "affine_residual": self.affine_residual,
        }


def extract_A_tilde(spec: MetricSpec, samples: Sequence[ChartPoint] | None = None,
                    tol: float = 1e-8,
                    evaluations: list[SampleEvaluation] | None = None,
                    check_affine: bool = False) -> AtilReport:
    """Per-sample Atil values, gbar-eigenvalues and parallelism flags.

    Given ``evaluations`` must be of depth >= 1 at jet order >= ``A_TILDE_ORDER``.
    The derivatives behind the residuals are taken once, on the stack of all
    samples.  A residual that is not finite at some sample raises a ValueError
    naming the residual and the sample.
    """
    if spec.m == 0:
        raise ValueError("extract_A_tilde: the chart has no leaf coordinates (m = 0)")
    if samples is None:
        samples = sample_points(spec)
    if evaluations is None:
        evaluations = evaluate_samples(spec, samples, depth=1, order=A_TILDE_ORDER)
    order = min(ev.cc.cj.order for ev in evaluations)
    if order < A_TILDE_ORDER or any(ev.cc.Atil is None for ev in evaluations):
        raise ValueError(
            f"extract_A_tilde needs evaluations of depth >= 1 at jet order >= {A_TILDE_ORDER} "
            f"(got order {order}); pass order={A_TILDE_ORDER} to evaluate_samples")
    values = [ev.cc.blocks["Atil"].copy() for ev in evaluations]
    eigs = [gbar_eigh(ev.cc.blocks["Atil"], ev.cc.cj.g.value())[0] for ev in evaluations]

    def stacked(name: str) -> Jet:
        """The samples' jets ``name`` on a leading node axis, at their common order."""
        parts = [getattr(ev.cc, name) for ev in evaluations]
        low = min(j.order for j in parts)
        parts = [j.truncate(low) for j in parts]
        return Jet(parts[0].ctx, np.stack([j.data for j in parts]))

    def residual(name: str, per_sample: np.ndarray) -> float:
        bad = np.flatnonzero(~np.isfinite(per_sample))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"A_tilde {name} is {per_sample[k]} at sample "
                             f"{list(evaluations[k].point.coords)}: the curvature jets are "
                             "not finite there, so no verdict can be reached")
        return float(per_sample.max())

    Atil = stacked("Atil")
    grad_res = residual("grad_residual",
                        _node_max_abs(leaf_grad(Atil, 0, stacked("gamma")).value()))
    d0_res = residual("d0_residual", _node_max_abs(d0_op(Atil, 0, stacked("tup")).value()))
    aff_res = residual("affine_residual", _node_max_abs(stacked("A").du().du().value())) \
        if check_affine else None
    scale = 1.0 + _depth_norm([ev.cc.blocks for ev in evaluations], 0)
    return AtilReport(
        values=values,
        eigenvalues=eigs,
        grad_parallel=grad_res < tol * scale,
        d0_parallel=d0_res < tol * scale,
        grad_residual=grad_res,
        d0_residual=d0_res,
        affine_in_u=(aff_res < tol * scale) if check_affine else None,
        affine_residual=aff_res,
    )


# -- Eisenhart split ---------------------------------------------------------------------


def gbar_eigh(T: np.ndarray, gbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues/vectors of T with respect to gbar via Cholesky reduction.

    Solves T v = mu gbar v by diagonalizing L^{-T} T L^{-1} with
    gbar = L L^T; returned eigenvectors are gbar-orthonormal columns.
    """
    m = gbar.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros((0, 0))
    L = np.linalg.cholesky(gbar)
    Linv = np.linalg.inv(L)
    M = Linv @ T @ Linv.T
    M = 0.5 * (M + M.T)
    mu, w = np.linalg.eigh(M)
    return mu, Linv.T @ w


@dataclass
class EisenhartSplit:
    eigenvalues: list[float]          # one per cluster, sorted ascending
    multiplicities: list[int]
    partition: list[list[int]]        # coordinate slots (0-based leaf) per cluster
    zero_cluster: int | None          # index of the flat (zero-eigenvalue) cluster
    basis: np.ndarray                 # gbar-orthonormal eigenbasis at the base sample
    spread: float                     # max eigenvalue spread across samples
    atil_on_flat_block: bool | None
    ambiguous: bool

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues,
            "multiplicities": self.multiplicities,
            "partition": [[slot + 2 for slot in block] for block in self.partition],
            "zero_cluster": self.zero_cluster,
            "eigenvalue_spread": self.spread,
            "atil_on_flat_block": self.atil_on_flat_block,
            "ambiguous": self.ambiguous,
        }


def eisenhart_split(spec: MetricSpec, samples: Sequence[ChartPoint] | None = None,
                    cluster_tol: float = 1e-6,
                    evaluations: list[SampleEvaluation] | None = None) -> EisenhartSplit:
    """Cluster the gbar-eigenvalues of the leaf Ricci tensor and partition indices.

    The partition lists coordinate slots per eigenvalue cluster; the
    zero-eigenvalue cluster is the candidate flat block, and Atil must be
    supported there.  Clustering closer than 10 * cluster_tol between
    distinct clusters is reported as ambiguous.
    """
    if samples is None:
        samples = sample_points(spec)
    if evaluations is None:
        evaluations = evaluate_samples(spec, samples, depth=1)
    _evaluated_depth(evaluations, 1, "eisenhart_split")
    m = spec.m
    all_eigs = []
    for ev in evaluations:
        mu, _ = gbar_eigh(ev.cc.blocks["Ricij"], ev.cc.cj.g.value())
        all_eigs.append(mu)
    all_eigs = np.array(all_eigs)

    base = evaluations[-1]  # box center is appended last by sample_points
    mu, vecs = gbar_eigh(base.cc.blocks["Ricij"], base.cc.cj.g.value())

    clusters: list[list[int]] = []
    for idx in range(m):
        if clusters and abs(mu[idx] - mu[clusters[-1][-1]]) <= cluster_tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    cluster_values = [float(np.mean([mu[i] for i in cl])) for cl in clusters]
    ambiguous = any(
        abs(cluster_values[i + 1] - cluster_values[i]) < 10.0 * cluster_tol
        for i in range(len(cluster_values) - 1))

    # Assign coordinate slots by dominant eigenvector weight per cluster.
    partition: list[list[int]] = [[] for _ in clusters]
    for slot in range(m):
        weights = [sum(vecs[slot, i] ** 2 for i in cl) for cl in clusters]
        partition[int(np.argmax(weights))].append(slot)
    if any(len(block) != len(cl) for block, cl in zip(partition, clusters)):
        ambiguous = True

    zero_cluster = None
    for ci, val in enumerate(cluster_values):
        if abs(val) <= max(cluster_tol, 1e-9):
            zero_cluster = ci
            break

    spread = float(np.max(all_eigs.max(axis=0) - all_eigs.min(axis=0))) if m else 0.0

    atil_flag: bool | None = None
    atil = base.cc.blocks["Atil"]
    if atil.size and zero_cluster is not None:
        off = 0.0
        flat = set(partition[zero_cluster])
        for i in range(m):
            for j in range(m):
                if i not in flat or j not in flat:
                    off = max(off, abs(atil[i, j]))
        atil_flag = off < 1e-8 * (1.0 + float(np.max(np.abs(atil))))

    return EisenhartSplit(
        eigenvalues=cluster_values,
        multiplicities=[len(c) for c in clusters],
        partition=partition,
        zero_cluster=zero_cluster,
        basis=vecs,
        spread=spread,
        atil_on_flat_block=atil_flag,
        ambiguous=ambiguous,
    )


# -- algebraic lemma probes -----------------------------------------------------------------


@dataclass
class LemmaProbeResult:
    dim: int
    trials: int
    shape: str                 # "three_index" or "four_index"
    min_residual: float
    zero_passes: bool
    violations: int            # trials whose contraction hypothesis held (must be 0)

    def ok(self) -> bool:
        return self.zero_passes and self.violations == 0 and self.min_residual > 0.0

    def to_dict(self) -> dict:
        return {
            "dim": self.dim, "trials": self.trials, "shape": self.shape,
            "min_residual": self.min_residual, "zero_passes": self.zero_passes,
            "violations": self.violations,
        }


def _project_three_index(T: np.ndarray) -> np.ndarray:
    """Project a batch onto tensors skew in the last pair, cyclic sum zero."""
    T = 0.5 * (T - np.swapaxes(T, -2, -1))
    cyc = (T + np.einsum("...ijk->...jki", T) + np.einsum("...ijk->...kij", T)) / 3.0
    return T - cyc


def _project_four_index(T: np.ndarray) -> np.ndarray:
    """Skew last pair, then remove the cyclic part over the last three slots."""
    T = 0.5 * (T - np.swapaxes(T, -2, -1))
    cyc = (T + np.einsum("...ijkl->...iklj", T) + np.einsum("...ijkl->...iljk", T)) / 3.0
    return T - cyc


def _hyp3(T: np.ndarray) -> np.ndarray:
    sym = 0.5 * (T + np.swapaxes(T, -3, -2))   # T_(ij)k; the inner product is delta
    return np.einsum("...ijr,...rnm->...ijnm", sym, T)


def _hyp4(T: np.ndarray) -> np.ndarray:
    sym = 0.5 * (T + np.swapaxes(T, -3, -2))   # T_s(ij)k
    return np.einsum("...sijr,...lrnm->...sijlnm", sym, T)


def algebra_lemma_probe(dim: int, trials: int, rng_seed: int,
                        shape: str = "three_index") -> LemmaProbeResult:
    """Contrapositive probe of the vanishing lemmas for curvature-type tensors.

    Random nonzero tensors with the stated symmetries must all violate the
    contraction hypothesis (T_(ij)^r T_rnm = 0, resp. its four-index
    analogue); a nonzero sample satisfying it exactly would contradict the
    lemma and is reported as a violation.  The zero tensor must pass.
    """
    if not 2 <= dim <= 6:
        raise ValueError("dim must be between 2 and 6")
    if shape == "three_index":
        rank, project, hyp = 3, _project_three_index, _hyp3
    elif shape == "four_index":
        rank, project, hyp = 4, _project_four_index, _hyp4
    else:
        raise ValueError(f"unknown probe shape {shape!r}")
    rng = np.random.default_rng(rng_seed)
    zero_ok = not np.any(hyp(np.zeros((dim,) * rank)))
    min_res = float("inf")
    violations = 0
    kept = 0
    chunk = max(1, 2_000_000 // dim ** (2 * rank - 2))
    remaining = trials
    while remaining > 0:
        count = min(chunk, remaining)
        remaining -= count
        T = project(rng.normal(size=(count,) + (dim,) * rank))
        amp = np.max(np.abs(T), axis=tuple(range(1, rank + 1)))
        keep = amp > 1e-12
        T = T[keep] / amp[keep][(slice(None),) + (None,) * rank]
        kept += int(T.shape[0])
        res = np.max(np.abs(hyp(T)), axis=tuple(range(1, 2 * rank - 1)))
        if res.size:
            min_res = min(min_res, float(res.min()))
            violations += int(np.count_nonzero(res == 0.0))
    return LemmaProbeResult(
        dim=dim,
        trials=kept,
        shape=shape,
        min_residual=min_res,
        zero_passes=zero_ok,
        violations=violations,
    )
