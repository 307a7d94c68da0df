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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chart import ChartPoint, MetricSpec
from .curvature import ChartCurvature, curvature_at, d0_op, leaf_grad
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


_FIRST_KEYS = ("Atil", "Ahat", "Btil", "Bhat", "Rtil", "gradRbar")


def _engine_blocks(cc: ChartCurvature, depth: int) -> dict[str, np.ndarray | float]:
    c = cc.curvature
    out: dict[str, np.ndarray | float] = {
        "Rbar": c.Rbar, "A": c.A, "B": c.B, "R_i0k": c.R_i0k,
        "Ric00": c.Ric00, "Ric0i": c.Ric0i, "Ricij": c.Ricij, "S": c.S,
    }
    if depth >= 1:
        out.update({k: getattr(cc.first, k) for k in _FIRST_KEYS})
    if depth == 2:
        out.update(cc.second.blocks)
    return out


@dataclass
class SampleEvaluation:
    point: ChartPoint
    cc: ChartCurvature
    oracle: dict[str, np.ndarray | float]
    agreement: dict[str, float]


def evaluate_samples(spec: MetricSpec, samples: Sequence[ChartPoint], depth: int = 2,
                     order: int | None = None) -> list[SampleEvaluation]:
    """Run both pipelines at each sample and record per-block deviations.

    The engine's jets have order ``depth + 2`` unless ``order`` asks for more.
    Overflow inside the jets is not reported as it happens; instead a
    non-finite deviation aborts with ``EngineDisagreement``, naming the first
    such block and its sample.
    """
    evaluations = []
    for p in samples:
        with np.errstate(all="ignore"):
            cc = curvature_at(spec, p, order=order, depth=depth)
            ob = frame_blocks_from_oracle(spec, p, depth=depth)
            eb = _engine_blocks(cc, depth)
            agreement = {}
            for key, o in ob.items():
                o_arr = np.asarray(o, dtype=float)
                e_arr = np.asarray(eb[key], dtype=float)
                scale = 1.0 + (np.max(np.abs(o_arr)) if o_arr.size else 0.0)
                dev = (np.max(np.abs(e_arr - o_arr)) if o_arr.size else 0.0) / scale
                agreement[key] = float(dev)
        ev = SampleEvaluation(p, cc, ob, agreement)
        _check_finite([ev])
        evaluations.append(ev)
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


def _depth_norms(ev: SampleEvaluation) -> tuple[float, float, float]:
    """Max-norm of R, nabla R, nabla nabla R at one sample, over both pipelines."""
    cc = ev.cc
    r0 = max(cc.curvature.max_norm(),
             max(float(np.max(np.abs(np.asarray(ev.oracle[k]))))
                 for k in ("Rbar", "A", "B", "R_i0k")))
    r1 = cc.first.max_norm()
    r2 = cc.second.max_norm() if cc.second is not None else 0.0
    for k in _FIRST_KEYS:
        if k in ev.oracle:
            r1 = max(r1, float(np.max(np.abs(np.asarray(ev.oracle[k])))))
    for k in ev.oracle:
        if "_" in k and np.asarray(ev.oracle[k]).size:
            r2 = max(r2, float(np.max(np.abs(np.asarray(ev.oracle[k])))))
    return r0, r1, r2


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
    """Classify the symmetry order of the metric from sampled tensor packs.

    With depth 1 the second derivative is not computed, so the verdict can
    only be flat, locally_symmetric or undetermined.
    """
    if samples is None:
        samples = sample_points(spec)
    if len(samples) < 5:
        raise ValueError("need at least 5 sample points")
    if evaluations is None:
        evaluations = evaluate_samples(spec, samples, depth=depth)
    else:
        depth = 2 if evaluations[0].cc.second is not None else min(depth, 1)

    agreement = _check_agreement(evaluations)

    r0 = r1 = r2 = 0.0
    for ev in evaluations:
        n0, n1, n2 = _depth_norms(ev)
        r0, r1, r2 = max(r0, n0), max(r1, n1), max(r2, n2)
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

    block_norms: dict[str, float] = {}
    for ev in evaluations:
        if ev.cc.second is not None:
            for k, v in ev.cc.second.norms().items():
                block_norms[k] = max(block_norms.get(k, 0.0), v)

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
    scale = 1.0 + max(ev.cc.curvature.max_norm() for ev in evaluations)
    eps = tol * scale

    def block_max(name: str) -> float:
        return max(
            float(np.max(np.abs(getattr(ev.cc.first, name)))) if getattr(ev.cc.first, name).size else 0.0
            for ev in evaluations)

    svals = np.array([ev.cc.curvature.S for ev in evaluations])
    spread = float(svals.max() - svals.min())
    return StructuralChecks(
        leaf_locally_symmetric=block_max("gradRbar") < eps,
        bhat_zero=block_max("Bhat") < eps,
        rtil_zero=block_max("Rtil") < eps,
        ahat_zero=block_max("Ahat") < eps,
        btil_zero=block_max("Btil") < eps,
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
    """
    if samples is None:
        samples = sample_points(spec)
    if evaluations is None:
        evaluations = evaluate_samples(spec, samples, depth=1, order=A_TILDE_ORDER)
    order = min(ev.cc.cj.order for ev in evaluations)
    if order < A_TILDE_ORDER or any(ev.cc.Atil is None for ev in evaluations):
        raise ValueError(
            f"extract_A_tilde needs evaluations of depth >= 1 at jet order >= {A_TILDE_ORDER} "
            f"(got order {order}); pass order={A_TILDE_ORDER} to evaluate_samples")
    values, eigs = [], []
    grad_res = d0_res = aff_res = 0.0
    for ev in evaluations:
        cc = ev.cc
        m = cc.cj.m
        values.append(cc.first.Atil.copy())
        gbar = cc.cj.g.value().reshape(m, m)
        eigs.append(gbar_eigh(cc.first.Atil, gbar)[0])
        grad = leaf_grad(cc.Atil, 0, cc.gamma).value()
        d0 = d0_op(cc.Atil, 0, cc.tup).value()
        grad_res = max(grad_res, float(np.max(np.abs(grad))) if np.asarray(grad).size else 0.0)
        d0_res = max(d0_res, float(np.max(np.abs(d0))) if np.asarray(d0).size else 0.0)
        if check_affine:
            addot = cc.A.du().du().value()
            aff_res = max(aff_res, float(np.max(np.abs(addot))) if np.asarray(addot).size else 0.0)
    scale = 1.0 + max(ev.cc.curvature.max_norm() for ev in evaluations)
    return AtilReport(
        values=values,
        eigenvalues=eigs,
        grad_parallel=grad_res < tol * scale,
        d0_parallel=d0_res < tol * scale,
        grad_residual=grad_res,
        d0_residual=d0_res,
        affine_in_u=(aff_res < tol * scale) if check_affine else None,
        affine_residual=aff_res if check_affine else None,
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
    m = spec.m
    all_eigs = []
    for ev in evaluations:
        gbar = ev.cc.cj.g.value().reshape(m, m)
        mu, _ = gbar_eigh(ev.cc.curvature.Ricij, gbar)
        all_eigs.append(mu)
    all_eigs = np.array(all_eigs)

    base = evaluations[-1]  # box center is appended last by sample_points
    gbar = base.cc.cj.g.value().reshape(m, m)
    mu, vecs = gbar_eigh(base.cc.curvature.Ricij, gbar)

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
    atil = base.cc.first.Atil
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
