"""Symmetry-order classification, structural checks and the Ricci-block split.

The classifier never trusts a single pipeline: at every sample point the
specialized frame formulas and the brute-force coordinate oracle are both
evaluated and compared block by block.  A disagreement beyond
ENGINE_AGREEMENT_TOL means an internal bug, not a property of the metric,
and aborts the run.

``evaluate_samples`` returns one ``SampleStack``: both pipelines' blocks,
the deviations and the engine values the reports read, each on a leading
sample axis, evaluated in the blocks that ``chart.node_blocks`` cuts.  The
engine takes every derivative; a report reads numbers, from that stack and
nothing else: its sample count, leaf dimension and sample list are the
stack's own.

Residual semantics: a tensor depth (R, nabla R, nabla nabla R) counts as
*zero* below ``tol`` and as *detected* above DETECTION_FLOOR, both scaled by
(1 + curvature magnitude); anything caught in between is a refusal to
over-claim and yields the undetermined verdict.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chart import FRAME_BLOCKS, ChartPoint, MetricSpec, first_failing_node, node_blocks
from .curvature import curvature_at
from .oracle import frame_blocks_from_oracle

__all__ = [
    "EngineDisagreement",
    "SampleStack",
    "SymmetryReport",
    "StructuralChecks",
    "AtilReport",
    "EisenhartSplit",
    "check_tol",
    "check_sample_count",
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
A_TILDE_TOL = 1e-8  # an A_tilde residual below this, times 1 + |R|, counts as zero
CLUSTER_TOL = 1e-6  # leaf Ricci eigenvalues this close are one Eisenhart cluster
DEFAULT_TOL = 1e-9
DETECTION_FLOOR = 1e-3
MIN_SAMPLES = 5  # the fewest sample points a verdict is drawn from
SAMPLE_MARGIN = 0.1  # samples keep this fraction of each box side from its ends


class EngineDisagreement(RuntimeError):
    """Specialized formulas and the coordinate oracle disagree: engine bug."""


def check_tol(tol: float, name: str = "tol") -> None:
    """Refuse a tolerance ``name`` that is not finite and in (0, DETECTION_FLOOR):
    a residual below tol counts as zero, above the detection floor as nonzero."""
    if not 0.0 < tol < DETECTION_FLOOR:
        raise ValueError(f"{name} must be finite and in (0, {DETECTION_FLOOR!r}), the "
                         f"detection floor, got {tol!r}")


def check_sample_count(count: int) -> None:
    """Refuse fewer than MIN_SAMPLES sample points, the fewest a verdict is drawn from."""
    if count < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} sample points, the stack has {count}")


# -- sampling -----------------------------------------------------------------------


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def sample_points(spec: MetricSpec, count: int = 8) -> ChartPoint:
    """Deterministic low-discrepancy samples in the admissible box, then its
    center, as one stack of count + 1 points.

    A Halton point at the center (the first one on a 2-D chart) is skipped."""
    if count < 0:
        raise ValueError(f"sample count {count} is negative")
    nv = spec.num_vars
    inner = 1.0 - 2.0 * SAMPLE_MARGIN
    halton = ([_halton(k, _PRIMES[d % len(_PRIMES)]) for d in range(nv)]
              for k in itertools.count(1))
    pts = [[lo + (SAMPLE_MARGIN + inner * t) * (hi - lo) for t, (lo, hi) in zip(ts, spec.box)]
           for ts in itertools.islice((ts for ts in halton if ts != [0.5] * nv), count)]
    pts.append(spec.center().at(0))
    u, *x = (np.array(c) for c in zip(*pts))
    return ChartPoint(u, tuple(x))


# -- engine/oracle pairing ------------------------------------------------------------


# Entries of one rank-6 coordinate tensor (N n^6 at N samples of dimension n)
# per oracle call: the oracle runs on sub-stacks of
# max(1, ORACLE_STACK_ENTRIES // n**6) samples, so 19 at n = 4, 5 at n = 5 and
# one at n = 6.  Per sample of one depth-2 call on the engine's metric jets
# (median of 15, middle of three runs, shared 2-vCPU VM), with the tracemalloc
# peak of one call:
#   n = 4, cw4_order2, N = 1 / 5 / 19 / 64:  1.65 / 0.70 / 0.58 / 0.55 ms,
#       0.2 / 1.2 / 4.4 / 14.8 MB (the time is flat from N = 19 on);
#   n = 5, poly_seed2, N = 1 / 5 / 8:  2.42 / 1.60 / 1.57 ms, 0.6 / 3.8 / 6.1 MB;
#   n = 6, cw6_order2, N = 1 / 2 / 5:  4.32 / 4.13 / 4.10 ms, 1.5 / 4.1 / 10.3 MB.
# At n = 6 a larger stack saves at most 5 % a sample and multiplies the peak
# by up to 7: five-sample stacks there read the classify benchmark at 270 and
# 281 samples/s against 283 and 286 for one sample per call, and raised its
# peak RSS from 50.3 to 60.4 MB, so n = 6 stays at one sample per call.
ORACLE_STACK_ENTRIES = 80_000


def _node_max_abs(values: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each node of a stack (N, ...) of blocks, 0
    for empty blocks; NaN propagates."""
    return np.abs(values).reshape(len(values), -1).max(axis=1, initial=0.0)


@dataclass
class SampleStack:
    """Both pipelines at N samples: the stack ``point`` of the samples, and
    blocks, deviations and engine values on a leading sample axis.

    ``blocks`` and ``oracle`` hold the engine's and the oracle's frame blocks
    (the rank-0 blocks as (N,) arrays), ``agreement`` each key's (N,)
    engine/oracle deviations; ``gbar`` holds the leaf metric and, from depth
    1, ``Atil_grad`` and ``Atil_d0`` those of ``ChartCurvature``.
    """

    point: ChartPoint
    depth: int
    blocks: dict[str, np.ndarray]
    oracle: dict[str, np.ndarray]
    agreement: dict[str, np.ndarray]
    gbar: np.ndarray
    Atil_grad: np.ndarray | None
    Atil_d0: np.ndarray | None


def _join(parts: list):
    """Concatenate the parts of stack fields (arrays, dicts of them or None)
    along their sample axis."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([part[key] for part in parts]) for key in first}
    return None if first is None else np.concatenate(parts)


def evaluate_samples(spec: MetricSpec, samples: ChartPoint | None = None,
                     depth: int = 2) -> SampleStack:
    """Run both pipelines at the stack of samples (``sample_points(spec)`` by
    default) and record per-block deviations.

    The engine runs once per block of ``chart.node_blocks``, on its stack;
    the oracle runs once per sub-stack of at most
    ``max(1, ORACLE_STACK_ENTRIES // n**6)`` of them, on its rows of the
    engine's metric jets (``ChartJets.rows``), which are bit for bit those
    of its own ``eval_metric``.  The blocks' results
    are concatenated.  Overflow inside the jets is not reported as it
    happens; instead a non-finite deviation aborts with
    ``EngineDisagreement``, naming the first such block and its sample.  Any
    failure is the one a loop over the samples raises: the engine's at
    sample k, then the oracle's at sample k, then sample k + 1.
    """
    p = sample_points(spec) if samples is None else samples
    parts = [first_failing_node(block, lambda q: _evaluate(spec, q, depth))
             for _, block in node_blocks(p)]
    # The fields after point and depth carry the sample axis; each is dropped
    # from the parts once joined, so that only one is held twice.
    joined = [_join([vars(part).pop(f.name) for part in parts])
              for f in dataclasses.fields(SampleStack)[2:]]
    return SampleStack(p, depth, *joined)


def _evaluate(spec: MetricSpec, p: ChartPoint, depth: int) -> SampleStack:
    """The evaluation of the stack p: one engine call on it, one oracle call
    per sub-stack on the engine's metric jets cut to order depth + 2 (the
    engine's are of order 2 at depth 0 and 4 above), deviations on each
    sub-stack."""
    per_call = max(1, ORACLE_STACK_ENTRIES // spec.n ** 6)
    oracles, agreements = [], []
    with np.errstate(all="ignore"):
        cc = curvature_at(spec, p, depth=depth)
        for start in range(0, len(p), per_call):
            rows = slice(start, start + per_call)
            oracles.append(frame_blocks_from_oracle(cc.cj.rows(rows, depth + 2), depth=depth))
            agreements.append({key: _node_max_abs(cc.blocks[key][rows] - o)
                               / (1.0 + _node_max_abs(o)) for key, o in oracles[-1].items()})
    ev = SampleStack(p, depth, cc.blocks, _join(oracles), _join(agreements),
                     cc.cj.g.value(), cc.Atil_grad, cc.Atil_d0)
    _check_finite(ev)
    return ev


def _check_finite(ev: SampleStack) -> None:
    """Raise on the first non-finite engine/oracle deviation (first sample,
    then key order), naming block and sample."""
    bad = ~np.isfinite(np.array(list(ev.agreement.values())))
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        key = list(ev.agreement)[int(bad[:, k].argmax())]
        raise EngineDisagreement(
            f"engine/oracle agreement is {float(ev.agreement[key][k])} (worst block {key} at "
            f"sample {list(ev.point.at(k))}): the curvature jets are not finite "
            "there, so no verdict can be reached")


def _key_max(block_sets: Sequence[dict[str, np.ndarray]], key: str) -> float:
    """Largest absolute entry of block ``key`` over the given block dicts; 0
    where no dict holds the key or the block is empty.  NaN propagates."""
    return float(np.max([np.max(np.abs(blocks[key]), initial=0.0)
                         for blocks in block_sets if key in blocks], initial=0.0))


def _depth_norm(block_sets: Sequence[dict[str, np.ndarray]], depth: int) -> float:
    """Max-norm of one depth's blocks (R, nabla R or nabla nabla R) over the
    given block dicts; 0 where that depth was not evaluated."""
    return float(np.max([_key_max(block_sets, key) for key in FRAME_BLOCKS[depth]]))


def _evaluated_depth(ev: SampleStack, need: int, who: str) -> int:
    """The depth of the evaluation; raise if it is below ``need``."""
    if ev.depth < need:
        raise ValueError(f"{who} needs evaluations of depth >= {need} (got depth {ev.depth}); "
                         f"pass depth={need} to evaluate_samples")
    return ev.depth


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
        return dataclasses.asdict(self)


@dataclass
class SymmetryReport:
    verdict: str  # flat | locally_symmetric | proper_second_symmetric | undetermined
    residuals: dict[str, float]
    scale: float
    tol: float
    floor: float
    engine_agreement: float
    second_block_norms: dict[str, float]
    samples: list[tuple[float, ...]]   # chart coordinates (u, x2, ..) per sample

    @property
    def determinate(self) -> bool:
        return self.verdict != "undetermined"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "scale": self.scale,
            "tol": self.tol,
            "detection_floor": self.floor,
            "engine_agreement": self.engine_agreement,
            "second_block_norms": dict(self.second_block_norms),
            "samples": [list(coords) for coords in self.samples],
        }


def _classify_residual(value: float, tol: float, scale: float) -> str:
    if value < tol * scale:
        return "zero"
    if value > DETECTION_FLOOR * scale:
        return "nonzero"
    return "gray"


def _check_agreement(ev: SampleStack) -> float:
    """Worst engine/oracle deviation (the first of equals by sample, then key
    order); raise if it is above the tolerance or not finite."""
    # A stack may be altered after evaluate_samples checked it, so finiteness is
    # checked again here.
    _check_finite(ev)
    devs = np.array(list(ev.agreement.values())).T
    k, i = np.unravel_index(devs.argmax(), devs.shape)
    dev, key = float(devs[k, i]), list(ev.agreement)[i]
    if dev > ENGINE_AGREEMENT_TOL:
        raise EngineDisagreement(
            f"engine and oracle disagree by {dev:.3e} (worst block {key} at sample "
            f"{list(ev.point.at(k))}); "
            "this indicates an internal inconsistency, not a property of the metric")
    return dev


def symmetry_order(evaluations: SampleStack, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Classify the symmetry order of the metric from the frame blocks of its
    sample stack.

    With a stack of depth 1 the second derivative is not computed, so the
    verdict can only be flat, locally_symmetric or undetermined; depth 0 is
    refused, and so are fewer than MIN_SAMPLES samples (``check_sample_count``)
    and a ``tol`` outside (0, DETECTION_FLOOR) (``check_tol``).
    """
    check_tol(tol)
    count = len(evaluations.point)
    check_sample_count(count)
    depth = _evaluated_depth(evaluations, 1, "symmetry_order")

    agreement = _check_agreement(evaluations)

    both = [evaluations.blocks, evaluations.oracle]
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

    engine = [evaluations.blocks]
    block_norms = {k: _key_max(engine, k) for k in FRAME_BLOCKS[2]} if depth == 2 else {}

    return SymmetryReport(
        verdict=verdict,
        residuals={"R": r0, "nabla_R": r1, "nabla2_R": r2},
        scale=scale,
        tol=tol,
        floor=DETECTION_FLOOR,
        engine_agreement=agreement,
        second_block_norms=block_norms,
        samples=[evaluations.point.at(k) for k in range(count)],
    )


# -- consequences of 2nd-symmetry -------------------------------------------------------


def check_theorem_redu(evaluations: SampleStack, tol: float = DEFAULT_TOL) -> StructuralChecks:
    """Check the structural consequences of 2nd-symmetry on the chart.

    On a 2nd-symmetric space the leaf must be locally symmetric, the four
    slices Bhat, Rtil, Ahat, Btil must vanish, and the scalar curvature is
    constant.  Failures are reported, never raised: a failing check means
    the spec is outside the theorem's hypothesis.  A ``tol`` outside (0,
    DETECTION_FLOOR) is refused (``check_tol``).
    """
    check_tol(tol)
    _evaluated_depth(evaluations, 1, "check_theorem_redu")
    engine = [evaluations.blocks]
    eps = tol * (1.0 + _depth_norm(engine, 0))

    svals = evaluations.blocks["S"]
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
    values: np.ndarray                # (N, m, m), one per sample
    eigenvalues: np.ndarray           # (N, m), with respect to the leaf metric
    grad_parallel: bool               # leaf covariant derivative vanishes
    d0_parallel: bool                 # transverse derivative vanishes
    grad_residual: float
    d0_residual: float

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "eigenvalues": [list(map(float, e)) for e in self.eigenvalues],
            "grad_parallel": self.grad_parallel,
            "d0_parallel": self.d0_parallel,
            "grad_residual": self.grad_residual,
            "d0_residual": self.d0_residual,
        }


def extract_A_tilde(evaluations: SampleStack) -> AtilReport:
    """Per-sample Atil values, gbar-eigenvalues and parallelism flags.

    The stack must be of depth >= 1.  The residuals are the largest entries
    of the engine's values ``Atil_grad`` and ``Atil_d0``; a residual below
    ``A_TILDE_TOL`` times 1 + |R| counts as zero, and without leaf (m = 0)
    every residual is 0.  A residual that is not finite at some sample raises
    a ValueError naming the residual and the sample.
    """
    ev = evaluations
    _evaluated_depth(ev, 1, "extract_A_tilde")

    def residual(name: str, per_sample: np.ndarray) -> float:
        bad = np.flatnonzero(~np.isfinite(per_sample))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"A_tilde {name} is {per_sample[k]} at sample "
                             f"{list(ev.point.at(k))}: the curvature jets are "
                             "not finite there, so no verdict can be reached")
        return float(per_sample.max())

    grad_res = residual("grad_residual", _node_max_abs(ev.Atil_grad))
    d0_res = residual("d0_residual", _node_max_abs(ev.Atil_d0))
    eps = A_TILDE_TOL * (1.0 + _depth_norm([ev.blocks], 0))
    return AtilReport(
        values=ev.blocks["Atil"].copy(),
        eigenvalues=gbar_eigh(ev.blocks["Atil"], ev.gbar)[0],
        grad_parallel=grad_res < eps,
        d0_parallel=d0_res < eps,
        grad_residual=grad_res,
        d0_residual=d0_res,
    )


# -- Eisenhart split ---------------------------------------------------------------------


def gbar_eigh(T: np.ndarray, gbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues/vectors of T with respect to gbar via Cholesky reduction.

    Solves T v = mu gbar v by diagonalizing L^{-1} T L^{-T} with
    gbar = L L^T; returned eigenvectors are gbar-orthonormal columns.  Leading
    axes of T and gbar are stacks of matrices, solved one by one.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(gbar))
    LinvT = np.swapaxes(Linv, -1, -2)
    M = Linv @ T @ LinvT
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    mu, w = np.linalg.eigh(M)
    return mu, LinvT @ w


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


def eisenhart_split(evaluations: SampleStack) -> EisenhartSplit:
    """Cluster the gbar-eigenvalues of the leaf Ricci tensor and partition indices.

    Eigenvalues within ``CLUSTER_TOL`` of their neighbour form one cluster.
    The partition lists coordinate slots per cluster; the zero-eigenvalue
    cluster is the candidate flat block, and Atil must be supported there.
    Distinct clusters closer than 10 * CLUSTER_TOL are reported as ambiguous.
    """
    _evaluated_depth(evaluations, 1, "eisenhart_split")
    m = len(evaluations.point.x)
    all_eigs, all_vecs = gbar_eigh(evaluations.blocks["Ricij"], evaluations.gbar)
    # the base sample is the last: sample_points appends the box center
    mu, vecs = all_eigs[-1], all_vecs[-1]

    clusters: list[list[int]] = []
    for idx in range(m):
        if clusters and abs(mu[idx] - mu[clusters[-1][-1]]) <= CLUSTER_TOL:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    cluster_values = [float(np.mean([mu[i] for i in cl])) for cl in clusters]
    ambiguous = any(
        abs(cluster_values[i + 1] - cluster_values[i]) < 10.0 * CLUSTER_TOL
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
        if abs(val) <= max(CLUSTER_TOL, 1e-9):
            zero_cluster = ci
            break

    spread = float(np.max(all_eigs.max(axis=0) - all_eigs.min(axis=0), initial=0.0))

    atil_flag: bool | None = None
    atil = evaluations.blocks["Atil"][-1]
    if zero_cluster is not None:
        flat = np.isin(np.arange(m), partition[zero_cluster])
        off = np.max(np.abs(atil[~np.outer(flat, flat)]), initial=0.0)
        atil_flag = bool(off < 1e-8 * (1.0 + float(np.max(np.abs(atil)))))

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
        return dataclasses.asdict(self)


def _project(T: np.ndarray) -> np.ndarray:
    """Project a batch onto tensors skew in the last pair whose cyclic sum over the
    last three slots is zero; ``...`` carries any slots before them."""
    T = 0.5 * (T - np.swapaxes(T, -2, -1))
    cyc = (T + np.einsum("...ijk->...jki", T) + np.einsum("...ijk->...kij", T)) / 3.0
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
        rank, hyp = 3, _hyp3
    elif shape == "four_index":
        rank, hyp = 4, _hyp4
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
        T = _project(rng.normal(size=(count,) + (dim,) * rank))
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
