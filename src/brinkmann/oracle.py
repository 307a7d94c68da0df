"""Brute-force curvature in the full coordinate basis, used as ground truth.

The only structure borrowed from the chart is the assembly of the full
metric

    g_00 = -2H,  g_01 = -1,  g_0i = -W_i,  g_ij as given,  g_11 = g_1i = 0,

in coordinates (u, v, x^2 .. x^{n-1}).  From there on everything is the
generic Levi-Civita machinery with explicit index recursion:

    Gamma^a_{bc} = g^{ar} (g_rb,c + g_rc,b - g_bc,r) / 2
    R^a_{bcd}    = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
                   + Gamma^a_{cr} Gamma^r_{db} - Gamma^a_{dr} Gamma^r_{cb}

so that R(d_c, d_d) d_b = R^a_{bcd} d_a.  Covariant derivatives append
their slots last, inner first: ``dR[a, b, c, d, mu]`` is nabla_mu R^a_{bcd}
and ``d2R[..., mu, nu]`` is nabla_nu nabla_mu R^a_{bcd} (nu outermost).

``metric_layout`` states that assembly once, as data: for each entry of G,
the tape output and the exact factor behind it, or the constant it holds.
``full_metric`` applies it to jet coefficients (a stack of them too), and the
transport's one-point path reads its index take from the same table.

The transport experiments read their Christoffel symbols from here too:
``christoffel`` gives the values of Gamma from the numeric inverse of G's
value and the lowered combination of G's first partials (``_lowered``) that
``coordinate_curvature`` differentiates further.  A caller on jets passes
``_lowered(_cgrad(G, n).value(), 1)``; at a single point the transport
forms it from the compiled order-1 tape's coefficients without a jet and
refuses G by ``check_finite``'s wording, as ``assemble_coordinate_metric``
does, and G's first partials likewise.

The metric jets are the caller's when it holds them: ``classify`` hands each
oracle sub-stack its rows of the engine's ``eval_metric`` (``ChartJets.rows``,
cut to the oracle's order), which are bit for bit the sub-stack's own, so the
two pipelines share that one evaluation and no derivative code.

Every function here takes a stack of N chart points (a ``ChartPoint``): G,
its inverses, Gamma, R, its covariant derivatives, the frame matrices and
the frame blocks carry a leading node axis, every ``jet_einsum`` contracts
with the node letter N leading its subscripts, ``to_frame`` makes each
node's matrix products with its own frame, and each node's numbers are bit
for bit those of its own one-point stack.  A failure in a stack is the
error the first failing node raises on its own.  Every jet is
only as deep as what reads it: the jet inverse of G is built at the order
of Gamma, the Gamma Gamma product at the order of dGamma, and each
covariant derivative at the order of the new slot.  ``coordinate_curvature``
frees the derivatives of G and Gamma before the covariant derivatives, and
adds each term of R and of a covariant derivative in place, in the order
of the sum, into a C-contiguous accumulator, so a stack holds few tensors of
its largest size at once and no add is strided on both sides.

The partly null frame enters only through ``chart``: the frame matrices of
``frame_components`` and the table ``FRAME_BLOCKS``, which gives each block
a slot signature, one letter per tensor slot ('0' for E_0, '1' for E_1,
'l' for the leaf).  ``frame_blocks_from_oracle`` picks each block's tensor
by the signature's length, ``to_frame`` converts every slot of that tensor
only at the frame rows some block reads there, and the blocks are cut from
the result.  The table says where a block sits, not how it is computed: no
derivative code is shared with ``curvature``, which is what keeps this
module an independent check of the specialized formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chart import FRAME_BLOCKS, ChartJets, ChartPoint, FrameData, MetricSpec, eval_metric, \
    first_failing_node, frame_components, jet_matrix_inverse
from .jets import Jet, jet_einsum

__all__ = [
    "CoordinateMetric",
    "CoordinateCurvature",
    "assemble_coordinate_metric",
    "metric_layout",
    "full_metric",
    "check_finite",
    "metric_field",
    "coordinate_curvature",
    "christoffel",
    "to_frame",
    "frame_blocks_from_oracle",
]


@dataclass
class CoordinateMetric:
    """Full metric as jets at a stack of points; entries are v-independent
    by construction, and G and Ginv0 carry a leading node axis."""

    n: int
    point: ChartPoint
    G: Jet            # (N, n, n) jets in (u, x) variables
    Ginv0: np.ndarray
    chart: ChartJets

    @functools.cached_property
    def Ginv(self) -> Jet:
        """Jet inverse of G at order ``G.order - 1``, the order of Gamma, which
        is all that reads it; built on first use."""
        return jet_matrix_inverse(self.G.truncate(self.G.order - 1))

    @functools.cached_property
    def frame(self) -> FrameData:
        """The partly null frame at the point, built on first use."""
        return frame_components(self.chart)


@functools.lru_cache(maxsize=None)
def metric_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one statement of the full metric's assembly from the tape outputs F
    (H, then W_i, then g_ij row-major, as ``MetricSpec.tape`` lists them):

        g_00 = -2H,  g_01 = -1,  g_0i = -W_i,  g_ij as given,  g_11 = g_1i = 0.

    Returns (source, factor), each (n, n) and read-only: G[a, b] = factor[a, b]
    * F[source[a, b]] where source[a, b] >= 0, and else G[a, b] = factor[a, b],
    a constant (0 or -1) whose derivatives vanish.
    """
    m = n - 2
    source = np.full((n, n), -1)
    source[0, 0] = 0
    source[0, 2:] = source[2:, 0] = np.arange(1, 1 + m)
    source[2:, 2:] = np.arange(1 + m, 1 + m + m * m).reshape(m, m)
    factor = np.zeros((n, n))
    factor[0, :] = factor[:, 0] = -1.0   # -W_i, and the constants g_01 = g_10 = -1
    factor[0, 0], factor[2:, 2:] = -2.0, 1.0
    source.flags.writeable = factor.flags.writeable = False
    return source, factor


def full_metric(n: int, fields: np.ndarray) -> np.ndarray:
    """Coefficients of the full metric G (..., n, n, k) from those of the tape
    outputs (..., outputs, k) by ``metric_layout``.

    Leading node axes and the trailing coefficient axis ride along; a
    constant entry is written into the value coefficient, not multiplied.
    """
    source, factor = metric_layout(n)
    read = source >= 0
    G = np.zeros(fields.shape[:-2] + (n, n) + fields.shape[-1:])
    G[..., read, :] = fields[..., source[read], :] * factor[read, None]
    G[..., ~read, 0] = factor[~read]
    return G


def check_finite(G0: np.ndarray, p: ChartPoint) -> None:
    """Refuse an assembled metric value (N, n, n) at the N points of p with a
    non-finite entry, naming its field (H, W_i or g_ij, chart labels) and the
    first node that has one.

    det G = -det g_ij, and the metric evaluation has already refused a
    singular or ill-conditioned g_ij, so finiteness is all that is left.
    """
    finite = np.isfinite(G0)
    if not finite.all():
        k, a, b = np.argwhere(~finite)[0]   # row major
        raise ValueError(f"non-finite {metric_field(a, b)} at {p.at(k)}")


def metric_field(a: int, b: int) -> str:
    """The field (H, W_i or g_ij, chart labels) behind G[a, b], a row-major first
    non-finite entry: G[0, b] comes before G[b, 0]."""
    return "H" if a == b == 0 else f"W_{b}" if a == 0 else f"g_{a}{b}"


def assemble_coordinate_metric(metric: MetricSpec | ChartJets, p: ChartPoint | None = None,
                               order: int | None = None) -> CoordinateMetric:
    """The full metric's jets about each point of p at ``order`` (node axis
    leading); a failure is the first failing node's error.

    In place of the spec, a caller that holds the metric jets of a stack (the
    rows of a stacked ``eval_metric``, ``ChartJets.rows``) hands those; p and
    the order are then theirs.  They are bit for bit those ``eval_metric``
    gives that stack, and having passed it they can only fail
    ``check_finite``, which names the first failing node itself.
    """
    if isinstance(metric, ChartJets):
        return _assemble(metric)
    return first_failing_node(p, lambda q: _assemble(eval_metric(metric, q, order)))


def _assemble(cj: ChartJets) -> CoordinateMetric:
    n = cj.spec.n
    G = Jet(cj.H.ctx, full_metric(n, cj.fields))
    G0 = G.value()
    check_finite(G0, cj.point)
    return CoordinateMetric(n, cj.point, G, np.linalg.inv(G0), cj)


def _cgrad(J: Jet, n: int) -> Jet:
    """Coordinate derivatives on a new axis appended last; d_v gives zero.

    Jet variable 0 is u and jet variable mu - 1 is x^mu, so the v row is the
    u derivative again, overwritten with zeros.
    """
    out = J.grad((0,) + tuple(range(n - 1)))
    out.data[..., 1, :] = 0.0
    return out


def _lowered(dG: np.ndarray, nodes: int = 0) -> np.ndarray:
    """g_rb,c + g_rc,b - g_bc,r at [..., r, b, c] from dG[..., a, b, mu] = g_ab,mu.

    ``nodes`` leading node axes and the trailing axes (a jet's coefficients)
    ride along, so this serves both jet data and plain values.
    """
    r, b, c = nodes, nodes + 1, nodes + 2
    axes = list(range(dG.ndim))
    axes[r:c + 1] = (c, r, b)                     # dG[..., b, c, r] at [..., r, b, c]
    return dG + dG.swapaxes(b, c) - dG.transpose(axes)


def christoffel(lowered: np.ndarray, Ginv0: np.ndarray) -> np.ndarray:
    """Values Gamma^a_{bc} from the values of the lowered symbols (``_lowered``
    of G's first partials) and the inverse of G's value, at one point (the
    transport's compiled-tape path) or at each point of a stack (node axis
    leading)."""
    return 0.5 * np.einsum("...ar,...rbc->...abc", Ginv0, lowered)


@dataclass
class CoordinateCurvature:
    """Coordinate components of R and its covariant derivatives at each point
    of a stack (node axis leading, S an (N,) array)."""

    n: int
    depth: int
    Gamma: np.ndarray           # values
    R: np.ndarray               # R^a_{bcd}
    dR: np.ndarray | None       # nabla_mu R^a_{bcd}, mu last
    d2R: np.ndarray | None      # nabla_nu nabla_mu R^a_{bcd}, (mu, nu) last
    Ric: np.ndarray
    S: np.ndarray


def coordinate_curvature(cm: CoordinateMetric, depth: int) -> CoordinateCurvature:
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    if cm.G.order < 2 + depth:
        raise ValueError("insufficient jet order for the requested depth")
    n = cm.n
    dG = _cgrad(cm.G, n)                          # dG[N, a, b, mu] = g_ab,mu
    Gamma = 0.5 * jet_einsum("Nar,Nrbc->Nabc", cm.Ginv, Jet(dG.ctx, _lowered(dG.data, 1)))
    del dG

    dGamma = _cgrad(Gamma, n)                     # dGamma[..., a, b, c, mu]
    R = Jet(dGamma.ctx, np.subtract(np.einsum("...adbcx->...abcdx", dGamma.data),
                                    np.einsum("...acbdx->...abcdx", dGamma.data), order="C"))
    del dGamma
    low = Gamma.truncate(R.order)                 # R reads no higher degree
    gg = jet_einsum("Nacr,Nrdb->Nabcd", low, low)
    R.data += gg.data
    R.data -= np.swapaxes(gg.data, -3, -2)
    del gg, low

    Ric_val = np.trace(R.value(), axis1=-4, axis2=-2)
    S_val = np.einsum("...bd,...bd->...", cm.Ginv0, Ric_val)

    dR_val = d2R_val = None
    if depth >= 1:
        dR = _cov_deriv(R, 1, Gamma, n)
        dR_val = dR.value()
        if depth == 2:
            d2R_val = _cov_deriv(dR, 1, Gamma, n).value()
    return CoordinateCurvature(n, depth, Gamma.value(), R.value(), dR_val, d2R_val,
                               Ric_val, S_val)


def _cov_deriv(T: Jet, nup: int, Gamma: Jet, n: int) -> Jet:
    """Coordinate covariant derivative, new slot appended last; the node axis
    of Gamma and T leads.  Gamma and T are truncated to the derivative's
    order, and every connection term is added in place, in slot order, into a
    C-contiguous copy of the derivative: the layout ``_cgrad`` inherits from T
    makes each add strided on both sides."""
    import string

    letters = [c for c in string.ascii_lowercase if c not in "rs"]
    rank = len(T.shape) - 1
    names = "".join(letters[:rank])
    out = _cgrad(T, n)
    out.data = np.ascontiguousarray(out.data)
    Gamma, T = Gamma.truncate(out.order), T.truncate(out.order)
    for a in range(rank):
        L = names[a]
        src = names[:a] + "r" + names[a + 1:]
        if a < nup:
            out.data += jet_einsum(f"N{L}rs,N{src}->N{names}s", Gamma, T).data
        else:
            out.data -= jet_einsum(f"Nr{L}s,N{src}->N{names}s", Gamma, T).data
    return out


def to_frame(values: np.ndarray, nup: int, frame: FrameData, rows: list[list[int]]) -> np.ndarray:
    """Frame components of a coordinate tensor at the frame rows ``rows[k]`` of
    each tensor slot k, so slot k of the result runs over those rows.

    Contravariant slots (the first ``nup`` tensor axes) pick up
    theta^alpha_mu, covariant slots pick up e_alpha^mu.  The node axis of
    ``frame`` leads ``values`` too, and each node is contracted with its own
    frame by one matrix product per slot.
    """
    out = values
    for slot, picked in enumerate(rows):
        mat = (frame.theta if slot < nup else frame.e)[:, picked, :]
        moved = np.moveaxis(out, 1 + slot, 1)
        rest = moved.shape[2:]
        product = np.matmul(mat, moved.reshape(moved.shape[:2] + (math.prod(rest),)))
        out = np.moveaxis(product.reshape((len(moved), len(picked)) + rest), 1, 1 + slot)
    return out


@functools.lru_cache(maxsize=None)
def _frame_cuts(depth: int, n: int) -> list[tuple[int, list[list[int]], dict[str, tuple]]]:
    """For each tensor that the blocks up to ``depth`` read, by its number of
    slots: the frame rows some block reads in each slot (E_0, E_1, then the
    leaf), and each block's index into the tensor converted at those rows."""
    signatures = {key: slots for table in FRAME_BLOCKS[:depth + 1] for key, slots in table.items()}
    frame_rows = {"0": [0], "1": [1], "l": list(range(2, n))}
    plan = []
    for size in sorted({len(slots) for slots in signatures.values()}):
        mine = {key: slots for key, slots in signatures.items() if len(slots) == size}
        rows = [[r for c in sorted(set(letters)) for r in frame_rows[c]]   # '0' < '1' < 'l'
                for letters in zip(*mine.values())]
        plan.append((size, rows, {key: (...,) + tuple(
            slice(len(picked) - (n - 2), None) if c == "l" else picked.index(int(c))
            for c, picked in zip(slots, rows)) for key, slots in mine.items()}))
    return plan


def frame_blocks_from_oracle(metric: MetricSpec | ChartJets, p: ChartPoint | None = None,
                             depth: int = 2) -> dict[str, np.ndarray]:
    """The frame blocks of ``chart.FRAME_BLOCKS`` up to ``depth`` via the oracle,
    with the table's keys in its order, as the specialized engine gives them.

    The coordinate metric is taken at jet order depth + 2, the least the
    curvature needs: the metric jets handed in place of the spec are of that
    order (``assemble_coordinate_metric``).  A block's signature picks its
    tensor by its length (0 S, 2 Ric, 4 R, 5 nabla R, 6 nabla nabla R),
    converted to the frame only at the rows some block reads
    (``_frame_cuts``).  Every block has a leading node axis (the rank-0
    blocks ``Ric00`` and ``S`` are (N,) arrays); a failure is the first
    failing node's error.  The blocks are copies, so no coordinate tensor
    outlives the call.
    """
    assert not isinstance(metric, ChartJets) or metric.order == depth + 2
    cm = assemble_coordinate_metric(metric, p, depth + 2)
    cc = coordinate_curvature(cm, depth)
    tensors = {0: (cc.S, 0), 2: (cc.Ric, 0), 4: (cc.R, 1), 5: (cc.dR, 1), 6: (cc.d2R, 1)}
    blocks = {}
    for size, rows, cuts in _frame_cuts(depth, cm.n):
        values, nup = tensors[size]
        frame_values = to_frame(values, nup, cm.frame, rows)
        blocks.update((key, frame_values[cut].copy()) for key, cut in cuts.items())
    return {key: blocks[key] for table in FRAME_BLOCKS[:depth + 1] for key in table}
