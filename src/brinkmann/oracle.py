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

``metric_layout`` states that assembly once, as data: the tape outputs and
the exact factor behind each block of G, and its constants.  ``full_metric``
applies it to jet coefficients (a stack of them too), and the transport's
one-point path derives its index take from it.

The transport experiments read their Christoffel symbols from here too:
``christoffel`` gives the values of Gamma from the values of G's first
partials and the numeric inverse of G's value, by the same lowered
combination that ``coordinate_curvature`` differentiates further.  A
caller on jets passes ``_cgrad(G, n).value()``; at a single point the
transport reads the partials from the compiled order-1 tape's coefficients
without a jet and refuses G by ``check_finite``, as
``assemble_coordinate_metric`` does.

Every function here also takes a stack of N chart points (a ``ChartPoint``
with a 1-D array u), by the same code as one point: G, its inverses, Gamma,
R, its covariant derivatives, the frame matrices and the frame blocks then
carry a leading node axis, every ``jet_einsum`` contracts with the node
letter N leading its subscripts (``chart.node_subscripts``), ``to_frame``
makes each node's matrix products with its own frame, and each node's
numbers are bit for bit those of its own one-point call.  A failure in a
stack is the error the first failing node raises on its own.  Every jet is
only as deep as what reads it: the jet inverse of G is built at the order
of Gamma, the Gamma Gamma product at the order of dGamma, and each
covariant derivative at the order of the new slot.  ``coordinate_curvature``
frees the derivatives of G and Gamma before the covariant derivatives, and
adds each term of R and of a covariant derivative in place, in the order
of the sum, so a stack holds few tensors of its largest size at once.

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
    first_failing_node, frame_components, jet_matrix_inverse, node_subscripts
from .jets import Jet, jet_einsum

__all__ = [
    "CoordinateMetric",
    "CoordinateCurvature",
    "assemble_coordinate_metric",
    "metric_layout",
    "full_metric",
    "check_finite",
    "coordinate_curvature",
    "christoffel",
    "to_frame",
    "frame_blocks_from_oracle",
]


@dataclass
class CoordinateMetric:
    """Full metric as jets; entries are v-independent by construction.

    At a stack of points, G and Ginv0 carry a leading node axis.
    """

    n: int
    point: ChartPoint
    G: Jet            # (..., n, n) jets in (u, x) variables
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


def metric_layout(n: int) -> tuple[list[tuple[slice, slice, slice, float]],
                                   list[tuple[int, int, float]]]:
    """The one statement of the full metric's assembly from the tape outputs F
    (H, then W_i, then g_ij row-major, as ``MetricSpec.tape`` lists them):

        g_00 = -2H,  g_01 = -1,  g_0i = -W_i,  g_ij as given,  g_11 = g_1i = 0.

    Returns (blocks, constants): G[rows, columns] = factor * F[outputs], the
    outputs shaped to the block, for each (rows, columns, outputs, factor) of
    ``blocks``; G[a, b] = value, whose derivatives vanish, for each
    (a, b, value) of ``constants``; every other entry is 0.
    """
    m = n - 2
    u, leaf = slice(0, 1), slice(2, n)
    W, g = slice(1, 1 + m), slice(1 + m, 1 + m + m * m)
    blocks = [(u, u, u, -2.0), (u, leaf, W, -1.0), (leaf, u, W, -1.0), (leaf, leaf, g, 1.0)]
    return blocks, [(0, 1, -1.0), (1, 0, -1.0)]


def full_metric(n: int, fields: np.ndarray) -> np.ndarray:
    """Coefficients of the full metric G (..., n, n, k) from those of the tape
    outputs (..., outputs, k) by ``metric_layout``.

    Leading node axes and the trailing coefficient axis ride along; a
    constant is written into the value coefficient only.
    """
    blocks, constants = metric_layout(n)
    G = np.zeros(fields.shape[:-2] + (n, n) + fields.shape[-1:])
    for rows, columns, outputs, factor in blocks:
        block = G[..., rows, columns, :]
        np.multiply(fields[..., outputs, :].reshape(block.shape), factor, out=block)
    for a, b, value in constants:
        G[..., a, b, 0] = value
    return G


def check_finite(G0: np.ndarray, p: ChartPoint) -> None:
    """Refuse an assembled metric value, (n, n) or (N, n, n) at a stack of N
    points, with a non-finite entry, naming its field (H, W_i or g_ij, chart
    labels) and the point (``first_failing_node`` names the node of a stack).

    det G = -det g_ij, and the metric evaluation has already refused a
    singular or ill-conditioned g_ij, so finiteness is all that is left.
    """
    finite = np.isfinite(G0)
    if not finite.all():
        a, b = np.argwhere(~finite)[0][-2:]   # row major
        field = "H" if a == b == 0 else f"W_{b}" if a == 0 else f"g_{a}{b}"
        raise ValueError(f"non-finite {field} at {p.coords}")


def assemble_coordinate_metric(spec: MetricSpec, p: ChartPoint, order: int) -> CoordinateMetric:
    """The full metric's jets about p, or about each point of a stack (node
    axis leading); a failure in a stack is the first failing node's error."""
    return first_failing_node(p, lambda q: _assemble(spec, q, order))


def _assemble(spec: MetricSpec, p: ChartPoint, order: int) -> CoordinateMetric:
    cj = eval_metric(spec, p, order)
    G = Jet(cj.H.ctx, full_metric(spec.n, cj.fields))
    G0 = G.value()
    check_finite(G0, p)
    return CoordinateMetric(spec.n, p, G, np.linalg.inv(G0), cj)


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


def christoffel(dG: np.ndarray, Ginv0: np.ndarray) -> np.ndarray:
    """Values Gamma^a_{bc} from the values of the first partials
    dG[..., a, b, mu] = g_ab,mu and the inverse of G's value, at one point or
    at each point of a stack (node axis leading)."""
    return 0.5 * np.einsum("...ar,...rbc->...abc", Ginv0, _lowered(dG, Ginv0.ndim - 2))


@dataclass
class CoordinateCurvature:
    """Coordinate components of R and its covariant derivatives at a point,
    or at each point of a stack (node axis leading, S an array)."""

    n: int
    depth: int
    Gamma: np.ndarray           # values
    R: np.ndarray               # R^a_{bcd}
    dR: np.ndarray | None       # nabla_mu R^a_{bcd}, mu last
    d2R: np.ndarray | None      # nabla_nu nabla_mu R^a_{bcd}, (mu, nu) last
    Ric: np.ndarray
    S: float | np.ndarray


def coordinate_curvature(cm: CoordinateMetric, depth: int) -> CoordinateCurvature:
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    if cm.G.order < 2 + depth:
        raise ValueError("insufficient jet order for the requested depth")
    n, nodes = cm.n, cm.G.shape[:-2]
    dG = _cgrad(cm.G, n)                          # dG[..., a, b, mu] = g_ab,mu
    Gamma = 0.5 * jet_einsum(node_subscripts("ar,rbc->abc", nodes), cm.Ginv,
                             Jet(dG.ctx, _lowered(dG.data, len(nodes))))
    del dG

    dGamma = _cgrad(Gamma, n)                     # dGamma[..., a, b, c, mu]
    R = Jet(dGamma.ctx, np.einsum("...adbcx->...abcdx", dGamma.data)
            - np.einsum("...acbdx->...abcdx", dGamma.data))
    del dGamma
    low = Gamma.truncate(R.order)                 # R reads no higher degree
    gg = jet_einsum(node_subscripts("acr,rdb->abcd", nodes), low, low)
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
                               Ric_val, _rank0(S_val))


def _rank0(value: np.ndarray) -> float | np.ndarray:
    """A rank-0 value as a float at one point; at a stack, its node array."""
    return float(value) if np.ndim(value) == 0 else value


def _cov_deriv(T: Jet, nup: int, Gamma: Jet, n: int) -> Jet:
    """Coordinate covariant derivative, new slot appended last; node axes of
    Gamma and T lead.  Gamma and T are truncated to the derivative's order,
    and every connection term is added in place, in slot order."""
    import string

    letters = [c for c in string.ascii_lowercase if c not in "rs"]
    nodes = Gamma.shape[:-3]
    rank = len(T.shape) - len(nodes)
    names = "".join(letters[:rank])
    out = _cgrad(T, n)
    Gamma, T = Gamma.truncate(out.order), T.truncate(out.order)
    for a in range(rank):
        L = names[a]
        src = names[:a] + "r" + names[a + 1:]
        if a < nup:
            out.data += jet_einsum(node_subscripts(f"{L}rs,{src}->{names}s", nodes), Gamma, T).data
        else:
            out.data -= jet_einsum(node_subscripts(f"r{L}s,{src}->{names}s", nodes), Gamma, T).data
    return out


def to_frame(values: np.ndarray, nup: int, frame: FrameData, rows: list[list[int]]) -> np.ndarray:
    """Frame components of a coordinate tensor at the frame rows ``rows[k]`` of
    each tensor slot k, so slot k of the result runs over those rows.

    Contravariant slots (the first ``nup`` tensor axes) pick up
    theta^alpha_mu, covariant slots pick up e_alpha^mu.  At a stack, the node
    axes of ``frame`` lead ``values`` too, and each node is contracted with
    its own frame by one matrix product per slot, the product a single point
    makes.
    """
    nn = frame.e.ndim - 2
    out = values
    for slot, picked in enumerate(rows):
        mat = (frame.theta if slot < nup else frame.e)[..., picked, :]
        moved = np.moveaxis(out, nn + slot, nn)
        rest = moved.shape[nn + 1:]
        product = np.matmul(mat, moved.reshape(moved.shape[:nn + 1] + (math.prod(rest),)))
        out = np.moveaxis(product.reshape(moved.shape[:nn] + (len(picked),) + rest), nn, nn + slot)
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


def frame_blocks_from_oracle(spec: MetricSpec, p: ChartPoint,
                             depth: int = 2) -> dict[str, np.ndarray | float]:
    """The frame blocks of ``chart.FRAME_BLOCKS`` up to ``depth`` via the oracle,
    with the table's keys in its order, as the specialized engine gives them.

    The coordinate metric is taken at jet order depth + 2, the least the
    curvature needs.  A block's signature picks its tensor by its length (0
    S, 2 Ric, 4 R, 5 nabla R, 6 nabla nabla R), converted to the frame only
    at the rows some block reads (``_frame_cuts``).  At a stack of points
    every block has a leading node axis (the rank-0 blocks ``Ric00`` and
    ``S`` are arrays), each node bit for bit its one-point call; a failure
    is the first failing node's error.  The blocks are copies, so no
    coordinate tensor outlives the call.
    """
    cm = assemble_coordinate_metric(spec, p, depth + 2)
    cc = coordinate_curvature(cm, depth)
    tensors = {0: (cc.S, 0), 2: (cc.Ric, 0), 4: (cc.R, 1), 5: (cc.dR, 1), 6: (cc.d2R, 1)}
    blocks = {}
    for size, rows, cuts in _frame_cuts(depth, cm.n):
        values, nup = tensors[size]
        frame_values = to_frame(np.asarray(values), nup, cm.frame, rows)
        blocks.update((key, _rank0(np.array(frame_values[cut]))) for key, cut in cuts.items())
    return {key: blocks[key] for table in FRAME_BLOCKS[:depth + 1] for key in table}
