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

The transport experiments read their Christoffel symbols from here too:
``christoffel`` gives the values of Gamma from the first derivatives of G
and the numeric inverse, by the same lowered combination that
``coordinate_curvature`` differentiates further.  At a single point they
assemble G with ``full_metric`` from the compiled order-1 tape's coefficients
and refuse it by ``check_finite``, as ``assemble_coordinate_metric`` does.

``assemble_coordinate_metric`` and ``coordinate_curvature`` also take a
stack of N chart points (a ``ChartPoint`` with a 1-D array u): G, its
inverses, Gamma, R and its covariant derivatives then carry a leading node
axis, every ``jet_einsum`` contracts with the node letter N leading its
subscripts (``chart.node_subscripts``), and each node's numbers are bit for
bit those of its own one-point call.  A failure in a stack is the error the
first failing node raises on its own.  Every jet is only as deep as what
reads it: the jet inverse of G is built at the order of Gamma, the Gamma
Gamma product at the order of dGamma, and each covariant derivative at the
order of the new slot.

Nothing here knows about the partly null frame; ``to_frame`` contracts
coordinate tensors against externally supplied basis matrices and returns
plain arrays, which is what keeps this module an independent check of the
specialized formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import jets
from .chart import ChartJets, ChartPoint, FrameData, MetricSpec, eval_metric, \
    first_failing_node, frame_components, jet_matrix_inverse, node_subscripts
from .jets import Jet, jet_einsum

__all__ = [
    "CoordinateMetric",
    "CoordinateCurvature",
    "assemble_coordinate_metric",
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


def full_metric(n: int, H: np.ndarray, W: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of the full metric G (..., n, n, k) from those of H (..., k),
    W_i (..., m, k) and g_ij (..., m, m, k).

    Leading node axes and the trailing coefficient axis ride along; the
    constant g_01 = -1 is written into the value coefficient only.
    """
    G = np.zeros(H.shape[:-1] + (n, n) + H.shape[-1:])
    G[..., 0, 0, :] = -2.0 * H
    G[..., 0, 1, 0] = G[..., 1, 0, 0] = -1.0
    G[..., 0, 2:, :] = G[..., 2:, 0, :] = -W
    G[..., 2:, 2:, :] = g
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
    G = Jet(cj.H.ctx, full_metric(spec.n, cj.H.data, cj.W.data, cj.g.data))
    G0 = G.value()
    check_finite(G0, p)
    return CoordinateMetric(spec.n, p, G, np.linalg.inv(G0), cj)


@functools.lru_cache(maxsize=None)
def _cgrad_table(ctx: jets.JetContext, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``diff_table`` of every coordinate, stacked (n, child coefficients).

    Jet variable 0 is u and jet variable mu - 1 is x^mu; the row of v is
    overwritten with zeros by ``_cgrad``.
    """
    tables = [ctx.diff_table(max(mu - 1, 0)) for mu in range(n)]
    return np.array([src for src, _ in tables]), np.array([fac for _, fac in tables])


def _cgrad(J: Jet, n: int) -> Jet:
    """Coordinate derivatives on a new axis appended last; d_v gives zero."""
    if J.order == 0:
        raise jets.JetShapeError("cannot differentiate an order-0 jet")
    src, fac = _cgrad_table(J.ctx, n)
    out = J.data[..., src] * fac
    out[..., 1, :] = 0.0
    return Jet(jets.context(J.num_vars, J.order - 1), out)


def _lowered(dG: np.ndarray, nodes: int = 0) -> np.ndarray:
    """g_rb,c + g_rc,b - g_bc,r at [..., r, b, c] from dG[..., a, b, mu] = g_ab,mu.

    ``nodes`` leading node axes and the trailing axes (a jet's coefficients)
    ride along, so this serves both jet data and plain values.
    """
    r, b, c = nodes, nodes + 1, nodes + 2
    axes = list(range(dG.ndim))
    axes[r:c + 1] = (c, r, b)                     # dG[..., b, c, r] at [..., r, b, c]
    return dG + dG.swapaxes(b, c) - dG.transpose(axes)


def christoffel(G: Jet, Ginv0: np.ndarray) -> np.ndarray:
    """Values Gamma^a_{bc} from the full metric G (order >= 1) and the
    inverse of its value, at one point or at each point of a stack (node
    axis leading); builds no jet inverse."""
    dG = _cgrad(G, Ginv0.shape[-1]).value()
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

    dGamma = _cgrad(Gamma, n)                     # dGamma[..., a, b, c, mu]
    dterm = Jet(dGamma.ctx, np.einsum("...adbcx->...abcdx", dGamma.data)
                - np.einsum("...acbdx->...abcdx", dGamma.data))
    low = Gamma.truncate(dGamma.order)            # R reads no higher degree
    gg = jet_einsum(node_subscripts("acr,rdb->abcd", nodes), low, low)
    R = dterm + gg - Jet(gg.ctx, np.swapaxes(gg.data, -3, -2))

    Ric_val = np.trace(R.value(), axis1=-4, axis2=-2)
    S_val = np.einsum("...bd,...bd->...", cm.Ginv0, Ric_val)

    dR_val = d2R_val = None
    if depth >= 1:
        dR = _cov_deriv(R, 1, Gamma, n)
        dR_val = dR.value()
        if depth == 2:
            d2R = _cov_deriv(dR, 1, Gamma, n)
            d2R_val = d2R.value()
    return CoordinateCurvature(n, depth, Gamma.value(), R.value(), dR_val, d2R_val,
                               Ric_val, S_val if nodes else float(S_val))


def _cov_deriv(T: Jet, nup: int, Gamma: Jet, n: int) -> Jet:
    """Coordinate covariant derivative, new slot appended last; node axes of
    Gamma and T lead.  Gamma and T are truncated to the derivative's order."""
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
            out = out + jet_einsum(node_subscripts(f"{L}rs,{src}->{names}s", nodes), Gamma, T)
        else:
            out = out - jet_einsum(node_subscripts(f"r{L}s,{src}->{names}s", nodes), Gamma, T)
    return out


def to_frame(values: np.ndarray, nup: int, frame: FrameData) -> np.ndarray:
    """Frame components of a coordinate tensor, as an array of the same shape.

    Contravariant slots (the first ``nup`` axes) pick up theta^alpha_mu,
    covariant slots pick up e_alpha^mu; every slot runs over the whole
    frame 0 .. n-1.
    """
    out = values
    for axis in range(values.ndim):
        mat = frame.theta if axis < nup else frame.e
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def frame_blocks_from_oracle(spec: MetricSpec, p: ChartPoint,
                             depth: int = 2) -> dict[str, np.ndarray]:
    """All frame tensor blocks of R, nabla R, nabla nabla R via the oracle.

    The coordinate metric is taken at jet order depth + 2, the least the
    curvature needs.  Keys match the specialized engine's naming so the two
    pipelines can be compared entry by entry.
    """
    cm = assemble_coordinate_metric(spec, p, depth + 2)
    cc = coordinate_curvature(cm, depth)
    fr = cm.frame
    n = cm.n
    Rf = to_frame(cc.R, 1, fr)
    Ricf = to_frame(cc.Ric, 0, fr)
    L = slice(2, n)
    blocks: dict[str, np.ndarray] = {
        "Rbar": Rf[L, L, L, L],
        "A": Rf[1, L, 0, L],
        "B": Rf[1, L, L, L],
        "R_i0k": Rf[L, L, 0, L],
        "Ric00": float(Ricf[0, 0]),
        "Ric0i": Ricf[0, L],
        "Ricij": Ricf[L, L],
        "S": cc.S,
    }
    if depth >= 1:
        dRf = to_frame(cc.dR, 1, fr)
        blocks.update({
            "Atil": dRf[1, L, 0, L, 0],
            "Ahat": dRf[1, L, 0, L, L],
            "Btil": dRf[1, L, L, L, 0],
            "Bhat": dRf[1, L, L, L, L],
            "Rtil": dRf[L, L, L, L, 0],
            "gradRbar": dRf[L, L, L, L, L],
        })
    if depth == 2:
        d2Rf = to_frame(cc.d2R, 1, fr)
        # layout [a, b, c, d, inner, outer]
        blocks.update({
            "ll_rbar": d2Rf[L, L, L, L, L, L],
            "0l_rbar": d2Rf[L, L, L, L, L, 0],
            "l0_rbar": d2Rf[L, L, L, L, 0, L],
            "00_rbar": d2Rf[L, L, L, L, 0, 0],
            "ll_b": d2Rf[1, L, L, L, L, L],
            "0l_b": d2Rf[1, L, L, L, L, 0],
            "l0_b": d2Rf[1, L, L, L, 0, L],
            "00_b": d2Rf[1, L, L, L, 0, 0],
            "ll_a": d2Rf[1, L, 0, L, L, L],
            "0l_a": d2Rf[1, L, 0, L, L, 0],
            "l0_a": d2Rf[1, L, 0, L, 0, L],
            "00_a": d2Rf[1, L, 0, L, 0, 0],
        })
    return blocks
