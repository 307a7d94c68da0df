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

Nothing here knows about the partly null frame; ``to_frame`` contracts
coordinate tensors against externally supplied basis matrices, which is
what keeps this module an independent check of the specialized formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import jets
from .chart import ChartPoint, FrameData, FrameTensor, MetricSpec, eval_metric, \
    frame_components, jet_matrix_inverse
from .jets import Jet, jet_einsum

__all__ = [
    "CoordinateMetric",
    "CoordinateCurvature",
    "assemble_coordinate_metric",
    "coordinate_curvature",
    "to_frame",
    "frame_blocks_from_oracle",
]


@dataclass
class CoordinateMetric:
    """Full metric as jets; entries are v-independent by construction."""

    n: int
    point: ChartPoint
    G: Jet            # (n, n) jets in (u, x) variables
    Ginv0: np.ndarray
    frame: FrameData

    @functools.cached_property
    def Ginv(self) -> Jet:
        """Jet inverse of G, built on first use."""
        return jet_matrix_inverse(self.G)


def assemble_coordinate_metric(spec: MetricSpec, p: ChartPoint, order: int) -> CoordinateMetric:
    cj = eval_metric(spec, p, order)
    n, m, nv = spec.n, spec.m, spec.num_vars
    G = jets.zeros((n, n), nv, order)
    G.data[0, 0] = (-2.0 * cj.H).data
    G.data[0, 1] = G.data[1, 0] = jets.const(-1.0, nv, order).data
    for i in range(m):
        G.data[0, 2 + i] = G.data[2 + i, 0] = (-cj.W[i]).data
        for j in range(m):
            G.data[2 + i, 2 + j] = cj.g[i, j].data
    G0 = G.value()
    if abs(np.linalg.det(G0)) < 1e-12:
        raise ValueError(f"assembled metric is singular at {p.coords}")
    return CoordinateMetric(n, p, G, np.linalg.inv(G0), frame_components(cj))


def _cdiff(J: Jet, mu: int) -> Jet:
    """Derivative with respect to coordinate mu; v-derivatives vanish."""
    if mu == 0:
        return J.diff(0)
    if mu == 1:
        child = jets.context(J.num_vars, J.order - 1)
        return Jet(child, np.zeros(J.shape + (child.ncoeffs,)))
    return J.diff(mu - 1)


def _cgrad(J: Jet, n: int) -> Jet:
    """Stack of coordinate derivatives, new axis appended last."""
    parts = [_cdiff(J, mu) for mu in range(n)]
    return Jet(parts[0].ctx, np.stack([p.data for p in parts], axis=-2))


@dataclass
class CoordinateCurvature:
    """Coordinate components of R and its covariant derivatives at a point."""

    n: int
    depth: int
    Gamma: np.ndarray           # values
    R: np.ndarray               # R^a_{bcd}
    dR: np.ndarray | None       # nabla_mu R^a_{bcd}, mu last
    d2R: np.ndarray | None      # nabla_nu nabla_mu R^a_{bcd}, (mu, nu) last
    Ric: np.ndarray
    S: float


def coordinate_curvature(cm: CoordinateMetric, depth: int) -> CoordinateCurvature:
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    if cm.G.order < 2 + depth:
        raise ValueError("insufficient jet order for the requested depth")
    n = cm.n
    dG = _cgrad(cm.G, n)                          # dG[a, b, mu] = g_ab,mu
    sym = Jet(dG.ctx, dG.data + np.einsum("rcbx->rbcx", dG.data)
              - np.einsum("bcrx->rbcx", dG.data))
    Gamma = 0.5 * jet_einsum("ar,rbc->abc", cm.Ginv, sym)

    dGamma = _cgrad(Gamma, n)                     # dGamma[a, b, c, mu]
    dterm = Jet(dGamma.ctx, np.einsum("adbcx->abcdx", dGamma.data)
                - np.einsum("acbdx->abcdx", dGamma.data))
    gg = jet_einsum("acr,rdb->abcd", Gamma, Gamma)
    R = dterm + gg - Jet(gg.ctx, np.swapaxes(gg.data, 2, 3))

    Ric_val = np.trace(R.value(), axis1=0, axis2=2)
    S_val = float(np.einsum("bd,bd->", cm.Ginv0, Ric_val))

    dR_val = d2R_val = None
    if depth >= 1:
        dR = _cov_deriv(R, 1, Gamma, n)
        dR_val = dR.value()
        if depth == 2:
            d2R = _cov_deriv(dR, 1, Gamma, n)
            d2R_val = d2R.value()
    return CoordinateCurvature(n, depth, Gamma.value(), R.value(), dR_val, d2R_val,
                               Ric_val, S_val)


def _cov_deriv(T: Jet, nup: int, Gamma: Jet, n: int) -> Jet:
    """Coordinate covariant derivative, new slot appended last."""
    import string

    letters = [c for c in string.ascii_lowercase if c not in "rs"]
    rank = len(T.shape)
    names = "".join(letters[:rank])
    out = _cgrad(T, n)
    for a in range(rank):
        L = names[a]
        src = names[:a] + "r" + names[a + 1:]
        if a < nup:
            out = out + jet_einsum(f"{L}rs,{src}->{names}s", Gamma, T)
        else:
            out = out - jet_einsum(f"r{L}s,{src}->{names}s", Gamma, T)
    return out


def to_frame(values: np.ndarray, nup: int, frame: FrameData) -> FrameTensor:
    """Contract a coordinate tensor's slots with the partly null frame.

    Contravariant slots (the first ``nup`` axes) pick up theta^alpha_mu,
    covariant slots pick up e_alpha^mu.
    """
    out = values
    for axis in range(values.ndim):
        mat = frame.theta if axis < nup else frame.e
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    slots = tuple(("up" if a < nup else "down", "full") for a in range(values.ndim))
    return FrameTensor(out, slots, frame.n)


def frame_blocks_from_oracle(spec: MetricSpec, p: ChartPoint, depth: int = 2,
                             order: int | None = None) -> dict[str, np.ndarray]:
    """All frame tensor blocks of R, nabla R, nabla nabla R via the oracle.

    Keys match the specialized engine's naming so the two pipelines can be
    compared entry by entry.
    """
    if order is None:
        order = depth + 2
    cm = assemble_coordinate_metric(spec, p, order)
    cc = coordinate_curvature(cm, depth)
    fr = cm.frame
    n = cm.n
    Rf = to_frame(cc.R, 1, fr).data
    Ricf = to_frame(cc.Ric, 0, fr).data
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
        dRf = to_frame(cc.dR, 1, fr).data
        blocks.update({
            "Atil": dRf[1, L, 0, L, 0],
            "Ahat": dRf[1, L, 0, L, L],
            "Btil": dRf[1, L, L, L, 0],
            "Bhat": dRf[1, L, L, L, L],
            "Rtil": dRf[L, L, L, L, 0],
            "gradRbar": dRf[L, L, L, L, L],
        })
    if depth == 2:
        d2Rf = to_frame(cc.d2R, 1, fr).data
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
