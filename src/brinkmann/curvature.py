"""Frame curvature of a Brinkmann chart via the specialized leaf formulas.

Everything is expressed through leaf tensors (indices over the spacelike
directions, stored 0-based) and four derivative operators:

* ``leaf_grad``   -- the intrinsic covariant derivative of the u-dependent
  leaf metric, appending its derivative slot LAST;
* ``d0_op``       -- the transverse derivative along E_0 of a v-invariant
  section: plain u-derivative of components plus t-corrections, one per
  slot;
* plain ``diff``/``du``/``grad`` on jets for raw partials.

Tensor layout conventions (paper-style index order in brackets):

* ``A[i, j]``            symmetric,            A_ij = R^1_{i0j}
* ``B[i, j, k]``         skew in (j, k),       B_ijk = R^1_{ijk}
* ``Rbar_up[i, j, k, l]``                      Rbar^i_{jkl}
* ``Atil[i, j]``                               nabla_0 R^1_{i0j}
* ``Ahat[i, j, s]``      derivative slot last, nabla_s R^1_{i0j}
* ``Btil[i, j, k]``                            nabla_0 R^1_{ijk}
* ``Bhat[i, j, k, s]``                         nabla_s R^1_{ijk}
* ``Rtil_up[i, j, k, l]``                      nabla_0 Rbar^i_{jkl}
* ``gradRbar[i, j, k, l, s]``                  nabla_s Rbar^i_{jkl}

The values come back as one ``blocks`` dict whose keys, per depth, are
those of ``chart.FRAME_BLOCKS``: the curvature slices (Rbar, A, B, R^i_{j0k}
and the Ricci pieces), the five slices of nabla R plus nabla Rbar, and the
twelve blocks of nabla nabla R.  The table maps each key to its slot
signature, the frame row of each tensor slot ('0' E_0, '1' E_1, 'l' the
leaf), and a block's leaf slots keep the signature's order; e.g. ``A`` is
"1l0l", R^1_{i0j}.  ``oracle.frame_blocks_from_oracle`` cuts the same keys,
in the same order, from the coordinate tensors by those signatures.  The
twelve second-derivative blocks are keyed by (outer, inner) derivative type
-- 'l' for a leaf direction, '0' for E_0 -- plus the curvature slice they
refine (rbar, b or a), e.g. ``l0_a`` ("1l0l0l") holds nabla_m nabla_0
R^1_{i0j} with the new leaf slot appended last.  Correction terms are
contracted exactly as the second-symmetry system writes them; each block
vanishes identically on a 2nd-symmetric space.

``curvature_at`` also takes a stack of N chart points (a ``ChartPoint`` with
a 1-D array u), as ``eval_metric`` and the oracle do: every jet and block
then carries a leading node axis, every ``jet_einsum`` contracts with the
node letter N leading its subscripts (``chart.node_subscripts``), and each
node's numbers are bit for bit those of its own one-point call.  Every jet
is only as deep as what reads it: each connection correction is contracted
at the order of the derivative it corrects, the Gamma Gamma product of Rbar
at the order of dGamma and t^k_i t_kj at the order of A.  At the default
order the depth-2 blocks, read only as values, are thus contracted at order
0.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .chart import FRAME_BLOCKS, ChartJets, ChartPoint, MetricSpec, christoffel_bar, compute_h_t, \
    eval_metric, node_subscripts
from .jets import Jet, jet_einsum

__all__ = [
    "FRAME_BLOCKS",
    "ChartCurvature",
    "curvature_at",
    "leaf_grad",
    "d0_op",
]

_LETTERS = [c for c in string.ascii_lowercase if c not in "rs"]


def _slot_letters(k: int) -> str:
    return "".join(_LETTERS[:k])


def _add_slot_corrections(out: Jet, T: Jet, nup: int, conn: Jet, nodes: tuple[int, ...],
                          deriv: str = "", sign: int = 1) -> Jet:
    """Add one connection term per slot of ``T`` to ``out``, in slot order.

    A contravariant slot L contributes conn^L_r T^{..r..}, a covariant slot
    L contributes -conn^r_L T_{..r..}; ``sign`` -1 flips both.  ``deriv``
    names a trailing index of ``conn`` carried through to the output.
    ``nodes`` is the node shape leading ``conn``, ``T`` and ``out``.  Each
    term is contracted at the order of ``out``, the most that sum keeps.
    """
    rank = len(T.shape) - len(nodes)
    letters = _slot_letters(rank)
    order = min(out.order, conn.order)
    conn, T = conn.truncate(order), T.truncate(order)
    for a in range(rank):
        L = letters[a]
        src = letters[:a] + "r" + letters[a + 1:]
        pair = f"{L}r" if a < nup else f"r{L}"
        term = jet_einsum(node_subscripts(f"{pair}{deriv},{src}->{letters}{deriv}", nodes),
                          conn, T)
        out = out + term if (a < nup) == (sign > 0) else out - term
    return out


def leaf_grad(T: Jet, nup: int, gamma: Jet) -> Jet:
    """Leaf covariant derivative; the new covariant slot is appended last.

    ``T`` has its ``nup`` contravariant axes first, then covariant axes.
    ``gamma[i, j, k]`` holds Gamma^i_{jk}; node axes of a stack lead
    ``gamma`` and ``T``.
    """
    out = T.grad(tuple(range(1, gamma.shape[-1] + 1)))
    return _add_slot_corrections(out, T, nup, gamma, gamma.shape[:-3], deriv="s")


def d0_op(T: Jet, nup: int, tup: Jet) -> Jet:
    """Transverse derivative of a v-invariant leaf section.

    Implements dot(T) minus t^i_k contractions on contravariant slots plus
    t^k_j contractions on covariant slots; ``tup[i, j]`` holds t^i_j.  Node
    axes of a stack lead ``tup`` and ``T``.
    """
    return _add_slot_corrections(T.du(), T, nup, tup, tup.shape[:-2], sign=-1)


def _sym12(x: np.ndarray, nn: int) -> np.ndarray:
    """Symmetrize the first two slots (the (i, j) pair of A/B-type slices)
    after ``nn`` node axes."""
    return 0.5 * (x + np.swapaxes(x, nn, nn + 1))


def _jtrace(J: Jet, a: int, b: int) -> Jet:
    return Jet(J.ctx, np.trace(J.data, axis1=a, axis2=b))


@dataclass
class ChartCurvature:
    """The jets of one (spec, point) evaluation and the values of its frame blocks.

    ``blocks`` holds the keys of ``FRAME_BLOCKS[:depth + 1]`` in table order;
    the nabla R jets ``Atil`` .. ``gradRbar`` and the values ``Atil_grad`` and
    ``Atil_d0`` (``curvature_at``) are None below depth 1.  On a two-dimensional
    chart (m = 0) every leaf jet and block is empty.  At a stack of points
    every jet, value and block has a leading node axis (rank-0 ones too).
    """

    cj: ChartJets
    h: Jet
    t: Jet
    tup: Jet
    hup: Jet
    gamma: Jet
    Rbar_up: Jet
    A: Jet
    B: Jet
    depth: int
    blocks: dict[str, np.ndarray | float]
    Atil: Jet | None = None
    Ahat: Jet | None = None
    Btil: Jet | None = None
    Bhat: Jet | None = None
    Rtil: Jet | None = None
    gradRbar: Jet | None = None
    Atil_grad: np.ndarray | None = None
    Atil_d0: np.ndarray | None = None

    @property
    def spec(self) -> MetricSpec:
        return self.cj.spec

    @property
    def point(self) -> ChartPoint:
        return self.cj.point


def curvature_at(spec: MetricSpec, p: ChartPoint, order: int | None = None,
                 depth: int = 2) -> ChartCurvature:
    """Compute curvature, nabla R and (depth 2) nabla nabla R blocks at p.

    R takes two derivatives of the metric.  From depth 1, ``Atil_grad`` and
    ``Atil_d0`` (``leaf_grad``, ``d0_op`` of Atil) take four, so the least and
    default jet order is 2 at depth 0 and 4 at depths 1 and 2.  At a stack of
    points, every jet and block has a leading node axis, and a failure is the
    first failing node's error.
    """
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    least = 2 if depth == 0 else 4
    order = least if order is None else order
    if order < least:
        raise ValueError(f"jet order {order} too small for depth {depth}")
    cj = eval_metric(spec, p, order)
    nodes = p.shape
    nn = len(nodes)

    def ein(subscripts: str, a: Jet, b: Jet) -> Jet:
        return jet_einsum(node_subscripts(subscripts, nodes), a, b)

    h, t = compute_h_t(cj)
    gamma = christoffel_bar(cj)
    ginv = cj.ginv
    tup = ein("ir,rj->ij", ginv, t)        # t^i_j
    hup = ein("ij,j->i", ginv, h)          # h^i

    # Leaf curvature from the connection coefficients:
    # Rbar^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj} + G^i_{kr}G^r_{lj} - G^i_{lr}G^r_{kj}
    dgam_j = gamma.grad(tuple(range(1, cj.m + 1)))   # dgam_j[i, a, b, k] = Gamma^i_{ab,k}
    dterm = Jet(dgam_j.ctx,
                np.einsum("...iljkc->...ijklc", dgam_j.data)
                - np.einsum("...ikjlc->...ijklc", dgam_j.data))
    low = gamma.truncate(dgam_j.order)     # Rbar reads no higher degree
    gg = ein("ikr,rlj->ijkl", low, low)
    ggT = Jet(gg.ctx, np.swapaxes(gg.data, -3, -2))
    Rbar_up = dterm + gg - ggT
    Ricbar = _jtrace(Rbar_up, nn, nn + 2)
    Sbar = ein("ij,ij->", ginv, Ricbar)

    # Curvature slices: A_ij = -(grad_j h_i + tdot_ij + t^k_i t_kj), B = skew grad t.
    grad_h = leaf_grad(h, 0, gamma)
    tdot = t.du()
    tt = ein("ki,kj->ij", tup.truncate(tdot.order), t.truncate(tdot.order))
    A = -(grad_h + tdot + tt)
    grad_t = leaf_grad(t, 0, gamma)
    B = Jet(grad_t.ctx, grad_t.data - np.swapaxes(grad_t.data, nn + 1, nn + 2))
    grad_tup = leaf_grad(tup, 1, gamma)
    R_i0k = grad_tup + gamma.du()

    # Ricci pieces; the full scalar curvature equals the leaf scalar.
    grad_hup = leaf_grad(hup, 1, gamma)
    Ric00 = _jtrace(grad_hup, nn, nn + 1) + ein("ij,ji->", ginv, tdot) \
        + ein("ki,ki->", ein("jr,ir->ij", ginv, tup), t)
    tr_tup = _jtrace(tup, nn, nn + 1)
    Ric0i = leaf_grad(tr_tup, 0, gamma) - _jtrace(grad_tup, nn, nn + 2)

    blocks = {
        "Rbar": Rbar_up.value(), "A": A.value(), "B": B.value(), "R_i0k": R_i0k.value(),
        "Ric00": Ric00.value(), "Ric0i": Ric0i.value(), "Ricij": Ricbar.value(),
        "S": Sbar.value(),
    }
    cc = ChartCurvature(cj, h, t, tup, hup, gamma, Rbar_up, A, B, depth, blocks)
    if depth == 0:
        return cc

    # First derivatives of the curvature.
    Bsym = Jet(B.ctx, _sym12(B.data, nn))  # B_(ij)k
    cc.Atil = d0_op(A, 0, tup) + 2.0 * ein("k,ijk->ij", hup, Bsym)
    cc.Ahat = leaf_grad(A, 0, gamma) - 2.0 * ein("ks,ijk->ijs", tup, Bsym)
    cc.Btil = d0_op(B, 0, tup) + ein("r,rijk->ijk", h, Rbar_up)
    cc.Bhat = leaf_grad(B, 0, gamma) - ein("rs,rijk->ijks", t, Rbar_up)
    cc.Rtil = d0_op(Rbar_up, 1, tup)
    cc.gradRbar = leaf_grad(Rbar_up, 1, gamma)
    blocks.update((k, getattr(cc, k).value()) for k in FRAME_BLOCKS[1])
    cc.Atil_grad = leaf_grad(cc.Atil, 0, gamma).value()
    cc.Atil_d0 = d0_op(cc.Atil, 0, tup).value()

    if depth == 2:
        blocks.update(_second_derivatives(cc, nn))
    return cc


def _second_derivatives(cc: ChartCurvature, nn: int) -> dict[str, np.ndarray]:
    """Values of the twelve nabla nabla R blocks, with their corrections
    (``nn`` node axes lead every jet and block)."""
    gamma, tup = cc.gamma, cc.tup
    t_val, tup_val, h_val, hup_val = cc.t.value(), tup.value(), cc.h.value(), cc.hup.value()
    f = cc.blocks
    Bhat_sym = _sym12(f["Bhat"], nn)
    Btil_sym = _sym12(f["Btil"], nn)

    return {
        "ll_rbar": leaf_grad(cc.gradRbar, 1, gamma).value(),
        "0l_rbar": d0_op(cc.gradRbar, 1, tup).value(),
        "l0_rbar": leaf_grad(cc.Rtil, 1, gamma).value()
        + np.einsum("...sm,...ijkls->...ijklm", tup_val, f["gradRbar"]),
        "00_rbar": d0_op(cc.Rtil, 1, tup).value()
        - np.einsum("...s,...ijkls->...ijkl", hup_val, f["gradRbar"]),

        "ll_b": leaf_grad(cc.Bhat, 0, gamma).value()
        - np.einsum("...rm,...rijks->...ijksm", t_val, f["gradRbar"]),
        "0l_b": d0_op(cc.Bhat, 0, tup).value()
        + np.einsum("...r,...rijks->...ijks", h_val, f["gradRbar"]),
        "l0_b": leaf_grad(cc.Btil, 0, gamma).value()
        - np.einsum("...rm,...rijk->...ijkm", t_val, f["Rtil"])
        + np.einsum("...sm,...ijks->...ijkm", tup_val, f["Bhat"]),
        "00_b": d0_op(cc.Btil, 0, tup).value()
        + np.einsum("...r,...rijk->...ijk", h_val, f["Rtil"])
        - np.einsum("...s,...ijks->...ijk", hup_val, f["Bhat"]),

        "ll_a": leaf_grad(cc.Ahat, 0, gamma).value()
        - 2.0 * np.einsum("...km,...ijks->...ijsm", tup_val, Bhat_sym),
        "0l_a": d0_op(cc.Ahat, 0, tup).value()
        + 2.0 * np.einsum("...k,...ijks->...ijs", hup_val, Bhat_sym),
        "l0_a": cc.Atil_grad
        - 2.0 * np.einsum("...km,...ijk->...ijm", tup_val, Btil_sym)
        + np.einsum("...sm,...ijs->...ijm", tup_val, f["Ahat"]),
        "00_a": cc.Atil_d0
        + 2.0 * np.einsum("...k,...ijk->...ij", hup_val, Btil_sym)
        - np.einsum("...s,...ijs->...ij", hup_val, f["Ahat"]),
    }
