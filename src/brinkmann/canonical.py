"""Reconstruction of the canonical plane-wave form of a 2nd-symmetric chart.

Given a chart whose flat block carries

    t_ab(u)  (skew),   h_a(u, x) = Lambda_ac(u) x^c + B_a(u),

there is a change of chart y = R(u) x + D(u), v' = v + chi, taking the
metric to -2du(dv' + H' du) + delta with H' = -A_ab(u) y^a y^b.  The curve
R solves

    dR/du = -R^{-T} t(u),        R(u0) = I,

which preserves orthogonality exactly in the continuum because t is skew;
A is then fixed by the cross-derivative (integrability) relation

    sym(Lambda)(u) = -2 R^T A R + sym(R^T d2R/du2)

and D by the second-order linear ODE  d2D/du2 = 2 A D + R^{-T} B(u).
The sign of the R term in the Lambda relation follows from recomputing the
cross derivatives of chi directly; it is also confirmed numerically by the
scramble/reconstruct round trip.

All three steps read t, tdot, Lambda and B from one batched evaluation on
the nodes and midpoints of ``ode.stage_grid`` over a u-interval inside the
box.  On orthogonal R, -R^{-T} t = -R t, so the rotation ODE is linear in
R^T and runs through ``ode.linear_rk4``.  The drift of the unprojected R
from orthogonal is checked at every node, and then every node is
projected onto the orthogonal group once.  Along the curve R^T R'' =
t t - tdot, so the relation for A reads -2 R^T A R = C with the core

    C = sym(Lambda) + t^T t + sym(tdot),

which is block data alone.  In the rotating frame y = R^T D the
translation ODE becomes

    d2y/du2 = 2 t dy/du + (tdot - t t - C) y + B(u),

affine in (y, y') with coefficients known at every stage without R; it
runs through ``ode.linear_rk4`` too, and D = R y at the nodes.

On a proper 2nd-symmetric space A(u) is affine with nonzero slope; the
affine fit residual reported by ``verify_canonical`` is therefore the
operational test of the construction.  Note H' = -A y y means the
plane-wave quadratic coefficient is P(u) = -A(u); both are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr, jets
from .chart import MetricSpec
from .ode import linear_rk4, stage_grid, step_size

__all__ = [
    "FlatBlockData",
    "RotationCurve",
    "CanonicalForm",
    "solve_rotation_ode",
    "recover_A",
    "solve_translation_ode",
    "verify_canonical",
    "reconstruct",
]

DRIFT_LIMIT = 1e-6
BLOCK_JET_ORDER = 3  # the affine residual reads third derivatives of H
SLOPE_TOL = 1e-8  # an A1 entry or eigenvalue above this counts as a nonzero slope
HYPOTHESIS_TOL = 1e-8  # |t + t^T|, affine_residual and t_x_residual above this refuse the chart
AFFINE_TOL = 1e-8  # an A(u) fit residual above this times 1 + max|A| refuses the canonical form


def _T(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (..., d, d)."""
    return np.swapaxes(M, -1, -2)


@dataclass
class FlatBlockData:
    """t_ab(u), Lambda_ab(u), B_a(u) on the flat block, at a batch of u's.

    Extraction evaluates the chart's h and t at x = 0 on the block:
    B is the value of h, Lambda its x-gradient, and t its value; the
    u-derivative of t comes from the same jets, a run of the spec's own
    tape (``MetricSpec.tape``).  ``affine_residual`` and
    ``t_x_residual`` record how far h strays from affine and t from
    x-independence over the evaluated u's; ``solve_rotation_ode`` refuses
    either above ``HYPOTHESIS_TOL``.
    """

    spec: MetricSpec
    block: tuple[int, ...]

    def __post_init__(self):
        self._cache: set[float] = set()   # u values evaluated so far; perfbench counts them
        self.affine_residual = 0.0
        self.t_x_residual = 0.0
        self._base_x = []
        for k in range(self.spec.m):
            lo, hi = self.spec.box[1 + k]
            self._base_x.append(0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi))

    @property
    def d(self) -> int:
        return len(self.block)

    def precompute(self, us: np.ndarray) -> tuple[np.ndarray, ...]:
        """(t, tdot, Lambda, B) at every u of ``us``, in one batched jet pass.

        The jets run over u and the block's x only, in chart order, and only
        u carries the batch of ``us``: the block's x are seeded as scalar
        jets at ``_base_x``, and every other leaf coordinate is a constant
        there.  So a subexpression in x alone is formed once, not once per u.
        Every coefficient read here sums the same products in the same order
        as over all chart variables, and batched products equal scalar ones
        bit for bit, so the result does not depend on this restriction.  The
        tape also gives the g_ij off the block, which nothing here reads; on
        a product of a plane wave with a Riemannian block they do not depend
        on u, so they stay scalar jets.

        Returns arrays in the order of ``us``.  A non-finite value of these,
        or of H, W_i or the block's g_ab, is a ``ValueError`` naming the
        quantity and the first u where it occurs.
        """
        us = np.asarray(us, dtype=float)
        m, d = self.spec.m, self.d
        nv, order = 1 + d, BLOCK_JET_ORDER
        # jet variable of each block slot: u is 0, the block's x follow in chart order
        var = {sa: 1 + i for i, sa in enumerate(sorted(self.block))}
        env = {"u": jets.seed(0, us, nv, order)}
        for k in range(m):
            env[f"x{k + 2}"] = (jets.seed(var[k], self._base_x[k], nv, order) if k in var
                                else jets.const(self._base_x[k], nv, order))
        ctx = jets.context(nv, order)

        def coeff(jet: jets.Jet, *slots: int) -> np.ndarray:
            e = [0] * nv
            for v in slots:
                e[v] += 1
            return np.broadcast_to(jet.data[..., ctx.index(e)], us.shape)

        with np.errstate(all="ignore"):
            fields = expr.eval_jet(self.spec.tape, env, nv, order)
            Hj, Wj = fields[0], fields[1:1 + m]
            h_block = [Hj.diff(var[sa]) - Wj[sa].du() for sa in self.block]
            t_block = [[0.5 * (-fields[1 + m + m * sa + sb].du() + Wj[sa].diff(var[sb])
                               - Wj[sb].diff(var[sa]))
                        for sb in self.block] for sa in self.block]
        B = np.empty((us.size, d))
        Lam = np.empty((us.size, d, d))
        tval = np.empty((us.size, d, d))
        tdot = np.empty((us.size, d, d))
        for a in range(d):
            B[:, a] = coeff(h_block[a])
            for b, sb in enumerate(self.block):
                Lam[:, a, b] = coeff(h_block[a], var[sb])
                tval[:, a, b] = coeff(t_block[a][b])
                tdot[:, a, b] = coeff(t_block[a][b], 0)
        _refuse_non_finite(us, {"t": tval, "tdot": tdot, "Lambda": Lam, "B": B})
        # A factor that overflowed on the block's x alone can leave H, W or g
        # infinite while every coefficient read above stays finite.
        read = [*range(1 + m), *(1 + m + m * sa + sb for sa in self.block for sb in self.block)]
        _refuse_non_finite(us, {self.spec.field_name(k): coeff(fields[k]) for k in read})
        tx = [coeff(tab, var[sc]) for row in t_block for tab in row for sc in self.block]
        aff = [coeff(ha, var[sb], var[sc]) for ha in h_block for sb in self.block
               for sc in self.block]
        # np.max, unlike max, keeps a NaN
        self.affine_residual = float(np.max([self.affine_residual,
                                             *(np.max(np.abs(c)) for c in aff)]))
        self.t_x_residual = float(np.max([self.t_x_residual, *(np.max(np.abs(c)) for c in tx)]))
        self._cache.update(us.tolist())
        return tval, tdot, Lam, B


def _refuse_non_finite(us: np.ndarray, fields: dict[str, np.ndarray]) -> None:
    """Refuse a non-finite entry of the fields, arrays with the u's of ``us`` leading,
    naming the first u where one occurs and the first such field there."""
    finite = np.array([np.isfinite(v).reshape(us.size, -1).all(axis=1)
                       for v in fields.values()])
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        name = list(fields)[int(np.argmin(finite[:, i]))]
        raise ValueError(f"non-finite {name} in the flat-block data at u = {float(us[i])!r}")


@dataclass
class RotationCurve:
    """R on the u-grid and the block data.

    ``t``, ``tdot``, ``Lambda`` and ``B`` hold the rows of ``ode.stage_grid``;
    stage s of step k read row ``stage_rows[k, s]``.  The recovery of A and
    the translation ODE read everything from here.
    """

    us: np.ndarray
    R: np.ndarray            # (len(us), d, d)
    orthogonality_error: float       # max |R^T R - I| over the projected nodes
    drift_before_projection: float   # the same over the nodes before projection
    h: float
    stage_rows: np.ndarray   # (steps, 4)
    t: np.ndarray            # (2 steps + 1, d, d)
    tdot: np.ndarray         # (2 steps + 1, d, d)
    Lambda: np.ndarray       # (2 steps + 1, d, d)
    B: np.ndarray            # (2 steps + 1, d)


def _check_hypotheses(data: FlatBlockData, us: np.ndarray, t: np.ndarray) -> None:
    """Refuse block data the construction does not apply to: t must be skew,
    h affine in x and t independent of x, each within ``HYPOTHESIS_TOL``."""
    skew = np.max(np.abs(t + _T(t)), axis=(1, 2), initial=0.0)
    k = int(np.argmax(skew))
    if not skew[k] <= HYPOTHESIS_TOL:
        raise ValueError(f"t is not skew: |t + t^T| = {skew[k]:.2e} at u = {float(us[k])!r}; "
                         f"the rotation ODE needs a skew t")
    for name, meaning in (("affine_residual", "h is not affine in x"),
                          ("t_x_residual", "t depends on x")):
        value = getattr(data, name)
        if not value <= HYPOTHESIS_TOL:
            raise ValueError(f"flat-block {name} {value:.2e} exceeds {HYPOTHESIS_TOL:.0e}: "
                             f"{meaning}")


def _polar_project(R: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(R)
    return U @ Vt


def solve_rotation_ode(data: FlatBlockData, u_interval: tuple[float, float],
                       steps: int | None = None) -> RotationCurve:
    """Integrate dR/du = -R^{-T} t(u) from R = I, then project every node onto
    the orthogonal group once.

    On orthogonal R the equation reads dR^T/du = -t^T R^T, which is linear,
    so it runs through ``ode.linear_rk4``.  Its unprojected nodes must stay
    within ``DRIFT_LIMIT`` of orthogonal; ``drift_before_projection`` is the
    largest |R^T R - I| over all of them.  An empty interval, or block data
    with a non-skew t, an h not affine or a t not constant in x, is a ``ValueError``.

    ``steps`` defaults to 2000 fixed Runge-Kutta steps per unit of u, at least 200.
    """
    d = data.d
    u0, u1 = u_interval
    if u0 == u1:
        raise ValueError(f"u interval {(float(u0), float(u1))} is empty")
    if steps is None:
        steps = max(200, int(2000 * abs(u1 - u0)))
    h = step_size(u1 - u0, steps)
    us, grid, rows = stage_grid(u0, h, steps)
    t, tdot, lam, B = data.precompute(grid)
    _check_hypotheses(data, grid, t)
    Rt = linear_rk4(-_T(t[rows]), h, np.eye(d))
    R = _T(Rt)
    dev = np.max(np.abs(Rt @ R - np.eye(d)), axis=(1, 2), initial=0.0)
    over = ~(dev <= DRIFT_LIMIT)
    if over.any():
        k = int(np.argmax(over))
        raise RuntimeError(
            f"orthogonality drift {dev[k]:.2e} exceeds {DRIFT_LIMIT:.0e} from u = "
            f"{float(us[k])!r}; increase the step count")
    R = _polar_project(R)
    err = float(np.max(np.abs(_T(R) @ R - np.eye(d)), initial=0.0))
    return RotationCurve(us, R, err, float(np.max(dev)), h, rows, t, tdot, lam, B)


def _core(t: np.ndarray, tdot: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """C = -2 R^T A R on stacks (..., d, d) of t, tdot and Lambda: the
    cross-derivative relation with R^T d2R/du2 = t t - tdot on the rotation curve."""
    return 0.5 * (lam + _T(lam)) + _T(t) @ t + 0.5 * (tdot + _T(tdot))


def recover_A(rot: RotationCurve) -> np.ndarray:
    """A(u) = sym(-R C R^T / 2) at the rotation grid nodes."""
    A = -0.5 * (rot.R @ _core(rot.t[0::2], rot.tdot[0::2], rot.Lambda[0::2]) @ _T(rot.R))
    return 0.5 * (A + _T(A))


def solve_translation_ode(rot: RotationCurve) -> np.ndarray:
    """D(u) on the rotation grid with D = D' = 0 at u0, from d2D/du2 = 2 A D + R^{-T} B
    solved in the rotating frame y = R^T D.

    The state (y, y') obeys the affine equation with the matrix
    [[0, I], [tdot - t t - C, 2t]] and the offset [0, B], formed once on the
    ``stage_grid`` rows and read at every stage through ``rot.stage_rows``.
    """
    d = rot.R.shape[-1]
    t, tdot = rot.t, rot.tdot
    M = np.zeros((len(t), 2 * d, 2 * d))
    M[:, :d, d:] = np.eye(d)
    M[:, d:, :d] = tdot - t @ t - _core(t, tdot, rot.Lambda)
    M[:, d:, d:] = 2.0 * t
    b = np.zeros((len(t), 2 * d))
    b[:, d:] = rot.B
    y = linear_rk4(M[rot.stage_rows], rot.h, np.zeros(2 * d), b[rot.stage_rows])
    return (rot.R @ y[:, :d, None])[..., 0]


@dataclass
class CanonicalForm:
    us: np.ndarray
    A_of_u: np.ndarray        # (k, d, d), canonical H' = -A y y
    P_of_u: np.ndarray        # -A_of_u: quadratic coefficient of H'
    R_of_u: np.ndarray
    D_of_u: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    affine_residual: float    # max |A(u) - (A1 u + A0)|: the Addot test
    orthogonality_error: float
    proper: bool
    eqq1_residual: float
    eqq3_residual: float
    A1_diagonal: np.ndarray   # normal form: A1 eigenvalues
    A0_normal: np.ndarray     # A0 in the A1 eigenbasis, one entry cancelled
    u_shift: float
    essential_parameters: int

    def to_dict(self) -> dict:
        return {
            "u_samples": self.us.tolist(),
            "A0": self.A0.tolist(),
            "A1": self.A1.tolist(),
            "P0": (-self.A0).tolist(),
            "P1": (-self.A1).tolist(),
            "affine_residual": self.affine_residual,
            "orthogonality_error": self.orthogonality_error,
            "proper": self.proper,
            "eqq1_residual": self.eqq1_residual,
            "eqq3_residual": self.eqq3_residual,
            "A1_diagonal": self.A1_diagonal.tolist(),
            "A0_normal_form": self.A0_normal.tolist(),
            "u_shift": self.u_shift,
            "essential_parameters": self.essential_parameters,
        }


def verify_canonical(us: np.ndarray, A_of_u: np.ndarray) -> dict:
    """Affine fit A(u) ~ A1 u + A0 plus the essential-parameter normal form.

    An empty block (d = 0) fits exactly, is never proper and has an empty normal form.
    """
    k, d, _ = A_of_u.shape
    design = np.stack([np.ones_like(us), us], axis=1)
    coef, *_ = np.linalg.lstsq(design, A_of_u.reshape(k, d * d), rcond=None)
    A0 = coef[0].reshape(d, d)
    A1 = coef[1].reshape(d, d)
    fit = design @ coef
    residual = float(np.max(np.abs(fit - A_of_u.reshape(k, d * d)), initial=0.0))
    proper = bool(np.max(np.abs(A1), initial=0.0) > SLOPE_TOL)
    w, O = np.linalg.eigh(0.5 * (A1 + A1.T))
    A0n = O.T @ A0 @ O
    u_shift = 0.0
    for idx in range(d):
        if abs(w[idx]) > SLOPE_TOL:
            u_shift = -A0n[idx, idx] / w[idx]
            break
    A0n = A0n + u_shift * np.diag(w)
    return {
        "A0": A0, "A1": A1, "affine_residual": residual, "proper": proper,
        "A1_diagonal": w, "A0_normal": A0n, "u_shift": u_shift,
        "essential_parameters": d - 1 + d * (d + 1) // 2 if d else 0,
    }


def _eqq_residuals(rot: RotationCurve, A_of_u: np.ndarray,
                   D_of_u: np.ndarray) -> tuple[float, float]:
    """Integrability residuals with derivatives taken by central differences.

    Differencing the integrated curves keeps the check independent of the
    ODE right-hand sides, at the price of an O(h^2) floor.  Without an
    interior node or on an empty block (d = 0) both residuals are 0.
    """
    h = float(rot.us[1] - rot.us[0])
    k = np.arange(1, len(rot.us) - 1, max(1, len(rot.us) // 64))
    R = rot.R[k]
    Rdot = (rot.R[k + 1] - rot.R[k - 1]) / (2.0 * h)
    skew = 0.5 * (_T(Rdot) @ R - _T(R) @ Rdot)
    r1 = float(np.max(np.abs(rot.t[2 * k] - skew), initial=0.0))
    Ddd = (D_of_u[k + 1] - 2.0 * D_of_u[k] + D_of_u[k - 1]) / h ** 2
    rhs = (-2.0 * _T(R) @ A_of_u[k] @ D_of_u[k][..., None]
           + _T(R) @ Ddd[..., None])[..., 0]
    r3 = float(np.max(np.abs(rot.B[2 * k] - rhs), initial=0.0))
    return r1, r3


def reconstruct(spec: MetricSpec, block: Sequence[int] | None = None,
                u_interval: tuple[float, float] | None = None,
                steps: int | None = None) -> CanonicalForm:
    """Full pipeline: extract flat-block data, solve the ODEs, fit A(u).

    R starts at the identity and D at zero with zero slope.
    """
    if block is None:
        block = tuple(range(spec.m))
    data = FlatBlockData(spec, tuple(block))
    if u_interval is None:
        u_interval = spec.box[0]
    lo, hi = spec.box[0]
    if not all(lo <= u <= hi for u in u_interval):
        raise ValueError(f"u interval {tuple(u_interval)} lies outside the box u in {(lo, hi)}")
    rot = solve_rotation_ode(data, u_interval, steps)
    A_of_u = recover_A(rot)
    D_of_u = solve_translation_ode(rot)
    fit = verify_canonical(rot.us, A_of_u)
    r1, r3 = _eqq_residuals(rot, A_of_u, D_of_u)
    return CanonicalForm(
        us=rot.us,
        A_of_u=A_of_u,
        P_of_u=-A_of_u,
        R_of_u=rot.R,
        D_of_u=D_of_u,
        A0=fit["A0"],
        A1=fit["A1"],
        affine_residual=fit["affine_residual"],
        orthogonality_error=rot.orthogonality_error,
        proper=fit["proper"],
        eqq1_residual=r1,
        eqq3_residual=r3,
        A1_diagonal=fit["A1_diagonal"],
        A0_normal=fit["A0_normal"],
        u_shift=fit["u_shift"],
        essential_parameters=fit["essential_parameters"],
    )
