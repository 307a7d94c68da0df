"""Reconstruction of the canonical plane-wave form of a 2nd-symmetric chart.

Given a chart whose flat block carries

    t_ab(u)  (skew),   h_a(u, x) = Lambda_ac(u) x^c + B_a(u),

there is a change of chart y = R(u) x + D(u), v' = v + chi, taking the
metric to -2du(dv' + H' du) + delta with H' = -A_ab(u) y^a y^b.  The curve
R solves

    dR/du = -R^{-T} t(u),        R(0) orthogonal,

which preserves orthogonality exactly in the continuum because t is skew;
A is then fixed by the cross-derivative (integrability) relation

    sym(Lambda)(u) = -2 R^T A R + sym(R^T d2R/du2)

and D by the second-order linear ODE  d2D/du2 = 2 A D + R^{-T} B(u).
The sign of the R term in the Lambda relation follows from recomputing the
cross derivatives of chi directly; it is also confirmed numerically by the
scramble/reconstruct round trip.

All three steps read t, tdot, Lambda and B from one batched evaluation on
the nodes and midpoints of ``ode.stage_grid`` over a u-interval inside the
box, and apply the relation for A to stacks of matrices.

On a proper 2nd-symmetric space A(u) is affine with nonzero slope; the
affine fit residual reported by ``verify_canonical`` is therefore the
operational test of the construction.  Note H' = -A y y means the
plane-wave quadratic coefficient is P(u) = -A(u); both are reported.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr, jets
from .chart import MetricSpec
from .ode import rk4_step, stage_grid

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

REPROJECT_EVERY = 50
DRIFT_LIMIT = 1e-6
BLOCK_JET_ORDER = 3  # the affine residual reads third derivatives of H
SLOPE_TOL = 1e-8  # an A1 entry or eigenvalue above this counts as a nonzero slope


def _T(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (..., d, d)."""
    return np.swapaxes(M, -1, -2)


@dataclass
class FlatBlockData:
    """Samplers for t_ab(u), Lambda_ab(u), B_a(u) on the flat block.

    Extraction evaluates the chart's h and t at x = 0 on the block:
    B is the value of h, Lambda its x-gradient, and t its value; the
    u-derivative of t comes from the same jets.  ``affine_residual`` and
    ``t_x_residual`` record how far h strays from affine and t from
    x-independence over the evaluated u's (both must be ~0 for the
    construction to apply).
    """

    spec: MetricSpec
    block: tuple[int, ...]

    def __post_init__(self):
        self._cache: dict[float, tuple] = {}
        self.affine_residual = 0.0
        self.t_x_residual = 0.0
        self._base_x = []
        for k in range(self.spec.m):
            lo, hi = self.spec.box[1 + k]
            self._base_x.append(0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi))

    @property
    def d(self) -> int:
        return len(self.block)

    @functools.cached_property
    def tape(self) -> expr.Tape:
        """H, W_i and the block's g_ab (row-major), compiled on first use.

        The g_ij off the block are left out: on a batch of u's every field
        is a large jet, and the extraction never reads them.
        """
        g = self.spec.g
        return expr.Tape([self.spec.H, *self.spec.W,
                          *(g[a][b] for a in self.block for b in self.block)])

    def precompute(self, us: np.ndarray) -> tuple[np.ndarray, ...]:
        """(t, tdot, Lambda, B) at every u of ``us``, in one batched jet pass.

        Returns arrays in the order of ``us``; the per-u samplers read the
        same rows afterwards.  A non-finite value is a ``ValueError`` naming
        the quantity and the first u where it occurs.
        """
        us = np.asarray(us, dtype=float)
        spec = self.spec
        nv, order, m, d = spec.num_vars, BLOCK_JET_ORDER, spec.m, self.d
        env = {"u": jets.seed(0, us, nv, order)}
        for k in range(m):
            env[f"x{k + 2}"] = jets.seed(1 + k, np.full(us.shape, self._base_x[k]), nv, order)
        ctx = jets.context(nv, order)

        def coeff(jet: jets.Jet, *slots: int) -> np.ndarray:
            e = [0] * nv
            for v in slots:
                e[v] += 1
            return jet.data[..., ctx.index(e)]

        with np.errstate(all="ignore"):
            fields = expr.eval_jet(self.tape, env, nv, order)
            Hj, Wj = fields[0], fields[1:1 + m]
            h_block = [Hj.diff(1 + sa) - Wj[sa].du() for sa in self.block]
            t_block = [[0.5 * (-fields[1 + m + d * a + b].du() + Wj[sa].diff(1 + sb)
                               - Wj[sb].diff(1 + sa))
                        for b, sb in enumerate(self.block)] for a, sa in enumerate(self.block)]
        B = np.empty((us.size, d))
        Lam = np.empty((us.size, d, d))
        tval = np.empty((us.size, d, d))
        tdot = np.empty((us.size, d, d))
        for a in range(d):
            B[:, a] = h_block[a].value()
            for b, sb in enumerate(self.block):
                Lam[:, a, b] = coeff(h_block[a], 1 + sb)
                tval[:, a, b] = t_block[a][b].value()
                tdot[:, a, b] = coeff(t_block[a][b], 0)
        finite = np.array([np.isfinite(v).reshape(us.size, -1).all(axis=1)
                           for v in (tval, tdot, Lam, B)])
        if not finite.all():
            i = int(np.argmin(finite.all(axis=0)))
            name = ("t", "tdot", "Lambda", "B")[int(np.argmin(finite[:, i]))]
            raise ValueError(f"non-finite {name} in the flat-block data at u = {float(us[i])!r}")
        tx = [coeff(tab, 1 + sc) for row in t_block for tab in row for sc in self.block]
        aff = [coeff(ha, 1 + sb, 1 + sc) for ha in h_block for sb in self.block for sc in self.block]
        # np.max, unlike max, keeps a NaN
        self.affine_residual = float(np.max([self.affine_residual,
                                             *(np.max(np.abs(c)) for c in aff)]))
        self.t_x_residual = float(np.max([self.t_x_residual, *(np.max(np.abs(c)) for c in tx)]))
        for i, u in enumerate(us):
            self._cache[float(u)] = (tval[i], tdot[i], Lam[i], B[i])
        return tval, tdot, Lam, B

    def _eval(self, u: float):
        if u not in self._cache:
            self.precompute(np.array([u]))
        return self._cache[u]

    def t(self, u: float) -> np.ndarray:
        return self._eval(u)[0]

    def tdot(self, u: float) -> np.ndarray:
        return self._eval(u)[1]

    def Lambda(self, u: float) -> np.ndarray:
        return self._eval(u)[2]

    def B(self, u: float) -> np.ndarray:
        return self._eval(u)[3]


@dataclass
class RotationCurve:
    """R on the u-grid, the R handed to every RK4 stage, and the block data.

    ``t``, ``tdot``, ``Lambda`` and ``B`` hold the rows of ``ode.stage_grid``;
    stage s of step k read row ``stage_rows[k, s]``.  The recovery of A and
    the translation ODE read everything from here.
    """

    us: np.ndarray
    R: np.ndarray            # (len(us), d, d)
    orthogonality_error: float
    drift_before_projection: float
    h: float
    stage_rows: np.ndarray   # (steps, 4)
    stage_R: np.ndarray      # (steps, 4, d, d)
    t: np.ndarray            # (2 steps + 1, d, d)
    tdot: np.ndarray         # (2 steps + 1, d, d)
    Lambda: np.ndarray       # (2 steps + 1, d, d)
    B: np.ndarray            # (2 steps + 1, d)


def _polar_project(R: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(R)
    return U @ Vt


def solve_rotation_ode(data: FlatBlockData, u_interval: tuple[float, float],
                       steps: int | None = None, R0: np.ndarray | None = None) -> RotationCurve:
    """Integrate dR/du = -R^{-T} t(u) with periodic orthogonal reprojection.

    ``steps`` defaults to 2000 fixed Runge-Kutta steps per unit of u, at least 200.
    """
    d = data.d
    R0 = np.eye(d) if R0 is None else np.asarray(R0, dtype=float)
    if d and np.max(np.abs(R0.T @ R0 - np.eye(d))) > 1e-12:
        raise ValueError("R0 must be orthogonal")
    u0, u1 = u_interval
    if steps is None:
        steps = max(200, int(2000 * abs(u1 - u0)))
    h = (u1 - u0) / steps
    us, grid, rows = stage_grid(u0, h, steps)
    t, tdot, lam, B = data.precompute(grid)
    stage_R = np.empty((steps, 4, d, d))
    out = np.empty((steps + 1, d, d))
    out[0] = R0
    R = R0.copy()
    drift = 0.0

    def f(stage: tuple[int, int], Rc: np.ndarray) -> np.ndarray:
        stage_R[stage] = Rc
        return -np.linalg.inv(Rc).T @ t[rows[stage]]

    for k in range(steps):
        R = rk4_step(f, R, h, [(k, s) for s in range(4)])
        if (k + 1) % REPROJECT_EVERY == 0 and d:
            drift = max(drift, float(np.max(np.abs(R.T @ R - np.eye(d)))))
            if drift > DRIFT_LIMIT:
                raise RuntimeError(
                    f"orthogonality drift {drift:.2e} exceeds {DRIFT_LIMIT:.0e}; "
                    "increase the step count")
            R = _polar_project(R)
        out[k + 1] = R
    err = float(np.max(np.abs(_T(out) @ out - np.eye(d)))) if d else 0.0
    return RotationCurve(us, out, err, drift, h, rows, stage_R, t, tdot, lam, B)


def _A_at(R: np.ndarray, t: np.ndarray, tdot: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A from the cross-derivative relation, on stacks (..., d, d) of R on the
    rotation curve and t, tdot, Lambda at the same u's.

    d2R/du2 comes from differentiating the rotation ODE analytically.
    """
    Rinv = np.linalg.inv(R)
    Rdot = -_T(Rinv) @ t
    dRinvT = -_T(Rinv @ Rdot @ Rinv)
    M = _T(R) @ (-dRinvT @ t - _T(Rinv) @ tdot)
    core = 0.5 * (lam + _T(lam)) - 0.5 * (M + _T(M))
    A = -0.5 * (R @ core @ _T(R))
    return 0.5 * (A + _T(A))


def recover_A(rot: RotationCurve) -> np.ndarray:
    """A(u) at the rotation grid nodes from the cross-derivative relation."""
    return _A_at(rot.R, rot.t[0::2], rot.tdot[0::2], rot.Lambda[0::2])


def solve_translation_ode(rot: RotationCurve, Ddot0: np.ndarray | None = None) -> np.ndarray:
    """Integrate d2D/du2 = 2 A(u) D + R^{-T} B(u) on the rotation grid from D(u0) = 0.

    u and R at every Runge-Kutta stage are the ones ``rot`` recorded, so
    2A and R^{-T} B are computed for every stage before the loop, without
    interpolation.
    """
    d = rot.R.shape[-1]
    A2 = np.empty(rot.stage_R.shape)
    F = np.empty(rot.stage_R.shape[:-1])
    for s in range(4):
        R, i = rot.stage_R[:, s], rot.stage_rows[:, s]
        A2[:, s] = 2.0 * _A_at(R, rot.t[i], rot.tdot[i], rot.Lambda[i])
        F[:, s] = (_T(np.linalg.inv(R)) @ rot.B[i][..., None])[..., 0]
    D = np.zeros(d)
    Dd = np.zeros(d) if Ddot0 is None else np.asarray(Ddot0, dtype=float)
    out = np.empty((len(rot.us), d))
    out[0] = D
    state = np.concatenate([D, Dd])

    def f(stage: tuple[int, int], y: np.ndarray) -> np.ndarray:
        return np.concatenate([y[d:], A2[stage] @ y[:d] + F[stage]])

    for k in range(len(rot.us) - 1):
        state = rk4_step(f, state, rot.h, [(k, s) for s in range(4)])
        out[k + 1] = state[:d]
    return out


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

    An empty block (d = 0) fits exactly and is never proper.
    """
    k, d, _ = A_of_u.shape
    design = np.stack([np.ones_like(us), us], axis=1)
    coef, *_ = np.linalg.lstsq(design, A_of_u.reshape(k, d * d), rcond=None)
    A0 = coef[0].reshape(d, d)
    A1 = coef[1].reshape(d, d)
    fit = design @ coef
    residual = float(np.max(np.abs(fit - A_of_u.reshape(k, d * d)))) if A_of_u.size else 0.0
    proper = bool(np.max(np.abs(A1)) > SLOPE_TOL) if d else False
    if d:
        w, O = np.linalg.eigh(0.5 * (A1 + A1.T))
        A0n = O.T @ A0 @ O
        u_shift = 0.0
        for idx in range(d):
            if abs(w[idx]) > SLOPE_TOL:
                u_shift = -A0n[idx, idx] / w[idx]
                break
        A0n = A0n + u_shift * np.diag(w)
    else:
        w = np.zeros(0)
        A0n = np.zeros((0, 0))
        u_shift = 0.0
    return {
        "A0": A0, "A1": A1, "affine_residual": residual, "proper": proper,
        "A1_diagonal": w, "A0_normal": A0n, "u_shift": u_shift,
        "essential_parameters": d - 1 + d * (d + 1) // 2 if d else 0,
    }


def _eqq_residuals(rot: RotationCurve, A_of_u: np.ndarray,
                   D_of_u: np.ndarray) -> tuple[float, float]:
    """Integrability residuals with derivatives taken by central differences.

    Differencing the integrated curves keeps the check independent of the
    ODE right-hand sides, at the price of an O(h^2) floor.
    """
    if len(rot.us) < 3 or rot.R.shape[-1] == 0:
        return 0.0, 0.0
    h = float(rot.us[1] - rot.us[0])
    k = np.arange(1, len(rot.us) - 1, max(1, len(rot.us) // 64))
    R = rot.R[k]
    Rdot = (rot.R[k + 1] - rot.R[k - 1]) / (2.0 * h)
    skew = 0.5 * (_T(Rdot) @ R - _T(R) @ Rdot)
    r1 = float(np.max(np.abs(rot.t[2 * k] - skew)))
    Ddd = (D_of_u[k + 1] - 2.0 * D_of_u[k] + D_of_u[k - 1]) / h ** 2
    rhs = (-2.0 * _T(R) @ A_of_u[k] @ D_of_u[k][..., None]
           + _T(R) @ Ddd[..., None])[..., 0]
    r3 = float(np.max(np.abs(rot.B[2 * k] - rhs)))
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
