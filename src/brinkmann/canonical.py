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
from .ode import rk4_step

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


@dataclass
class FlatBlockData:
    """Samplers for t_ab(u), Lambda_ab(u), B_a(u) on the flat block.

    Extraction evaluates the chart's h and t at x = 0 on the block:
    B is the value of h, Lambda its x-gradient, and t its value; the
    u-derivative of t comes from the same jets.  ``affine_residual`` and
    ``t_x_residual`` record how far h strays from affine and t from
    x-independence over the sampled u's (both must be ~0 for the
    construction to apply).
    """

    spec: MetricSpec
    block: tuple[int, ...]
    order: int = 3

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

    def precompute(self, us: np.ndarray) -> None:
        """Evaluate the block data at many u's in one batched jet pass.

        The rotation/translation integrators precompute their whole grid
        (nodes plus Runge-Kutta midpoints) this way; afterwards every
        sampler call is a dictionary lookup.
        """
        us = np.unique(np.asarray(us, dtype=float))
        todo = np.array([u for u in us if float(u) not in self._cache])
        if todo.size == 0:
            return
        spec = self.spec
        nv, order = spec.num_vars, self.order
        env = {"u": jets.seed(0, todo, nv, order)}
        for k in range(spec.m):
            env[f"x{k + 2}"] = jets.seed(1 + k, np.full(todo.shape, self._base_x[k]), nv, order)

        fields = expr.eval_jet(self.tape, env, nv, order)
        m = spec.m
        Hj = fields[0]
        Wj = fields[1:1 + m]
        ctx = jets.context(nv, order)

        def coeff(jet: jets.Jet, exps: list[int]) -> np.ndarray:
            return jet.data[..., ctx.index(exps)]

        def unit(var: int) -> list[int]:
            e = [0] * nv
            e[var] = 1
            return e

        d = self.d
        B = np.empty((todo.size, d))
        Lam = np.empty((todo.size, d, d))
        tval = np.empty((todo.size, d, d))
        tdot = np.empty((todo.size, d, d))
        aff = tx = 0.0
        h_block = []
        for a, slot in enumerate(self.block):
            ha = Hj.diff(1 + slot) - Wj[slot].du()
            h_block.append(ha)
            B[:, a] = ha.value()
            for b, slot_b in enumerate(self.block):
                Lam[:, a, b] = coeff(ha, unit(1 + slot_b))
        for a, sa in enumerate(self.block):
            for b, sb in enumerate(self.block):
                gab = fields[1 + m + self.d * a + b]
                tab = 0.5 * (-gab.du() + Wj[sa].diff(1 + sb) - Wj[sb].diff(1 + sa))
                tval[:, a, b] = tab.value()
                tdot[:, a, b] = coeff(tab, unit(0))
                for c_slot in self.block:
                    tx = max(tx, float(np.max(np.abs(coeff(tab, unit(1 + c_slot))))))
        for a in range(d):
            for b, sb in enumerate(self.block):
                for c_slot in self.block:
                    e = unit(1 + sb)
                    e[1 + c_slot] += 1
                    aff = max(aff, float(np.max(np.abs(h_block[a].partial(e)))))
        self.affine_residual = max(self.affine_residual, aff)
        self.t_x_residual = max(self.t_x_residual, tx)
        for i, u in enumerate(todo):
            self._cache[float(u)] = (tval[i], tdot[i], Lam[i], B[i])

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
    """R on the u-grid, plus the abscissa and the R handed to every RK4 stage.

    The translation ODE runs on the same grid and reads R at its stages from
    here, so the rotation curve is integrated once.
    """

    us: np.ndarray
    R: np.ndarray            # (len(us), d, d)
    orthogonality_error: float
    drift_before_projection: float
    h: float
    stage_u: np.ndarray      # (steps, 4)
    stage_R: np.ndarray      # (steps, 4, d, d)


def _polar_project(R: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(R)
    return U @ Vt


def default_steps(u_interval: tuple[float, float], steps: int | None) -> int:
    """2000 fixed Runge-Kutta steps per unit of u, at least 200."""
    if steps is not None:
        return steps
    return max(200, int(2000 * abs(u_interval[1] - u_interval[0])))


def solve_rotation_ode(data: FlatBlockData, u_interval: tuple[float, float],
                       steps: int | None = None, R0: np.ndarray | None = None) -> RotationCurve:
    """Integrate dR/du = -R^{-T} t(u) with periodic orthogonal reprojection."""
    d = data.d
    R0 = np.eye(d) if R0 is None else np.asarray(R0, dtype=float)
    if d and np.max(np.abs(R0.T @ R0 - np.eye(d))) > 1e-12:
        raise ValueError("R0 must be orthogonal")
    steps = default_steps(u_interval, steps)
    u0, u1 = u_interval
    h = (u1 - u0) / steps
    us = u0 + h * np.arange(steps + 1)
    mids = us[:-1] + 0.5 * h
    data.precompute(np.concatenate([us, mids]))
    # stage abscissae exactly as precomputed, so the sampler cache is hit bit for bit
    stage_u = np.stack([us[:-1], mids, mids, us[1:]], axis=1)
    stage_R = np.empty((steps, 4, d, d))
    out = np.empty((steps + 1, d, d))
    out[0] = R0
    R = R0.copy()
    drift = 0.0

    def f(stage: tuple[int, int], Rc: np.ndarray) -> np.ndarray:
        stage_R[stage] = Rc
        return -np.linalg.inv(Rc).T @ data.t(stage_u[stage])

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
    err = max(
        float(np.max(np.abs(out[k].T @ out[k] - np.eye(d)))) for k in range(steps + 1)
    ) if d else 0.0
    return RotationCurve(us, out, err, drift, h, stage_u, stage_R)


def _A_at(data: FlatBlockData, u: float, R: np.ndarray) -> np.ndarray:
    """A(u) from the cross-derivative relation, given R(u) on the rotation curve.

    d2R/du2 comes from differentiating the rotation ODE analytically.
    """
    Rinv = np.linalg.inv(R)
    t = data.t(u)
    Rdot = -Rinv.T @ t
    dRinvT = -(Rinv @ Rdot @ Rinv).T
    M = R.T @ (-dRinvT @ t - Rinv.T @ data.tdot(u))
    lam = data.Lambda(u)
    core = 0.5 * (lam + lam.T) - 0.5 * (M + M.T)
    A = -0.5 * (R @ core @ R.T)
    return 0.5 * (A + A.T)


def recover_A(data: FlatBlockData, rot: RotationCurve) -> np.ndarray:
    """A(u) at the rotation grid from the cross-derivative relation."""
    out = np.empty_like(rot.R)
    for k, (u, R) in enumerate(zip(rot.us, rot.R)):
        out[k] = _A_at(data, float(u), R)
    return out


def solve_translation_ode(data: FlatBlockData, rot: RotationCurve,
                          D0: np.ndarray | None = None,
                          Ddot0: np.ndarray | None = None) -> np.ndarray:
    """Integrate d2D/du2 = 2 A(u) D + R^{-T} B(u) on the rotation grid.

    u and R at every Runge-Kutta stage are the ones ``rot`` recorded, so A
    and R are available at the substeps without interpolation.
    """
    d = data.d
    D = np.zeros(d) if D0 is None else np.asarray(D0, dtype=float)
    Dd = np.zeros(d) if Ddot0 is None else np.asarray(Ddot0, dtype=float)
    out = np.empty((len(rot.us), d))
    out[0] = D
    state = np.concatenate([D, Dd])

    def f(stage: tuple[float, np.ndarray], y: np.ndarray) -> np.ndarray:
        u, R = stage
        Dddot = 2.0 * _A_at(data, u, R) @ y[:d] + np.linalg.inv(R).T @ data.B(u)
        return np.concatenate([y[d:], Dddot])

    for k in range(len(rot.us) - 1):
        state = rk4_step(f, state, rot.h, list(zip(rot.stage_u[k], rot.stage_R[k])))
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


def verify_canonical(us: np.ndarray, A_of_u: np.ndarray, tol: float = 1e-8) -> dict:
    """Affine fit A(u) ~ A1 u + A0 plus the essential-parameter normal form."""
    k, d, _ = A_of_u.shape
    design = np.stack([np.ones_like(us), us], axis=1)
    coef, *_ = np.linalg.lstsq(design, A_of_u.reshape(k, d * d), rcond=None)
    A0 = coef[0].reshape(d, d)
    A1 = coef[1].reshape(d, d)
    fit = design @ coef
    residual = float(np.max(np.abs(fit - A_of_u.reshape(k, d * d)))) if k else 0.0
    proper = bool(np.max(np.abs(A1)) > tol) if d else False
    if d:
        w, O = np.linalg.eigh(0.5 * (A1 + A1.T))
        A0n = O.T @ A0 @ O
        u_shift = 0.0
        for idx in range(d):
            if abs(w[idx]) > tol:
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


def _eqq_residuals(data: FlatBlockData, rot: RotationCurve, A_of_u: np.ndarray,
                   D_of_u: np.ndarray) -> tuple[float, float]:
    """Integrability residuals with derivatives taken by central differences.

    Differencing the integrated curves keeps the check independent of the
    ODE right-hand sides, at the price of an O(h^2) floor.
    """
    if len(rot.us) < 3 or data.d == 0:
        return 0.0, 0.0
    h = float(rot.us[1] - rot.us[0])
    r1 = r3 = 0.0
    for k in range(1, len(rot.us) - 1, max(1, len(rot.us) // 64)):
        u = float(rot.us[k])
        R = rot.R[k]
        Rdot = (rot.R[k + 1] - rot.R[k - 1]) / (2.0 * h)
        skew = 0.5 * (Rdot.T @ R - R.T @ Rdot)
        r1 = max(r1, float(np.max(np.abs(data.t(u) - skew))))
        Ddd = (D_of_u[k + 1] - 2.0 * D_of_u[k] + D_of_u[k - 1]) / h ** 2
        rhs = -2.0 * R.T @ A_of_u[k] @ D_of_u[k] + R.T @ Ddd
        r3 = max(r3, float(np.max(np.abs(data.B(u) - rhs))))
    return r1, r3


def reconstruct(spec: MetricSpec, block: Sequence[int] | None = None,
                u_interval: tuple[float, float] | None = None, steps: int | None = None,
                R0: np.ndarray | None = None, D0: np.ndarray | None = None,
                Ddot0: np.ndarray | None = None, tol: float = 1e-8) -> CanonicalForm:
    """Full pipeline: extract flat-block data, solve the ODEs, fit A(u)."""
    if block is None:
        block = tuple(range(spec.m))
    data = FlatBlockData(spec, tuple(block))
    if u_interval is None:
        u_interval = spec.box[0]
    steps = default_steps(u_interval, steps)
    rot = solve_rotation_ode(data, u_interval, steps, R0)
    A_of_u = recover_A(data, rot)
    D_of_u = solve_translation_ode(data, rot, D0, Ddot0)
    fit = verify_canonical(rot.us, A_of_u, tol)
    r1, r3 = _eqq_residuals(data, rot, A_of_u, D_of_u)
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
