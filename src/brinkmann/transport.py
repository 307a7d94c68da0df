"""Geodesics, parallel transport, transverse transport and curvature growth.

All transport equations run on the full coordinate Christoffel symbols of
the assembled n-dimensional metric, read through the coordinate oracle
(``oracle.christoffel``: one code path, convention-proof); only the
transverse transport along E_0 uses the leaf-level equation, since its
unknown lives on the leaves.

States are (coords, velocity) with coords = (u, v, x^2 .. x^{n-1}).
Conserved quantities along geodesics: g(gamma', gamma') and the pairing
g(K, gamma') with the parallel field K = -d_v, which equals du/dtau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chart import ChartPoint, MetricSpec, compute_h_t, eval_metric, frame_components
from .ode import rk4_step, stage_grid
from .oracle import assemble_coordinate_metric, christoffel, coordinate_curvature

__all__ = [
    "Trajectory",
    "metric_values",
    "christoffel_values",
    "geodesic_integrate",
    "parallel_transport",
    "d0_transport",
    "null_sectional_growth",
    "second_symmetry_transport_check",
    "null_velocity",
]

BOX_SLACK = 0.5  # enforce_box lets the path stray this fraction of each side outside
SECOND_SYMMETRY_TOL = 1e-6
SECOND_SYMMETRY_STEPS = 160
SECOND_SYMMETRY_SPAN = 1.0


def _chart_point(spec: MetricSpec, coords: np.ndarray) -> ChartPoint:
    return ChartPoint(float(coords[0]), tuple(float(c) for c in coords[2:]))


def metric_values(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    cm = assemble_coordinate_metric(spec, _chart_point(spec, coords), order=0)
    return cm.G.value()


def christoffel_values(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    """Gamma^a_{bc} of the full metric at a coordinate point."""
    return christoffel(assemble_coordinate_metric(spec, _chart_point(spec, coords), order=1))


@dataclass
class Trajectory:
    """Sampled curve with velocities and the connection along its RK4 stages.

    ``connection[k, s]`` is the matrix Gamma^a_{bc} v^c at stage s of step k,
    the coefficient of parallel transport dW^a/dtau = -Gamma^a_{bc} W^b v^c.
    """

    tau: np.ndarray
    coords: np.ndarray       # (k+1, n)
    velocity: np.ndarray     # (k+1, n)
    spec: MetricSpec
    connection: np.ndarray   # (k, 4, n, n)

    @property
    def steps(self) -> int:
        return len(self.tau) - 1

    def energy(self) -> np.ndarray:
        """g(gamma', gamma') at every node."""
        return np.array([
            float(v @ metric_values(self.spec, c) @ v)
            for c, v in zip(self.coords, self.velocity)
        ])

    def k_pairing(self) -> np.ndarray:
        """g(K, gamma') with K = -d_v; equals the u-velocity."""
        return self.velocity[:, 0].copy()


def _in_box(spec: MetricSpec, coords: np.ndarray) -> bool:
    vals = [coords[0]] + list(coords[2:])
    for val, (lo, hi) in zip(vals, spec.box):
        pad = BOX_SLACK * (hi - lo)
        if not (lo - pad <= val <= hi + pad):
            return False
    return True


def geodesic_integrate(spec: MetricSpec, coords0: Sequence[float],
                       velocity0: Sequence[float], tau_span: float, steps: int,
                       enforce_box: bool = False) -> Trajectory:
    """Fixed-step RK4 for the geodesic equation; aborts on box exit if asked."""
    n = spec.n
    y = np.concatenate([np.asarray(coords0, dtype=float), np.asarray(velocity0, dtype=float)])
    if y.shape != (2 * n,):
        raise ValueError("initial state must supply n coordinates and n velocities")
    h = tau_span / steps
    taus = h * np.arange(steps + 1)
    out = np.empty((steps + 1, 2 * n))
    out[0] = y
    connection = np.empty((steps, 4, n, n))

    def f(stage: tuple[int, int], state: np.ndarray) -> np.ndarray:
        gam = christoffel_values(spec, state[:n])
        v = state[n:]
        connection[stage] = np.einsum("abc,c->ab", gam, v)
        acc = -np.einsum("abc,b,c->a", gam, v, v)
        return np.concatenate([v, acc])

    for k in range(steps):
        y = rk4_step(f, y, h, [(k, s) for s in range(4)])
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"geodesic integration blew up at step {k + 1}")
        if enforce_box and not _in_box(spec, y[:n]):
            raise RuntimeError(
                f"geodesic left the admissible box at tau = {taus[k + 1]:.4g}")
        out[k + 1] = y
    return Trajectory(taus, out[:, :n], out[:, n:], spec, connection)


def parallel_transport(spec: MetricSpec, traj: Trajectory,
                       vectors0: np.ndarray) -> np.ndarray:
    """Transport vectors along the trajectory; returns (k+1, nvec, n).

    The transport runs on the connection the trajectory recorded at its own
    RK4 stages, so it sees the exact intermediate states of the curve and
    evaluates no Christoffel symbol itself.
    """
    V = np.atleast_2d(np.asarray(vectors0, dtype=float))
    out = np.empty((traj.steps + 1,) + V.shape)
    out[0] = V
    h = float(traj.tau[1] - traj.tau[0]) if traj.steps else 0.0
    for k in range(traj.steps):
        out[k + 1] = rk4_step(lambda C, W: -W @ C.T, out[k], h, traj.connection[k])
    return out


def d0_transport(spec: MetricSpec, p: ChartPoint, vectors0: np.ndarray,
                 u_span: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Transport leaf vectors along the E_0 integral curve through p.

    The integral curve keeps x fixed while u advances, so the transported
    components satisfy dX^i/du = t^i_k X^k.  t^i_k is evaluated once per
    row of the node/midpoint ``stage_grid``.  Returns (u values, X values).
    A non-finite t^i_k is a ``ValueError`` naming the first u where it occurs;
    a transported vector that overflows is a ``RuntimeError`` naming its u.
    """
    m = spec.m
    V = np.atleast_2d(np.asarray(vectors0, dtype=float))
    h = u_span / steps
    us, grid, rows = stage_grid(p.u, h, steps)
    tup = np.zeros((len(grid), m, m))
    with np.errstate(all="ignore"):
        for i, u in enumerate(grid):
            cj = eval_metric(spec, ChartPoint(float(u), p.x), order=1)
            if m:
                tup[i] = cj.ginv0 @ compute_h_t(cj)[1].value().reshape(m, m)
    finite = np.isfinite(tup).reshape(len(grid), -1).all(axis=1)
    if not finite.all():
        u = float(grid[int(np.argmin(finite))])
        raise ValueError(f"non-finite t^i_j in the transverse transport data at u = {u!r}")
    out = np.empty((steps + 1, V.shape[0], m))
    out[0] = V
    with np.errstate(all="ignore"):
        for k in range(steps):
            out[k + 1] = rk4_step(lambda row, X: X @ tup[row].T, out[k], h, rows[k])
            if not np.all(np.isfinite(out[k + 1])):
                raise RuntimeError(f"transverse transport blew up at u = {float(us[k + 1])!r}")
    return us, out


def null_velocity(spec: MetricSpec, p: ChartPoint, leaf_part: np.ndarray | None = None) -> np.ndarray:
    """An exactly lightlike velocity E_0 + a^i E_i + c E_1 at p.

    The E_1 coefficient solves the null condition in closed form from the
    frame inner products: c = g_ij a^i a^j / 2.
    """
    m = spec.m
    a = np.zeros(m) if leaf_part is None else np.asarray(leaf_part, dtype=float)
    cj = eval_metric(spec, p, order=0)
    fr = frame_components(cj)
    c = 0.5 * float(a @ fr.g_leaf @ a)
    vec = fr.e[0] + c * fr.e[1]
    for i in range(m):
        vec = vec + a[i] * fr.e[2 + i]
    return vec


def null_sectional_growth(spec: MetricSpec, traj: Trajectory,
                          x_vec: np.ndarray) -> dict[str, np.ndarray | float]:
    """Null sectional curvature R(V,X,V,X)/g(X,X) along a lightlike geodesic.

    X is parallel-transported from ``x_vec`` on the connection the geodesic
    recorded, so the curve is integrated once; returns the sampled values,
    the first finite-difference derivative and its constancy residual (the
    maximum absolute second difference of the samples).
    """
    X = parallel_transport(spec, traj, np.asarray(x_vec, dtype=float)[None, :])[:, 0, :]
    vals = np.empty(len(traj.tau))
    for k, (c, v) in enumerate(zip(traj.coords, traj.velocity)):
        cm = assemble_coordinate_metric(spec, _chart_point(spec, c), order=2)
        cc = coordinate_curvature(cm, depth=0)
        G = cm.G.value()
        Rlow = np.einsum("ae,ebcd->abcd", G, cc.R)
        num = np.einsum("abcd,a,b,c,d->", Rlow, v, X[k], v, X[k])
        den = float(X[k] @ G @ X[k])
        if den <= 1e-10:
            raise ValueError("degenerate plane: g(X, X) is not positive")
        vals[k] = num / den
    h = float(traj.tau[1] - traj.tau[0])
    first = np.diff(vals) / h
    second = np.abs(np.diff(vals, n=2))
    return {
        "tau": traj.tau,
        "K": vals,
        "dK": first,
        "max_second_difference": float(second.max()) if second.size else 0.0,
        "dK_spread": float(first.max() - first.min()) if first.size else 0.0,
    }


def _curve_trajectory(spec: MetricSpec, curve: Callable[[float], tuple[np.ndarray, np.ndarray]],
                      span: float, steps: int) -> Trajectory:
    """Sample an analytic curve on [0, span] with its connection at the RK4 stages.

    Each row of the node/midpoint ``stage_grid`` costs one Christoffel
    evaluation.
    """
    taus, grid, rows = stage_grid(0.0, span / steps, steps)
    points = [curve(t) for t in grid]
    C = np.array([np.einsum("abc,c->ab", christoffel_values(spec, c), v) for c, v in points])
    return Trajectory(taus, np.array([c for c, _ in points[::2]]),
                      np.array([v for _, v in points[::2]]), spec, C[rows])


def second_symmetry_transport_check(spec: MetricSpec, trials: int = 3,
                                    rng_seed: int = 0) -> tuple[bool, float]:
    """Transport-level test: (nabla_V R)(X,Y)Z has constant components in a
    parallelly transported basis along arbitrary curves iff nabla nabla R = 0.

    Uses random polynomial (non-geodesic) curves inside the box.  Returns
    (passed, worst residual).
    """
    steps, span = SECOND_SYMMETRY_STEPS, SECOND_SYMMETRY_SPAN
    rng = np.random.default_rng(rng_seed)
    n = spec.n
    worst = 0.0
    for _ in range(trials):
        mid = np.array([0.5 * (lo + hi) for lo, hi in spec.box])
        center = np.concatenate([[mid[0], 0.0], mid[1:]])
        amp = 0.25 * np.array([spec.box[0][1] - spec.box[0][0], 1.0]
                              + [hi - lo for lo, hi in spec.box[1:]])
        c1 = rng.normal(scale=0.5, size=n) * amp
        c2 = rng.normal(scale=0.25, size=n) * amp

        def curve(tau: float, c1=c1, c2=c2):
            s = tau / span
            return center + c1 * s + c2 * s * s, (c1 + 2.0 * c2 * s) / span

        traj = _curve_trajectory(spec, curve, span, steps)
        basis0 = np.eye(n)
        extra0 = rng.normal(size=(4, n))
        moved = parallel_transport(spec, traj, np.vstack([basis0, extra0]))
        scale = 0.0
        comps = []
        for k in (0, steps // 2, steps):
            cm = assemble_coordinate_metric(spec, _chart_point(spec, traj.coords[k]), order=3)
            cc = coordinate_curvature(cm, depth=1)
            V, X, Y, Z = moved[k, n], moved[k, n + 1], moved[k, n + 2], moved[k, n + 3]
            W = np.einsum("abcdm,b,c,d,m->a", cc.dR, Z, X, Y, V)
            comp = np.linalg.solve(moved[k, :n].T, W)
            comps.append(comp)
            scale = max(scale, float(np.max(np.abs(cc.dR))))
        comps = np.array(comps)
        worst = max(worst, float(np.max(np.abs(comps - comps[0]))) / (1.0 + scale))
    return worst < SECOND_SYMMETRY_TOL, worst