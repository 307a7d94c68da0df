"""Geodesics, parallel transport, transverse transport and curvature growth.

All transport equations run on the full coordinate Christoffel symbols of
the assembled n-dimensional metric, formed by the coordinate oracle's one
formula (``oracle.christoffel``, from the lowered combination of G's first
partials and the inverse of G's value); only the transverse transport along
E_0 uses the leaf-level equation, since its unknown lives on the leaves.  At
a single point (an RK4 stage, the start of a null geodesic) no jet and no
``ChartPoint`` is built: the spec's tape, compiled to straight-line code at
order 1 in which every coefficient is a local float, runs on the stage's
coordinates as Python floats (``chart.metric_coefficients``), and the leaf
gate tests its g_ij value on floats: no factorization where g_ij is
byte-equal to the last one that passed (a plane wave's delta at every
stage), else one, by the LAPACK kernel of ``np.linalg.cholesky``.  One
precomputed index take with exact factors, read off the per-entry table of
``oracle.metric_layout`` as the stacked ``full_metric`` is, reads G's value,
first partials and the two permutations of them that the lowered
combination adds, bit for bit the jet assembly's.  The checks run in one
order: a tape domain error, the leaf gate, then a non-finite value or first
partial (sought only where the take's sum is not finite), each naming the
field (and partial) and the point before anything can reach the
integrator.  A stage then costs one inversion of G by the LAPACK kernel of
``np.linalg.inv``, called without its wrapper under one ``np.errstate`` (about
1 us), and three einsums.
Stage 0 of each step evaluates G at the step's node, and the geodesic keeps
that G (with one ``metric_values`` call at the last node), so its energy
g(gamma', gamma') evaluates nothing again.  The curvature, the analytic
curves and the leaf-level data stay on jets.

States are (coords, velocity) with coords = (u, v, x^2 .. x^{n-1}).
Conserved quantities along geodesics: g(gamma', gamma') and the pairing
g(K, gamma') with the parallel field K = -d_v, which equals du/dtau.

The transport laws are checked inside a chart's admissible ``spec.box``
only, and the library, not only the ``transport`` command, refuses to
extrapolate past it: ``check_in_box`` refuses a start point outside it
(edges included); ``geodesic_integrate`` refuses the first node or RK4 stage
outside it, up to the rounding of the run's steps, before anything is
evaluated there; and ``d0_transport`` refuses a u range that leaves it
before it evaluates the metric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr, jets
from .chart import NODE_BLOCK, ChartPoint, MetricSpec, compute_h_t, eval_metric, inv, \
    metric_coefficients, node_blocks
from .ode import linear_rk4, rk4_step, stage_grid, step_size
from .oracle import (_cgrad, _lowered, assemble_coordinate_metric, christoffel,
                     coordinate_curvature, metric_field, metric_layout)

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
    "check_in_box",
]

SECOND_SYMMETRY_TOL = 1e-6
SECOND_SYMMETRY_STEPS = 160
SECOND_SYMMETRY_SPAN = 1.0


def _chart_points(coords: np.ndarray) -> ChartPoint:
    """The stack of chart points of the rows of ``coords`` (N, n)."""
    return ChartPoint(coords[:, 0], tuple(coords[:, 2:].T))


@functools.lru_cache(maxsize=None)
def _value_and_gradient_take(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How G's value (n, n), its first partials dG[a, b, mu] = g_ab,mu, then dG[r, c, b]
    and dG[b, c, r] at [r, b, c] (each (n, n, n), as ``oracle._lowered`` reads them), are
    read, flat, from ``metric_coefficients``' rows (outputs, n): (flat indices, exact
    factors, the entries that are constants, their values), by ``metric_layout``.  A
    constant entry is read with factor 1 and then overwritten, so no inf * 0 is formed.
    """
    source, factor = metric_layout(n)
    ctx, unit = jets.context(n - 1, 1), np.eye(n - 1, dtype=int)
    # the coefficient column of d/dx^mu: jet variable 0 is u, mu - 1 is x^mu; d_v is 0
    columns = [ctx.index(unit[0]), None] + [ctx.index(unit[mu - 1]) for mu in range(2, n)]
    reads = [(a, b, 0) for a, b in np.ndindex(n, n)]
    reads += [(a, b, columns[mu]) for a, b, mu in np.ndindex(n, n, n)]
    reads += [(r, c, columns[b]) for r, b, c in np.ndindex(n, n, n)]
    reads += [(b, c, columns[r]) for r, b, c in np.ndindex(n, n, n)]
    index, scale, constant, value = [], [], [], []
    for k, (a, b, column) in enumerate(reads):
        if source[a, b] >= 0 and column is not None:
            index.append(source[a, b] * n + column)
            scale.append(factor[a, b])
        else:
            index.append(0)
            scale.append(1.0)
            constant.append(k)
            value.append(factor[a, b] if column == 0 else 0.0)
    return np.array(index), np.array(scale), np.array(constant), np.array(value)


def _value_and_lowered(spec: MetricSpec, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G (n, n) and ``oracle._lowered`` of its first partials, bit for bit, at a coordinate
    point, from the spec's compiled tape, with every check of ``assemble_coordinate_metric``.

    The tape runs on the coordinates as floats (``metric_coefficients``).  A
    non-finite entry of G, or else of dG, is refused where it arises, naming
    the field, the partial and the point in ``check_finite``'s words.
    """
    u, _, *x = np.asarray(coords, dtype=float).tolist()
    point = (u, *x)
    F = metric_coefficients(spec, point)
    n = spec.n
    index, factor, constant, value = _value_and_gradient_take(n)
    out = F.take(index)
    out *= factor
    out[constant] = value
    if not math.isfinite(out.sum()):   # a sum of finite entries may overflow
        finite = np.isfinite(out)
        if not finite.all():
            k, partial = int(np.argmin(finite)), ""
            if k >= n * n:
                k, mu = divmod(k - n * n, n)
                partial = f"d/d{expr.var_names(n)[max(mu - 1, 0)]} of "   # mu is never v
            raise ValueError(f"non-finite {partial}{metric_field(*divmod(k, n))} at {point}")
    dG, B, C = out[n * n:].reshape(3, n, n, n)
    return out[:n * n].reshape(n, n), dG + B - C


def metric_values(spec: MetricSpec, coords: np.ndarray) -> np.ndarray:
    """G at a coordinate point, C-contiguous: matmul on a strided view rounds differently.
    Refused, as in ``_value_and_lowered``, where G or a first partial is non-finite."""
    return _value_and_lowered(spec, coords)[0]


def christoffel_values(spec: MetricSpec, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G, as ``metric_values`` gives it, and Gamma^a_{bc} of the full metric at
    a coordinate point.  G is inverted by the LAPACK kernel of ``np.linalg.inv``,
    with its bits and its LinAlgError for a singular G."""
    G, lowered = _value_and_lowered(spec, coords)
    with np.errstate(invalid="raise"):   # how the kernel reports a singular G
        try:
            Ginv = inv(G, signature="d->d")
        except FloatingPointError:
            raise np.linalg.LinAlgError("Singular matrix") from None
    return G, christoffel(lowered, Ginv)


@dataclass
class Trajectory:
    """Sampled curve with velocities and the connection along its RK4 stages;
    a geodesic also keeps the metric at its nodes, which ``energy`` reads.

    ``connection[k, s]`` is the matrix Gamma^a_{bc} v^c at stage s of step k,
    the coefficient of parallel transport dW^a/dtau = -Gamma^a_{bc} W^b v^c.
    """

    tau: np.ndarray
    coords: np.ndarray       # (k+1, n)
    velocity: np.ndarray     # (k+1, n)
    connection: np.ndarray   # (k, 4, n, n)
    metric: np.ndarray | None = None   # (k+1, n, n): G at every node of a geodesic

    @property
    def steps(self) -> int:
        return len(self.tau) - 1

    def energy(self) -> np.ndarray:
        """g(gamma', gamma') at every node, from the metric recorded there."""
        v = self.velocity
        return (v[:, None, :] @ self.metric @ v[:, :, None])[:, 0, 0]   # the bits of v @ G @ v

    def k_pairing(self) -> np.ndarray:
        """g(K, gamma') with K = -d_v; equals the u-velocity."""
        return self.velocity[:, 0].copy()


def geodesic_integrate(spec: MetricSpec, coords0: Sequence[float],
                       velocity0: Sequence[float], tau_span: float, steps: int) -> Trajectory:
    """Fixed-step RK4 for the geodesic equation inside ``spec.box``.

    A non-finite state, at a node or at an RK4 stage, is a ``RuntimeError``
    naming the step, tau and the first non-finite entry (u, v, x.. or a
    velocity du, dv, dx..).  The first node or stage outside the box, up to
    the rounding of ``steps`` steps, is refused with ``check_in_box``'s
    ``ValueError`` before anything is evaluated there.

    G at node k is the value that stage 0 of step k evaluated there, and at
    the last node one ``metric_values`` call; ``Trajectory.energy`` reads it.
    """
    n = spec.n
    y = np.concatenate([np.asarray(coords0, dtype=float), np.asarray(velocity0, dtype=float)])
    if y.shape != (2 * n,):
        raise ValueError("initial state must supply n coordinates and n velocities")
    h = step_size(tau_span, steps)
    taus = h * np.arange(steps + 1)
    out = np.empty((steps + 1, 2 * n))
    out[0] = y
    connection = np.empty((steps, 4, n, n))
    metric = np.empty((steps + 1, n, n))
    derivative = np.empty((4, 2 * n))   # stage s of the current step in row s
    u, *leaf = expr.var_names(n)
    names = [u, "v", *leaf]
    names += ["d" + c for c in names]
    lo, hi = (edge.tolist() for edge in _box_edges(spec.box, steps))

    def check(state: np.ndarray, k: int, s: int | None = None) -> None:
        """Refuse a non-finite state at stage s of step k, or at its end node,
        then one whose chart coordinates lie outside the box."""
        values = state.tolist()
        chart = [values[0], *values[2:n]]
        finite = all(map(math.isfinite, values))
        if finite and all(a <= x <= b for a, x, b in zip(lo, chart, hi)):
            return
        tau = float(taus[k + 1] if s is None else taus[k] + (0.0, 0.5, 0.5, 1.0)[s] * h)
        if not finite:
            i = next(i for i, x in enumerate(values) if not math.isfinite(x))
            raise RuntimeError(f"geodesic integration blew up at step {k + 1}, "
                               f"tau = {tau!r}: {names[i]} = {values[i]!r}")
        where = f"node {k + 1}" if s is None else f"step {k + 1} stage {s + 1}"
        check_in_box(spec.box, [chart], lambda _: f"geodesic {where}, tau = {tau!r},", steps)

    def f(stage: tuple[int, int], state: np.ndarray) -> np.ndarray:
        k, s = stage
        check(state, k, s)
        G, gam = christoffel_values(spec, state[:n])
        if s == 0:
            metric[k] = G
        v, acc = state[n:], derivative[s, n:]
        np.einsum("abc,c->ab", gam, v, out=connection[k, s])
        np.einsum("abc,b,c->a", gam, v, v, out=acc)
        np.negative(acc, out=acc)
        derivative[s, :n] = v
        return derivative[s]

    with np.errstate(all="ignore"):
        check_in_box(spec.box, [[y[0], *y[2:n]]], lambda _: "geodesic node 0, tau = 0.0,", steps)
        for k in range(steps):
            y = rk4_step(f, y, h, [(k, s) for s in range(4)])
            check(y, k)
            out[k + 1] = y
        metric[steps] = metric_values(spec, y[:n])
    return Trajectory(taus, out[:, :n], out[:, n:], connection, metric)


def parallel_transport(traj: Trajectory, vectors0: np.ndarray) -> np.ndarray:
    """Transport vectors along the trajectory; returns (k+1, nvec, n).

    The transport runs on the connection the trajectory recorded at its own
    RK4 stages, so it sees the exact intermediate states of the curve and
    evaluates no Christoffel symbol itself; the equation is linear and is
    integrated by ``ode.linear_rk4``.
    """
    V = np.atleast_2d(np.asarray(vectors0, dtype=float))
    h = float(traj.tau[1] - traj.tau[0]) if traj.steps else 0.0
    W = linear_rk4(-traj.connection, h, V.T)
    return np.swapaxes(W, 1, 2)


def d0_transport(spec: MetricSpec, start: Sequence[float], vectors0: np.ndarray,
                 u_span: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Transport leaf vectors along the E_0 integral curve through the start
    point, given by its chart coordinates (u, x2, ..).

    The integral curve keeps x fixed while u advances, so the transported
    components satisfy dX^i/du = t^i_k X^k, a linear equation integrated by
    ``ode.linear_rk4``.  t^i_k is evaluated once per row of the
    node/midpoint ``stage_grid``.  Returns (u values, X values).
    A start point or a u range that ``check_in_box`` refuses and a non-finite
    t^i_k are ``ValueError``s, the last naming the first u where it occurs;
    nothing is evaluated before the u range is checked.  A transported vector
    that overflows is a ``RuntimeError`` naming its u.
    """
    check_in_box(spec.box, [start], lambda k: "start point")
    u0, *x = start
    V = np.atleast_2d(np.asarray(vectors0, dtype=float))
    h = step_size(u_span, steps)
    us, grid, rows = stage_grid(u0, h, steps)
    check_in_box(spec.box, [(u, *x) for u in us.tolist()], lambda k: "d0 curve at", steps)
    tup = np.empty((len(grid), spec.m, spec.m))
    with np.errstate(all="ignore"):
        for block, q in node_blocks(ChartPoint(grid, tuple(x))):
            cj = eval_metric(spec, q, order=1)
            tup[block] = cj.ginv0 @ compute_h_t(cj)[1].value()
    finite = np.isfinite(tup).reshape(len(grid), -1).all(axis=1)
    if not finite.all():
        u = float(grid[int(np.argmin(finite))])
        raise ValueError(f"non-finite t^i_j in the transverse transport data at u = {u!r}")
    with np.errstate(all="ignore"):
        X = linear_rk4(tup[rows], h, V.T)
    finite = np.isfinite(X).all(axis=(1, 2))
    if not finite.all():
        u = float(us[int(np.argmin(finite))])
        raise RuntimeError(f"transverse transport blew up at u = {u!r}")
    return us, np.swapaxes(X, 1, 2)


def _box_edges(box: Sequence[tuple[float, float]], steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper edges of ``box`` widened by the rounding of ``steps``
    integration steps, steps * eps * max(|lo|, |hi|)."""
    lo, hi = np.array(box, dtype=float).T
    slack = steps * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    return lo - slack, hi + slack


def check_in_box(box: Sequence[tuple[float, float]], points: Sequence[Sequence[float]],
                 row: Callable[[int], str], steps: int = 0) -> None:
    """Refuse the first row k of chart coordinates (u, x2, ..) in ``points``
    outside ``box`` (as ``spec.box``), naming ``row(k)``, the coordinate, its
    value and its bounds.  A row reached after ``steps`` integration steps may
    lie past an edge by their rounding (``_box_edges``); at the default
    ``steps = 0`` the edges are exact.  A NaN lies outside.  Rows whose length
    is not ``len(box)``, one per chart coordinate, are refused first."""
    points = np.asarray(points, dtype=float)
    if points.shape[1:] != (len(box),):
        raise ValueError(f"{row(0)} has {points.shape[-1]} chart coordinates; the box has "
                         f"{len(box)}, u and each x")
    lo, hi = _box_edges(box, steps)
    outside = ~((points >= lo) & (points <= hi))
    if outside.any():
        k, i = np.argwhere(outside)[0]
        name = expr.var_names(len(box) + 1)[i]
        low, high = box[i]
        raise ValueError(f"{row(k)} {name} = {float(points[k, i])!r} lies outside the box "
                         f"{name} in [{float(low)!r}, {float(high)!r}]")


def null_velocity(spec: MetricSpec, start: Sequence[float],
                  leaf_part: np.ndarray | None = None) -> np.ndarray:
    """An exactly lightlike velocity E_0 + a^i E_i + c E_1 at the start point,
    given by its chart coordinates (u, x2, ..).

    The E_1 coefficient solves the null condition in closed form from the
    frame inner products: c = g_ij a^i a^j / 2; H and W_i are read off
    G_00 = -2H and G_0i = -W_i.  A start point that ``check_in_box`` refuses,
    a leaf part a (``--leaf-part``) without exactly m finite entries, and one
    whose v-component overflows are ``ValueError``s.
    """
    m = spec.m
    check_in_box(spec.box, [start], lambda k: "start point")
    a = np.zeros(m) if leaf_part is None else np.asarray(leaf_part, dtype=float)
    if a.shape != (m,):
        raise ValueError(f"--leaf-part has {a.size} entries; the leaf dimension m = {m} "
                         f"needs {m}")
    if not np.isfinite(a).all():
        raise ValueError(f"--leaf-part {a.tolist()} has a non-finite entry; all m = {m} "
                         f"entries must be finite")
    vec = np.zeros(spec.n)
    with np.errstate(all="ignore"):
        G = metric_values(spec, np.array([start[0], 0.0, *start[1:]]))
        vec[:2] = 1.0, 0.5 * G[0, 0] + 0.5 * float(a @ G[2:, 2:] @ a)
        for i in range(m):
            vec[1] += a[i] * G[0, 2 + i]
    if not np.isfinite(vec[1]):
        raise ValueError(f"--leaf-part {a.tolist()} (m = {m}) makes the null v-component "
                         f"{float(vec[1])!r}")
    vec[2:] += a
    return vec


def null_sectional_growth(spec: MetricSpec, traj: Trajectory,
                          x_vec: np.ndarray) -> dict[str, np.ndarray | float]:
    """Null sectional curvature R(V,X,V,X)/g(X,X) along a lightlike geodesic.

    X is parallel-transported from ``x_vec`` on the connection the geodesic
    recorded, so the curve is integrated once; returns the sampled values,
    the first finite-difference derivative and its constancy residual (the
    maximum absolute second difference of the samples).  The first node where
    g(X, X) is not positive (a NaN included), and else the first where K is
    not finite, is a ``ValueError`` naming the node, tau and its coordinates.
    """
    vals = np.empty(len(traj.tau))
    with np.errstate(all="ignore"):
        X = parallel_transport(traj, np.asarray(x_vec, dtype=float)[None, :])[:, 0, :]
        for block, p in node_blocks(_chart_points(traj.coords)):
            v, x = traj.velocity[block], X[block]
            cm = assemble_coordinate_metric(spec, p, order=2)
            R = coordinate_curvature(cm, depth=0).R
            G = cm.G.value()
            Rlow = np.einsum("kae,kebcd->kabcd", G, R)
            num = np.einsum("kabcd,ka,kb,kc,kd->k", Rlow, v, x, v, x)
            den = (x[:, None, :] @ G @ x[:, :, None])[:, 0, 0]   # the bits of X @ G @ X
            K = num / den
            flat = ~(den > 1e-10)   # a NaN is not positive either
            bad = flat if flat.any() else ~np.isfinite(K)
            if bad.any():
                j = int(np.argmax(bad))
                k = block.start + j
                what = (f"degenerate plane: g(X, X) = {float(den[j])!r} is not positive"
                        if flat.any() else
                        f"null sectional curvature K = {float(K[j])!r} is not finite")
                raise ValueError(f"{what} at node {k}, tau = {float(traj.tau[k])!r}, "
                                 f"coordinates {tuple(traj.coords[k].tolist())}")
            vals[block] = K
    h = float(traj.tau[1] - traj.tau[0])
    second = np.abs(np.diff(vals, n=2))
    return {
        "tau": traj.tau,
        "K": vals,
        "dK": np.diff(vals) / h,
        "max_second_difference": float(second.max()) if second.size else 0.0,
    }


def _curve_trajectory(spec: MetricSpec,
                      curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                      span: float, steps: int) -> Trajectory:
    """Sample an analytic curve on [0, span] with its connection at the RK4 stages.

    ``curve`` maps the rows of the node/midpoint ``stage_grid`` to their
    coordinates and velocities (rows, n); the rows are evaluated in blocks of
    ``NODE_BLOCK`` points, one Christoffel evaluation each.
    """
    taus, grid, rows = stage_grid(0.0, step_size(span, steps), steps)
    coords, vel = curve(grid)
    C = np.empty((len(grid), spec.n, spec.n))
    for block, p in node_blocks(_chart_points(coords)):
        cm = assemble_coordinate_metric(spec, p, order=1)
        Gamma = christoffel(_lowered(_cgrad(cm.G, spec.n).value(), 1), cm.Ginv0)
        C[block] = np.einsum("kabc,kc->kab", Gamma, vel[block])
    return Trajectory(taus, coords[::2], vel[::2], C[rows])


def second_symmetry_transport_check(spec: MetricSpec, trials: int = 3,
                                    rng_seed: int = 0) -> tuple[bool, float]:
    """Transport-level test: (nabla_V R)(X,Y)Z has constant components in a
    parallelly transported basis along arbitrary curves iff nabla nabla R = 0.

    Uses random polynomial (non-geodesic) curves inside the box, and reads
    nabla R at three nodes of each in one stacked call; a non-finite entry
    of nabla R, or else of the transported basis, is a ``ValueError`` naming
    the trial, the node and its u.  Returns (passed, worst residual).
    """
    steps, span = SECOND_SYMMETRY_STEPS, SECOND_SYMMETRY_SPAN
    rng = np.random.default_rng(rng_seed)
    n = spec.n
    nodes = [0, steps // 2, steps]
    worst = 0.0
    for trial in range(trials):
        mid = np.array([0.5 * (lo + hi) for lo, hi in spec.box])
        center = np.concatenate([[mid[0], 0.0], mid[1:]])
        amp = 0.25 * np.array([spec.box[0][1] - spec.box[0][0], 1.0]
                              + [hi - lo for lo, hi in spec.box[1:]])
        c1 = rng.normal(scale=0.5, size=n) * amp
        c2 = rng.normal(scale=0.25, size=n) * amp

        def curve(tau: np.ndarray, c1=c1, c2=c2):
            s = (tau / span)[:, None]
            return center + c1 * s + c2 * s * s, (c1 + 2.0 * c2 * s) / span

        traj = _curve_trajectory(spec, curve, span, steps)
        with np.errstate(all="ignore"):
            cm = assemble_coordinate_metric(spec, _chart_points(traj.coords[nodes]), order=3)
            dR = coordinate_curvature(cm, depth=1).dR
            basis = np.vstack([np.eye(n), rng.normal(size=(4, n))])
            moved = parallel_transport(traj, basis)[nodes]
        for values, what in ((dR, "nabla R"), (moved, "transported basis")):
            finite = np.isfinite(values).reshape(len(nodes), -1).all(axis=1)
            if not finite.all():
                node = nodes[int(np.argmin(finite))]
                raise ValueError(f"non-finite {what} in the second-symmetry check at trial "
                                 f"{trial}, node {node}, u = {float(traj.coords[node, 0])!r}")
        comps = []
        for k in range(len(nodes)):
            V, X, Y, Z = moved[k, n], moved[k, n + 1], moved[k, n + 2], moved[k, n + 3]
            W = np.einsum("abcdm,b,c,d,m->a", dR[k], Z, X, Y, V)
            comps.append(np.linalg.solve(moved[k, :n].T, W))
        scale = float(np.max(np.abs(dR)))
        comps = np.array(comps)
        # np.max, unlike max, keeps a NaN
        worst = float(np.max([worst, np.max(np.abs(comps - comps[0])) / (1.0 + scale)]))
    return worst < SECOND_SYMMETRY_TOL, worst
