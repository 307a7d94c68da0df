"""The one fixed-step RK4 formula behind every ODE in the package, the
node/midpoint grid of the time-driven ones, and the batched step maps of
the linear ones.

The geodesic equation is the only nonlinear ODE and steps through
``rk4_step`` directly.  The rotation, translation, transverse (d0) and
parallel-transport equations are linear (or affine) in their state with
coefficients known at every stage before the integration starts;
``linear_rk4`` builds all their step maps in one stacked ``rk4_step`` call
and leaves only a product loop.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["rk4_step", "stage_grid", "step_size", "linear_rk4"]

S = TypeVar("S")


def step_size(span: float, steps: int) -> float:
    """The step h = span / steps of a fixed-step integration; refuses steps < 1."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps!r}")
    return span / steps


def stage_grid(t0: float, h: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t0 + h k, the grid with node k at row 2k and the midpoint
    t0 + h k + h/2 at row 2k + 1, and the grid row of each RK4 stage
    (steps, 4): node k, the midpoint twice, node k + 1.
    """
    nodes = t0 + h * np.arange(steps + 1)
    grid = np.empty(2 * steps + 1)
    grid[0::2] = nodes
    grid[1::2] = nodes[:-1] + 0.5 * h
    rows = 2 * np.arange(steps)[:, None] + np.array([0, 1, 1, 2])
    return nodes, grid, rows


def rk4_step(f: Callable[[S, np.ndarray], np.ndarray], y: np.ndarray, h: float,
             stage_args: Sequence[S]) -> np.ndarray:
    """One classical RK4 step: stage s evaluates ``f(stage_args[s], y_s)``.

    Time-driven equations pass the ``stage_grid`` rows of the step (or
    anything that locates them); equations driven by an earlier integration
    pass what it recorded at its own four stages.
    """
    a1, a2, a3, a4 = stage_args
    k1 = f(a1, y)
    k2 = f(a2, y + 0.5 * h * k1)
    k3 = f(a3, y + 0.5 * h * k2)
    k4 = f(a4, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def linear_rk4(M: np.ndarray, h: float, y0: np.ndarray,
               b: np.ndarray | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """RK4 for dy/dt = M(t) y + b(t) with M (steps, 4, n, n) and b (steps, 4, n)
    given at every stage of every step.

    One RK4 step of a linear equation is the map y -> Phi_k y + c_k: Phi is
    ``rk4_step`` applied to the identity, batched over the steps, and c is
    ``rk4_step`` started from zero.  Returns the nodes (steps + 1, *y0.shape)
    and the four stage maps P_s (steps, n, n): stage s of step k evaluates M
    at the state P_s[k] y_k.  y0 is a vector (n,), or with b = None also a
    matrix (n, p) whose columns are integrated together.
    """
    steps, _, n, _ = M.shape
    stages: list[np.ndarray] = []

    def f(Ms: np.ndarray, Y: np.ndarray) -> np.ndarray:
        stages.append(Y)
        return Ms @ Y

    Phi = rk4_step(f, np.broadcast_to(np.eye(n), (steps, n, n)), h, [M[:, s] for s in range(4)])
    c = None
    if b is not None:
        c = rk4_step(lambda s, y: (M[:, s] @ y[..., None])[..., 0] + b[:, s],
                     np.zeros((steps, n)), h, range(4))
    out = np.empty((steps + 1,) + np.shape(y0))
    out[0] = y0
    for k in range(steps):
        out[k + 1] = Phi[k] @ out[k]
        if c is not None:
            out[k + 1] += c[k]
    return out, stages
