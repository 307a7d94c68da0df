"""The one fixed-step Runge-Kutta stepper behind every ODE in the package,
and the node/midpoint grid of the time-driven ones."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["rk4_step", "stage_grid"]

S = TypeVar("S")


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
