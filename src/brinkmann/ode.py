"""The one fixed-step Runge-Kutta stepper behind every ODE in the package."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["rk4_step"]

S = TypeVar("S")


def rk4_step(f: Callable[[S, np.ndarray], np.ndarray], y: np.ndarray, h: float,
             stage_args: Sequence[S]) -> np.ndarray:
    """One classical RK4 step: stage s evaluates ``f(stage_args[s], y_s)``.

    Time-driven equations pass their abscissae ``(t, t_mid, t_mid, t_next)``
    exactly as precomputed, so cached coefficients are hit bit for bit;
    equations driven by an earlier integration pass what it recorded at its
    own four stages.
    """
    a1, a2, a3, a4 = stage_args
    k1 = f(a1, y)
    k2 = f(a2, y + 0.5 * h * k1)
    k3 = f(a3, y + 0.5 * h * k2)
    k4 = f(a4, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
