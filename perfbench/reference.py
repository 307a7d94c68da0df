"""A fixed reference computation that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within minutes, and the library's ops slow down with it. Timing this
fixed chunk next to, and every ``INTERVAL_S`` during, an op lets the
benchmark report the op's time at a nominal host speed:

    scaled = measured * REFERENCE_S / (mean time of the chunks)

The chunk does what the library's hot paths do, in fixed amounts: a pure
Python loop, calls into small Python objects, and numpy ops on small arrays.
It never calls the library, so a change to the library moves the scaled
times exactly as it moves the raw ones. Do not change the chunk,
``INTERVAL_S`` or ``REFERENCE_S``: they are part of the benchmark's
definition, and figures measured with different ones cannot be compared.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of one chunk on the machine the bounds were set on (2-vCPU
# Xeon VM, Python 3.11, numpy 1.26, quiet host).
REFERENCE_S = 0.0045
# Wall time between two chunks while an op runs.
INTERVAL_S = 0.1

_A = np.random.default_rng(0).random((6, 6))
_V = np.random.default_rng(1).random((8, 21))


class _Pair:
    __slots__ = ("value", "count")

    def __init__(self, value: float, count: int) -> None:
        self.value = value
        self.count = count

    def __mul__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.value * other.value, self.count + other.count)


def _chunk() -> float:
    total = 0
    for i in range(12_000):
        total += i * i % 7
    table = {}
    x = _Pair(1.0, 0)
    for i in range(2_000):
        x = x * _Pair(1.0000001, 1)
        table[i & 63] = x
    s = _A
    for _ in range(250):
        s = (_A @ s) * 0.1 + _A
        np.sqrt(np.einsum("ij,ij->i", _V, _V) + 1.0)
    return total + x.value + float(s[0, 0])


def measure(repeat: int = 1) -> list[float]:
    """Wall times of ``repeat`` reference chunks, in seconds."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return times


def scale(chunks: list[float]) -> float:
    """Factor that turns a time measured next to ``chunks`` into a nominal one."""
    return REFERENCE_S / statistics.fmean(chunks)


class Clock:
    """Wall time of a block, without the chunks run during it.

    With ``sampled``, one chunk runs before the block, one every
    ``INTERVAL_S`` inside it (from a SIGALRM timer, between bytecodes of
    the block) and one after it; ``scale`` then gives the factor for the
    block's time.
    """

    def __init__(self, sampled: bool) -> None:
        self.sampled = sampled
        self.chunks: list[float] = []
        self._ticks: list[tuple[float, float]] = []
        self.elapsed = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _chunk()
        self._ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Clock":
        if self.sampled:
            self.chunks += measure()
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            inside = [d for t, d in self._ticks if t < end]
            self.chunks += [d for _, d in self._ticks] + measure()
            end -= sum(inside)
        self.elapsed = end - self._start

    @property
    def scale(self) -> float:
        return scale(self.chunks)
