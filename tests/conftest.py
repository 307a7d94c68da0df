import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import settings
from numpy.polynomial import polynomial

from brinkmann.chart import MetricSpec
from brinkmann.classify import SAMPLE_MARGIN, _halton

# ``pytest --hypothesis-profile=ci`` draws the same examples on every run, so a
# CI failure reproduces; no test may fail for taking long on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


def boxed(spec: MetricSpec, box) -> MetricSpec:
    """``spec`` on the admissible box ``box``, one (lo, hi) per chart coordinate:
    transport refuses to leave a spec's box, so a run past it declares one that
    holds it."""
    return dataclasses.replace(spec, box=tuple(box))


@pytest.fixture(scope="session")
def aimed_metric(tmp_path_factory) -> str:
    """Path of cw4_order2 with H = A(u) x2^2 + x3^2 and A = u + 5 p(u), where
    p'' vanishes at the u of each default sample: the first eight Halton
    points in base 2 (unshifted) and the box center.  A is not affine, yet
    nabla nabla R vanishes at exactly those samples."""
    lo, hi = -1.0, 1.0
    inner = 1.0 - 2.0 * SAMPLE_MARGIN
    us = {lo + (SAMPLE_MARGIN + inner * _halton(k, 2)) * (hi - lo) for k in range(1, 9)}
    us.add(0.5 * (lo + hi))
    coeffs = 5.0 * polynomial.polyint(polynomial.polyfromroots(sorted(us)), 2)
    coeffs[1] += 1.0
    A = " + ".join(f"({np.format_float_positional(c)}) * u^{k}"
                   for k, c in enumerate(coeffs) if c != 0.0)
    text = (METRICS / "cw4_order2.metric").read_text()
    assert 'H = "u * x2^2 + x3^2"' in text
    path = tmp_path_factory.mktemp("aimed") / "aimed.metric"
    path.write_text(text.replace('H = "u * x2^2 + x3^2"', f'H = "({A}) * x2^2 + x3^2"'))
    return str(path)
