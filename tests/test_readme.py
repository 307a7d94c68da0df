"""README's library quick start runs as printed and shows what its comments say."""

import contextlib
import io
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_prints_the_verdict_A_and_a_vanishing_second_derivative():
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_quick_start(), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0] == "proper_second_symmetric"
    # P(u) = diag(0, 1) + u diag(1, 0) at u = 0.5, on a stack of one point
    blocks = namespace["cc"].blocks
    assert blocks["A"].shape == blocks["Atil"].shape == (1, 2, 2)
    assert np.abs(blocks["A"][0] + 2.0 * np.diag([0.5, 1.0])).max() < 1e-14
    assert np.abs(blocks["Atil"][0] + 2.0 * np.diag([1.0, 0.0])).max() < 1e-14
    assert float(lines[-2]) < 1e-14
    proper, residual = lines[-1].split()
    assert proper == "True" and float(residual) < 1e-12
