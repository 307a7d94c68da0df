"""Round trip of ``reconstruct`` on random scrambled plane waves.

A plane wave H = P_ij(u) x^i x^j with P = P0 + u P1 (``make_cw``) is
rewritten in the chart x' = R(omega u) x + (c u^2, 0, ..) of
``rotation_chart_change``; ``reconstruct`` must undo it: A(u) affine, the
spectrum of P(u) = -A(u) the injected one, R the injected rotation up to a
constant orthogonal factor, and both integrability residuals small.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from brinkmann import expr
from brinkmann.canonical import reconstruct
from brinkmann.spaces import CwParams, apply_chart_change, make_cw, rotation_chart_change


def _symmetric(upper: list[float], m: int) -> np.ndarray:
    P = np.zeros((m, m))
    P[np.triu_indices(m)] = upper
    return P + np.triu(P, 1).T


@st.composite
def scrambled_plane_waves(draw):
    m = draw(st.sampled_from([2, 3]))
    upper = st.lists(st.floats(-1.0, 1.0), min_size=m * (m + 1) // 2,
                     max_size=m * (m + 1) // 2)
    P0, P1 = _symmetric(draw(upper), m), _symmetric(draw(upper), m)
    assume(np.max(np.abs(P1)) >= 0.1)   # a proper plane wave needs a slope
    return m, P0, P1, draw(st.floats(-0.5, 0.5)), draw(st.floats(-1.5, 1.5))


@settings(max_examples=15, deadline=None)
@given(scrambled_plane_waves())
def test_reconstruct_undoes_a_rotation_and_translation(case):
    m, P0, P1, omega, c = case
    base = make_cw(CwParams(2 + m, (P0, P1)))
    change = rotation_chart_change(base, (0, 1), omega,
                                   translation={0: expr.parse(f"{c!r} * u^2", base.n)})
    spec = apply_chart_change(base, change, box=((-0.5, 0.5),) + ((-0.8, 0.8),) * m)
    cf = reconstruct(spec)
    assert cf.proper
    assert cf.affine_residual < 1e-8

    def injected(u):
        R = np.eye(m)
        R[:2, :2] = [[np.cos(omega * u), -np.sin(omega * u)],
                     [np.sin(omega * u), np.cos(omega * u)]]
        return R

    C0 = injected(cf.us[0]).T @ cf.R_of_u[0]
    for k in (0, len(cf.us) // 3, len(cf.us) - 1):
        u = cf.us[k]
        want = np.linalg.eigvalsh(P0 + u * P1)
        assert np.max(np.abs(np.linalg.eigvalsh(cf.P_of_u[k]) - want)) < 1e-6
        assert np.max(np.abs(cf.R_of_u[k] - injected(u) @ C0)) < 1e-7
    assert cf.eqq1_residual < 1e-6
    assert cf.eqq3_residual < 1e-5
