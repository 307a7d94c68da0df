import warnings

import numpy as np
import pytest

from brinkmann import canonical
from brinkmann.canonical import (FlatBlockData, recover_A, reconstruct, solve_rotation_ode,
                                 solve_translation_ode, verify_canonical)
from brinkmann.chart import MetricSpec
from brinkmann.spaces import apply_chart_change, fixture, rotation_chart_change


def test_flat_block_extraction_cw():
    spec = fixture("cw4_r2")
    data = FlatBlockData(spec, (0, 1))
    for u in (0.0, 0.4, -0.3):
        P = np.diag([u, 1.0])
        assert np.allclose(data.Lambda(u), 2.0 * P)
        assert np.max(np.abs(data.B(u))) == 0.0
        assert np.max(np.abs(data.t(u))) == 0.0
    assert data.affine_residual < 1e-13
    assert data.t_x_residual < 1e-13


def test_flat_block_extraction_scrambled():
    spec = fixture("scrambled_cw4")
    data = FlatBlockData(spec, (0, 1))
    u = 0.25
    t = data.t(u)
    assert np.max(np.abs(t + t.T)) < 1e-12      # t skew
    # t = -R^T Rdot = 0.3 * [[0, 1], [-1, 0]] for the injected rotation of angle 0.3u
    assert t[0, 1] == pytest.approx(0.3, abs=1e-12)
    assert data.affine_residual < 1e-10
    assert data.t_x_residual < 1e-10


def test_rotation_ode_t_zero():
    data = FlatBlockData(fixture("cw4_r2"), (0, 1))
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=200)
    assert np.max(np.abs(rot.R - np.eye(2))) < 1e-14


def test_rotation_ode_constant_t_closed_form():
    spec = fixture("rotation_w")  # t = [[0, 1], [-1, 0]], constant
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (0.0, 2.0), steps=400)
    # dR/du = -R t  =>  R(u) = exp(-t u)
    for k in (100, 400):
        u = rot.us[k]
        c, s = np.cos(u), np.sin(u)
        expect = np.array([[c, -s], [s, c]])
        assert np.max(np.abs(rot.R[k] - expect)) < 1e-10
    assert rot.orthogonality_error < 1e-10


def test_rotation_ode_dimension_one():
    spec = MetricSpec.from_text(3, H="u*x2^2")
    data = FlatBlockData(spec, (0,))
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=100)
    assert np.max(np.abs(rot.R - 1.0)) < 1e-14


def test_rotation_ode_rejects_bad_R0():
    data = FlatBlockData(fixture("cw4_r2"), (0, 1))
    with pytest.raises(ValueError):
        solve_rotation_ode(data, (0.0, 1.0), steps=50, R0=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_orthogonality_drift_scales_as_h4():
    # without reprojection the drift must fall ~16x when the step halves;
    # a fast rotation keeps the drift well above the floating floor
    from brinkmann import canonical

    base = fixture("cw4_r2")
    fast = apply_chart_change(base, rotation_chart_change(base, (0, 1), omega=3.0))
    data = FlatBlockData(fast, (0, 1))
    old = canonical.REPROJECT_EVERY
    canonical.REPROJECT_EVERY = 10 ** 9
    try:
        errs = []
        for steps in (10, 20, 40):
            rot = solve_rotation_ode(data, (0.0, 0.8), steps=steps)
            errs.append(rot.orthogonality_error)
    finally:
        canonical.REPROJECT_EVERY = old
    assert errs[0] > 1e-10          # meaningfully above the floating floor
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_recover_A_unscrambled():
    spec = fixture("cw4_r2")
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (-0.5, 0.5), steps=100)
    A = recover_A(rot)
    for k in (0, 50, 100):
        assert np.allclose(A[k], -np.diag([rot.us[k], 1.0]), atol=1e-12)


def test_recover_A_constant_rotation_congruence():
    spec = fixture("cw4_r2")
    th = 0.7
    R0 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    scr = apply_chart_change(spec, rotation_chart_change(spec, (0, 1), omega=0.0))
    data = FlatBlockData(scr, (0, 1))
    rot = solve_rotation_ode(data, (0.0, 0.5), steps=100, R0=R0)
    A = recover_A(rot)
    for k in (0, 100):
        P = np.diag([rot.us[k], 1.0])
        assert np.allclose(np.sort(np.linalg.eigvalsh(A[k])),
                           np.sort(np.linalg.eigvalsh(-P)), atol=1e-10)


def _A_reference(data, u, R):
    # the cross-derivative relation at one node, from the per-u samplers
    Rinv = np.linalg.inv(R)
    t = data.t(u)
    Rdot = -Rinv.T @ t
    dRinvT = -(Rinv @ Rdot @ Rinv).T
    M = R.T @ (-dRinvT @ t - Rinv.T @ data.tdot(u))
    lam = data.Lambda(u)
    core = 0.5 * (lam + lam.T) - 0.5 * (M + M.T)
    A = -0.5 * (R @ core @ R.T)
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("name, omega", [("scrambled_cw4", None), ("cw4_r2", 0.0)])
def test_recover_A_stacked_equals_per_node(name, omega):
    spec = fixture(name)
    if omega is not None:
        spec = apply_chart_change(spec, rotation_chart_change(spec, (0, 1), omega=omega))
    data = FlatBlockData(spec, (0, 1))
    th = 0.7
    R0 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = solve_rotation_ode(data, (-0.4, 0.5), steps=90, R0=R0)
    A = recover_A(rot)
    want = np.array([_A_reference(data, float(u), R) for u, R in zip(rot.us, rot.R)])
    assert np.array_equal(A, want)


def test_reconstruct_evaluates_the_block_data_once(monkeypatch):
    # one batched pass over the node/midpoint grid; no solver reads a per-u
    # sampler, and the stacked A relation runs a fixed number of times
    precompute = FlatBlockData.precompute
    sizes, stacks = [], []

    def counted(self, us):
        sizes.append(len(us))
        return precompute(self, us)

    def no_sampler(self, u):
        raise AssertionError("per-u sampler called")

    A_at = canonical._A_at

    def counted_A(*args):
        stacks.append(len(args[0]))
        return A_at(*args)

    monkeypatch.setattr(FlatBlockData, "precompute", counted)
    monkeypatch.setattr(FlatBlockData, "_eval", no_sampler)
    monkeypatch.setattr(canonical, "_A_at", counted_A)
    spec = fixture("scrambled_cw4")
    for steps in (50, 120):
        sizes.clear()
        stacks.clear()
        reconstruct(spec, u_interval=(-0.3, 0.2), steps=steps)
        assert sizes == [2 * steps + 1]
        assert stacks == [steps + 1] + 4 * [steps]    # recover_A, then each stage column


def test_non_finite_block_data_is_a_located_error():
    # exp(1000 u) overflows for u above ~0.709; no NaN A(u), no numpy warning
    spec = MetricSpec.from_text(4, H="exp(1000*u)*x2^2 + u*x3^2",
                                box=[(0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^non-finite Lambda in the flat-block data "
                                             r"at u = 0\.71"):
            reconstruct(spec, steps=200)
        data = FlatBlockData(spec, (0, 1))
        with pytest.raises(ValueError, match=r"non-finite Lambda .* at u = 1\.0$"):
            data.Lambda(1.0)
        assert np.isfinite(data.Lambda(0.5)).all()


def test_reconstruct_refuses_an_interval_outside_the_box():
    spec = fixture("cw4_r2")
    lo, hi = spec.box[0]
    cf = reconstruct(spec, u_interval=(lo, hi), steps=50)
    assert cf.us[0] == lo
    for interval in ((lo - 1e-9, hi), (lo, hi + 0.5), (hi, 2.0 * hi), (lo, float("nan"))):
        with pytest.raises(ValueError, match="outside the box"):
            reconstruct(spec, u_interval=interval, steps=50)


def test_recover_A_zero_Lambda():
    spec = fixture("flat")
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=50)
    assert np.max(np.abs(recover_A(rot))) < 1e-14


def test_translation_ode_trivial_and_quadratic():
    flat = fixture("flat")
    data = FlatBlockData(flat, (0, 1))
    D = solve_translation_ode(solve_rotation_ode(data, (0.0, 1.0), steps=100))
    assert np.max(np.abs(D)) == 0.0

    # constant B via H = b x2: h_2 = b, A = 0, R = I -> D = B u^2 / 2 + ...
    spec = MetricSpec.from_text(4, H="0.6*x2")
    data = FlatBlockData(spec, (0, 1))
    D = solve_translation_ode(solve_rotation_ode(data, (0.0, 1.0), steps=200),
                              Ddot0=np.array([0.1, 0.0]))
    us = np.linspace(0, 1, 201)
    expect = 0.3 * us ** 2 + 0.1 * us
    assert np.max(np.abs(D[:, 0] - expect)) < 1e-10
    assert np.max(np.abs(D[:, 1])) < 1e-12


def test_translation_ode_reads_R_from_the_rotation_curve():
    # the quadratic-D case above seen through a constant rotation R0: A = 0 and
    # D'' = R0^{-T} B = R0 B, with R at every stage taken from the rotation curve
    spec = MetricSpec.from_text(4, H="0.6*x2")
    data = FlatBlockData(spec, (0, 1))
    th = 0.4
    R0 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=200, R0=R0)
    assert np.array_equal(rot.stage_R[:, 0], rot.R[:-1])
    D = solve_translation_ode(rot, Ddot0=np.array([0.1, 0.0]))
    us = np.linspace(0, 1, 201)
    expect = np.outer(us ** 2, R0 @ [0.3, 0.0]) + np.outer(us, [0.1, 0.0])
    assert np.max(np.abs(D - expect)) < 1e-10


def test_verify_canonical_fit_and_normal_form():
    us = np.linspace(-1, 1, 21)
    A1 = np.array([[0.5, 0.2], [0.2, -0.3]])
    A0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    A = np.array([A1 * u + A0 for u in us])
    fit = verify_canonical(us, A)
    assert fit["affine_residual"] < 1e-12
    assert fit["proper"]
    assert np.allclose(np.sort(fit["A1_diagonal"]), np.sort(np.linalg.eigvalsh(A1)))
    # the normal form cancels one diagonal entry of A0
    idx = np.argmax(np.abs(fit["A1_diagonal"]) > 1e-8)
    assert abs(fit["A0_normal"][idx, idx]) < 1e-10

    flat_fit = verify_canonical(us, np.array([A0 for _ in us]))
    assert not flat_fit["proper"]

    quad = np.array([A1 * u * u for u in us])
    assert verify_canonical(us, quad)["affine_residual"] > 0.05


def test_full_round_trip_scrambled():
    spec = fixture("scrambled_cw4")
    cf = reconstruct(spec, u_interval=(-0.8, 0.8), steps=1600)
    assert cf.orthogonality_error < 1e-8
    assert cf.affine_residual < 1e-8
    assert cf.proper
    # recovered R equals the injected rotation up to a constant orthogonal factor
    def rinj(u):
        th = 0.3 * u
        c, s = np.cos(th), np.sin(th)
        return np.array([[c, -s], [s, c]])
    C0 = rinj(cf.us[0]).T @ cf.R_of_u[0]
    for k in (0, 800, 1600):
        assert np.max(np.abs(cf.R_of_u[k] - rinj(cf.us[k]) @ C0)) < 1e-7
    # injected spectrum of P(u) = diag(u, 1) recovered pointwise
    for k in (0, 400, 1600):
        got = np.sort(np.linalg.eigvalsh(cf.P_of_u[k]))
        want = np.sort(np.array([cf.us[k], 1.0]))
        assert np.max(np.abs(got - want)) < 1e-6
    assert cf.eqq1_residual < 1e-6
    assert cf.eqq3_residual < 1e-5


def test_round_trip_recovers_translation():
    spec = fixture("scrambled_cw4")
    cf = reconstruct(spec, u_interval=(0.0, 0.8), steps=800)
    for k in (200, 800):
        u = cf.us[k]
        assert np.max(np.abs(cf.D_of_u[k] - np.array([u * u, 0.0]))) < 1e-6


def test_reconstruct_r1_not_proper():
    cf = reconstruct(fixture("cw4_r1"), steps=300)
    assert not cf.proper
    assert np.max(np.abs(cf.A1)) < 1e-10


def test_reconstruct_r3_reports_nonaffine():
    cf = reconstruct(fixture("cw4_r3"), steps=300)
    assert cf.affine_residual > 1e-3


def test_reconstruct_empty_block_is_not_proper():
    # d = 0: nothing to fit, so the fit residual is 0 and the block is not proper
    cf = reconstruct(fixture("cw4_r2"), block=(), steps=50)
    assert cf.proper is False
    assert cf.essential_parameters == 0
    assert cf.affine_residual == 0.0
    assert cf.A_of_u.shape == (51, 0, 0)
