import pathlib
import re
import warnings

import numpy as np
import pytest

from brinkmann import canonical, cli, expr, jets
from brinkmann.canonical import (FlatBlockData, recover_A, reconstruct, solve_rotation_ode,
                                 solve_translation_ode, verify_canonical)
from brinkmann.chart import MetricSpec
from brinkmann.metricfile import load_metric_file, spec_to_text
from brinkmann.ode import rk4_step
from brinkmann.spaces import (ChartChange, CwParams, apply_chart_change, fixture, make_cw,
                              rotation_chart_change)

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


def test_flat_block_extraction_cw():
    spec = fixture("cw4_r2")
    data = FlatBlockData(spec, (0, 1))
    us = np.array([0.0, 0.4, -0.3])
    t, _, lam, B = data.precompute(us)
    for k, u in enumerate(us):
        P = np.diag([u, 1.0])
        assert np.allclose(lam[k], 2.0 * P)
        assert np.max(np.abs(B[k])) == 0.0
        assert np.max(np.abs(t[k])) == 0.0
    assert data.affine_residual < 1e-13
    assert data.t_x_residual < 1e-13


def test_flat_block_extraction_scrambled():
    spec = fixture("scrambled_cw4")
    data = FlatBlockData(spec, (0, 1))
    t = data.precompute(np.array([0.25]))[0][0]
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


def _fast_rotation_data():
    # a fast rotation keeps the drift well above the floating floor
    base = fixture("cw4_r2")
    fast = apply_chart_change(base, rotation_chart_change(base, (0, 1), omega=3.0))
    return FlatBlockData(fast, (0, 1))


def test_orthogonality_drift_scales_as_h4():
    # the drift of the unprojected nodes must fall at least 10x when the step
    # halves (about 32x: the h^5 term of T4(-X) T4(X) cancels)
    data = _fast_rotation_data()
    errs = [solve_rotation_ode(data, (0.0, 0.8), steps=steps).drift_before_projection
            for steps in (40, 80, 160)]
    assert errs[0] > 1e-10          # meaningfully above the floating floor
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_orthogonality_drift_gate_names_the_first_u():
    with pytest.raises(RuntimeError, match=r"orthogonality drift .* from u = "):
        solve_rotation_ode(_fast_rotation_data(), (0.0, 0.8), steps=10)


def test_recover_A_unscrambled():
    spec = fixture("cw4_r2")
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (-0.5, 0.5), steps=100)
    A = recover_A(rot)
    for k in (0, 50, 100):
        assert np.allclose(A[k], -np.diag([rot.us[k], 1.0]), atol=1e-12)


def _rotated(spec: MetricSpec, th: float) -> MetricSpec:
    """``spec`` in the chart x' = R0 x, R0 the constant rotation by th of x2 and x3."""
    c, s = float(np.cos(th)), float(np.sin(th))
    maps = (expr.parse(f"{c!r}*x2 - {s!r}*x3", spec.n), expr.parse(f"{s!r}*x2 + {c!r}*x3", spec.n),
            *(expr.parse(f"x{i}", spec.n) for i in range(4, spec.n)))
    return apply_chart_change(spec, ChartChange(F=expr.Num(0.0), x_maps=maps))


def test_recover_A_constant_rotation_congruence():
    # a constant rotation of the chart rotates Lambda; R stays I and A is congruent
    data = FlatBlockData(_rotated(fixture("cw4_r2"), 0.7), (0, 1))
    rot = solve_rotation_ode(data, (0.0, 0.5), steps=100)
    A = recover_A(rot)
    assert np.max(np.abs(A[50] - np.diag(np.diag(A[50])))) > 0.1
    for k in (0, 100):
        P = np.diag([rot.us[k], 1.0])
        assert np.allclose(np.sort(np.linalg.eigvalsh(A[k])),
                           np.sort(np.linalg.eigvalsh(-P)), atol=1e-10)


def _A_reference(t, tdot, lam, R):
    # the fixed-frame cross-derivative relation at one u, with R^{-1} and the
    # analytic d2R/du2 of dR/du = -R^{-T} t
    Rinv = np.linalg.inv(R)
    Rdot = -Rinv.T @ t
    dRinvT = -(Rinv @ Rdot @ Rinv).T
    M = R.T @ (-dRinvT @ t - Rinv.T @ tdot)
    core = 0.5 * (lam + lam.T) - 0.5 * (M + M.T)
    A = -0.5 * (R @ core @ R.T)
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("name, th", [("scrambled_cw4", None), ("cw4_r2", 0.7)])
def test_recover_A_stacked_equals_per_node(name, th):
    # bit for bit the core at each node's precompute row, and within 1e-15 of
    # the fixed-frame relation
    spec = fixture(name) if th is None else _rotated(fixture(name), th)
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (-0.4, 0.5), steps=90)
    A = recover_A(rot)
    rows = list(zip(*data.precompute(rot.us)[:3], rot.R))
    want = []
    for t, tdot, lam, R in rows:
        node = -0.5 * (R @ canonical._core(t, tdot, lam) @ R.T)
        want.append(0.5 * (node + node.T))
    assert A.tobytes() == np.array(want).tobytes()
    fixed = np.array([_A_reference(*row) for row in rows])
    assert np.max(np.abs(A - fixed)) <= 1e-15 * np.max(np.abs(fixed))


def test_reconstruct_evaluates_the_block_data_once(monkeypatch):
    # one batched pass over the node/midpoint grid, and the core runs once
    # on the nodes (recover_A) and once on the grid (the translation ODE)
    precompute = FlatBlockData.precompute
    sizes, stacks = [], []

    def counted(self, us):
        sizes.append(len(us))
        return precompute(self, us)

    core = canonical._core

    def counted_core(*args):
        stacks.append(len(args[0]))
        return core(*args)

    monkeypatch.setattr(FlatBlockData, "precompute", counted)
    monkeypatch.setattr(canonical, "_core", counted_core)
    spec = fixture("scrambled_cw4")
    for steps in (50, 120):
        sizes.clear()
        stacks.clear()
        reconstruct(spec, u_interval=(-0.3, 0.2), steps=steps)
        assert sizes == [2 * steps + 1]
        assert stacks == [steps + 1, 2 * steps + 1]


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
            data.precompute(np.array([1.0]))
        assert np.isfinite(data.precompute(np.array([0.5]))[2]).all()


def _precompute_over_all_variables(data: FlatBlockData, us: np.ndarray):
    """(t, tdot, Lambda, B, affine_residual, t_x_residual) from jets over every chart
    variable, each seeded with the batch of ``us``: the extraction without the
    restriction to u and the block or the scalar leaf seeds."""
    spec, block, d, m = data.spec, data.block, data.d, data.spec.m
    nv = spec.num_vars
    env = {"u": jets.seed(0, us, nv, 3)}
    for k in range(m):
        env[f"x{k + 2}"] = jets.seed(1 + k, np.full(us.shape, data._base_x[k]), nv, 3)
    ctx = jets.context(nv, 3)

    def coeff(jet, *slots):
        e = [0] * nv
        for v in slots:
            e[v] += 1
        return np.broadcast_to(jet.data[..., ctx.index(e)], us.shape)

    with np.errstate(all="ignore"):
        fields = expr.eval_jet(spec.tape, env, nv, 3)
        H, W = fields[0], fields[1:1 + m]
        h = [H.diff(1 + sa) - W[sa].du() for sa in block]
        t = [[0.5 * (-fields[1 + m + m * sa + sb].du() + W[sa].diff(1 + sb) - W[sb].diff(1 + sa))
              for b, sb in enumerate(block)] for a, sa in enumerate(block)]
    B = np.stack([coeff(h[a]) for a in range(d)], axis=-1)
    Lam = np.stack([np.stack([coeff(h[a], 1 + sb) for sb in block], -1) for a in range(d)], 1)
    tval = np.stack([np.stack([coeff(t[a][b]) for b in range(d)], -1) for a in range(d)], 1)
    tdot = np.stack([np.stack([coeff(t[a][b], 0) for b in range(d)], -1) for a in range(d)], 1)
    aff = max(np.max(np.abs(coeff(ha, 1 + sb, 1 + sc)))
              for ha in h for sb in block for sc in block)
    tx = max(np.max(np.abs(coeff(tab, 1 + sc))) for row in t for tab in row for sc in block)
    return tval, tdot, Lam, B, float(aff), float(tx)


# H, W and the block's g read the leaf coordinate x4, which is off the block (0, 1)
OFF_BLOCK_SPEC = MetricSpec.from_text(
    5, H="u*x2^2 + x3^2 + x4*x2*x3 + sin(x4)*x2 + cos(u)*x4^2*x2 - x4^3 + x2^2*x3*x4",
    W={2: "x4*u*x3", 3: "x2^2*x4", 4: "x2*x4"}, g={(2, 3): "0.1*x4*sin(u)", (4, 4): "1 + x4^2"},
    box=[(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (0.2, 0.9)])


@pytest.mark.parametrize("name, block", [("cw4_order2_sphere", (0, 1)), ("scrambled_cw4", (0, 1)),
                                         ("scrambled_cw4", (0,)), ("off_block", (0, 1))])
def test_precompute_equals_the_all_variable_extraction_bit_for_bit(name, block):
    spec = (OFF_BLOCK_SPEC if name == "off_block" else
            load_metric_file(str(METRICS / f"{name}.metric")))
    lo, hi = spec.box[0]
    for us in (np.linspace(lo, hi, 41), np.array([0.5 * (lo + hi)])):
        data = FlatBlockData(spec, block)
        got = data.precompute(us)
        want = _precompute_over_all_variables(data, us)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert (data.affine_residual, data.t_x_residual) == want[4:]
    if name == "off_block":
        assert data.affine_residual > 0.0 and data.t_x_residual > 0.0


def test_extraction_runs_the_spec_tape(monkeypatch):
    spec = load_metric_file(str(METRICS / "cw4_order2_sphere.metric"))
    assert spec.m == 4
    spec.tape
    built = []
    tape_init = expr.Tape.__init__

    def counted(self, outputs):
        built.append(len(outputs))
        tape_init(self, outputs)

    monkeypatch.setattr(expr.Tape, "__init__", counted)
    reconstruct(spec, block=(0, 1), steps=50)
    assert built == []


def test_extraction_multiplies_jets_over_u_and_the_block_only(monkeypatch):
    mul = jets._mul_data
    calls = []

    def counted(ctx, a, b, *rest):
        calls.append((ctx.nvars, a, b))
        return mul(ctx, a, b, *rest)

    monkeypatch.setattr(jets, "_mul_data", counted)
    reconstruct(load_metric_file(str(METRICS / "cw4_order2_sphere.metric")), block=(0, 1),
                steps=50)
    assert calls and {nv for nv, _, _ in calls} == {3}

    def constant_in_u(data):
        # no batch axis, or the same coefficients at every u
        return data.ndim == 1 or bool(np.all(data == data.reshape(-1, data.shape[-1])[0]))

    calls.clear()
    reconstruct(load_metric_file(str(METRICS / "cw6_order2.metric")), steps=50)
    assert calls
    for _, a, b in calls:
        if constant_in_u(a) and constant_in_u(b):
            assert a.ndim == b.ndim == 1


def test_non_finite_leaf_subexpressions_keep_their_located_errors(tmp_path, capsys):
    # exp(2000 x4) overflows at x4's base point 0.55, in products of x's alone;
    # with the block (0,) its product with x3^2 is inf in the value of H only,
    # since neither factor depends on x2, so H itself is refused there;
    # exp(1000 u) overflows on the u-batched side
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fields, block, message in (
                ({"H": "u*x2^2 + x3^2 + exp(2000*x4)*x2^2"}, (0, 1),
                 "non-finite Lambda in the flat-block data at u = -1.0"),
                ({"H": "u*x2^2 + x3^2", "W": {3: "exp(2000*x4)*x2"}}, (0, 1),
                 "non-finite t in the flat-block data at u = -1.0"),
                ({"H": "exp(1000*u)*x2^2 + x3^2 + x4^2"}, (0, 1),
                 "non-finite Lambda in the flat-block data at u = 0.71"),
                ({"H": "u*x2^2 + x3^2 + exp(2000*x4)*x3^2"}, (0,),
                 "non-finite H in the flat-block data at u = -1.0")):
            spec = MetricSpec.from_text(5, **fields, box=[(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0),
                                                          (0.2, 0.9)])
            data = FlatBlockData(spec, block)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                data.precompute(np.linspace(-1.0, 1.0, 201))
        # check on the last metric stops at a located error too, never at a verdict
        path = tmp_path / "overflow.metric"
        path.write_text(spec_to_text(spec))
        assert cli.main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"error: .* at sample \[[^]]*\].*\n", err)


def test_reconstruct_refuses_an_interval_outside_the_box():
    spec = fixture("cw4_r2")
    lo, hi = spec.box[0]
    cf = reconstruct(spec, u_interval=(lo, hi), steps=50)
    assert cf.us[0] == lo
    for interval in ((lo - 1e-9, hi), (lo, hi + 0.5), (hi, 2.0 * hi), (lo, float("nan"))):
        with pytest.raises(ValueError, match="outside the box"):
            reconstruct(spec, u_interval=interval, steps=50)


def test_an_empty_u_interval_is_refused():
    spec = fixture("cw4_r2")
    message = r"^u interval \(0\.3, 0\.3\) is empty$"
    with pytest.raises(ValueError, match=message):
        solve_rotation_ode(FlatBlockData(spec, (0, 1)), (0.3, 0.3))
    with pytest.raises(ValueError, match=message):
        reconstruct(spec, u_interval=(0.3, 0.3))


def test_reconstruct_refuses_a_non_skew_t():
    # t_22 = -g_22'/2 = -0.25: the rotation ODE's orthogonality rests on a skew t
    spec = MetricSpec.from_text(4, H="u*x2^2 + x3^2", g={(2, 2): "1 + 0.5*u"})
    with pytest.raises(ValueError,
                       match=r"^t is not skew: \|t \+ t\^T\| = 5\.00e-01 at u = -1\.0;"):
        reconstruct(spec, steps=50)


def test_reconstruct_refuses_an_h_not_affine_in_x():
    # W_2 = x2 x3 u makes h_2 = -x2 x3 (not affine) and t depend on x
    spec = MetricSpec.from_text(4, H="u*x2^2", W={2: "x2*x3*u"})
    with pytest.raises(ValueError, match=r"^flat-block affine_residual 1\.00e\+00 exceeds 1e-08"):
        reconstruct(spec, steps=50)
    data = FlatBlockData(spec, (0, 1))
    data.precompute(np.array([0.5]))
    assert data.t_x_residual == pytest.approx(0.25)


def test_recover_A_zero_Lambda():
    spec = fixture("flat")
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=50)
    assert np.max(np.abs(recover_A(rot))) < 1e-14


def test_translation_ode_trivial_and_quadratic():
    flat = fixture("flat")
    data = FlatBlockData(flat, (0, 1))
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=100)
    D = solve_translation_ode(rot)
    assert np.max(np.abs(D)) == 0.0

    # constant B via H = b x2: h_2 = b, A = 0, R = I -> D = B u^2 / 2
    spec = MetricSpec.from_text(4, H="0.6*x2")
    data = FlatBlockData(spec, (0, 1))
    rot = solve_rotation_ode(data, (0.0, 1.0), steps=200)
    D = solve_translation_ode(rot)
    us = np.linspace(0, 1, 201)
    expect = 0.3 * us ** 2
    assert np.max(np.abs(D[:, 0] - expect)) < 1e-10
    assert np.max(np.abs(D[:, 1])) < 1e-12


def test_translation_ode_reads_R_from_the_rotation_curve():
    # the quadratic-D case above seen through the rotation x' = R(0.8 u) x: R
    # turns with u, t and the rotating-frame y = R^T D do too, and D is still
    # B u^2 / 2, since at u = 0 the rotation is I
    flat = MetricSpec.from_text(4, H="0.6*x2")
    spec = apply_chart_change(flat, rotation_chart_change(flat, (0, 1), omega=0.8))
    rot = solve_rotation_ode(FlatBlockData(spec, (0, 1)), (0.0, 1.0), steps=200)
    assert np.max(np.abs(rot.R[-1] - np.eye(2))) > 0.5
    D = solve_translation_ode(rot)
    us = np.linspace(0, 1, 201)
    assert np.max(np.abs(D - np.outer(us ** 2, [0.3, 0.0]))) < 1e-10


def _fixed_frame_D(rot):
    """D from d2D/du2 = 2 A D + R^{-T} B in the fixed frame, by an ``rk4_step`` loop
    whose state carries R from each projected node through the stages of the
    rotation ODE as it is integrated, dR/du = -R t, with A from the
    fixed-frame relation at every stage."""
    d = rot.R.shape[-1]

    def f(row, y):
        R, D, Dd = y[:d * d].reshape(d, d), y[d * d:-d], y[-d:]
        Rinv = np.linalg.inv(R)
        A = _A_reference(rot.t[row], rot.tdot[row], rot.Lambda[row], R)
        return np.concatenate([(-R @ rot.t[row]).ravel(), Dd,
                               2.0 * A @ D + Rinv.T @ rot.B[row]])

    out = [np.zeros(2 * d)]
    for k, rows in enumerate(rot.stage_rows):
        y = rk4_step(f, np.concatenate([rot.R[k].ravel(), out[-1]]), rot.h, rows)
        out.append(y[d * d:])
    return np.array(out)[:, :d]


def _seeded_scramble(seed: int) -> MetricSpec:
    # a u-dependent rotation and a c u^2 translation of a random order-2 plane wave
    rng = np.random.default_rng(seed)
    P0, P1 = (0.5 * (S + S.T) for S in rng.uniform(-1.0, 1.0, size=(2, 3, 3)))
    base = make_cw(CwParams(5, (P0, P1)))
    omega, c = rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5)
    return apply_chart_change(base, rotation_chart_change(
        base, (0, 1), omega, translation={0: expr.parse(f"{c!r} * u^2", base.n)}))


@pytest.mark.parametrize("name, block", [("scrambled_cw4", (0, 1)),
                                         ("cw4_order2_sphere", (0, 1)), ("seed5", None)])
def test_translation_ode_in_the_rotating_frame_equals_the_fixed_frame(name, block):
    # the two frames are two RK4 discretizations of one ODE: they part as h^4
    # (1.4e-12 on scrambled_cw4 at 150 steps), below 1e-15 at the default 1000
    spec = (_seeded_scramble(5) if name == "seed5" else
            load_metric_file(str(METRICS / f"{name}.metric")))
    data = FlatBlockData(spec, block or tuple(range(spec.m)))
    rot = solve_rotation_ode(data, (-0.3, 0.2))
    D = solve_translation_ode(rot)
    assert np.max(np.abs(D - _fixed_frame_D(rot))) <= 1e-13 * (1.0 + np.max(np.abs(D)))


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
