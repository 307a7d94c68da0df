"""Engine-level tests: paper-anchored values, symmetry battery, identities."""

import pathlib

import numpy as np
import pytest

from brinkmann import expr, jets
from brinkmann.chart import ChartPoint, MetricSpec
from brinkmann.classify import _depth_norm, sample_points
from brinkmann.curvature import FRAME_BLOCKS, curvature_at, d0_op, leaf_grad
from brinkmann.jets import Jet
from brinkmann.metricfile import load_metric_file
from brinkmann.spaces import (FIXTURE_NAMES, CwParams, fixture, make_cw,
                              random_polynomial_spec)

P_CW42 = lambda u: np.diag([u, 1.0])
METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


def test_flat_everything_zero():
    cc = curvature_at(fixture("flat"), ChartPoint(0.3, (0.2, -0.1)), depth=2)
    assert [_depth_norm([cc.blocks], d) for d in range(3)] == [0.0, 0.0, 0.0]


def test_cw_curvature_values():
    p = ChartPoint(0.45, (0.3, -0.6))
    cc = curvature_at(fixture("cw4_r2"), p, depth=2)
    P = P_CW42(p.u)
    b = cc.blocks
    assert np.allclose(b["A"], -2.0 * P)
    assert np.max(np.abs(b["B"])) == 0.0
    assert np.max(np.abs(b["Rbar"])) == 0.0
    assert b["Ric00"] == pytest.approx(2.0 * np.trace(P))
    assert b["S"] == 0.0
    assert np.allclose(b["Atil"], -2.0 * np.diag([1.0, 0.0]))
    for name in ("Ahat", "Btil", "Bhat", "Rtil", "gradRbar"):
        assert np.max(np.abs(b[name])) == 0.0
    assert _depth_norm([b], 2) == 0.0


def test_rotation_spec_A_from_t():
    p = ChartPoint(0.1, (0.4, 0.2))
    cc = curvature_at(fixture("rotation_w"), p, depth=1)
    t = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected_A = -t.T @ t        # A_ij = -t^k_i t_kj for delta leaf metric
    assert np.allclose(cc.blocks["A"], expected_A)
    assert np.max(np.abs(cc.blocks["B"])) == 0.0
    assert _depth_norm([cc.blocks], 1) < 1e-14


def test_r_i0k_relation_to_B():
    # R^i_{j0k} = -g^{ri} R^1_{krj}
    spec = random_polynomial_spec(21, n=4)
    cc = curvature_at(spec, ChartPoint(0.2, (0.3, -0.2)), depth=0)
    m = 2
    ginv = cc.cj.ginv0
    expect = -np.einsum("ri,krj->ijk", ginv, cc.blocks["B"])
    assert np.max(np.abs(cc.blocks["R_i0k"] - expect)) < 1e-13


def test_sphere_block_locally_symmetric():
    spec = MetricSpec.from_text(4, g={(2, 2): "1", (3, 3): "sin(x2)^2"},
                                box=[(-1, 1), (0.3, 2.8), (-1, 1)])
    cc = curvature_at(spec, ChartPoint(0.0, (1.2, 0.4)), depth=1)
    Rbar_low = np.einsum("ir,rjkl->ijkl", cc.cj.g.value(), cc.blocks["Rbar"])
    assert Rbar_low[0, 1, 0, 1] == pytest.approx(np.sin(1.2) ** 2)
    assert np.max(np.abs(cc.blocks["gradRbar"])) < 1e-9


# -- the transverse derivative --------------------------------------------------------


def test_d0_op_no_t_is_plain_dot():
    rng = np.random.default_rng(0)
    ctx = jets.context(4, 2)
    T = Jet(ctx, rng.normal(size=(3, 3, ctx.ncoeffs)))
    out = d0_op(T, 0, jets.zeros((3, 3), 4, 2)).value()
    Tdot = T.du().value()
    assert np.allclose(out, Tdot)


def test_d0_op_scalar():
    T = jets.const(2.0, 3, 2) + 0.7 * jets.seed(0, 0.0, 3, 2)
    assert d0_op(T, 0, jets.zeros((2, 2), 3, 2)).value() == pytest.approx(0.7)


def test_d0_of_leaf_metric_vanishes():
    # the leaf metric is parallel for the transverse derivative
    spec = random_polynomial_spec(6, n=5)
    p = ChartPoint(0.1, (0.2, 0.3, -0.4))
    cc = curvature_at(spec, p, depth=0)
    d0g_jet = d0_op(cc.cj.g, 0, cc.tup)
    assert np.max(np.abs(d0g_jet.value())) < 1e-11


# -- nabla R blocks --------------------------------------------------------------------


def test_cw_r2_derivpack():
    p = ChartPoint(-0.2, (0.1, 0.8))
    cc = curvature_at(fixture("cw4_r2"), p, depth=1)
    assert np.allclose(cc.blocks["Atil"], -2.0 * np.diag([1.0, 0.0]))


def test_locally_symmetric_product_derivpack_zero():
    spec = fixture("cw4_r1_x_hyperbolic")
    cc = curvature_at(spec, ChartPoint(0.2, (0.3, -0.4, 1.3, 0.7)), depth=1)
    assert _depth_norm([cc.blocks], 1) < 1e-9


def test_bianchi_relations_random_spec():
    # Rtil_ijkl = -2 Bhat_[ij]kl and Btil_kij = 2 Ahat_[ij]k
    for seed in (31, 32):
        spec = random_polynomial_spec(seed, n=4)
        cc = curvature_at(spec, ChartPoint(0.3, (0.1, -0.25)), depth=1)
        g = cc.cj.g.value()
        Rtil_low = np.einsum("ir,rjkl->ijkl", g, cc.blocks["Rtil"])
        B_paper = np.einsum("ijks->sijk", cc.blocks["Bhat"])   # B_paper[s,i,j,k] = Bhat_{sijk}
        rhs = -(B_paper - np.einsum("jikl->ijkl", B_paper))
        assert np.max(np.abs(Rtil_low - rhs)) < 1e-9

        A_paper = np.einsum("ijs->sij", cc.blocks["Ahat"])     # A_paper[s,i,j] = Ahat_{sij}
        expect = (np.einsum("ijk->kij", A_paper)           # Ahat_ijk at [k,i,j]
                  - np.einsum("jik->kij", A_paper))        # minus Ahat_jik
        assert np.max(np.abs(cc.blocks["Btil"] - expect)) < 1e-9


def test_symmetry_battery_random_spec():
    spec = random_polynomial_spec(33, n=5)
    cc = curvature_at(spec, ChartPoint(0.12, (0.3, -0.2, 0.4)), depth=1)
    b = cc.blocks
    tol = 1e-10
    assert np.max(np.abs(b["A"] - b["A"].T)) < tol
    assert np.max(np.abs(b["B"] + np.einsum("ikj->ijk", b["B"]))) < tol
    cyc = b["B"] + np.einsum("jki->ijk", b["B"]) + np.einsum("kij->ijk", b["B"])
    assert np.max(np.abs(cyc)) < tol
    assert np.max(np.abs(b["Atil"] - b["Atil"].T)) < tol
    assert np.max(np.abs(b["Ahat"] - np.einsum("jis->ijs", b["Ahat"]))) < tol
    g = cc.cj.g.value()
    Rt = np.einsum("ir,rjkl->ijkl", g, b["Rtil"])
    assert np.max(np.abs(Rt + np.einsum("jikl->ijkl", Rt))) < tol
    assert np.max(np.abs(Rt + np.einsum("ijlk->ijkl", Rt))) < tol
    assert np.max(np.abs(Rt - np.einsum("klij->ijkl", Rt))) < tol
    cyc4 = Rt + np.einsum("iklj->ijkl", Rt) + np.einsum("iljk->ijkl", Rt)
    assert np.max(np.abs(cyc4)) < tol
    # Btil, Bhat skew in last pair and cyclic (paper slot order)
    Btl = b["Btil"]
    assert np.max(np.abs(Btl + np.einsum("ikj->ijk", Btl))) < tol
    assert np.max(np.abs(Btl + np.einsum("jki->ijk", Btl) + np.einsum("kij->ijk", Btl))) < tol
    Bp = np.einsum("jkli->ijkl", b["Bhat"])
    assert np.max(np.abs(Bp + np.einsum("sikj->sijk", Bp))) < tol
    assert np.max(np.abs(Bp + np.einsum("sjki->sijk", Bp) + np.einsum("skij->sijk", Bp))) < tol


def test_second_blocks_cw_r3():
    p = ChartPoint(0.37, (0.21, -0.4))
    cc = curvature_at(fixture("cw4_r3"), p, depth=2)
    for key in FRAME_BLOCKS[2]:
        expect = 4.0 if key == "00_a" else 0.0
        assert np.max(np.abs(cc.blocks[key])) == pytest.approx(expect, abs=1e-12), key
    assert np.allclose(cc.blocks["00_a"], -4.0 * np.diag([1.0, 0.0]))


PLANE_WAVES = ["cw4_order1", "cw4_order1_hyperbolic", "cw4_order2", "cw4_order2_sphere",
               "cw4_order3", "cw6_order2"]


def _stacks(spec):
    """The 21 default-style samples and 15 uniform points of the box, as two stacks."""
    box = np.array(spec.box)
    off = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(15, len(box)))
    return (ChartPoint.stack(sample_points(spec, 20)),
            ChartPoint.stack([ChartPoint(c[0], tuple(c[1:])) for c in off]))


@pytest.mark.parametrize("name", PLANE_WAVES + ["aimed"])
def test_on_a_plane_wave_chart_the_00_a_block_is_A_twice_du(name, aimed_metric):
    # H = A_ab(u) x^a x^b with W = 0 and a u-independent leaf: the 00_a block of
    # nabla nabla R is A'' bit for bit, so the verdict already decides whether A
    # is affine in u, on and off the samples.
    spec = load_metric_file(aimed_metric if name == "aimed" else str(METRICS / f"{name}.metric"))
    for p in _stacks(spec):
        cc = curvature_at(spec, p, depth=2)
        assert np.array_equal(cc.blocks["00_a"], cc.A.du().du().value())
        if name in ("cw4_order3", "aimed"):
            assert np.abs(cc.blocks["00_a"]).max() > 0.1


def test_off_a_plane_wave_chart_A_twice_du_is_no_affine_test():
    # scrambled_cw4 is proper 2nd-symmetric, so 00_a vanishes; its chart A(u)
    # is not affine, so A'' does not
    spec = fixture("scrambled_cw4")
    for p in _stacks(spec):
        cc = curvature_at(spec, p, depth=2)
        assert np.abs(cc.blocks["00_a"]).max() < 1e-12
        assert np.abs(cc.A.du().du().value()).reshape(len(p.u), -1).max(axis=1).min() > 0.5


def test_ricci_identity_property():
    spec = random_polynomial_spec(11, n=5, amplitude=0.08)
    p = ChartPoint(0.21, (0.3, -0.25, 0.15))
    cc = curvature_at(spec, p, depth=1)
    m, nv, order = spec.m, spec.num_vars, 5
    rng = np.random.default_rng(2)
    env = {"u": jets.seed(0, p.u, nv, order)}
    for k in range(m):
        env[f"x{k + 2}"] = jets.seed(1 + k, p.x[k], nv, order)
    names = ["u"] + [f"x{i + 2}" for i in range(m)]

    def rand_component():
        text = " + ".join(f"{rng.normal():.4f}*{a}*{b}" for a in names for b in names)
        return expr.eval_jet(expr.parse(text, spec.n), env, nv, order)

    F = Jet(jets.context(nv, order),
            np.stack([np.stack([rand_component().data for _ in range(m)]) for _ in range(m)]))
    g2 = leaf_grad(leaf_grad(F, 1, cc.gamma), 1, cc.gamma).value()
    comm = np.einsum("ijsn->ijns", g2) - g2.transpose(0, 1, 2, 3)
    Fv = F.value()
    Rb = cc.blocks["Rbar"]
    rhs = np.einsum("irns,rj->ijns", Rb, Fv) - np.einsum("rjns,ir->ijns", Rb, Fv)
    assert np.max(np.abs(comm - rhs)) < 1e-8


def test_d0_grad_commutator_property():
    spec = random_polynomial_spec(13, n=4, amplitude=0.1)
    p = ChartPoint(-0.15, (0.2, 0.35))
    cc = curvature_at(spec, p, depth=1)
    m, nv, order = spec.m, spec.num_vars, 5
    rng = np.random.default_rng(5)
    env = {"u": jets.seed(0, p.u, nv, order)}
    for k in range(m):
        env[f"x{k + 2}"] = jets.seed(1 + k, p.x[k], nv, order)
    names = ["u"] + [f"x{i + 2}" for i in range(m)]

    def rand_component():
        text = " + ".join(f"{rng.normal():.4f}*{a}*{b}" for a in names for b in names)
        return expr.eval_jet(expr.parse(text, spec.n), env, nv, order)

    F = Jet(jets.context(nv, order),
            np.stack([np.stack([rand_component().data for _ in range(m)]) for _ in range(m)]))
    lhs = (leaf_grad(d0_op(F, 1, cc.tup), 1, cc.gamma).value()
           - d0_op(leaf_grad(F, 1, cc.gamma), 1, cc.tup).value())
    Fv = F.value()
    Bup = np.einsum("rs,kjs->kjr", cc.cj.ginv0, cc.blocks["B"])
    gradF = leaf_grad(F, 1, cc.gamma).value()
    rhs = (np.einsum("ir,kjr->ijk", Fv, Bup) - np.einsum("rj,kri->ijk", Fv, Bup)
           - np.einsum("rk,ijr->ijk", cc.tup.value(), gradF))
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("depth, order", [(0, 1), (1, 3), (2, 3)])
def test_order_too_small_raises(depth, order):
    with pytest.raises(ValueError, match=f"jet order {order} too small for depth {depth}"):
        curvature_at(fixture("flat"), ChartPoint(0.0, (0.0, 0.0)), order=order, depth=depth)


def test_two_dimensional_chart_is_trivially_flat():
    spec = make_cw(CwParams(2, ()))
    cc = curvature_at(spec, ChartPoint(0.4, ()), depth=2)
    assert [_depth_norm([cc.blocks], d) for d in range(3)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_default_order_matches_order_5(name, depth):
    # Depths 1 and 2 need jets of order 4; a fifth order must not change any
    # block, nor the values behind the A_tilde report.
    spec = fixture(name)
    p = spec.center()
    low, high = curvature_at(spec, p, depth=depth), curvature_at(spec, p, order=5, depth=depth)
    assert low.cj.order == 4
    assert list(low.blocks) == list(high.blocks)
    values = {**low.blocks, "Atil_grad": low.Atil_grad, "Atil_d0": low.Atil_d0}
    for key, val in values.items():
        ref = np.asarray(high.blocks[key] if key in high.blocks else getattr(high, key))
        assert np.all(np.abs(np.asarray(val) - ref) <= 1e-13 * (1.0 + np.abs(ref))), key
