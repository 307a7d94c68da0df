import numpy as np
import pytest

from brinkmann import expr
from brinkmann.chart import ChartPoint, eval_metric
from brinkmann.classify import _depth_norm, gbar_eigh, sample_points
from brinkmann.curvature import curvature_at
from brinkmann.spaces import (ChartChange, CwParams, apply_chart_change, fixture, make_cw,
                              make_product, random_affine_change, random_polynomial_spec,
                              rotation_chart_change, differentiate, simplify, substitute)


def test_cw_params_validation():
    with pytest.raises(ValueError):
        CwParams(4, (np.array([[1.0, 2.0], [0.0, 1.0]]),))  # not symmetric
    with pytest.raises(ValueError):
        CwParams(4, (np.zeros((3, 3)),))                    # wrong size
    p = CwParams(4, (np.zeros((2, 2)), np.diag([1.0, 0.0])))
    assert p.is_proper() and p.order == 2
    assert not CwParams(4, (np.zeros((2, 2)),)).is_proper()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cw_params_refuse_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^coefficient matrices must be finite$"):
        CwParams(4, (np.array([[1.0, bad], [bad, 1.0]]),))


def test_make_cw_expressions():
    spec = make_cw(CwParams(4, (np.array([[1.0, 2.0], [2.0, -1.0]]),)))
    val = expr.eval_scalar(spec.H, {"u": 0.7, "x2": 0.3, "x3": -0.5})
    x = np.array([0.3, -0.5])
    P = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert val == pytest.approx(x @ P @ x)


def test_make_cw_d2_forces_H_zero():
    spec = make_cw(CwParams(2, ()))
    assert spec.n == 2 and spec.m == 0
    assert expr.to_text(spec.H) == "0.0"


def test_make_product_sphere():
    spec = make_product(fixture("cw4_r2"), "sphere", radius=1.0)
    assert spec.n == 6
    assert expr.to_text(spec.g[2][2]) == "1.0"
    assert expr.to_text(spec.g[3][3]) == "sin(x4)^2"
    assert spec.box[3] == (0.3, 2.8)


@pytest.mark.parametrize("block", ["sphere", "hyperbolic", "euclidean"])
@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_make_product_refuses_a_bad_radius(block, radius):
    with pytest.raises(ValueError, match="^radius must be finite and positive, got "):
        make_product(fixture("cw4_r2"), block, radius=radius)


def test_make_product_euclidean_still_flat():
    spec = make_product(fixture("flat"), "euclidean", k=2)
    cc = curvature_at(spec, ChartPoint(0.2, (0.1, 0.2, 0.3, 0.4)), depth=2)
    assert [_depth_norm([cc.blocks], d) for d in range(3)] == [0.0, 0.0, 0.0]


def test_make_product_hyperbolic_locally_symmetric():
    spec = fixture("cw4_r1_x_hyperbolic")
    for p in sample_points(spec)[:3]:
        cc = curvature_at(spec, p, depth=1)
        assert _depth_norm([cc.blocks], 1) < 1e-9


# -- AST utilities ------------------------------------------------------------------


def test_simplify_and_substitute():
    ast = expr.parse("0*x2 + 1*u + (2+3)", 4)
    assert expr.to_text(simplify(ast)) == "u + 5.0"
    out = substitute(expr.parse("u*x2", 4), {"x2": expr.parse("x3 + 1", 4)})
    assert expr.eval_scalar(out, {"u": 2.0, "x3": 0.5}) == 3.0


def test_differentiate():
    d = differentiate(expr.parse("sin(u^2)", 4), "u")
    val = expr.eval_scalar(simplify(d), {"u": 0.4})
    assert val == pytest.approx(2 * 0.4 * np.cos(0.16))
    d2 = differentiate(expr.parse("x2/u", 4), "u")
    assert expr.eval_scalar(d2, {"u": 2.0, "x2": 3.0}) == pytest.approx(-0.75)
    d3 = differentiate(expr.parse("sqrt(u)", 4), "u")
    assert expr.eval_scalar(d3, {"u": 4.0}) == pytest.approx(0.25)


# -- chart changes ------------------------------------------------------------------


def _eval_spec(spec, u, x):
    env = {"u": u}
    env.update({f"x{i + 2}": x[i] for i in range(spec.m)})
    H = expr.eval_scalar(spec.H, env)
    W = [expr.eval_scalar(w, env) for w in spec.W]
    g = [[expr.eval_scalar(spec.g[i][j], env) for j in range(spec.m)]
         for i in range(spec.m)]
    return H, np.array(W), np.array(g)


def test_identity_change_preserves_evaluations():
    spec = fixture("cw4_r2")
    ident = ChartChange(F=expr.Num(0.0),
                        x_maps=(expr.Var("x2"), expr.Var("x3")))
    out = apply_chart_change(spec, ident)
    for u, x in [(0.3, (0.2, -0.4)), (-0.5, (0.7, 0.1))]:
        a = _eval_spec(spec, u, x)
        b = _eval_spec(out, u, x)
        assert a[0] == pytest.approx(b[0])
        assert np.allclose(a[1], b[1]) and np.allclose(a[2], b[2])


def test_v_shift_only_moves_H_by_Fdot():
    spec = fixture("cw4_r1")
    change = ChartChange(F=expr.parse("u^2", 4),
                         x_maps=(expr.Var("x2"), expr.Var("x3")))
    out = apply_chart_change(spec, change)
    for u, x in [(0.25, (0.3, 0.1)), (-0.4, (0.2, 0.6))]:
        H0, W0, g0 = _eval_spec(spec, u, x)
        H1, W1, g1 = _eval_spec(out, u, x)
        assert H1 == pytest.approx(H0 + 2.0 * u)
        assert np.allclose(W0, W1) and np.allclose(g0, g1)


def test_u_shift():
    spec = fixture("cw4_r2")
    change = ChartChange(F=expr.Num(0.0),
                         x_maps=(expr.Var("x2"), expr.Var("x3")), u_shift=0.3)
    out = apply_chart_change(spec, change)
    H1, _, _ = _eval_spec(out, 0.5, (1.0, 0.0))
    H0, _, _ = _eval_spec(spec, 0.2, (1.0, 0.0))
    assert H1 == pytest.approx(H0)


def test_rotation_change_preserves_invariants():
    spec = fixture("cw4_r2")
    change = rotation_chart_change(spec, (0, 1), omega=0.4)
    scrambled = apply_chart_change(spec, change, box=((-0.7, 0.7),) * 3)
    for u in (0.0, 0.3, -0.5):
        x = (0.2, -0.3)
        xp = [expr.eval_scalar(mp, {"u": u, "x2": x[0], "x3": x[1]})
              for mp in change.x_maps]
        a = curvature_at(scrambled, ChartPoint(u, x), depth=1)
        b = curvature_at(spec, ChartPoint(u, tuple(xp)), depth=1)
        assert a.blocks["S"] == pytest.approx(b.blocks["S"], abs=1e-10)
        ga = a.cj.g.value()
        gb = b.cj.g.value()
        ea = np.sort(gbar_eigh(a.blocks["Atil"], ga)[0])
        eb = np.sort(gbar_eigh(b.blocks["Atil"], gb)[0])
        assert np.max(np.abs(ea - eb)) < 1e-8


def test_singular_jacobian_rejected():
    spec = fixture("cw4_r1")
    bad = ChartChange(F=expr.Num(0.0),
                      x_maps=(expr.Var("x2"), expr.Var("x2")))
    with pytest.raises(ValueError, match="Jacobian"):
        apply_chart_change(spec, bad)


def test_random_affine_change_roundtrip_verdict_inputs():
    rng = np.random.default_rng(0)
    spec = fixture("cw4_r2")
    for _ in range(3):
        change = random_affine_change(spec, rng)
        out = apply_chart_change(spec, change)
        # the transformed chart still parses, evaluates and has PD leaf metric
        eval_metric(out, out.center(), 2)


def test_random_polynomial_spec_positive_definite():
    for seed in range(1, 6):
        spec = random_polynomial_spec(seed, n=5)
        for p in sample_points(spec)[:4]:
            eval_metric(spec, p, 2)


def test_scrambled_fixture_matches_base_geometry():
    base = fixture("cw4_r2")
    scr = fixture("scrambled_cw4")
    # scalar invariant S is zero for every plane wave
    cc = curvature_at(scr, ChartPoint(0.2, (0.1, -0.2)), depth=1)
    assert abs(cc.blocks["S"]) < 1e-12
    assert _depth_norm([cc.blocks], 0) > 0.1
    assert base.n == scr.n
