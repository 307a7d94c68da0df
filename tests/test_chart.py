import numpy as np
import pytest

from brinkmann import expr, jets
from brinkmann.chart import (ChartPoint, MetricDefinitenessError, MetricSpec,
                             christoffel_bar, compute_h_t, eval_metric, frame_components,
                             jet_matrix_inverse)
from brinkmann.chart import metric_coefficients
from brinkmann.jets import jet_einsum
from brinkmann.spaces import fixture, random_polynomial_spec


def test_eval_metric_flat():
    spec = MetricSpec.from_text(4)
    cj = eval_metric(spec, ChartPoint(0.3, (0.1, -0.2)), 3)
    assert np.allclose(cj.ginv0, np.eye(2))
    assert cj.H.value() == 0.0


def test_eval_metric_cw_gradient():
    spec = fixture("cw4_r2")  # H = (u x2^2) + x3^2 pattern: P(u) = diag(u, 1)
    p = ChartPoint(0.5, (0.4, -0.3))
    cj = eval_metric(spec, p, 3)
    P = np.diag([p.u, 1.0])
    grad = np.array([cj.H.partial((0, 1, 0)), cj.H.partial((0, 0, 1))])
    assert np.allclose(grad, 2.0 * P @ np.array(p.x))


def test_eval_metric_rejects_negative_definite():
    spec = MetricSpec.from_text(4, g={(2, 2): "-1"})
    with pytest.raises(MetricDefinitenessError):
        eval_metric(spec, ChartPoint(0.0, (0.0, 0.0)), 2)


def test_eval_metric_rejects_degenerate():
    spec = MetricSpec.from_text(4, g={(2, 2): "x2"})
    with pytest.raises(MetricDefinitenessError):
        eval_metric(spec, ChartPoint(0.0, (0.0, 0.1)), 2)


def test_point_dimension_checked():
    with pytest.raises(ValueError):
        eval_metric(MetricSpec.from_text(4), ChartPoint(0.0, (0.0,)), 2)
    with pytest.raises(ValueError):
        ChartPoint(float("nan"), (0.0,))


def test_jet_matrix_inverse():
    spec = random_polynomial_spec(5, n=5)
    cj = eval_metric(spec, ChartPoint(0.2, (0.1, 0.3, -0.2)), 4)
    ident = jet_einsum("ij,jk->ik", cj.g, cj.ginv)
    expect = np.zeros_like(ident.data)
    expect[np.arange(3), np.arange(3), 0] = 1.0
    assert np.max(np.abs(ident.data - expect)) < 1e-12


# -- h and t ----------------------------------------------------------------------


def test_h_t_quadratic_H():
    spec = MetricSpec.from_text(4, H="x2^2")
    cj = eval_metric(spec, ChartPoint(0.0, (1.0, 0.0)), 3)
    h, t = compute_h_t(cj)
    assert np.allclose(h.value(), [2.0, 0.0])
    assert np.max(np.abs(t.value())) == 0.0


def test_h_t_rotation_W():
    spec = fixture("rotation_w")  # W2 = x3, W3 = -x2
    cj = eval_metric(spec, ChartPoint(0.2, (0.5, -0.1)), 3)
    h, t = compute_h_t(cj)
    assert np.max(np.abs(h.value())) == 0.0
    assert np.allclose(t.value(), [[0.0, 1.0], [-1.0, 0.0]])


def test_h_t_cw():
    spec = fixture("cw4_r2")
    p = ChartPoint(0.7, (0.3, 0.6))
    cj = eval_metric(spec, p, 3)
    h, t = compute_h_t(cj)
    assert np.allclose(h.value(), 2.0 * np.diag([p.u, 1.0]) @ np.array(p.x))
    assert np.max(np.abs(t.value())) == 0.0


def test_t_split_exact_as_jets():
    # symmetric part of t is -gdot/2 and skew part -(dW)/2, coefficientwise
    spec = random_polynomial_spec(9, n=4)
    cj = eval_metric(spec, ChartPoint(0.15, (0.2, -0.35)), 4)
    _, t = compute_h_t(cj)
    sym = 0.5 * (t.data + np.swapaxes(t.data, 0, 1))
    skew = 0.5 * (t.data - np.swapaxes(t.data, 0, 1))
    gdot = cj.g.du()
    scale = 1e-16 * (1.0 + np.max(np.abs(gdot.data)))
    assert np.max(np.abs(sym + 0.5 * gdot.data)) < scale
    m = cj.m
    dW = np.stack([np.stack([cj.W[i].diff(1 + j).data for j in range(m)]) for i in range(m)])
    skew_expect = 0.5 * (dW - np.swapaxes(dW, 0, 1))
    assert np.max(np.abs(skew - skew_expect)) < scale


# -- leaf Christoffel symbols --------------------------------------------------------


def test_christoffel_flat_and_u_conformal():
    spec = MetricSpec.from_text(4)
    cj = eval_metric(spec, ChartPoint(0.0, (0.0, 0.0)), 4)
    assert np.max(np.abs(christoffel_bar(cj).value())) == 0.0

    conf = MetricSpec.from_text(4, g={(2, 2): "exp(2*u)"})
    cj = eval_metric(conf, ChartPoint(0.4, (0.0, 0.0)), 4)
    gam = christoffel_bar(cj)
    assert np.max(np.abs(gam.value())) == 0.0
    assert np.max(np.abs(gam.du().value())) == 0.0
    assert cj.g.du().value()[0, 0] == pytest.approx(2.0 * np.exp(0.8))


def test_christoffel_sphere_hand_values():
    spec = MetricSpec.from_text(4, g={(2, 2): "1", (3, 3): "sin(x2)^2"},
                                box=[(-1, 1), (0.3, 2.8), (-1, 1)])
    th = 1.1
    cj = eval_metric(spec, ChartPoint(0.0, (th, 0.5)), 4)
    gam = christoffel_bar(cj).value()
    assert gam[1, 0, 1] == pytest.approx(np.cos(th) / np.sin(th), rel=1e-12)
    assert gam[1, 1, 0] == pytest.approx(np.cos(th) / np.sin(th), rel=1e-12)
    assert gam[0, 1, 1] == pytest.approx(-np.sin(th) * np.cos(th), rel=1e-12)


def test_christoffel_symmetry_and_metric_compatibility():
    spec = random_polynomial_spec(4, n=5)
    cj = eval_metric(spec, ChartPoint(0.25, (0.3, -0.1, 0.45)), 4)
    gam = christoffel_bar(cj)
    assert np.max(np.abs(gam.data - np.swapaxes(gam.data, 1, 2))) < 1e-13
    # grad g = dg - Gamma g - Gamma g = 0
    m = cj.m
    dg = np.stack([cj.g.diff(1 + k).value() for k in range(m)], axis=-1)
    gv = cj.g.value()
    gamv = gam.value()
    nabla_g = dg - np.einsum("rik,rj->ijk", gamv, gv) - np.einsum("rjk,ir->ijk", gamv, gv)
    assert np.max(np.abs(nabla_g)) < 1e-11


# -- frame -----------------------------------------------------------------------------


def test_frame_special_cases():
    cj = eval_metric(MetricSpec.from_text(4), ChartPoint(0.0, (0.0, 0.0)), 2)
    fr = frame_components(cj)
    assert np.allclose(fr.e[0], [1, 0, 0, 0])
    assert np.allclose(fr.e[2], [0, 0, 1, 0])
    cj = eval_metric(MetricSpec.from_text(4, H="1"), ChartPoint(0.0, (0.0, 0.0)), 2)
    fr = frame_components(cj)
    assert np.allclose(fr.e[0], [1, -1, 0, 0])


def test_frame_inner_products_random_spec():
    from brinkmann.oracle import assemble_coordinate_metric

    spec = random_polynomial_spec(12, n=5)
    p = ChartPoint(0.3, (0.25, -0.4, 0.1))
    cm = assemble_coordinate_metric(spec, p, 1)
    G = cm.G.value()
    fr = cm.frame
    table = fr.e @ G @ fr.e.T
    assert np.max(np.abs(table - fr.frame_metric())) < 1e-12
    # duality between frame and coframe
    assert np.max(np.abs(fr.theta @ fr.e.T - np.eye(spec.n))) < 1e-12


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec(4, expr.parse("0", 4), (expr.parse("0", 4),) * 2,
                   ((expr.parse("1", 4), expr.parse("u", 4)),
                    (expr.parse("0", 4), expr.parse("1", 4))))  # asymmetric g
    with pytest.raises(ValueError):
        MetricSpec.from_text(4, box=[(-1, 1)])  # wrong box length


def test_eval_metric_runs_the_tape_through_the_public_jet_operations(monkeypatch):
    # Wrappers installed after the tape is built, on the Jet operators, on the
    # jets.<func> module attributes and on expr.eval_jet, see every instruction.
    spec = MetricSpec.from_text(4, H="sin(u) * x2^2 + exp(x3) / 2.0",
                                W={2: "cos(u) * x3"}, g={(3, 3): "sqrt(2 + x2)"})
    points = [ChartPoint(0.1 * k, (0.2, -0.1 * k)) for k in range(3)]
    eval_metric(spec, points[0], 2)
    calls = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(expr, "eval_jet")
    for name in ("__mul__", "__truediv__", "reciprocal"):
        counted(jets.Jet, name)
    for name in ("sin", "cos", "exp", "sqrt", "pow_int"):
        counted(jets, name)
    for p in points:
        eval_metric(spec, p, 2)
    assert calls["eval_jet"] == len(points)
    for name in ("__mul__", "__truediv__", "reciprocal", "sin", "cos", "exp", "sqrt",
                 "pow_int"):
        assert calls.get(name, 0) >= len(points), name


@pytest.mark.parametrize("field, H, W, g", [
    ("H", "1/x2", None, None),
    ("W_3", "0", {3: "u + sqrt(x2)"}, None),
    ("g_23", "0", None, {(2, 2): "2", (3, 2): "0.1 / x3", (3, 3): "2 + 1 / x3"}),
])
def test_eval_metric_pole_names_field_and_point(field, H, W, g):
    spec = MetricSpec.from_text(4, H=H, W=W, g=g)
    with pytest.raises(jets.JetDomainError) as info:
        eval_metric(spec, ChartPoint(0.5, (0.0, 0.0)), 1)
    message = str(info.value)
    assert message.endswith(f" in {field} at (0.5, 0.0, 0.0)")
    assert "jet with" in message


def test_non_finite_leaf_metric_is_named_at_every_order():
    # exp(800) overflows; Cholesky does not raise on inf or NaN, so finiteness is tested first
    spec = MetricSpec.from_text(4, g={(2, 3): "exp(800*u)"})
    p = ChartPoint(1.0, (0.1, 0.2))
    message = r"^non-finite g_23 at \(1\.0, 0\.1, 0\.2\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        for order in (0, 1, 2):
            with pytest.raises(MetricDefinitenessError, match=message):
                eval_metric(spec, p, order)
        with pytest.raises(MetricDefinitenessError, match=message):
            metric_coefficients(spec, p)
