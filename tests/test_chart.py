import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brinkmann import chart, expr, jets
from brinkmann.chart import (ChartPoint, MetricDefinitenessError, MetricSpec,
                             christoffel_bar, compute_h_t, eval_metric, frame_components,
                             jet_matrix_inverse)
from brinkmann.chart import metric_coefficients
from brinkmann.jets import jet_einsum
from brinkmann.metricfile import load_metric_file
from brinkmann.spaces import fixture, random_polynomial_spec
from brinkmann.transport import metric_values


def test_eval_metric_flat():
    spec = MetricSpec.from_text(4)
    cj = eval_metric(spec, ChartPoint(0.3, (0.1, -0.2)), 3)
    assert np.allclose(cj.ginv0, np.eye(2))
    assert cj.H.value() == 0.0


def test_eval_metric_cw_gradient():
    spec = fixture("cw4_r2")  # H = (u x2^2) + x3^2 pattern: P(u) = diag(u, 1)
    p = ChartPoint(0.5, (0.4, -0.3))
    cj = eval_metric(spec, p, 3)
    u, *x = p.at(0)
    P = np.diag([u, 1.0])
    grad = np.array([cj.H[0].partial((0, 1, 0)), cj.H[0].partial((0, 0, 1))])
    assert np.allclose(grad, 2.0 * P @ np.array(x))


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
    ident = jet_einsum("Nij,Njk->Nik", cj.g, cj.ginv)
    expect = np.zeros_like(ident.data)
    expect[:, np.arange(3), np.arange(3), 0] = 1.0
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
    u, *x = p.at(0)
    assert np.allclose(h.value()[0], 2.0 * np.diag([u, 1.0]) @ np.array(x))
    assert np.max(np.abs(t.value())) == 0.0


def test_t_split_exact_as_jets():
    # symmetric part of t is -gdot/2 and skew part -(dW)/2, coefficientwise
    spec = random_polynomial_spec(9, n=4)
    cj = eval_metric(spec, ChartPoint(0.15, (0.2, -0.35)), 4)
    t = compute_h_t(cj)[1][0]
    sym = 0.5 * (t.data + np.swapaxes(t.data, 0, 1))
    skew = 0.5 * (t.data - np.swapaxes(t.data, 0, 1))
    gdot = cj.g[0].du()
    scale = 1e-16 * (1.0 + np.max(np.abs(gdot.data)))
    assert np.max(np.abs(sym + 0.5 * gdot.data)) < scale
    m = cj.m
    dW = np.stack([np.stack([cj.W[0, i].diff(1 + j).data for j in range(m)]) for i in range(m)])
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
    assert cj.g.du().value()[0, 0, 0] == pytest.approx(2.0 * np.exp(0.8))


def test_christoffel_sphere_hand_values():
    spec = MetricSpec.from_text(4, g={(2, 2): "1", (3, 3): "sin(x2)^2"},
                                box=[(-1, 1), (0.3, 2.8), (-1, 1)])
    th = 1.1
    cj = eval_metric(spec, ChartPoint(0.0, (th, 0.5)), 4)
    gam = christoffel_bar(cj).value()[0]
    assert gam[1, 0, 1] == pytest.approx(np.cos(th) / np.sin(th), rel=1e-12)
    assert gam[1, 1, 0] == pytest.approx(np.cos(th) / np.sin(th), rel=1e-12)
    assert gam[0, 1, 1] == pytest.approx(-np.sin(th) * np.cos(th), rel=1e-12)


def test_christoffel_symmetry_and_metric_compatibility():
    spec = random_polynomial_spec(4, n=5)
    cj = eval_metric(spec, ChartPoint(0.25, (0.3, -0.1, 0.45)), 4)
    gam = christoffel_bar(cj)[0]
    assert np.max(np.abs(gam.data - np.swapaxes(gam.data, 1, 2))) < 1e-13
    # grad g = dg - Gamma g - Gamma g = 0
    m = cj.m
    dg = np.stack([cj.g[0].diff(1 + k).value() for k in range(m)], axis=-1)
    gv = cj.g[0].value()
    gamv = gam.value()
    nabla_g = dg - np.einsum("rik,rj->ijk", gamv, gv) - np.einsum("rjk,ir->ijk", gamv, gv)
    assert np.max(np.abs(nabla_g)) < 1e-11


# -- frame -----------------------------------------------------------------------------


def test_frame_special_cases():
    cj = eval_metric(MetricSpec.from_text(4), ChartPoint(0.0, (0.0, 0.0)), 2)
    fr = frame_components(cj)
    assert np.allclose(fr.e[0, 0], [1, 0, 0, 0])
    assert np.allclose(fr.e[0, 2], [0, 0, 1, 0])
    cj = eval_metric(MetricSpec.from_text(4, H="1"), ChartPoint(0.0, (0.0, 0.0)), 2)
    fr = frame_components(cj)
    assert np.allclose(fr.e[0, 0], [1, -1, 0, 0])


def test_frame_inner_products_random_spec():
    from brinkmann.oracle import assemble_coordinate_metric

    spec = random_polynomial_spec(12, n=5)
    p = ChartPoint(0.3, (0.25, -0.4, 0.1))
    cm = assemble_coordinate_metric(spec, p, 1)
    G = cm.G.value()
    fr = cm.frame
    eT = np.swapaxes(fr.e, 1, 2)
    table = fr.e @ G @ eT
    # g(E_0, E_1) = -1, g(E_i, E_j) = g_ij, and every other pair is orthogonal
    expected = np.zeros_like(table)
    expected[:, 0, 1] = expected[:, 1, 0] = -1.0
    expected[:, 2:, 2:] = fr.g_leaf
    assert np.max(np.abs(table - expected)) < 1e-12
    # duality between frame and coframe
    assert np.max(np.abs(fr.theta @ eT - np.eye(spec.n))) < 1e-12


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
            metric_coefficients(spec, p.at(0))


# -- the leaf gate at one point and on a stack ------------------------------------------


def _leaf_matrix(kind, m, seed, sign, bad):
    """A symmetric m x m leaf metric of the given kind, exactly symmetric."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m))
    if kind == "indefinite":
        g = A + A.T
    elif kind == "pivot":
        # g = L D L^T, its last pivot 1e-10 (1 + sign 1e-6) times the largest; L is
        # near I, so the factorization recovers D far more closely than 1e-6
        L = np.eye(m) + 0.1 * np.tril(A, -1)
        d = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        if m > 1:
            d[-1] = d[:-1].max() * 1e-10 * (1.0 + sign * 1e-6)
        g = L @ np.diag(d) @ L.T
        g = 0.5 * (g + g.T)
    else:
        g = A @ A.T + 0.1 * np.eye(m)
        g = 0.5 * (g + g.T)
    if kind == "non-finite" and m:
        i, j = rng.integers(m, size=2)
        g[i, j] = g[j, i] = bad
    return g


def _gate_outcome(check):
    try:
        check()
    except ValueError as err:
        return type(err), str(err)
    return None


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["spd", "pivot", "indefinite", "non-finite"]), st.integers(0, 4),
       st.integers(0, 2**32 - 1), st.sampled_from([-1.0, 0.0, 1.0]),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_the_one_point_gate_decides_as_the_stacked_gate(kind, m, seed, sign, bad):
    # the same error class and message, or both pass: on the matrix itself, and
    # through eval_metric on a stack (first_failing_node) against metric_coefficients
    g = _leaf_matrix(kind, m, seed, sign, bad)
    where = (0.1,) + (0.3,) * m
    one = _gate_outcome(lambda: chart._check_leaf_metric(g, where))
    assert one == _gate_outcome(lambda: chart._check_leaf_metric(g[None], where))
    assert one == _gate_outcome(lambda: chart._check_leaf_metric(np.stack([np.eye(m), g]),
                                                                 where))
    nums = [[expr.Num(float(g[i, j])) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            nums[i][j] = nums[j][i]
    spec = MetricSpec(m + 2, expr.Num(0.0), (expr.Num(0.0),) * m, tuple(map(tuple, nums)))
    stack = ChartPoint(np.array([0.1, 0.2]), (np.full(2, 0.3),) * m)
    assert _gate_outcome(lambda: metric_coefficients(spec, where)) == one
    # twice in a row right after a passing call, on g itself and on another matrix:
    # the gate's memo of the last g that passed changes no outcome
    for before in ([g] if one is None else []) + [2.0 * np.eye(m)]:
        chart._check_leaf_metric(before, where)
        assert _gate_outcome(lambda: metric_coefficients(spec, where)) == one
        assert _gate_outcome(lambda: metric_coefficients(spec, where)) == one
    assert _gate_outcome(lambda: eval_metric(spec, stack, 0)) == one
    if kind == "pivot" and m > 1 and sign:
        assert (one is None) == (sign > 0)


# -- the raw LAPACK kernels ------------------------------------------------------------


METRICS = pathlib.Path(__file__).resolve().parent.parent / "metrics"


def test_the_raw_kernels_give_the_bits_of_numpy_linalg():
    # G and g of every bundled metric at random box points, one point and stacked
    rng = np.random.default_rng(37)
    specs = [load_metric_file(str(path)) for path in sorted(METRICS.glob("*.metric"))]
    assert len(specs) == 11
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in specs:
            lo, hi = np.array(spec.box).T
            points = lo + (hi - lo) * rng.uniform(size=(6, spec.num_vars))
            Gs = np.array([metric_values(spec, np.array([p[0], 0.0, *p[1:]])) for p in points])
            for a, kernel, reference in ((Gs, chart.inv, np.linalg.inv),
                                         (Gs[:, 2:, 2:], chart.cholesky_lo, np.linalg.cholesky)):
                if a.shape[-1] == 0:
                    continue
                for stack in (a[0], a[:3], a):
                    assert kernel(stack, signature="d->d").tobytes() == reference(stack).tobytes()


@pytest.mark.parametrize("g, message", [
    ([[1.0, 2.0], [2.0, 1.0]], "leaf metric not positive definite"),
    ([[-1.0, 0.0], [0.0, 1.0]], "leaf metric not positive definite"),
    ([[1.0, 0.0], [0.0, 1e-12]], "leaf metric nearly degenerate"),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-12]], "leaf metric nearly degenerate"),
    ([[1.0, np.inf], [np.inf, 1.0]], "non-finite g_23"),
    ([[1.0, 0.0], [0.0, np.nan]], "non-finite g_33"),
])
def test_the_gates_refuse_a_bad_leaf_metric_with_one_message(g, message, monkeypatch):
    # at one point, on a stack (whose first node passes) and through the public
    # calls of each, with no RuntimeWarning although the kernel fails on the first
    # two, and the memo of the last g that passed is cleared so every case factors
    g = np.array(g)
    where = (0.1, 0.2, 0.3)
    expected = f"{message} at {where}"
    nums = tuple(tuple(expr.Num(float(x)) for x in row) for row in g)
    spec = MetricSpec(4, expr.Num(0.0), (expr.Num(0.0),) * 2, nums)
    stack = ChartPoint(np.array([0.1, 0.1]), (np.array([0.2, 0.2]), np.array([0.3, 0.3])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (lambda: chart._check_leaf_metric(g, where),
                      lambda: chart._check_leaf_metric(np.stack([np.eye(2), g]), where),
                      lambda: metric_coefficients(spec, where),
                      lambda: eval_metric(spec, stack, 1)):
            monkeypatch.setattr(chart, "_passed_leaf_metric", None)
            with pytest.raises(MetricDefinitenessError) as info:
                check()
            assert str(info.value) == expected
