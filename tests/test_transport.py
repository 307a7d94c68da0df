import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from conftest import boxed

from brinkmann import chart, jets, transport
from brinkmann.cli import main
from brinkmann.chart import ChartPoint, MetricDefinitenessError, MetricSpec, eval_metric
from brinkmann.jets import JetDomainError
from brinkmann.metricfile import load_metric_file
from brinkmann.ode import rk4_step, step_size
from brinkmann.oracle import _cgrad, _lowered, assemble_coordinate_metric
from brinkmann.spaces import fixture, random_polynomial_spec
from brinkmann.transport import (christoffel_values, d0_transport, geodesic_integrate,
                                 metric_values, null_sectional_growth, null_velocity,
                                 parallel_transport, second_symmetry_transport_check)

ORIGIN4 = [0.0, 0.0, 0.0, 0.0]
METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


def test_flat_geodesics_are_straight():
    spec = boxed(fixture("flat"), [(-1.0, 3.0)] * 3)
    v0 = [0.5, -0.2, 0.3, 0.1]
    traj = geodesic_integrate(spec, ORIGIN4, v0, tau_span=4.0, steps=100)
    expect = np.outer(traj.tau, v0)
    assert np.max(np.abs(traj.coords - expect)) < 1e-12
    assert np.max(np.abs(traj.velocity - np.array(v0))) < 1e-12


def test_null_velocity_is_null():
    spec = fixture("scrambled_cw4")
    v = null_velocity(spec, (0.2, 0.3, -0.1), leaf_part=[0.4, -0.7])
    coords = np.array([0.2, 0.0, 0.3, -0.1])
    G = metric_values(spec, coords)
    assert abs(v @ G @ v) < 1e-14


@pytest.mark.parametrize("leaf_part, match", [
    ([0.4, -0.7, 0.1], r"^--leaf-part has 3 entries; the leaf dimension m = 2 needs 2$"),
    ([0.4], r"^--leaf-part has 1 entries; the leaf dimension m = 2 needs 2$"),
    ([np.nan, 0.0], r"^--leaf-part \[nan, 0\.0\] has a non-finite entry"),
    ([0.0, -np.inf], r"^--leaf-part \[0\.0, -inf\] has a non-finite entry"),
    ([1e200, 0.0], r"^--leaf-part \[1e\+200, 0\.0\] \(m = 2\) makes the null v-component inf$"),
])
def test_null_velocity_refuses_a_bad_leaf_part(leaf_part, match):
    with np.errstate(all="raise"), pytest.raises(ValueError, match=match):
        null_velocity(fixture("scrambled_cw4"), (0.2, 0.3, -0.1), leaf_part)


def test_start_points_outside_the_box_are_refused():
    spec = fixture("scrambled_cw4")    # box: every coordinate in [-0.8, 0.8]
    for p, message in (((0.9, 0.0, 0.0), "u = 0.9 lies outside the box u in"),
                       ((0.0, 0.0, -0.81), "x3 = -0.81 lies outside the box x3 in")):
        with pytest.raises(ValueError, match=rf"^start point {message} \[-0\.8, 0\.8\]$"):
            null_velocity(spec, p)
        with pytest.raises(ValueError, match=rf"^start point {message}"):
            d0_transport(spec, p, np.eye(2), 0.1, 5)
    edge = (-0.8, 0.8, -0.8)
    assert np.isfinite(null_velocity(spec, edge)).all()
    assert np.isfinite(d0_transport(spec, edge, np.eye(2), 0.1, 5)[1]).all()


def test_cw_central_geodesic_stays_at_origin():
    spec = boxed(fixture("cw4_r2"), [(-1.0, 11.0), (-1.0, 1.0), (-1.0, 1.0)])
    v0 = null_velocity(spec, (0.0, 0.0, 0.0))
    traj = geodesic_integrate(spec, ORIGIN4, v0, tau_span=10.0, steps=500)
    assert np.max(np.abs(traj.coords[:, 2:])) == 0.0
    # conserved quantities over span 10
    en = traj.energy()
    kp = traj.k_pairing()
    assert np.max(np.abs(en - en[0])) < 1e-7
    assert np.max(np.abs(kp - kp[0])) < 1e-7


def test_geodesic_conservation_generic_initial_data():
    spec = boxed(fixture("cw4_r2"), [(-3.0, 1.0), (-1.0, 16.0), (-1.0, 1.0)])
    rng = np.random.default_rng(4)
    v0 = rng.normal(size=4) * 0.3
    traj = geodesic_integrate(spec, [0.0, 0.1, 0.2, -0.1], v0, tau_span=10.0, steps=4000)
    en = traj.energy()
    kp = traj.k_pairing()
    assert np.max(np.abs(en - en[0])) < 1e-7
    assert np.max(np.abs(kp - kp[0])) < 1e-7


def test_geodesic_box_abort(capsys):
    # the leaf part 2 throws x2 past its edge at tau = 0.5125, a stage of the
    # step to node 103; the transport command refuses the run before it prints a row
    code = main(["transport", str(METRICS / "cw4_order2.metric"), "--steps", "200",
                 "--point", "0", "0", "0", "--leaf-part", "2", "0"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: geodesic step 103 stage 2, tau = 0.5125, "
                                "x2 = 1.0021540542674914 lies outside the box x2 in [-1.0, 1.0]"]


def test_geodesic_refuses_the_first_node_outside_its_box(monkeypatch):
    # H has a pole on u = 2, past the box edge u = 1: the null geodesic reaches
    # u = 1 at node 2, and stage 2 of the next step would evaluate u = 1.25
    spec = MetricSpec.from_text(4, H="x2^2 / (u - 2)")
    start, v0 = [0.0, 0.0, 0.5, 0.0], null_velocity(spec, (0.0, 0.5, 0.0))
    real, calls = transport.christoffel_values, []
    monkeypatch.setattr(transport, "christoffel_values",
                        lambda spec, c: calls.append(c) or real(spec, c))
    with pytest.raises(ValueError, match=r"^geodesic step 3 stage 2, tau = 1\.25, u = 1\.25 lies "
                                         r"outside the box u in \[-1\.0, 1\.0\]$"):
        geodesic_integrate(spec, start, v0, 4.0, 8)
    assert len(calls) == 2 * 4 + 1


@pytest.mark.parametrize("steps", [1000, 100000])
def test_box_allowance_is_the_rounding_of_the_steps(steps):
    # cw4_order2's box is [-1, 1] on every coordinate, so the allowance is steps * eps
    spec = load_metric_file(str(METRICS / "cw4_order2.metric"))
    edge = 1.0 + steps * np.finfo(float).eps
    past = float(np.nextafter(edge, 2.0))

    def node(k):
        return f"node {k}"

    for value in (1.0, np.nextafter(1.0, 2.0), edge):
        transport.check_in_box(spec.box, [[0.0, 0.0, 0.0], [0.5, -value, value]], node, steps)
        transport.check_in_box(spec.box, [[value, 0.0, 0.0], [-value, 0.0, 0.0]], node, steps)
    for row, name in (([past, 0.0, 0.0], "u"), ([0.0, -past, 0.0], "x2"),
                      ([0.0, 0.0, past], "x3")):
        with pytest.raises(ValueError, match=rf"^node 1 {name} = -?{re.escape(repr(past))} lies outside "
                                             rf"the box {name} in \[-1\.0, 1\.0\]$"):
            transport.check_in_box(spec.box, [[0.0, 0.0, 0.0], row], node, steps)
    # a start point has no steps behind it: its edges are exact
    with pytest.raises(ValueError, match=r"^start point x3 = "):
        transport.check_in_box(spec.box, [[0.0, 0.0, np.nextafter(1.0, 2.0)]],
                               lambda k: "start point")
    with pytest.raises(ValueError, match=r"^node 0 u = nan lies outside"):
        transport.check_in_box(spec.box, [[np.nan, 0.0, 0.0]], node, steps)


@pytest.mark.parametrize("row", [[0.1], [0.1, 0.0, 0.0, 0.0]], ids=["short", "long"])
def test_a_row_of_the_wrong_length_is_refused_naming_both_counts(row):
    # a short row would broadcast against the box, a long one fail in numpy
    spec = load_metric_file(str(METRICS / "cw4_order2.metric"))
    message = rf"^start point has {len(row)} chart coordinates; the box has 3, u and each x$"
    with pytest.raises(ValueError, match=message):
        transport.check_in_box(spec.box, [row], lambda k: "start point")
    with pytest.raises(ValueError, match=message):
        null_velocity(spec, row)
    with pytest.raises(ValueError, match=message):
        d0_transport(spec, row, np.eye(2), 0.1, 5)


def test_parallel_transport_flat_constant():
    spec = boxed(fixture("flat"), [(-1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)])
    traj = geodesic_integrate(spec, ORIGIN4, [1.0, 0.2, 0.1, -0.3], 2.0, 50)
    moved = parallel_transport(traj, np.eye(4))
    assert np.max(np.abs(moved - np.eye(4))) < 1e-12


def test_parallel_transport_on_a_zero_step_trajectory_returns_its_start():
    vecs = np.random.default_rng(4).normal(size=(3, 4))
    traj = transport.Trajectory(np.zeros(1), np.zeros((1, 4)), np.ones((1, 4)),
                                np.empty((0, 4, 4, 4)))
    moved = parallel_transport(traj, vecs)
    assert moved.shape == (1, 3, 4)
    assert moved[0].tobytes() == vecs.tobytes()


def test_parallel_transport_K_constant():
    spec = boxed(fixture("scrambled_cw4"), [(-0.8, 2.5), (-4.0, 0.8), (-0.8, 2.5)])
    v0 = null_velocity(spec, (0.0, 0.1, 0.2), leaf_part=[0.2, 0.1])
    traj = geodesic_integrate(spec, [0.0, 0.0, 0.1, 0.2], v0, 2.0, 200)
    K = np.array([0.0, -1.0, 0.0, 0.0])
    moved = parallel_transport(traj, K[None, :])
    assert np.max(np.abs(moved - K)) < 1e-10


def test_parallel_transport_isometry():
    spec = boxed(fixture("cw4_r2"), [(-3.0, 1.0), (-27.0, 1.0), (-1.0, 1.0)])
    rng = np.random.default_rng(9)
    traj = geodesic_integrate(spec, [0.0, 0.0, 0.1, -0.2], rng.normal(size=4) * 0.3,
                              10.0, 4000)
    vecs = rng.normal(size=(3, 4))
    moved = parallel_transport(traj, vecs)
    G0 = metric_values(spec, traj.coords[0])
    ips0 = moved[0] @ G0 @ moved[0].T
    for k in (1000, 2000, 4000):
        G = metric_values(spec, traj.coords[k])
        ips = moved[k] @ G @ moved[k].T
        assert np.max(np.abs(ips - ips0)) < 1e-7


def test_d0_transport_constant_when_t_zero():
    spec = boxed(fixture("cw4_r2"), [(-1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)])  # t = 0
    us, X = d0_transport(spec, (0.0, 0.3, 0.2), np.eye(2), 2.0, 100)
    assert np.max(np.abs(X - np.eye(2))) < 1e-13


def test_d0_transport_rotation_closed_form():
    spec = boxed(fixture("rotation_w"), [(-1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)])
    us, X = d0_transport(spec, (0.0, 0.3, -0.2), np.eye(2), 2.0, 400)
    c, s = np.cos(2.0), np.sin(2.0)
    expm = np.array([[c, s], [-s, c]])  # exp(2t) for t = [[0,1],[-1,0]]
    assert np.max(np.abs(X[-1] - expm.T)) < 1e-9
    norms = np.linalg.norm(X, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_d0_transport_refuses_non_finite_t():
    # W_2 = exp(800 u) x3: t^i_j overflows for u above about 0.887
    spec = MetricSpec.from_text(4, W={2: "exp(800*u)*x3"}, box=[(0.0, 1.0), (-1, 1), (-1, 1)])
    with pytest.raises(ValueError, match=r"non-finite t\^i_j .* at u = 0\.89$"):
        d0_transport(spec, (0.5, 0.0, 0.0), np.eye(2), 0.5, 50)


def test_d0_transport_refuses_overflowing_vectors():
    # t stays finite on u in [0.5, 1], but exp(700 u) makes X overflow in one step
    spec = MetricSpec.from_text(4, W={2: "exp(700*u)*x3"}, box=[(0.0, 1.0), (-1, 1), (-1, 1)])
    with pytest.raises(RuntimeError, match=r"blew up at u = 0\.51"):
        d0_transport(spec, (0.5, 0.0, 0.0), np.eye(2), 0.5, 50)


def test_d0_transport_gbar_isometry_random_spec():
    spec = random_polynomial_spec(17, n=4)
    p = (-0.3, 0.2, 0.1)
    rng = np.random.default_rng(2)
    V = rng.normal(size=(2, 2))
    us, X = d0_transport(spec, p, V, 0.6, 300)
    ips = []
    for k in (0, 150, 300):
        cj = eval_metric(spec, ChartPoint(us[k], p[1:]), 0)
        g = cj.g.value()[0]
        ips.append(X[k] @ g @ X[k].T)
    assert np.max(np.abs(ips[1] - ips[0])) < 1e-8
    assert np.max(np.abs(ips[2] - ips[0])) < 1e-8


def test_null_sectional_growth_ladder():
    x_dir = np.array([0.0, 0.0, 1.0, 0.0])
    spec2 = boxed(fixture("cw4_r2"), [(-1.0, 11.0), (-1.0, 1.0), (-1.0, 1.0)])
    v0 = null_velocity(spec2, (0.0, 0.0, 0.0))
    traj = geodesic_integrate(spec2, ORIGIN4, v0, 10.0, 1000)
    res = null_sectional_growth(spec2, traj, x_dir)
    assert res["max_second_difference"] < 1e-6
    assert res["dK"][0] == pytest.approx(2.0, abs=1e-9)   # K = 2u along the center

    spec1 = boxed(fixture("cw4_r1"), [(-1.0, 11.0), (-1.0, 1.0), (-1.0, 1.0)])
    traj1 = geodesic_integrate(spec1, ORIGIN4, null_velocity(spec1, (0.0, 0.0, 0.0)),
                               10.0, 500)
    res1 = null_sectional_growth(spec1, traj1, x_dir)
    assert np.max(np.abs(res1["K"] - res1["K"][0])) < 1e-8

    flat = boxed(fixture("flat"), [(-1.0, 11.0), (-1.0, 1.0), (-1.0, 1.0)])
    trajf = geodesic_integrate(flat, ORIGIN4, null_velocity(flat, (0.0, 0.0, 0.0)),
                               5.0, 100)
    resf = null_sectional_growth(flat, trajf, x_dir)
    assert np.max(np.abs(resf["K"])) == 0.0


def test_null_sectional_growth_memory_is_bounded_by_the_node_block():
    # nodes are evaluated NODE_BLOCK at a time, so 601 nodes take no more
    # transient memory than one block's stacked jets
    spec = load_metric_file(str(METRICS / "cw4_order2.metric"))
    p = (0.1, 0.2, -0.1)
    traj = geodesic_integrate(spec, [p[0], 0.0, *p[1:]], null_velocity(spec, p), 0.9, 600)
    x_dir = np.array([0.0, 0.0, 1.0, 0.0])
    null_sectional_growth(spec, traj, x_dir)    # warm caches: jet tables, einsum plans
    tracemalloc.start()
    try:
        null_sectional_growth(spec, traj, x_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_nullsec_integrates_the_geodesic_once(monkeypatch):
    # X is transported on the connection the geodesic run recorded at its stages
    real = transport.christoffel_values
    calls = []
    monkeypatch.setattr(transport, "christoffel_values",
                        lambda spec, c: calls.append(c) or real(spec, c))
    spec = fixture("cw4_r2")
    steps = 30
    traj = geodesic_integrate(spec, ORIGIN4, null_velocity(spec, (0.0, 0.0, 0.0)),
                              1.0, steps)
    null_sectional_growth(spec, traj, np.array([0.0, 0.0, 1.0, 0.0]))
    assert len(calls) == 4 * steps


def test_d0_transport_evaluates_t_once_per_abscissa(monkeypatch):
    # eval_metric takes the abscissae in blocks; count the abscissae, not the calls
    real = chart.eval_metric
    abscissae = []

    def counted(spec, p, order):
        abscissae.extend(p.u.tolist())
        return real(spec, p, order)

    monkeypatch.setattr(chart, "eval_metric", counted)
    monkeypatch.setattr(transport, "eval_metric", counted, raising=False)
    steps = 40
    d0_transport(fixture("rotation_w"), (0.0, 0.3, -0.2), np.eye(2), 1.0, steps)
    assert len(abscissae) == 2 * steps + 1
    assert len(set(abscissae)) == len(abscissae)


def test_null_sectional_degenerate_plane_rejected():
    spec = fixture("cw4_r2")
    v0 = null_velocity(spec, (0.0, 0.0, 0.0))
    traj = geodesic_integrate(spec, ORIGIN4, v0, 1.0, 20)
    with pytest.raises(ValueError, match="degenerate"):
        null_sectional_growth(spec, traj, np.array([0.0, 1.0, 0.0, 0.0]))


def test_null_sectional_degenerate_plane_names_the_node():
    # X = d_v is null everywhere, so node 0 is the first degenerate plane
    spec = fixture("cw4_r2")
    traj = geodesic_integrate(spec, ORIGIN4, null_velocity(spec, (0.0, 0.0, 0.0)),
                              1.0, 100)
    message = (r"^degenerate plane: g\(X, X\) = 0\.0 is not positive at node 0, tau = 0\.0, "
               r"coordinates \(0\.0, 0\.0, 0\.0, 0\.0\)$")
    with pytest.raises(ValueError, match=message):
        null_sectional_growth(spec, traj, np.array([0.0, 1.0, 0.0, 0.0]))


def test_second_symmetry_transport_check_ladder():
    ok, worst = second_symmetry_transport_check(fixture("cw4_r2"), trials=2, rng_seed=5)
    assert ok and worst < 1e-6
    ok1, _ = second_symmetry_transport_check(fixture("cw4_r1"), trials=2, rng_seed=5)
    assert ok1
    ok3, worst3 = second_symmetry_transport_check(fixture("cw4_r3"), trials=2, rng_seed=5)
    assert not ok3 and worst3 > 1e-3


def test_second_symmetry_transport_check_refuses_a_non_finite_nabla_R():
    # the order-3 jets of exp(10000 u) overflow while G's value stays finite,
    # and a NaN residual must not read as a pass
    spec = MetricSpec.from_text(4, H="exp(10000*u)*x2^2 + u^3*x3^2",
                                box=[(0.0685, 0.069), (-1, 1), (-1, 1)])
    message = r"^non-finite nabla R in the second-symmetry check at trial 0, node 0, u = 0\.06875$"
    with pytest.raises(ValueError, match=message):
        second_symmetry_transport_check(spec, trials=2)


def test_second_symmetry_transport_check_refuses_an_overflowing_basis(monkeypatch):
    # the basis overflows from node 100 on, so node 160 is the first of the
    # three nodes read; a NaN residual must not read as a failure of the law
    real = transport.parallel_transport

    def overflowing(traj, vectors):
        moved = real(traj, vectors)
        moved[100:] = np.inf
        return moved

    monkeypatch.setattr(transport, "parallel_transport", overflowing)
    message = (r"^non-finite transported basis in the second-symmetry check at trial 0, "
               r"node 160, u = -0\.035526116371790546$")
    with pytest.raises(ValueError, match=message):
        second_symmetry_transport_check(fixture("cw4_r2"), trials=2)


# -- metric values and Christoffel symbols from the compiled tape ----------------------


def _assembled_christoffel(spec, coords):
    """Gamma as transport read it through the oracle's jet assembly."""
    cm = assemble_coordinate_metric(spec, ChartPoint(coords[0], tuple(coords[2:])), 1)
    return 0.5 * np.einsum("ar,rbc->abc", cm.Ginv0[0], _lowered(_cgrad(cm.G, cm.n).value()[0]))


def _assembled_metric(spec, coords):
    return assemble_coordinate_metric(spec, ChartPoint(coords[0], tuple(coords[2:])), 0).G.value()[0]


def test_transport_values_are_the_assembled_values_bitwise():
    specs = [load_metric_file(str(path)) for path in sorted(METRICS.glob("*.metric"))]
    specs += [random_polynomial_spec(seed, n=n) for seed, n in ((0, 4), (5, 5), (9, 6))]
    rng = np.random.default_rng(21)
    for spec in specs:
        lo, hi = np.array(spec.box).T
        for _ in range(3):
            chart_point = lo + (hi - lo) * rng.uniform(size=spec.num_vars)
            coords = np.concatenate([chart_point[:1], rng.normal(size=1), chart_point[1:]])
            G, Gamma = christoffel_values(spec, coords)
            for got, ref in ((Gamma, _assembled_christoffel(spec, coords)),
                             (G, _assembled_metric(spec, coords)),
                             (metric_values(spec, coords), _assembled_metric(spec, coords))):
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def _jet_path_geodesic(spec, coords0, velocity0, span, steps):
    """``geodesic_integrate``'s RK4 on the Gamma of ``_assembled_christoffel``."""
    n, h = spec.n, step_size(span, steps)
    y = np.concatenate([coords0, velocity0])
    nodes, connection = [y], []

    def f(_, state):
        gam, v = _assembled_christoffel(spec, state[:n]), state[n:]
        connection.append(np.einsum("abc,c->ab", gam, v))
        return np.concatenate([v, -np.einsum("abc,b,c->a", gam, v, v)])

    for _ in range(steps):
        y = rk4_step(f, y, h, range(4))
        nodes.append(y)
    nodes = np.array(nodes)
    return nodes[:, :n], nodes[:, n:], np.array(connection).reshape(steps, 4, n, n)


def test_geodesic_is_the_jet_path_geodesic_bitwise():
    specs = _bundled_specs() + [random_polynomial_spec(seed, n=n)
                                for seed, n in ((0, 4), (5, 5), (9, 6))]
    for spec in specs:
        p = spec.center().at(0)
        (lo, hi), m = spec.box[0], spec.m
        coords0 = np.array([p[0], 0.0, *p[1:]])
        v0 = null_velocity(spec, p, leaf_part=0.3 * np.cos(np.arange(m) + 1.0))
        traj = geodesic_integrate(spec, coords0, v0, 0.25 * (hi - lo), 130)
        ref = _jet_path_geodesic(spec, coords0, v0, 0.25 * (hi - lo), 130)
        for got, want in zip((traj.coords, traj.velocity, traj.connection), ref):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_christoffel_values_run_no_jet_tape(monkeypatch):
    spec = fixture("scrambled_cw4")
    monkeypatch.setattr(chart.expr, "eval_jet", None)
    christoffel_values(spec, np.array([0.2, 0.0, 0.1, -0.3]))
    metric_values(spec, np.array([0.2, 0.0, 0.1, -0.3]))


def test_christoffel_values_build_no_jet(monkeypatch):
    def no_jet(*args, **kwargs):
        raise AssertionError("a Jet was built")

    spec = fixture("scrambled_cw4")
    monkeypatch.setattr(jets.Jet, "__init__", no_jet)
    christoffel_values(spec, np.array([0.2, 0.0, 0.1, -0.3]))
    metric_values(spec, np.array([0.2, 0.0, 0.1, -0.3]))


@pytest.mark.parametrize("fields, point, where", [
    ({"W": {2: "1/(u - 0.1)"}}, (0.1, 0.2, 0.3), "in W_2 at (0.1, 0.2, 0.3)"),
    ({"H": "x2^2 + sqrt(u - 0.5)"}, (0.2, 0.1, 0.0), "in H at (0.2, 0.1, 0.0)"),
])
def test_transport_values_locate_a_domain_error_as_eval_metric_does(fields, point, where):
    spec = MetricSpec.from_text(4, **fields)
    with pytest.raises(JetDomainError) as ref:
        eval_metric(spec, ChartPoint(point[0], point[1:]), 1)
    assert str(ref.value).endswith(where)
    coords = np.array([point[0], 0.0, *point[1:]])
    for values in (christoffel_values, metric_values):
        with pytest.raises(JetDomainError) as got:
            values(spec, coords)
        assert str(got.value) == str(ref.value)


def test_transport_values_refuse_an_indefinite_leaf_metric():
    spec = MetricSpec.from_text(4, g={(2, 2): "u"})
    coords = np.array([-0.5, 0.0, 0.1, 0.2])
    for values in (christoffel_values, metric_values):
        with pytest.raises(MetricDefinitenessError, match=r"not positive definite at \(-0\.5"):
            values(spec, coords)


def test_transport_values_accept_a_small_scale_metric():
    # g_ij = 1e-7 delta is well conditioned although det G = -det g = -1e-14
    spec = MetricSpec.from_text(4, g={(2, 2): "1e-7", (3, 3): "1e-7"})
    coords = np.array([0.0, 0.0, 0.1, 0.2])
    G, Gamma = christoffel_values(spec, coords)
    for got, ref in ((Gamma, _assembled_christoffel(spec, coords)),
                     (G, _assembled_metric(spec, coords)),
                     (metric_values(spec, coords), _assembled_metric(spec, coords))):
        assert got.tobytes() == ref.tobytes()
    assert metric_values(spec, coords)[2, 2] == 1e-7


@pytest.mark.parametrize("fields, name", [
    ({"H": "exp(800*u)"}, "H"),
    ({"W": {3: "exp(800*u)"}}, "W_3"),
    ({"g": {(2, 3): "exp(800*u)"}}, "g_23"),
])
def test_non_finite_metric_values_name_the_field_and_point(fields, name):
    spec = MetricSpec.from_text(4, **fields)
    message = rf"^non-finite {name} at \(1\.0, 0\.1, 0\.2\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            christoffel_values(spec, np.array([1.0, 0.0, 0.1, 0.2]))
        with pytest.raises(ValueError, match=message):
            assemble_coordinate_metric(spec, ChartPoint(1.0, (0.1, 0.2)), 2)


def test_geodesic_off_to_infinity_names_the_non_finite_field():
    # the step from tau = 16 throws x2 out to 1.8e142, where H = -x2^4 overflows
    spec = MetricSpec.from_text(4, H="-x2^4", box=[(-1e300, 1e300)] * 3)
    with pytest.raises(ValueError, match=r"^non-finite H at \(20\.0, 1\.788\d*e\+142, 0\.0\)$"):
        geodesic_integrate(spec, [0.0, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], 40.0, 5)


def test_geodesic_blow_up_names_step_tau_and_entry():
    # H = -x2^4 throws the geodesic off to infinity within the first steps
    spec = MetricSpec.from_text(4, H="-x2^4", box=[(-1e300, 1e300)] * 3)
    with pytest.raises(RuntimeError,
                       match=r"^geodesic integration blew up at step 4, tau = 7\.0: dv = inf$"):
        geodesic_integrate(spec, [0.0, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], 40.0, 20)


# -- energy on stacked nodes, null velocity from the metric values ---------------------


def _bundled_specs():
    return [load_metric_file(str(path)) for path in sorted(METRICS.glob("*.metric"))]


def test_energy_is_the_one_point_formula_bitwise():
    # 151 nodes: two full node blocks and a short one
    for spec in _bundled_specs():
        p = spec.center().at(0)
        (lo, hi), m = spec.box[0], spec.m
        v0 = null_velocity(spec, p, leaf_part=0.3 * np.cos(np.arange(m) + 1.0))
        traj = geodesic_integrate(spec, [p[0], 0.0, *p[1:]], v0, 0.25 * (hi - lo), 150)
        ref = np.array([float(v @ metric_values(spec, c) @ v)
                        for c, v in zip(traj.coords, traj.velocity)])
        assert traj.energy().tobytes() == ref.tobytes()


def _frame_null_velocity(spec, p, a):
    """The null velocity at the chart coordinates p as read from the jet tape
    and the frame matrices."""
    fr = chart.frame_components(eval_metric(spec, ChartPoint(p[0], p[1:]), order=0))
    e = fr.e[0]
    vec = e[0] + 0.5 * float(a @ fr.g_leaf[0] @ a) * e[1]
    for i in range(spec.m):
        vec = vec + a[i] * e[2 + i]
    return vec


def test_null_velocity_is_the_frame_formula_bitwise():
    specs = _bundled_specs() + [random_polynomial_spec(seed, n=n)
                                for seed, n in ((1, 4), (6, 5), (8, 6))]
    rng = np.random.default_rng(14)
    for spec in specs:
        lo, hi = np.array(spec.box).T
        for k in range(6):
            c = lo + (hi - lo) * rng.uniform(size=spec.num_vars)
            p = tuple(float(x) for x in c)
            a = rng.normal(size=spec.m) * (k % 3)
            if k == 3:
                a = -0.0 * a
            got = null_velocity(spec, p, leaf_part=a)
            assert got.tobytes() == _frame_null_velocity(spec, p, a).tobytes()
        center = spec.center().at(0)
        got = null_velocity(spec, center)
        assert got.tobytes() == _frame_null_velocity(spec, center, np.zeros(spec.m)).tobytes()


def test_energy_reads_the_metric_the_stages_computed(monkeypatch):
    # stage 0 of step k evaluates G at node k; the last node costs one metric_values call
    spec = load_metric_file(str(METRICS / "cw4_order2.metric"))
    p = spec.center().at(0)
    v0 = null_velocity(spec, p, leaf_part=[0.3, -0.2])
    real, calls = transport.metric_values, []
    monkeypatch.setattr(transport, "metric_values",
                        lambda spec, c: calls.append(c.tolist()) or real(spec, c))
    traj = geodesic_integrate(spec, [p[0], 0.0, *p[1:]], v0, 0.5, 40)
    assert calls == [traj.coords[-1].tolist()]
    for G, c in zip(traj.metric, traj.coords):
        assert G.tobytes() == real(spec, c).tobytes()

    def evaluated(*args):
        raise AssertionError("energy evaluated the metric")

    for name in ("metric_values", "christoffel_values", "assemble_coordinate_metric"):
        monkeypatch.setattr(transport, name, evaluated)
    assert np.isfinite(traj.energy()).all()


def test_geodesic_refuses_a_field_that_fails_at_its_last_node_only():
    # one step from x2 = 0.1 at dx2/dtau = 0.7: stage 3 evaluates x2 = 0.7999999999999999
    # and the step ends on 0.7999999999999998, the one x2 where H's divisor vanishes
    spec = MetricSpec.from_text(4, H="0 * x3 / (x2 - 0.7999999999999998)")
    with pytest.raises(JetDomainError, match=r"^division by a jet with zero constant term in H "
                                             r"at \(1\.0, 0\.7999999999999998, 0\.0\)$"):
        geodesic_integrate(spec, [0.0, 0.0, 0.1, 0.0], [1.0, 0.0, 0.7, 0.0], 1.0, 1)
