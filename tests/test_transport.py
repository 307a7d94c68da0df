import numpy as np
import pytest

from brinkmann import chart, transport
from brinkmann.chart import ChartPoint, MetricSpec
from brinkmann.spaces import fixture, random_polynomial_spec
from brinkmann.transport import (d0_transport, geodesic_integrate,
                                 metric_values, null_sectional_growth, null_velocity,
                                 parallel_transport, second_symmetry_transport_check)

ORIGIN4 = [0.0, 0.0, 0.0, 0.0]


def test_flat_geodesics_are_straight():
    spec = fixture("flat")
    v0 = [0.5, -0.2, 0.3, 0.1]
    traj = geodesic_integrate(spec, ORIGIN4, v0, tau_span=4.0, steps=100)
    expect = np.outer(traj.tau, v0)
    assert np.max(np.abs(traj.coords - expect)) < 1e-12
    assert np.max(np.abs(traj.velocity - np.array(v0))) < 1e-12


def test_null_velocity_is_null():
    spec = fixture("scrambled_cw4")
    p = ChartPoint(0.2, (0.3, -0.1))
    v = null_velocity(spec, p, leaf_part=[0.4, -0.7])
    coords = np.array([p.u, 0.0, *p.x])
    G = metric_values(spec, coords)
    assert abs(v @ G @ v) < 1e-14


def test_cw_central_geodesic_stays_at_origin():
    spec = fixture("cw4_r2")
    v0 = null_velocity(spec, ChartPoint(0.0, (0.0, 0.0)))
    traj = geodesic_integrate(spec, ORIGIN4, v0, tau_span=10.0, steps=500)
    assert np.max(np.abs(traj.coords[:, 2:])) == 0.0
    # conserved quantities over span 10
    en = traj.energy()
    kp = traj.k_pairing()
    assert np.max(np.abs(en - en[0])) < 1e-7
    assert np.max(np.abs(kp - kp[0])) < 1e-7


def test_geodesic_conservation_generic_initial_data():
    spec = fixture("cw4_r2")
    rng = np.random.default_rng(4)
    v0 = rng.normal(size=4) * 0.3
    traj = geodesic_integrate(spec, [0.0, 0.1, 0.2, -0.1], v0, tau_span=10.0, steps=4000)
    en = traj.energy()
    kp = traj.k_pairing()
    assert np.max(np.abs(en - en[0])) < 1e-7
    assert np.max(np.abs(kp - kp[0])) < 1e-7


def test_geodesic_box_abort():
    spec = fixture("cw4_r2")
    with pytest.raises(RuntimeError, match="left the admissible box"):
        geodesic_integrate(spec, ORIGIN4, [1.0, 0.0, 0.9, 0.0], tau_span=10.0,
                           steps=200, enforce_box=True)


def test_parallel_transport_flat_constant():
    spec = fixture("flat")
    traj = geodesic_integrate(spec, ORIGIN4, [1.0, 0.2, 0.1, -0.3], 2.0, 50)
    moved = parallel_transport(spec, traj, np.eye(4))
    assert np.max(np.abs(moved - np.eye(4))) < 1e-12


def test_parallel_transport_K_constant():
    spec = fixture("scrambled_cw4")
    v0 = null_velocity(spec, ChartPoint(0.0, (0.1, 0.2)), leaf_part=[0.2, 0.1])
    traj = geodesic_integrate(spec, [0.0, 0.0, 0.1, 0.2], v0, 2.0, 200)
    K = np.array([0.0, -1.0, 0.0, 0.0])
    moved = parallel_transport(spec, traj, K[None, :])
    assert np.max(np.abs(moved - K)) < 1e-10


def test_parallel_transport_isometry():
    spec = fixture("cw4_r2")
    rng = np.random.default_rng(9)
    traj = geodesic_integrate(spec, [0.0, 0.0, 0.1, -0.2], rng.normal(size=4) * 0.3,
                              10.0, 4000)
    vecs = rng.normal(size=(3, 4))
    moved = parallel_transport(spec, traj, vecs)
    G0 = metric_values(spec, traj.coords[0])
    ips0 = moved[0] @ G0 @ moved[0].T
    for k in (1000, 2000, 4000):
        G = metric_values(spec, traj.coords[k])
        ips = moved[k] @ G @ moved[k].T
        assert np.max(np.abs(ips - ips0)) < 1e-7


def test_d0_transport_constant_when_t_zero():
    spec = fixture("cw4_r2")  # t = 0
    us, X = d0_transport(spec, ChartPoint(0.0, (0.3, 0.2)), np.eye(2), 2.0, 100)
    assert np.max(np.abs(X - np.eye(2))) < 1e-13


def test_d0_transport_rotation_closed_form():
    spec = fixture("rotation_w")
    us, X = d0_transport(spec, ChartPoint(0.0, (0.3, -0.2)), np.eye(2), 2.0, 400)
    c, s = np.cos(2.0), np.sin(2.0)
    expm = np.array([[c, s], [-s, c]])  # exp(2t) for t = [[0,1],[-1,0]]
    assert np.max(np.abs(X[-1] - expm.T)) < 1e-9
    norms = np.linalg.norm(X, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_d0_transport_refuses_non_finite_t():
    # W_2 = exp(800 u) x3: t^i_j overflows for u above about 0.887
    spec = MetricSpec.from_text(4, W={2: "exp(800*u)*x3"}, box=[(0.0, 1.0), (-1, 1), (-1, 1)])
    with pytest.raises(ValueError, match=r"non-finite t\^i_j .* at u = 0\.89$"):
        d0_transport(spec, ChartPoint(0.5, (0.0, 0.0)), np.eye(2), 0.5, 50)


def test_d0_transport_refuses_overflowing_vectors():
    # t stays finite on u in [0.5, 1], but exp(700 u) makes X overflow in one step
    spec = MetricSpec.from_text(4, W={2: "exp(700*u)*x3"}, box=[(0.0, 1.0), (-1, 1), (-1, 1)])
    with pytest.raises(RuntimeError, match=r"blew up at u = 0\.51"):
        d0_transport(spec, ChartPoint(0.5, (0.0, 0.0)), np.eye(2), 0.5, 50)


def test_d0_transport_gbar_isometry_random_spec():
    spec = random_polynomial_spec(17, n=4)
    from brinkmann.chart import eval_metric

    p = ChartPoint(-0.3, (0.2, 0.1))
    rng = np.random.default_rng(2)
    V = rng.normal(size=(2, 2))
    us, X = d0_transport(spec, p, V, 0.6, 300)
    ips = []
    for k in (0, 150, 300):
        cj = eval_metric(spec, ChartPoint(us[k], p.x), 0)
        g = cj.g.value()
        ips.append(X[k] @ g @ X[k].T)
    assert np.max(np.abs(ips[1] - ips[0])) < 1e-8
    assert np.max(np.abs(ips[2] - ips[0])) < 1e-8


def test_null_sectional_growth_ladder():
    x_dir = np.array([0.0, 0.0, 1.0, 0.0])
    spec2 = fixture("cw4_r2")
    v0 = null_velocity(spec2, ChartPoint(0.0, (0.0, 0.0)))
    traj = geodesic_integrate(spec2, ORIGIN4, v0, 10.0, 1000)
    res = null_sectional_growth(spec2, traj, x_dir)
    assert res["max_second_difference"] < 1e-6
    assert res["dK"][0] == pytest.approx(2.0, abs=1e-9)   # K = 2u along the center

    spec1 = fixture("cw4_r1")
    traj1 = geodesic_integrate(spec1, ORIGIN4, null_velocity(spec1, ChartPoint(0.0, (0.0, 0.0))),
                               10.0, 500)
    res1 = null_sectional_growth(spec1, traj1, x_dir)
    assert np.max(np.abs(res1["K"] - res1["K"][0])) < 1e-8

    flat = fixture("flat")
    trajf = geodesic_integrate(flat, ORIGIN4, null_velocity(flat, ChartPoint(0.0, (0.0, 0.0))),
                               5.0, 100)
    resf = null_sectional_growth(flat, trajf, x_dir)
    assert np.max(np.abs(resf["K"])) == 0.0


def test_nullsec_integrates_the_geodesic_once(monkeypatch):
    # X is transported on the connection the geodesic run recorded at its stages
    real = transport.christoffel_values
    calls = []
    monkeypatch.setattr(transport, "christoffel_values",
                        lambda spec, c: calls.append(c) or real(spec, c))
    spec = fixture("cw4_r2")
    steps = 30
    traj = geodesic_integrate(spec, ORIGIN4, null_velocity(spec, ChartPoint(0.0, (0.0, 0.0))),
                              1.0, steps)
    null_sectional_growth(spec, traj, np.array([0.0, 0.0, 1.0, 0.0]))
    assert len(calls) == 4 * steps


def test_d0_transport_evaluates_t_once_per_abscissa(monkeypatch):
    real = chart.eval_metric
    calls = []

    def counted(spec, p, order):
        calls.append(p.u)
        return real(spec, p, order)

    monkeypatch.setattr(chart, "eval_metric", counted)
    monkeypatch.setattr(transport, "eval_metric", counted, raising=False)
    steps = 40
    d0_transport(fixture("rotation_w"), ChartPoint(0.0, (0.3, -0.2)), np.eye(2), 1.0, steps)
    assert len(calls) == 2 * steps + 1
    assert len(set(calls)) == len(calls)


def test_null_sectional_degenerate_plane_rejected():
    spec = fixture("cw4_r2")
    v0 = null_velocity(spec, ChartPoint(0.0, (0.0, 0.0)))
    traj = geodesic_integrate(spec, ORIGIN4, v0, 1.0, 20)
    with pytest.raises(ValueError, match="degenerate"):
        null_sectional_growth(spec, traj, np.array([0.0, 1.0, 0.0, 0.0]))


def test_second_symmetry_transport_check_ladder():
    ok, worst = second_symmetry_transport_check(fixture("cw4_r2"), trials=2, rng_seed=5)
    assert ok and worst < 1e-6
    ok1, _ = second_symmetry_transport_check(fixture("cw4_r1"), trials=2, rng_seed=5)
    assert ok1
    ok3, worst3 = second_symmetry_transport_check(fixture("cw4_r3"), trials=2, rng_seed=5)
    assert not ok3 and worst3 > 1e-3
