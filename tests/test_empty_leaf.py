"""Charts without leaf (m = 0) and flat blocks without slots (d = 0).

An empty leaf or block is an array shape like any other, served by the code
that serves every other shape.  These tests pin what that code gives on it:
exact values where a value is nonempty, shapes and exact zeros where it is
empty.
"""

import numpy as np

from brinkmann import jets, metricfile
from brinkmann.canonical import FlatBlockData, reconstruct, solve_rotation_ode, verify_canonical
from brinkmann.chart import ChartPoint, MetricSpec, eval_metric, jet_matrix_inverse, \
    metric_coefficients
from brinkmann.classify import eisenhart_split, evaluate_samples
from brinkmann.cli import main
from brinkmann.spaces import CwParams, apply_chart_change, fixture, make_cw, \
    random_affine_change
from brinkmann.transport import d0_transport

# A two-dimensional chart whose H is not constant, so its jets carry numbers.
SPEC2 = MetricSpec.from_text(2, H="sin(u) + u^3")
POINT = ChartPoint(0.3, ())
# The order-4 jet of H = sin(u) + u^3 about u = 0.3.
H_JET = [0.32252020666133957, 1.225336489125606, 0.7522398966693301, 0.840777251812399,
         0.012313341944222482]


def test_eval_metric_without_leaf():
    cj = eval_metric(SPEC2, POINT, 4)
    assert cj.H.data.tolist() == [H_JET]
    assert (cj.W.data.shape, cj.g.data.shape) == ((1, 0, 5), (1, 0, 0, 5))
    assert (cj.ginv0.shape, cj.ginv.data.shape) == ((1, 0, 0), (1, 0, 0, 4))
    assert metric_coefficients(SPEC2, POINT.at(0)).tolist() == [H_JET[:2]]


def test_eval_metric_on_a_stack_without_leaf():
    us = np.array([0.1, -0.2, 0.4])
    cj = eval_metric(SPEC2, ChartPoint(us, ()), 4)
    one = [eval_metric(SPEC2, ChartPoint(u, ()), 4).H.data for u in us]
    assert np.array_equal(cj.H.data, np.concatenate(one))
    assert (cj.W.data.shape, cj.g.data.shape) == ((3, 0, 5), (3, 0, 0, 5))
    assert (cj.ginv0.shape, cj.ginv.data.shape) == ((3, 0, 0), (3, 0, 0, 4))


def test_jet_matrix_inverse_of_empty_matrices():
    assert jet_matrix_inverse(jets.zeros((1, 0, 0), 3, 3)).data.shape == (1, 0, 0, 20)
    assert jet_matrix_inverse(jets.zeros((4, 0, 0), 3, 3)).data.shape == (4, 0, 0, 20)


def test_d0_transport_without_leaf():
    us, X = d0_transport(SPEC2, POINT.at(0), np.eye(0), 0.4, 7)
    assert us.tolist() == [0.3, 0.35714285714285715, 0.41428571428571426, 0.4714285714285714,
                           0.5285714285714286, 0.5857142857142857, 0.6428571428571428, 0.7]
    assert X.shape == (8, 0, 0)
    assert d0_transport(SPEC2, POINT.at(0), np.zeros((2, 0)), 0.4, 7)[1].shape == (8, 2, 0)


def test_eisenhart_split_without_leaf():
    split = eisenhart_split(evaluate_samples(fixture("cw2"), depth=1))
    assert split.to_dict() == {
        "eigenvalues": [], "multiplicities": [], "partition": [], "zero_cluster": None,
        "eigenvalue_spread": 0.0, "atil_on_flat_block": None, "ambiguous": False}
    assert split.basis.shape == (0, 0)


def test_verify_canonical_on_an_empty_block():
    fit = verify_canonical(np.linspace(0.0, 1.0, 5), np.zeros((5, 0, 0)))
    assert {key: np.shape(value) for key, value in fit.items()} == {
        "A0": (0, 0), "A1": (0, 0), "affine_residual": (), "proper": (),
        "A1_diagonal": (0,), "A0_normal": (0, 0), "u_shift": (), "essential_parameters": ()}
    assert (fit["affine_residual"], fit["proper"], fit["u_shift"],
            fit["essential_parameters"]) == (0.0, False, 0.0, 0)


def test_the_rotation_and_the_reconstruction_of_an_empty_block():
    rot = solve_rotation_ode(FlatBlockData(fixture("cw4_r2"), ()), (-0.5, 0.5), 20)
    assert (rot.R.shape, rot.stage_R.shape) == ((21, 0, 0), (20, 4, 0, 0))
    assert (rot.orthogonality_error, rot.drift_before_projection) == (0.0, 0.0)
    cf = reconstruct(fixture("cw4_r2"), block=(), steps=50)
    assert (cf.R_of_u.shape, cf.D_of_u.shape) == ((51, 0, 0), (51, 0))
    report = cf.to_dict()
    assert report.pop("u_samples") == cf.us.tolist()
    assert report == {
        "A0": [], "A1": [], "P0": [], "P1": [], "affine_residual": 0.0,
        "orthogonality_error": 0.0, "proper": False, "eqq1_residual": 0.0,
        "eqq3_residual": 0.0, "A1_diagonal": [], "A0_normal_form": [], "u_shift": 0.0,
        "essential_parameters": 0}


def test_a_single_step_has_no_interior_node_to_difference():
    cf = reconstruct(fixture("cw4_r2"), u_interval=(0.0, 0.01), steps=1)
    assert len(cf.us) == 2
    assert (cf.eqq1_residual, cf.eqq3_residual) == (0.0, 0.0)


def test_plane_wave_and_generator_without_leaf():
    flat2 = "MetricSpec(n=2, H=Num(value=0.0), W=(), g=(), box=((-1.0, 1.0),))"
    assert repr(make_cw(CwParams(2, (np.zeros((0, 0)), np.zeros((0, 0)))))) == flat2
    spec = metricfile.parse_metric_text("[generator]\nkind = cw\ndimension = 2\norder = 2\n")
    assert repr(spec) == flat2


def test_chart_changes_without_leaf():
    # a 2-D chart has no leaf coordinates to move, so the change is the identity
    change = random_affine_change(SPEC2, np.random.default_rng(3))
    assert (change.x_maps, change.u_shift) == ((), 0.0)
    assert apply_chart_change(SPEC2, change) == SPEC2
    moved = apply_chart_change(SPEC2, change, box=((-0.5, 0.5),))
    assert (moved.H, moved.box) == (SPEC2.H, ((-0.5, 0.5),))


def test_transport_geodesic_without_leaf(tmp_path, capsys):
    # a one-point RK4 stage on an empty leaf: a 0 x 0 leaf gate, G and Gamma 2 x 2
    path = tmp_path / "u2.metric"
    path.write_text('[metric]\ndimension = 2\nH = "u^2"\n')
    code = main(["transport", str(path), "--experiment", "geodesic", "--steps", "3",
                 "--span", "0.3"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "tau,u,v,du,dv,energy,k_pairing",
        "0,0,0,1,0,0,1",
        "0.099999999999999992,0.10000000000000001,-0.00033333333333333327,1,-0.01,"
        "-3.4694469519536142e-18,1",
        "0.19999999999999998,0.20000000000000001,-0.002666666666666667,1,-0.039999999999999994,"
        "-2.7755575615628914e-17,1",
        "0.29999999999999999,0.30000000000000004,-0.0089999999999999976,1,-0.089999999999999997,"
        "-5.5511151231257827e-17,1",
    ]
