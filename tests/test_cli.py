import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brinkmann
from brinkmann import classify, cli, metricfile, transport
from brinkmann.cli import format_json, main
from brinkmann.metricfile import spec_to_text
from brinkmann.spaces import apply_chart_change, fixture, random_affine_change


@pytest.fixture()
def cw42_file(tmp_path):
    path = tmp_path / "cw42.metric"
    path.write_text(spec_to_text(fixture("cw4_r2")))
    return str(path)


@pytest.fixture()
def cw2_file(tmp_path):
    path = tmp_path / "cw2.metric"
    path.write_text(spec_to_text(fixture("cw2")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_verdict_and_exit_code(cw42_file, capsys):
    code, out, _ = run(capsys, "check", cw42_file)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 3
    assert report["verdict"] == "proper_second_symmetric"
    assert set(report["residuals"]) == {"R", "nabla_R", "nabla2_R"}
    assert report["structural_checks"]["scalar_constant"] is True
    assert report["A_tilde"]["d0_parallel"] is True
    assert report["eisenhart"]["partition"] == [[2, 3]]


def test_check_reports_atil_off_the_flat_block(tmp_path, capsys):
    # leaf coordinates mixed across the sphere and plane-wave blocks: Atil has
    # entries off the coordinate slots of the zero Ricci cluster
    base = fixture("cw4_r2_x_sphere")
    path = tmp_path / "moved.metric"
    path.write_text(spec_to_text(apply_chart_change(
        base, random_affine_change(base, np.random.default_rng(0)))))
    code, out, err = run(capsys, "check", str(path), "--samples", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["eisenhart"]["atil_on_flat_block"] is False


def test_check_flat_exit_zero(tmp_path, capsys):
    path = tmp_path / "flat.metric"
    path.write_text(spec_to_text(fixture("flat")))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "flat"


@pytest.mark.parametrize("depth", ["1", "2"])
def test_check_on_a_two_dimensional_chart_is_flat(cw2_file, capsys, depth):
    # m = 0: the A_tilde and Eisenhart sections are empty, not refused
    code, out, err = run(capsys, "check", cw2_file, "--depth", depth)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "flat"
    assert report["A_tilde"]["values"] == [[]] * 9
    assert report["A_tilde"]["grad_parallel"] and report["A_tilde"]["d0_parallel"]
    assert report["eisenhart"]["partition"] == []
    assert len({u for u, in report["samples"]}) == len(report["samples"]) == 9


@pytest.mark.parametrize("samples, message", [
    ("3", "need at least 5 sample points, the stack has 4"),
    ("-3", "sample count -3 is negative"),
])
def test_check_refuses_too_few_samples_before_evaluating(cw42_file, capsys, monkeypatch,
                                                         samples, message):
    def evaluate(*args, **kwargs):
        raise AssertionError("evaluate_samples ran")

    monkeypatch.setattr(classify, "evaluate_samples", evaluate)
    code, out, err = run(capsys, "check", cw42_file, "--samples", samples)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


def test_check_undetermined_exit_two(tmp_path, capsys):
    path = tmp_path / "r3.metric"
    path.write_text(spec_to_text(fixture("cw4_r3")))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "undetermined"
    assert report["second_block_norms"]["00_a"] > 1e-3


def test_check_parse_error_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.metric"
    path.write_text('[metric]\ndimension = 4\nH = "x9 + u"\n')
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert f"{path}:3:" in err


def test_reports_byte_deterministic(cw42_file, capsys):
    _, out1, _ = run(capsys, "check", cw42_file)
    _, out2, _ = run(capsys, "check", cw42_file)
    assert out1 == out2


def test_check_csv_schema(cw42_file, capsys):
    code, out, _ = run(capsys, "check", cw42_file, "--schema", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("verdict,") for line in out.splitlines())


def test_generate_cw_expansion(capsys):
    code, out, _ = run(capsys, "generate", "cw", "-d", "4", "-r", "2",
                       "--P", "1=1 0; 0 0")
    assert code == 0
    assert 'H = "u * x2^2"' in out


def test_generate_cw_d2(capsys):
    code, out, _ = run(capsys, "generate", "cw", "-d", "2", "-r", "1")
    assert code == 0
    assert "dimension = 2" in out
    assert "H =" not in out      # H identically zero is omitted (defaults to 0)


def test_generate_cw_refuses_a_dimension_a_metric_file_cannot_address(capsys):
    code, out, err = run(capsys, "generate", "cw", "-d", "11", "-r", "1")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: --dimension must be in 2 .. 10 (leaf indices are single digits), got 11"]
    code, out, err = run(capsys, "generate", "cw", "-d", "10", "-r", "2")
    assert (code, err) == (0, "")
    assert "dimension = 10" in out


@pytest.mark.parametrize("order", ["0", "-2"])
def test_generate_cw_refuses_an_order_below_1(capsys, order):
    # a metric file's [generator] order below 1 is refused with the same words
    for extra in ((), ("--P", "0=1 0; 0 1")):
        code, out, err = run(capsys, "generate", "cw", "-d", "4", "--order", order, *extra)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: --order must be >= 1, got {order}"]


@pytest.mark.parametrize("level", ["1", "3", "-1", "x"])
def test_generate_cw_level_outside_the_order_is_an_error(capsys, level):
    code, out, err = run(capsys, "generate", "cw", "-d", "4", "-r", "1", "--P", f"{level}=1 0; 0 1")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: --P '{level}=1 0; 0 1': level '{level}' is outside 0 .. 0 for order 1"]


def test_generate_cw_refuses_non_finite_coefficients(capsys):
    code, out, err = run(capsys, "generate", "cw", "-d", "4", "-r", "1", "--P", "0=1 nan; nan 1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: --P 0: matrix entries must be finite"]


def test_generate_cw_refuses_a_ragged_matrix_by_name(capsys):
    code, out, err = run(capsys, "generate", "cw", "--P", "0=1 2; 3")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: --P 0: malformed matrix (rows of numbers separated by ';')"]


def test_generate_cw_d2_reads_the_empty_matrix(capsys):
    # "" is the 0x0 matrix, as in a .metric file's generator section
    code, out, err = run(capsys, "generate", "cw", "-d", "2", "-r", "1", "--P", "0=")
    assert (code, err) == (0, "")
    assert out == run(capsys, "generate", "cw", "-d", "2", "-r", "1")[1]


@pytest.mark.parametrize("argv", [
    ["transport", "f.metric", "--schema", "json"],
    ["generate", "cw", "--schema", "csv"],
], ids=["transport", "generate"])
def test_schema_is_refused_where_it_would_be_ignored(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --schema" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
def test_generate_product_refuses_a_bad_radius(capsys, cw42_file, radius):
    code, out, err = run(capsys, "generate", "product", "--base", cw42_file, "--radius", radius)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: radius must be finite and positive, got {float(radius)!r}"]


def test_generate_product(tmp_path, capsys, cw42_file):
    code, out, _ = run(capsys, "generate", "product", "--base", cw42_file,
                       "--block", "sphere", "--radius", "1")
    assert code == 0
    assert 'g55 = "sin(x4)^2"' in out


def test_generate_product_refuses_a_dimension_a_metric_file_cannot_address(tmp_path, capsys):
    base = tmp_path / "n8.metric"
    base.write_text("[metric]\ndimension = 8\n")
    code, out, err = run(capsys, "generate", "product", "--base", str(base),
                         "--block", "sphere", "--block", "euclidean")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: product dimension must be in 2 .. 10 (leaf indices are single digits), got 12"]
    code, out, err = run(capsys, "generate", "product", "--base", str(base),
                         "--block", "sphere", "--block", "euclidean", "--radius", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: radius must be finite and positive, got 0.0"]
    code, out, err = run(capsys, "generate", "product", "--base", str(base), "--block", "sphere")
    assert (code, err) == (0, "")
    assert "dimension = 10" in out


def test_generate_then_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "gen.metric"
    code, out, _ = run(capsys, "generate", "cw", "-d", "4", "-r", "2",
                       "--P", "1=1 0; 0 0", "--P", "0=0 0; 0 1",
                       "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "proper_second_symmetric"


def test_oracle_diff_pass(cw42_file, capsys):
    code, out, _ = run(capsys, "oracle-diff", cw42_file, "--samples", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["overall"] < 1e-8
    assert "00_a" in report["max_relative_deviation"]


def test_oracle_diff_flags_corrupted_engine(cw42_file, capsys, monkeypatch):
    # negative control: a deliberately corrupted engine block must be caught
    original = classify.curvature_at

    def corrupted(*args, **kwargs):
        cc = original(*args, **kwargs)
        cc.blocks["A"] = cc.blocks["A"] + 1e-4
        return cc

    monkeypatch.setattr(classify, "curvature_at", corrupted)
    code, out, _ = run(capsys, "oracle-diff", cw42_file, "--samples", "3")
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1e-3"])
def test_check_refuses_a_tol_outside_zero_to_the_detection_floor(cw42_file, capsys, tol):
    code, out, err = run(capsys, "check", cw42_file, "--tol", tol)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: --tol must be finite and in (0, 0.001), the detection floor, got {float(tol)!r}"]


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_oracle_diff_refuses_a_tol_that_is_not_finite_and_positive(cw42_file, capsys, tol):
    code, out, err = run(capsys, "oracle-diff", cw42_file, "--tol", tol)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: --tol must be finite and positive, got {float(tol)!r}"]


def test_oracle_diff_refuses_a_negative_sample_count(cw42_file, capsys):
    code, out, err = run(capsys, "oracle-diff", cw42_file, "--samples", "-3")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: sample count -3 is negative"]


def test_canonicalize_happy_path(tmp_path, capsys):
    path = tmp_path / "scr.metric"
    path.write_text(spec_to_text(fixture("scrambled_cw4")))
    code, out, _ = run(capsys, "canonicalize", str(path), "--steps", "400")
    assert code == 0
    report = json.loads(out)
    assert report["proper"] is True
    assert report["orthogonality_error"] < 1e-8
    assert report["affine_residual"] < 1e-8
    assert len(report["R_samples"]) >= 16
    assert report["essential_parameters"] == 2 - 1 + 2 * 3 // 2


def test_canonicalize_refuses_a_non_affine_A_that_check_passes(aimed_metric, capsys):
    # nabla nabla R vanishes at every default sample, but A(u) on the dense
    # canonical grid is not affine: the worst misfit sits on the box edge
    code, out, _ = run(capsys, "check", aimed_metric)
    assert (code, json.loads(out)["verdict"]) == (0, "proper_second_symmetric")
    code, out, err = run(capsys, "canonicalize", aimed_metric)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["error"] == (
        "precondition failed: A(u) is not affine: affine_residual 2.80e-02 exceeds "
        "AFFINE_TOL * (1 + max|A|) = 2.03e-08, worst at u = 1.0; the residual includes the "
        "RK4 error of 4000 steps of h = 5.00e-04, so a larger --steps tells that error from "
        "a non-affine A(u)")
    assert report["affine_residual"] == pytest.approx(2.80e-2, abs=5e-5)
    assert report["affine_threshold"] == pytest.approx(2.03e-8, abs=5e-11)
    assert report["worst_u"] == 1.0
    assert "A0" not in report and "R_samples" not in report


def test_canonicalize_affine_gate_passes_a_coarse_proper_run(tmp_path, capsys):
    # ten steps leave an RK4 misfit of 4.5e-9 in A(u), under the 2e-8 threshold
    path = tmp_path / "scr.metric"
    path.write_text(spec_to_text(fixture("scrambled_cw4")))
    code, out, _ = run(capsys, "canonicalize", str(path), "--steps", "10")
    assert code == 0
    assert 1e-9 < json.loads(out)["affine_residual"] < 1e-8


def test_canonicalize_names_the_steps_whose_rk4_error_fails_the_affine_gate(tmp_path, capsys):
    # three steps leave an RK4 misfit of 4.1e-7 in A(u) of a proper metric, over
    # the 2e-8 threshold, so the refusal names the steps and h; ten steps pass
    path = tmp_path / "scr.metric"
    path.write_text(spec_to_text(fixture("scrambled_cw4")))
    code, out, err = run(capsys, "canonicalize", str(path), "--steps", "3")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["flags"] == {"steps": 3}
    assert report["error"].startswith("precondition failed: A(u) is not affine: "
                                      "affine_residual 4.10e-07 exceeds ")
    assert report["error"].endswith(
        "; the residual includes the RK4 error of 3 steps of h = 5.33e-01, so a larger "
        "--steps tells that error from a non-affine A(u)")
    code, out, _ = run(capsys, "canonicalize", str(path), "--steps", "10")
    assert (code, json.loads(out)["flags"]) == (0, {"steps": 10})


def test_canonicalize_without_steps_reports_the_steps_it_used(tmp_path, capsys):
    # 2000 steps per unit of u over the box's u range [-0.8, 0.8]
    path = tmp_path / "scr.metric"
    path.write_text(spec_to_text(fixture("scrambled_cw4")))
    code, out, _ = run(capsys, "canonicalize", str(path))
    report = json.loads(out)
    assert (code, report["flags"]) == (0, {"steps": 3200})
    assert len(report["u_samples"]) == 3201


def test_canonicalize_refuses_a_u_interval_outside_the_box(tmp_path, capsys):
    path = tmp_path / "scr.metric"
    path.write_text(spec_to_text(fixture("scrambled_cw4")))
    code, out, err = run(capsys, "canonicalize", str(path), "--u-min", "-2", "--u-max", "0.5")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: u interval (-2.0, 0.5) lies outside the box u in (-0.8, 0.8)"]
    # an end left out is the box edge
    code, out, _ = run(capsys, "canonicalize", str(path), "--u-min", "0.2", "--steps", "100")
    assert code == 0
    us = json.loads(out)["u_samples"]
    assert us[0] == 0.2 and us[-1] == pytest.approx(0.8, abs=1e-15)


def test_canonicalize_refuses_an_empty_u_interval(tmp_path, capsys):
    path = tmp_path / "scr.metric"
    path.write_text(spec_to_text(fixture("scrambled_cw4")))
    code, out, err = run(capsys, "canonicalize", str(path), "--u-min", "0.3", "--u-max", "0.3")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: u interval (0.3, 0.3) is empty"]


def test_canonicalize_precondition_exit_two(tmp_path, capsys):
    path = tmp_path / "r1.metric"
    path.write_text(spec_to_text(fixture("cw4_r1")))
    code, out, _ = run(capsys, "canonicalize", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "locally_symmetric"
    assert "precondition" in report["error"]


def test_transport_csv_outputs(cw42_file, capsys):
    code, out, _ = run(capsys, "transport", cw42_file, "--experiment", "nullsec",
                       "--span", "2", "--steps", "50", "--point", "-1", "0", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,K"
    assert len(lines) == 53  # header + 51 samples + trailing stat
    assert lines[-1].startswith("# max_second_difference,")

    code, out, _ = run(capsys, "transport", cw42_file, "--experiment", "geodesic",
                       "--span", "1", "--steps", "20", "--point", "0", "0", "0")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:5] == ["tau", "u", "v", "x2", "x3"]
    assert header[-2:] == ["energy", "k_pairing"]

    code, out, _ = run(capsys, "transport", cw42_file, "--experiment", "d0",
                       "--span", "1", "--steps", "10")
    assert code == 0
    assert out.splitlines()[0].startswith("u,X0_2")


POLY_SEED2 = os.path.join(os.path.dirname(__file__), os.pardir, "metrics", "poly_seed2.metric")


@pytest.mark.parametrize("experiment", ["d0", "geodesic", "nullsec"])
def test_transport_default_span_ends_on_the_box_edge(capsys, experiment):
    # the box is u in (-0.8, 0.8); a span past its edge leaves the metric's
    # positive-definite region
    code, out, err = run(capsys, "transport", POLY_SEED2, "--experiment", experiment,
                         "--steps", "40")
    assert (code, err) == (0, "")
    rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 41
    # d0 prints u first and the geodesic second; nullsec prints tau, which
    # equals u here because the start point has u = 0 and du/dtau = 1
    last = float(rows[-1].split(",")[1 if experiment == "geodesic" else 0])
    assert last == pytest.approx(0.8, abs=1e-12)


def test_transport_start_point_past_the_box_edge_needs_a_span(cw42_file, capsys):
    code, out, err = run(capsys, "transport", cw42_file, "--point", "1.0", "0", "0")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: --point u = 1.0 is not below the box's upper u edge "
                                "1.0 (box u = -1.0 1.0); give --span"]


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_steps_below_one_is_an_error(cw42_file, capsys, steps):
    for argv in (["canonicalize", cw42_file],
                 ["transport", cw42_file, "--experiment", "d0"],
                 ["transport", cw42_file, "--experiment", "nullsec"]):
        code, out, err = run(capsys, *argv, "--steps", steps)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: steps must be at least 1, got {steps}"]


def test_format_json_fixed_floats():
    text = format_json({"a": 1.0 / 3.0, "b": [1, 2.5], "c": None, "d": True})
    assert "0.33333333333333331" in text
    parsed = json.loads(text)
    assert parsed["b"] == [1, 2.5]
    assert parsed["c"] is None and parsed["d"] is True


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.metric")
    assert code == 1
    assert "error:" in err


def overflow_metric(tmp_path) -> str:
    # exp(800 u) overflows the jets on most of u in [0, 1]
    path = tmp_path / "overflow.metric"
    path.write_text('[metric]\ndimension = 4\nH = "exp(800*u) * x2^2"\n\n'
                    '[box]\nu = 0 1\nx2 = -1 1\nx3 = -1 1\n')
    return str(path)


def test_check_non_finite_agreement_aborts(tmp_path, capsys):
    # no verdict may be printed
    path = overflow_metric(tmp_path)
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    assert "agreement is nan" in err
    assert "worst block" in err and "at sample [" in err


def test_oracle_diff_non_finite_agreement_aborts(tmp_path, capsys):
    # NaN must not pass the max over samples
    code, out, err = run(capsys, "oracle-diff", overflow_metric(tmp_path))
    assert code == 1
    assert out == ""
    assert "agreement is nan" in err
    assert "worst block" in err and "at sample [" in err


def test_non_finite_abort_prints_only_the_error(tmp_path):
    # numpy's overflow warnings must not reach stderr ahead of the located error
    path = overflow_metric(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(brinkmann.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    for command in ("check", "oracle-diff"):
        done = subprocess.run([sys.executable, "-m", "brinkmann.cli", command, path],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: engine/oracle agreement is")


def test_d0_transport_non_finite_t_prints_only_the_error(tmp_path):
    # exp(800 u) in W_2 overflows t^i_j before the curve reaches u = 1
    path = tmp_path / "overflow_w.metric"
    path.write_text('[metric]\ndimension = 4\nW2 = "exp(800*u)*x3"\n\n'
                    '[box]\nu = 0 1\nx2 = -1 1\nx3 = -1 1\n')
    src = os.path.dirname(os.path.dirname(os.path.abspath(brinkmann.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "brinkmann.cli", "transport", str(path),
                           "--experiment", "d0", "--span", "0.5", "--steps", "50"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: non-finite t^i_j in the transverse transport data at u = 0.89"]


METRICS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "metrics")
CW4_ORDER2 = os.path.join(METRICS_DIR, "cw4_order2.metric")
SCRAMBLED_CW4 = os.path.join(METRICS_DIR, "scrambled_cw4.metric")


def run_cli(*argv):
    """The CLI in a fresh process without warning filters, so numpy warnings would show."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(brinkmann.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "brinkmann.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("leaf_part, message", [
    (["1", "2", "3"], "--leaf-part has 3 entries; the leaf dimension m = 2 needs 2"),
    (["nan", "0"], "--leaf-part [nan, 0.0] has a non-finite entry; all m = 2 entries must be "
                   "finite"),
    (["inf", "0"], "--leaf-part [inf, 0.0] has a non-finite entry; all m = 2 entries must be "
                   "finite"),
    (["1e200", "0"], "--leaf-part [1e+200, 0.0] (m = 2) makes the null v-component inf"),
], ids=["count", "nan", "inf", "overflow"])
@pytest.mark.parametrize("experiment", ["geodesic", "nullsec"])
def test_transport_refuses_a_bad_leaf_part(experiment, leaf_part, message):
    done = run_cli("transport", CW4_ORDER2, "--experiment", experiment, "--steps", "5",
                   "--leaf-part", *leaf_part)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("experiment", ["geodesic", "nullsec", "d0"])
def test_transport_refuses_a_point_outside_the_box(experiment):
    done = run_cli("transport", CW4_ORDER2, "--experiment", experiment, "--steps", "5",
                   "--span", "0.1", "--point", "5", "0", "0")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [
        "error: start point u = 5.0 lies outside the box u in [-1.0, 1.0]"]


# One overflowing factor exp(e u) per field; at u = 0.999 and e from 709 the
# u-partial overflows, and from about 710.5 the value too.
OVERFLOWING_FIELDS = {"H": 'H = "exp({e!r} * u) * x2^2 * 0.5"',
                      "W_2": 'W2 = "exp({e!r} * u) * x3 * 0.5"',
                      "g_22": 'g22 = "1 + exp({e!r} * u) * 1e-300"'}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(OVERFLOWING_FIELDS)), st.floats(709.0, 800.0),
       st.sampled_from(["geodesic", "nullsec"]))
def test_transport_refuses_an_overflowing_field_where_it_arises(tmp_path_factory, field,
                                                                exponent, experiment):
    path = tmp_path_factory.mktemp("overflow") / "field.metric"
    path.write_text(f"[metric]\ndimension = 4\n{OVERFLOWING_FIELDS[field].format(e=exponent)}\n"
                    "\n[box]\nu = -1 1\nx2 = -1 1\nx3 = -1 1\n")
    out, err = io.StringIO(), io.StringIO()
    # a numpy warning would raise here: the suite turns RuntimeWarnings into errors
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["transport", str(path), "--experiment", experiment, "--point", "0.999",
                     "0.5", "0.5", "--span", "0.0005", "--steps", "2"])
    assert (code, out.getvalue()) == (1, "")
    assert re.fullmatch(rf"error: non-finite (d/du of )?{field} at \(0\.999, 0\.5, 0\.5\)\n",
                        err.getvalue())


# The same factors on the plane wave H = u x3^2.  In H and W_2 the curvature
# jets overflow at the samples; in g_22 (times 1e-300) only above u = 0.87 or
# so, past every sample, so check reports and canonicalize meets the overflow
# on its u grid.
OVERFLOWING_PLANE_WAVES = {"H": 'H = "exp({e!r} * u) * x2^2 * 0.5 + u * x3^2"',
                           "W_2": 'H = "u * x3^2"\nW2 = "exp({e!r} * u) * x3 * 0.5"',
                           "g_22": 'H = "u * x3^2"\ng22 = "1 + exp({e!r} * u) * 1e-300"'}
# Report keys whose null is part of the schema, not a non-finite number.
NULL_BY_SCHEMA = {"zero_cluster", "atil_on_flat_block"}
LOCATED_OVERFLOW = re.compile(
    r"error: (engine/oracle agreement is nan \(worst block \w+ at sample \[[^]]+\]\): .*"
    r"|non-finite tdot in the flat-block data at u = [-+.e\d]+)\n")


def _only_finite_numbers(value, key=None) -> bool:
    if isinstance(value, dict):
        return all(_only_finite_numbers(v, k) for k, v in value.items())
    if isinstance(value, list):
        return all(_only_finite_numbers(v, key) for v in value)
    if value is None:
        return key in NULL_BY_SCHEMA
    return not isinstance(value, float) or bool(np.isfinite(value))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(OVERFLOWING_PLANE_WAVES)), st.floats(709.0, 800.0))
def test_an_overflow_in_check_or_canonicalize_is_located_never_a_verdict(tmp_path_factory, field,
                                                                       exponent):
    path = tmp_path_factory.mktemp("overflow") / "field.metric"
    path.write_text(f"[metric]\ndimension = 4\n"
                    f"{OVERFLOWING_PLANE_WAVES[field].format(e=exponent)}\n"
                    "\n[box]\nu = -1 1\nx2 = -1 1\nx3 = -1 1\n")
    codes = []
    for command in ("check", "canonicalize"):
        out, err = io.StringIO(), io.StringIO()
        # a numpy warning would raise here: the suite turns RuntimeWarnings into errors
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main([command, str(path)]))
        if codes[-1] == 1:
            assert out.getvalue() == ""
            assert LOCATED_OVERFLOW.fullmatch(err.getvalue()), err.getvalue()
        else:
            assert err.getvalue() == ""
            # json.loads reads NaN and Infinity too; none may appear, and null
            # only where the schema puts it
            report = json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(c))
            assert _only_finite_numbers(report)
    assert codes == ([0, 1] if field == "g_22" else [1, 1])


def _null_paths(value, path=""):
    """Dotted paths of the nulls in a report (list entries share their list's path)."""
    if isinstance(value, dict):
        return {p for k, v in value.items() for p in _null_paths(v, f"{path}.{k}".lstrip("."))}
    if isinstance(value, list):
        return {p for v in value for p in _null_paths(v, path)}
    return {path} if value is None else set()


BUNDLED = sorted(name[:-len(".metric")] for name in os.listdir(METRICS_DIR)
                 if name.endswith(".metric"))
# Bundled metrics whose Ricci split has no zero-eigenvalue (flat) cluster.
NO_FLAT_CLUSTER = {"poly_seed1", "poly_seed2"}


@pytest.mark.parametrize("name", BUNDLED)
def test_no_report_field_is_always_null(name, capsys):
    # A key that reads null on every bundled metric reports nothing; the
    # Eisenhart keys are null exactly where there is no flat cluster
    path = os.path.join(METRICS_DIR, f"{name}.metric")
    for argv in (["check", path, "--samples", "4", "--depth", "1"],
                 ["check", path, "--samples", "4", "--depth", "2"],
                 ["oracle-diff", path, "--samples", "4"],
                 ["canonicalize", path]):
        main(argv)
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == cli.SCHEMA_VERSION
        nulls = _null_paths(report)
        if argv[0] == "check" and name in NO_FLAT_CLUSTER:
            assert nulls == {"eisenhart.zero_cluster", "eisenhart.atil_on_flat_block"}
        else:
            assert nulls == set(), argv


@pytest.mark.parametrize("point", [["0", "0"], ["0", "0", "0", "0"]], ids=["short", "long"])
@pytest.mark.parametrize("experiment", ["geodesic", "d0"])
def test_transport_refuses_a_point_with_the_wrong_entry_count(experiment, point, capsys):
    code, out, err = run(capsys, "transport", CW4_ORDER2, "--experiment", experiment,
                         "--steps", "5", "--point", *point)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: --point has {len(point)} entries; a start point in dimension n = 4 needs "
        "n - 1 = 1 + m = 3: u, x2, x3"]


def test_transport_accepts_a_point_on_the_box_edge(capsys):
    # u and x3 start on their lower edges; x3'' = -2 x3 turns the path inward
    code, out, err = run(capsys, "transport", CW4_ORDER2, "--experiment", "geodesic",
                         "--steps", "5", "--span", "0.1", "--point", "-1", "0", "-1")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 7


@pytest.mark.parametrize("experiment", ["geodesic", "nullsec"])
def test_transport_refuses_a_geodesic_node_outside_the_box(experiment):
    # the leaf part throws x2 to 1.7e148 at stage 2 of the first step; no row is printed
    done = run_cli("transport", CW4_ORDER2, "--experiment", experiment, "--steps", "3",
                   "--span", "0.1", "--leaf-part", "1e150", "0")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [
        "error: geodesic step 1 stage 2, tau = 0.016666666666666666, "
        "x2 = 1.6666666666666666e+148 lies outside the box x2 in [-1.0, 1.0]"]


@pytest.mark.parametrize("experiment", ["geodesic", "nullsec", "d0"])
def test_transport_refuses_a_node_outside_the_box_before_a_pole_past_it(tmp_path, experiment,
                                                                         capsys):
    # H has a pole on u = 2; geodesic stage u = 1.25 and d0 node u = 1.5 are
    # refused before anything is evaluated past the box
    path = tmp_path / "pole.metric"
    path.write_text('[metric]\ndimension = 4\nH = "x2^2 / (u - 2)"\n\n'
                    '[box]\nu = -1 1\nx2 = -1 1\nx3 = -1 1\n')
    code, out, err = run(capsys, "transport", str(path), "--experiment", experiment,
                         "--span", "4", "--steps", "8", "--point", "0", "0.5", "0")
    where = "d0 curve at u = 1.5" if experiment == "d0" else \
        "geodesic step 3 stage 2, tau = 1.25, u = 1.25"
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {where} lies outside the box u in [-1.0, 1.0]"]


@pytest.mark.parametrize("point, name, value", [
    (["0", "nan", "0"], "x2", "nan"),
    (["inf", "0", "0"], "u", "inf"),
    (["0", "0", "-inf"], "x3", "-inf"),
])
@pytest.mark.parametrize("experiment", ["geodesic", "d0"])
def test_transport_refuses_a_non_finite_point_naming_the_coordinate(experiment, point, name,
                                                                    value, capsys):
    code, out, err = run(capsys, "transport", CW4_ORDER2, "--experiment", experiment,
                         "--steps", "3", "--span", "0.1", "--point", *point)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: --point {name} = {value} is not finite; a start point needs finite coordinates"]


def test_transport_d0_refuses_a_u_range_outside_the_box(monkeypatch, capsys):
    # scrambled_cw4's box is u in [-0.8, 0.8]; the metric is never evaluated
    def no_evaluation(*args, **kwargs):
        raise AssertionError("metric evaluated")

    monkeypatch.setattr(transport, "eval_metric", no_evaluation)
    code, out, err = run(capsys, "transport", SCRAMBLED_CW4, "--experiment", "d0",
                         "--steps", "4", "--span", "5")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: d0 curve at u = 1.25 lies outside the box u in [-0.8, 0.8]"]


def test_transport_refuses_a_stage_outside_the_box_before_evaluating_it(tmp_path, capsys):
    # the first step's stage 4 lands on x2 = -4e94, where H = 1e200 x2^2 overflows
    path = tmp_path / "steep.metric"
    path.write_text('[metric]\ndimension = 4\nH = "1e200*x2^2 + x3^2"\n\n'
                    '[box]\nu = -1 1\nx2 = -1 1\nx3 = -1 1\n')
    code, out, err = run(capsys, "transport", str(path), "--steps", "50",
                         "--leaf-part", "1e-100", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: geodesic step 1 stage 4, tau = 0.02, x2 = -4.000000000000001e+94 lies outside "
        "the box x2 in [-1.0, 1.0]"]


def test_nullsec_refuses_a_non_finite_curvature_naming_the_node(tmp_path):
    # G is finite on this box (exp(10 u) is about 1e307) but R, from the second
    # u-derivative 100 exp(10 u), overflows; geodesic and d0 need no R
    path = tmp_path / "overflow.metric"
    path.write_text('[metric]\ndimension = 4\nH = "exp(10*u)*x2^2 + x3^2"\n\n'
                    '[box]\nu = 70.70 70.72\nx2 = -1 1\nx3 = -1 1\n')
    results = {}
    for experiment in ("geodesic", "d0", "nullsec"):
        out, err = io.StringIO(), io.StringIO()
        # a numpy warning would raise here: the suite turns RuntimeWarnings into errors
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["transport", str(path), "--experiment", experiment, "--steps", "4",
                         "--span", "0.01"])
        results[experiment] = code, err.getvalue()
    assert out.getvalue() == ""
    assert results == {"geodesic": (0, ""), "d0": (0, ""), "nullsec": (
        1, "error: null sectional curvature K = nan is not finite at node 0, tau = 0.0, "
           "coordinates (70.71000000000001, 0.0, 0.0, 0.0)\n")}


def _assert_evaluations_in_the_box(path, argv, monkeypatch, capsys):
    """Every point where a transport run evaluates the metric or its Christoffel
    symbols lies in the box, up to the rounding of its steps; a run that ends
    prints no null."""
    steps = 8
    points = []
    for name in ("christoffel_values", "metric_values"):
        real = getattr(transport, name)
        monkeypatch.setattr(transport, name, lambda spec, c, real=real:
                            points.append([c[0], *c[2:]]) or real(spec, c))
    code, out, err = run(capsys, "transport", path, *argv, "--steps", str(steps))
    lo, hi = transport._box_edges(metricfile.load_metric_file(path).box, steps)
    assert points
    assert ((lo <= np.array(points)) & (np.array(points) <= hi)).all()
    if code == 0:
        assert err == ""
        assert "null" not in out.replace("\n", ",").split(",")
    else:
        assert (code, out) == (1, "")


def _bundled_transport_runs():
    """(metric path, argv): geodesic and nullsec on every bundled metric, with
    and without a leaf part."""
    runs = []
    for name in BUNDLED:
        path = os.path.join(METRICS_DIR, f"{name}.metric")
        leaf_part = ["--leaf-part", *["0.3"] * metricfile.load_metric_file(path).m]
        for experiment in ("geodesic", "nullsec"):
            runs += [(path, ["--experiment", experiment]),
                     (path, ["--experiment", experiment, *leaf_part])]
    return runs


@pytest.mark.parametrize("path, argv", _bundled_transport_runs())
def test_no_transport_evaluation_leaves_the_box(path, argv, monkeypatch, capsys):
    _assert_evaluations_in_the_box(path, argv, monkeypatch, capsys)


@pytest.mark.parametrize("experiment", ["geodesic", "nullsec"])
def test_no_transport_evaluation_reaches_a_pole_past_the_box(experiment, tmp_path, monkeypatch,
                                                             capsys):
    # the run is refused at u = 1.25, a stage short of the pole on u = 2
    path = tmp_path / "pole.metric"
    path.write_text('[metric]\ndimension = 4\nH = "x2^2 / (u - 2)"\n\n'
                    '[box]\nu = -1 1\nx2 = -1 1\nx3 = -1 1\n')
    _assert_evaluations_in_the_box(str(path), ["--experiment", experiment, "--span", "4",
                                               "--point", "0", "0.5", "0"],
                                   monkeypatch, capsys)


NULLSEC_WITHOUT_LEAF = "error: nullsec needs a leaf direction X = d/dx2, and this chart has " \
                       "none (m = 0)"


def test_nullsec_on_a_two_dimensional_chart_is_one_error_line(cw2_file):
    done = run_cli("transport", cw2_file, "--experiment", "nullsec", "--steps", "5")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [NULLSEC_WITHOUT_LEAF]
    assert "Traceback" not in done.stderr


def test_nullsec_without_leaf_is_refused_before_integrating(cw2_file, capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("the geodesic was integrated")

    monkeypatch.setattr(cli, "geodesic_integrate", integrate)
    code, out, err = run(capsys, "transport", cw2_file, "--experiment", "nullsec")
    assert (code, out) == (1, "")
    assert err.splitlines() == [NULLSEC_WITHOUT_LEAF]


def test_transport_d0_refuses_a_leaf_part():
    done = run_cli("transport", SCRAMBLED_CW4, "--experiment", "d0", "--steps", "4",
                   "--leaf-part", "1", "2", "3", "nan")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [
        "error: --leaf-part sets the initial null velocity of the geodesic and nullsec "
        "experiments; --experiment d0 takes none"]


@pytest.mark.parametrize("name", sorted(p[:-len(".metric")] for p in os.listdir(METRICS_DIR)))
def test_default_transport_stays_in_the_box(name, capsys):
    # 1000 steps to the box's upper u edge: the last node's u may round past it
    code, out, err = run(capsys, "transport", os.path.join(METRICS_DIR, name + ".metric"))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1002


@pytest.mark.parametrize("experiment, lines", [("nullsec", 23), ("d0", 22)])
@pytest.mark.parametrize("name", sorted(p[:-len(".metric")] for p in os.listdir(METRICS_DIR)))
def test_default_transport_experiments_run_on_every_bundled_metric(name, experiment, lines, capsys):
    code, out, err = run(capsys, "transport", os.path.join(METRICS_DIR, name + ".metric"),
                         "--experiment", experiment, "--steps", "20")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == lines


def test_pole_error_names_field_and_point(tmp_path):
    # H = 1/x2 has a pole on x2 = 0, which passes through the box centre
    path = tmp_path / "pole.metric"
    path.write_text('[metric]\ndimension = 4\nH = "1/x2"\n\n'
                    '[box]\nu = -1 1\nx2 = -1 1\nx3 = -1 1\n')
    src = os.path.dirname(os.path.dirname(os.path.abspath(brinkmann.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for command in ("check", "transport"):
        done = subprocess.run([sys.executable, "-m", "brinkmann.cli", command, str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: division by a jet with zero constant term in H at (0.0, 0.0, 0.0)"]


SPELLINGS = ["-1e-3", "-1E-3", "-.5", "-1_000.5", "-1e+2", "-inf", "-Infinity", "-nan"]


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("argv, dest", [
    (["transport", "f", "--point", "{}", "0", "0"], "point"),
    (["transport", "f", "--leaf-part", "{}", "0"], "leaf_part"),
    (["transport", "f", "--span", "{}"], "span"),
    (["check", "f", "--tol", "{}"], "tol"),
    (["oracle-diff", "f", "--tol", "{}"], "tol"),
    (["canonicalize", "f", "--u-min", "{}"], "u_min"),
    (["canonicalize", "f", "--u-max", "{}"], "u_max"),
    (["generate", "product", "--radius", "{}"], "radius"),
])
def test_float_options_read_every_float_spelling(argv, dest, spelling):
    # argparse alone reads -1e-3 or -inf as an option name and exits with 2
    value = getattr(cli.build_parser().parse_args([a.format(spelling) for a in argv]), dest)
    assert repr(value[0] if isinstance(value, list) else value) == repr(float(spelling))


POLY_SEED2 = os.path.join(METRICS_DIR, "poly_seed2.metric")
# a start point whose third coordinate prints in scientific notation
SCIENTIFIC_POINT = ["-0.2969155488678219", "0.12506380298386227", "-4.427107922808205e-05",
                    "0.08658855951225602"]


def test_transport_point_in_scientific_notation_equals_positional(capsys):
    argv = ["transport", POLY_SEED2, "--span", "0.7", "--steps", "20", "--point"]
    positional = [np.format_float_positional(float(x)) for x in SCIENTIFIC_POINT]
    assert positional[2] == "-0.00004427107922808205"
    code, out, err = run(capsys, *argv, *SCIENTIFIC_POINT)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, *positional) == (code, out, err)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))))
def test_transport_reads_any_point_in_the_box(point):
    # repr of a float in the box (subnormals, -0.0 and exponents included) is a
    # value, never an option name: exit 0, or 1 with a located error once a
    # node or an RK4 stage passes the u edge, and never SystemExit
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["transport", CW4_ORDER2, "--steps", "2", "--span", "0.05",
                     "--point", *map(repr, point)])
    if code == 0:
        assert err.getvalue() == "" and len(out.getvalue().splitlines()) == 4
    else:
        assert (code, out.getvalue()) == (1, "")
        assert re.match(r"error: geodesic (node \d+|step \d+ stage \d), tau = ", err.getvalue())
