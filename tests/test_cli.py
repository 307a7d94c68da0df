import json
import os
import subprocess
import sys

import numpy as np
import pytest

import brinkmann
from brinkmann import classify
from brinkmann.cli import format_json, main
from brinkmann.metricfile import spec_to_text
from brinkmann.spaces import fixture


@pytest.fixture()
def cw42_file(tmp_path):
    path = tmp_path / "cw42.metric"
    path.write_text(spec_to_text(fixture("cw4_r2")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_verdict_and_exit_code(cw42_file, capsys):
    code, out, _ = run(capsys, "check", cw42_file)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 2
    assert report["verdict"] == "proper_second_symmetric"
    assert set(report["residuals"]) == {"R", "nabla_R", "nabla2_R"}
    assert report["structural_checks"]["scalar_constant"] is True
    assert report["A_tilde"]["d0_parallel"] is True
    assert report["eisenhart"]["partition"] == [[2, 3]]


def test_check_flat_exit_zero(tmp_path, capsys):
    path = tmp_path / "flat.metric"
    path.write_text(spec_to_text(fixture("flat")))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "flat"


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


def test_generate_product(tmp_path, capsys, cw42_file):
    code, out, _ = run(capsys, "generate", "product", "--base", cw42_file,
                       "--block", "sphere", "--radius", "1")
    assert code == 0
    assert 'g55 = "sin(x4)^2"' in out


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
    original = classify._engine_blocks

    def corrupted(cc, depth):
        out = original(cc, depth)
        out["A"] = np.asarray(out["A"]) + 1e-4
        return out

    monkeypatch.setattr(classify, "_engine_blocks", corrupted)
    code, out, _ = run(capsys, "oracle-diff", cw42_file, "--samples", "3")
    assert code == 1
    assert json.loads(out)["pass"] is False


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
                       "--span", "2", "--steps", "50", "--point", "0", "0", "0")
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
