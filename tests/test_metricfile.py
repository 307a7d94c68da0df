import numpy as np
import pytest

from brinkmann import expr
from brinkmann.chart import ChartPoint
from brinkmann.curvature import curvature_at
from brinkmann.metricfile import (MetricFileError, generator_to_text, parse_metric_text,
                                  spec_to_text)
from brinkmann.spaces import CwParams, fixture, make_cw


CW_TEXT = """
# comment
schema = 1

[metric]
dimension = 4
H = "u*x2^2 + x3^2"

[box]
u = -0.5 0.5
"""


def test_parse_basic():
    spec = parse_metric_text(CW_TEXT)
    assert spec.n == 4
    assert spec.box[0] == (-0.5, 0.5)
    assert spec.box[1] == (-1.0, 1.0)
    assert expr.eval_scalar(spec.H, {"u": 2.0, "x2": 1.0, "x3": 3.0}) == 11.0


def test_roundtrip_through_text():
    spec = fixture("cw4_r2_x_sphere")
    text = spec_to_text(spec)
    back = parse_metric_text(text)
    assert back.n == spec.n
    assert back.box == spec.box
    p = ChartPoint(0.2, (0.3, -0.1, 1.0, 0.4))
    a = curvature_at(spec, p, depth=1)
    b = curvature_at(back, p, depth=1)
    assert np.allclose(a.blocks["A"], b.blocks["A"])
    assert np.allclose(a.blocks["Atil"], b.blocks["Atil"])


def test_generator_section_equals_explicit():
    params = CwParams(4, (np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
    gen_spec = parse_metric_text(generator_to_text(params))
    exp_spec = make_cw(params)
    p = ChartPoint(0.4, (0.2, -0.3))
    a = curvature_at(gen_spec, p, depth=1)
    b = curvature_at(exp_spec, p, depth=1)
    assert np.allclose(a.blocks["A"], b.blocks["A"])
    assert np.allclose(a.blocks["Atil"], b.blocks["Atil"])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generator_text_round_trips(d):
    # d = 2 writes each P as "", the 0x0 matrix
    rng = np.random.default_rng(d)
    coeffs = []
    for _ in range(2):
        P = rng.normal(size=(d - 2, d - 2))
        coeffs.append(P + P.T)
    params = CwParams(d, tuple(coeffs))
    back = parse_metric_text(generator_to_text(params))
    assert spec_to_text(back) == spec_to_text(make_cw(params))


def test_generator_with_product():
    params = CwParams(4, (np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
    text = generator_to_text(params, products=[("sphere", 1.0)])
    spec = parse_metric_text(text)
    assert spec.n == 6
    assert spec.box[3] == (0.3, 2.8)


@pytest.mark.parametrize("rows, message", [
    ("1 2; 3", "malformed matrix (rows of numbers separated by ';')"),
    ("1 0", "matrix must be 2x2, got (1, 2)"),
    ("1 nan; nan 1", "matrix entries must be finite"),
    ("1 2; 3 1", "matrix must be symmetric"),
])
def test_generator_matrix_errors_carry_the_entry_position(rows, message):
    # the reader generate --P shares; here its errors are located at the entry
    text = f'[generator]\nkind = cw\ndimension = 4\norder = 1\nP0 = "{rows}"\n'
    with pytest.raises(MetricFileError) as err:
        parse_metric_text(text, filename="f.metric")
    assert str(err.value) == f"f.metric:5:7: {message}"


def test_error_positions_and_messages():
    with pytest.raises(MetricFileError) as err:
        parse_metric_text('[metric]\ndimension = 4\nH = "x9"\n', filename="f.metric")
    assert "f.metric:3:" in str(err.value)
    with pytest.raises(MetricFileError, match="either explicit"):
        parse_metric_text('[metric]\ndimension = 4\nH = "u"\n[generator]\nkind = cw\n'
                          'dimension = 4\norder = 1\n')
    with pytest.raises(MetricFileError, match="duplicate key"):
        parse_metric_text('[metric]\ndimension = 4\nH = "u"\nH = "u"\n')
    with pytest.raises(MetricFileError, match="unterminated"):
        parse_metric_text('[metric]\ndimension = 4\nH = "u\n')
    with pytest.raises(MetricFileError, match="conflicting"):
        parse_metric_text('[metric]\ndimension = 4\ng23 = "u"\ng32 = "1"\n')
    with pytest.raises(MetricFileError, match="outside"):
        parse_metric_text('[metric]\ndimension = 4\nW7 = "u"\n')
    with pytest.raises(MetricFileError, match="lo < hi"):
        parse_metric_text(CW_TEXT.replace("-0.5 0.5", "0.5 -0.5"))
    with pytest.raises(MetricFileError, match="unknown box"):
        parse_metric_text(CW_TEXT.replace("u = -0.5 0.5", "x9 = 0 1"))
    with pytest.raises(MetricFileError, match="section header"):
        parse_metric_text("[metric\ndimension = 4\n")
    with pytest.raises(MetricFileError, match="key = value"):
        parse_metric_text("[metric]\ndimension 4\n")


def test_expression_error_column_points_into_string():
    text = '[metric]\ndimension = 4\nH = "u + x9"\n'
    with pytest.raises(MetricFileError) as err:
        parse_metric_text(text, filename="m.metric")
    # the bad identifier starts at offset 4 in the expression
    line = text.splitlines()[2]
    expected_col = line.index('"') + 2 + 4
    assert err.value.line == 3
    assert err.value.col == expected_col


def test_symmetric_g_duplicate_consistent_ok():
    spec = parse_metric_text('[metric]\ndimension = 4\ng23 = "u"\ng32 = "u"\n')
    assert expr.to_text(spec.g[0][1]) == "u"


@pytest.mark.parametrize("head", ["[metric]\n", "[generator]\nkind = cw\norder = 1\n"])
def test_a_dimension_the_format_cannot_address_is_refused_where_it_is_written(head):
    # g keys carry single-digit leaf indices, so 10 is the largest dimension a file
    # can write; a larger one is refused before its m^2 entries are built
    line = head.count("\n") + 1
    for n in (11, 1000, 1):
        with pytest.raises(MetricFileError) as err:
            parse_metric_text(f"{head}dimension = {n}\n", filename="f.metric")
        assert str(err.value) == (f"f.metric:{line}:13: dimension must be in 2 .. 10 "
                                  f"(leaf indices are single digits), got {n}")
    assert parse_metric_text(f"{head}dimension = 10\n").n == 10


def test_the_largest_dimension_addresses_its_last_leaf_entry():
    spec = parse_metric_text('[metric]\ndimension = 10\nW9 = "u"\ng99 = "2"\n')
    assert (expr.to_text(spec.W[7]), expr.to_text(spec.g[7][7])) == ("u", "2.0")


def test_generator_validation():
    with pytest.raises(MetricFileError, match="kind"):
        parse_metric_text("[generator]\nkind = nope\ndimension = 4\norder = 1\n")
    with pytest.raises(MetricFileError, match="order"):
        parse_metric_text("[generator]\nkind = cw\ndimension = 4\norder = 0\n")
    with pytest.raises(MetricFileError, match="symmetric"):
        parse_metric_text('[generator]\nkind = cw\ndimension = 4\norder = 1\n'
                          'P0 = "1 2; 0 1"\n')
    with pytest.raises(MetricFileError, match="4x4|2x2"):
        parse_metric_text('[generator]\nkind = cw\ndimension = 4\norder = 1\n'
                          'P0 = "1 0 0; 0 1 0; 0 0 1"\n')


@pytest.mark.parametrize("bounds, bad", [("a 1", "a"), ("-1 b", "b"), ("-inf inf", "-inf"),
                                         ("0 nan", "nan"), ("-1 1e999", "1e999")])
def test_box_bounds_must_be_finite_numbers(bounds, bad):
    text = CW_TEXT.replace("u = -0.5 0.5", f"u = {bounds}")
    with pytest.raises(MetricFileError) as err:
        parse_metric_text(text, filename="b.metric")
    assert str(err.value) == f"b.metric:10:5: expected a finite number, got {bad!r}"


@pytest.mark.parametrize("radius, reason", [
    ("nan", "expected a finite number, got 'nan'"),
    ("inf", "expected a finite number, got 'inf'"),
    ("0", "radius must be finite and positive, got 0.0"),
    ("-2", "radius must be finite and positive, got -2.0"),
])
def test_product_radius_error_is_positioned_at_the_radius(radius, reason):
    text = generator_to_text(CwParams(4, (np.diag([1.0, 0.0]),))) + (
        f"\n[product]\nkind = sphere\nradius = {radius}\n")
    line = text.splitlines().index(f"radius = {radius}") + 1
    with pytest.raises(MetricFileError) as err:
        parse_metric_text(text, filename="p.metric")
    assert str(err.value) == f"p.metric:{line}:10: {reason}"


def test_generator_matrix_must_be_finite():
    with pytest.raises(MetricFileError, match=r":5:7: matrix entries must be finite$"):
        parse_metric_text('[generator]\nkind = cw\ndimension = 4\norder = 1\n'
                          'P0 = "1 nan; nan 1"\n')
