import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brinkmann import expr as E
from brinkmann import jets as J
from brinkmann.chart import MetricSpec, eval_metric
from brinkmann.metricfile import load_metric_file
from brinkmann.spaces import random_polynomial_spec


def ev(text, n=4, **vals):
    return E.eval_scalar(E.parse(text, n), vals)


def test_basic_eval():
    assert ev("u*x2^2 + 3", u=2, x2=3) == 21.0
    assert ev("-u^2", u=3) == -9.0            # ^ binds tighter than unary minus
    assert ev("2*u^-1", u=4) == 0.5
    assert ev("sin(u)/x2", u=0.5, x2=2.0) == pytest.approx(math.sin(0.5) / 2.0)
    assert ev("1 - 2 - 3") == -4.0            # left associativity
    assert ev("12/2/3") == 2.0
    assert ev("2 + 3 * 4") == 14.0
    assert ev("(u^2)^2", u=2) == 16.0


def test_error_positions():
    with pytest.raises(E.ParseError) as err:
        E.parse("x9", 4)
    assert err.value.offset == 0
    with pytest.raises(E.ParseError) as err:
        E.parse("u + x9", 4)
    assert err.value.offset == 4
    with pytest.raises(E.ParseError, match="v-independent"):
        E.parse("v + u", 4)
    with pytest.raises(E.ParseError, match="integer exponent"):
        E.parse("u^x2", 4)
    with pytest.raises(E.ParseError, match="[Nn]on-integer"):
        E.parse("u^1.5", 4)
    with pytest.raises(E.ParseError):
        E.parse("sin(u", 4)
    with pytest.raises(E.ParseError):
        E.parse("u *", 4)
    with pytest.raises(E.ParseError):
        E.parse("foo(u)", 4)
    with pytest.raises(E.ParseError) as err:
        E.parse("u + @", 4)
    assert err.value.offset == 4


def test_dimension_gates_variables():
    E.parse("x5", 7)
    with pytest.raises(E.ParseError):
        E.parse("x5", 5)


def test_jet_eval_examples():
    env = {"x2": J.seed(1, 1.0, 3, 2), "u": J.seed(0, 0.0, 3, 2),
           "x3": J.seed(2, 0.0, 3, 2)}
    jt = E.eval_jet(E.parse("x2^2", 4), env, 3, 2)
    assert jt.value() == 1.0
    assert jt.partial((0, 1, 0)) == 2.0
    assert jt.partial((0, 2, 0)) == 2.0
    env0 = {"u": J.seed(0, 0.0, 3, 2), "x2": J.seed(1, 0.0, 3, 2),
            "x3": J.seed(2, 0.0, 3, 2)}
    mixed = E.eval_jet(E.parse("u*x2", 4), env0, 3, 2)
    nonzero = {tuple(e): c for e, c in zip(mixed.ctx.exps, mixed.data) if c != 0.0}
    assert nonzero == {(1, 1, 0): 1.0}
    env3 = {name: J.seed(k, 0.0, 3, 3) for k, name in enumerate(("u", "x2", "x3"))}
    ex = E.eval_jet(E.parse("exp(u)", 4), env3, 3, 3)
    assert [ex.partial((k, 0, 0)) for k in range(4)] == pytest.approx([1, 1, 1, 1])


def test_jet_division_by_zero_at_point():
    env = {"u": J.seed(0, 0.3, 2, 2), "x2": J.seed(1, 0.0, 2, 2)}
    with pytest.raises(J.JetDomainError):
        E.eval_jet(E.parse("sin(u)/x2", 3), env, 2, 2)


# -- round-trip property -------------------------------------------------------


def _ast_strategy(n=4, depth=3):
    leaves = st.one_of(
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(lambda v: E.Num(round(v, 3))),
        st.sampled_from([E.Var(name) for name in E.var_names(n)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: E.Bin(t[0], t[1], t[2])),
            children.map(E.Neg),
            st.tuples(children, st.integers(0, 3)).map(lambda t: E.Pow(t[0], t[1])),
            st.tuples(st.sampled_from(E.FUNCTIONS), children).map(
                lambda t: E.Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=depth * 4)


@settings(max_examples=200, deadline=None)
@given(_ast_strategy())
def test_print_parse_roundtrip(ast):
    # normalize into the parser's image first (e.g. Neg(Num) folds to a
    # negative literal), then printing and reparsing must be the identity
    normal = E.parse(E.to_text(ast), 4)
    assert E.parse(E.to_text(normal), 4) == normal


# -- numerical agreement -------------------------------------------------------


def _random_poly_text(rng, names, terms=6):
    parts = []
    for _ in range(terms):
        coeff = f"{rng.uniform(-2, 2):.4f}"
        factors = [coeff] + list(rng.choice(names, size=rng.integers(0, 3)))
        parts.append("*".join(factors))
    return " + ".join(parts)


def test_jet_eval_order_zero_equals_scalar():
    rng = np.random.default_rng(7)
    names = E.var_names(5)
    for _ in range(200):
        text = _random_poly_text(rng, names)
        ast = E.parse(text, 5)
        vals = {name: rng.uniform(-1, 1) for name in names}
        env = {name: J.seed(k, vals[name], len(names), 0)
               for k, name in enumerate(names)}
        jet = E.eval_jet(ast, env, len(names), 0)
        assert jet.value() == E.eval_scalar(ast, vals)


def test_jet_partials_match_finite_differences():
    rng = np.random.default_rng(8)
    names = E.var_names(4)
    step = 1e-4
    for _ in range(60):
        ast = E.parse(_random_poly_text(rng, names), 4)
        vals = {name: rng.uniform(-1, 1) for name in names}
        env = {name: J.seed(k, vals[name], 3, 2) for k, name in enumerate(names)}
        jet = E.eval_jet(ast, env, 3, 2)
        for k, name in enumerate(names):
            hi = dict(vals); hi[name] += step
            lo = dict(vals); lo[name] -= step
            fd = (E.eval_scalar(ast, hi) - E.eval_scalar(ast, lo)) / (2 * step)
            alpha = [0, 0, 0]
            alpha[k] = 1
            assert jet.partial(tuple(alpha)) == pytest.approx(fd, abs=1e-6)


# -- compiled tape ---------------------------------------------------------------

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


def _spec_fields(spec):
    return [spec.H, *spec.W, *(e for row in spec.g for e in row)]


def _tape_specs():
    specs = [load_metric_file(str(path)) for path in sorted(METRICS.glob("*.metric"))]
    assert len(specs) == 11
    return specs + [random_polynomial_spec(seed, n=n) for seed, n in ((3, 4), (11, 5))]


def _env(spec, point, order):
    names = E.var_names(spec.n)
    return {name: J.seed(k, c, spec.num_vars, order)
            for k, (name, c) in enumerate(zip(names, point))}


@pytest.mark.parametrize("order", range(5))
def test_spec_tape_is_bitwise_equal_to_single_expressions(order):
    rng = np.random.default_rng(order)
    for spec in _tape_specs():
        lo, hi = np.array(spec.box).T
        point = lo + (hi - lo) * rng.uniform(0.25, 0.75, size=spec.num_vars)
        env = _env(spec, point, order)
        whole = E.eval_jet(spec.tape, env, spec.num_vars, order)
        alone = [E.eval_jet(node, env, spec.num_vars, order) for node in _spec_fields(spec)]
        assert len(whole) == len(alone)
        for a, b in zip(whole, alone):
            assert a.ctx is b.ctx
            assert a.data.tobytes() == b.data.tobytes()


def _tree_size(node) -> int:
    if isinstance(node, (E.Num, E.Var)):
        return 1
    if isinstance(node, E.Bin):
        return 1 + _tree_size(node.left) + _tree_size(node.right)
    return 1 + _tree_size(node.base if isinstance(node, E.Pow) else node.arg)


def test_tape_is_smaller_than_the_trees():
    for spec in _tape_specs():
        assert len(spec.tape) < sum(_tree_size(node) for node in _spec_fields(spec))


def test_tape_shares_subtrees_across_fields(monkeypatch):
    spec = load_metric_file(str(METRICS / "scrambled_cw4.metric"))
    # cos(0.3 * u) appears in H, both W_i and every g_ij
    assert all("cos(0.3 * u)" in E.to_text(node) for node in _spec_fields(spec))
    eval_metric(spec, spec.center(), 2)
    calls = []
    real = J.cos
    monkeypatch.setattr(J, "cos", lambda a: calls.append(a) or real(a))
    eval_metric(spec, spec.center(), 2)
    assert len(calls) == 1


def test_tape_keeps_the_sign_of_zero_literals():
    u = E.Var("u")
    tape = E.Tape([E.Num(0.0), E.Num(-0.0), E.Bin("*", E.Num(0.0), u),
                   E.Bin("*", E.Num(-0.0), u)])
    assert len(tape) == 5   # u, two constants, two products
    zero, neg_zero, scaled, neg_scaled = E.eval_jet(tape, {"u": J.seed(0, 0.5, 1, 1)}, 1, 1)
    assert math.copysign(1.0, zero.value()) == 1.0
    assert math.copysign(1.0, neg_zero.value()) == -1.0
    assert math.copysign(1.0, scaled.data[1]) == 1.0
    assert math.copysign(1.0, neg_scaled.data[1]) == -1.0


def test_tape_literal_operands_build_no_constant_jets():
    tape = E.Tape([E.parse("2 * x2 + 1 - u * 3", 4)])
    assert tape.constants == []
    assert len(tape) == 2 + 4
    env = _env(MetricSpec.from_text(4), (0.25, -0.5, 0.0), 2)
    (jet,) = E.eval_jet(tape, env, 3, 2)
    assert jet.value() == 2 * -0.5 + 1 - 0.25 * 3
    assert jet.partial((1, 0, 0)) == -3.0 and jet.partial((0, 1, 0)) == 2.0


def test_tape_error_names_the_first_output_that_needs_it():
    tape = E.Tape([E.parse("u", 4), E.parse("sin(u) / x2", 4), E.parse("2 / x2", 4)])
    env = _env(MetricSpec.from_text(4), (0.3, 0.0, 0.0), 2)
    with pytest.raises(E.TapeDomainError) as info:
        E.eval_jet(tape, env, 3, 2)
    assert info.value.output == 1
    assert info.value.reason == "division by a jet with zero constant term"


# -- compiled straight-line code -------------------------------------------------------


def _compiled_specs():
    bundled = [load_metric_file(str(path)) for path in sorted(METRICS.glob("*.metric"))]
    assert len(bundled) == 11
    return bundled + [random_polynomial_spec(seed) for seed in range(10)]


COMPILED_SPECS = _compiled_specs()


def _assert_compiled_equals_eval_jet(tape, num_vars, point, orders=(0, 1)):
    """The order-1 coefficients bit for bit, and the value column as the order-0 run's."""
    got = np.array(tape.compiled(num_vars)(tuple(float(c) for c in point)))
    for order in orders:
        part = got if order == 1 else got[:, :1]
        env = {name: J.seed(k, c, num_vars, order)
               for k, (name, c) in enumerate(zip(E.var_names(num_vars + 1), point))}
        ref = np.array([jet.data for jet in E.eval_jet(tape, env, num_vars, order)])
        assert part.shape == ref.shape
        assert np.array_equal(np.signbit(part), np.signbit(ref))
        assert part.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", (0, 1))
def test_compiled_tape_is_bitwise_equal_to_eval_jet(order):
    """The compiled order-1 tape against the eval_jet run of each order it stands in for."""
    rng = np.random.default_rng(10 + order)
    for spec in COMPILED_SPECS:
        lo, hi = np.array(spec.box).T
        for _ in range(4):
            point = lo + (hi - lo) * rng.uniform(size=spec.num_vars)
            _assert_compiled_equals_eval_jet(spec.tape, spec.num_vars, point, (order,))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(COMPILED_SPECS) - 1),
       st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_compiled_tape_matches_eval_jet_anywhere_in_the_box(which, fractions):
    spec = COMPILED_SPECS[which]
    lo, hi = np.array(spec.box).T
    point = lo + (hi - lo) * np.array(fractions[:spec.num_vars])
    _assert_compiled_equals_eval_jet(spec.tape, spec.num_vars, point)


def test_compiled_tape_keeps_signed_zeros_and_function_bits():
    texts = ["-0.0", "0.0 * u", "-0.0 * u", "-u", "sin(-u)", "0.0 - u", "u - 0.0", "-0.0 + u",
             "cos(u) * sin(x2)", "exp(-u) / (1 + x2^2)", "sqrt(2 + u)", "(u + 2)^-3", "u^0",
             "u * x2 * x3 - x3", "-u - 1.0", "-x2 + 2.0", "2.0 * -x3"]
    tape = E.Tape([E.parse(text, 4) for text in texts])
    for point in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.5), (0.3, -0.7, 0.2)):
        _assert_compiled_equals_eval_jet(tape, 3, point)


@pytest.mark.parametrize("texts, point", [
    (["u", "sqrt(x2) + 1", "sin(u) / x2"], (0.3, 0.0, 0.0)),
    (["u", "sqrt(x2) + 1", "sin(u) / x2"], (0.3, -1.0, 0.0)),
    (["u", "sin(u) / x2", "x2^-2"], (0.3, 0.0, 0.0)),
    (["x3", "x2^-2", "1 / x2"], (0.3, 0.0, 0.0)),
])
def test_compiled_tape_error_names_the_first_output_that_needs_it(texts, point):
    tape = E.Tape([E.parse(text, 4) for text in texts])
    env = {name: J.seed(k, c, 3, 1) for k, (name, c) in enumerate(zip(("u", "x2", "x3"), point))}
    with pytest.raises(E.TapeDomainError) as ref:
        E.eval_jet(tape, env, 3, 1)
    with pytest.raises(E.TapeDomainError) as got:
        tape.compiled(3)(point)
    assert (got.value.output, got.value.reason) == (ref.value.output, ref.value.reason)


def test_compiled_tape_is_built_once_per_num_vars():
    spec = random_polynomial_spec(4)
    assert spec.tape.compiled(3) is spec.tape.compiled(3)
    assert spec.tape.compiled(3) is not spec.tape.compiled(4)
