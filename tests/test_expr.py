import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brinkmann import expr as E
from brinkmann import jets as J
from brinkmann.chart import ChartPoint, MetricSpec, eval_metric, metric_coefficients
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


@pytest.mark.parametrize("opening", ["(", "sin(", "-"])
def test_nesting_past_the_limit_is_refused_at_its_token(opening):
    def nested(depth):
        return opening * depth + "u" + (")" * depth if "(" in opening else "")

    limit = E.MAX_NESTING
    assert math.isfinite(E.eval_scalar(E.parse(nested(limit), 4), {"u": 0.5}))
    with pytest.raises(E.ParseError, match=f"nested more than {limit} deep") as err:
        E.parse(nested(limit + 1), 4)
    assert err.value.offset == len(opening) * limit
    # the count is of open levels, not of all of them
    E.parse(" + ".join([nested(limit)] * 4), 4)


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
    # n = 5 and 6 give tapes of several chunks, with registers live across each cut
    return bundled + [random_polynomial_spec(seed) for seed in range(10)] + [
        random_polynomial_spec(seed, n=n) for seed, n in ((10, 5), (11, 6))]


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


def test_compiled_tape_keeps_the_bits_of_overflow():
    # a coefficient outside a product's supports stays 0.0, not the NaN of inf * 0
    texts = ["exp(800 * u)", "exp(800 * u) * x2", "1e200 * u * 1e200 * x2", "exp(800*u)^2",
             "(exp(800 * u) - 2 * exp(800 * u)) * x3 + 1.0"]
    tape = E.Tape([E.parse(text, 4) for text in texts])
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_compiled_equals_eval_jet(tape, 3, (1.0, 0.5, 0.25))


def test_compiled_taylor_keeps_an_overflowed_coefficient_free_of_nan():
    # the compiled taylor, like Jet._compose, never multiplies c1 by the zero
    # value of a - a0, so an overflowed c1 leaves its partials inf, not NaN
    tape = E.Tape([E.parse(text, 4) for text in
                   ["exp(720 * u)", "exp(800 * u + u * x2)", "sin(exp(800 * u)) * x3"]])
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_compiled_equals_eval_jet(tape, 3, (1.0, 0.5, 0.25))
        # value, then the partials along x3 (outside the support), x2 and u
        assert tape.compiled(3)((1.0, 0.5, 0.25))[1] == (math.inf, 0.0, math.inf, math.inf)


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


def test_a_function_of_a_literal_is_taken_once(monkeypatch):
    # cw4_order1_hyperbolic's g55 = ((exp(x4) - exp(-x4)) / 2.0)^2: the reciprocal of
    # the literal 2.0 is taken while the code is emitted, the two exps on every run
    calls = []
    real = E._taylor
    monkeypatch.setattr(E, "_taylor", lambda *args: calls.append(args[0]) or real(*args))
    spec = load_metric_file(str(METRICS / "cw4_order1_hyperbolic.metric"))
    run = spec.tape.compiled(spec.num_vars)
    assert calls == ["reciprocal"]
    point = (0.1, 0.2, -0.3, 0.4, 0.5)
    for _ in range(2):
        calls.clear()
        run(point)
        assert sorted(calls) == ["exp", "exp"]
    _assert_compiled_equals_eval_jet(spec.tape, spec.num_vars, point)


@pytest.mark.parametrize("text, field", [("sqrt(-1.0) * x2", "W_3"), ("x2 / 0.0", "W_3"),
                                         ("x3 + (-1.0)^-2 * 0.0 / 0.0", "W_3")])
def test_a_function_of_a_literal_outside_its_domain_is_refused_on_every_run(text, field):
    spec = MetricSpec.from_text(4, W={3: text})
    point = ChartPoint(0.1, (0.2, 0.3))
    for _ in range(2):
        with pytest.raises(J.JetDomainError) as ref:
            eval_metric(spec, point, 1)
        assert str(ref.value).endswith(f" in {field} at (0.1, 0.2, 0.3)")
        with pytest.raises(J.JetDomainError) as got:
            metric_coefficients(spec, point.at(0))
        assert str(got.value) == str(ref.value)


def test_inlined_registers_nest_no_deeper_than_the_cap():
    # every sum of this H and every link of this chain is read once, so without a
    # cap on the nesting one line would hold hundreds of parentheses: Python's
    # tokenizer refuses 200, and its compiler recurses once per level
    rng = np.random.default_rng(3)
    names = ("u", "x2", "x3")
    monomials = [f"{rng.uniform(-1.0, 1.0)!r} * {names[k % 3]} * {names[k // 3 % 3]}"
                 for k in range(600)]
    spec = MetricSpec.from_text(4, H=" + ".join(monomials))
    node = E.Var("x2")
    for k in range(200):
        node = E.Call("sin" if k % 2 else "cos", E.Bin("*", node, E.Var("u")))
    for tape in (spec.tape, E.Tape([node])):
        for point in rng.uniform(-1.0, 1.0, size=(3, 3)):
            _assert_compiled_equals_eval_jet(tape, 3, point)


def test_the_compiled_products_sum_the_pairs_of_the_batched_product():
    # each output's pairs, in the order the batched product's bucket tables sum them
    for nv in range(1, 5):
        ctx = J.context(nv, 1)
        for sa in range(1 << nv):
            for sb in range(1 << nv):
                table = ctx.mul_tables(sa, sb)
                ref = [()] * ctx.ncoeffs
                for ko, ia, ib in table.buckets:
                    for o, row_a, row_b in zip(ko.tolist(), table.rows_a[ia].tolist(),
                                               table.rows_b[ib].tolist()):
                        ref[o] = tuple(zip(row_a, row_b))
                assert E._product_pairs(nv, sa, sb) == tuple(ref)
