import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from brinkmann import jets as J


def test_seed_examples():
    j = J.seed(0, 2.0, 2, 2)
    assert j.value() == 2.0
    assert j.coeff((1, 0)) == 1.0
    assert all(j.coeff(tuple(e)) == 0.0 for e in J.context(2, 2).exps[2:]
               if tuple(e) != (1, 0))
    k = J.seed(1, -1.0, 2, 1)
    assert k.value() == -1.0 and k.coeff((0, 1)) == 1.0
    z = J.seed(0, 0.0, 1, 0)
    assert z.value() == 0.0 and z.ctx.ncoeffs == 1


def test_seed_out_of_range():
    with pytest.raises(J.JetShapeError):
        J.seed(2, 0.0, 2, 3)


def test_mul_polynomial_derivative():
    u = J.seed(0, 3.0, 1, 2)
    assert (u * u).partial((2,)) == pytest.approx(2.0)
    assert (u * u).value() == 9.0


def test_div_geometric_series():
    u = J.seed(0, 1.0, 1, 4)
    r = 1.0 / u
    assert np.allclose(r.data, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_div_by_zero_constant_term():
    u = J.seed(0, 0.0, 1, 3)
    with pytest.raises(J.JetDomainError):
        (1.0 / u)


def test_shape_mismatch():
    with pytest.raises(J.JetShapeError):
        J.seed(0, 1.0, 2, 3) + J.seed(0, 1.0, 3, 3)


def test_elementary_functions():
    s = J.sin(J.seed(0, 0.0, 1, 3))
    assert np.allclose(s.data, [0.0, 1.0, 0.0, -1.0 / 6.0])
    assert s.partial((3,)) == pytest.approx(-1.0)
    e = J.exp(J.const(0.0, 1, 3))
    assert np.allclose(e.data, [1.0, 0.0, 0.0, 0.0])
    p = J.pow_int(J.seed(0, 2.0, 1, 3), 3)
    assert p.value() == pytest.approx(8.0)
    assert p.partial((1,)) == pytest.approx(12.0)
    c = J.cos(J.seed(0, 0.3, 1, 4))
    assert c.value() == pytest.approx(math.cos(0.3))
    assert c.partial((1,)) == pytest.approx(-math.sin(0.3))
    q = J.sqrt(J.seed(0, 4.0, 1, 3))
    assert q.value() == pytest.approx(2.0)
    assert q.partial((1,)) == pytest.approx(0.25)


def test_exp_overflow_keeps_an_infinite_value():
    # Horner's last step would add coefs[1] * 0 = inf * 0 = NaN to the value
    with np.errstate(over="ignore", invalid="ignore"):
        for order in (0, 1, 2):
            assert J.exp(800 * J.seed(0, 1.0, 1, order)).value() == math.inf


def test_compose_never_multiplies_by_the_zero_value_of_self_minus_value():
    # Horner multiplies by x - x0, whose value coefficient is zero by
    # construction; inf * that zero made every coefficient past the value NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in (720, 800):
            for order in (1, 2, 3):
                data = J.exp(scale * J.seed(0, 1.0, 1, order)).data
                # from u^2 on, the seed's own zero coefficients still meet inf
                assert data[0] == data[1] == math.inf, (scale, order)
        s = J.seed(0, 1.0, 1, 2)
        assert np.all(J.exp(800 * s + s * s).data == math.inf)
    for nv, order in ((1, 3), (3, 2)):
        ctx = J.context(nv, order)
        for sa in range(1 << nv):
            for sb in range(1 << nv):
                ka, kb, ko = ctx.mul_pairs(sa, sb)
                got = ctx.mul_pairs(sa, sb, centered=True)
                keep = kb != 0
                assert all(np.array_equal(g, k[keep]) for g, k in zip(got, (ka, kb, ko)))


@pytest.mark.parametrize("batch", [(), (5,), (40,)])   # bincount and row products
@pytest.mark.parametrize("name", ["exp", "sin", "cos", "sqrt", "reciprocal"])
def test_a_composition_truncates_to_the_composition_at_the_lower_order(name, batch):
    # what lets the oracle read the rows of the engine's higher-order metric jets
    rng = np.random.default_rng(len(name) + len(batch))
    ctx = J.context(3, 4)
    data = rng.normal(size=batch + (ctx.ncoeffs,))
    data[..., 0] = rng.uniform(0.5, 2.0, size=batch)
    if name == "exp":   # overflowing Taylor coefficients at some entries
        data[..., 0] *= rng.choice([1.0, 500.0], size=batch)
    fn = J.Jet.reciprocal if name == "reciprocal" else getattr(J, name)
    x = J.Jet(ctx, data)
    with np.errstate(over="ignore", invalid="ignore"):
        top = fn(x)
        for order in range(ctx.order):
            low = fn(x.truncate(order))
            assert low.data.tobytes() == np.ascontiguousarray(top.truncate(order).data).tobytes()


@pytest.mark.parametrize("shape", [(), (3,)])
def test_pow_int_starts_from_the_base(shape, monkeypatch):
    # x^n is the square-and-multiply product written out, bit for bit, with no
    # leading product by const(1): one Jet.__mul__ fewer than starting from 1
    rng = np.random.default_rng(4)
    ctx = J.context(3, 3)
    x = J.Jet(ctx, rng.normal(size=shape + (ctx.ncoeffs,)))
    x.data[..., 1] = -0.0
    written = {1: lambda: x, 2: lambda: x * x, 3: lambda: x * (x * x),
               4: lambda: (x * x) * (x * x), 5: lambda: x * ((x * x) * (x * x))}
    products = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3}
    real = J.Jet.__mul__
    calls = []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(J.Jet, "__mul__", counted)
    for n in range(6):
        calls.clear()
        got = J.pow_int(x, n)
        assert len(calls) == products[n]
        want = written[n]() if n else J.const(1.0, 3, 3, shape=shape)
        assert got.data.shape == want.data.shape
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


def test_sqrt_domain():
    with pytest.raises(J.JetDomainError):
        J.sqrt(J.seed(0, -1.0, 1, 2))
    with pytest.raises(J.JetDomainError):
        J.sqrt(J.const(0.0, 1, 2))


def test_partial_zero_index_and_bounds():
    f = J.sin(J.seed(0, 0.4, 2, 3)) * J.seed(1, 2.0, 2, 3)
    assert f.partial((0, 0)) == pytest.approx(f.value())
    with pytest.raises(J.JetShapeError):
        f.partial((4, 0))


def _random_jet(rng, nv, order):
    ctx = J.context(nv, order)
    return J.Jet(ctx, rng.normal(size=ctx.ncoeffs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_axioms(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_random_jet(rng, 3, 4) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = np.max(np.abs(lhs.data)) + 1.0
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-13 * scale
    d = a * (b + c) - (a * b + a * c)
    assert np.max(np.abs(d.data)) < 1e-13 * scale
    assert np.max(np.abs((a * b).data - (b * a).data)) < 1e-13 * scale
    assert np.max(np.abs((a + (b - b)).data - a.data)) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_mul_div_roundtrip(seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, 2, 5)
    b = _random_jet(rng, 2, 5)
    b.data[0] = 1.0 + abs(b.data[0])  # constant term bounded away from 0
    back = (a * b) / b
    scale = 1.0 + np.max(np.abs(a.data))
    assert np.max(np.abs(back.data - a.data)) < 1e-10 * scale


def test_polynomial_partials_exact():
    # f = u^2 x + 3 u x^2 - x: all partials up to total degree 3 are exact
    u = J.seed(0, 1.5, 2, 3)
    x = J.seed(1, -0.5, 2, 3)
    f = u * u * x + 3.0 * u * x * x - x
    uu, xx = 1.5, -0.5
    assert f.partial((0, 0)) == uu**2 * xx + 3 * uu * xx**2 - xx
    assert f.partial((1, 0)) == 2 * uu * xx + 3 * xx**2
    assert f.partial((0, 1)) == uu**2 + 6 * uu * xx - 1.0
    assert f.partial((1, 1)) == 2 * uu + 6 * xx
    assert f.partial((2, 0)) == 2 * xx
    assert f.partial((2, 1)) == 2.0
    assert f.partial((0, 2)) == 6 * uu


def test_diff_and_truncate():
    f = J.exp(J.seed(0, 0.2, 2, 4)) * J.seed(1, 1.0, 2, 4)
    df = f.diff(0)
    assert df.order == 3
    assert df.value() == pytest.approx(f.partial((1, 0)))
    t = f.truncate(2)
    assert t.order == 2
    assert np.allclose(t.data, f.data[: t.ctx.ncoeffs])
    with pytest.raises(J.JetShapeError):
        f.truncate(9)


def test_jet_einsum_matches_numpy_at_order_zero():
    rng = np.random.default_rng(0)
    ctx = J.context(2, 0)
    A = J.Jet(ctx, rng.normal(size=(3, 4, 1)))
    B = J.Jet(ctx, rng.normal(size=(4, 3, 1)))
    C = J.jet_einsum("ij,jk->ik", A, B)
    assert np.allclose(C.data[..., 0], A.data[..., 0] @ B.data[..., 0])
    tr = J.jet_einsum("ij,ji->", A, B)
    assert tr.value() == pytest.approx(np.einsum("ij,ji->", A.data[..., 0], B.data[..., 0]))
    with pytest.raises(J.JetShapeError):
        J.jet_einsum("ij,jk->ik", A, J.Jet(ctx, rng.normal(size=(5, 2, 1))))


def test_jet_einsum_convolves_coefficients():
    u = J.seed(0, 0.5, 2, 3)
    x = J.seed(1, 2.0, 2, 3)
    A = J.Jet(u.ctx, np.stack([u.data, x.data]))
    B = J.Jet(u.ctx, np.stack([x.data, u.data]))
    out = J.jet_einsum("i,i->", A, B)   # u*x + x*u = 2ux
    direct = 2.0 * u * x
    assert np.allclose(out.data, direct.data)


def test_batched_arithmetic_broadcasts():
    vals = np.array([0.1, 0.7, -0.4])
    u = J.seed(0, vals, 2, 3)
    f = J.sin(u) * u
    for i, v in enumerate(vals):
        single = J.sin(J.seed(0, v, 2, 3)) * J.seed(0, v, 2, 3)
        assert np.allclose(f[i].data, single.data)


@pytest.mark.parametrize("nv,order", [(1, 0), (1, 4), (2, 3), (3, 2), (4, 4), (5, 3)])
def test_mul_buckets_partition_the_flat_pairs(nv, order):
    ctx = J.context(nv, order)
    ka, kb, ko = ctx.mul_flat()
    u, x = 1, ctx.all_vars & ~1
    for sa, sb in {(ctx.all_vars, ctx.all_vars), (u, u), (u, x), (x, u), (x, x), (0, u),
                   (u, 1 << (nv - 1))}:
        # the pairs whose monomials lie over the supports, in mul_flat order
        keep = (((ctx.var_masks[ka] | sa) == sa) & ((ctx.var_masks[kb] | sb) == sb))
        table = ctx.mul_tables(sa, sb)
        # the row path gathers exactly the coefficients those pairs read
        assert table.rows_a.tolist() == sorted(set(ka[keep].tolist()))
        assert table.rows_b.tolist() == sorted(set(kb[keep].tolist()))
        seen = []
        for outs, ia, ib in table.buckets:
            assert ia.shape == ib.shape == (len(outs), ia.shape[1])
            for row, k in enumerate(outs):
                run = keep & (ko == k)   # the pairs of output k, in mul_flat order
                assert np.array_equal(table.rows_a[ia[row]], ka[run])
                assert np.array_equal(table.rows_b[ib[row]], kb[run])
            seen.extend(outs)
        assert sorted(seen) == sorted(set(ko[keep].tolist()))
        if (sa, sb) == (ctx.all_vars, ctx.all_vars):
            assert sorted(seen) == list(range(ctx.ncoeffs))
    # The padded table: row k is output k's run, then only the padding index ncoeffs.
    pka, pkb = ctx.mul_padded()
    width = np.bincount(ko).max()
    assert pka.shape == pkb.shape == (ctx.ncoeffs, width)
    for k in range(ctx.ncoeffs):
        run = ko == k
        n = int(run.sum())
        assert np.array_equal(pka[k, :n], ka[run]) and np.array_equal(pkb[k, :n], kb[run])
        assert np.all(pka[k, n:] == ctx.ncoeffs) and np.all(pkb[k, n:] == ctx.ncoeffs)


_LARGE = 2051   # thousands of jets, as on canonical's u-grids
_SMALL = J.MUL_BINCOUNT_BATCH   # the largest batch multiplied by bincount
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@st.composite
def _product_cases(draw):
    """(shape of a, shape of b, nv, order, seed, share of special coefficients)."""
    k = draw(st.integers(1, 6))
    j = draw(st.integers(1, 3))
    shape_a, shape_b = draw(st.sampled_from([
        ((k,), (k,)), ((k,), ()), ((), (k,)), ((j, k), (k,)), ((k,), (j, k)),
        ((j, 1), (k,)), ((_LARGE,), (_LARGE,)),
        ((_LARGE,), ()), ((), (_LARGE,)),
        ((_SMALL,), (_SMALL,)), ((_SMALL + 1,), (_SMALL + 1,)),
        ((1,), (_SMALL,)), ((_SMALL + 1,), (1,)), ((j, 1), (1, _SMALL))]))
    return (shape_a, shape_b, draw(st.integers(1, 4)), draw(st.integers(0, 4)),
            draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.1, 0.5])))


@settings(max_examples=100, deadline=None)
@given(_product_cases())
@example(((_LARGE,), (_LARGE,), 3, 3, 0, 0.1))
@example(((), (_LARGE,), 4, 2, 1, 0.1))
@example(((_LARGE,), (), 2, 4, 2, 0.1))
@example(((3, 5), (5,), 3, 3, 3, 0.5))
@example(((_SMALL,), (_SMALL,), 4, 4, 4, 0.2))
@example(((_SMALL + 1,), (_SMALL + 1,), 4, 4, 5, 0.2))
@example(((1,), (_SMALL,), 3, 2, 6, 0.2))
@example(((_SMALL + 1,), (1,), 3, 2, 7, 0.2))
@example(((4, 1), (1, 8), 2, 3, 8, 0.2))
@example(((3, 1), (1, _SMALL), 2, 3, 9, 0.2))
def test_batched_mul_equals_stacked_scalar_products(case):
    # signed zeros, infinities and NaNs included: both batched kernels (bincount
    # up to MUL_BINCOUNT_BATCH products, by rows past it) sum each coefficient's
    # pairs from +0.0 as the scalar bincount path does, to the last bit.
    # Only the sign of a NaN is left out: IEEE 754 does not fix it, and numpy's
    # own in-place add of two NaNs keeps either one's sign depending on the
    # array length.
    shape_a, shape_b, nv, order, seed, special = case
    rng = np.random.default_rng(seed)
    ctx = J.context(nv, order)

    def data(shape):
        x = rng.normal(size=shape + (ctx.ncoeffs,))
        mask = rng.random(x.shape) < special
        x[mask] = rng.choice(_SPECIAL, size=int(mask.sum()))
        return x

    a, b = J.Jet(ctx, data(shape_a)), J.Jet(ctx, data(shape_b))
    with np.errstate(all="ignore"):
        batched = (a * b).data
        batch = np.broadcast_shapes(shape_a, shape_b)
        xs = np.broadcast_to(a.data, batch + (ctx.ncoeffs,)).reshape(-1, ctx.ncoeffs)
        ys = np.broadcast_to(b.data, batch + (ctx.ncoeffs,)).reshape(-1, ctx.ncoeffs)
        stacked = [(J.Jet(ctx, x) * J.Jet(ctx, y)).data for x, y in zip(xs, ys)]
    assert batched.shape == batch + (ctx.ncoeffs,)
    stacked = np.reshape(stacked, batched.shape)
    assert np.array_equal(np.isnan(batched), np.isnan(stacked))
    assert _nan_free(batched).tobytes() == _nan_free(stacked).tobytes()


def _nan_free(x: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(x), 0.0, x)


def _supported(rng, ctx, shape, support, special=0.0, values=_SPECIAL):
    """Normal data over ``shape``, a share ``special`` of it drawn from ``values``,
    and +0.0 or -0.0 at every coefficient whose monomial leaves ``support``."""
    x = rng.normal(size=shape + (ctx.ncoeffs,))
    mask = rng.random(x.shape) < special
    x[mask] = rng.choice(values, size=int(mask.sum()))
    outside = (ctx.var_masks | support) != support
    x[..., outside] = rng.choice([0.0, -0.0], size=x[..., outside].shape)
    return x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, _SMALL + 1, 2049]), st.booleans(), st.integers(1, 5),
       st.integers(0, 4), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 0.6]))
@example(1, False, 5, 3, 0, 0.2)
@example(_SMALL + 1, False, 5, 3, 1, 0.2)
@example(2049, True, 3, 4, 2, 0.2)
def test_support_restricted_products_equal_dense_products(n, scalar_b, nv, order, seed, zeros):
    # On finite data with +-0 outside the supports, every pair a restricted
    # product leaves out is +-0, so it equals the dense product bit for bit on
    # either kernel (bincount at n = 1, by rows past MUL_BINCOUNT_BATCH, also
    # at thousands of jets), signed zeros included.
    rng = np.random.default_rng(seed)
    ctx = J.context(nv, order)
    sa, sb = (int(s) for s in rng.integers(0, ctx.all_vars + 1, size=2))
    a = _supported(rng, ctx, (n,), sa, zeros, [0.0, -0.0])
    b = _supported(rng, ctx, () if scalar_b else (n,), sb, zeros, [0.0, -0.0])
    restricted = J._mul_data(ctx, a, b, sa, sb)
    dense = J._mul_data(ctx, a, b, ctx.all_vars, ctx.all_vars)
    assert restricted.shape == dense.shape == (n, ctx.ncoeffs)
    assert restricted.tobytes() == dense.tobytes()


@settings(max_examples=60, deadline=None)
@given(_product_cases())
@example(((_LARGE,), (_LARGE,), 3, 3, 0, 0.1))
@example(((_SMALL + 1,), (1,), 4, 3, 1, 0.2))
@example(((3, 1), (1, _SMALL), 2, 3, 2, 0.2))
def test_batched_restricted_mul_equals_stacked_scalar_products(case):
    # signed zeros, infinities and NaNs inside the supports: both kernels run
    # one support pair's table as the scalar product does, to the last bit
    # (NaN signs left out, as in test_batched_mul_equals_stacked_scalar_products)
    shape_a, shape_b, nv, order, seed, special = case
    rng = np.random.default_rng(seed)
    ctx = J.context(nv, order)
    sa, sb = (int(s) for s in rng.integers(0, ctx.all_vars + 1, size=2))
    a = J.Jet(ctx, _supported(rng, ctx, shape_a, sa, special), sa)
    b = J.Jet(ctx, _supported(rng, ctx, shape_b, sb, special), sb)
    with np.errstate(all="ignore"):
        batched = (a * b).data
        batch = np.broadcast_shapes(shape_a, shape_b)
        xs = np.broadcast_to(a.data, batch + (ctx.ncoeffs,)).reshape(-1, ctx.ncoeffs)
        ys = np.broadcast_to(b.data, batch + (ctx.ncoeffs,)).reshape(-1, ctx.ncoeffs)
        stacked = [(J.Jet(ctx, x, sa) * J.Jet(ctx, y, sb)).data for x, y in zip(xs, ys)]
    assert batched.shape == batch + (ctx.ncoeffs,)
    stacked = np.reshape(stacked, batched.shape)
    assert np.array_equal(np.isnan(batched), np.isnan(stacked))
    assert _nan_free(batched).tobytes() == _nan_free(stacked).tobytes()


_U, _X2, _X5 = 1, 2, 16   # supports {u}, {x2} and {x5} at nv 5


@pytest.mark.parametrize("sa, sb, shape_b", [
    (_U, _X2, (_LARGE,)), (_U, _X5, (_LARGE,)), (_U, _U, (_LARGE,)),
    (_X2 | 4, _X2 | 4 | 8, (_LARGE,)), (31, 31, (_LARGE,)),
    (_U, _X2, (1,)), (31, _U | _X2, ()), (0, _U, (_LARGE,))])
def test_rows_product_equals_bincount_and_scalar_products(sa, sb, shape_b):
    # canonical's shapes: nv 5, order 3, thousands of jets.  The row path reads
    # only rows_a and rows_b; it equals the bincount path (run on chunks of
    # MUL_BINCOUNT_BATCH jets) and the stacked scalar products bit for bit.
    # Batch entries 0 to 9 of a are -0.0 at every coefficient, so each of their
    # products sums -0.0 terms only, and reads +0.0 as the bincount sum from 0.0.
    rng = np.random.default_rng(sa * 64 + sb)
    ctx = J.context(5, 3)
    a = _supported(rng, ctx, (_LARGE,), sa)
    b = np.abs(_supported(rng, ctx, shape_b, sb))
    a[:10] = -0.0
    got = J._mul_data(ctx, a, b, sa, sb)
    fb = np.broadcast_to(b, a.shape)
    step = J.MUL_BINCOUNT_BATCH
    chunks = np.concatenate([J._mul_data(ctx, a[i:i + step], fb[i:i + step], sa, sb)
                             for i in range(0, _LARGE, step)])
    scalar = np.array([J._mul_data(ctx, x, y, sa, sb) for x, y in zip(a, fb)])
    assert got.shape == (_LARGE, ctx.ncoeffs)
    assert got.tobytes() == chunks.tobytes() == scalar.tobytes()
    assert not np.signbit(got[:10]).any()
    if sa and sb:
        assert np.count_nonzero(got[10:]) > 0


def _support_rules(x, i, j, k):
    """(rule, result, expected support) for each support rule, on the seeded jets x."""
    nv, order = x[0].num_vars, x[0].order
    si, sj = 1 << i, 1 << j
    a = x[i] * x[i] + 0.5                    # {i}, value > 0.5
    b = 1.5 - x[j] * 0.25                    # {j}, value > 1
    return [
        ("seed", x[k], 1 << k),
        ("const", J.const(0.3, nv, order, shape=(3,)), 0),
        ("zeros", J.zeros((3,), nv, order), 0),
        ("coerce", a._coerce(0.7), 0),
        ("add", a + b, si | sj), ("sub", a - b, si | sj), ("mul", a * b, si | sj),
        ("div", a / b, si | sj), ("add literal", a + 0.25, si), ("rsub literal", 2.0 - a, si),
        ("neg", -a, si), ("scale", 0.5 * a, si), ("scale by array", a * np.arange(3.0), si),
        ("diff", a.diff(k), si), ("grad", b.grad(tuple(range(nv))), sj),
        ("truncate", a.truncate(order - 1), si), ("getitem", a[1], si),
        ("sin", J.sin(a), si), ("cos", J.cos(a), si), ("exp", J.exp(b), sj),
        ("sqrt", J.sqrt(a), si), ("reciprocal", b.reciprocal(), sj),
        ("pow", J.pow_int(a, 3), si), ("negative pow", J.pow_int(b, -2), sj),
        ("product of mixed supports", (a * x[k]) * (b + x[k]), si | sj | 1 << k),
        ("raw data", J.Jet(a.ctx, a.data), a.ctx.all_vars),
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_support_propagation_rules(nv, order, seed):
    # every rule gives its support, the coefficients outside it are +-0, and the
    # result is that of the same operations on all-variable jets, bit for bit
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, size=(nv, 3))
    i, j, k = (int(v) for v in rng.integers(0, nv, size=3))
    seeds = [J.seed(v, values[v], nv, order) for v in range(nv)]
    supported = _support_rules(seeds, i, j, k)
    dense = _support_rules([J.Jet(s.ctx, s.data) for s in seeds], i, j, k)
    for (rule, got, support), (_, want, _) in zip(supported, dense):
        assert got.support == support, rule
        outside = (got.ctx.var_masks | support) != support
        assert not got.data[..., outside].any(), rule
        assert got.data.tobytes() == want.data.tobytes(), rule


def _einsum_reference(subscripts, a, b):
    """Brute force: contract every truncated-product pair with np.einsum."""
    ka, kb, ko = a.ctx.mul_flat()
    out = None
    for i, j, k in zip(ka, kb, ko):
        term = np.einsum(subscripts, a.data[..., i], b.data[..., j])
        if out is None:
            out = np.zeros(term.shape + (a.ctx.ncoeffs,))
        out[..., k] += term
    return out


# Letter roles: batch (both operands and the output), left/right (one operand
# and the output), contracted (both operands only).
_ROLES = ("batch", "left", "right", "contracted")


@st.composite
def _einsum_cases(draw):
    counts = {role: draw(st.integers(0, 2)) for role in _ROLES}
    letters = iter("abcdefghijklmnop")
    roles = {role: [next(letters) for _ in range(n)] for role, n in counts.items()}
    dims = {x: draw(st.integers(1, 3)) for xs in roles.values() for x in xs}
    s1 = roles["batch"] + roles["left"] + roles["contracted"]
    s2 = roles["batch"] + roles["contracted"] + roles["right"]
    out = roles["batch"] + roles["left"] + roles["right"]
    s1, s2, out = (draw(st.permutations(xs)) for xs in (s1, s2, out))
    nv = draw(st.integers(1, 3))
    order = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return "".join(s1) + "," + "".join(s2) + "->" + "".join(out), s1, s2, dims, nv, order, seed


@settings(max_examples=150, deadline=None)
@given(_einsum_cases())
def test_jet_einsum_matches_pairwise_reference(case):
    subscripts, s1, s2, dims, nv, order, seed = case
    rng = np.random.default_rng(seed)
    ctx = J.context(nv, order)
    a = J.Jet(ctx, rng.normal(size=tuple(dims[x] for x in s1) + (ctx.ncoeffs,)))
    b = J.Jet(ctx, rng.normal(size=tuple(dims[x] for x in s2) + (ctx.ncoeffs,)))
    got = J.jet_einsum(subscripts, a, b).data
    want = _einsum_reference(subscripts, a, b)
    # Summation order differs; bound the error by the sum of |terms|.
    bound = _einsum_reference(subscripts, J.Jet(ctx, np.abs(a.data)), J.Jet(ctx, np.abs(b.data)))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * bound)


@settings(max_examples=200, deadline=None)
@given(_einsum_cases())
def test_jet_einsum_keeps_the_reference_inf_and_nan_pattern(case):
    # Padding pairs multiply two zero rows, so they never form inf * 0: the
    # kernel makes NaN and inf exactly where the pairwise reference does.
    subscripts, s1, s2, dims, nv, order, seed = case
    rng = np.random.default_rng(seed)
    ctx = J.context(nv, order)

    def operand(letters):
        data = rng.normal(size=tuple(dims[x] for x in letters) + (ctx.ncoeffs,))
        pick = rng.random(data.shape)
        data[pick < 0.3] = 0.0
        data[pick > 0.85] = np.inf
        return J.Jet(ctx, data)

    a, b = operand(s1), operand(s2)
    with np.errstate(invalid="ignore"):
        got = J.jet_einsum(subscripts, a, b).data
        want = _einsum_reference(subscripts, a, b)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(got)], want[np.isinf(want)])
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("subscripts,sa,sb", [
    ("bi,bi->b", (3, 2), (3, 2)),          # batch letter, nothing else
    ("bij,bjk->bik", (2, 3, 4), (2, 4, 2)),  # batched matrix product
    ("ij,ij->", (3, 3), (3, 3)),            # scalar output
    ("ij,jk->ik", (0, 2), (2, 0)),          # empty axes
])
@pytest.mark.parametrize("nv,order", [(1, 0), (1, 4), (2, 0), (3, 2)])
def test_jet_einsum_named_shapes(subscripts, sa, sb, nv, order):
    rng = np.random.default_rng(7)
    ctx = J.context(nv, order)
    a = J.Jet(ctx, rng.normal(size=sa + (ctx.ncoeffs,)))
    b = J.Jet(ctx, rng.normal(size=sb + (ctx.ncoeffs,)))
    got = J.jet_einsum(subscripts, a, b).data
    want = _einsum_reference(subscripts, a, b)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_jet_einsum_shape_errors():
    ctx = J.context(2, 2)
    A = J.zeros((3, 4), 2, 2)
    B = J.zeros((4, 3), 2, 2)
    for bad in ("ijk,jk->ik", "ij,j->i", "ij,jk", "ij->i", "ii,jk->ik", "ij,jk->iz"):
        with pytest.raises(J.JetShapeError):
            J.jet_einsum(bad, A, B)
    with pytest.raises(J.JetShapeError):
        J.jet_einsum("ij,jk->ik", A, A)   # j is 4 in A and 3 in B
    with pytest.raises(J.JetShapeError):
        J.jet_einsum("ij,jk->ik", A, J.zeros((4, 3), 3, 2))
    assert J.jet_einsum("ij,jk->ik", A, B).ctx is ctx


@pytest.mark.parametrize("subscripts,sa,sb,letter", [
    ("ijx,jk->ik", (2, 3, 4), (3, 2), "x"),   # x in the first operand only
    ("i,j->", (2,), (3,), "i"),               # scalar output, nothing contracted
    ("ij,jkx->ik", (2, 3), (3, 2, 4), "x"),   # x in the second operand only
])
def test_jet_einsum_refuses_a_letter_of_one_operand_only(subscripts, sa, sb, letter):
    # Such a letter would be summed before the product, outside the kernel
    # whose inf and NaN pattern matches the pairwise reference.
    ctx = J.context(2, 2)
    a, b = J.Jet(ctx, np.ones(sa + (ctx.ncoeffs,))), J.Jet(ctx, np.ones(sb + (ctx.ncoeffs,)))
    with pytest.raises(J.JetShapeError, match=rf"^index '{letter}' of '{re.escape(subscripts)}' "
                                              "is in one operand only and not in the output"):
        J.jet_einsum(subscripts, a, b)
