"""A stack of chart points: every result of ``eval_metric``, the oracle and the
frame engine at a stack equals the one-point results stacked, bit for bit,
and a failure names the first failing node exactly as the one-point call
does."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brinkmann import classify
from brinkmann.chart import NODE_BLOCK, ChartPoint, MetricDefinitenessError, MetricSpec, \
    compute_h_t, eval_metric, frame_components
from brinkmann.classify import evaluate_samples, sample_points
from brinkmann.curvature import curvature_at
from brinkmann.jets import JetDomainError
from brinkmann.metricfile import load_metric_file
from brinkmann.oracle import assemble_coordinate_metric, coordinate_curvature, \
    frame_blocks_from_oracle, full_metric, to_frame
from brinkmann.spaces import fixture, random_polynomial_spec

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"
SPECS = [(path.stem, lambda path=path: load_metric_file(str(path)))
         for path in sorted(METRICS.glob("*.metric"))]
SPECS += [(f"random_n{n}", lambda n=n: random_polynomial_spec(4 + n, n=n)) for n in (4, 5, 6)]
NODES = 3


def _stack(spec: MetricSpec, seed: int = 7) -> ChartPoint:
    """NODES points in the central half of the box."""
    lo, hi = np.array(spec.box).T
    pts = lo + (hi - lo) * (0.25 + 0.5 * np.random.default_rng(seed).uniform(
        size=(NODES, spec.num_vars)))
    return ChartPoint(pts[:, 0], tuple(pts[:, 1:].T))


def _same(batched: np.ndarray, nodes: list[np.ndarray]) -> bool:
    stacked = np.stack([np.asarray(a) for a in nodes])
    return batched.shape == stacked.shape and batched.tobytes() == stacked.tobytes()


def test_chart_point_stack_and_nodes():
    p = ChartPoint(np.array([0.1, 0.2]), (0.3, np.array([0.4, 0.5])))
    assert p.shape == (2,)
    assert p.node(1) == ChartPoint(0.2, (0.3, 0.5))
    assert ChartPoint(0.1, (0.3,)).shape == ()
    with pytest.raises(ValueError, match="non-finite"):
        ChartPoint(np.array([0.1, np.nan]), (0.3,))
    with pytest.raises(ValueError, match="1-D"):
        ChartPoint(np.zeros((2, 2)), (0.3,))
    with pytest.raises(ValueError, match="1-D"):
        ChartPoint(np.zeros(2), (np.zeros((3, 2)),))


def test_full_metric_on_a_stack_is_the_stacked_one_point_metrics():
    rng = np.random.default_rng(3)
    n, m, k = 5, 3, 4
    fields = rng.normal(size=(6, 1 + m + m * m, k))
    G = full_metric(n, fields)
    assert _same(G, [full_metric(n, fields[i]) for i in range(6)])
    assert (G[:, 0, 1, 0] == -1.0).all() and (G[:, 0, 1, 1:] == 0.0).all()
    assert (G[:, 0, 0] == -2.0 * fields[:, 0]).all() and (G[:, 2:, 0] == -fields[:, 1:1 + m]).all()
    assert (G[:, 2:, 2:] == fields[:, 1 + m:].reshape(6, m, m, k)).all()


@pytest.mark.parametrize("name, make", SPECS, ids=[name for name, _ in SPECS])
def test_a_stack_gives_the_one_point_results_bitwise(name, make):
    spec = make()
    p = _stack(spec)
    nodes = [p.node(k) for k in range(NODES)]
    for order in (0, 1, 2):
        cj = eval_metric(spec, p, order)
        one = [eval_metric(spec, q, order) for q in nodes]
        for field in ("H", "W", "g"):
            assert _same(getattr(cj, field).data, [getattr(c, field).data for c in one]), field
        assert _same(cj.ginv0, [c.ginv0 for c in one])
        if order:
            for got, ref in zip(compute_h_t(cj), zip(*(compute_h_t(c) for c in one))):
                assert _same(got.data, [r.data for r in ref])
    for depth in (0, 1, 2):
        cm = assemble_coordinate_metric(spec, p, depth + 2)
        one = [assemble_coordinate_metric(spec, q, depth + 2) for q in nodes]
        assert _same(cm.G.data, [c.G.data for c in one])
        assert _same(cm.Ginv0, [c.Ginv0 for c in one])
        assert _same(cm.Ginv.data, [c.Ginv.data for c in one])
        cc = coordinate_curvature(cm, depth)
        ref = [coordinate_curvature(c, depth) for c in one]
        for field in ("Gamma", "R", "Ric", "S", "dR", "d2R")[:4 + depth]:
            assert _same(getattr(cc, field), [getattr(r, field) for r in ref]), field


def _message(call, p: ChartPoint) -> str:
    with pytest.raises(ValueError) as err:
        call(p)
    return f"{type(err.value).__name__}: {err.value}"


@pytest.mark.parametrize("fields, us, stage, error", [
    ({"g": {(2, 2): "u - 0.3"}}, (0.6, 0.1, 0.7), eval_metric, MetricDefinitenessError),
    ({"g": {(2, 2): "(u - 0.1)^2 + 1e-12"}}, (0.6, 0.1, 0.7), eval_metric,
     MetricDefinitenessError),
    ({"g": {(2, 3): "exp(800*u)"}}, (-0.6, 1.0, -0.7), eval_metric, MetricDefinitenessError),
    ({"W": {3: "sqrt(u - 0.5)"}}, (0.6, 0.1, 0.7), eval_metric, JetDomainError),
    ({"H": "exp(800*u)"}, (-0.6, 1.0, -0.7), assemble_coordinate_metric, ValueError),
], ids=["indefinite_g", "near_degenerate_g", "non_finite_g", "domain_error", "non_finite_H"])
def test_a_failing_middle_node_raises_its_one_point_error(fields, us, stage, error):
    spec = MetricSpec.from_text(4, **fields)
    p = ChartPoint(np.array(us), (np.array([0.1, 0.2, 0.3]), -0.2))
    with np.errstate(over="ignore", invalid="ignore"):
        for order in (0, 1, 2):
            def call(q):
                return stage(spec, q, order)
            got = _message(call, p)
            assert got.startswith(error.__name__ + ": ")
            assert got == _message(call, p.node(1))
            assert got.endswith(f" at {p.node(1).coords}")


def test_the_first_failing_node_wins_across_stages():
    # node 1 fails the finiteness test of G, node 2 the leaf metric test before it
    spec = MetricSpec.from_text(4, H="exp(800*u)", g={(2, 2): "x2"})
    p = ChartPoint(np.array([0.0, 1.0, 0.0]), (np.array([0.5, 0.5, -0.5]), 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite H at \(1\.0, 0\.5, 0\.0\)$"):
            assemble_coordinate_metric(spec, p, 2)


ENGINE_JETS = ("h", "t", "tup", "hup", "gamma", "Rbar_up", "A", "B",
               "Atil", "Ahat", "Btil", "Bhat", "Rtil", "gradRbar")
ENGINE_SPECS = SPECS + [("cw2", lambda: fixture("cw2"))]


@pytest.mark.parametrize("name, make", ENGINE_SPECS, ids=[name for name, _ in ENGINE_SPECS])
def test_the_engine_on_a_stack_gives_the_one_point_results_bitwise(name, make):
    spec = make()
    p = _stack(spec)
    for depth in (0, 1, 2):
        cc = curvature_at(spec, p, depth=depth)
        one = [curvature_at(spec, p.node(k), depth=depth) for k in range(NODES)]
        assert list(cc.blocks) == list(one[0].blocks)
        for key, value in cc.blocks.items():
            assert _same(value, [c.blocks[key] for c in one]), (depth, key)
        for field in ENGINE_JETS:
            if getattr(one[0], field) is None:
                assert getattr(cc, field) is None, field
                continue
            assert _same(getattr(cc, field).data, [getattr(c, field).data for c in one]), field
        assert _same(cc.cj.ginv0, [c.cj.ginv0 for c in one])


@pytest.mark.parametrize("name, make", ENGINE_SPECS, ids=[name for name, _ in ENGINE_SPECS])
def test_the_oracle_frame_blocks_on_a_stack_give_the_one_point_results_bitwise(name, make):
    spec = make()
    p = _stack(spec)
    nodes = [p.node(k) for k in range(NODES)]
    cj = eval_metric(spec, p, 0)
    fr = frame_components(cj)
    one = [frame_components(eval_metric(spec, q, 0)) for q in nodes]
    for field in ("e", "theta", "g_leaf"):
        assert _same(getattr(fr, field), [getattr(f, field) for f in one]), field
    for depth in (0, 1, 2):
        cc = coordinate_curvature(assemble_coordinate_metric(spec, p, depth + 2), depth)
        ref = [coordinate_curvature(assemble_coordinate_metric(spec, q, depth + 2), depth)
               for q in nodes]
        for field, nup in (("R", 1), ("Ric", 0), ("dR", 1), ("d2R", 1))[:2 + depth]:
            rows = [list(range(spec.n))] * (getattr(ref[0], field).ndim)
            assert _same(to_frame(getattr(cc, field), nup, fr, rows),
                         [to_frame(getattr(r, field), nup, f, rows) for r, f in zip(ref, one)]), field
        blocks = frame_blocks_from_oracle(spec, p, depth=depth)
        single = [frame_blocks_from_oracle(spec, q, depth=depth) for q in nodes]
        assert list(blocks) == list(single[0])
        for key, value in blocks.items():
            assert _same(value, [b[key] for b in single]), (depth, key)
            if key in ("Ric00", "S"):
                assert all(type(b[key]) is float for b in single), key


@pytest.mark.parametrize("n, count", [(4, 5), (4, 70), (5, 5), (5, 12), (6, 5)])
def test_the_oracle_runs_on_sub_stacks_sized_by_the_dimension(monkeypatch, n, count):
    sizes = []

    def counted(spec, p, depth=2):
        sizes.append(p.shape[0])
        return frame_blocks_from_oracle(spec, p, depth=depth)

    monkeypatch.setattr(classify, "frame_blocks_from_oracle", counted)
    spec = random_polynomial_spec(3, n=n)
    evaluate_samples(spec, sample_points(spec, count=count - 1), depth=0)
    per_call = max(1, classify.ORACLE_STACK_ENTRIES // n ** 6)
    expected = [min(per_call, len(block) - start)
                for block in (range(count)[i:i + NODE_BLOCK] for i in range(0, count, NODE_BLOCK))
                for start in range(0, len(block), per_call)]
    assert sizes == expected
    # five samples (`check --samples 4`): one stack up to n = 5, one call per sample at n = 6
    if count == 5:
        assert sizes == ([5] if n < 6 else [1] * 5)


def test_samples_across_a_node_block_boundary_equal_the_blocks_evaluated_alone():
    spec = random_polynomial_spec(3, n=5)
    samples = sample_points(spec, count=NODE_BLOCK + 5)
    whole = evaluate_samples(spec, samples, depth=2)
    parts = [evaluate_samples(spec, part, depth=2)
             for part in (samples[:NODE_BLOCK], samples[NODE_BLOCK:])]
    assert [len(ev.point.u) for ev in [whole] + parts] == [NODE_BLOCK + 6, NODE_BLOCK, 6]

    def joined(value, values) -> bool:
        ref = np.concatenate(values)
        return value.shape == ref.shape and value.tobytes() == ref.tobytes()

    assert joined(whole.point.u, [ev.point.u for ev in parts])
    for name in ("blocks", "oracle", "agreement"):
        stack = getattr(whole, name)
        assert list(stack) == list(getattr(parts[0], name))
        for key, value in stack.items():
            assert joined(value, [getattr(ev, name)[key] for ev in parts]), (name, key)
    for name in ("gbar", "Atil_grad", "Atil_d0"):
        assert joined(getattr(whole, name), [getattr(ev, name) for ev in parts]), name
    assert whole.depth == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([4, 5]))
def test_random_specs_give_engine_oracle_agreement(seed, n):
    spec = random_polynomial_spec(seed, n=n)
    ev = evaluate_samples(spec, sample_points(spec, count=4), depth=2)
    assert max(float(dev.max()) for dev in ev.agreement.values()) < 1e-8
    for blocks in (ev.blocks, ev.oracle):
        assert all(np.isfinite(v).all() for v in blocks.values())


def _loop_message(spec: MetricSpec, samples: list[ChartPoint]) -> str:
    """The error of the one-point loop ``evaluate_samples`` replaces: engine,
    then oracle, sample by sample."""
    with pytest.raises(ValueError) as err:
        for p in samples:
            curvature_at(spec, p, depth=2)
            frame_blocks_from_oracle(spec, p, depth=2)
    return f"{type(err.value).__name__}: {err.value}"


@pytest.mark.parametrize("us, failing", [
    ((0.1, 0.2, 1.0, -0.9, 0.3), "non-finite H at (1.0, 0.1, -0.2)"),
    ((0.1, 0.2, -0.9, 1.0, 0.3), "leaf metric not positive definite at (-0.9, 0.1, -0.2)"),
], ids=["oracle_then_engine", "engine_then_oracle"])
def test_evaluate_samples_raises_the_error_of_a_loop_over_the_samples(us, failing):
    # u = 1.0 overflows H, which only the oracle refuses; u = -0.9 makes g_22
    # indefinite, which the engine refuses first.  The engine runs on the
    # stack of all five samples, so the stacked call fails at either.
    spec = MetricSpec.from_text(4, H="exp(800*u)", g={(2, 2): "u + 0.5"})
    samples = [ChartPoint(u, (0.1, -0.2)) for u in us]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _loop_message(spec, samples)
        with pytest.raises(ValueError) as err:
            evaluate_samples(spec, samples, depth=2)
    assert f"{type(err.value).__name__}: {err.value}" == expected
    assert expected.endswith(failing)
