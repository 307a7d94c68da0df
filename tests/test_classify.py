import pathlib

import numpy as np
import pytest

from brinkmann import classify, curvature
from brinkmann.chart import ChartJets, eval_metric
from brinkmann.classify import (EngineDisagreement, algebra_lemma_probe,
                                check_theorem_redu, eisenhart_split, evaluate_samples,
                                extract_A_tilde, gbar_eigh, sample_points, symmetry_order)
from brinkmann.curvature import FRAME_BLOCKS
from brinkmann.metricfile import load_metric_file
from brinkmann.spaces import (CwParams, apply_chart_change, fixture, make_cw, make_product,
                              random_affine_change)


def _atil_stack(spec):
    """The stack ``extract_A_tilde`` reads: depth 1."""
    return evaluate_samples(spec, depth=1)


def test_sample_points_deterministic_and_inside_box():
    spec = fixture("cw4_r2_x_sphere")
    pts = sample_points(spec)
    again = sample_points(spec)
    assert len(pts) == 9
    assert [c.tobytes() for c in pts.coords] == [c.tobytes() for c in again.coords]
    for k in range(len(pts)):
        for v, (lo, hi) in zip(pts.at(k), spec.box):
            assert lo <= v <= hi


def test_sample_points_on_a_two_dimensional_chart_skip_the_center():
    # u alone is sampled, in base 2, whose first Halton point is the center
    spec = fixture("cw2")
    pts = sample_points(spec, count=4)
    assert pts.u.tolist() == [-0.3999999999999999, 0.40000000000000013, -0.6,
                              0.19999999999999996, 0.0]
    assert pts.at(4) == spec.center().at(0)


def test_verdicts():
    assert symmetry_order(evaluate_samples(fixture("flat"))).verdict == "flat"
    assert symmetry_order(evaluate_samples(fixture("cw4_r1"))).verdict == "locally_symmetric"
    assert (symmetry_order(evaluate_samples(fixture("cw4_r2"))).verdict
            == "proper_second_symmetric")
    rep = symmetry_order(evaluate_samples(fixture("cw4_r3")))
    assert rep.verdict == "undetermined"
    nonzero = {k for k, v in rep.second_block_norms.items() if v > rep.floor}
    assert nonzero == {"00_a"}


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0, 1e-3])
def test_symmetry_order_and_check_theorem_redu_refuse_a_tol_outside_zero_to_the_floor(tol):
    message = f"tol must be finite and in (0, 0.001), the detection floor, got {tol!r}"
    with pytest.raises(ValueError) as err:
        symmetry_order(evaluate_samples(fixture("cw4_r2")), tol=tol)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        check_theorem_redu(evaluate_samples(fixture("cw4_r3"), depth=1), tol=tol)
    assert str(err.value) == message


def test_product_with_symmetric_block_stays_second_symmetric():
    assert (symmetry_order(evaluate_samples(fixture("cw4_r2_x_sphere"))).verdict
            == "proper_second_symmetric")
    assert (symmetry_order(evaluate_samples(fixture("cw4_r1_x_hyperbolic"))).verdict
            == "locally_symmetric")


def test_depth_one_cannot_claim_second_symmetry():
    rep = symmetry_order(evaluate_samples(fixture("cw4_r2"), depth=1))
    assert rep.verdict == "undetermined"
    rep = symmetry_order(evaluate_samples(fixture("cw4_r1"), depth=1))
    assert rep.verdict == "locally_symmetric"


def test_gray_zone_refuses_verdict():
    # second derivative sits between tol and the detection floor
    tiny = make_cw(CwParams(4, (np.diag([0.0, 1.0]), np.diag([1.0, 0.0]),
                                np.diag([1e-6, 0.0]))))
    rep = symmetry_order(evaluate_samples(tiny))
    assert rep.verdict == "undetermined"
    assert rep.tol * rep.scale < rep.residuals["nabla2_R"] < rep.floor * rep.scale


def test_a_negative_sample_count_is_refused():
    with pytest.raises(ValueError, match=r"^sample count -3 is negative$"):
        sample_points(fixture("flat"), count=-3)
    center = sample_points(fixture("flat"), count=0)
    assert len(center) == 1 and center.at(0) == fixture("flat").center().at(0)


def test_minimum_sample_count():
    spec = fixture("flat")
    with pytest.raises(ValueError):
        symmetry_order(evaluate_samples(spec, sample_points(spec).rows(slice(3))))


@pytest.mark.parametrize("count", [1, 4])
def test_a_stack_of_fewer_than_five_samples_is_refused(count):
    spec = fixture("cw4_r2")
    evals = evaluate_samples(spec, sample_points(spec).rows(slice(count)))
    with pytest.raises(ValueError,
                       match=rf"^need at least 5 sample points, the stack has {count}$"):
        symmetry_order(evals)


def test_the_report_lists_the_samples_of_its_stack():
    spec = fixture("cw4_r2")
    samples = sample_points(spec, count=20)
    rep = symmetry_order(evaluate_samples(spec, samples))
    assert rep.samples == [samples.at(k) for k in range(len(samples))]
    assert rep.to_dict()["samples"] == [list(samples.at(k)) for k in range(len(samples))]


def test_engine_disagreement_aborts():
    spec = fixture("cw4_r2")
    samples = sample_points(spec)
    evals = evaluate_samples(spec, samples, depth=2)
    evals.agreement["A"][0] = 1e-3
    with pytest.raises(EngineDisagreement):
        symmetry_order(evals)


def test_theorem_redu_consequences():
    spec = fixture("cw4_r2_x_sphere")
    checks = check_theorem_redu(evaluate_samples(spec, depth=1))
    assert checks.all_pass()
    assert checks.scalar_value == pytest.approx(2.0)  # sphere of radius 1

    checks_cw = check_theorem_redu(evaluate_samples(fixture("cw4_r2"), depth=1))
    assert checks_cw.all_pass()
    assert checks_cw.scalar_value == pytest.approx(0.0, abs=1e-12)

    # cubic P: the structural checks hold, yet the space is not 2nd-symmetric;
    # the verdict (not the checks) flags it as outside the theorem's hypothesis
    r3 = fixture("cw4_r3")
    assert check_theorem_redu(evaluate_samples(r3, depth=1)).all_pass()
    assert symmetry_order(evaluate_samples(r3)).verdict == "undetermined"


def test_extract_A_tilde_cw():
    rep = extract_A_tilde(_atil_stack(fixture("cw4_r2")))
    for val in rep.values:
        assert np.allclose(val, -2.0 * np.diag([1.0, 0.0]))
    assert rep.grad_parallel and rep.d0_parallel

    rep1 = extract_A_tilde(_atil_stack(fixture("cw4_r1")))
    for val in rep1.values:
        assert np.max(np.abs(val)) < 1e-12


def test_A_tilde_eigenvalues_chart_invariant():
    spec = fixture("cw4_r2")
    base = extract_A_tilde(_atil_stack(spec))
    base_eigs = np.sort(base.eigenvalues[-1])
    rng = np.random.default_rng(42)
    for _ in range(5):
        change = random_affine_change(spec, rng)
        moved = apply_chart_change(spec, change)
        rep = extract_A_tilde(_atil_stack(moved))
        assert np.max(np.abs(np.sort(rep.eigenvalues[-1]) - base_eigs)) < 1e-8


def test_gbar_eigh_solves_generalized_problem():
    rng = np.random.default_rng(1)
    L = np.tril(rng.normal(size=(4, 4))) + 4.0 * np.eye(4)
    g = L @ L.T
    T = rng.normal(size=(4, 4))
    T = T + T.T
    mu, vecs = gbar_eigh(T, g)
    for k in range(4):
        assert np.max(np.abs(T @ vecs[:, k] - mu[k] * (g @ vecs[:, k]))) < 1e-10
    assert np.max(np.abs(vecs.T @ g @ vecs - np.eye(4))) < 1e-10


def test_gbar_eigh_on_a_stack_is_the_one_matrix_calls_bitwise():
    rng = np.random.default_rng(2)
    L = np.tril(rng.normal(size=(5, 3, 3))) + 3.0 * np.eye(3)
    g = L @ np.swapaxes(L, -1, -2)
    T = rng.normal(size=(5, 3, 3))
    T = T + np.swapaxes(T, -1, -2)
    stacked = gbar_eigh(T, g)
    for got, one in zip(stacked, zip(*(gbar_eigh(T[k], g[k]) for k in range(5)))):
        assert got.tobytes() == np.stack(one).tobytes()
    mu, vecs = gbar_eigh(np.zeros((2, 0, 0)), np.zeros((2, 0, 0)))
    assert (mu.shape, vecs.shape) == ((2, 0), (2, 0, 0))


def test_eisenhart_split_product():
    split = eisenhart_split(evaluate_samples(fixture("cw4_r2_x_sphere"), depth=1))
    assert split.eigenvalues == pytest.approx([0.0, 1.0], abs=1e-9)
    assert split.multiplicities == [2, 2]
    assert split.to_dict()["partition"] == [[2, 3], [4, 5]]
    assert split.zero_cluster == 0
    assert split.atil_on_flat_block is True
    assert split.spread < 1e-7
    assert not split.ambiguous


def test_eisenhart_split_pure_cw():
    split = eisenhart_split(evaluate_samples(fixture("cw4_r2"), depth=1))
    assert split.multiplicities == [2]
    assert split.zero_cluster == 0
    assert split.eigenvalues == pytest.approx([0.0], abs=1e-12)


def test_eisenhart_ambiguous_clusters_flagged():
    # a huge sphere gives a tiny nonzero eigenvalue within 10x CLUSTER_TOL of 0
    spec = make_product(fixture("cw4_r2"), "sphere", radius=500.0)
    split = eisenhart_split(evaluate_samples(spec, depth=1))
    assert split.ambiguous


def test_lemma_probe_three_and_four_index():
    for dim in (3, 4, 5):
        res = algebra_lemma_probe(dim, 2000, rng_seed=7, shape="three_index")
        assert res.ok()
        assert res.min_residual > 0.05
        res4 = algebra_lemma_probe(dim, 1000, rng_seed=8, shape="four_index")
        assert res4.ok()


def test_lemma_probe_zero_tensor_passes():
    res = algebra_lemma_probe(3, 10, rng_seed=0)
    assert res.zero_passes


def test_lemma_probe_b_construction():
    # T_ijk = b_ij v_k - b_ik v_j with b symmetric, b v = 0: the hypothesis
    # contraction reduces to b b, nonzero whenever b is
    rng = np.random.default_rng(3)
    dim = 4
    v = np.zeros(dim)
    v[0] = 1.0
    b = rng.normal(size=(dim, dim))
    b = 0.5 * (b + b.T)
    b[0, :] = b[:, 0] = 0.0
    T = np.einsum("ij,k->ijk", b, v) - np.einsum("ik,j->ijk", b, v)
    assert np.max(np.abs(T + np.swapaxes(T, 1, 2))) < 1e-14
    cyc = T + np.einsum("jki->ijk", T) + np.einsum("kij->ijk", T)
    assert np.max(np.abs(cyc)) < 1e-14
    sym = 0.5 * (T + np.swapaxes(T, 0, 1))
    hyp = np.einsum("ijr,rnm->ijnm", sym, T)
    contracted = np.einsum("i,m,ijnm->jn", v, v, hyp)
    assert np.max(np.abs(contracted + 0.5 * b @ b)) < 1e-12
    assert np.max(np.abs(contracted)) > 1e-3


def test_lemma_probe_validation():
    with pytest.raises(ValueError):
        algebra_lemma_probe(9, 10, 0)
    with pytest.raises(ValueError):
        algebra_lemma_probe(3, 10, 0, shape="nope")


def test_verdict_chart_invariance():
    spec = fixture("cw4_r2")
    rng = np.random.default_rng(11)
    samples = sample_points(spec, count=4)
    for _ in range(20):
        moved = apply_chart_change(spec, random_affine_change(spec, rng))
        assert symmetry_order(evaluate_samples(moved, samples)).verdict \
            == "proper_second_symmetric"


def test_non_finite_agreement_aborts():
    spec = fixture("cw4_r2")
    samples = sample_points(spec)
    evals = evaluate_samples(spec, samples, depth=1)
    evals.agreement["Bhat"][3] = float("nan")
    with pytest.raises(EngineDisagreement, match=r"worst block Bhat at sample \[") as info:
        symmetry_order(evals)
    assert str(list(samples.at(3))) in str(info.value)


def test_extract_A_tilde_on_a_chart_without_leaf_is_an_empty_parallel_report():
    # m = 0: Atil is empty, so every residual is 0 and Atil is parallel
    rep = extract_A_tilde(_atil_stack(fixture("cw2")))
    assert (rep.values.shape, rep.eigenvalues.shape) == ((9, 0, 0), (9, 0))
    assert (rep.grad_residual, rep.d0_residual) == (0.0, 0.0)
    assert rep.grad_parallel and rep.d0_parallel


def test_extract_A_tilde_refuses_depth_zero_evaluations():
    evals = evaluate_samples(fixture("cw4_r2"), depth=0)
    assert (evals.Atil_grad, evals.Atil_d0) == (None, None)
    with pytest.raises(ValueError, match=r"^extract_A_tilde needs evaluations of depth >= 1 "
                                         r"\(got depth 0\)"):
        extract_A_tilde(evals)


@pytest.mark.parametrize("field, sample, residual", [
    ("Atil_grad", 2, "grad_residual"),
    ("Atil_d0", 3, "d0_residual"),
])
def test_a_non_finite_A_tilde_residual_is_a_located_error(field, sample, residual):
    # max(0.0, nan) is 0.0 in Python, so a NaN residual must not be folded that way
    spec = fixture("cw4_r2")
    samples = sample_points(spec)
    evals = evaluate_samples(spec, samples, depth=1)
    rep = extract_A_tilde(evals)
    assert rep.grad_parallel and rep.d0_parallel
    getattr(evals, field)[sample, 0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=rf"^A_tilde {residual} is nan at sample \[") as err:
            extract_A_tilde(evals)
    assert str(list(samples.at(sample))) in str(err.value)


METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


@pytest.mark.parametrize("name", ["poly_seed1", "poly_seed2"])
def test_nabla2_R_residual_is_the_max_over_the_twelve_blocks(name):
    # on these metrics the depth-0 block R_i0k is larger than every nabla nabla R block
    spec = load_metric_file(str(METRICS / f"{name}.metric"))
    samples = sample_points(spec)
    evals = evaluate_samples(spec, samples, depth=2)
    rep = symmetry_order(evals)
    second = [float(np.max(np.abs(blocks[k][s]))) for s in range(len(samples))
              for blocks in (evals.blocks, evals.oracle) for k in FRAME_BLOCKS[2]]
    assert len(second) == 2 * 12 * len(samples)
    assert rep.residuals["nabla2_R"] == max(second)
    assert max(second) < float(np.max(np.abs(evals.oracle["R_i0k"])))


def test_depth_one_reports_no_nabla2_R():
    # the oracle's R_i0k is ~1e-16 here, not zero; nabla nabla R is not computed at depth 1
    rep = symmetry_order(evaluate_samples(fixture("scrambled_cw4"), depth=1))
    assert rep.residuals["nabla2_R"] == 0.0
    assert rep.second_block_norms == {}


@pytest.mark.parametrize("name", ["cw4_r2", "poly1"])
def test_symmetry_order_refuses_depth_zero_evaluations(name):
    evals = evaluate_samples(fixture(name), depth=0)
    with pytest.raises(ValueError, match=r"^symmetry_order needs evaluations of depth >= 1 "
                                         r"\(got depth 0\)"):
        symmetry_order(evals)


def test_check_theorem_redu_refuses_depth_zero_evaluations():
    evals = evaluate_samples(fixture("cw4_r2"), depth=0)
    with pytest.raises(ValueError, match=r"^check_theorem_redu needs evaluations of depth >= 1 "
                                         r"\(got depth 0\)"):
        check_theorem_redu(evals)


@pytest.mark.parametrize("path", sorted(METRICS.glob("*.metric")), ids=lambda path: path.stem)
def test_the_oracle_on_the_engine_metric_jets_gives_the_bytes_of_its_own(path, monkeypatch):
    # evaluate_samples hands each oracle sub-stack its rows of the engine's
    # metric jets, truncated to order 3 at depth 1; an oracle that runs its
    # own eval_metric on each sub-stack (one point each at n = 6) must give
    # the same bytes
    spec = load_metric_file(str(path))
    own, handed = classify.frame_blocks_from_oracle, []

    def oracle(share: bool):
        def run(metric, p=None, depth=2):
            handed.append(isinstance(metric, ChartJets) and p is None)
            return own(metric if share else metric.spec, None if share else metric.point, depth)
        return run

    for depth in (0, 1, 2):
        monkeypatch.setattr(classify, "frame_blocks_from_oracle", oracle(True))
        shared = evaluate_samples(spec, depth=depth)
        monkeypatch.setattr(classify, "frame_blocks_from_oracle", oracle(False))
        alone = evaluate_samples(spec, depth=depth)
        for name in ("blocks", "oracle", "agreement"):
            got, ref = getattr(shared, name), getattr(alone, name)
            assert list(got) == list(ref)
            for key, value in got.items():
                assert value.shape == ref[key].shape and value.tobytes() == ref[key].tobytes(), \
                    (depth, name, key)
    assert handed and all(handed)
    if spec.n == 6:
        assert len(handed) == 2 * 3 * len(sample_points(spec))


def test_the_engine_leaves_the_metric_jets_it_shares_unchanged(monkeypatch):
    made = []

    def recorded(spec, p, order):
        cj = eval_metric(spec, p, order)
        made.append((cj, cj.fields.tobytes()))
        return cj

    monkeypatch.setattr(curvature, "eval_metric", recorded)
    evaluate_samples(load_metric_file(str(METRICS / "cw6_order2.metric")), depth=2)
    (cj, before), = made
    assert not any(a.flags.writeable for a in (cj.fields, cj.H.data, cj.W.data, cj.g.data))
    assert cj.fields.tobytes() == before
    with pytest.raises(ValueError, match="read-only"):
        cj.g.data[..., 0] += 1.0
