"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from brinkmann import expr as E
from brinkmann import jets as J
from brinkmann.classify import (algebra_lemma_probe, check_theorem_redu, eisenhart_split,
                                evaluate_samples, extract_A_tilde, sample_points, symmetry_order)
from brinkmann.canonical import reconstruct
from brinkmann.spaces import (CwParams, FIXTURE_NAMES, apply_chart_change, fixture,
                              make_cw, random_affine_change)
from brinkmann.transport import (geodesic_integrate, null_sectional_growth, null_velocity)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


SECOND_SYMMETRIC_FIXTURES = ("cw4_r2", "cw6_r2", "cw4_r2_x_sphere", "scrambled_cw4")


def test_criterion_1_oracle_equivalence():
    """Every frame tensor block matches the brute-force oracle to 1e-8."""
    t0 = time.time()
    worst = 0.0
    worst_where = ""
    for name in FIXTURE_NAMES:
        spec = fixture(name)
        evaluations = evaluate_samples(spec, sample_points(spec), depth=2)
        assert len(evaluations.point.u) == 9
        for block, dev in evaluations.agreement.items():
            if dev.max() > worst:
                worst, worst_where = float(dev.max()), f"{name}/{block}"
    elapsed = time.time() - t0
    _report("1", worst < 1e-8 and elapsed < 60.0,
            f"max deviation {worst:.2e} ({worst_where}), {len(FIXTURE_NAMES)} fixtures "
            f"x 9 points in {elapsed:.1f}s")


def test_criterion_2_symmetry_ladder():
    """CW order 1/2 classify as expected at d = 4, 6; quadratic P is neither."""
    verdicts = {}
    for d in (4, 6):
        m = d - 2
        p0 = np.diag([1.0, -0.5] + [0.25] * (m - 2))
        p1 = np.diag([1.0, 0.0] + [0.5] * (m - 2))
        verdicts[f"cw{d}_r1"] = symmetry_order(
            evaluate_samples(make_cw(CwParams(d, (p0,))))).verdict
        verdicts[f"cw{d}_r2"] = symmetry_order(
            evaluate_samples(make_cw(CwParams(d, (p0, p1))))).verdict
    rep3 = symmetry_order(evaluate_samples(fixture("cw4_r3")))
    nonzero_blocks = {k for k, v in rep3.second_block_norms.items() if v > rep3.floor}
    ok = (verdicts["cw4_r1"] == verdicts["cw6_r1"] == "locally_symmetric"
          and verdicts["cw4_r2"] == verdicts["cw6_r2"] == "proper_second_symmetric"
          and rep3.verdict == "undetermined"
          and nonzero_blocks == {"00_a"})
    _report("2", ok, f"verdicts {verdicts}, r3 -> {rep3.verdict}, "
                     f"nonzero second blocks {sorted(nonzero_blocks)}")


def test_criterion_3_theorem_redu_consequences():
    """On 2nd-symmetric fixtures the four slices and the leaf gradient vanish
    and the scalar curvature is constant."""
    ok = True
    details = []
    for name in SECOND_SYMMETRIC_FIXTURES:
        spec = fixture(name)
        evaluations = evaluate_samples(spec, depth=1)
        checks = check_theorem_redu(evaluations, tol=1e-9)
        svals = evaluations.blocks["S"]
        spread_ok = checks.scalar_spread < 1e-9 * (1.0 + max(abs(s) for s in svals))
        ok = ok and checks.all_pass() and spread_ok
        details.append(f"{name}: S={checks.scalar_value:.3g} "
                       f"spread={checks.scalar_spread:.1e}")
    _report("3", ok, "; ".join(details))


def test_criterion_4_A_tilde_structure():
    """A-tilde lives on the flat Ricci block, is parallel, and its spectrum
    is invariant under 20 random affine chart changes."""
    spec = fixture("cw4_r2_x_sphere")
    evaluations = evaluate_samples(spec, depth=1)
    atil = extract_A_tilde(evaluations)
    split = eisenhart_split(evaluations)
    supported = split.atil_on_flat_block is True
    parallel = (atil.grad_parallel and atil.d0_parallel
                and atil.grad_residual < 1e-8 and atil.d0_residual < 1e-8)

    base = fixture("cw4_r2")
    base_eigs = np.sort(extract_A_tilde(
        evaluate_samples(base, depth=1)).eigenvalues[-1])
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        change = random_affine_change(base, rng)
        moved = apply_chart_change(base, change)
        eigs = np.sort(extract_A_tilde(
            evaluate_samples(moved, depth=1)).eigenvalues[-1])
        worst = max(worst, float(np.max(np.abs(eigs - base_eigs))))
    ok = supported and parallel and worst < 1e-8
    _report("4", ok, f"flat-block support {supported}, grad/d0 residuals "
                     f"{atil.grad_residual:.1e}/{atil.d0_residual:.1e}, "
                     f"eigenvalue drift over 20 chart changes {worst:.2e}")


def test_criterion_5_eisenhart_split():
    """CW x unit sphere: eigenvalue clusters {0 x2, 1 x2}, correct partition."""
    split = eisenhart_split(evaluate_samples(fixture("cw4_r2_x_sphere"), depth=1))
    ok = (split.multiplicities == [2, 2]
          and abs(split.eigenvalues[0]) < 1e-9
          and abs(split.eigenvalues[1] - 1.0) < 1e-9
          and split.to_dict()["partition"] == [[2, 3], [4, 5]]
          and split.spread < 1e-7
          and not split.ambiguous)
    _report("5", ok, f"clusters {split.eigenvalues} x {split.multiplicities}, "
                     f"partition {split.to_dict()['partition']}, spread {split.spread:.1e}")


def test_criterion_6_canonical_round_trip():
    """Scramble CW by R(0.3u) and D = (u^2, 0); the reconstruction recovers
    the rotation, the injected spectrum and an affine A."""
    t0 = time.time()
    spec = fixture("scrambled_cw4")
    cf = reconstruct(spec, u_interval=(-0.8, 0.8), steps=1600)
    elapsed = time.time() - t0

    def rinj(u):
        th = 0.3 * u
        c, s = np.cos(th), np.sin(th)
        return np.array([[c, -s], [s, c]])

    C0 = rinj(cf.us[0]).T @ cf.R_of_u[0]
    rot_dev = max(float(np.max(np.abs(cf.R_of_u[k] - rinj(cf.us[k]) @ C0)))
                  for k in range(0, len(cf.us), 100))
    spectrum_dev = max(
        float(np.max(np.abs(np.sort(np.linalg.eigvalsh(cf.P_of_u[k]))
                            - np.sort(np.array([cf.us[k], 1.0])))))
        for k in range(0, len(cf.us), 50))
    ok = (cf.orthogonality_error < 1e-8 and spectrum_dev < 1e-6
          and cf.affine_residual < 1e-8 and cf.proper and elapsed < 10.0
          and rot_dev < 1e-6)
    _report("6", ok, f"orthogonality {cf.orthogonality_error:.1e}, spectrum dev "
                     f"{spectrum_dev:.1e}, affine residual {cf.affine_residual:.1e}, "
                     f"{elapsed:.1f}s")


def test_criterion_7_transport_laws():
    """Null sectional curvature grows affinely on order 2, is constant on
    order 1; geodesic invariants are conserved."""
    x_dir = np.array([0.0, 0.0, 1.0, 0.0])
    origin = [0.0, 0.0, 0.0, 0.0]

    spec2 = fixture("cw4_r2")
    traj2 = geodesic_integrate(spec2, origin,
                               null_velocity(spec2, (0.0, 0.0, 0.0)),
                               tau_span=10.0, steps=1000)
    res2 = null_sectional_growth(spec2, traj2, x_dir)

    spec1 = fixture("cw4_r1")
    traj1 = geodesic_integrate(spec1, origin,
                               null_velocity(spec1, (0.0, 0.0, 0.0)),
                               tau_span=10.0, steps=1000)
    res1 = null_sectional_growth(spec1, traj1, x_dir)
    const_dev = float(np.max(np.abs(res1["K"] - res1["K"][0])))

    rng = np.random.default_rng(77)
    traj_g = geodesic_integrate(spec2, [0.0, 0.1, 0.2, -0.1],
                                rng.normal(size=4) * 0.5, tau_span=10.0, steps=1500)
    en = traj_g.energy()
    kp = traj_g.k_pairing()
    energy_drift = float(np.max(np.abs(en - en[0])))
    pairing_drift = float(np.max(np.abs(kp - kp[0])))

    ok = (res2["max_second_difference"] < 1e-6 and const_dev < 1e-8
          and energy_drift < 1e-7 and pairing_drift < 1e-7)
    _report("7", ok, f"order-2 second difference {res2['max_second_difference']:.1e}, "
                     f"order-1 constancy {const_dev:.1e}, drifts "
                     f"{energy_drift:.1e}/{pairing_drift:.1e}")


def test_criterion_8_algebra_lemma_probes():
    """Random nonzero symmetric-pattern tensors all violate the contraction
    hypothesis; the zero tensor passes."""
    t0 = time.time()
    min_res = np.inf
    violations = 0
    zero_ok = True
    total = 0
    for dim in (3, 4, 5):
        for shape in ("three_index", "four_index"):
            res = algebra_lemma_probe(dim, 10_000 // 3, rng_seed=100 + dim, shape=shape)
            min_res = min(min_res, res.min_residual)
            violations += res.violations
            zero_ok = zero_ok and res.zero_passes
            total += res.trials
    elapsed = time.time() - t0
    ok = min_res > 0.0 and violations == 0 and zero_ok and elapsed < 5.0 and total >= 10_000
    _report("8", ok, f"{total} tensors, min residual {min_res:.3f}, "
                     f"{violations} violations, {elapsed:.1f}s")


def test_criterion_9_parser_and_jet_foundations():
    """1000 random polynomial expressions: jet partials vs finite differences;
    exact ring axioms; positioned diagnostics."""
    rng = np.random.default_rng(2024)
    names = E.var_names(5)
    step = 1e-4
    worst_fd = 0.0
    for _ in range(1000):
        terms = []
        for _ in range(rng.integers(2, 6)):
            coeff = f"{rng.uniform(-2, 2):.4f}"
            factors = [coeff] + list(rng.choice(names, size=rng.integers(0, 3)))
            terms.append("*".join(factors))
        text = " + ".join(terms)
        ast = E.parse(text, 5)
        vals = {nm: float(rng.uniform(-1, 1)) for nm in names}
        env = {nm: J.seed(k, vals[nm], len(names), 1) for k, nm in enumerate(names)}
        jet = E.eval_jet(ast, env, len(names), 1)
        k = int(rng.integers(0, len(names)))
        hi = dict(vals); hi[names[k]] += step
        lo = dict(vals); lo[names[k]] -= step
        fd = (E.eval_scalar(ast, hi) - E.eval_scalar(ast, lo)) / (2 * step)
        alpha = [0] * len(names)
        alpha[k] = 1
        worst_fd = max(worst_fd, abs(jet.partial(tuple(alpha)) - fd))

    worst_ring = 0.0
    for _ in range(100):
        ctx = J.context(3, 4)
        a, b, c = (J.Jet(ctx, rng.normal(size=ctx.ncoeffs)) for _ in range(3))
        scale = 1.0 + max(np.max(np.abs(x.data)) for x in (a, b, c)) ** 3
        worst_ring = max(
            worst_ring,
            float(np.max(np.abs(((a * b) * c).data - (a * (b * c)).data))) / scale,
            float(np.max(np.abs((a * (b + c)).data - (a * b + a * c).data))) / scale,
            float(np.max(np.abs((a * b).data - (b * a).data))) / scale,
        )

    diagnostics_ok = True
    for text, offset in (("x9", 0), ("u + x9", 4), ("u^1.5", 2), ("2 @ 3", 2)):
        try:
            E.parse(text, 4)
            diagnostics_ok = False
        except E.ParseError as err:
            diagnostics_ok = diagnostics_ok and err.offset == offset

    ok = worst_fd < 1e-6 and worst_ring < 1e-13 and diagnostics_ok
    _report("9", ok, f"finite-difference dev {worst_fd:.2e}, ring dev {worst_ring:.2e}, "
                     f"positioned diagnostics {diagnostics_ok}")
