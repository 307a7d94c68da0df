"""Oracle-side tests: assembly, generic identities, frame extraction."""

import numpy as np
import pytest

from brinkmann.chart import ChartPoint, MetricSpec
from brinkmann.curvature import curvature_at
from brinkmann.oracle import (assemble_coordinate_metric, coordinate_curvature,
                              frame_blocks_from_oracle, to_frame)
from brinkmann.spaces import fixture, random_polynomial_spec


def test_assemble_flat_structure():
    cm = assemble_coordinate_metric(fixture("flat"), ChartPoint(0.1, (0.2, 0.3)), 1)
    G = cm.G.value()
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = -1.0
    expect[2, 2] = expect[3, 3] = 1.0
    assert np.allclose(G, expect)


def test_assemble_H_shifts_g00():
    spec = MetricSpec.from_text(4, H="1")
    cm = assemble_coordinate_metric(spec, ChartPoint(0.0, (0.0, 0.0)), 1)
    assert cm.G.value()[0, 0] == -2.0


def test_signature_random_specs():
    for seed in (1, 2, 3):
        spec = random_polynomial_spec(seed, n=5)
        cm = assemble_coordinate_metric(spec, ChartPoint(0.2, (0.1, -0.3, 0.2)), 0)
        eig = np.linalg.eigvalsh(cm.G.value())
        assert np.count_nonzero(eig < 0) == 1
        assert np.count_nonzero(eig > 0) == spec.n - 1


def test_flat_curvature_zero_exactly():
    cm = assemble_coordinate_metric(fixture("flat"), ChartPoint(0.0, (0.1, 0.4)), 4)
    cc = coordinate_curvature(cm, 2)
    assert np.max(np.abs(cc.R)) == 0.0
    assert np.max(np.abs(cc.d2R)) == 0.0


def test_cw_symmetry_ladder():
    p = ChartPoint(0.3, (0.4, -0.2))
    cm1 = assemble_coordinate_metric(fixture("cw4_r1"), p, 4)
    c1 = coordinate_curvature(cm1, 2)
    assert np.max(np.abs(c1.dR)) < 1e-10
    assert np.max(np.abs(c1.R)) > 0.1
    cm2 = assemble_coordinate_metric(fixture("cw4_r2"), p, 4)
    c2 = coordinate_curvature(cm2, 2)
    assert np.max(np.abs(c2.d2R)) < 1e-9
    assert np.max(np.abs(c2.dR)) > 0.1


def test_depth_requires_order():
    cm = assemble_coordinate_metric(fixture("flat"), ChartPoint(0.0, (0.0, 0.0)), 2)
    with pytest.raises(ValueError):
        coordinate_curvature(cm, 2)


def test_first_bianchi_and_pair_symmetry():
    for seed in (1, 2):
        spec = random_polynomial_spec(seed, n=4)
        cm = assemble_coordinate_metric(spec, ChartPoint(0.15, (0.2, -0.1)), 3)
        cc = coordinate_curvature(cm, 1)
        G = cm.G.value()
        Rlow = np.einsum("ae,ebcd->abcd", G, cc.R)
        assert np.max(np.abs(Rlow + np.einsum("bacd->abcd", Rlow))) < 1e-10
        assert np.max(np.abs(Rlow + np.einsum("abdc->abcd", Rlow))) < 1e-10
        assert np.max(np.abs(Rlow - np.einsum("cdab->abcd", Rlow))) < 1e-10
        cyc = Rlow + np.einsum("acdb->abcd", Rlow) + np.einsum("adbc->abcd", Rlow)
        assert np.max(np.abs(cyc)) < 1e-10


def test_semi_symmetry_identity():
    # antisymmetrized second covariant derivative equals the curvature action on R
    for seed in (4, 5):
        spec = random_polynomial_spec(seed, n=4)
        cm = assemble_coordinate_metric(spec, ChartPoint(0.22, (0.15, -0.3)), 4)
        cc = coordinate_curvature(cm, 2)
        anti = cc.d2R - np.einsum("abcdnm->abcdmn", cc.d2R)
        # anti[a,b,c,d,m,n] = (nabla_n nabla_m - nabla_m nabla_n) R^a_{bcd}
        R = cc.R
        action = (np.einsum("arnm,rbcd->abcdmn", R, R)
                  - np.einsum("rbnm,arcd->abcdmn", R, R)
                  - np.einsum("rcnm,abrd->abcdmn", R, R)
                  - np.einsum("rdnm,abcr->abcdmn", R, R))
        assert np.max(np.abs(anti - action)) < 1e-8


def test_parallel_field_K():
    # covariant derivative of -d_v vanishes identically: Gamma^a_{mu 1} = 0
    spec = random_polynomial_spec(6, n=5)
    cm = assemble_coordinate_metric(spec, ChartPoint(0.3, (0.2, 0.1, -0.2)), 3)
    cc = coordinate_curvature(cm, 0)
    assert np.max(np.abs(cc.Gamma[:, :, 1])) < 1e-12
    assert np.max(np.abs(cc.Gamma[:, 1, :])) < 1e-12


def test_to_frame_extracts_A():
    spec = fixture("cw4_r2")
    p = ChartPoint(0.6, (0.2, -0.1))
    blocks = frame_blocks_from_oracle(spec, p, depth=0)
    cc = curvature_at(spec, p, depth=0)
    assert np.max(np.abs(blocks["A"] - cc.curvature.A)) < 1e-10
    assert np.allclose(blocks["A"], -2.0 * np.diag([p.u, 1.0]))


def test_to_frame_flat_zero():
    blocks = frame_blocks_from_oracle(fixture("flat"), ChartPoint(0.0, (0.3, 0.4)), depth=2)
    for v in blocks.values():
        assert np.max(np.abs(np.asarray(v))) == 0.0


def test_to_frame_slot_contraction():
    # converting the metric itself must give the frame inner-product table
    spec = random_polynomial_spec(7, n=4)
    p = ChartPoint(0.1, (0.5, -0.2))
    cm = assemble_coordinate_metric(spec, p, 0)
    ft = to_frame(cm.G.value(), 0, cm.frame)
    assert np.max(np.abs(ft.data - cm.frame.frame_metric())) < 1e-12


def test_master_cross_check_on_random_specs():
    # every engine block equals its frame-converted oracle value
    for seed in (1, 2):
        spec = random_polynomial_spec(seed, n=4 + seed % 2)
        p = spec.center()
        p = ChartPoint(p.u + 0.13, tuple(x + 0.07 for x in p.x))
        cc = curvature_at(spec, p, depth=2)
        ob = frame_blocks_from_oracle(spec, p, depth=2)
        eng = {"Rbar": cc.curvature.Rbar, "A": cc.curvature.A, "B": cc.curvature.B,
               "R_i0k": cc.curvature.R_i0k, "Ric00": cc.curvature.Ric00,
               "Ric0i": cc.curvature.Ric0i, "Ricij": cc.curvature.Ricij,
               "S": cc.curvature.S,
               "Atil": cc.first.Atil, "Ahat": cc.first.Ahat, "Btil": cc.first.Btil,
               "Bhat": cc.first.Bhat, "Rtil": cc.first.Rtil,
               "gradRbar": cc.first.gradRbar}
        eng.update(cc.second.blocks)
        for key, oracle_val in ob.items():
            o = np.asarray(oracle_val)
            e = np.asarray(eng[key])
            scale = 1.0 + (np.max(np.abs(o)) if o.size else 0.0)
            assert np.max(np.abs(e - o)) / scale < 1e-8, key
