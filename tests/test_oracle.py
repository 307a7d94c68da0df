"""Oracle-side tests: assembly, generic identities, frame extraction."""

import pathlib

import numpy as np
import pytest

from brinkmann.chart import ChartPoint, MetricSpec, eval_metric
from brinkmann.curvature import FRAME_BLOCKS, curvature_at
from brinkmann.metricfile import load_metric_file
from brinkmann.oracle import (assemble_coordinate_metric, coordinate_curvature,
                              frame_blocks_from_oracle, to_frame)
from brinkmann.spaces import fixture, random_polynomial_spec
from brinkmann.transport import christoffel_values

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"


def test_assemble_flat_structure():
    cm = assemble_coordinate_metric(fixture("flat"), ChartPoint(0.1, (0.2, 0.3)), 1)
    G = cm.G.value()
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = -1.0
    expect[2, 2] = expect[3, 3] = 1.0
    assert np.allclose(G, expect)


@pytest.mark.parametrize("seed", [3, 8])
def test_assemble_matches_entrywise_reference(seed):
    # the slice assembly equals writing G entry by entry from the chart jets
    spec = random_polynomial_spec(seed, n=5)
    p = ChartPoint(0.1, (0.2, -0.3, 0.15))
    cj = eval_metric(spec, p, 3)
    n, m = spec.n, spec.m
    ref = np.zeros((n, n, cj.H.data.shape[-1]))
    ref[0, 0] = -2.0 * cj.H.data
    ref[0, 1, 0] = ref[1, 0, 0] = -1.0
    for i in range(m):
        ref[0, 2 + i] = ref[2 + i, 0] = -cj.W.data[i]
        for j in range(m):
            ref[2 + i, 2 + j] = cj.g.data[i, j]
    G = assemble_coordinate_metric(spec, p, 3).G.data
    assert G.shape == ref.shape and G.tobytes() == ref.tobytes()


@pytest.mark.parametrize("path", sorted(METRICS.glob("*.metric")), ids=lambda p: p.stem)
def test_transport_christoffel_is_the_oracle_gamma(path):
    spec = load_metric_file(str(path))
    p = spec.center()
    Gamma = coordinate_curvature(assemble_coordinate_metric(spec, p, 2), 0).Gamma
    got = christoffel_values(spec, np.array([p.u, 0.0, *p.x]))
    assert got.shape == Gamma.shape == (spec.n,) * 3
    assert np.max(np.abs(got - Gamma)) <= 1e-14 * (1.0 + np.max(np.abs(Gamma)))


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
    assert np.max(np.abs(blocks["A"] - cc.blocks["A"])) < 1e-10
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
    ft = to_frame(cm.G.value(), 0, cm.frame, [list(range(4))] * 2)
    assert isinstance(ft, np.ndarray) and ft.shape == (4, 4)
    assert np.max(np.abs(ft - cm.frame.frame_metric())) < 1e-12


def test_master_cross_check_on_random_specs():
    # every engine block equals its frame-converted oracle value
    for seed in (1, 2):
        spec = random_polynomial_spec(seed, n=4 + seed % 2)
        p = spec.center()
        p = ChartPoint(p.u + 0.13, tuple(x + 0.07 for x in p.x))
        cc = curvature_at(spec, p, depth=2)
        ob = frame_blocks_from_oracle(spec, p, depth=2)
        for key, oracle_val in ob.items():
            o = np.asarray(oracle_val)
            e = np.asarray(cc.blocks[key])
            scale = 1.0 + (np.max(np.abs(o)) if o.size else 0.0)
            assert np.max(np.abs(e - o)) / scale < 1e-8, key


RESTRICTED_SPECS = [(path.stem, lambda path=path: load_metric_file(str(path)))
                    for path in sorted(METRICS.glob("*.metric"))] + [("cw2", lambda: fixture("cw2"))]


@pytest.mark.parametrize("name, make", RESTRICTED_SPECS, ids=[name for name, _ in RESTRICTED_SPECS])
def test_the_oracle_blocks_from_the_read_frame_rows_equal_the_full_conversion_bitwise(name, make):
    # the reference converts every slot over all frame rows, then cuts each block
    for table in FRAME_BLOCKS:
        for key, slots in table.items():
            assert set(slots) <= set("01l") and len(slots) in (0, 2, 4, 5, 6), key
    spec = make()
    lo, hi = np.array(spec.box).T
    pts = lo + (hi - lo) * (0.25 + 0.5 * np.random.default_rng(11).uniform(size=(5, spec.num_vars)))
    everything = list(range(spec.n))
    for p in (spec.center(), ChartPoint(pts[:, 0], tuple(pts[:, 1:].T))):
        for depth in (0, 1, 2):
            blocks = frame_blocks_from_oracle(spec, p, depth=depth)
            cm = assemble_coordinate_metric(spec, p, depth + 2)
            cc = coordinate_curvature(cm, depth)
            tensors = {0: (cc.S, 0), 2: (cc.Ric, 0), 4: (cc.R, 1), 5: (cc.dR, 1), 6: (cc.d2R, 1)}
            for key, slots in (item for table in FRAME_BLOCKS[:depth + 1] for item in table.items()):
                values, nup = tensors[len(slots)]
                full = to_frame(np.asarray(values), nup, cm.frame, [everything] * len(slots))
                cut = tuple(slice(2, spec.n) if letter == "l" else int(letter) for letter in slots)
                expected = np.array(full[(...,) + cut])
                got = np.asarray(blocks[key])
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), \
                    (p.shape, depth, key)


@pytest.mark.parametrize("name", ["cw2", "cw4_r2", "poly2"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_engine_and_oracle_blocks_share_keys_and_shapes(name, depth):
    spec = fixture(name)
    p = spec.center()
    eng = curvature_at(spec, p, depth=depth).blocks
    ob = frame_blocks_from_oracle(spec, p, depth=depth)
    keys = [k for table in FRAME_BLOCKS[:depth + 1] for k in table]
    assert list(eng) == list(ob) == keys
    for table in FRAME_BLOCKS[:depth + 1]:
        for key, slots in table.items():
            assert np.shape(eng[key]) == np.shape(ob[key]) == (spec.m,) * slots.count("l"), key
