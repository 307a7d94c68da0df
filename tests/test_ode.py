import math

import numpy as np
import pytest

from brinkmann.ode import linear_rk4, rk4_step, stage_grid


def test_stage_grid_rows():
    t0, h, steps = -0.3, 0.7 / 9, 9
    nodes, grid, rows = stage_grid(t0, h, steps)
    assert nodes.tolist() == [t0 + h * k for k in range(steps + 1)]
    assert grid.tolist()[0::2] == nodes.tolist()
    assert grid.tolist()[1::2] == [t0 + h * k + 0.5 * h for k in range(steps)]
    assert rows.shape == (steps, 4)
    # stage 1 is node k, stages 2 and 3 the midpoint, stage 4 node k + 1
    assert grid[rows[:, 0]].tolist() == nodes[:-1].tolist()
    assert grid[rows[:, 1]].tolist() == grid[rows[:, 2]].tolist() == grid.tolist()[1::2]
    assert grid[rows[:, 3]].tolist() == nodes[1:].tolist()



def _rk4_loop(M, h, y0, b=None):
    # the reference: one rk4_step per step
    def f(stage, y):
        k, s = stage
        dy = M[k, s] @ y
        return dy if b is None else dy + b[k, s]

    out = [y0]
    for k in range(len(M)):
        out.append(rk4_step(f, out[-1], h, [(k, s) for s in range(4)]))
    return np.array(out)


def _rel_dev(got, want):
    # relative to the state's scale: an entry that cancels to near zero
    # carries the rounding of the terms it cancelled
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_linear_rk4_equals_a_loop_of_rk4_steps():
    rng = np.random.default_rng(5)
    steps, n, h = 37, 4, 0.03
    M = rng.normal(size=(steps, 4, n, n))
    b = rng.normal(size=(steps, 4, n))
    Y0 = rng.normal(size=(n, 3))
    y0 = rng.normal(size=n)
    for start, rhs in ((Y0, None), (y0, None), (y0, b)):
        nodes = linear_rk4(M, h, start, rhs)
        want = _rk4_loop(M, h, start, rhs)
        assert nodes.shape == want.shape
        assert _rel_dev(nodes, want) < 1e-13
    zero = linear_rk4(M, h, y0, np.zeros((steps, 4, n)))
    assert np.array_equal(linear_rk4(M, h, y0), zero)


def _step_maps(M, h, b):
    # Phi and c formed as linear_rk4 forms them
    steps, _, n, _ = M.shape
    Phi = rk4_step(lambda Ms, Y: Ms @ Y, np.broadcast_to(np.eye(n), (steps, n, n)), h,
                   [M[:, s] for s in range(4)])
    c = None if b is None else rk4_step(lambda s, y: (M[:, s] @ y[..., None])[..., 0] + b[:, s],
                                        np.zeros((steps, n)), h, range(4))
    return Phi, c


def _blocked_product(Phi, c, y0):
    # the reference: blocks of ceil(sqrt(steps)) steps; within a block the
    # cumulative map Q_k = Phi_k Q_{k-1} and offset d_k = Phi_k d_{k-1} + c_k,
    # each a new array, and node k + 1 = Q_k (block start) + d_k.  A vector
    # state is one column, as in linear_rk4
    steps = len(Phi)
    width = math.ceil(math.sqrt(steps)) if steps else 1
    nodes = [y0 if y0.ndim == 2 else y0[:, None]]
    for lo in range(0, steps, width):
        start, Q, d = nodes[-1], None, None
        for k in range(lo, min(lo + width, steps)):
            Q = Phi[k] if Q is None else Phi[k] @ Q
            if c is not None:
                d = c[k][:, None] if d is None else Phi[k] @ d + c[k][:, None]
            nodes.append(Q @ start if d is None else Q @ start + d)
    return np.array(nodes).reshape((steps + 1,) + y0.shape)


def test_linear_rk4_is_the_step_map_product_bitwise():
    # 400 steps are 20 full blocks; 397, a prime, leave a ragged last block
    rng = np.random.default_rng(11)
    n, h = 4, 0.01
    for steps in (400, 397):
        M = rng.normal(size=(steps, 4, n, n))
        b = rng.normal(size=(steps, 4, n))
        for y0, rhs in ((rng.normal(size=n), b), (rng.normal(size=(n, 3)), None)):
            got = linear_rk4(M, h, y0, rhs)
            assert got.tobytes() == _blocked_product(*_step_maps(M, h, rhs), y0).tobytes()


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 13, 16, 49])
@pytest.mark.parametrize("n", [0, 3])
def test_linear_rk4_edge_counts(steps, n):
    # no steps, one, two, primes (a ragged last block) and perfect squares,
    # with an empty state (the flat block d = 0) among them; every start kind
    rng = np.random.default_rng(steps + 100 * n)
    h = 0.05
    M = rng.normal(size=(steps, 4, n, n))
    b = rng.normal(size=(steps, 4, n))
    for y0, rhs in ((rng.normal(size=n), None), (rng.normal(size=(n, 2)), None),
                    (np.eye(n), None), (rng.normal(size=n), b)):
        got = linear_rk4(M, h, y0, rhs)
        want = _rk4_loop(M, h, y0, rhs)
        assert got.shape == want.shape == (steps + 1,) + y0.shape
        assert got[0].tobytes() == y0.tobytes()
        assert got.tobytes() == _blocked_product(*_step_maps(M, h, rhs), y0).tobytes()
        if got.size:
            assert _rel_dev(got, want) < 1e-13


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_linear_rk4_refuses_an_affine_term_with_a_matrix_start(shape):
    # b only drives a vector state; a square start would add c_k along its rows
    steps, n = 3, 2
    M, b = np.zeros((steps, 4, n, n)), np.ones((steps, 4, n))
    with pytest.raises(ValueError, match=rf"b \(3, 4, 2\).*y0 \({shape[0]}, {shape[1]}\)"):
        linear_rk4(M, 0.1, np.zeros(shape), b)
