import numpy as np

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
    # the reference: one rk4_step per step, recording the state each stage sees
    seen = []

    def f(stage, y):
        k, s = stage
        seen.append(y)
        dy = M[k, s] @ y
        return dy if b is None else dy + b[k, s]

    out = [y0]
    for k in range(len(M)):
        out.append(rk4_step(f, out[-1], h, [(k, s) for s in range(4)]))
    return np.array(out), np.array(seen).reshape((len(M), 4) + np.shape(y0))


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
        nodes, stages = linear_rk4(M, h, start, rhs)
        want, seen = _rk4_loop(M, h, start, rhs)
        assert nodes.shape == want.shape
        assert _rel_dev(nodes, want) < 1e-13
        if rhs is None:
            # stage s of step k evaluates M at P_s[k] y_k
            for s, P in enumerate(stages):
                got = P @ want[:-1].reshape(steps, n, -1)
                assert _rel_dev(got.reshape(seen[:, s].shape), seen[:, s]) < 1e-13
    zero = linear_rk4(M, h, y0, np.zeros((steps, 4, n)))[0]
    assert np.array_equal(linear_rk4(M, h, y0)[0], zero)



def test_linear_rk4_is_the_step_map_product_bitwise():
    # the reference applies the step maps one step at a time, each node a new
    # array: y_{k+1} = Phi_k y_k (+ c_k), with Phi and c formed as linear_rk4
    # forms them; the in-place loop must give the same bits
    rng = np.random.default_rng(11)
    steps, n, h = 400, 4, 0.01
    M = rng.normal(size=(steps, 4, n, n))
    b = rng.normal(size=(steps, 4, n))
    Phi = rk4_step(lambda Ms, Y: Ms @ Y, np.broadcast_to(np.eye(n), (steps, n, n)), h,
                   [M[:, s] for s in range(4)])
    c = rk4_step(lambda s, y: (M[:, s] @ y[..., None])[..., 0] + b[:, s],
                 np.zeros((steps, n)), h, range(4))
    for y0, rhs in ((rng.normal(size=n), b), (rng.normal(size=(n, 3)), None)):
        want = [y0]
        for k in range(steps):
            nxt = Phi[k] @ want[-1]
            if rhs is not None:
                nxt += c[k]
            want.append(nxt)
        got, _ = linear_rk4(M, h, y0, rhs)
        assert got.tobytes() == np.array(want).tobytes()
