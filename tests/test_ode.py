from brinkmann.ode import stage_grid


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

