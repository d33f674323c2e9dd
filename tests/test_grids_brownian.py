import numpy as np
import pytest

from bsde_lab import ConfigurationError, TimeGrid, generate_brownian


def test_grid_nodes_uniform():
    g = TimeGrid(2.0, 4)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert np.allclose(g.dt, 0.5)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ConfigurationError):
        TimeGrid(1.0, 0)
    with pytest.raises(ConfigurationError):
        TimeGrid(1.0, 2, np.array([0.0, 0.9, 0.8]))


def test_refine_coarsen_roundtrip():
    g = TimeGrid(1.0, 8)
    assert np.allclose(g.refined(4).coarsened(4).nodes, g.nodes)


def test_generator_rejects_zero_paths():
    with pytest.raises(ConfigurationError):
        generate_brownian(TimeGrid(1.0, 2), 1, 0, seed=1)
    with pytest.raises(ConfigurationError):
        generate_brownian(TimeGrid(1.0, 2), 0, 5, seed=1)


def test_seed_determinism_bit_identical():
    g = TimeGrid(1.0, 16)
    a = generate_brownian(g, 2, 3000, seed=7)
    b = generate_brownian(g, 2, 3000, seed=7)
    assert np.array_equal(a.increments, b.increments)
    c = generate_brownian(g, 2, 3000, seed=8)
    assert not np.array_equal(a.increments, c.increments)


def test_thread_count_does_not_change_numbers():
    g = TimeGrid(1.0, 8)
    a = generate_brownian(g, 1, 40000, seed=3, threads=1)
    b = generate_brownian(g, 1, 40000, seed=3, threads=4)
    assert np.array_equal(a.increments, b.increments)


def test_path_prefix_stable_under_path_count():
    # counter-based streams: the first paths do not depend on how many more
    # paths are requested (block partitioning is fixed)
    g = TimeGrid(1.0, 4)
    small = generate_brownian(g, 1, 100, seed=5)
    large = generate_brownian(g, 1, 5000, seed=5)
    assert np.array_equal(small.increments, large.increments[:100])


def test_increment_statistics_single_step():
    # one-step ensemble: mean within 4 sigma, variance of B_T within 1%
    g = TimeGrid(1.0, 1)
    m = 1_000_000
    p = generate_brownian(g, 1, m, seed=11)
    inc = p.increments[:, 0, 0]
    assert abs(inc.mean()) < 4.0 / np.sqrt(m)
    assert abs(inc.var() - 1.0) < 0.01


def test_terminal_variance_multistep():
    g = TimeGrid(2.0, 32)
    m = 200_000
    p = generate_brownian(g, 2, m, seed=13)
    var = p.states[:, -1].var(axis=0)
    assert np.all(np.abs(var - 2.0) < 0.05)


def test_states_cumulative_and_subset():
    g = TimeGrid(1.0, 4)
    p = generate_brownian(g, 2, 50, seed=1)
    states = p.states
    assert np.allclose(states[:, 3], p.increments[:, :3].sum(axis=1))
    assert np.allclose(p.state_at(2), states[:, 2])
    sub = p.subset(np.arange(10, 20))
    assert np.array_equal(sub.increments, p.increments[10:20])


@pytest.mark.parametrize("initial_state", [None, [0.5, -1.25]])
def test_states_cached_read_only_and_match_state_at(initial_state):
    p = generate_brownian(TimeGrid(1.0, 6), 2, 30, seed=4, initial_state=initial_state)
    states = p.states
    assert p.states is states
    assert not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0, 0] = 1.0
    start = np.zeros(2) if initial_state is None else np.asarray(initial_state)
    assert np.array_equal(states[:, 0], np.broadcast_to(start, (30, 2)))
    for k in range(p.grid.steps + 1):
        assert np.array_equal(p.state_at(k), states[:, k])
        assert np.allclose(p.state_at(k), start + p.increments[:, :k].sum(axis=1),
                           rtol=0.0, atol=1e-14)


def test_initial_state_offset():
    g = TimeGrid(1.0, 2)
    p = generate_brownian(g, 1, 10, seed=2, initial_state=[1.5])
    assert np.allclose(p.states[:, 0, 0], 1.5)
    assert np.allclose(p.states[:, -1, 0], 1.5 + p.increments.sum(axis=1)[:, 0])


def test_csv_dump(tmp_path):
    g = TimeGrid(1.0, 3)
    p = generate_brownian(g, 2, 4, seed=2)
    fp = tmp_path / "paths.csv"
    p.to_csv(fp)
    rows = np.loadtxt(fp, delimiter=",", skiprows=1)
    assert rows.shape == (12, 4)
    assert np.allclose(rows[:, 2:].reshape(4, 3, 2), p.increments)
