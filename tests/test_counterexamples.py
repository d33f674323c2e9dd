import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsde_lab
from bsde_lab import ConfigurationError, TimeGrid, generate_brownian
from bsde_lab.brownian import PathEnsemble, substream
from bsde_lab.counterexamples import (MAX_EXIT_NORMALS, NonexistenceSpec, _emery_exits,
                                      check_emery_walk, default_level_sequence,
                                      emery_closed_form, emery_defect_at_horizon,
                                      emery_defect_profile,
                                      exit_time_exact, exit_time_exponential,
                                      exit_time_quantile, nonexistence_blowup)
from bsde_lab.fields import StoppedRotationField


@pytest.fixture(scope="module")
def emery_paths():
    return generate_brownian(TimeGrid(6.0, 1200), 1, 1500, seed=61)


def test_closed_form_starts_at_identity(emery_paths):
    expo = emery_closed_form(emery_paths)
    assert np.array_equal(expo.s[:, 0], np.broadcast_to(np.eye(2), (1500, 2, 2)))


def test_closed_form_orthogonal_times_scalar(emery_paths):
    # S S^T = exp(tau ^ t) I exactly
    expo = emery_closed_form(emery_paths)
    sst = np.einsum("mkij,mklj->mkil", expo.s, expo.s)
    det = np.linalg.det(expo.s)
    assert np.all(det > 0)
    gap = sst - det[..., None, None] * np.eye(2)
    assert np.abs(gap).max() < 1e-9


def test_closed_form_diagonal_zero_after_exit(emery_paths):
    expo = emery_closed_form(emery_paths)
    exited = ~expo.bad_paths
    diag = expo.s[exited, -1, 0, 0]
    assert np.abs(diag).max() < 1e-8
    # exact inverse supplied in closed form
    prod = np.einsum("mkij,mkjl->mkil", expo.s, expo.s_inv)
    assert np.abs(prod - np.eye(2)).max() < 1e-9


def test_defect_at_horizon_collapses():
    res = emery_defect_at_horizon(4000, horizon=48.0, dt=0.01, seed=3)
    assert res["survivors"] == 0
    assert res["diag_defect"] >= 0.999
    assert res["significance_vs_half"] == float("inf")
    samples = res["terminal_opnorm_samples"]
    assert samples.shape == (4000,)
    assert samples.min() >= 1.0


def test_exit_time_identity_moderate_levels():
    for b, exact in ((np.pi / 4, np.sqrt(2.0)), (np.pi / 3, 2.0)):
        res = exit_time_exponential(b, paths=8000, dt=2e-4, seed=67)
        assert abs(res.estimate - exact) < max(4 * res.std_error, 0.02 * exact)
        assert res.exact == pytest.approx(exact)


def test_exit_time_small_level_near_one():
    res = exit_time_exponential(0.05, paths=2000, dt=1e-4, seed=71)
    assert abs(res.estimate - 1.0 / np.cos(0.05)) < 0.005


def test_exit_time_monotone_in_level():
    vals = [exit_time_exponential(b, paths=4000, dt=5e-4, seed=73).estimate
            for b in (0.4, 0.7, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_emery_walk_work_limit():
    # M min((pi/2)^2, horizon) / 0.01 expected normals, against MAX_EXIT_NORMALS
    most = int(MAX_EXIT_NORMALS * 0.01 / (np.pi / 2) ** 2)
    check_emery_walk(most, 48.0)
    with pytest.raises(ConfigurationError, match=f"M = {most + 1} "):
        check_emery_walk(most + 1, 48.0)
    check_emery_walk(2 * most, 1.0)   # the horizon stops the walk first


def test_exit_time_heavy_tail_warning_and_rejection():
    res = exit_time_exponential(1.2, paths=500, dt=1e-3, seed=79, horizon=20.0)
    assert res.heavy_tail_warning
    ok = exit_time_exponential(0.8, paths=500, dt=1e-3, seed=79)
    assert not ok.heavy_tail_warning
    with pytest.raises(ConfigurationError):
        exit_time_exponential(np.pi / 2, paths=100, dt=1e-3)
    with pytest.raises(ConfigurationError):
        exit_time_exponential(2.0, paths=100, dt=1e-3)


def test_default_sequence_satisfies_conditions():
    spec = NonexistenceSpec(levels=default_level_sequence(20))
    rep = spec.condition_report()
    assert all(rep.values())
    b = spec.levels
    assert np.all(np.diff(b) > 0) and b[-1] < np.pi / 2
    # terms -> 0 while partial sums keep growing: within 40 levels the sum
    # passes 3, and analytically it is harmonic so it passes any bound
    spec40 = NonexistenceSpec(levels=default_level_sequence(40))
    assert spec40.partial_sum(40) > 3.0
    terms = [spec40.partial_sum(j) - spec40.partial_sum(j - 1) for j in range(2, 41)]
    assert terms[-1] < terms[0]
    assert terms[-1] < 0.05


def test_bad_sequence_rejected():
    # terms 1/(2^k cos b_k) growing: violates the vanishing-terms condition
    k = np.arange(1, 10)
    bad = np.arccos(np.minimum(1.0 / (k * 2.0**k), 0.99))
    with pytest.raises(ConfigurationError):
        NonexistenceSpec(levels=bad)


def test_blowup_partial_sums_match_simulation():
    spec = NonexistenceSpec()
    diag = nonexistence_blowup(spec, j_max=3, paths_per_level=4000, seed=83)
    # first term: b_1 = arccos(0.9), weight 1/2 -> 1/(2 * 0.9)
    assert np.isclose(diag.partial_sum[0], 1.0 / 1.8)
    for j in range(3):
        tol = max(4 * diag.simulated_std_error[j], 0.02 * diag.partial_sum[j])
        assert abs(diag.simulated[j] - diag.partial_sum[j]) < tol
    assert np.all(np.diff(diag.partial_sum) > 0)
    assert np.all(np.diff(diag.remainder_bound) < 0)


def test_blowup_std_error_counts_each_level_once():
    # the levels use independent seeds, so Var(sum_k w_k est_k) = sum_k (w_k se_k)^2
    spec = NonexistenceSpec()
    diag = nonexistence_blowup(spec, j_max=3, paths_per_level=500, seed=5)
    w = 0.5 ** np.arange(1, 4)
    se = np.array([exit_time_exact(float(spec.levels[k]), 500, seed=5 + 101 * k).std_error
                   for k in range(3)])
    assert diag.simulated_std_error[0] == w[0] * se[0]
    assert np.allclose(diag.simulated_std_error, np.sqrt(np.cumsum((w * se) ** 2)),
                       rtol=1e-15, atol=0)


def test_blowup_j1_with_pi_third_level():
    # j = 1 with b_1 = pi/3: term 2^{-1} * 2 = 1
    spec = NonexistenceSpec(levels=np.concatenate(
        [[np.pi / 3], default_level_sequence(8)[3:]]))
    assert np.isclose(spec.partial_sum(1), 1.0)
    assert np.isclose(spec.remainder_bound(1), 1.0)


def test_emery_spec_field_roundtrip():
    fld = StoppedRotationField()
    assert fld.n == 2 and fld.d == 1 and not fld.markovian
    # B hits +level exactly at node 2, jumps past -level between nodes 2
    # and 3, and never exits: stop is 2, 3 and the node count 5, the exit
    # states 1, -1.25 and 0
    fld = StoppedRotationField(level=1.0)
    inc = np.array([[0.5, 0.5, -0.5, -0.3], [-0.5, 0.75, -1.5, 1.25],
                    [0.25, -0.5, 0.75, 0.25]])[:, :, None]
    paths = PathEnsemble(TimeGrid(1.0, 4), 1, 3, 0, inc)
    stop, state = fld.stop(paths)
    assert stop.tolist() == [2, 3, 5]
    assert state.tolist() == [1.0, -1.25, 0.0]
    assert "states" not in paths.__dict__
    alive = ~np.maximum.accumulate(np.abs(paths.states[:, :, 0]) >= fld.level, axis=1)
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])[None, :, :, None]
    for k in range(5):
        want = np.where(alive[:, k, None, None, None], rotation, 0.0)
        assert np.array_equal(fld.values(paths, k), want)
    exits = _emery_exits(paths, fld.level)
    assert np.array_equal(exits[0], stop)
    assert exits[1].tolist() == [1.0, -1.0, 0.0]


def test_emery_streams_the_brownian_states():
    # the closed form, its defect profile and the Euler pass of the field
    # read B_t one node block at a time and never form the whole states
    for run in (emery_closed_form, emery_defect_profile,
                lambda p: bsde_lab.simulate_exponential(StoppedRotationField(), p)):
        paths = generate_brownian(TimeGrid(3.0, 60), 1, 200, seed=5)
        run(paths)
        assert "states" not in paths.__dict__


def _reference_walk(b, paths, dt, seed, horizon, bridge, chunk=64, tag=11):
    """The chunked exit walk as first written, run block by block: block k,
    paths [2048 k, 2048 (k + 1)), draws from its own SFC64 stream keyed
    (seed, tag, k), each chunk its live paths' normals time-major and then
    its bridge uniforms, and gathers, scans and tests its whole (alive,
    chunk) array.  Frozen here as the bit-for-bit reference for the lean
    walk."""
    max_steps = int(np.ceil(horizon / dt))
    sqdt = np.sqrt(dt)
    band = 5.0 * sqdt
    exit_steps = np.full(paths, max_steps, dtype=float)
    w = np.zeros(paths)
    survivors = []
    for first in range(0, paths, 2048):
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(tag, first // 2048))))
        alive_idx = np.arange(first, min(paths, first + 2048))
        step = 0
        while alive_idx.size and step < max_steps:
            n_now = min(chunk, max_steps - step)
            z = rng.standard_normal((n_now, alive_idx.size)).T * sqdt
            w_path = w[alive_idx, None] + np.cumsum(z, axis=1)
            crossed = np.abs(w_path) >= b
            if bridge:
                w_prev = np.concatenate([w[alive_idx, None], w_path[:, :-1]], axis=1)
                near = ((np.maximum(w_prev, w_path) > b - band)
                        | (np.minimum(w_prev, w_path) < band - b)) & ~crossed
                sel = np.nonzero(near)
                if sel[0].size:
                    wp, wn = w_prev[sel], w_path[sel]
                    p_up = np.exp(-2.0 * np.maximum(b - wp, 0) * np.maximum(b - wn, 0) / dt)
                    p_dn = np.exp(-2.0 * np.maximum(b + wp, 0) * np.maximum(b + wn, 0) / dt)
                    u = rng.random(sel[0].size)
                    crossed[sel] |= u < p_up + p_dn
            any_cross = crossed.any(axis=1)
            first_hit = crossed.argmax(axis=1)
            newly = np.nonzero(any_cross)[0]
            exit_steps[alive_idx[newly]] = step + first_hit[newly] + 1
            keep = ~any_cross
            w[alive_idx[keep]] = w_path[keep, -1]
            alive_idx = alive_idx[keep]
            step += n_now
        survivors.append(alive_idx)
    alive_idx = np.concatenate(survivors)
    return exit_steps, alive_idx, w[alive_idx]


@pytest.mark.parametrize("b, paths, dt, horizon, bridge", [
    (np.pi / 3, 3000, 1e-4, None, True),    # the bench case: two blocks, the last part full
    (np.pi / 3, 300, 1e-3, None, False),
    (1.2, 400, 1e-3, 3.0, True),            # the horizon truncates some paths
    (1.2, 400, 1e-3, 3.0, False),
    (0.05, 500, 1e-4, None, True),          # every path exits in the first chunk
    (0.05, 500, 1e-4, None, False),
    (1.0, 1, 1e-3, None, True),
    (1.0, 1, 1e-3, 0.05, False),
])
@pytest.mark.filterwarnings("ignore:Degrees of freedom:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_exit_walk_matches_frozen_reference(b, paths, dt, horizon, bridge):
    from bsde_lab.counterexamples import _default_horizon
    horizon = _default_horizon(b) if horizon is None else horizon
    res = exit_time_exponential(b, paths, dt, seed=5, horizon=horizon, bridge=bridge)
    exit_steps, alive, _ = _reference_walk(b, paths, dt, 5, horizon, bridge)
    vals = np.exp(exit_steps * dt / 2.0)
    se = vals.std(ddof=1) / np.sqrt(paths)
    assert res.estimate == vals.mean()
    np.testing.assert_array_equal(res.std_error, se)      # NaN at paths = 1
    assert res.truncated_paths == alive.size
    if horizon == 3.0:
        assert 0 < res.truncated_paths < paths


@pytest.mark.parametrize("paths, horizon", [(2000, 48.0), (300, 2.0), (1, 0.5)])
@pytest.mark.filterwarnings("ignore:Degrees of freedom:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_emery_walk_matches_frozen_reference(paths, horizon):
    res = emery_defect_at_horizon(paths, horizon=horizon, seed=3)
    exit_steps, alive, w = _reference_walk(np.pi / 2, paths, 0.01, 3, horizon,
                                           bridge=False, chunk=256, tag=23)
    contrib = np.zeros(paths)
    contrib[alive] = np.exp(horizon / 2.0) * np.cos(w)
    assert res["survivors"] == alive.size
    assert res["diag_defect"] == abs(1.0 - contrib.mean())
    np.testing.assert_array_equal(res["std_error"], contrib.std(ddof=1) / np.sqrt(paths))
    np.testing.assert_array_equal(res["terminal_opnorm_samples"],
                                  np.exp(np.minimum(exit_steps * 0.01, horizon) / 2.0))
    if horizon == 2.0:
        assert 0 < res["survivors"] < paths


@pytest.mark.parametrize("tag, b, dt, max_steps, chunk, bridge", [
    (11, 1.2, 1e-3, 3000, 64, True),           # the horizon truncates some paths
    (11, np.pi / 3, 1e-3, 30_000, 64, True),   # every path exits
    (23, np.pi / 2, 1e-2, 200, 256, False),    # the Emery walk, some survivors
])
def test_exit_walk_identical_across_threads(tag, b, dt, max_steps, chunk, bridge):
    # 5000 paths are three blocks, the last part full.  Workers write exits
    # into one shared array; a short switch interval interleaves them finely.
    from bsde_lab.counterexamples import _exit_walk
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_exit_walk(8, tag, 5000, b, dt, max_steps, chunk, bridge, threads)
                for threads in (1, 2, 4)]
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            np.testing.assert_array_equal(got, want)
    assert (runs[0][1].size > 0) == (b != np.pi / 3)


# ------------------------------------------------ exact exit-time sampling

def _exit_cdf(t):
    """P(J <= t) for the exit time J of Brownian motion from (-1, 1), in
    scalar math: the small-time erfc series below 0.6, the large-time
    series from 0.6 on.  Both have converged to rounding with these terms."""
    if t < 0.6:
        return 2.0 * sum((-1) ** k * math.erfc((2 * k + 1) / math.sqrt(2.0 * t))
                         for k in range(8))
    return 1.0 - 4.0 / math.pi * sum(
        (-1) ** k / (2 * k + 1) * math.exp(-(2 * k + 1) ** 2 * math.pi ** 2 * t / 8.0)
        for k in range(12))


def _exact_std_error(b, paths):
    # Var exp(sigma_b/2) = E[exp(sigma_b)] - E[exp(sigma_b/2)]^2
    return math.sqrt((1.0 / math.cos(b * math.sqrt(2.0)) - 1.0 / math.cos(b) ** 2) / paths)


def test_exit_table_matches_small_time_series():
    from bsde_lab.counterexamples import _J_LO, _exit_table
    t, surv = _exit_table()
    near = t <= 0.6
    assert t.min() == pytest.approx(_J_LO) and near.sum() > 1000
    worst = max(abs((1.0 - s) - _exit_cdf(x)) for x, s in zip(t[near], surv[near]))
    assert worst <= 1e-15


_UNIFORMS = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(_UNIFORMS, min_size=1, max_size=50))
def test_exit_quantile_inverts_the_cdf(u):
    j = exit_time_quantile(np.array(u))
    assert np.all(np.isfinite(j)) and np.all(j > 0)
    for x, ji in zip(u, j):
        assert abs(_exit_cdf(float(ji)) - x) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(_UNIFORMS, st.floats(min_value=1e-15, max_value=1.0))
def test_exit_quantile_is_nondecreasing(u, gap):
    # |F(J) - u| sits at the 1e-16 rounding of F, so two uniforms at least
    # 1e-15 apart are ordered by their exit times
    hi = u + gap
    if hi >= 1.0:
        hi = np.nextafter(1.0, 0.0)
    j = exit_time_quantile(np.array([u, hi, u]))
    assert j[0] <= j[1] and j[0] == j[2]


def test_exit_quantile_nondecreasing_on_sorted_draws():
    u = np.sort(np.random.default_rng(0).random(200_000))
    assert np.all(np.diff(exit_time_quantile(u)) >= 0)


@pytest.mark.filterwarnings("ignore:Degrees of freedom:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("paths", [1, 5, 257])
def test_exact_draws_one_uniform_per_path(paths):
    b, seed = 0.9, 12
    res = exit_time_exact(b, paths, seed=seed)
    u = substream(seed, 29).random(paths)
    vals = np.exp(b * b / 2.0 * exit_time_quantile(u))
    assert res.estimate == vals.mean()
    np.testing.assert_array_equal(res.std_error, vals.std(ddof=1) / np.sqrt(paths))
    assert res.truncated_paths == 0
    # frozen reference: the first uniforms of substream (12, 29) and their
    # exit times, from a scalar bisection on the erfc series
    frozen = [(0.19366700265915593, 0.3627228130370046),
              (0.9755686838578338, 3.204549107142401),
              (0.1970655469091429, 0.3664183254328579)]
    assert [float(x) for x in u[:3]] == [u_ref for u_ref, _ in frozen[:paths]]
    j = exit_time_quantile(u[:3])
    for (u_ref, j_ref), ji in zip(frozen, j):
        assert ji == pytest.approx(j_ref, rel=1e-12)


@pytest.mark.parametrize("b", [np.pi / 4, np.pi / 3])
def test_exact_exit_time_identity(b):
    t0 = time.perf_counter()
    res = exit_time_exact(b, 100_000, seed=7)
    elapsed = time.perf_counter() - t0
    assert abs(res.estimate - 1.0 / math.cos(b)) <= 3 * _exact_std_error(b, 100_000)
    assert elapsed < 1.0
    assert res.heavy_tail_warning is False
    with pytest.raises(ConfigurationError):
        exit_time_exact(np.pi / 2, 10)


def test_nonexistence_does_not_load_scipy_special():
    src = Path(bsde_lab.__file__).resolve().parents[1]
    code = ("import sys; from bsde_lab.counterexamples import NonexistenceSpec, "
            "nonexistence_blowup; nonexistence_blowup(NonexistenceSpec(), 3, 200, seed=1); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"
