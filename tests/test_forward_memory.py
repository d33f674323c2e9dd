"""Node-blocked forward diagnostics: the same bits as whole-array forms, in
bounded working memory."""

import tracemalloc

import numpy as np
import pytest

from bsde_lab import (TimeGrid, generate_brownian, martingale_defect,
                      simulate_exponential)
from bsde_lab import exponential as ex
from bsde_lab.counterexamples import emery_closed_form
from bsde_lab.fields import StoppedRotationField
from bsde_lab.instances import scalar_half, triangular_3d
from bsde_lab.tensors import operator_norm

K = 50   # 51 nodes: neither 2 nor 4 nodes per block divide them


def _defect_reference(expo, groups=8):
    """martingale_defect on the whole array of kept paths at once."""
    s = expo.s[~expo.bad_paths]
    m = s.shape[0]
    mean = s.mean(axis=0)
    eye = np.eye(expo.n)
    idx = np.arange(expo.n)
    diag_gap = np.abs(mean[:, idx, idx] - 1.0)
    which = diag_gap.argmax(axis=1)
    rows = np.arange(mean.shape[0])
    parts = np.array_split(np.arange(m), min(groups, m))
    group = np.median(np.stack(
        [operator_norm(s[g].mean(axis=0) - eye) for g in parts]), axis=0)
    se = s.std(axis=0, ddof=1) / np.sqrt(m)
    return {"defect": operator_norm(mean - eye),
            "std_error": np.sqrt((se**2).sum(axis=(1, 2))),
            "diagonal_defect": diag_gap[rows, which],
            "diagonal_std_error": se[:, idx, idx][rows, which],
            "group_defect": group}


def _residual_reference(expo):
    """inverse_residual_profile on the whole (M, K+1, n, n) product at once."""
    prod = expo.s @ expo.s_inv
    idx = np.arange(expo.n)
    prod[..., idx, idx] -= 1.0
    return operator_norm(prod).mean(axis=0)


def _emery_reference(paths, level=np.pi / 2):
    """(S, S^{-1}, bad paths) of the Emery closed form on whole arrays."""
    b = paths.states[:, :, 0]
    stopped = np.maximum.accumulate(np.abs(b) >= level, axis=1)
    k1 = paths.grid.steps + 1
    first = np.where(stopped.any(axis=1), stopped.argmax(axis=1), k1 - 1)
    exit_sign = np.sign(b[np.arange(paths.paths), first])
    angle = np.where(stopped, (exit_sign * level)[:, None], b)
    scale = np.exp(np.where(stopped, paths.grid.nodes[first][:, None],
                            paths.grid.nodes[None, :]) / 2.0)
    s = np.empty((paths.paths, k1, 2, 2))
    s[..., 0, 0] = s[..., 1, 1] = scale * np.cos(angle)
    s[..., 0, 1] = scale * np.sin(angle)
    s[..., 1, 0] = -s[..., 0, 1]
    s_inv = np.swapaxes(s, -1, -2) / (scale * scale)[..., None, None]
    return s, s_inv, ~stopped[:, -1]


@pytest.fixture(scope="module")
def ensembles():
    grid = TimeGrid(1.0, K)
    p1 = generate_brownian(grid, 1, 400, seed=5)
    # Exit level 0.8 on [0, 3]: most paths exit, some do not (bad paths).
    pe = generate_brownian(TimeGrid(3.0, K), 1, 400, seed=6)
    return {
        "scalar-half": simulate_exponential(scalar_half(), p1),
        "triangular-3d": simulate_exponential(triangular_3d(), p1),
        "emery-closed-form": emery_closed_form(pe, level=0.8),
        "emery-euler": simulate_exponential(StoppedRotationField(0.8), pe),
    }


def _budgets(rows: int, n: int) -> list:
    """_NODE_BLOCK_BYTES giving one node per block, then four per block."""
    return [1, 4 * rows * n * n * 8]


@pytest.mark.parametrize("name", ["scalar-half", "triangular-3d", "emery-closed-form",
                                  "emery-euler"])
def test_blocked_defect_and_residual_match_whole_arrays(ensembles, name, monkeypatch):
    expo = ensembles[name]
    if name == "emery-closed-form":
        assert 0 < expo.bad_paths.sum() < expo.paths.paths
    ref_defect = _defect_reference(expo)
    ref_resid = _residual_reference(expo)
    kept = int((~expo.bad_paths).sum())
    for budget in _budgets(kept, expo.n) + _budgets(expo.paths.paths, expo.n):
        monkeypatch.setattr(ex, "_NODE_BLOCK_BYTES", budget)
        rep = martingale_defect(expo)
        for key, want in ref_defect.items():
            assert np.array_equal(getattr(rep, key), want), (budget, key)
        assert np.array_equal(expo.inverse_residual_profile(), ref_resid), budget


def test_blocked_emery_closed_form_matches_whole_arrays(monkeypatch):
    paths = generate_brownian(TimeGrid(3.0, K), 1, 400, seed=6)
    s_ref, inv_ref, bad_ref = _emery_reference(paths, 0.8)
    assert 0 < bad_ref.sum() < paths.paths
    for budget in _budgets(paths.paths, 2):
        monkeypatch.setattr(ex, "_NODE_BLOCK_BYTES", budget)
        expo = emery_closed_form(paths, 0.8)
        assert np.array_equal(expo.s, s_ref)
        assert np.array_equal(expo.s_inv, inv_ref)
        assert np.array_equal(expo.bad_paths, bad_ref)


def test_node_blocks_cover_the_grid_with_two_entries_per_path(monkeypatch):
    monkeypatch.setattr(ex, "_NODE_BLOCK_BYTES", 1)
    for nodes, entries in [(51, 1), (52, 1), (51, 4), (2, 1)]:
        blocks = list(ex.node_blocks(nodes, 8, entries))
        assert blocks[0][0] == 0 and blocks[-1][1] == nodes
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all((hi - lo) * entries >= 2 for lo, hi in blocks)


def test_emery_without_inverse_forms_no_inverse():
    paths = generate_brownian(TimeGrid(6.0, 300), 1, 500, seed=61)
    lean = emery_closed_form(paths, inverse=False)
    full = emery_closed_form(paths)
    assert lean.s_inv is None
    assert np.array_equal(lean.s, full.s)
    assert np.array_equal(lean.bad_paths, full.bad_paths)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_defect_and_residual_memory_is_bounded():
    fld = triangular_3d()
    peaks = {}
    for k_steps in (800, 1600):
        paths = generate_brownian(TimeGrid(1.0, k_steps), 1, 300, seed=9)
        expo = simulate_exponential(fld, paths)
        peaks[k_steps] = (expo.s.nbytes, _peak_bytes(lambda: martingale_defect(expo)),
                          _peak_bytes(expo.inverse_residual_profile))
        del expo, paths
    s_bytes, defect, resid = peaks[800]
    assert defect < 0.75 * s_bytes and resid < 0.75 * s_bytes, peaks
    assert peaks[1600][1] < 1.1 * defect and peaks[1600][2] < 1.1 * resid, peaks


def test_emery_without_inverse_memory_is_bounded():
    paths = generate_brownian(TimeGrid(6.0, 800), 1, 2000, seed=3)
    paths.states   # cached before tracing: the closed form reads it
    s_bytes = 2000 * 801 * 2 * 2 * 8
    peak = _peak_bytes(lambda: emery_closed_form(paths, inverse=False))
    assert peak <= 1.25 * s_bytes, peak / s_bytes
