"""Node-blocked forward integration and diagnostics: the same bits as
whole-array forms, in bounded working memory."""

import tracemalloc

import numpy as np
import pytest

from bsde_lab import (TimeGrid, generate_brownian, martingale_defect,
                      simulate_exponential)
from bsde_lab import exponential as ex
from bsde_lab.counterexamples import emery_closed_form, emery_defect_profile
from bsde_lab.fields import CoefficientField, StoppedRotationField, left_outer_field
from bsde_lab.instances import scalar_half, triangular_3d
from bsde_lab.linear import left_outer_exponential
from bsde_lab.norms import RegressionConditional
from bsde_lab.tensors import contract_adb, mat_square, operator_norm

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


def _two_loop_reference(field, paths, inverse=True):
    """(S, S^{-1}) by separate path-major Euler loops, one for each."""
    m, k_steps, n = paths.paths, paths.grid.steps, field.n
    dt, inc = paths.grid.dt, paths.increments
    s = np.empty((m, k_steps + 1, n, n))
    s[:, 0] = np.eye(n)
    for k in range(k_steps):
        a_db = contract_adb(field.values(paths, k), inc[:, k])
        np.matmul(s[:, k], a_db, out=s[:, k + 1])
        s[:, k + 1] += s[:, k]
    if not inverse:
        return s, None
    x = np.empty_like(s)
    x[:, 0] = np.eye(n)
    drift = np.empty((m, n, n))
    noise = np.empty((m, n, n))
    for k in range(k_steps):
        a = field.values(paths, k)
        np.matmul(mat_square(a), x[:, k], out=drift)
        drift *= dt[k]
        np.matmul(contract_adb(a, inc[:, k]), x[:, k], out=noise)
        np.add(x[:, k], drift, out=x[:, k + 1])
        x[:, k + 1] -= noise
    return s, x


def _rp_reference(expo, p, degree=3):
    """estimate_reverse_holder's regression profile, one node at a time."""
    reg = RegressionConditional.of(expo.paths, degree)
    k_grid = expo.paths.grid.steps
    profile, se = np.zeros(k_grid + 1), np.zeros(k_grid + 1)
    profile[k_grid] = 1.0
    for k in range(k_grid):
        target = operator_norm(expo.s_inv[:, k] @ expo.s[:, -1]) ** p
        fitted = reg.fit_predict(k, target)
        profile[k] = float(fitted.max())
        se[k] = float(np.std(target - fitted, ddof=1) / np.sqrt(expo.paths.paths))
    return profile, se


def _blow_up_field():
    """n = d = 1, A = 1e200 once B > 0: the paths that go positive overflow."""
    return CoefficientField(1, 1, lambda t, x: np.where(
        x[:, :1, None, None] > 0, 1e200, 0.5), name="blow-up")


def _integration_cases():
    grid = TimeGrid(1.0, K)
    p1 = generate_brownian(grid, 1, 400, seed=5)
    pe = generate_brownian(TimeGrid(3.0, K), 1, 400, seed=6)
    return {
        "scalar-half": (scalar_half(), p1),
        "triangular-3d": (triangular_3d(), p1),
        "stopped-rotation": (StoppedRotationField(0.8), pe),
        "triangular-3d-coarsened": (triangular_3d(), p1.coarsened(5)),
        "triangular-3d-two-paths": (triangular_3d(), generate_brownian(grid, 1, 2, seed=7)),
        "blow-up": (_blow_up_field(), p1),
    }


@pytest.mark.parametrize("name", list(_integration_cases()))
@pytest.mark.parametrize("inverse", [True, False])
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")   # blow-up
def test_fused_integration_matches_two_loop_reference(name, inverse, monkeypatch):
    field, paths = _integration_cases()[name]
    s_ref, x_ref = _two_loop_reference(field, paths, inverse)
    bad_ref = ~np.isfinite(s_ref.reshape(paths.paths, -1)).all(axis=1)
    if name == "blow-up":
        assert 0 < bad_ref.sum() < paths.paths
    for budget in _budgets(paths.paths, field.n) + [ex._STEP_BLOCK_BYTES, 1 << 30]:
        monkeypatch.setattr(ex, "_STEP_BLOCK_BYTES", budget)
        expo = simulate_exponential(field, paths, reads=_reads(inverse))
        assert np.array_equal(expo.s, s_ref, equal_nan=True), budget
        if inverse:
            assert np.array_equal(expo.s_inv, x_ref, equal_nan=True), budget
        else:
            assert expo.s_inv is None
        assert np.array_equal(expo.bad_paths, bad_ref), budget
    if inverse:
        assert np.array_equal(ex.integrate_inverse(field, paths), x_ref, equal_nan=True)
    else:
        assert np.array_equal(ex.integrate_exponential(field, paths), s_ref, equal_nan=True)


@pytest.mark.parametrize("name", ["scalar-half", "triangular-3d", "stopped-rotation",
                                  "triangular-3d-two-paths"])
@pytest.mark.parametrize("inverse", [True, False])
@pytest.mark.filterwarnings("ignore:regression basis rank-deficient")
def test_blocked_reverse_holder_matches_per_node(name, inverse, monkeypatch):
    field, paths = _integration_cases()[name]
    expo = simulate_exponential(field, paths, reads=_reads(inverse))
    if not inverse:
        # the regression estimators read S_t^{-1} from the ensemble alone
        for estimate in (ex.estimate_reverse_holder, ex.doob_sup_check):
            with pytest.raises(ValueError, match="'s_inv' in reads"):
                estimate(expo, 2.0)
        return
    profile, se = _rp_reference(expo, 2.0)
    for budget in _budgets(paths.paths, field.n) + [ex._STEP_BLOCK_BYTES]:
        monkeypatch.setattr(ex, "_STEP_BLOCK_BYTES", budget)
        rep = ex.estimate_reverse_holder(expo, 2.0)
        assert np.array_equal(rep.profile, profile), budget
        assert np.array_equal(rep.profile_std_error, se), budget


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


def _reads(inverse: bool) -> tuple:
    """What the ensemble keeps: S, and S^{-1} with `inverse`."""
    return ("s", "s_inv") if inverse else ("s",)


def _budgets(rows: int, n: int) -> list:
    """A block budget giving one node per block, then four per block."""
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


@pytest.mark.parametrize("level,horizon", [(0.8, 3.0), (np.pi / 2, 1.0)])
def test_streamed_emery_profile_matches_closed_form_defect(level, horizon, monkeypatch):
    # level 0.8 on [0, 3]: most paths exit; pi/2 on [0, 1]: most do not
    paths = generate_brownian(TimeGrid(horizon, K), 1, 400, seed=6)
    expo = emery_closed_form(paths, level)
    kept = int((~expo.bad_paths).sum())
    assert 0 < kept < paths.paths
    want = _defect_reference(expo)
    for budget in _budgets(kept, 2) + [ex._NODE_BLOCK_BYTES]:
        monkeypatch.setattr(ex, "_NODE_BLOCK_BYTES", budget)
        rep = emery_defect_profile(paths, level)
        for key, ref in want.items():
            assert np.array_equal(getattr(rep, key), ref), (budget, key)


@pytest.mark.parametrize("name", list(_integration_cases()))
@pytest.mark.parametrize("inverse", [True, False])
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")   # blow-up
def test_in_pass_residual_matches_whole_arrays(name, inverse, monkeypatch):
    field, paths = _integration_cases()[name]
    full = simulate_exponential(field, paths)
    want = _residual_reference(full)
    if name == "blow-up":
        assert np.isnan(want).any()
    for budget in _budgets(paths.paths, field.n) + [ex._STEP_BLOCK_BYTES]:
        monkeypatch.setattr(ex, "_STEP_BLOCK_BYTES", budget)
        expo = simulate_exponential(field, paths, reads=_reads(inverse) + ("residual",))
        assert np.array_equal(expo.inverse_residual_profile(), want, equal_nan=True), budget
        assert np.array_equal(expo.s, full.s, equal_nan=True), budget
        assert np.array_equal(expo.bad_paths, full.bad_paths), budget
        if inverse:
            assert np.array_equal(expo.s_inv, full.s_inv, equal_nan=True), budget
        else:
            assert expo.s_inv is None


@pytest.mark.parametrize("name", list(_integration_cases()))
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")   # blow-up
def test_in_pass_defect_matches_whole_arrays(name, monkeypatch):
    field, paths = _integration_cases()[name]
    full = simulate_exponential(field, paths, reads=("s",))
    want = _defect_reference(full)
    kept = int((~full.bad_paths).sum())
    if name == "blow-up":
        assert 0 < kept < paths.paths
    steps = _budgets(paths.paths, field.n) + [ex._STEP_BLOCK_BYTES]
    nodes = _budgets(kept, field.n) + _budgets(paths.paths, field.n) + [ex._NODE_BLOCK_BYTES]
    for step in steps:
        for node in nodes:
            monkeypatch.setattr(ex, "_STEP_BLOCK_BYTES", step)
            monkeypatch.setattr(ex, "_NODE_BLOCK_BYTES", node)
            expo = simulate_exponential(field, paths, reads=("defect",))
            assert expo.s is None and expo.s_inv is None
            assert np.array_equal(expo.bad_paths, full.bad_paths), (step, node)
            rep = martingale_defect(expo)
            for key, ref in want.items():
                assert np.array_equal(getattr(rep, key), ref), (step, node, key)


def test_readers_of_what_was_not_kept_name_it():
    field, paths = _integration_cases()["triangular-3d"]
    lean = simulate_exponential(field, paths, reads=("defect", "residual"))
    assert lean.s is None and lean.s_inv is None and lean.s_terminal is None
    lean.inverse_residual_profile()   # measured in the pass
    for reader, name in ((ex.doob_sup_check, "s"),
                         (ex.terminal_moment_truncation_curve, "s_terminal")):
        with pytest.raises(ValueError, match=f"simulate it with '{name}' in reads"):
            reader(lean, 2.0)
    with pytest.raises(ValueError, match="'s' in reads"):
        martingale_defect(simulate_exponential(field, paths, reads=("s_terminal",)))
    none = simulate_exponential(field, paths, reads=())
    assert none.s_terminal is None and none.bad_paths is None
    with pytest.raises(ValueError, match="cannot keep"):
        simulate_exponential(field, paths, reads=("x",))
    regression = simulate_exponential(field, paths, reads=("s_inv", "s_terminal"))
    full = simulate_exponential(field, paths)
    assert regression.s is None
    assert np.array_equal(regression.s_terminal, full.s[:, -1])
    assert np.array_equal(regression.s_inv, full.s_inv)
    assert np.array_equal(ex.estimate_reverse_holder(regression, 2.0).profile,
                          ex.estimate_reverse_holder(full, 2.0).profile)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value", "ignore:divide by zero")
def test_bad_paths_by_node_block_follow_the_finite_rule(monkeypatch):
    # b = 1e308 once B > 0.3: S = I + a m^T overflows on those paths
    fld = left_outer_field([10.0, 1.0], lambda t, x: np.where(
        x[:, :1, None] > 0.3, 1e308, 0.4) * np.ones((1, 2, 1)), 1)
    paths = generate_brownian(TimeGrid(1.0, K), 1, 400, seed=5)
    for budget in _budgets(paths.paths, fld.n) + [ex._STEP_BLOCK_BYTES]:
        monkeypatch.setattr(ex, "_STEP_BLOCK_BYTES", budget)
        expo = left_outer_exponential(fld, paths)
        rule = ~np.isfinite(expo.s.reshape(paths.paths, -1)).all(axis=1)
        assert 0 < rule.sum() < paths.paths
        assert np.array_equal(expo.bad_paths, rule), budget


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


def test_fused_integration_memory_is_bounded():
    """Beyond S and S^{-1}: two node-major blocks and a few (M, n, n) buffers."""
    fld = triangular_3d()
    m, n = 300, 3
    node = m * n * n * 8
    extra = {}
    for k_steps in (800, 1600):
        paths = generate_brownian(TimeGrid(1.0, k_steps), 1, m, seed=9)
        paths.states   # cached before tracing: the field reads it
        extra[k_steps] = (_peak_bytes(lambda: simulate_exponential(fld, paths))
                          - 2 * (k_steps + 1) * node)
        del paths
    assert extra[800] < 2 * (ex._STEP_BLOCK_BYTES + node) + 16 * node, extra
    assert extra[1600] < 1.1 * extra[800], extra


def test_simulate_exponential_pass_memory_does_not_grow_with_k():
    """simulate-exponential's pass keeps no S: beyond the paths, two
    integration blocks and one defect block.  At 1000 paths S is 14 times
    the defect block's 4 MiB budget (at 300 paths, only 4 times)."""
    fld, m = triangular_3d(), 1000
    node = m * fld.n * fld.n * 8
    peaks = {}
    for k_steps in (800, 1600):
        paths = generate_brownian(TimeGrid(1.0, k_steps), 1, m, seed=9)
        paths.states   # cached before tracing: the field reads it
        peaks[k_steps] = _peak_bytes(lambda: simulate_exponential(
            fld, paths, reads=("defect", "residual")))
        del paths
    assert peaks[800] < 0.25 * 801 * node, peaks
    assert peaks[1600] < 1.1 * peaks[800], peaks


def test_streamed_profiles_memory_does_not_grow_with_k():
    """The Emery defect profile holds no S, and the residual pass no S^{-1}."""
    fld, m = triangular_3d(), 300
    node = m * fld.n * fld.n * 8
    emery, extra = {}, {}
    for k_steps in (800, 1600):
        paths = generate_brownian(TimeGrid(6.0, k_steps), 1, 2000, seed=3)
        paths.states   # cached before tracing: the closed form reads it
        emery[k_steps] = _peak_bytes(lambda: emery_defect_profile(paths))
        paths = generate_brownian(TimeGrid(1.0, k_steps), 1, m, seed=9)
        paths.states
        extra[k_steps] = (_peak_bytes(lambda: simulate_exponential(
            fld, paths, reads=("s", "residual"))) - (k_steps + 1) * node)
        del paths
    assert emery[800] < 0.25 * 2000 * 801 * 2 * 2 * 8, emery
    assert extra[800] < 0.25 * 801 * node, extra
    assert emery[1600] < 1.1 * emery[800], emery
    assert extra[1600] < 1.1 * extra[800], extra
