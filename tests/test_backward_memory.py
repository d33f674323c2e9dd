"""Backward-layer diagnostics reduced one block of paths or of nodes at a
time: the same bits as the whole-array expressions they replace, in bounded
working memory."""

import math
import tracemalloc

import numpy as np
import pytest

from bsde_lab import TimeGrid, generate_brownian
from bsde_lab import brownian as br
from bsde_lab import linear as lin
from bsde_lab import norms
from bsde_lab import quadratic as quad
from bsde_lab.instances import left_outer_3d, linear_terminal, triangular_3d
from bsde_lab.norms import NormEstimate, RegressionConditional, estimate_norm
from bsde_lab.quadratic import QuadraticLinearDriver, UnidirectionalDriver

K = 7            # odd: at two nodes per block, the last block holds one
M = 200
BUDGETS = (1, 40 << 10, br._NODE_BLOCK_BYTES)
# (n, d, K).  With n = K = 1 a path holds one entry of r, whose sum over the
# paths numpy adds pairwise: the residuals then take every path at once.
SHAPES = [(1, 1, K), (3, 1, K), (3, 2, K), (1, 1, 1), (1, 2, 1)]


# -- the whole-array expressions the streamed reductions replace -----------

def _residuals_reference(paths, y, z, drift):
    dt = paths.grid.dt
    zdb = np.einsum("mkjd,mkd->mkj", z, paths.increments)
    r = y[:, :-1] - y[:, 1:] - drift * dt[None, :, None] + zdb
    mean_r = np.abs(r.mean(axis=0)).max()
    rdb = np.einsum("mkj,mkd->mkjd", r, paths.increments)
    mean_rdb = np.abs(rdb.mean(axis=0)).max() / dt.min()
    return {"moment_residual": float(mean_r), "moment_db_residual": float(mean_rdb)}


def _norm_reference(kind, values, paths, q=None, degree=3):
    k_steps, dt = paths.grid.steps, paths.grid.dt
    nodes = k_steps + 1 if kind == "sup_p" else k_steps
    v = np.asarray(values, dtype=float)
    sizes = np.sqrt((v * v).reshape(paths.paths, nodes, -1).sum(axis=-1))
    if kind != "bmo":
        if kind == "sup_p":
            per_path = sizes.max(axis=1)
        else:
            per_path = np.sqrt((sizes**2.0 * dt[None, :]).sum(axis=1))
        value, se = (norms._max_order_stat(per_path) if np.isinf(q)
                     else norms._lp_mean(per_path, q))
        return NormEstimate(kind, value, se)
    contrib = sizes**2.0 * dt[None, :]
    remaining = np.zeros((paths.paths, k_steps + 1))
    remaining[:, :-1] = contrib[:, ::-1].cumsum(axis=1)[:, ::-1]
    reg = RegressionConditional.of(paths, degree)
    best, best_se = 0.0, 0.0
    for k in range(k_steps + 1):
        fitted = reg.fit_predict(k, remaining[:, k])
        node = float(np.max(fitted))
        if node > best:
            resid = remaining[:, k] - fitted
            best = node
            best_se = float(np.std(resid, ddof=1) / np.sqrt(max(paths.paths - 1, 1)))
    value = float(np.sqrt(best))
    return NormEstimate(kind, value, best_se / (2.0 * value) if value > 0 else best_se)


def _left_outer_reference(fld, paths):
    """(S, S^{-1}) of the left-outer closed form from whole temporaries."""
    a = fld.a
    b_vals = lin._per_step(fld.b_values, paths)
    scal = lin._scalar_exponential(paths, np.einsum("i,mkid->mkd", a, b_vals))
    m_vec = np.zeros((paths.paths, paths.grid.steps + 1, fld.n))
    bdb = np.einsum("mkjd,mkd->mkj", b_vals, paths.increments)
    np.cumsum(scal[:, :-1, None] * bdb, axis=1, out=m_vec[:, 1:])
    eye = np.eye(fld.n)
    s = eye[None, None] + np.einsum("i,mkj->mkij", a, m_vec)
    s_inv = eye[None, None] - np.einsum("i,mkj->mkij", a, m_vec) / scal[:, :, None, None]
    return s, s_inv


# -- block budgets ----------------------------------------------------------

@pytest.fixture
def used_blocks(monkeypatch):
    """(rule, entries per path or node, blocks) for each block list that a
    streamed backward reader asked for, in call order.

    The budget is read where the block rules read it, in `brownian`; the spy
    records what the readers in `linear`, `norms` and `quadratic` got back.
    """
    seen = []

    def spying(rule):
        def spy(count, size, entries):
            blocks = getattr(br, rule)(count, size, entries)
            seen.append((rule, entries, blocks))
            return blocks
        return spy
    for module in (lin, norms, quad):
        for rule in ("node_blocks", "path_blocks"):
            if hasattr(module, rule):
                monkeypatch.setattr(module, rule, spying(rule))
    return seen


def _set_budget(monkeypatch, budget: int, used_blocks: list) -> None:
    """Set `_NODE_BLOCK_BYTES` in `brownian` and forget earlier blocks."""
    monkeypatch.setattr(br, "_NODE_BLOCK_BYTES", budget)
    used_blocks.clear()


def _check_split(budget: int, used_blocks: list) -> None:
    """At the smallest budget, one byte, every reader got more than one block:
    a budget set where the rule does not read it leaves the default blocks,
    and then a test would pass without testing the blocking.  The
    exceptions are one node to split and a sum over paths of one entry
    each, which takes every path in one block."""
    assert used_blocks, "no streamed reader asked for blocks"
    if budget == 1:
        for rule, entries, blocks in used_blocks:
            one = blocks == [(0, 1)] or (rule == "path_blocks" and entries < 2)
            assert (len(blocks) == 1) == one, (rule, entries, blocks)


def _paths(d, k_steps=K, m=M, seed=3):
    return generate_brownian(TimeGrid(1.0, k_steps), d, m, seed=seed)


# -- (a) the same bits as the whole arrays ----------------------------------

@pytest.mark.parametrize("n, d, k_steps", SHAPES)
def test_streamed_residuals_match_whole_arrays(n, d, k_steps, monkeypatch, used_blocks):
    paths = _paths(d, k_steps)
    rng = np.random.default_rng(10 * n + d)
    y = rng.normal(size=(M, k_steps + 1, n))
    z = rng.normal(size=(M, k_steps, n, d))
    drift = rng.normal(size=(M, k_steps, n))
    want = _residuals_reference(paths, y, z, drift)
    for budget in BUDGETS:
        _set_budget(monkeypatch, budget, used_blocks)
        assert lin._martingale_residuals(paths, y, z, drift) == want, budget
        _check_split(budget, used_blocks)


@pytest.mark.parametrize("n, d, k_steps", SHAPES)
def test_streamed_norms_match_whole_arrays(n, d, k_steps, monkeypatch, used_blocks):
    paths = _paths(d, k_steps)
    rng = np.random.default_rng(20 * n + d)
    y = rng.normal(size=(M, k_steps + 1, n))
    z = rng.normal(size=(M, k_steps, n, d)) * np.exp(paths.states[:, :-1, None, :1])
    cases = [("sup_p", y, np.inf), ("sup_p", y, 2.0), ("l2q", z, 2.0), ("l2q", z, 3.0),
             ("bmo", z, None)]
    want = [_norm_reference(kind, v, paths, q=q) for kind, v, q in cases]
    last_nodes = set()
    for budget in BUDGETS:
        _set_budget(monkeypatch, budget, used_blocks)
        got = [estimate_norm(kind, v, paths, q=q) for kind, v, q in cases]
        assert got == want, budget
        _check_split(budget, used_blocks)
        last_nodes |= {blocks[-1][1] - blocks[-1][0]
                       for rule, _, blocks in used_blocks if rule == "node_blocks"}
    if k_steps > 1:    # a block of nodes holds at least two entries per path
        assert (1 in last_nodes) == (n * d > 1), last_nodes


def test_bmo_tie_at_the_maximum_goes_to_the_earliest_node(monkeypatch, used_blocks):
    """A fitted profile whose maximum is attained at nodes 2 and 5: the value
    and the standard error are those of node 2, as the forward scan gave."""
    paths = _paths(2)
    z = np.random.default_rng(5).normal(size=(M, K, 3, 2))
    profile = [0.5, 1.0, 3.0, 2.0, 1.0, 3.0, 0.25, 0.0]

    def fit_predict(self, k, y):
        return np.full(np.shape(y), profile[k])
    monkeypatch.setattr(RegressionConditional, "fit_predict", fit_predict)
    want = _norm_reference("bmo", z, paths)
    sizes = np.sqrt((z * z).reshape(M, K, -1).sum(axis=-1))
    remaining = np.cumsum((sizes**2 * paths.grid.dt)[:, ::-1], axis=1)[:, ::-1]
    se_at = [np.std(remaining[:, k] - profile[k], ddof=1) / np.sqrt(M - 1) for k in (2, 5)]
    assert se_at[0] != se_at[1]
    assert want.value == np.sqrt(3.0) and want.std_error == se_at[0] / (2 * np.sqrt(3.0))
    for budget in BUDGETS:
        _set_budget(monkeypatch, budget, used_blocks)
        assert estimate_norm("bmo", z, paths) == want, budget
        _check_split(budget, used_blocks)


def _drivers(n, d):
    def h(z):
        z = np.asarray(z, dtype=float)
        return 0.5 * (z * z).reshape(z.shape[0], -1).sum(axis=1)
    b = np.linspace(0.5, -0.25, n)
    return [QuadraticLinearDriver(n, d, None, b, 1.0),
            UnidirectionalDriver(n, d, None, np.ones(n), h, 1.0)]


@pytest.mark.parametrize("n, d, k_steps", SHAPES)
def test_escalation_magnitude_matches_whole_array(n, d, k_steps, monkeypatch, used_blocks):
    z = np.random.default_rng(30 * n + d).normal(size=(M, k_steps, n, d))
    z_nan = z.copy()
    z_nan[7, k_steps - 1, 0, 0] = np.nan
    for driver in _drivers(n, d):
        want = float(driver.magnitude(z).max())
        for budget in BUDGETS:
            _set_budget(monkeypatch, budget, used_blocks)
            assert quad._max_magnitude(driver, z) == want, (driver.kind, budget)
            assert np.isnan(quad._max_magnitude(driver, z_nan))
            _check_split(budget, used_blocks)


def test_prefix_matches_whole_array_cumsum():
    paths = _paths(1, k_steps=9)
    x = np.random.default_rng(4).normal(size=(M, 9, 3))
    want = np.zeros((M, 10, 3))
    np.cumsum(x * paths.grid.dt[None, :, None], axis=1, out=want[:, 1:])
    assert np.array_equal(lin._prefix(paths, x, (3,)), want)
    assert np.array_equal(lin._prefix(paths, x[..., 0], ()), want[..., 0])
    assert not lin._prefix(paths, None, (3,)).any()


def test_left_outer_exponential_in_place_matches_whole_arrays():
    fld = left_outer_3d()
    paths = generate_brownian(TimeGrid(1.0, 16), fld.d, 300, seed=8)
    s_ref, inv_ref = _left_outer_reference(fld, paths)
    expo = lin.left_outer_exponential(fld, paths)
    assert np.array_equal(expo.s, s_ref) and np.array_equal(expo.s_inv, inv_ref)
    assert np.array_equal(np.signbit(expo.s), np.signbit(s_ref))
    assert np.array_equal(np.signbit(expo.s_inv), np.signbit(inv_ref))


# -- (b) bounded working memory ---------------------------------------------

def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diagnostics_memory_grows_by_at_most_one_node_block():
    """On a fixed solution, the residuals, the norm report and the
    escalation check form no whole (M, K, ...) temporary: doubling K grows
    their traced peak by at most one block budget, _NODE_BLOCK_BYTES.  At
    K = 128 one whole (M, K, n) array is 12.3 MB, three budgets."""
    fld, m = triangular_3d(), 4000
    drivers = _drivers(fld.n, fld.d)
    peaks = {}
    for k_steps in (64, 128):
        paths = generate_brownian(TimeGrid(1.0, k_steps), fld.d, m, seed=5)
        spec = lin.LinearBsdeSpec(fld, linear_terminal("triangular-3d"))
        y, z, extras = lin._regression(fld, paths, 3)(lin._terminal(spec, paths), None)

        def diagnose():
            sol = lin._finish(fld, paths, "regression", y, z, None, extras)
            sol.norm_report()
            for driver in drivers:
                quad._max_magnitude(driver, z)
        peaks[k_steps] = _peak_bytes(diagnose)
        del paths, y, z, extras
    assert peaks[128] - peaks[64] <= br._NODE_BLOCK_BYTES, peaks
    assert peaks[128] < 2 * br._NODE_BLOCK_BYTES, peaks


def _held_bytes(op) -> int:
    """Bytes of the arrays an operator holds, beyond the paths' states."""
    total, stack = 0, [v for v in vars(op).values() if v is not op.states]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, dict):
            stack += item.values()
        elif isinstance(item, (tuple, list)):
            stack += item
    return total


@pytest.mark.parametrize("k_steps", [64, 128])
def test_shared_operator_holds_per_node_maps_and_one_basis(k_steps):
    """After a regression solve and its norm report, the shared operator
    keeps one (p, r) map per node and at most one (M, r) basis: no basis
    of a node outlives the visit of that node."""
    fld, m = triangular_3d(), 4000
    paths = generate_brownian(TimeGrid(1.0, k_steps), fld.d, m, seed=5)
    spec = lin.LinearBsdeSpec(fld, linear_terminal("triangular-3d"))
    lin.solve_by_regression(spec, paths).norm_report()
    op = RegressionConditional.of(paths, 3)
    r = math.comb(fld.d + 3, 3)                  # the monomial count bounds the rank
    assert _held_bytes(op) < (k_steps + 1) * r * r * 8 + m * r * 8
    assert sorted(op._bases) == list(range(k_steps))       # the bmo fit skips node K
