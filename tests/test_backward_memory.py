"""The backward layer stores its solutions node-major and reads them one
node at a time: the same bits as the whole path-major expressions that the
diagnostics replace, in bounded working memory."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from bsde_lab import TimeGrid, generate_brownian
from bsde_lab import cli
from bsde_lab import linear as lin
from bsde_lab import norms
from bsde_lab import quadratic as quad
from bsde_lab.fields import constant_field
from bsde_lab.instances import (cole_hopf_1d, left_outer_3d, linear_terminal,
                                quadratic_terminal, right_outer_3d, triangular_3d)
from bsde_lab.norms import NormEstimate, RegressionConditional, estimate_norm
from bsde_lab.quadratic import QuadraticLinearDriver, UnidirectionalDriver

K = 7
M = 200
# (n, d, K).  With n = 1 a node holds one entry per path, which numpy would
# sum pairwise over the paths; with n = K = 1 the whole path-major row is
# that one entry, and the path-major sum is pairwise too.
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


# -- both layouts ------------------------------------------------------------

def _layouts(*arrays):
    """The arrays as given (path-major), then as path-major views of node-major
    copies, as the solvers store them."""
    yield arrays
    yield tuple(np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1) for a in arrays)


def _paths(d, k_steps=K, m=M, seed=3):
    return generate_brownian(TimeGrid(1.0, k_steps), d, m, seed=seed)


# -- (a) the same bits as the whole arrays ----------------------------------

@pytest.mark.parametrize("n, d, k_steps", SHAPES)
def test_streamed_residuals_match_whole_arrays(n, d, k_steps):
    """The moment sums fed as the solvers feed them: in backward node order
    as `_backward` finishes each node, and one node behind as `_expo_core`
    finishes Y_{k+1}.  The Y they read is NaN wherever not yet final, so a
    node read too early shows."""
    paths = _paths(d, k_steps)
    rng = np.random.default_rng(10 * n + d)
    y = rng.normal(size=(M, k_steps + 1, n))
    z = rng.normal(size=(M, k_steps, n, d))
    drift = rng.normal(size=(M, k_steps, n))
    want = _residuals_reference(paths, y, z, drift)
    for y_, z_, drift_ in _layouts(y, z, drift):
        backward, lagged = lin._MomentSums(paths), lin._MomentSums(paths)
        done = np.full_like(y_, np.nan)
        done[:, k_steps] = y_[:, k_steps]
        for k in range(k_steps - 1, -1, -1):
            done[:, k] = y_[:, k]
            backward.add(k, done, z_, drift_[:, k].copy())
        done = np.full_like(y_, np.nan)
        for k in range(k_steps + 1):
            done[:, k] = y_[:, k]
            if k:
                lagged.add(k - 1, done, z_, drift_[:, k - 1].copy())
        assert backward.means() == want
        assert lagged.means() == want


@pytest.mark.parametrize("n, d, k_steps", SHAPES)
def test_streamed_norms_match_whole_arrays(n, d, k_steps):
    paths = _paths(d, k_steps)
    rng = np.random.default_rng(20 * n + d)
    y = rng.normal(size=(M, k_steps + 1, n))
    z = rng.normal(size=(M, k_steps, n, d)) * np.exp(paths.states[:, :-1, None, :1])
    kinds = [("sup_p", 0, np.inf), ("sup_p", 0, 2.0), ("l2q", 1, 2.0), ("l2q", 1, 3.0),
             ("bmo", 1, None)]
    want = [_norm_reference(kind, (y, z)[i], paths, q=q) for kind, i, q in kinds]
    for arrays in _layouts(y, z):
        assert [estimate_norm(kind, arrays[i], paths, q=q) for kind, i, q in kinds] == want


def test_bmo_tie_at_the_maximum_goes_to_the_earliest_node(monkeypatch):
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
    for (values,) in _layouts(z):
        assert estimate_norm("bmo", values, paths) == want


def _drivers(n, d):
    def h(z):
        z = np.asarray(z, dtype=float)
        return 0.5 * (z * z).reshape(z.shape[0], -1).sum(axis=1)
    b = np.linspace(0.5, -0.25, n)
    return [QuadraticLinearDriver(n, d, None, b, 1.0),
            UnidirectionalDriver(n, d, None, np.ones(n), h, 1.0)]


@pytest.mark.parametrize("n, d, k_steps", SHAPES)
def test_escalation_magnitude_matches_whole_array(n, d, k_steps):
    z = np.random.default_rng(30 * n + d).normal(size=(M, k_steps, n, d))
    z_nan = z.copy()
    z_nan[7, k_steps - 1, 0, 0] = np.nan
    for driver in _drivers(n, d):
        want = float(driver.magnitude(z).max())
        for values, with_nan in _layouts(z, z_nan):
            assert quad._max_magnitude(driver, values) == want, driver.kind
            assert np.isnan(quad._max_magnitude(driver, with_nan))


def test_prefix_matches_whole_array_cumsum():
    """Subtracting the running sum of terms formed one step at a time gives
    the bits of subtracting the whole array's cumsum, in place."""
    paths = _paths(1, k_steps=9)
    dt, rng = paths.grid.dt, np.random.default_rng(4)
    x, y = rng.normal(size=(M, 9, 3)), rng.normal(size=(M, 10, 3))
    want = y.copy()
    want[:, 1:] -= np.cumsum(x * dt[None, :, None], axis=1)
    for y_, x_ in list(_layouts(y.copy(), x)):         # both copies made first
        lin._minus_prefix(y_, (x_[:, k] * dt[k] for k in range(9)))
        assert np.array_equal(y_, want)
    scalar = y[..., 0].copy()                           # one entry per path and step
    lin._minus_prefix(scalar, (x[:, k, 0] * dt[k] for k in range(9)))
    assert np.array_equal(scalar, want[..., 0])


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
    escalation check read one node at a time and form no whole (M, K, ...)
    temporary: doubling K grows their traced peak by at most 4 MiB.  At
    K = 128 one whole (M, K, n) array is 12.3 MB."""
    fld, m = triangular_3d(), 4000
    drivers = _drivers(fld.n, fld.d)
    peaks = {}
    for k_steps in (64, 128):
        paths = generate_brownian(TimeGrid(1.0, k_steps), fld.d, m, seed=5)
        spec = lin.LinearBsdeSpec(fld, linear_terminal("triangular-3d"))
        y, z, extras = lin._regression(fld, paths, 3)(
            lin._terminal(spec.terminal, paths, spec.n), None)

        def diagnose():
            sol = lin._finish(fld, paths, "regression", 3, y, z, None, extras)
            sol.norm_report()
            for driver in drivers:
                quad._max_magnitude(driver, z)
        peaks[k_steps] = _peak_bytes(diagnose)
        del paths, y, z, extras
    assert peaks[128] - peaks[64] <= 4 << 20, peaks
    assert peaks[128] < 2 * (4 << 20), peaks


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


def _closure_bytes(fn) -> int:
    """Bytes of the arrays a closure holds (a view counts its whole base)."""
    seen, total, stack = set(), 0, [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += (item if item.base is None else item.base).nbytes
        elif isinstance(item, dict):
            stack += item.values()
        elif isinstance(item, (tuple, list)):
            stack += item
    return total


def test_left_outer_solve_forms_no_whole_exponential():
    """The left-outer solve reads S_k and S_k^{-1} one node at a time from
    the rank-one factors: beyond its Y, Z and drift it holds less than one
    (M, K+1, n, n) array, where whole S and S^{-1} arrays would be two."""
    fld, m, k_steps = left_outer_3d(), 2000, 64
    paths = generate_brownian(TimeGrid(1.0, k_steps), fld.d, m, seed=5)
    paths.states                                   # the paths' own, built before tracing
    spec = lin.LinearBsdeSpec(fld, linear_terminal("left-outer-3d"))
    n, d = fld.n, fld.d
    peak = _peak_bytes(lambda: lin.solve_left_outer(spec, paths))
    solution = 8 * m * ((k_steps + 1) * n + k_steps * n * d + k_steps * n)
    assert peak - solution < 8 * m * (k_steps + 1) * n * n, (peak, solution)


def test_triangular_core_holds_only_the_entries_it_reads():
    """The triangular core keeps the diagonal coefficients (n arrays of
    (M, K, d)), the strictly lower entries (K, M, n(n-1)/2, d) and the n
    weights (M, K+1): no per-step list of (M, n, n, d) field values."""
    fld, m, k_steps = triangular_3d(), 2000, 32
    n, d = fld.n, fld.d
    paths = generate_brownian(TimeGrid(1.0, k_steps), d, m, seed=5)
    core = lin._triangular(fld, paths, 3)
    kept = 8 * (m * k_steps * d * n * (n + 1) // 2 + n * m * (k_steps + 1))
    assert _closure_bytes(core) <= kept + 4096          # and a few index arrays
    extras = core(lin._terminal(linear_terminal("triangular-3d"), paths, n), None)[2]
    assert extras == {}                                 # `_finish` forms the drift


def test_quadratic_solve_keeps_no_drift():
    """Beyond Y and Z, a quadratic solve holds less than half of one
    (M, K, n) array at its traced peak: no level keeps a drift array, and a
    rejected level's solution is freed before the next level is tried.  The
    paths' increments and states are built before tracing."""
    m, k_steps = 4000, 64
    paths = generate_brownian(TimeGrid(1.0, k_steps), 1, m, seed=5)
    paths.states
    reports = []
    peak = _peak_bytes(lambda: reports.append(quad.solve_quadratic(
        cole_hopf_1d(), quadratic_terminal("cole-hopf-1d"), paths)))
    sol = reports[0].solution
    assert len(reports[0].escalation_log) >= 2           # a rejected level was freed
    solution = sol.y.base.nbytes + sol.z.base.nbytes
    assert peak - solution < 8 * m * k_steps // 2, (peak, solution)


def test_right_outer_picard_pass_keeps_no_lifted_drift():
    """A right-outer Picard pass forms the lifted drift a_k V_k + beta_k one
    node at a time: beyond the Picard buffers (Y^m, the inhomogeneity), the
    pass's Y, Z and V and the core's coefficients (the a values, b^T a and
    the weights), the traced peak holds less than one (M, K, n) array."""
    fld, m, k_steps = right_outer_3d(), 4000, 64
    n, d = fld.n, fld.d
    paths = generate_brownian(TimeGrid(1.0, k_steps), d, m, seed=5)
    paths.states
    spec = lin.LinearBsdeSpec(
        fld, linear_terminal("right-outer-3d"),
        alpha=lambda p, k: np.broadcast_to(0.1 * np.eye(n), (p.paths, n, n)),
        delta_field=constant_field(np.full((n, n, d), 0.05)))
    sols = []
    peak = _peak_bytes(lambda: sols.append(lin.solve_perturbed(spec, paths)))
    assert sols[0].diagnostics["picard_iterations"] >= 3
    picard = 8 * m * ((k_steps + 1) * n + k_steps * n)
    solution = 8 * m * ((k_steps + 1) * n + k_steps * n * d + k_steps * d)
    coefficients = 8 * m * (k_steps * n * d + k_steps * d + k_steps + 1)
    held = picard + solution + coefficients
    assert peak - held < 8 * m * k_steps * n, (peak, held)


def test_path_means_hold_one_node_at_a_time():
    """At n = 1 each node's mean is a running sum over the paths, of which
    only the last entry is kept: the peak stays under four (M,) rows, where
    K+1 whole running sums would be kept until the means are joined."""
    m, k_steps = 4000, 64
    x = np.random.default_rng(6).normal(size=(m, k_steps + 1, 1))
    assert _peak_bytes(lambda: lin.path_means(x)) < 4 * 8 * m


def test_picard_pass_forms_no_whole_temporary(monkeypatch):
    """Beyond its own buffers (Y^m, the inhomogeneity, and the pass's Y and
    Z), a Picard pass forms no whole (M, K+1, n) temporary: the residual is
    taken in the spent buffer of Y^m and the inhomogeneity is refilled in
    place.  The core here returns fixed arrays, so only the loop is traced."""
    fld, m, k_steps = triangular_3d(), 4000, 64
    n, d = fld.n, fld.d
    paths = generate_brownian(TimeGrid(1.0, k_steps), d, m, seed=5)
    paths.states
    spec = lin.LinearBsdeSpec(
        fld, linear_terminal("triangular-3d"),
        alpha=lambda p, k: np.broadcast_to(0.1 * np.eye(n), (p.paths, n, n)),
        delta_field=constant_field(np.full((n, n, d), 0.05)))
    rng = np.random.default_rng(1)
    y, z = rng.normal(size=(m, k_steps + 1, n)), rng.normal(size=(m, k_steps, n, d))

    def fixed(fld, paths, degree):
        return lambda xi, beta: (y.copy(), z.copy(), {})
    monkeypatch.setitem(lin._METHODS, "fixed", ("fixed", fixed))
    sols = []
    peak = _peak_bytes(lambda: sols.append(lin.solve_perturbed(spec, paths, base="fixed")))
    assert sols[0].diagnostics["picard_iterations"] == 2
    buffers = 8 * m * (2 * (k_steps + 1) * n + k_steps * n * d + k_steps * n + n)
    assert peak - buffers < 8 * m * (k_steps + 1) * n, (peak, buffers)


# -- (c) the n = 1 byte rule -------------------------------------------------

def test_scalar_solution_means_add_the_paths_in_order(tmp_path):
    """At n = 1 each node of a node-major solution holds one entry per path,
    which numpy would sum pairwise.  solution.csv's means, y0_mean and
    batch_y0 keep the bits of the path-major reductions: the means add the
    paths in order (each path's row holds K+1 entries), while y0_mean and
    batch_y0 reduce a one-entry slice, pairwise, in either layout."""
    cfg = {"driver": "cole-hopf-1d", "T": 1.0, "K": 8, "M": 3000, "seed": 3}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["solve-quadratic", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 0
    drv, term = cole_hopf_1d(), quadratic_terminal("cole-hopf-1d")
    grid = TimeGrid(cfg["T"], cfg["K"])
    paths = generate_brownian(grid, 1, cfg["M"], cfg["seed"])
    sol = quad.solve_quadratic(drv, term, paths).solution
    y, z = np.ascontiguousarray(sol.y), np.ascontiguousarray(sol.z)     # path-major copies
    table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert table[:, 1].tobytes() == y.mean(axis=0)[:, 0].tobytes()
    assert table[:-1, 2].tobytes() == z.mean(axis=0).reshape(-1).tobytes()
    # at this size a pairwise sum over the paths of each node moves the means
    for x in (y, z):
        node_rows = np.ascontiguousarray(x.swapaxes(0, 1))
        assert not np.array_equal(node_rows.mean(axis=1), x.mean(axis=0))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["y0_mean"] == [float(y[:, 0].mean(axis=0)[0])]

    want = []

    def solver(spec, sub):
        part = quad.solve_quadratic(drv, term, sub).solution
        want.append(np.ascontiguousarray(part.y)[:, 0].mean(axis=0))
        return part
    mean, se = lin.batch_y0(solver, None, paths)
    want = np.stack(want)
    assert mean.tobytes() == want.mean(axis=0).tobytes()
    assert se.tobytes() == (want.std(axis=0, ddof=1) / np.sqrt(8)).tobytes()
