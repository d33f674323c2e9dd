import numpy as np
import pytest

from bsde_lab import TimeGrid, generate_brownian, scalar_field
from bsde_lab import norms
from bsde_lab.brownian import PathEnsemble
from bsde_lab.counterexamples import EmerySpec
from bsde_lab.fields import constant_field
from bsde_lab.grids import ConfigurationError
from bsde_lab.instances import (left_outer_3d, linear_terminal, right_outer_3d,
                                triangular_3d)
from bsde_lab.norms import RegressionConditional, poly_features
from bsde_lab.linear import (LinearBsdeSpec, PicardDivergenceError,
                             RepresentationInvalidError, batch_y0,
                             estimate_solution_operator_norm, left_outer_exponential,
                             solve_auto, solve_by_regression, solve_by_representation,
                             solve_left_outer, solve_perturbed, solve_right_outer,
                             solve_triangular)
from bsde_lab.tree import (FiniteFiltration, discrete_linear_bsde_solve)

TERMINAL3 = linear_terminal("triangular-3d")


@pytest.fixture(scope="module")
def paths():
    return generate_brownian(TimeGrid(1.0, 32), 1, 16000, seed=101)


def test_constant_terminal_conditional_expectation(paths):
    # xi = c, beta = 0, true-martingale S: Y = c, Z ~ 0
    spec = LinearBsdeSpec(scalar_field(0.4), lambda p: np.full((p.paths, 1), 2.0))
    sol = solve_by_representation(spec, paths)
    # pathwise agreement up to LSMC tails; tight in the mean
    assert np.abs(sol.y - 2.0).mean() < 0.05
    assert abs(sol.y[:, 0].mean() - 2.0) < 0.01
    assert np.abs(sol.z).mean() < 0.05


def test_scalar_girsanov_closed_form(paths):
    # n=1, A = a, xi = B_T: Y_t = B_t + a (T - t), Z = 1
    a = 0.4
    spec = LinearBsdeSpec(scalar_field(a), lambda p: p.states[:, -1])
    for solver in (solve_by_representation, solve_by_regression):
        sol = solver(spec, paths)
        k = 16
        exact = paths.states[:, k, 0] + a * (1 - paths.grid.nodes[k])
        rmse = np.sqrt(np.mean((sol.y[:, k, 0] - exact) ** 2))
        assert rmse < 0.05, solver.__name__
        assert abs(sol.y[:, 0].mean() - a) < 0.03
        assert abs(sol.z.mean() - 1.0) < 0.05
        assert np.array_equal(sol.y[:, -1, 0], paths.states[:, -1, 0])


def test_inhomogeneous_beta(paths):
    # A = 0, beta = 1: Y_t = E_t[xi] + (T - t)
    spec = LinearBsdeSpec(
        constant_field(np.zeros((1, 1, 1))),
        lambda p: np.tanh(p.states[:, -1]),
        beta=lambda p, k: np.ones((p.paths, 1)))
    sol = solve_by_representation(spec, paths)
    exact0 = np.tanh(paths.states[:, -1, 0]).mean() + 1.0
    assert abs(sol.y[:, 0].mean() - exact0) < 0.02
    sol2 = solve_by_regression(spec, paths)
    assert abs(sol2.y[:, 0].mean() - exact0) < 0.02


def test_representation_refuses_emery(paths):
    # long-horizon stopped rotation: S is not a uniformly integrable
    # martingale; the median-of-groups defect gate must trip (the plain
    # sample defect carries huge error bars from straggler paths)
    from bsde_lab.counterexamples import emery_closed_form
    grid = TimeGrid(24.0, 600)
    p = generate_brownian(grid, 1, 2000, seed=103)
    fld = EmerySpec().field()
    expo = emery_closed_form(p)
    expo.bad_paths[:] = False          # keep stragglers in: gate must still trip
    spec = LinearBsdeSpec(fld, lambda pp: np.tanh(pp.states[:, -1]).repeat(2, axis=1))
    with pytest.raises(RepresentationInvalidError, match="not a martingale"):
        solve_by_representation(spec, p, expo=expo)


def test_structural_solvers_match_regression(paths):
    builders = {
        "triangular": (triangular_3d, solve_triangular),
        "right_outer": (right_outer_3d, solve_right_outer),
        "left_outer": (left_outer_3d, solve_left_outer),
    }
    for name, (mk, solver) in builders.items():
        spec = LinearBsdeSpec(mk(), TERMINAL3)
        mean_a, se_a = batch_y0(solver, spec, paths, batches=8)
        mean_b, se_b = batch_y0(solve_by_regression, spec, paths, batches=8)
        combined = np.sqrt(se_a**2 + se_b**2)
        assert np.all(np.abs(mean_a - mean_b) <= 3 * combined + 5e-3), name


def test_right_outer_identity_and_guards(paths):
    spec = LinearBsdeSpec(right_outer_3d(), TERMINAL3)
    sol = solve_right_outer(spec, paths)
    assert sol.diagnostics["outer_identity_residual"] < 0.02
    with pytest.raises(ConfigurationError):
        solve_right_outer(LinearBsdeSpec(triangular_3d(), TERMINAL3), paths)
    with pytest.raises(ConfigurationError):
        solve_left_outer(LinearBsdeSpec(right_outer_3d(), TERMINAL3), paths)
    with pytest.raises(ConfigurationError):
        solve_triangular(LinearBsdeSpec(left_outer_3d(), TERMINAL3), paths)


def test_right_outer_zero_afield(paths):
    # a-field = 0: A = 0, Y_t = E_t[xi]
    from bsde_lab.fields import right_outer_field
    fld = right_outer_field(lambda t, x: np.zeros((x.shape[0], 2, 1)),
                            np.array([1.0, 0.0]), d=1)
    xi_fn = lambda p: np.stack([np.tanh(p.states[:, -1, 0]),
                                np.sin(p.states[:, -1, 0])], axis=1)
    sol = solve_right_outer(LinearBsdeSpec(fld, xi_fn), paths)
    assert abs(sol.y[:, 0, 0].mean() - np.tanh(paths.states[:, -1, 0]).mean()) < 0.01


def test_left_outer_closed_form_vs_euler(paths):
    from bsde_lab.exponential import simulate_exponential, estimate_reverse_holder
    fld = left_outer_3d()
    expo_cf = left_outer_exponential(fld, paths.subset(np.arange(4000)))
    expo_eu = simulate_exponential(fld, paths.subset(np.arange(4000)))
    gap = np.abs(expo_cf.s[:, -1] - expo_eu.s[:, -1]).max()
    assert gap < 0.05
    # R_p of the assembled closed-form S matches the Euler estimate
    r_cf = estimate_reverse_holder(expo_cf, 2.0)
    r_eu = estimate_reverse_holder(expo_eu, 2.0)
    tol = 3 * (r_cf.std_error + r_eu.std_error) + 0.02
    assert abs(r_cf.rp_estimate - r_eu.rp_estimate) < tol


def test_triangular_diagonal_decouples(paths):
    # diagonal A: component equations decouple into independent scalar solves
    def diag_eval(t, x):
        m = x.shape[0]
        a = np.zeros((m, 2, 2, 1))
        a[:, 0, 0, 0] = 0.3
        a[:, 1, 1, 0] = -0.2
        return a

    from bsde_lab.fields import CoefficientField
    fld = CoefficientField(2, 1, diag_eval, structure="lower_triangular")
    xi_fn = lambda p: np.stack([p.states[:, -1, 0], np.tanh(p.states[:, -1, 0])], axis=1)
    sol = solve_triangular(LinearBsdeSpec(fld, xi_fn), paths)
    # component 0 is the scalar Girsanov instance: Y*0 = a T
    assert abs(sol.y[:, 0, 0].mean() - 0.3) < 0.03


def test_perturbed_zero_perturbation_single_pass(paths):
    spec = LinearBsdeSpec(triangular_3d(), TERMINAL3)
    sol = solve_perturbed(spec, paths)
    assert sol.diagnostics["picard_iterations"] <= 2
    base = solve_triangular(spec, paths)
    assert np.abs(sol.y - base.y).max() < 1e-10


def test_perturbed_small_delta_converges(paths):
    delta = constant_field(np.full((3, 3, 1), 0.05), name="delta")
    spec = LinearBsdeSpec(triangular_3d(), TERMINAL3, delta_field=delta,
                          alpha=lambda p, k: np.broadcast_to(
                              0.1 * np.eye(3), (p.paths, 3, 3)))
    sol = solve_perturbed(spec, paths)
    hist = sol.diagnostics["picard_history"]
    assert hist[-1] < 1e-6
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 2))
    base = solve_triangular(LinearBsdeSpec(triangular_3d(), TERMINAL3), paths)
    assert 0.001 < np.abs(sol.y - base.y).max() < 0.5


def test_perturbed_large_delta_diverges(paths):
    delta = constant_field(np.full((3, 3, 1), 3.0), name="delta-big")
    spec = LinearBsdeSpec(triangular_3d(), TERMINAL3, delta_field=delta)
    with pytest.raises(PicardDivergenceError):
        solve_perturbed(spec, paths.subset(np.arange(2000)))


def exhaustive_tree_paths(filt: FiniteFiltration) -> PathEnsemble:
    """Every tree path once: regression on the Brownian state with full
    degree reproduces nodewise conditional expectations exactly."""
    inc = filt.child_increments        # (2, d) for d = 1
    leaves = filt.leaves
    paths_idx = filt.leaf_paths()
    increments = np.empty((leaves, filt.steps, filt.d))
    for k in range(filt.steps):
        child = paths_idx[:, k + 1] & (filt.branching - 1)
        increments[:, k] = inc[child]
    grid = TimeGrid(filt.horizon, filt.steps)
    return PathEnsemble(grid, filt.d, leaves, 0, increments)


def test_regression_solver_exact_on_enumerated_tree():
    # Markovian constant field, d = 1, exhaustive paths, degree = K:
    # the LSMC solver reproduces the exact tree backward solve nodewise
    filt = FiniteFiltration(4, 1, 0.1)
    a0 = np.array([[[0.4], [0.1]], [[-0.2], [0.3]]])
    fld = constant_field(a0)
    p = exhaustive_tree_paths(filt)
    xi_tree_leaf = np.stack([np.sin(filt.states()[-1][:, 0]),
                             np.cos(filt.states()[-1][:, 0])], axis=1)
    a_nodes = [np.broadcast_to(a0, (filt.nodes_at(k), 2, 2, 1)).copy()
               for k in range(filt.steps)]
    y_tree, z_tree = discrete_linear_bsde_solve(filt, xi_tree_leaf, None, a_nodes)

    spec = LinearBsdeSpec(
        fld, lambda pp: np.stack([np.sin(pp.states[:, -1, 0]),
                                  np.cos(pp.states[:, -1, 0])], axis=1))
    sol = solve_by_regression(spec, p, degree=filt.steps)
    paths_idx = filt.leaf_paths()
    worst = 0.0
    for k in range(filt.steps + 1):
        worst = max(worst, float(np.abs(sol.y[:, k] - y_tree[k][paths_idx[:, k]]).max()))
    for k in range(filt.steps):
        worst = max(worst, float(np.abs(sol.z[:, k] - z_tree[k][paths_idx[:, k]]).max()))
    assert worst < 1e-9


def _lstsq_fit(x, y, degree):
    feats = poly_features(x, degree)
    flat = y.reshape(y.shape[0], -1)
    return (feats @ np.linalg.lstsq(feats, flat, rcond=None)[0]).reshape(y.shape)


def test_rank_deficient_basis_warns_once_per_operator():
    # on the enumerated tree the state at step k takes k + 1 values, so the
    # degree-4 basis has rank k + 1 < 5 for k < 4
    filt = FiniteFiltration(4, 1, 0.1)
    fld = constant_field(np.array([[[0.4], [0.1]], [[-0.2], [0.3]]]))

    def terminal(pp):
        return np.stack([np.sin(pp.states[:, -1, 0]), np.cos(pp.states[:, -1, 0])], axis=1)

    p = exhaustive_tree_paths(filt)
    spec = LinearBsdeSpec(fld, terminal)
    with pytest.warns(RuntimeWarning, match=r"rank-deficient \(rank 4 < 5\)") as rec:
        solve_by_regression(spec, p, degree=filt.steps)
        solve_by_regression(spec, p, degree=filt.steps)
    assert sum("rank-deficient" in str(w.message) for w in rec) == 1

    op = RegressionConditional.of(p, filt.steps)
    y = terminal(p)
    for k in range(1, filt.steps + 1):
        ref = _lstsq_fit(p.states[:, k], y, filt.steps)
        assert np.abs(op.fit_predict(k, y) - ref).max() <= 1e-12 * np.abs(ref).max()

    # another ensemble has its own operator, which warns once of its own
    fresh = RegressionConditional.of(exhaustive_tree_paths(filt), filt.steps)
    with pytest.warns(RuntimeWarning, match="rank-deficient") as rec:
        for k in range(filt.steps + 1):
            fresh.fit_predict(k, y)
    assert sum("rank-deficient" in str(w.message) for w in rec) == 1


def test_shared_operator_matches_lstsq_at_every_step(paths):
    op = RegressionConditional.of(paths, 3)
    xi = TERMINAL3(paths)
    y = np.stack([xi, xi**2], axis=-1)          # trailing axes (M, 3, 2)
    np.testing.assert_array_equal(
        op.fit_predict(0, y), np.broadcast_to(y.mean(axis=0), y.shape))
    for k in range(1, paths.grid.steps + 1):
        ref = _lstsq_fit(paths.states[:, k], y, 3)
        assert np.abs(op.fit_predict(k, y) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_shared_operator_builds_each_basis_once(monkeypatch):
    paths = generate_brownian(TimeGrid(1.0, 8), 1, 2000, seed=7)
    degrees = []

    def counting(x, degree):
        degrees.append(degree)
        return poly_features(x, degree)

    monkeypatch.setattr(norms, "poly_features", counting)
    spec = LinearBsdeSpec(triangular_3d(), TERMINAL3)
    first = solve_triangular(spec, paths)
    built = len(degrees)
    assert built == paths.grid.steps - 1       # steps 1..K-1; t = 0 fits the mean
    second = solve_triangular(spec, paths)
    solve_by_regression(spec, paths)
    assert len(degrees) == built
    np.testing.assert_array_equal(first.y, second.y)
    first.norm_report()                        # the bmo fit adds step K only
    assert len(degrees) == built + 1
    assert RegressionConditional.of(paths, 3) is RegressionConditional.of(paths, 3)
    RegressionConditional.of(paths, 2).fit_predict(1, first.y[:, 2])
    assert degrees[-1] == 2 and len(degrees) == built + 2


def test_solve_auto_dispatch(paths):
    sol = solve_auto(LinearBsdeSpec(triangular_3d(), TERMINAL3), paths)
    assert sol.solver == "triangular"
    sol2 = solve_auto(LinearBsdeSpec(scalar_field(0.2), lambda p: p.states[:, -1]),
                      paths, method="representation")
    assert sol2.solver == "representation"


def test_operator_norm_family(paths):
    fld = triangular_3d()
    family = [
        ("constant", lambda p: np.ones((p.paths, 3)), None),
        ("bounded", TERMINAL3, None),
        ("with-beta", TERMINAL3, lambda p, k: 0.5 * np.ones((p.paths, 3))),
    ]
    res = estimate_solution_operator_norm(
        solve_triangular, lambda t, b: LinearBsdeSpec(fld, t, beta=b),
        family, paths.subset(np.arange(4000)), q=np.inf)
    assert res["operator_norm_lower_bound"] >= 1.0
    assert len(res["rows"]) == 3
    with pytest.raises(ConfigurationError):
        estimate_solution_operator_norm(
            solve_triangular, lambda t, b: LinearBsdeSpec(fld, t, beta=b),
            [], paths, q=np.inf)


def test_solution_norm_report(paths):
    spec = LinearBsdeSpec(scalar_field(0.3), lambda p: np.tanh(p.states[:, -1]))
    sol = solve_by_regression(spec, paths)
    rep = sol.norm_report(np.inf)
    # bounded terminal: the sup estimate sits near the exact bound, inflated
    # only by regression tails at extreme states
    assert 0.5 < rep["y"].value <= 2.5
    assert rep["z"].value > 0
