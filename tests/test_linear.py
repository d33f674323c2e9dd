import numpy as np
import pytest

from bsde_lab import TimeGrid, generate_brownian, scalar_field
from bsde_lab import norms
from bsde_lab.brownian import PathEnsemble
from bsde_lab.fields import CoefficientField, StoppedRotationField, constant_field
from bsde_lab.grids import ConfigurationError
from bsde_lab.instances import (left_outer_3d, linear_terminal, right_outer_3d,
                                triangular_3d)
from bsde_lab.norms import RegressionConditional, poly_features
from bsde_lab.linear import (LinearBsdeSpec, PicardDivergenceError,
                             RepresentationInvalidError, batch_y0, left_outer_exponential,
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
    fld = StoppedRotationField()
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
    # a field tagged lower triangular whose values are not
    upper = np.zeros((3, 3, 1))
    upper[0, 2, 0] = 1e-9
    fld = CoefficientField(3, 1, lambda t, x: upper, structure="lower_triangular")
    with pytest.raises(ConfigurationError, match="not lower triangular"):
        solve_triangular(LinearBsdeSpec(fld, TERMINAL3), paths)


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


def test_backward_cores_return_contiguous_path_major_arrays():
    # Both cores work node-major; callers (and the path means of every
    # diagnostic, whose summation order follows the layout) get C-contiguous
    # path-major arrays.
    from bsde_lab.linear import _backward, _represent
    paths = generate_brownian(TimeGrid(1.0, 4), 2, 200, seed=3)
    m, ksteps, n, d = paths.paths, paths.grid.steps, 3, paths.d
    terminal = paths.states[:, -1, :1] * np.arange(1.0, n + 1.0)       # (M, n)

    def step(k, ey, z_k):
        drift = z_k.sum(axis=-1)
        return ey + drift * paths.grid.dt[k], drift

    y, z, drift = _backward(paths, 3, terminal, step)
    for arr, shape in ((y, (m, ksteps + 1, n)), (z, (m, ksteps, n, d)),
                       (drift, (m, ksteps, n))):
        assert arr.shape == shape and arr.flags.c_contiguous
    np.testing.assert_array_equal(y[:, ksteps], terminal)
    for h in (terminal[:, 0], terminal):
        n_fit, z_tilde = _represent(paths, 3, h)
        assert n_fit.shape == (m, ksteps + 1) + h.shape[1:] and n_fit.flags.c_contiguous
        assert z_tilde.shape == (m, ksteps) + h.shape[1:] + (d,)
        assert z_tilde.flags.c_contiguous
        np.testing.assert_array_equal(n_fit[:, ksteps], h)


def test_solve_auto_dispatch(paths):
    sol = solve_auto(LinearBsdeSpec(triangular_3d(), TERMINAL3), paths)
    assert sol.solver == "triangular"
    sol2 = solve_auto(LinearBsdeSpec(scalar_field(0.2), lambda p: p.states[:, -1]),
                      paths, method="representation")
    assert sol2.solver == "representation"


def test_solution_norm_report(paths):
    spec = LinearBsdeSpec(scalar_field(0.3), lambda p: np.tanh(p.states[:, -1]))
    sol = solve_by_regression(spec, paths)
    rep = sol.norm_report(np.inf)
    # bounded terminal: the sup estimate sits near the exact bound, inflated
    # only by regression tails at extreme states
    assert 0.5 < rep["y"].value <= 2.5
    assert rep["z"].value > 0


# ------------------------------------- perturbed loop and shared finish step

def _reference_perturbed(spec, paths, solver, degree=3, tol=1e-6, max_iters=50):
    """The Picard loop as it was: the public solver, diagnostics included,
    in every pass."""
    from bsde_lab.linear import _beta_array
    from bsde_lab.tensors import contract_az
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    beta = _beta_array(spec, paths)
    alpha = None
    if spec.alpha is not None:
        alpha = np.stack([np.asarray(spec.alpha(paths, k), dtype=float)
                          for k in range(ksteps)], axis=1)
    da_vals = None
    if spec.delta_field is not None:
        da_vals = [spec.delta_field.values(paths, k) for k in range(ksteps)]
    y_prev = np.zeros((m, ksteps + 1, n))
    z_prev = np.zeros((m, ksteps, n, d))
    history = []
    for it in range(max_iters):
        mod = np.zeros((m, ksteps, n))
        if beta is not None:
            mod += beta
        if alpha is not None:
            mod += np.einsum("mkij,mkj->mki", alpha, y_prev[:, :-1])
        if da_vals is not None:
            for k in range(ksteps):
                mod[:, k] += contract_az(da_vals[k], z_prev[:, k])
        mod_spec = LinearBsdeSpec(spec.field, spec.terminal,
                                  beta=lambda p, k, _m=mod: _m[:, k])
        sol = solver(mod_spec, paths, degree=degree)
        resid = float(np.abs(sol.y - y_prev).max() / (1.0 + np.abs(sol.y).max()))
        history.append(resid)
        if resid < tol:
            break
        y_prev, z_prev = sol.y, sol.z
    else:
        raise AssertionError("reference loop did not converge")
    sol.solver = "perturbed"
    sol.diagnostics["picard_history"] = history
    sol.diagnostics["picard_iterations"] = len(history)
    return sol


def _generic_3d():
    """A constant field with no structural tag: `auto` picks the
    representation base for it."""
    a0 = np.array([[0.2, 0.1, 0.0], [0.0, 0.1, 0.2], [0.1, 0.0, 0.3]])[..., None]
    return constant_field(a0, name="generic")


def _perturbed_spec(instance):
    """The instance with the CLI's --perturbation: dA = 0.05, alpha = 0.1 I."""
    fld = {"right-outer-3d": right_outer_3d, "triangular-3d": triangular_3d,
           "left-outer-3d": left_outer_3d, "generic-3d": _generic_3d}[instance]()
    terminal = linear_terminal("triangular-3d" if instance == "generic-3d" else instance)
    delta = constant_field(np.full((3, 3, 1), 0.05), name="delta")
    return LinearBsdeSpec(fld, terminal, delta_field=delta,
                          alpha=lambda p, k: np.broadcast_to(
                              0.1 * np.eye(3), (p.paths, 3, 3)))


def _assert_same_solution(got, want):
    assert got.solver == want.solver
    assert got.y.tobytes() == want.y.tobytes() and got.z.tobytes() == want.z.tobytes()
    assert set(got.diagnostics) == set(want.diagnostics)
    for key, value in want.diagnostics.items():
        if isinstance(value, np.ndarray):
            assert got.diagnostics[key].tobytes() == value.tobytes(), key
        else:
            assert got.diagnostics[key] == value, key


@pytest.fixture(scope="module")
def small_paths():
    return generate_brownian(TimeGrid(1.0, 16), 1, 3000, seed=5)


@pytest.mark.parametrize("instance, base, solver", [
    ("right-outer-3d", "auto", solve_right_outer),
    ("triangular-3d", "auto", solve_triangular),
    ("left-outer-3d", "auto", solve_left_outer),
    ("triangular-3d", "regression", solve_by_regression),
    ("triangular-3d", "representation", solve_by_representation),
    ("generic-3d", "auto", solve_by_representation),
])
def test_perturbed_loop_matches_per_pass_public_solver(small_paths, instance, base,
                                                       solver):
    spec = _perturbed_spec(instance)
    want = _reference_perturbed(spec, small_paths, solver)
    got = solve_perturbed(spec, small_paths, base=base)
    assert got.diagnostics["picard_iterations"] >= 3
    _assert_same_solution(got, want)


def test_perturbed_evaluates_base_field_once_per_step(small_paths):
    # The reductions form their field values once per solve, and `_finish`
    # forms the drift once: no count grows with the number of passes.
    ksteps = small_paths.grid.steps
    for instance, names in (("right-outer-3d", ("values", "a_values")),
                            ("triangular-3d", ("values",))):
        passes_seen = set()
        for tol in (1e-2, 1e-6, 1e-9):
            spec = _perturbed_spec(instance)
            fld, calls = spec.field, dict.fromkeys(names, 0)
            for name in names:
                method = getattr(fld, name)

                def counted(*args, _method=method, _name=name):
                    calls[_name] += 1
                    return _method(*args)
                setattr(fld, name, counted)
            sol = solve_perturbed(spec, small_paths, tol=tol)
            passes_seen.add(sol.diagnostics["picard_iterations"])
            assert calls == dict.fromkeys(names, ksteps), instance
        assert len(passes_seen) == 3, instance


def test_representation_cores_evaluate_the_field_once_per_node(small_paths, monkeypatch):
    # The core forms the drift A_k Z_k from the A_k it evaluated for Z_k,
    # so `_finish` evaluates no field.
    from bsde_lab.exponential import simulate_exponential
    ksteps = small_paths.grid.steps
    for instance, make, solve in (("left-outer-3d", left_outer_3d, solve_left_outer),
                                  ("triangular-3d", triangular_3d, solve_by_representation)):
        spec = LinearBsdeSpec(make(), linear_terminal(instance))
        kw = {}
        if solve is solve_by_representation:
            kw["expo"] = simulate_exponential(spec.field, small_paths)
        calls = []
        monkeypatch.setattr(spec.field, "values", lambda *args, _v=spec.field.values:
                            calls.append(args[-1]) or _v(*args))
        solve(spec, small_paths, **kw)
        assert sorted(calls) == list(range(ksteps)), instance


def test_perturbed_representation_simulates_and_gates_once(small_paths, monkeypatch):
    import bsde_lab.linear as lin
    calls = {"simulate_exponential": 0, "martingale_defect": 0}
    for name in calls:
        def counted(*args, _fn=getattr(lin, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lin, name, counted)
    passes_seen = set()
    for tol in (1e-2, 1e-6, 1e-9):
        calls.update(simulate_exponential=0, martingale_defect=0)
        sol = solve_perturbed(_perturbed_spec("generic-3d"), small_paths, tol=tol)
        passes_seen.add(sol.diagnostics["picard_iterations"])
        assert sol.diagnostics["martingale_defect"] <= 0.1
        assert calls == {"simulate_exponential": 1, "martingale_defect": 1}
    assert len(passes_seen) == 3


def _moment_residuals(paths, y, z, drift):
    dt = paths.grid.dt
    r = y[:, :-1] - y[:, 1:] - drift * dt[None, :, None] \
        + np.einsum("mkjd,mkd->mkj", z, paths.increments)
    rdb = np.einsum("mkj,mkd->mkjd", r, paths.increments)
    return (float(np.abs(r.mean(axis=0)).max()),
            float(np.abs(rdb.mean(axis=0)).max() / dt.min()))


@pytest.mark.parametrize("instance, solver, keys", [
    ("triangular-3d", solve_by_regression, set()),
    ("triangular-3d", solve_triangular, set()),
    ("triangular-3d", solve_by_representation, {"martingale_defect"}),
    ("right-outer-3d", solve_right_outer, {"outer_identity_residual", "scalar_v"}),
    ("left-outer-3d", solve_left_outer, {"scheme"}),
])
def test_solver_diagnostics_match_recomputed_drift(small_paths, instance, solver, keys):
    from bsde_lab.tensors import contract_az
    paths = small_paths
    fld = _perturbed_spec(instance).field
    beta_fn = lambda p, k: 0.2 * np.sin(p.state_at(k)) * np.array([1.0, -0.5, 0.25])
    sol = solver(LinearBsdeSpec(fld, linear_terminal(instance), beta=beta_fn), paths)
    assert set(sol.diagnostics) == {"moment_residual", "moment_db_residual",
                                    "terminal_mismatch"} | keys
    beta = np.stack([beta_fn(paths, k) for k in range(paths.grid.steps)], axis=1)
    drift = np.stack([contract_az(fld.values(paths, k), sol.z[:, k])
                      for k in range(paths.grid.steps)], axis=1)
    drift += beta
    mean_r, mean_rdb = _moment_residuals(paths, sol.y, sol.z, drift)
    assert sol.diagnostics["moment_residual"] == mean_r
    assert sol.diagnostics["moment_db_residual"] == mean_rdb
    mismatch = sol.diagnostics["terminal_mismatch"]
    if solver is solve_left_outer or solver is solve_by_representation:
        assert np.isfinite(mismatch) and mismatch >= 0.0   # formed by the core
    else:
        assert mismatch == 0.0
    if "scalar_v" in keys:
        v = sol.diagnostics["scalar_v"]
        assert sol.diagnostics["outer_identity_residual"] == float(
            np.abs(np.einsum("j,mkjd->mkd", fld.b, sol.z) - v).mean())
    if "scheme" in keys:
        assert sol.diagnostics["scheme"] == "closed_form"


def test_solve_auto_passes_method_to_perturbed_base(small_paths):
    spec = _perturbed_spec("right-outer-3d")
    got = solve_auto(spec, small_paths, method="regression")
    want = solve_perturbed(spec, small_paths, base="regression")
    _assert_same_solution(got, want)
    structural = solve_perturbed(spec, small_paths, base="right_outer")
    assert got.y.tobytes() != structural.y.tobytes()


# --------------------------- frozen reference: the linear cores as they were
# The solver cores before they were built from shared pieces (one
# representation step, one scalar exponential, one backward loop), kept
# verbatim so that every later refactor shows it keeps each output bit.

def _ref_beta_array(spec, paths):
    if spec.beta is None:
        return None
    return np.stack([np.asarray(spec.beta(paths, k), dtype=float)
                     for k in range(paths.grid.steps)], axis=1)


def _ref_beta_prefix(beta, paths, n):
    m, ksteps = paths.paths, paths.grid.steps
    out = np.zeros((m, ksteps + 1, n))
    if beta is not None:
        np.cumsum(beta * paths.grid.dt[None, :, None], axis=1, out=out[:, 1:])
    return out


def _ref_regression_core(spec, paths, degree):
    from bsde_lab.linear import _increment_regression
    from bsde_lab.tensors import contract_az
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    dt = paths.grid.dt
    beta = _ref_beta_array(spec, paths)
    reg = RegressionConditional.of(paths, degree)
    y = np.empty((m, ksteps + 1, n))
    z = np.empty((m, ksteps, n, d))
    y[:, ksteps] = np.asarray(spec.terminal(paths), dtype=float).reshape(m, n)
    drift = np.empty((m, ksteps, n))
    for k in range(ksteps - 1, -1, -1):
        ey = reg.fit_predict(k, y[:, k + 1])
        z[:, k] = _increment_regression(reg, paths, y[:, k + 1], k, base_values=ey)
        a_k = spec.field.values(paths, k)
        drift[:, k] = contract_az(a_k, z[:, k])
        if beta is not None:
            drift[:, k] += beta[:, k]
        y[:, k] = ey + drift[:, k] * dt[k]
    return y, z, beta


def _ref_expo_core(spec, expo, degree):
    from bsde_lab.linear import _increment_regression
    paths = expo.paths
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    beta = _ref_beta_array(spec, paths)
    prefix = _ref_beta_prefix(beta, paths, n)
    xi = np.asarray(spec.terminal(paths), dtype=float).reshape(m, n)

    h = np.einsum("mij,mj->mi", expo.s[:, -1], xi)
    if beta is not None:
        h += np.einsum("mkij,mkj->mi", expo.s[:, :-1],
                       beta * paths.grid.dt[None, :, None])

    reg = RegressionConditional.of(paths, degree)
    n_fit = np.empty((m, ksteps + 1, n))
    n_fit[:, ksteps] = h
    for k in range(ksteps):
        n_fit[:, k] = reg.fit_predict(k, h)

    y = np.einsum("mkij,mkj->mki", expo.s_inv, n_fit) - prefix
    y[:, ksteps] = xi

    z = np.empty((m, ksteps, n, d))
    for k in range(ksteps):
        z_tilde = _increment_regression(reg, paths, n_fit[:, k + 1], k,
                                        base_values=n_fit[:, k])
        a_k = spec.field.values(paths, k)
        xn = np.einsum("mij,mj->mi", expo.s_inv[:, k], n_fit[:, k])
        z[:, k] = (np.einsum("mij,mjd->mid", expo.s_inv[:, k], z_tilde)
                   - np.einsum("mijd,mj->mid", a_k, xn))
    return y, z, beta


def _ref_scalar_weighted_solve(paths, coeff, xi, beta, degree=3):
    from bsde_lab.linear import _increment_regression
    m, ksteps, d = coeff.shape
    dt = paths.grid.dt
    log_e = np.zeros((m, ksteps + 1))
    incr = np.einsum("mkd,mkd->mk", coeff, paths.increments) \
        - 0.5 * (coeff**2).sum(axis=2) * dt[None, :]
    np.cumsum(incr, axis=1, out=log_e[:, 1:])
    weights = np.exp(log_e)

    prefix = np.zeros((m, ksteps + 1))
    if beta is not None:
        np.cumsum(beta * dt[None, :], axis=1, out=prefix[:, 1:])
    h = weights[:, -1] * xi
    if beta is not None:
        h += (weights[:, :-1] * beta * dt[None, :]).sum(axis=1)

    reg = RegressionConditional.of(paths, degree)
    n_fit = np.empty((m, ksteps + 1))
    n_fit[:, ksteps] = h
    for k in range(ksteps):
        n_fit[:, k] = reg.fit_predict(k, h)
    u = n_fit / weights - prefix
    u[:, ksteps] = xi
    v = np.empty((m, ksteps, d))
    for k in range(ksteps):
        z_tilde = _increment_regression(reg, paths, n_fit[:, k + 1], k,
                                        base_values=n_fit[:, k])
        v[:, k] = z_tilde / weights[:, k, None] \
            - coeff[:, k] * (n_fit[:, k] / weights[:, k])[:, None]
    return u, v


def _ref_triangular_core(spec, paths, degree):
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    a_vals = [spec.field.values(paths, k) for k in range(ksteps)]
    beta = _ref_beta_array(spec, paths)
    xi = np.asarray(spec.terminal(paths), dtype=float).reshape(m, n)
    y = np.empty((m, ksteps + 1, n))
    z = np.empty((m, ksteps, n, d))
    for i in range(n):
        coeff = np.stack([a_vals[k][:, i, i, :] for k in range(ksteps)], axis=1)
        known = np.zeros((m, ksteps))
        for j in range(i):
            known += np.stack(
                [(a_vals[k][:, i, j, :] * z[:, k, j, :]).sum(axis=1)
                 for k in range(ksteps)], axis=1)
        if beta is not None:
            known += beta[:, :, i]
        u, v = _ref_scalar_weighted_solve(paths, coeff, xi[:, i], known, degree)
        y[:, :, i] = u
        z[:, :, i, :] = v
    return y, z, beta


def _ref_right_outer_core(spec, paths, degree):
    from bsde_lab.linear import _increment_regression
    fld = spec.field
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    dt = paths.grid.dt
    b = fld.b
    a_vals = np.stack([fld.a_values(paths, k) for k in range(ksteps)], axis=1)
    coeff = np.einsum("i,mkid->mkd", b, a_vals)
    beta = _ref_beta_array(spec, paths)
    xi = np.asarray(spec.terminal(paths), dtype=float).reshape(m, n)
    eta = xi @ b
    beta_scalar = None if beta is None else np.einsum("mkj,j->mk", beta, b)
    u, v = _ref_scalar_weighted_solve(paths, coeff, eta, beta_scalar, degree)

    tilde = np.einsum("mkid,mkd->mki", a_vals, v)
    if beta is not None:
        tilde += beta
    h = xi + (tilde * dt[None, :, None]).sum(axis=1)
    prefix = np.zeros((m, ksteps + 1, n))
    np.cumsum(tilde * dt[None, :, None], axis=1, out=prefix[:, 1:])
    reg = RegressionConditional.of(paths, degree)
    n_fit = np.empty((m, ksteps + 1, n))
    n_fit[:, ksteps] = h
    for k in range(ksteps):
        n_fit[:, k] = reg.fit_predict(k, h)
    y = n_fit - prefix
    y[:, ksteps] = xi
    z = np.empty((m, ksteps, n, d))
    for k in range(ksteps):
        z[:, k] = _increment_regression(reg, paths, n_fit[:, k + 1], k,
                                        base_values=n_fit[:, k])
    return y, z, beta


def _ref_left_outer_exponential(fld, paths):
    from bsde_lab.exponential import ExponentialEnsemble
    m, ksteps, n, d = paths.paths, paths.grid.steps, fld.n, paths.d
    dt = paths.grid.dt
    a = fld.a
    b_vals = np.stack([fld.b_values(paths, k) for k in range(ksteps)], axis=1)
    coeff = np.einsum("i,mkid->mkd", a, b_vals)
    log_e = np.zeros((m, ksteps + 1))
    incr = np.einsum("mkd,mkd->mk", coeff, paths.increments) \
        - 0.5 * (coeff**2).sum(axis=2) * dt[None, :]
    np.cumsum(incr, axis=1, out=log_e[:, 1:])
    scal = np.exp(log_e)
    m_vec = np.zeros((m, ksteps + 1, n))
    bdb = np.einsum("mkjd,mkd->mkj", b_vals, paths.increments)
    np.cumsum(scal[:, :-1, None] * bdb, axis=1, out=m_vec[:, 1:])
    eye = np.eye(n)
    s = eye[None, None] + np.einsum("i,mkj->mkij", a, m_vec)
    s_inv = eye[None, None] - np.einsum("i,mkj->mkij", a, m_vec) / scal[:, :, None, None]
    return ExponentialEnsemble(fld, paths, s, s_inv)


def _ref_solver(name):
    """The frozen core `name` as a solver: the SolutionEnsemble it gives
    carries the drift A Z + beta of its solution in diagnostics["drift"]."""
    from bsde_lab.exponential import simulate_exponential
    from bsde_lab.linear import SolutionEnsemble
    from bsde_lab.tensors import contract_az

    cores = {
        "regression": _ref_regression_core,
        "representation": lambda spec, paths, degree: _ref_expo_core(
            spec, simulate_exponential(spec.field, paths, reads=("s", "s_inv")), degree),
        "triangular": _ref_triangular_core,
        "right_outer": _ref_right_outer_core,
        "left_outer": lambda spec, paths, degree: _ref_expo_core(
            spec, _ref_left_outer_exponential(spec.field, paths), degree),
    }

    def solve(spec, paths, degree=3):
        y, z, beta = cores[name](spec, paths, degree)
        drift = np.stack([contract_az(spec.field.values(paths, k), z[:, k])
                          for k in range(paths.grid.steps)], axis=1)
        if beta is not None:
            drift += beta
        return SolutionEnsemble(paths, y, z, name, {"drift": drift})
    return solve


def _generic_2x2():
    """A constant generic field with d = 2, so that every contraction over
    the Brownian coordinates sums more than one term."""
    a0 = np.array([[[0.2, -0.1], [0.1, 0.0]], [[0.0, 0.15], [0.1, 0.3]]])
    return constant_field(a0, name="generic-2x2")


_FROZEN_CASES = {
    "regression": ("triangular-3d", solve_by_regression),
    "regression-d2": ("generic-2x2", solve_by_regression),
    "representation": ("triangular-3d", solve_by_representation),
    "representation-d2": ("generic-2x2", solve_by_representation),
    "triangular": ("triangular-3d", solve_triangular),
    "right_outer": ("right-outer-3d", solve_right_outer),
    "left_outer": ("left-outer-3d", solve_left_outer),
}


def _frozen_instance(instance):
    """(field, terminal, beta function, paths) of a frozen-reference case."""
    if instance == "generic-2x2":
        fld, terminal = _generic_2x2(), lambda p: np.tanh(p.states[:, -1])
    else:
        fld, terminal = _perturbed_spec(instance).field, linear_terminal(instance)
    weights = np.linspace(1.0, -0.5, fld.n)
    beta_fn = lambda p, k: 0.2 * np.sin(p.state_at(k)[:, :1]) * weights
    paths = generate_brownian(TimeGrid(1.0, 8), fld.d, 1200, seed=7)
    return fld, terminal, beta_fn, paths


def _assert_matches_reference(got, want):
    paths = want.paths
    assert got.y.tobytes() == want.y.tobytes()
    assert got.z.tobytes() == want.z.tobytes()
    mean_r, mean_rdb = _moment_residuals(paths, want.y, want.z, want.diagnostics["drift"])
    assert got.diagnostics["moment_residual"] == mean_r
    assert got.diagnostics["moment_db_residual"] == mean_rdb


@pytest.mark.parametrize("with_beta", [False, True])
@pytest.mark.parametrize("case", sorted(_FROZEN_CASES))
def test_linear_solvers_match_frozen_reference(case, with_beta):
    instance, solver = _FROZEN_CASES[case]
    fld, terminal, beta_fn, paths = _frozen_instance(instance)
    spec = LinearBsdeSpec(fld, terminal, beta=beta_fn if with_beta else None)
    want = _ref_solver(case.removesuffix("-d2"))(spec, paths)
    _assert_matches_reference(solver(spec, paths), want)


@pytest.mark.parametrize("with_beta", [False, True])
@pytest.mark.parametrize("instance, base, ref", [
    ("right-outer-3d", "auto", "right_outer"),
    ("triangular-3d", "auto", "triangular"),
    ("left-outer-3d", "auto", "left_outer"),
    ("triangular-3d", "regression", "regression"),
    ("generic-3d", "auto", "representation"),
])
def test_perturbed_solve_matches_frozen_reference(instance, base, ref, with_beta):
    spec = _perturbed_spec(instance)
    if with_beta:
        spec.beta = lambda p, k: 0.2 * np.sin(p.state_at(k)) * np.array([1.0, -0.5, 0.25])
    paths = generate_brownian(TimeGrid(1.0, 8), 1, 1200, seed=7)
    want = _reference_perturbed(spec, paths, _ref_solver(ref))
    got = solve_perturbed(spec, paths, base=base)
    assert got.diagnostics["picard_iterations"] == want.diagnostics["picard_iterations"] >= 3
    _assert_matches_reference(got, want)


def test_left_outer_exponential_matches_frozen_reference():
    fld = left_outer_3d()
    paths = generate_brownian(TimeGrid(1.0, 8), 1, 1200, seed=7)
    got, want = left_outer_exponential(fld, paths), _ref_left_outer_exponential(fld, paths)
    assert got.s.tobytes() == want.s.tobytes()
    assert got.s_inv.tobytes() == want.s_inv.tobytes()
