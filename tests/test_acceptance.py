"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not calibrated elsewhere.  Run with -s to see the
per-criterion lines; the suite asserts every one of them.
"""

import time

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.counterexamples import (NonexistenceSpec, emery_closed_form,
                                      emery_defect_at_horizon, exit_time_exact,
                                      exit_time_exponential)
from bsde_lab.fields import StoppedRotationField
from bsde_lab.instances import (cole_hopf_1d, cole_hopf_1d_ud, left_outer_3d,
                                linear_terminal, ql_coupled_2d, quadratic_terminal,
                                right_outer_3d, scalar_half, triangular_3d,
                                unidirectional_2d)
from bsde_lab.linear import (LinearBsdeSpec, batch_y0, solve_by_regression,
                             solve_left_outer, solve_right_outer, solve_triangular)
from bsde_lab.norms import estimate_norm
from bsde_lab.quadratic import (AbCondition, InvalidLyapunovPair, LyapunovPair,
                                QuadraticLinearDriver, check_ab_condition,
                                check_lyapunov, linearized_difference_check,
                                positively_spans, solve_quadratic)
from bsde_lab import tree as tr


def gate(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exit_time_identity():
    # E[exp(sigma_b/2)] = 1/cos(b) within 2% relative error, 1e5 paths,
    # dt = 1e-4 T (T = 1 time unit), <= 2 minutes per level.  The exact
    # sampler is an independent oracle beside the walk: within 3 exact
    # standard errors, Var exp(sigma_b/2) = 1/cos(b sqrt 2) - 1/cos(b)^2.
    for b, exact in ((np.pi / 4, np.sqrt(2.0)), (np.pi / 3, 2.0)):
        t0 = time.time()
        res = exit_time_exponential(b, paths=100_000, dt=1e-4, seed=42)
        elapsed = time.time() - t0
        rel = abs(res.estimate - exact) / exact
        oracle = exit_time_exact(b, paths=100_000, seed=42)
        exact_se = np.sqrt((1.0 / np.cos(b * np.sqrt(2.0)) - exact**2) / 100_000)
        z = (oracle.estimate - exact) / exact_se
        gate(1, rel <= 0.02 and elapsed <= 120.0 and abs(z) <= 3.0,
             f"b={b:.4f}: estimate {res.estimate:.5f} vs {exact:.5f} "
             f"(rel err {rel:.4%}, {elapsed:.1f}s, truncated {res.truncated_paths}); "
             f"exact sampler {oracle.estimate:.5f} ({z:+.2f} exact se)")


def test_criterion_02_scalar_reverse_holder():
    # n=1, A = 0.5, T=1, p=2: R_p within 3 std errors of exp(0.25), <= 1 min
    t0 = time.time()
    paths = bl.generate_brownian(bl.TimeGrid(1.0, 32), 1, 100_000, seed=9001)
    expo = bl.simulate_exponential(scalar_half(), paths)
    rep = bl.estimate_reverse_holder(expo, 2.0)
    elapsed = time.time() - t0
    exact = float(np.exp(0.25))
    err = abs(rep.rp_estimate - exact)
    gate(2, err <= 3 * rep.std_error and elapsed <= 60.0,
         f"R_2 = {rep.rp_estimate:.5f} vs {exact:.5f} "
         f"(err {err:.5f}, 3se {3 * rep.std_error:.5f}, {elapsed:.1f}s)")


def test_criterion_03_emery_detection_and_order():
    # (a) diagonal defect >= 0.5 at the effective horizon with >= 5 sigma
    res = emery_defect_at_horizon(20_000, horizon=48.0, dt=0.01, seed=77)
    sig = res["significance_vs_half"]
    ok_defect = res["diag_defect"] >= 0.5 and sig >= 5.0
    # (b) Euler vs closed form: RMSE halving rate consistent with order 0.5
    fine = bl.generate_brownian(bl.TimeGrid(4.0, 800), 1, 2000, seed=9003)
    errs = []
    for factor in (4, 2, 1):
        pc = fine.coarsened(factor) if factor > 1 else fine
        s_e = bl.integrate_exponential(StoppedRotationField(), pc)
        s_c = emery_closed_form(pc).s
        errs.append(float(np.sqrt(np.mean((s_e[:, -1] - s_c[:, -1]) ** 2))))
    rates = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok_order = errs[0] > errs[1] > errs[2] and np.mean(rates) >= 0.4
    gate(3, ok_defect and ok_order,
         f"defect {res['diag_defect']:.3f} (sig {sig}), "
         f"RMSE {[round(e, 4) for e in errs]} rates {[round(r, 3) for r in rates]}")


def _random_tree(rng):
    d = int(rng.integers(1, 3))
    steps = int(rng.integers(2, 9 if d == 1 else 5))
    n = int(rng.integers(1, 4))
    filt = tr.FiniteFiltration(steps, d, float(rng.uniform(0.05, 0.3)))
    a_nodes = [rng.normal(scale=0.4, size=(filt.nodes_at(k), n, n, d))
               for k in range(steps)]
    beta = [rng.normal(size=(filt.nodes_at(k), n)) for k in range(steps)]
    xi = rng.normal(size=(filt.leaves, n))
    return filt, a_nodes, beta, xi


def test_criterion_04_exact_tree_oracle():
    # >= 25 randomized instances: representation identity to 1e-10 and
    # duality lhs = rhs to 1e-9, under 1 minute
    t0 = time.time()
    rng = np.random.default_rng(4242)
    worst_rep, worst_dual = 0.0, 0.0
    for _ in range(30):
        filt, a_nodes, beta, xi = _random_tree(rng)
        y, _ = tr.discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
        y_rep = tr.representation_solution(filt, a_nodes, xi, beta)
        worst_rep = max(worst_rep, max(float(np.abs(y[k] - y_rep[k]).max())
                                       for k in range(filt.steps + 1)))
        level = int(rng.integers(0, filt.steps))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        dual = tr.verify_duality_lemma(filt, xi, level, p, rng=rng)
        worst_dual = max(worst_dual, abs(dual["gap"]))
    elapsed = time.time() - t0
    gate(4, worst_rep <= 1e-10 and worst_dual <= 1e-9 and elapsed <= 60.0,
         f"representation err {worst_rep:.2e}, duality gap {worst_dual:.2e}, "
         f"{elapsed:.1f}s over 30 instances")


def test_criterion_05_exact_tree_reverse_holder():
    filt = tr.FiniteFiltration(1, 1, 0.25)
    s = tr.discrete_exponential(filt, [np.full((1, 1, 1, 1), 1.0)])
    r2 = tr.discrete_reverse_holder(filt, s, 2.0)["rp"]
    mono_ok = True
    rng = np.random.default_rng(4343)
    for _ in range(20):
        filt_r, a_nodes, _, _ = _random_tree(rng)
        s_r = tr.discrete_exponential(filt_r, a_nodes)
        if s_r.singular:
            continue
        rps = [tr.discrete_reverse_holder(filt_r, s_r, p)["rp"]
               for p in (1.0, 1.5, 2.0, 3.0)]
        mono_ok &= all(rps[i] <= rps[i + 1] + 1e-12 for i in range(3))
    gate(5, r2 == 1.25 and mono_ok,
         f"hand-enumerated R_2 = {r2} (exact), monotone in p on all trees: {mono_ok}")


def test_criterion_06_structural_cross_solver():
    paths = bl.generate_brownian(bl.TimeGrid(1.0, 32), 1, 16000, seed=606)
    terminal = linear_terminal("triangular-3d")
    pairs = [("triangular", triangular_3d(), solve_triangular),
             ("right-outer", right_outer_3d(), solve_right_outer),
             ("left-outer", left_outer_3d(), solve_left_outer)]
    all_ok, details = True, []
    identity_resid = None
    for name, fld, solver in pairs:
        spec = LinearBsdeSpec(fld, terminal)
        mean_a, se_a = batch_y0(solver, spec, paths, batches=8)
        mean_b, se_b = batch_y0(solve_by_regression, spec, paths, batches=8)
        combined = 3 * np.sqrt(se_a**2 + se_b**2) + 1e-4
        ok = bool(np.all(np.abs(mean_a - mean_b) <= combined))
        all_ok &= ok
        details.append(f"{name} max|dY0|={np.abs(mean_a - mean_b).max():.4f}")
        if name == "right-outer":
            sol = solver(spec, paths)
            identity_resid = sol.diagnostics["outer_identity_residual"]
    # regression tolerance for the outer identity pinned at 0.02
    all_ok &= identity_resid <= 0.02
    gate(6, all_ok, "; ".join(details) + f"; V=b^T Z residual {identity_resid:.4f}")


def test_criterion_07_inverse_dynamics():
    fine = bl.generate_brownian(bl.TimeGrid(1.0, 800), 1, 1000, seed=707)
    fields = [scalar_half(), triangular_3d(), right_outer_3d(), left_outer_3d(),
              StoppedRotationField()]
    all_ok, details = True, []
    for fld in fields:
        res = {}
        for label, factor in (("coarse", 4), ("fine", 1)):
            pc = fine.coarsened(factor) if factor > 1 else fine
            expo = bl.simulate_exponential(fld, pc)
            res[label] = float(expo.inverse_residual_profile().max())
        ok = res["fine"] <= 0.05 and res["fine"] < res["coarse"]
        all_ok &= ok
        details.append(f"{fld.name or type(fld).__name__}:{res['fine']:.4f}")
    gate(7, all_ok, "max_t mean|S X - I| at K=800: " + "; ".join(details))


def test_criterion_08_cole_hopf():
    t0 = time.time()
    paths = bl.generate_brownian(bl.TimeGrid(1.0, 48), 1, 16000, seed=808)
    term = quadratic_terminal("cole-hopf-1d")
    results = {}
    for name, drv in (("ql", cole_hopf_1d()), ("unidirectional", cole_hopf_1d_ud())):
        rep = solve_quadratic(drv, term, paths)
        results[name] = (float(rep.solution.y[:, 0].mean()), rep.level)
    elapsed = time.time() - t0
    ok = all(abs(y0 - 0.5) / 0.5 <= 0.02 and lvl <= 8.0
             for y0, lvl in results.values()) and elapsed <= 300.0
    gate(8, ok, f"Y_0 = {results} vs 0.5 exact ({elapsed:.1f}s)")


def test_criterion_09_uniqueness_probe():
    paths = bl.generate_brownian(bl.TimeGrid(1.0, 32), 1, 8000, seed=909)
    worst = 0.0
    for name in ("cole-hopf-1d", "cole-hopf-1d-ud", "ql-coupled-2d",
                 "unidirectional-2d"):
        drv = {"cole-hopf-1d": cole_hopf_1d, "cole-hopf-1d-ud": cole_hopf_1d_ud,
               "ql-coupled-2d": ql_coupled_2d,
               "unidirectional-2d": unidirectional_2d}[name]()
        term = quadratic_terminal(name)
        a = solve_quadratic(drv, term, paths, init="mean")
        b = solve_quadratic(drv, term, paths, init="zero")
        na = estimate_norm("sup_p", a.solution.y - b.solution.y, paths, q=np.inf)
        worst = max(worst, na.value)
    gate(9, worst <= 1e-3,
         f"max S-infinity gap between Picard initializations {worst:.2e}")


def test_criterion_10_lyapunov_and_ab():
    rng = np.random.default_rng(1010)
    pair = LyapunovPair(lambda y: float((np.asarray(y) ** 2).sum()),
                        lambda y: 2.0 * np.asarray(y),
                        lambda y: 2.0 * np.eye(np.asarray(y).size),
                        k=0.0, radius=1.0)
    zero_drv = QuadraticLinearDriver(2, 1, None, [0.0, 0.0], 1.0)
    margins = check_lyapunov(pair, zero_drv, rng)
    ok_margin = margins["worst_margin"] >= -1e-9
    paths = bl.generate_brownian(bl.TimeGrid(1.0, 32), 1, 8000, seed=1011)
    solved = solve_quadratic(zero_drv, quadratic_terminal("ql-coupled-2d"), paths)
    bound = check_lyapunov(pair, zero_drv, rng, solution=solved.solution)
    ok_bound = bound["bound_satisfied"]
    span_ok, cert = positively_spans(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]))
    not_span, _ = positively_spans(np.array([[1.0, 0], [0, 1]]))
    ok_span = span_ok and bool(cert) and not not_span
    gate(10, ok_margin and ok_bound and ok_span,
         f"margin {margins['worst_margin']:.2e}, bmo^2 {bound['bmo_sq_estimate']:.3f} "
         f"<= bound {bound['bound']:.3f}, spanning certs ok={ok_span}")


def test_criterion_11_linearized_stability():
    paths = bl.generate_brownian(bl.TimeGrid(1.0, 32), 1, 8000, seed=1111)
    drv = ql_coupled_2d()
    term = quadratic_terminal("ql-coupled-2d")
    base = solve_quadratic(drv, term, paths, picard_tol=1e-10)
    ratios, worst_res = [], 0.0
    for eps in (0.1, 0.05, 0.025):
        other = solve_quadratic(drv, lambda p, e=eps: term(p) + np.array([e, 0.0]),
                                paths, picard_tol=1e-10)
        res = linearized_difference_check(drv, other.solution, base.solution)
        worst_res = max(worst_res, res["residual"]["equation_residual"])
        ratios.append(res["stability_ratio"])
    variation = (max(ratios) - min(ratios)) / np.mean(ratios)
    # solver step tolerance = per-step fixed-point tolerance 1e-10
    gate(11, worst_res <= 10 * 1e-10 and variation <= 0.25,
         f"equation residual {worst_res:.2e} <= 1e-9, ratio variation "
         f"{variation:.1%} over eps sweep (ratios {[round(r, 3) for r in ratios]})")
