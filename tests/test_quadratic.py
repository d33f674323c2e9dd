import re

import numpy as np
import pytest

from bsde_lab import TimeGrid, generate_brownian
from bsde_lab.grids import ConfigurationError
from bsde_lab.instances import (cole_hopf_1d, cole_hopf_1d_ud, ql_coupled_2d,
                                quadratic_terminal, unidirectional_2d)
from bsde_lab.quadratic import (AbCondition, InvalidLyapunovPair, LyapunovPair,
                                QuadraticLinearDriver, UnidirectionalDriver,
                                check_ab_condition, check_lyapunov, clamp_vecd,
                                clamp_vector, cole_hopf_reference, evaluate_driver,
                                linearized_difference_check, positively_spans,
                                solve_quadratic, truncate_driver)


@pytest.fixture(scope="module")
def paths():
    return generate_brownian(TimeGrid(1.0, 48), 1, 12000, seed=211)


# ---------------------------------------------------------------- drivers

def test_ql_driver_scalar_value():
    drv = QuadraticLinearDriver(1, 1, None, [0.7], 0.7)
    z = np.array([[[2.0]]])
    out = evaluate_driver(drv, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), z)
    assert np.allclose(out, 0.7 * 4.0)


def test_ql_driver_component_arithmetic():
    # n=2, d=1, b=(1,0), z=(2,3): (z b^T z)_i = z^i . z^1 = (4, 6)
    drv = QuadraticLinearDriver(2, 1, None, [1.0, 0.0], 1.5)
    z = np.array([[[2.0], [3.0]]])
    out = evaluate_driver(drv, 0.0, np.zeros((1, 1)), np.zeros((1, 2)), z)
    assert np.allclose(out, [[4.0, 6.0]])


def test_unidirectional_driver_value():
    # a=(1,1), h=|z|^2/2, z=(2,0) -> (2, 2)
    drv = UnidirectionalDriver(
        2, 1, None, [1.0, 1.0],
        lambda z: 0.5 * (z * z).reshape(z.shape[0], -1).sum(axis=1), 1.0)
    z = np.array([[[2.0], [0.0]]])
    out = evaluate_driver(drv, 0.0, np.zeros((1, 1)), np.zeros((1, 2)), z)
    assert np.allclose(out, [[2.0, 2.0]])


def test_driver_shape_guards():
    drv = QuadraticLinearDriver(2, 1, None, [0.5, 0.0], 1.0)
    with pytest.raises(ConfigurationError):
        evaluate_driver(drv, 0.0, np.zeros((1, 1)), np.zeros((1, 3)),
                        np.zeros((1, 2, 1)))
    with pytest.raises(ConfigurationError):
        QuadraticLinearDriver(2, 1, None, [5.0, 0.0], 1.0)   # |b| > L


# ---------------------------------------------------------------- clamp

def test_clamp_identity_inside_ball():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(50, 3))
    v = v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(0, 2.0, (50, 1))
    out = clamp_vector(v, 2.0)
    assert np.allclose(out, v)


def test_clamp_bounded_radial_contractive():
    rng = np.random.default_rng(2)
    v = rng.normal(scale=10.0, size=(500, 4))
    out = clamp_vector(v, 1.5)
    norms = np.linalg.norm(out, axis=1)
    assert norms.max() <= 1.5 * 1.5 + 1e-12          # flattens at 1.5 k
    assert np.all(norms <= np.linalg.norm(v, axis=1) + 1e-12)
    # radial: output parallel to input
    cross = np.abs(np.cross(out[:, :3], v[:, :3]) /
                   (np.linalg.norm(v[:, :3], axis=1, keepdims=True) + 1e-12))
    assert cross.max() < 1e-9


def test_clamp_lipschitz_sampled():
    rng = np.random.default_rng(3)
    a = rng.normal(scale=4.0, size=(2000, 2))
    b = a + rng.normal(scale=0.05, size=a.shape)
    lhs = np.linalg.norm(clamp_vector(a, 1.0) - clamp_vector(b, 1.0), axis=1)
    rhs = np.linalg.norm(a - b, axis=1)
    assert (lhs <= rhs * (1 + 1e-8)).all()


def test_clamp_c2_join():
    # profile smooth at r = k: second difference continuous at the join
    from bsde_lab.quadratic import _clamp_profile
    k = 1.0
    eps = 1e-4
    for r0 in (k, 2 * k):
        d2_left = (_clamp_profile(np.array([r0 - 2 * eps]), k)
                   - 2 * _clamp_profile(np.array([r0 - eps]), k)
                   + _clamp_profile(np.array([r0]), k))[0] / eps**2
        d2_right = (_clamp_profile(np.array([r0]), k)
                    - 2 * _clamp_profile(np.array([r0 + eps]), k)
                    + _clamp_profile(np.array([r0 + 2 * eps]), k))[0] / eps**2
        assert abs(d2_left + d2_right) < 0.05


def test_truncated_driver_matches_inside():
    drv = ql_coupled_2d()
    trunc = truncate_driver(drv, 5.0)
    rng = np.random.default_rng(4)
    z = rng.normal(scale=0.5, size=(20, 2, 1))
    y = rng.normal(size=(20, 2))
    x = rng.normal(size=(20, 1))
    assert np.allclose(trunc(0.0, x, y, z), drv(0.0, x, y, z))
    # far outside: output controlled by the Lipschitz envelope
    zbig = rng.normal(scale=100.0, size=(20, 2, 1))
    out = trunc(0.0, x, y, zbig)
    quad_low = np.abs(out).max()
    raw = np.abs(drv(0.0, x, y, zbig)).max()
    assert quad_low < raw / 10


def test_truncation_preserves_ab_inequality():
    drv = unidirectional_2d()
    cond = AbCondition(0.31, np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1.0]]))
    rep = check_ab_condition(cond, drv, np.random.default_rng(5))
    assert rep["spanning"] and not rep["violations"]
    rep_t = check_ab_condition(cond, truncate_driver(drv, 3.0),
                               np.random.default_rng(6))
    assert not rep_t["violations"]


def test_truncate_rejects_bad_level():
    with pytest.raises(ConfigurationError):
        truncate_driver(cole_hopf_1d(), 0.0)


# ---------------------------------------------------------------- solver

def test_cole_hopf_ql_and_ud(paths):
    term = quadratic_terminal("cole-hopf-1d")
    rep = solve_quadratic(cole_hopf_1d(), term, paths)
    y0 = rep.solution.y[:, 0].mean()
    assert abs(y0 - 0.5) < 0.01
    assert rep.level <= 8.0
    rep_u = solve_quadratic(cole_hopf_1d_ud(), term, paths)
    assert abs(rep_u.solution.y[:, 0].mean() - 0.5) < 0.01
    # sample-reference version of the transform
    ref = cole_hopf_reference(0.5, paths.states[:, -1, 0])
    assert abs(y0 - ref) < 0.01


def test_zero_driver_reduces_to_conditional_expectation(paths):
    drv = QuadraticLinearDriver(1, 1, None, [0.0], 1.0)
    term = lambda p: np.tanh(p.states[:, -1])
    rep = solve_quadratic(drv, term, paths)
    assert abs(rep.solution.y[:, 0].mean()
               - np.tanh(paths.states[:, -1, 0]).mean()) < 1e-6


def test_uniqueness_probe_initializations(paths):
    term = quadratic_terminal("cole-hopf-1d")
    a = solve_quadratic(cole_hopf_1d(), term, paths, init="mean")
    b = solve_quadratic(cole_hopf_1d(), term, paths, init="zero")
    gap = np.abs(a.solution.y - b.solution.y).max()
    assert gap < 1e-3


def test_unknown_init_or_driver_kind_is_refused_by_name(paths):
    term = quadratic_terminal("cole-hopf-1d")
    with pytest.raises(ConfigurationError,
                       match=re.escape("init 'Zero' is not one of ['mean', 'zero']")):
        solve_quadratic(cole_hopf_1d(), term, paths, init="Zero")

    class OtherKind(QuadraticLinearDriver):
        kind = "linear"

    with pytest.raises(ConfigurationError, match=re.escape(
            "driver kind 'linear' is not one of ['ql', 'unidirectional']")):
        solve_quadratic(OtherKind(1, 1, None, [0.5], 0.5), term, paths)


def test_cole_hopf_exponential_is_martingale(paths):
    # e^{2bY} along the numerical solution: flat sample mean across time
    term = quadratic_terminal("cole-hopf-1d")
    rep = solve_quadratic(cole_hopf_1d(), term, paths)
    em = np.exp(rep.solution.y[:, :, 0]).mean(axis=0)   # 2b = 1
    assert np.abs(em / em[0] - 1.0).max() < 0.02


def test_coupled_instances_solve(paths):
    for name, drv in (("ql-coupled-2d", ql_coupled_2d()),
                      ("unidirectional-2d", unidirectional_2d())):
        rep = solve_quadratic(drv, quadratic_terminal(name), paths)
        assert rep.margin >= 0.2
        assert np.isfinite(rep.solution.y).all(), name


# ---------------------------------------------------------------- conditions

def test_positive_spanning_certificates():
    ok, cert = positively_spans(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]))
    assert ok and len(cert) == 4
    bad, cert_bad = positively_spans(np.array([[1.0, 0], [0, 1]]))
    assert not bad
    assert any(v is None for v in cert_bad.values())


def test_ab_condition_margins_for_unidirectional(paths):
    drv = unidirectional_2d()
    cond = AbCondition(0.31, np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1.0]]))
    rep = check_ab_condition(cond, drv, np.random.default_rng(7), samples=600)
    assert rep["spanning"]
    assert rep["worst_margin"] > -1e-9
    # dropping rho below sup|g| produces violations
    rep_bad = check_ab_condition(AbCondition(0.0, cond.vectors), drv,
                                 np.random.default_rng(8), samples=600)
    assert rep_bad["violations"]


def test_lyapunov_quadratic_pair(paths):
    pair = LyapunovPair(lambda y: float((np.asarray(y) ** 2).sum()),
                        lambda y: 2.0 * np.asarray(y),
                        lambda y: 2.0 * np.eye(np.asarray(y).size),
                        k=0.0, radius=1.0)
    drv = QuadraticLinearDriver(2, 1, None, [0.0, 0.0], 1.0)   # zero driver
    rng = np.random.default_rng(9)
    rep = check_lyapunov(pair, drv, rng)
    # margin is exactly k = 0 for the zero driver
    assert abs(rep["worst_margin"]) < 1e-9
    assert rep["valid"]


def test_lyapunov_bound_on_solved_instance(paths):
    pair = LyapunovPair(lambda y: float((np.asarray(y) ** 2).sum()),
                        lambda y: 2.0 * np.asarray(y),
                        lambda y: 2.0 * np.eye(np.asarray(y).size),
                        k=0.0, radius=1.0)
    drv = QuadraticLinearDriver(2, 1, None, [0.0, 0.0], 1.0)
    term = quadratic_terminal("ql-coupled-2d")
    rep_solve = solve_quadratic(drv, term, paths)
    rng = np.random.default_rng(10)
    rep = check_lyapunov(pair, drv, rng, solution=rep_solve.solution)
    assert rep["bound"] == pytest.approx(2.0)           # k T + 2 sup h = 2 c^2
    assert rep["bound_satisfied"]


def test_lyapunov_rejects_nonsmooth():
    pair = LyapunovPair(lambda y: float(np.linalg.norm(y)),
                        lambda y: np.asarray(y) / (np.linalg.norm(y) + 1e-300),
                        lambda y: np.eye(np.asarray(y).size),
                        k=0.0, radius=1.0)
    drv = QuadraticLinearDriver(2, 1, None, [0.0, 0.0], 1.0)
    with pytest.raises(InvalidLyapunovPair):
        check_lyapunov(pair, drv, np.random.default_rng(11))


# ---------------------------------------------------------------- linearization

def test_linearized_difference_zero_shift(paths):
    term = quadratic_terminal("cole-hopf-1d")
    drv = cole_hopf_1d()
    rep = solve_quadratic(drv, term, paths)
    res = linearized_difference_check(drv, rep.solution, rep.solution)
    assert res["dy_norm"] == 0.0
    assert res["residual"]["moment_residual"] == 0.0


def test_linearized_difference_stability(paths):
    drv = ql_coupled_2d()
    term = quadratic_terminal("ql-coupled-2d")
    base = solve_quadratic(drv, term, paths)
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        shifted = lambda p, e=eps: term(p) + np.array([e, 0.0])
        other = solve_quadratic(drv, shifted, paths)
        res = linearized_difference_check(drv, other.solution, base.solution)
        assert res["residual"]["equation_residual"] < 1e-8
        ratios.append(res["stability_ratio"])
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    assert spread <= 0.25


def test_ab_bound_uniform_over_terminal_sweep(paths):
    # solutions of the unidirectional instance stay uniformly bounded while
    # the terminal sweeps inside a fixed sup-norm ball: the a-priori bound
    # depends only on (sup|xi|, rho, {a_m})
    from bsde_lab.norms import estimate_norm
    drv = unidirectional_2d()
    sup_y, sup_z = [], []
    for shift in (-0.3, 0.0, 0.3):
        term = lambda p, s=shift: np.clip(
            0.5 * np.stack([np.tanh(p.states[:, -1, 0] + s),
                            np.sin(2 * p.states[:, -1, 0] - s)], axis=1), -0.5, 0.5)
        rep = solve_quadratic(drv, term, paths)
        per_path = np.sqrt((rep.solution.y**2).sum(axis=2)).max(axis=1)
        # bulk order statistic: the raw max carries regression-tail spikes at
        # the most extreme sampled states
        sup_y.append(float(np.quantile(per_path, 0.99)))
        sup_z.append(estimate_norm("bmo", rep.solution.z, paths).value)
    assert max(sup_y) < 1.5 and max(sup_z) < 2.0
    assert max(sup_y) / min(sup_y) < 1.5


def test_fd_coefficients_approach_derivatives(paths):
    # smooth g: alpha = dg/dY converges to the y-derivative as the two
    # solutions approach each other
    drv = ql_coupled_2d()
    term = quadratic_terminal("ql-coupled-2d")
    base = solve_quadratic(drv, term, paths)
    errs = []
    for eps in (0.2, 0.05):
        other = solve_quadratic(drv, lambda p, e=eps: term(p) + np.array([0.0, e]),
                                paths)
        res = linearized_difference_check(drv, other.solution, base.solution)
        alpha = res["coefficients"]["alpha"][:, 0]       # (M, n, n) at t_0
        y_mid = base.solution.y[:, 0]
        exact = np.zeros_like(alpha)
        exact[:, 0, 1] = 0.3 / np.cosh(y_mid[:, 1]) ** 2
        exact[:, 1, 0] = 0.3 * np.cos(y_mid[:, 0])
        # alpha is a rank-one quotient: compare action on the actual dY
        dy = (other.solution.y - base.solution.y)[:, 0]
        lhs = np.einsum("mij,mj->mi", alpha, dy)
        rhs = np.einsum("mij,mj->mi", exact, dy)
        denom = np.abs(rhs).mean() + 1e-12
        errs.append(np.abs(lhs - rhs).mean() / denom)
    assert errs[1] < max(errs[0], 0.05)


def test_fits_after_a_solve_take_the_degree_of_the_solve():
    from bsde_lab.norms import estimate_norm
    paths = generate_brownian(TimeGrid(1.0, 16), 1, 2000, seed=1111)
    drv, term = ql_coupled_2d(), quadratic_terminal("ql-coupled-2d")
    base = solve_quadratic(drv, term, paths, degree=2).solution
    assert base.degree == 2
    bmo = base.norm_report()["z"]
    ref = estimate_norm("bmo", base.z, paths, degree=2)
    assert (bmo.value, bmo.std_error) == (ref.value, ref.std_error)
    shifted = solve_quadratic(drv, lambda p: term(p) + np.array([0.05, 0.0]), paths,
                              degree=2).solution
    res = linearized_difference_check(drv, shifted, base)
    assert res["residual"]["equation_residual"] < 1e-9
    assert list(paths.conditionals) == [2]
    cubic = solve_quadratic(drv, term, paths, degree=3).solution
    with pytest.raises(ConfigurationError, match="same degree, got 2 and 3"):
        linearized_difference_check(drv, shifted, cubic)


# ------------------------------------------------ frozen reference of the loop
# The backward loop, the truncated driver and the radial clamp as they were
# before the per-step z-part and the row-subset clamp; the solver must keep
# reproducing them bit for bit.

def _ref_clamp_profile(r, k):
    s = np.clip((r - k) / k, 0.0, 1.0)
    mid = k * (1.0 + s - s**3 + 0.5 * s**4)
    return np.where(r <= k, r, np.where(r >= 2 * k, 1.5 * k, mid))


def _ref_apply_radial(v, r, k):
    psi = _ref_clamp_profile(r, k)
    scale = np.where(r > 0, psi / np.where(r > 0, r, 1.0), 1.0)
    return v * scale.reshape(scale.shape + (1,) * (v.ndim - scale.ndim))


def _ref_clamp_vector(v, k):
    return _ref_apply_radial(v, np.sqrt((v * v).sum(axis=-1)), k)


def _ref_clamp_vecd(z, k):
    r = np.sqrt((z * z).reshape(z.shape[:-2] + (-1,)).sum(axis=-1))
    return _ref_apply_radial(z, r, k)


def _ref_truncated_call(base, level, t, x, y, z):
    z = np.asarray(z, dtype=float)
    if base.kind == "ql":
        bz = np.einsum("j,...jd->...d", base.b, z)
        quad = np.einsum("...id,...d->...i", z, _ref_clamp_vector(bz, level))
        if base.g is not None:
            quad = quad + base.g(t, x, y, z)
        return quad
    zc = _ref_clamp_vecd(z, level)
    hv = np.asarray(base.h(zc), dtype=float)
    out = hv[..., None] * base.a
    if base.g is not None:
        out = out + base.g(t, x, y, zc)
    return out


def _ref_backward(base, level, terminal_fn, paths, degree, picard_tol, max_picard, init):
    from bsde_lab.linear import _increment_regression
    from bsde_lab.norms import RegressionConditional

    def driver(t, x, y, z):
        return _ref_truncated_call(base, level, t, x, y, z)

    m, ksteps, n, d = paths.paths, paths.grid.steps, base.n, base.d
    dt = paths.grid.dt
    reg = RegressionConditional.of(paths, degree)
    y = np.empty((m, ksteps + 1, n))
    z = np.empty((m, ksteps, n, d))
    y[:, ksteps] = np.asarray(terminal_fn(paths), dtype=float).reshape(m, n)
    drift = np.empty((m, ksteps, n))
    for k in range(ksteps - 1, -1, -1):
        x_k = paths.state_at(k)
        ey = reg.fit_predict(k, y[:, k + 1])
        z[:, k] = _increment_regression(reg, paths, y[:, k + 1], k, base_values=ey)
        t_k = float(paths.grid.nodes[k])
        cur = np.zeros_like(ey) if init == "zero" else ey.copy()
        damp = 1.0
        prev_delta = np.inf
        for it in range(max_picard):
            f_val = driver(t_k, x_k, cur, z[:, k])
            nxt = ey + f_val * dt[k]
            delta = float(np.abs(nxt - cur).max())
            if delta > prev_delta:
                damp = 0.5
            cur = cur + damp * (nxt - cur)
            if delta < picard_tol:
                break
            prev_delta = delta
        else:
            raise AssertionError("reference inner Picard did not converge")
        y[:, k] = cur
        drift[:, k] = driver(t_k, x_k, cur, z[:, k])
    return y, z, drift


def _ref_solve(base, terminal_fn, paths, init, degree=3, picard_tol=1e-10,
               max_picard=60, levels=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
               margin=0.2):
    log = []
    for level in levels:
        y, z, drift = _ref_backward(base, float(level), terminal_fn, paths, degree,
                                    picard_tol, max_picard, init)
        if base.kind == "ql":
            bz = np.einsum("j,...jd->...d", base.b, z)
            zmag = float(np.sqrt((bz * bz).sum(axis=-1)).max())
        else:
            zmag = float(np.sqrt((z * z).reshape(z.shape[:-2] + (-1,)).sum(axis=-1)).max())
        accepted = zmag < (1.0 - margin) * level
        log.append({"level": float(level), "max_magnitude": zmag, "accepted": accepted})
        if accepted:
            return y, z, drift, log
    raise AssertionError("reference found no level")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_DRIVERS = {"cole-hopf-1d": cole_hopf_1d, "cole-hopf-1d-ud": cole_hopf_1d_ud,
            "ql-coupled-2d": ql_coupled_2d, "unidirectional-2d": unidirectional_2d}


def _moments(paths, y, z, drift):
    """The moment residuals of a solution whose drift is a whole array."""
    from bsde_lab.linear import _MomentSums
    sums = _MomentSums(paths)
    for k in range(z.shape[1]):
        sums.add(k, y, z, drift[:, k])
    return sums.means()


@pytest.mark.parametrize("init", ["mean", "zero"])
@pytest.mark.parametrize("name", sorted(_DRIVERS))
def test_quadratic_solve_matches_frozen_reference(name, init):
    from bsde_lab.quadratic import _backward_quadratic

    paths = generate_brownian(TimeGrid(1.0, 16), 1, 1500, seed=1)
    drv, term = _DRIVERS[name](), quadratic_terminal(name)
    y, z, drift, log = _ref_solve(drv, term, paths, init)
    if name in ("unidirectional-2d", "cole-hopf-1d-ud"):
        assert len(log) >= 2          # the escalating path is exercised
    rep = solve_quadratic(drv, term, paths, init=init)
    assert rep.escalation_log == log
    assert _same_bits(rep.solution.y, y) and _same_bits(rep.solution.z, z)
    assert rep.solution.diagnostics["moment_residual"] == \
        _moments(paths, y, z, drift)["moment_residual"]
    terminal = np.asarray(term(paths), dtype=float).reshape(paths.paths, drv.n)
    for entry in log:                 # every level tried, with its drift's residuals
        got_y, got_z, moments = _backward_quadratic(drv, entry["level"], terminal, paths, 3,
                                                    init)
        want = _ref_backward(drv, entry["level"], term, paths, 3, 1e-10, 60, init)
        assert _same_bits(got_y, want[0]) and _same_bits(got_z, want[1])
        assert moments == _moments(paths, *want)


def test_quadratic_bench_size_escalation_matches_frozen_reference():
    paths = generate_brownian(TimeGrid(1.0, 48), 1, 5000, seed=2)
    drv, term = unidirectional_2d(), quadratic_terminal("unidirectional-2d")
    y, z, drift, log = _ref_solve(drv, term, paths, "mean")
    assert len(log) >= 2
    rep = solve_quadratic(drv, term, paths)
    assert rep.escalation_log == log
    assert _same_bits(rep.solution.y, y) and _same_bits(rep.solution.z, z)


def test_quadratic_solve_forms_terminal_once():
    paths = generate_brownian(TimeGrid(1.0, 16), 1, 1500, seed=1)
    term, calls = quadratic_terminal("unidirectional-2d"), []
    rep = solve_quadratic(unidirectional_2d(), lambda p: calls.append(p) or term(p), paths)
    assert len(rep.escalation_log) == 2 and calls == [paths]


def test_quadratic_solve_builds_no_truncated_driver(monkeypatch):
    from bsde_lab import quadratic

    def refuse(*args, **kwargs):
        raise AssertionError("solve_quadratic built a TruncatedDriver")

    monkeypatch.setattr(quadratic, "TruncatedDriver", refuse)
    paths = generate_brownian(TimeGrid(1.0, 16), 1, 1500, seed=1)
    rep = solve_quadratic(unidirectional_2d(), quadratic_terminal("unidirectional-2d"), paths)
    assert len(rep.escalation_log) == 2


def _z_dependent_g(t, x, y, z):
    return 0.2 * np.tanh(z[:, :, 0]) + 0.1 * y * np.cos(t + x[:, :1])


_PER_Z_DRIVERS = {
    **_DRIVERS,
    # g depends on z, so the clamped z that g sees (unidirectional) matters
    "ql-z-dependent-g": lambda: QuadraticLinearDriver(2, 1, _z_dependent_g, [0.5, 0.25], 1.0),
    "unidirectional-z-dependent-g": lambda: UnidirectionalDriver(
        2, 1, _z_dependent_g, [1.0, 0.0], lambda z: 0.5 * (z[:, 0, :] ** 2).sum(axis=1), 1.0),
}


# The untruncated drivers' __call__ as they were before both classes shared
# one clamp rule evaluated at level infinity, kept verbatim (self: the driver).

def _ref_ql_quadratic_part(self, z):
    bz = np.einsum("j,...jd->...d", self.b, z)
    return np.einsum("...id,...d->...i", z, bz)


def _ref_ql_call(self, t, x, y, z):
    out = _ref_ql_quadratic_part(self, z)
    if self.g is not None:
        out = out + self.g(t, x, y, z)
    return out


def _ref_unidirectional_call(self, t, x, y, z):
    hv = np.asarray(self.h(z), dtype=float)
    out = hv[..., None] * self.a
    if self.g is not None:
        out = out + self.g(t, x, y, z)
    return out


_REF_CALLS = {"ql": _ref_ql_call, "unidirectional": _ref_unidirectional_call}


@pytest.mark.parametrize("name", sorted(_PER_Z_DRIVERS))
def test_per_z_driver_equals_call(name):
    drv = _PER_Z_DRIVERS[name]()
    rng = np.random.default_rng(17)
    for level in (0.5, 2.0, 8.0):
        trunc = truncate_driver(drv, level)
        for scale in (0.1, 1.0, 5.0, 50.0):
            z = rng.normal(scale=scale, size=(64, drv.n, drv.d))
            y = rng.normal(size=(64, drv.n))
            x = rng.normal(size=(64, drv.d))
            want = _ref_truncated_call(drv, level, 0.3, x, y, z)
            f = trunc.at_z(z)
            assert _same_bits(f(0.3, x, y), want)
            assert _same_bits(f(0.3, x, 2.0 * y), _ref_truncated_call(drv, level, 0.3, x,
                                                                      2.0 * y, z))
            assert _same_bits(trunc(0.3, x, y, z), want)
    # the untruncated driver, on rows beyond every truncation level above
    rng = np.random.default_rng(19)
    for scale in (0.1, 1.0, 5.0, 50.0):
        z = rng.normal(scale=scale, size=(64, drv.n, drv.d))
        y = rng.normal(size=(64, drv.n))
        x = rng.normal(size=(64, drv.d))
        if scale == 50.0:
            assert (np.sqrt((z * z).sum(axis=(1, 2))) > 2 * 8.0).any()
        assert _same_bits(drv(0.3, x, y, z), _REF_CALLS[drv.kind](drv, 0.3, x, y, z))


def _rows_at_radii(radii, width, rng):
    """Rows of `width` entries with the given norms: odd rows lie along a
    random signed axis, so their norms are exact; even rows point in a
    random direction; zero rows carry a -0.0."""
    out = np.zeros((2 * len(radii), width))
    for i, radius in enumerate(radii):
        out[2 * i, rng.integers(width)] = rng.choice([-1.0, 1.0]) * radius
        direction = rng.normal(size=width)
        out[2 * i + 1] = direction / np.sqrt(direction @ direction) * radius
    out[(out == 0).all(axis=1), 0] = -0.0
    return out


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_row_subset_clamp_matches_full_formula():
    rng = np.random.default_rng(23)
    k = 1.7
    radii = [0.0, 1e-300, 0.3 * k, k * (1 - 1e-16), k, k * (1 + 1e-16), 1.2 * k, 1.5 * k,
             2 * k * (1 - 1e-16), 2 * k, 2.5 * k, 1e6 * k, np.inf, np.nan]
    for width in (1, 2, 3):
        v = _rows_at_radii(radii, width, rng)
        special = np.full((2, width), 0.5)
        special[:, 0] = [np.inf, np.nan]        # one non-finite entry among finite ones
        v = np.vstack([v, special])
        got, want = clamp_vector(v, k), _ref_clamp_vector(v, k)
        assert got.tobytes() == want.tobytes()
        r = np.sqrt((v * v).sum(axis=-1))
        # the rows exist on both sides of each threshold
        assert (r == 0).any() and (r == k).any() and (r == 2 * k).any()
        assert ((r > k) & (r < 2 * k)).any() and (r > 2 * k).any()
        assert np.isnan(r).any() and np.isinf(r).any()
        # single vectors, one inside and one outside
        for row in v:
            assert clamp_vector(row, k).tobytes() == _ref_clamp_vector(row, k).tobytes()
    # batched VecD arrays, radial in the full norm, with a leading batch axis
    z = _rows_at_radii(radii * 3, 6, rng).reshape(3, 2 * len(radii), 3, 2)
    z[:, 0, 1, 0] = np.nan                      # a NaN in an otherwise zero row
    assert clamp_vecd(z, k).tobytes() == _ref_clamp_vecd(z, k).tobytes()
    # many random sizes: the subset has every length and alignment
    for size in range(1, 40):
        v = rng.normal(scale=2 * k, size=(size, 2))
        assert clamp_vector(v, k).tobytes() == _ref_clamp_vector(v, k).tobytes()
