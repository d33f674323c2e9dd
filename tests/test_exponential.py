import numpy as np
import pytest

from bsde_lab import (TimeGrid, doob_sup_check, estimate_reverse_holder,
                      generate_brownian, integrate_exponential, integrate_inverse,
                      martingale_defect, scalar_field, simulate_exponential,
                      zero_field)
from bsde_lab.counterexamples import emery_closed_form
from bsde_lab.exponential import terminal_moment_truncation_curve
from bsde_lab.fields import StoppedRotationField, left_outer_field
from bsde_lab.instances import left_outer_3d


@pytest.fixture(scope="module")
def paths_256():
    return generate_brownian(TimeGrid(1.0, 256), 1, 2000, seed=17)


def test_zero_field_gives_identity(paths_256):
    s = integrate_exponential(zero_field(2, 1), paths_256)
    assert np.array_equal(s, np.broadcast_to(np.eye(2), s.shape))
    x = integrate_inverse(zero_field(2, 1), paths_256)
    assert np.array_equal(x, np.broadcast_to(np.eye(2), x.shape))


def test_integrators_match_einsum_reference():
    # Reference Euler steps with every contraction written out as einsum,
    # independent of the matmul kernels the integrators use.
    from bsde_lab.instances import triangular_3d
    from bsde_lab.tensors import contract_adb
    fld = triangular_3d()
    paths = generate_brownian(TimeGrid(1.0, 64), 1, 500, seed=21)
    s_ref = np.empty((500, 65, 3, 3))
    x_ref = np.empty_like(s_ref)
    s_ref[:, 0] = x_ref[:, 0] = np.eye(3)
    for k in range(64):
        a = fld.values(paths, k)
        a_db = contract_adb(a, paths.increments[:, k])
        s_ref[:, k + 1] = s_ref[:, k] + np.einsum("mij,mjl->mil", s_ref[:, k], a_db)
        a_sq = np.einsum("mikd,mkjd->mij", a, a)
        drift = np.einsum("mij,mjl->mil", a_sq, x_ref[:, k]) * paths.grid.dt[k]
        noise = np.einsum("mij,mjl->mil", a_db, x_ref[:, k])
        x_ref[:, k + 1] = x_ref[:, k] + drift - noise
    assert np.allclose(integrate_exponential(fld, paths), s_ref, rtol=0.0, atol=1e-13)
    assert np.allclose(integrate_inverse(fld, paths), x_ref, rtol=0.0, atol=1e-13)


def test_scalar_strong_error_halves(paths_256):
    # Euler vs the exact scalar exponential exp(aB_T - a^2 T/2): strong error
    # decreases by ~sqrt(2) per halving of dt
    a = 0.7
    fld = scalar_field(a)
    errs = []
    for factor in (4, 2, 1):
        p = paths_256.coarsened(factor)
        s = integrate_exponential(fld, p)
        exact = np.exp(a * p.states[:, -1, 0] - 0.5 * a * a)
        errs.append(np.sqrt(np.mean((s[:, -1, 0, 0] - exact) ** 2)))
    assert errs[0] > errs[1] > errs[2]
    rate = np.log2(errs[0] / errs[2]) / 2.0
    assert rate > 0.4


def test_scalar_inverse_matches_reciprocal(paths_256):
    a = 0.5
    fld = scalar_field(a)
    expo = simulate_exponential(fld, paths_256)
    recip = 1.0 / expo.s[:, -1, 0, 0]
    assert np.sqrt(np.mean((expo.s_inv[:, -1, 0, 0] - recip) ** 2)) < 0.06
    assert expo.inverse_residual_profile().max() < 0.03


def test_inverse_residual_decreases_under_refinement(paths_256):
    fld = scalar_field(0.5)
    resid = []
    for factor in (4, 1):
        p = paths_256.coarsened(factor)
        expo = simulate_exponential(fld, p)
        resid.append(expo.inverse_residual_profile().max())
    assert resid[1] < resid[0]


def test_emery_euler_matches_closed_form():
    grid = TimeGrid(2.0, 400)
    p = generate_brownian(grid, 1, 400, seed=23)
    fld = StoppedRotationField()
    s_euler = integrate_exponential(fld, p)
    s_exact = emery_closed_form(p).s
    rmse = np.sqrt(np.mean((s_euler[:, -1] - s_exact[:, -1]) ** 2))
    assert rmse < 0.15


def test_reverse_holder_identity_field(paths_256):
    expo = simulate_exponential(zero_field(1, 1), paths_256.coarsened(16))
    for p_exp in (1.0, 2.0, 4.0):
        rep = estimate_reverse_holder(expo, p_exp)
        assert abs(rep.rp_estimate - 1.0) < 1e-9
    assert rep.profile[-1] == 1.0  # tau = T contributes exactly 1


def test_reverse_holder_scalar_lognormal():
    # E_t[(S_t^{-1} S_T)^p] = exp((p^2 - p) a^2 (T - t)/2), maximal at t = 0
    fld = scalar_field(0.5)
    p = generate_brownian(TimeGrid(1.0, 16), 1, 40000, seed=29)
    expo = simulate_exponential(fld, p)
    rep = estimate_reverse_holder(expo, 2.0, method="regression")
    exact = np.exp(0.25)
    assert abs(rep.rp_estimate - exact) < 3 * max(rep.std_error, 0.01)


def test_reverse_holder_nested_estimator():
    fld = scalar_field(0.5)
    p = generate_brownian(TimeGrid(1.0, 8), 1, 64, seed=31)
    expo = simulate_exponential(fld, p)
    rep = estimate_reverse_holder(expo, 2.0, method="nested", inner_paths=4000)
    # max over outer paths of inner means biases upward by ~2.4 inner se
    assert abs(rep.rp_estimate - np.exp(0.25)) < 6 * max(rep.std_error, 1e-3)


def test_reverse_holder_monotone_in_p():
    fld = scalar_field(0.4)
    p = generate_brownian(TimeGrid(1.0, 8), 1, 30000, seed=37)
    expo = simulate_exponential(fld, p)
    vals = [estimate_reverse_holder(expo, q).rp_estimate for q in (1.0, 1.5, 2.0, 3.0)]
    # conditional Holder: R_p(p) <= R_p(p')^{p/p'} for p < p'
    for lo, hi, plo, phi in ((0, 1, 1.0, 1.5), (1, 2, 1.5, 2.0), (2, 3, 2.0, 3.0)):
        assert vals[lo] <= vals[hi] ** (plo / phi) + 0.02


def test_reverse_holder_rejects_p_below_one(paths_256):
    expo = simulate_exponential(zero_field(1, 1), paths_256.coarsened(32))
    with pytest.raises(ValueError):
        estimate_reverse_holder(expo, 0.5)


def test_martingale_defect_zero_field(paths_256):
    expo = simulate_exponential(zero_field(2, 1), paths_256.coarsened(16))
    rep = martingale_defect(expo)
    assert rep.defect.max() == 0.0


def test_martingale_defect_scalar_true_martingale():
    fld = scalar_field(0.5)
    p = generate_brownian(TimeGrid(1.0, 64), 1, 40000, seed=41)
    rep = martingale_defect(simulate_exponential(fld, p, inverse=False))
    assert np.all(rep.defect <= 4 * rep.std_error + 1e-3)


def test_doob_factor_and_ratio():
    fld = scalar_field(0.5)
    p = generate_brownian(TimeGrid(1.0, 16), 1, 20000, seed=43)
    expo = simulate_exponential(fld, p)
    res = doob_sup_check(expo, 2.0)
    assert res["doob_factor"] == 4.0
    assert res["ratio"] <= 1.0 + 0.05
    with pytest.raises(ValueError):
        doob_sup_check(expo, 1.0)


def test_doob_trivial_field(paths_256):
    expo = simulate_exponential(zero_field(1, 1), paths_256.coarsened(32))
    res = doob_sup_check(expo, 2.0)
    assert np.isclose(res["ratio"], 0.25, atol=1e-6)


def test_left_outer_sa_is_scalar_exponential():
    # S a = a * scalar exponential of int (b^T a) dB, pathwise
    fld = left_outer_3d()
    p = generate_brownian(TimeGrid(1.0, 512), 1, 300, seed=47)
    s = integrate_exponential(fld, p)
    a = fld.a
    sa = np.einsum("mkij,j->mki", s, a)
    coeff = np.einsum("i,mkid->mkd",
                      a, np.stack([fld.b_values(p, k) for k in range(512)], axis=1))
    log_e = np.cumsum(np.einsum("mkd,mkd->mk", coeff, p.increments)
                      - 0.5 * (coeff**2).sum(axis=2) * p.grid.dt[None, :], axis=1)
    exact = a[None, None, :] * np.exp(np.concatenate(
        [np.zeros((300, 1)), log_e], axis=1))[:, :, None]
    assert np.abs(sa - exact).max() < 0.05


def test_truncation_curve_flags_divergence():
    grid = TimeGrid(40.0, 4000)
    p = generate_brownian(grid, 1, 3000, seed=53)
    expo = emery_closed_form(p)
    curve = terminal_moment_truncation_curve(expo, p=1.0)
    assert curve["diverging"]
    bounded = simulate_exponential(scalar_field(0.3), generate_brownian(
        TimeGrid(1.0, 16), 1, 3000, seed=54))
    assert not terminal_moment_truncation_curve(bounded, p=1.0)["diverging"]
