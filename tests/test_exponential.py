import re

import numpy as np
import pytest

from bsde_lab import (TimeGrid, doob_sup_check, estimate_reverse_holder,
                      generate_brownian, integrate_exponential, integrate_inverse,
                      martingale_defect, scalar_field, simulate_exponential,
                      zero_field)
from bsde_lab.counterexamples import emery_closed_form
from bsde_lab.exponential import terminal_moment_truncation_curve
from bsde_lab.fields import StoppedRotationField, left_outer_field
from bsde_lab.grids import ConfigurationError
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
    expo = simulate_exponential(fld, paths_256, reads=("s", "s_inv", "residual"))
    recip = 1.0 / expo.s[:, -1, 0, 0]
    assert np.sqrt(np.mean((expo.s_inv[:, -1, 0, 0] - recip) ** 2)) < 0.06
    assert expo.inverse_residual_profile().max() < 0.03


def test_inverse_residual_decreases_under_refinement(paths_256):
    fld = scalar_field(0.5)
    resid = []
    for factor in (4, 1):
        p = paths_256.coarsened(factor)
        expo = simulate_exponential(fld, p, reads=("residual",))
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
    expo = simulate_exponential(fld, p, reads=())   # nested reads no outer S
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


def test_reverse_holder_refuses_an_unknown_method_by_name(paths_256):
    expo = simulate_exponential(zero_field(1, 1), paths_256.coarsened(32))
    with pytest.raises(ConfigurationError, match=re.escape(
            "conditional estimator 'Nested' is not one of ['regression', 'nested']")):
        estimate_reverse_holder(expo, 2.0, method="Nested")


def test_nested_estimator_refuses_a_path_dependent_field(paths_256):
    expo = emery_closed_form(paths_256.coarsened(32))
    assert not expo.field.markovian
    with pytest.raises(ValueError, match="Markovian"):
        estimate_reverse_holder(expo, 2.0, method="nested", inner_paths=8)


def test_every_field_but_the_stopped_rotation_is_markovian():
    from bsde_lab.fields import constant_field
    from bsde_lab.instances import FIELDS
    assert {name: build().markovian for name, build in FIELDS.items()} == {
        name: name != "emery" for name in FIELDS}
    assert constant_field(np.zeros((2, 2, 1))).markovian


def test_martingale_defect_zero_field(paths_256):
    expo = simulate_exponential(zero_field(2, 1), paths_256.coarsened(16))
    rep = martingale_defect(expo)
    assert rep.defect.max() == 0.0


def test_martingale_defect_scalar_true_martingale():
    fld = scalar_field(0.5)
    p = generate_brownian(TimeGrid(1.0, 64), 1, 40000, seed=41)
    rep = martingale_defect(simulate_exponential(fld, p, reads=("s",)))
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


def _nested_reference(expo, k, p, inner_paths, salt=7_001):
    """The nested estimator over the whole inner ensemble at once: every
    inner path generated by generate_brownian and integrated along its full
    path by integrate_exponential, of which only S_T is read."""
    from bsde_lab.brownian import substream
    from bsde_lab.fields import CoefficientField
    from bsde_lab.tensors import operator_norm
    paths, fld = expo.paths, expo.field
    nodes = paths.grid.nodes
    sub_grid = TimeGrid(nodes[-1] - nodes[k], paths.grid.steps - k, nodes[k:] - nodes[k])
    x0 = np.repeat(paths.state_at(k), inner_paths, axis=0)
    seed = int(substream(paths.seed, salt, k).integers(0, 2**63 - 1))
    inner = generate_brownian(sub_grid, paths.d, paths.paths * inner_paths, seed,
                              initial_state=x0)
    shifted = CoefficientField(fld.n, fld.d, lambda t, x: fld.eval(nodes[k] + t, x))
    vals = (operator_norm(integrate_exponential(shifted, inner)[:, -1]) ** p)
    vals = vals.reshape(paths.paths, inner_paths)
    return vals.mean(axis=1), vals.std(axis=1, ddof=1) / np.sqrt(inner_paths)


@pytest.mark.parametrize("name", ["scalar-half", "triangular-3d"])
def test_streamed_nested_matches_whole_ensemble_bitwise(name):
    from bsde_lab.brownian import _BLOCK
    from bsde_lab.exponential import _nested_ratio_moment
    from bsde_lab.instances import LINEAR_FIELDS
    fld = LINEAR_FIELDS[name]()
    m, inner = 100, 200                 # 20000 inner paths: two Philox blocks
    assert _BLOCK < m * inner < 2 * _BLOCK
    expo = simulate_exponential(fld, generate_brownian(TimeGrid(1.0, 4), fld.d, m, seed=5),
                                reads=())
    for k in (0, 2, 3):
        for p in (1.0, 2.5):
            got = _nested_ratio_moment(expo, k, p, inner)
            want = _nested_reference(expo, k, p, inner)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def _terminal_by_matmul(field, grid, inc, x0):
    """S_T by a path-major Euler loop with every 1 x 1 product taken by
    matmul, and the number of products that matmul gives as +0.0 where a
    multiply gives -0.0."""
    from bsde_lab.tensors import contract_adb
    s = np.ones((inc.shape[0], 1, 1))
    tmp = np.empty_like(s)
    run = np.full_like(x0, -0.0)
    x = x0.copy()
    flips = 0
    for k in range(grid.steps):
        if k:
            run += inc[:, k - 1]
            np.add(run, x0, out=x)
        a_db = contract_adb(field.at(float(grid.nodes[k]), x), inc[:, k])
        np.matmul(s, a_db, out=tmp)
        flips += int((np.signbit(s * a_db) != np.signbit(tmp)).sum())
        s += tmp
    return s, flips


@pytest.mark.parametrize("name", ["scalar-half", "zero", "sign-switch"])
def test_scalar_terminal_multiply_matches_matmul(name):
    from bsde_lab.exponential import _euler_pass, _restart_values
    from bsde_lab.fields import CoefficientField
    from bsde_lab.instances import scalar_half
    fields = {
        "scalar-half": scalar_half(),
        "zero": scalar_field(0.0),
        # A = 3 drives some S below 0, then A = 0 once B >= 0.2: a zero
        # product S (A dB) that a multiply signs -0.0 and matmul +0.0
        "sign-switch": CoefficientField(1, 1, lambda t, x: np.where(
            x[:, :1, None, None] < 0.2, 3.0, 0.0)),
    }
    grid = TimeGrid(1.0, 16)
    paths = generate_brownian(grid, 1, 2000, seed=8)
    x0 = paths.state_at(0)
    want, flips = _terminal_by_matmul(fields[name], grid, paths.increments, x0)
    # the one Euler loop, fed as the nested R_p feeds it and along the ensemble
    values = _restart_values(fields[name], 0.0, grid, paths.increments, x0)
    for _, _, s, _ in _euler_pass(values, paths.increments, grid.dt, 1, s=True, inverse=False):
        pass
    assert s[-1].tobytes() == want.tobytes()
    expo = simulate_exponential(fields[name], paths, reads=("s_terminal",))
    assert expo.s_terminal.tobytes() == want.tobytes()
    assert (flips > 0) == (name == "sign-switch")


def test_streamed_nested_memory_grows_by_one_float_per_inner_path():
    import tracemalloc
    from bsde_lab.exponential import _nested_ratio_moment
    inner = 256

    def peak(m):
        expo = simulate_exponential(scalar_field(0.5), generate_brownian(
            TimeGrid(1.0, 16), 1, m, seed=3), reads=())
        tracemalloc.start()
        try:
            _nested_ratio_moment(expo, 0, 2.0, inner)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the whole-ensemble estimator adds about 430 bytes per inner path
    added = (peak(1200) - peak(300)) / ((1200 - 300) * inner)
    assert added <= 32
