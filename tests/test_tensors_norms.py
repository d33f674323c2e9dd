import itertools
import re

import numpy as np
import pytest

from bsde_lab import TimeGrid, contract_az, contract_adb, estimate_norm, \
    generate_brownian, mat_square, operator_norm
from bsde_lab.norms import RegressionConditional, poly_features


def test_contract_az_plain_arithmetic():
    # n=2, d=1
    a = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    z = np.array([[5.0], [6.0]])
    assert np.allclose(contract_az(a, z), [17.0, 39.0])


def test_contract_az_zero_matrix():
    a = np.zeros((3, 3, 2))
    z = np.ones((3, 2))
    assert np.allclose(contract_az(a, z), 0.0)


def test_contract_az_orthogonal_entries():
    # n=1, d=2: entries orthogonal in R^d
    a = np.array([[[1.0, 0.0]]])
    z = np.array([[0.0, 1.0]])
    assert np.allclose(contract_az(a, z), [0.0])


def test_contract_az_shape_mismatch():
    with pytest.raises(ValueError):
        contract_az(np.zeros((2, 2, 1)), np.zeros((3, 1)))


def test_contract_az_batched():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 2, 2, 3))
    z = rng.normal(size=(5, 2, 3))
    out = contract_az(a, z)
    manual = np.array([[sum(a[m, i, j] @ z[m, j] for j in range(2))
                        for i in range(2)] for m in range(5)])
    assert np.allclose(out, manual)


def test_mat_square_matches_manual():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2, 3))
    manual = np.array([[sum(a[i, k] @ a[k, j] for k in range(2))
                        for j in range(2)] for i in range(2)])
    assert np.allclose(mat_square(a), manual)


def test_contract_adb_scalar_case():
    a = np.array([[[0.5]]])
    db = np.array([2.0])
    assert np.allclose(contract_adb(a, db), [[1.0]])


def test_operator_norm_known_values():
    m = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert np.isclose(operator_norm(m), 4.0)
    batch = np.stack([np.eye(2), 2 * np.eye(2)])
    assert np.allclose(operator_norm(batch), [1.0, 2.0])


def _operator_norm_inputs(n, rng):
    """Matrices on which a closed-form norm is most likely to lose accuracy."""
    q = np.linalg.qr(rng.normal(size=(50, n, n)))[0]
    scales = np.exp(np.linspace(-5.0, 5.0, 50))[:, None, None]
    cases = {
        "gaussian": rng.normal(size=(200, n, n)),
        "near_identity": np.eye(n) + 1e-9 * rng.normal(size=(200, n, n)),
        "scaled_orthogonal": scales * q,
        "rank_one": rng.normal(size=(50, n, 1)) * rng.normal(size=(50, 1, n)),
        "zero": np.zeros((3, n, n)),
        "tiny_and_huge": np.array([1e-150, 1e150])[:, None, None, None]
        * rng.normal(size=(2, 20, n, n)),
    }
    if n == 2:
        th = rng.uniform(0.0, 2.0 * np.pi, 50)
        rot = np.stack([np.stack([np.cos(th), np.sin(th)], -1),
                        np.stack([-np.sin(th), np.cos(th)], -1)], -2)
        cases["scaled_rotation"] = scales * rot
    if n == 3:
        # Two equal (or nearly equal) largest singular values, where the
        # trigonometric closed form loses accuracy.
        gap = np.concatenate([[0.0], np.logspace(-16, -1, 49)])
        sv = np.stack([np.ones(50), 1.0 - gap, rng.uniform(0.0, 0.9, 50)], -1)
        q2 = np.linalg.qr(rng.normal(size=(50, n, n)))[0]
        cases["double_top"] = (q * sv[:, None, :]) @ q2
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_norm_matches_svd(n):
    rng = np.random.default_rng(10 + n)
    for name, m in _operator_norm_inputs(n, rng).items():
        ref = np.linalg.svd(m, compute_uv=False)[..., 0]
        got = operator_norm(m)
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0), name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_norm_batch_shapes(n):
    from bsde_lab.tensors import _NORM3_BLOCK
    rng = np.random.default_rng(20 + n)
    for shape in [(), (7,), (5, 9), (2 * _NORM3_BLOCK + 3,)]:
        m = rng.normal(size=shape + (n, n))
        before = m.copy()
        ref = np.linalg.svd(m, compute_uv=False)[..., 0]
        got = operator_norm(m)
        assert np.array_equal(m, before)
        assert got.shape == shape
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0), shape


def test_poly_features_counts():
    x = np.random.default_rng(2).normal(size=(10, 2))
    f = poly_features(x, 3)
    assert f.shape == (10, 10)  # 1 + 2 + 3 + 4 monomials
    assert np.allclose(f[:, 0], 1.0)


def _column_products(x, degree):
    """The monomials as a loop of column products, left to right: the
    reference that poly_features must equal bit for bit."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, d = x.shape
    cols = [np.ones(m)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            col = np.ones(m)
            for j in combo:
                col = col * x[:, j]
            cols.append(col)
    return np.column_stack(cols)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_poly_features_equals_the_column_product_loop(d):
    states = np.random.default_rng(d).normal(scale=3.0, size=(257, 4, d))
    states[:3, 2, 0] = [-0.0, np.inf, 1e-200]       # signed zero, overflow, underflow
    for degree in range(1, 9):
        for x in (states[:, 2], np.ascontiguousarray(states[:, 2])):   # strided, contiguous
            with np.errstate(all="ignore"):
                got, ref = poly_features(x, degree), _column_products(x, degree)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (d, degree)


def _lstsq_fit(x, y, degree):
    feats = poly_features(x, degree)
    return feats @ np.linalg.lstsq(feats, y, rcond=None)[0]


@pytest.mark.parametrize("d", [1, 3])
def test_regression_basis_is_orthonormal_and_fits_as_lstsq(d):
    # states at t = 1/800, 1 and 3 (nodes 1-3; node 0 fits the mean)
    times = np.array([1.0 / 800, 1.0, 3.0])
    rng = np.random.default_rng(11 + d)
    states = np.zeros((4000, 4, d))
    states[:, 1:] = rng.standard_normal((4000, 3, d)) * np.sqrt(times)[None, :, None]
    op = RegressionConditional(states, 3)
    conds = []
    for k in range(1, 4):
        x = states[:, k]
        y = np.stack([np.sin(x.sum(axis=1)), np.exp(x[:, 0]) + x[:, -1] ** 4], axis=1)
        fitted = op.fit_predict(k, y)
        q = op._basis(k)[0]
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12, (d, k)
        ref = _lstsq_fit(x, y, 3)
        assert np.abs(fitted - ref).max() <= 1e-12 * np.abs(ref).max(), (d, k)
        conds.append(np.linalg.cond(poly_features(x, 3)))
    assert conds[0] > 5e3      # t = 1/800: about 1e4 at d = 1, 2.4e4 at d = 3


@pytest.fixture(scope="module")
def unit_paths():
    return generate_brownian(TimeGrid(1.0, 8), 1, 4000, seed=5)


def test_bmo_of_constant_process(unit_paths):
    # Z = 1: sup_tau E[int_tau^T 1 dt] = T = 1, bmo norm sqrt(1) = 1
    z = np.ones((unit_paths.paths, 8, 1, 1))
    est = estimate_norm("bmo", z, unit_paths)
    assert abs(est.value - 1.0) < 1e-8


def test_l22_of_constant(unit_paths):
    z = np.ones((unit_paths.paths, 8, 1, 1))
    est = estimate_norm("l2q", z, unit_paths, q=2)
    assert abs(est.value - 1.0) < 1e-12


def test_positive_homogeneity(unit_paths):
    rng = np.random.default_rng(3)
    z = rng.normal(size=(unit_paths.paths, 8, 1, 1)) ** 2 + 0.1
    for kind, q in (("bmo", None), ("l2q", 2.0)):
        base = estimate_norm(kind, z, unit_paths, q=q).value
        scaled = estimate_norm(kind, 2.5 * z, unit_paths, q=q).value
        assert np.isclose(scaled, 2.5 * base, rtol=1e-10)


def test_sup_norm_kinds(unit_paths):
    y = np.abs(unit_paths.states)  # (M, 9, 1)
    inf_est = estimate_norm("sup_p", y, unit_paths, q=np.inf)
    p2_est = estimate_norm("sup_p", y, unit_paths, q=2.0)
    assert inf_est.value >= p2_est.value > 0
    assert np.isclose(inf_est.value, np.abs(unit_paths.states).max())


def test_norm_rejects_bad_inputs(unit_paths):
    with pytest.raises(ValueError, match=re.escape(
            "norm kind 'nope' is not one of ['bmo', 'sup_p', 'l2q']")):
        estimate_norm("nope", np.ones((10, 8, 1)), unit_paths)
    with pytest.raises(ValueError):
        estimate_norm("l2q", np.ones((unit_paths.paths, 8, 1)), unit_paths, q=0.5)
    with pytest.raises(ValueError):
        estimate_norm("bmo", np.ones((unit_paths.paths, 3, 1)), unit_paths)


@pytest.mark.parametrize("kind,nodes,q", [("sup_p", 9, np.inf), ("l2q", 8, 2.0),
                                          ("bmo", 8, None)])
def test_norm_rejects_wrong_path_count(unit_paths, kind, nodes, q):
    with pytest.raises(ValueError, match="expected values"):
        estimate_norm(kind, np.ones((unit_paths.paths - 1, nodes, 1)), unit_paths, q=q)


def test_bmo_markovian_nonconstant(unit_paths):
    # Z_t = B_t: E_t[int_t^T B_s^2 ds] = B_t^2 (T-t) + (T-t)^2/2; the sup over
    # grid nodes of the fitted values tracks the largest sampled |B_t|
    z = unit_paths.states[:, :-1, :, None]
    est = estimate_norm("bmo", z, unit_paths, degree=3)
    nodes = unit_paths.grid.nodes[:-1]
    b = unit_paths.states[:, :-1, 0]
    exact = (b**2 * (1 - nodes) + 0.5 * (1 - nodes) ** 2).max()
    assert abs(est.value - np.sqrt(exact)) / np.sqrt(exact) < 0.25
