import json

import numpy as np
import pytest

from bsde_lab.grids import ConfigurationError
from bsde_lab.tensors import contract_az
from bsde_lab.tree import (FiniteFiltration, all_conditional_expectations,
                           conditional_expectation, discrete_exponential,
                           discrete_linear_bsde_solve, discrete_reverse_holder,
                           hbsde_operator_norm, representation_solution,
                           solution_pathwise_norms, tree_bmo,
                           verify_duality_lemma, verify_duality_matrix)


def random_instance(rng, max_k=8, max_n=3):
    d = int(rng.integers(1, 3))
    steps = int(rng.integers(2, (max_k if d == 1 else 4) + 1))
    n = int(rng.integers(1, max_n + 1))
    filt = FiniteFiltration(steps, d, float(rng.uniform(0.05, 0.3)))
    a_nodes = [rng.normal(scale=0.4, size=(filt.nodes_at(k), n, n, d))
               for k in range(steps)]
    beta = [rng.normal(size=(filt.nodes_at(k), n)) for k in range(steps)]
    xi = rng.normal(size=(filt.leaves, n))
    return filt, a_nodes, beta, xi


def test_filtration_shapes_and_probabilities():
    filt = FiniteFiltration(3, 2, 0.1)
    assert filt.branching == 4
    assert filt.leaves == 64
    assert np.allclose(np.abs(filt.child_increments), np.sqrt(0.1))
    # children of each node partition it with equal conditional weight
    states = filt.states()
    assert states[0].shape == (1, 2)
    assert states[3].shape == (64, 2)


def test_conditional_expectation_constant_and_two_leaf():
    filt = FiniteFiltration(1, 1, 0.5)
    assert np.allclose(conditional_expectation(filt, np.array([3.0, 3.0]), 0), 3.0)
    assert np.allclose(conditional_expectation(filt, np.array([1.0, -1.0]), 0), 0.0)


def test_tower_property_exact():
    rng = np.random.default_rng(5)
    filt = FiniteFiltration(4, 1, 0.2)
    x = rng.normal(size=filt.leaves)
    e2 = conditional_expectation(filt, x, 2)
    e1_direct = conditional_expectation(filt, x, 1)
    e1_tower = e2.reshape(filt.nodes_at(1), filt.branching).mean(axis=1)
    assert np.array_equal(e1_direct, e1_tower)


def test_discrete_exponential_zero_and_one_step():
    filt = FiniteFiltration(1, 1, 0.25)
    s0 = discrete_exponential(filt, [np.zeros((1, 1, 1, 1))])
    assert np.allclose(s0[1], 1.0)
    s = discrete_exponential(filt, [np.full((1, 1, 1, 1), 1.0)])
    assert sorted(s[1].ravel()) == [0.5, 1.5]
    # exact one-step martingale: E[S_T] = S_0
    assert np.isclose(s[1].mean(), 1.0)


def test_discrete_exponential_is_exact_martingale():
    rng = np.random.default_rng(7)
    filt, a_nodes, _, _ = random_instance(rng)
    s = discrete_exponential(filt, a_nodes)
    n = a_nodes[0].shape[1]
    means = all_conditional_expectations(filt, s[filt.steps].reshape(filt.leaves, n * n))
    assert np.abs(means[0].reshape(n, n) - np.eye(n)).max() < 1e-12


def test_triangular_closure_under_products():
    rng = np.random.default_rng(9)
    filt = FiniteFiltration(2, 1, 0.1)
    a_nodes = [np.tril(rng.normal(scale=0.5, size=(filt.nodes_at(k), 3, 3)))[..., None]
               for k in range(2)]
    s = discrete_exponential(filt, a_nodes)
    for level in s:
        assert np.abs(np.triu(level, k=1)).max() == 0.0


def test_bsde_solve_trivial_cases():
    filt = FiniteFiltration(3, 1, 0.25)
    rng = np.random.default_rng(11)
    xi = rng.normal(size=(filt.leaves, 2))
    # A = 0, beta = 0: Y = conditional expectation, Z = representation slopes
    y, z = discrete_linear_bsde_solve(filt, xi)
    cond = all_conditional_expectations(filt, xi)
    for k in range(4):
        assert np.allclose(y[k], cond[k])
    # constant terminal: Y = const, Z = 0
    y2, z2 = discrete_linear_bsde_solve(filt, np.ones((filt.leaves, 1)))
    assert np.allclose(y2[0], 1.0)
    assert max(np.abs(zz).max() for zz in z2) < 1e-14


def test_representation_identity_randomized():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(25):
        filt, a_nodes, beta, xi = random_instance(rng)
        y, _ = discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
        y_rep = representation_solution(filt, a_nodes, xi, beta)
        worst = max(worst, max(float(np.abs(y[k] - y_rep[k]).max())
                               for k in range(filt.steps + 1)))
    assert worst < 1e-10


def test_pathwise_residual_binary_tree():
    # d = 1: the conditional-moment solution also satisfies the two-children
    # pathwise system exactly
    rng = np.random.default_rng(17)
    filt = FiniteFiltration(5, 1, 0.15)
    a_nodes = [rng.normal(scale=0.4, size=(filt.nodes_at(k), 2, 2, 1))
               for k in range(5)]
    beta = [rng.normal(size=(filt.nodes_at(k), 2)) for k in range(5)]
    xi = rng.normal(size=(filt.leaves, 2))
    y, z = discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
    inc = filt.child_increments
    worst = 0.0
    for k in range(5):
        drift = contract_az(a_nodes[k], z[k]) + beta[k]
        pred = (y[k][:, None, :] - drift[:, None, :] * filt.dt
                + np.einsum("mje,ce->mcj", z[k], inc))
        worst = max(worst, float(np.abs(pred.reshape(-1, 2) - y[k + 1]).max()))
    assert worst < 1e-12


def test_reverse_holder_hand_example():
    filt = FiniteFiltration(1, 1, 0.25)
    s = discrete_exponential(filt, [np.full((1, 1, 1, 1), 1.0)])
    assert discrete_reverse_holder(filt, s, 2.0)["rp"] == pytest.approx(1.25, abs=1e-15)
    assert discrete_reverse_holder(filt, s, 1.0)["rp"] == pytest.approx(1.0, abs=1e-15)


def test_reverse_holder_monotone_and_identity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        filt, a_nodes, _, _ = random_instance(rng)
        s = discrete_exponential(filt, a_nodes)
        if s.singular:
            continue
        rps = [discrete_reverse_holder(filt, s, p)["rp"] for p in (1.0, 1.5, 2.0, 3.0)]
        assert all(r >= 1.0 for r in rps)
        assert all(rps[i] <= rps[i + 1] + 1e-12 for i in range(3))
    # zero field: R_p = 1 for all p
    filt = FiniteFiltration(3, 1, 0.2)
    s = discrete_exponential(filt, [np.zeros((filt.nodes_at(k), 2, 2, 1))
                                    for k in range(3)])
    assert discrete_reverse_holder(filt, s, 3.0)["rp"] == 1.0


def test_tree_bmo_constant():
    filt = FiniteFiltration(4, 1, 0.25)
    ones = [np.ones((filt.nodes_at(k), 1, 1)) for k in range(4)]
    assert tree_bmo(filt, ones) == pytest.approx(1.0)


def test_duality_lemma_equality():
    rng = np.random.default_rng(23)
    for _ in range(25):
        filt, _, _, xi = random_instance(rng)
        level = int(rng.integers(0, filt.steps))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        res = verify_duality_lemma(filt, xi, level, p, rng=rng, random_draws=16)
        assert res["gap"] >= -1e-9          # lhs dominates every test ratio
        assert abs(res["gap"]) < 1e-9       # witnesses attain it


def test_duality_constant_vector():
    filt = FiniteFiltration(2, 1, 0.3)
    x = np.tile(np.array([[3.0, 4.0]]), (filt.leaves, 1))
    res = verify_duality_lemma(filt, x, 1, 2.0)
    assert res["lhs"] == pytest.approx(5.0)
    assert res["rhs"] == pytest.approx(5.0)


def test_duality_two_leaf_indicator():
    # X = (1,0) / (0,1) on the two leaves, trivial sigma-algebra, p = 1
    filt = FiniteFiltration(1, 1, 0.5)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = verify_duality_lemma(filt, x, 0, 1.0)
    assert res["lhs"] == pytest.approx(1.0)
    assert res["rhs"] == pytest.approx(1.0)


def test_duality_matrix_row_reduction():
    rng = np.random.default_rng(29)
    filt = FiniteFiltration(3, 1, 0.2)
    a = rng.normal(size=(filt.leaves, 2, 2))
    res = verify_duality_matrix(filt, a, 1, 2.0)
    assert res["satisfied"]


def test_operator_norm_growth_rotation_vs_triangular():
    # rotation field: R_p and the solution-operator bound grow with depth;
    # bounded triangular field: both stay put (desk-scale equivalence)
    rng = np.random.default_rng(31)
    rot = np.zeros((2, 2, 1))
    rot[0, 1, 0], rot[1, 0, 0] = 1.0, -1.0
    rp_rot, op_rot, rp_tri, op_tri = [], [], [], []
    for depth in (2, 4, 6):
        filt = FiniteFiltration(depth, 1, 0.25)
        a_rot = [np.broadcast_to(rot, (filt.nodes_at(k), 2, 2, 1)).copy()
                 for k in range(depth)]
        s = discrete_exponential(filt, a_rot)
        rp_rot.append(discrete_reverse_holder(filt, s, 2.0)["rp"])
        op_rot.append(hbsde_operator_norm(filt, a_rot, 2.0)["operator_norm"])
        a_tri = [np.tril(rng.normal(scale=0.2, size=(filt.nodes_at(k), 2, 2)))[..., None]
                 for k in range(depth)]
        s2 = discrete_exponential(filt, a_tri)
        rp_tri.append(discrete_reverse_holder(filt, s2, 2.0)["rp"])
        op_tri.append(hbsde_operator_norm(filt, a_tri, 2.0)["operator_norm"])
    assert rp_rot[0] < rp_rot[1] < rp_rot[2]
    assert op_rot[0] < op_rot[1] < op_rot[2]
    assert rp_rot[2] / rp_rot[0] > 2.0
    assert rp_tri[2] / rp_tri[0] < 2.0


def test_structural_tree_solves_match_exact():
    # triangular A on the tree: the generic tree solve is already exact, and
    # S stays triangular, so the representation agrees too
    rng = np.random.default_rng(37)
    filt = FiniteFiltration(4, 1, 0.2)
    a_nodes = [np.tril(rng.normal(scale=0.4, size=(filt.nodes_at(k), 3, 3)))[..., None]
               for k in range(4)]
    xi = rng.normal(size=(filt.leaves, 3))
    y, _ = discrete_linear_bsde_solve(filt, xi, None, a_nodes)
    y_rep = representation_solution(filt, a_nodes, xi, None)
    assert max(np.abs(y[k] - y_rep[k]).max() for k in range(5)) < 1e-11


def test_singular_node_flagged():
    filt = FiniteFiltration(1, 1, 1.0)
    a = [np.full((1, 1, 1, 1), 1.0)]     # 1 + a dB = 0 on the down branch
    s = discrete_exponential(filt, a)
    assert s.singular == [0]
    with pytest.raises(ConfigurationError):
        representation_solution(filt, a, np.ones((2, 1)))


def test_pathwise_norms():
    rng = np.random.default_rng(41)
    filt, a_nodes, beta, xi = random_instance(rng)
    y, z = discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
    y_inf, z_inf = solution_pathwise_norms(filt, y, z, np.inf)
    y_2, z_2 = solution_pathwise_norms(filt, y, z, 2.0)
    assert y_inf >= y_2 and z_inf >= z_2 > 0


def test_size_guard():
    with pytest.raises(ConfigurationError):
        FiniteFiltration(13, 2, 0.1)


def test_golden_tree_dump():
    from pathlib import Path
    filt = FiniteFiltration(3, 1, 0.25)
    a0 = np.array([[[0.5]]])
    a_nodes = [np.broadcast_to(a0, (filt.nodes_at(k), 1, 1, 1)).copy()
               for k in range(3)]
    s = discrete_exponential(filt, a_nodes)
    # the file pins the tree and its exponential level by level; JSON keeps
    # every float's bits, so the lists compare with ==
    golden = json.loads((Path(__file__).parent / "data" / "tree_golden.json").read_text())
    assert (golden["steps"], golden["d"], golden["dt"]) == (filt.steps, filt.d, filt.dt)
    assert golden["states"] == [level.tolist() for level in filt.states()]
    assert golden["processes"] == {"S": [np.asarray(level).tolist() for level in s]}


def _operator_norm_by_loop(filt, a_nodes, q, rng, random_terminals):
    """hbsde_operator_norm as one backward solve and one pathwise-norm pass
    per terminal, keeping the first maximum."""
    n = a_nodes[0].shape[1]
    terminals = []
    for leaf in range(filt.leaves):
        for i in range(n):
            xi = np.zeros((filt.leaves, n))
            xi[leaf, i] = 1.0
            terminals.append((f"e{i}@leaf{leaf}", xi))
    if rng is not None:
        for r in range(random_terminals):
            terminals.append((f"random{r}", rng.standard_normal((filt.leaves, n))))
    best, best_tag = 0.0, None
    for tag, xi in terminals:
        y, z = discrete_linear_bsde_solve(filt, xi, None, a_nodes)
        ynorm, znorm = solution_pathwise_norms(filt, y, z, q)
        size = np.sqrt((xi * xi).sum(axis=1))
        xinorm = float(size.max() if np.isinf(q) else (size**q).mean() ** (1.0 / q))
        ratio = (ynorm + znorm) / xinorm
        if ratio > best:
            best, best_tag = ratio, tag
    return {"operator_norm": best, "attained_by": best_tag, "q": q,
            "family_size": len(terminals)}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_operator_norm_matches_per_terminal_loop(d, n, monkeypatch):
    import bsde_lab.tree as tree
    rng = np.random.default_rng(10 * d + n)
    filt = FiniteFiltration(4 if d == 1 else 2, d, 0.2)
    rotation = np.zeros((n, n, d))
    if n > 1:
        rotation[0, 1], rotation[1, 0] = 1.0, -1.0
    fields = {   # the rotation field makes many terminals tie for the maximum
        "random": [rng.normal(scale=0.5, size=(filt.nodes_at(k), n, n, d))
                   for k in range(filt.steps)],
        "rotation": [np.broadcast_to(rotation, (filt.nodes_at(k), n, n, d)).copy()
                     for k in range(filt.steps)],
    }
    for a_nodes in fields.values():
        for q in (2.0, np.inf):
            for seed, randoms in ((None, 0), (None, 8), (7, 0), (7, 8)):
                make = lambda: None if seed is None else np.random.default_rng(seed)
                want = _operator_norm_by_loop(filt, a_nodes, q, make(), randoms)
                # one block; blocks of a few terminals; one terminal per block
                for budget in (tree._TERMINAL_BLOCK_BYTES, 20_000, 3000):
                    monkeypatch.setattr(tree, "_TERMINAL_BLOCK_BYTES", budget)
                    got = hbsde_operator_norm(filt, a_nodes, q, rng=make(),
                                              random_terminals=randoms)
                    assert got == want


def test_pathwise_norms_match_leaf_by_leaf():
    rng = np.random.default_rng(43)
    for _ in range(10):
        filt, a_nodes, beta, xi = random_instance(rng)
        y, z = discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
        paths = filt.leaf_paths()
        ymax = np.zeros(filt.leaves)
        zsum = np.zeros(filt.leaves)
        for k in range(filt.steps + 1):
            yk = y[k][paths[:, k]]
            ymax = np.maximum(ymax, np.sqrt((yk * yk).sum(axis=1)))
            if k < filt.steps:
                zk = z[k][paths[:, k]]
                zsum += (zk * zk).reshape(filt.leaves, -1).sum(axis=1) * filt.dt
        assert solution_pathwise_norms(filt, y, z, np.inf) == (
            float(ymax.max()), float(np.sqrt(zsum).max()))
        for q in (1.5, 2.0, 3.0):
            assert solution_pathwise_norms(filt, y, z, q) == (
                float((ymax**q).mean() ** (1.0 / q)),
                float((zsum ** (q / 2.0)).mean() ** (1.0 / q)))
