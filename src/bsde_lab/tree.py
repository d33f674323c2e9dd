"""Exact verification environment on finite binary-product filtrations.

Each of the d coordinates moves by +-sqrt(dt) per step, so level k has 2^{dk}
nodes and every conditional expectation is a finite average: no Monte Carlo
error anywhere in this module.  Trees are oracles for the desk-scale
identities (representation formula, duality, reverse Holder monotonicity),
not approximations with rates.

Node layout: values at level k are arrays of shape (2^{dk}, ...); the parent
of node i sits at index i >> d, child c of node i at index (i << d) | c.
Coordinate e of child c moves up when bit e of c is 0, down when it is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ConfigurationError
from .tensors import contract_adb, contract_az, operator_norm


@dataclass(frozen=True)
class FiniteFiltration:
    """Binary product tree with K steps, branching 2^d per step."""

    steps: int
    d: int
    dt: float

    def __post_init__(self):
        if self.steps < 1 or self.d < 1 or self.dt <= 0:
            raise ConfigurationError("steps, d >= 1 and dt > 0 required")
        if self.d * self.steps > 24:
            raise ConfigurationError("tree too large (d * steps > 24)")

    @property
    def branching(self) -> int:
        return 1 << self.d

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def nodes_at(self, k: int) -> int:
        return 1 << (self.d * k)

    @property
    def leaves(self) -> int:
        return self.nodes_at(self.steps)

    @property
    def child_increments(self) -> np.ndarray:
        """(2^d, d) array of per-child Brownian increments."""
        c = np.arange(self.branching)
        signs = 1.0 - 2.0 * ((c[:, None] >> np.arange(self.d)[None, :]) & 1)
        return signs * np.sqrt(self.dt)

    def states(self) -> list[np.ndarray]:
        """Brownian states at every node, per level: (2^{dk}, d)."""
        inc = self.child_increments
        out = [np.zeros((1, self.d))]
        for _ in range(self.steps):
            prev = out[-1]
            nxt = (prev[:, None, :] + inc[None, :, :]).reshape(-1, self.d)
            out.append(nxt)
        return out

    def leaf_paths(self) -> np.ndarray:
        """Ancestor index of each leaf at every level, shape (leaves, K+1)."""
        leaves = np.arange(self.leaves)
        return np.stack([leaves >> (self.d * (self.steps - k))
                         for k in range(self.steps + 1)], axis=1)


def conditional_expectation(filt: FiniteFiltration, leaf_values: np.ndarray,
                            level: int) -> np.ndarray:
    """Exact E[X | F_level] as node values, X given on the leaves."""
    vals = np.asarray(leaf_values, dtype=float)
    if vals.shape[0] != filt.leaves:
        raise ConfigurationError(f"expected {filt.leaves} leaf values, got {vals.shape[0]}")
    return all_conditional_expectations(filt, vals)[level]


def all_conditional_expectations(filt: FiniteFiltration, leaf_values: np.ndarray) -> list:
    """Conditional expectations at every level, leaf level included."""
    out = [np.asarray(leaf_values, dtype=float)]
    for k in range(filt.steps, 0, -1):
        v = out[-1]
        out.append(v.reshape((filt.nodes_at(k - 1), filt.branching) + v.shape[1:]).mean(axis=1))
    return out[::-1]


def discrete_exponential(filt: FiniteFiltration, a_nodes: list) -> list:
    """Exact stochastic exponential: S at a node is the ordered product of
    (I + A_j dB_j) along its history; S_0 = I.

    a_nodes[k]: (2^{dk}, n, n, d) for k < steps.  Returns S per level,
    (2^{dk}, n, n).  Nodes where a one-step factor is singular are recorded
    in the `.singular` attribute of the returned list.
    """
    n = a_nodes[0].shape[1]
    inc = filt.child_increments
    s_levels = [np.broadcast_to(np.eye(n), (1, n, n)).copy()]
    singular = []
    for k in range(filt.steps):
        a = np.asarray(a_nodes[k], dtype=float)
        # factor[i, c] = I + A_k(i) . dB_c
        factor = np.eye(n)[None, None] + contract_adb(a[:, None], inc[None, :])
        det = np.linalg.det(factor)
        if np.any(np.abs(det) < 1e-12):
            singular.append(k)
        s_next = np.einsum("mij,mcjl->mcil", s_levels[-1], factor)
        s_levels.append(s_next.reshape(-1, n, n))
    s_levels = list(s_levels)
    out = _LevelsWithFlags(s_levels)
    out.singular = singular
    return out


class _LevelsWithFlags(list):
    singular: list = []


def discrete_linear_bsde_solve(filt: FiniteFiltration, xi_leaf: np.ndarray,
                               beta_nodes=None, a_nodes=None) -> tuple[list, list]:
    """Exact backward solve of the linear equation on the tree.

    One step: Z_k = E_k[Y_{k+1} dB_k] / dt,
              Y_k = E_k[Y_{k+1}] + (A_k Z_k + beta_k) dt.
    These are the conditional-moment equations of the continuous dynamics;
    for d = 1 they are equivalent to the pathwise two-children system, and
    for every d they reproduce the representation formula exactly.

    Returns (Y levels 0..K, Z levels 0..K-1) with Y[k]: (2^{dk}, n) and
    Z[k]: (2^{dk}, n, d).  A terminal of shape (..., leaves, n) solves a
    batch of terminals at once, each as it would be solved alone.
    """
    xi = np.asarray(xi_leaf, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    lead, n = xi.shape[:-2], xi.shape[-1]
    inc = filt.child_increments
    y_levels = [None] * (filt.steps + 1)
    z_levels = [None] * filt.steps
    y_levels[filt.steps] = xi
    for k in range(filt.steps - 1, -1, -1):
        nodes = lead + (filt.nodes_at(k),)
        y_next = y_levels[k + 1].reshape(nodes + (filt.branching, n))
        ey = y_next.mean(axis=-2)
        # A batch folds into the node axis, so each contraction sums in the
        # order of a single solve, bit for bit.
        z = np.einsum("mcj,ce->mje", y_next.reshape(-1, filt.branching, n),
                      inc) / (filt.branching * filt.dt)
        z = z.reshape(nodes + (n, filt.d))
        drift = np.zeros(nodes + (n,))
        if a_nodes is not None:
            drift += contract_az(np.asarray(a_nodes[k], dtype=float), z)
        if beta_nodes is not None:
            drift += np.asarray(beta_nodes[k], dtype=float)
        y_levels[k] = ey + drift * filt.dt
        z_levels[k] = z
    return y_levels, z_levels


def representation_solution(filt: FiniteFiltration, a_nodes: list, xi_leaf: np.ndarray,
                            beta_nodes=None) -> list:
    """Y by the exponential representation, exactly, at every node.

    Y_k = S_k^{-1} ( E_k[S_K xi + sum_{j<K} S_j beta_j dt] - sum_{j<k} S_j beta_j dt ),
    the left-endpoint discrete form of the solution formula.
    """
    xi = np.asarray(xi_leaf, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    n = xi.shape[1]
    s_levels = discrete_exponential(filt, a_nodes)
    if s_levels.singular:
        raise ConfigurationError(
            f"exponential singular at levels {s_levels.singular}; "
            "representation needs invertibility")
    # prefix[k][i] = sum_{j < k} S_j beta_j dt along node i's history
    prefix = [np.zeros((filt.nodes_at(k), n)) for k in range(filt.steps + 1)]
    if beta_nodes is not None:
        for k in range(filt.steps):
            term = np.einsum("mij,mj->mi", s_levels[k],
                             np.asarray(beta_nodes[k], dtype=float)) * filt.dt
            nxt = (prefix[k] + term)[:, None, :]
            prefix[k + 1] = np.broadcast_to(
                nxt, (filt.nodes_at(k), filt.branching, n)).reshape(-1, n)
    h_leaf = np.einsum("mij,mj->mi", s_levels[filt.steps], xi) + prefix[filt.steps]
    cond = all_conditional_expectations(filt, h_leaf)
    out = []
    for k in range(filt.steps + 1):
        out.append(np.linalg.solve(s_levels[k], (cond[k] - prefix[k])[..., None])[..., 0])
    return out


def discrete_reverse_holder(filt: FiniteFiltration, s_levels: list, p: float) -> dict:
    """Exact R_p on the tree: max over nodes v of E[|S_v^{-1} S_K|^p | v].

    The node-wise maximum attains the stopping-time supremum on a finite
    tree, so this is the exact constant, not an estimate.  tau = K gives
    exactly 1 and is included.
    """
    if p < 1:
        raise ConfigurationError("p >= 1 required")
    s_leaf = np.asarray(s_levels[filt.steps], dtype=float)
    best = 1.0
    for k in range(filt.steps + 1):
        s_k = np.asarray(s_levels[k], dtype=float)
        group = s_leaf.reshape((filt.nodes_at(k), -1) + s_leaf.shape[1:])
        ratio = np.linalg.solve(s_k[:, None], group)
        best = max(best, float((operator_norm(ratio) ** p).mean(axis=1).max()))
    return {"p": p, "rp": best}


def tree_bmo(filt: FiniteFiltration, values_nodes: list) -> float:
    """Exact bmo norm of a per-step node process: the square root of the
    largest E_v[sum_{j >= k} |Z_j|^2 dt] over nodes v at every level k.

    |.| is the Euclidean norm of whatever trailing shape the node values carry.
    """
    rem = np.zeros(filt.leaves)  # E_node[tail] at level k+1, initially level K
    best = 0.0
    for k in range(filt.steps - 1, -1, -1):
        tail = rem.reshape(filt.nodes_at(k), filt.branching).mean(axis=1)
        v = np.asarray(values_nodes[k], dtype=float).reshape(filt.nodes_at(k), -1)
        size = np.sqrt((v * v).sum(axis=1))
        rem = tail + size**2.0 * filt.dt
        best = max(best, float(rem.max()))
    return best ** 0.5


def verify_duality_lemma(filt: FiniteFiltration, x_leaf: np.ndarray, level: int,
                         p: float, rng: np.random.Generator | None = None,
                         random_draws: int = 64) -> dict:
    """Duality between ||E[|X|^p | F_k]||_inf^{1/p} and the best constant in
    ||E[X . Y | F_k]||_q <= C ||Y||_q over Y in L^q.

    lhs is computed exactly; rhs maximizes the ratio over the explicit
    witnesses Y = 1_G |X|^{p/q-1} X (G ranging over level-k nodes; Y = X/|X|
    when p = 1) plus `random_draws` random directions.  On a finite space the
    node witnesses attain the bound, so gap = lhs - rhs should vanish.
    """
    if p < 1:
        raise ConfigurationError("p >= 1 required")
    x = np.asarray(x_leaf, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    sizes = np.sqrt((x * x).sum(axis=1))
    cond_p = conditional_expectation(filt, sizes**p, level)
    lhs = float(cond_p.max()) ** (1.0 / p)

    n_nodes = filt.nodes_at(level)
    node_of_leaf = np.repeat(np.arange(n_nodes), filt.leaves // n_nodes)
    witnesses = []
    safe = np.where(sizes > 0, sizes, 1.0)
    if p == 1.0:
        witnesses.append(np.where(sizes[:, None] > 0, x / safe[:, None], 0.0))
    else:
        q = p / (p - 1.0)
        base = np.where(sizes[:, None] > 0, safe[:, None] ** (p / q - 1.0) * x, 0.0)
        for g in range(n_nodes):
            w = base * (node_of_leaf == g)[:, None]
            if np.any(w):
                witnesses.append(w)
        witnesses.append(base)
    if rng is not None:
        witnesses.extend(rng.standard_normal((random_draws,) + x.shape))

    # ||E[X.Y | F_level]||_q / ||Y||_q for every witness Y at once, q the
    # conjugate of p.  Each reduction runs along the last axis, as it would
    # for one witness, and the q-th roots are taken on scalars: an array
    # power differs from a scalar one in the last bit.
    y = np.stack(witnesses)
    cond = np.abs((x * y).sum(axis=2).reshape(len(y), n_nodes, -1).mean(axis=2))
    ynorm = np.sqrt((y * y).sum(axis=2))
    if p == 1.0:  # q = infinity
        nums, denoms = cond.max(axis=1), ynorm.max(axis=1)
    else:
        weights = np.full(n_nodes, 1.0 / n_nodes)
        nums = [s ** (1.0 / q) for s in (weights * cond**q).sum(axis=1)]
        denoms = [s ** (1.0 / q) for s in (ynorm**q).mean(axis=1)]
    rhs = max(float(num) / float(den) if den > 0 else 0.0 for num, den in zip(nums, denoms))
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "p": p, "level": level}


def verify_duality_matrix(filt: FiniteFiltration, a_leaf: np.ndarray, level: int,
                          p: float) -> dict:
    """Row-wise reduction of the matrix duality bound.

    Checks that the exact matrix quantity ||E[|A|^p | F_k]||_inf^{1/p} is
    controlled by sqrt(n) times the largest row constant, each row constant
    being the vector-lemma dual bound.
    """
    a = np.asarray(a_leaf, dtype=float)
    n = a.shape[1]
    rows = [verify_duality_lemma(filt, a[:, i, :], level, p) for i in range(n)]
    row_max = max(r["rhs"] for r in rows)
    cond = conditional_expectation(filt, operator_norm(a) ** p, level)
    lhs = float(cond.max()) ** (1.0 / p)
    bound = np.sqrt(n) * row_max
    return {"lhs": lhs, "row_bound": bound, "rows": rows,
            "satisfied": bool(lhs <= bound + 1e-12)}


def solution_pathwise_norms(filt: FiniteFiltration, y_levels: list, z_levels: list,
                            q: float) -> tuple[float, float]:
    """Exact ||Y||_{S^q} and ||Z||_{L^{2,q}} on the tree (q = inf allowed)."""
    ynorm, znorm = _pathwise_norms(filt, y_levels, z_levels, q)
    return float(ynorm), float(znorm)


def _pathwise_norms(filt: FiniteFiltration, y_levels: list, z_levels: list,
                    q: float) -> tuple[np.ndarray, np.ndarray]:
    """||Y||_{S^q} and ||Z||_{L^{2,q}} for each index of the leading axes.

    The running max of |Y| and the running sum of |Z|^2 dt along a path are
    carried down the tree level by level, each node extending its parent's,
    so every node is visited once; along each path the maxima and the sum
    order are those of a leaf-by-leaf pass.
    """
    ymax = zsum = None
    for k in range(filt.steps + 1):
        y = np.asarray(y_levels[k], dtype=float)
        size = np.sqrt((y * y).sum(axis=-1))
        ymax = size if k == 0 else np.maximum(np.repeat(ymax, filt.branching, axis=-1), size)
        if k < filt.steps:
            z = np.asarray(z_levels[k], dtype=float)
            term = (z * z).reshape(z.shape[:-2] + (-1,)).sum(axis=-1) * filt.dt
            zsum = term if k == 0 else np.repeat(zsum, filt.branching, axis=-1) + term
    zsum = np.repeat(zsum, filt.branching, axis=-1)
    if np.isinf(q):
        return ymax.max(axis=-1), np.sqrt(zsum).max(axis=-1)
    return _root((ymax**q).mean(axis=-1), q), _root((zsum ** (q / 2.0)).mean(axis=-1), q)


def _root(means: np.ndarray, q: float) -> np.ndarray:
    """means ** (1/q) by numpy's scalar power, one element at a time: the
    vectorised power may differ from it in the last bit."""
    return np.array([m ** (1.0 / q) for m in np.ravel(means)]).reshape(np.shape(means))


# Working memory of one block of terminals in hbsde_operator_norm.  The
# terminal solves are independent, so the results do not depend on it.
_TERMINAL_BLOCK_BYTES = 32 << 20


def hbsde_operator_norm(filt: FiniteFiltration, a_nodes: list, q: float,
                        rng: np.random.Generator | None = None,
                        random_terminals: int = 16) -> dict:
    """Exact solution-operator lower bound over a spanning terminal family.

    Solves the homogeneous equation for every basis terminal e_i 1_{leaf} and
    optionally random terminals, and maximizes
    (||Y||_{S^q} + ||Z||_{L^{2,q}}) / ||xi||_{L^q}.  The maximum over a
    spanning family is a lower bound on the true operator norm; it is exact
    for the family itself.  The terminals are solved as batches, in blocks
    of about _TERMINAL_BLOCK_BYTES of working memory.
    """
    n = a_nodes[0].shape[1]
    leaves = filt.leaves
    basis = leaves * n          # terminal t < basis is e_{t % n} 1_{leaf t // n}
    randoms = ([rng.standard_normal((leaves, n)) for _ in range(random_terminals)]
               if rng is not None else [])
    family = basis + len(randoms)
    # Per terminal: xi, Y and Z on every level, and the running path norms.
    block = max(1, _TERMINAL_BLOCK_BYTES // (8 * leaves * (2 * n + n * filt.d + 4)))
    best, best_t = 0.0, None
    for start in range(0, family, block):
        ts = np.arange(start, min(start + block, family))
        xi = np.zeros((ts.size, leaves * n))
        unit = ts < basis
        xi[np.flatnonzero(unit), ts[unit]] = 1.0
        for row in np.flatnonzero(~unit):
            xi[row] = randoms[ts[row] - basis].ravel()
        xi = xi.reshape(ts.size, leaves, n)
        y, z = discrete_linear_bsde_solve(filt, xi, None, a_nodes)
        ynorm, znorm = _pathwise_norms(filt, y, z, q)
        sizes = np.sqrt((xi * xi).sum(axis=-1))
        xinorm = sizes.max(axis=-1) if np.isinf(q) else _root((sizes**q).mean(axis=-1), q)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (ynorm + znorm) / xinorm
        # The first terminal of the family that attains the maximum wins.
        cand = np.where((xinorm != 0) & (ratio > best), ratio, -np.inf)
        i = int(cand.argmax())
        if cand[i] > best:
            best, best_t = float(cand[i]), int(ts[i])
    if best_t is None:
        tag = None
    elif best_t < basis:
        tag = f"e{best_t % n}@leaf{best_t // n}"
    else:
        tag = f"random{best_t - basis}"
    return {"operator_norm": best, "attained_by": tag, "q": q, "family_size": family}
