"""Forward integration of matrix stochastic exponentials and diagnostics.

The exponential S solves dS = S (A dB) from the identity; its inverse X is
integrated separately from dX = A^2 X dt - (A dB) X (never by per-step matrix
inversion).  Diagnostics cover reverse Holder constants, martingale defect,
and the Doob-maximal comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import _BLOCK, PathEnsemble, block_increments, substream
from .fields import CoefficientField
from .grids import TimeGrid
from .norms import RegressionConditional
from .tensors import contract_adb, mat_square, operator_norm


# Working-memory budget of one block of grid nodes in the forward diagnostics.
_NODE_BLOCK_BYTES = 4 << 20


def node_blocks(nodes: int, node_bytes: int, node_entries: int):
    """(lo, hi) ranges covering `nodes` grid nodes, about _NODE_BLOCK_BYTES each.

    node_bytes is the size of one node's slice of the block's largest array.
    Every statistic is per node and an axis-0 reduction adds the paths in
    order, so results do not depend on the blocks, with one exception: numpy
    sums a reduction whose rows hold a single entry pairwise, not in path
    order.  Blocks therefore hold at least two entries per path, where a node
    holds `node_entries` of them.
    """
    step = max(1, _NODE_BLOCK_BYTES // node_bytes, -(-2 // node_entries))
    bounds = list(range(0, nodes, step)) + [nodes]
    if len(bounds) > 2 and (bounds[-1] - bounds[-2]) * node_entries < 2:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


@dataclass
class ExponentialEnsemble:
    """Simulated S (and optionally S^{-1}) along a path ensemble.

    s[m, k] is the n x n matrix at node k of path m; s[all, 0] = I.  The
    inverse residual |S_k X_k - I| is measured per grid node, not assumed.
    """

    field: CoefficientField
    paths: PathEnsemble
    s: np.ndarray
    s_inv: np.ndarray | None = None
    scheme: str = "euler"
    bad_paths: np.ndarray = None

    def __post_init__(self):
        if self.bad_paths is None:
            self.bad_paths = ~np.isfinite(self.s.reshape(self.s.shape[0], -1)).all(axis=1)

    @property
    def n(self) -> int:
        return self.field.n

    def inverse_residual_profile(self) -> np.ndarray:
        """Mean over paths of |S_k X_k - I| (operator norm) at each grid node."""
        if self.s_inv is None:
            raise ValueError("ensemble was integrated without the inverse part")
        m, k1 = self.s.shape[:2]
        idx = np.arange(self.n)
        out = np.empty(k1)
        for lo, hi in node_blocks(k1, m * self.n * self.n * 8, 1):
            prod = self.s[:, lo:hi] @ self.s_inv[:, lo:hi]
            prod[..., idx, idx] -= 1.0
            out[lo:hi] = operator_norm(prod).mean(axis=0)
        return out


def integrate_exponential(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler-Maruyama path of S: S_{k+1} = S_k + S_k (A_k dB_k), S_0 = I."""
    m, k_steps = paths.paths, paths.grid.steps
    n = field.n
    s = np.empty((m, k_steps + 1, n, n))
    s[:, 0] = np.eye(n)
    inc = paths.increments
    for k in range(k_steps):
        a_db = contract_adb(field.values(paths, k), inc[:, k])
        # the product lands in node k + 1, then S_k is added: IEEE addition
        # commutes, so this is S_k + S_k (A dB) bit for bit
        np.matmul(s[:, k], a_db, out=s[:, k + 1])
        s[:, k + 1] += s[:, k]
    return s


def integrate_terminal(field: CoefficientField, grid: TimeGrid, inc: np.ndarray,
                       x0: np.ndarray) -> np.ndarray:
    """S_T alone, shape (paths, n, n), for the paths with increments `inc`
    started from the Brownian states x0.

    integrate_exponential's last node on the PathEnsemble(grid, ..., inc, x0),
    bit for bit: the state is carried as a running sum instead of the
    ensemble's (paths, steps + 1, d) states, and one (paths, n, n) state and
    one product buffer replace the whole path of S.
    """
    n = field.n
    s = np.empty((inc.shape[0], n, n))
    s[:] = np.eye(n)
    tmp = np.empty_like(s)
    # -0.0 + y == y for every y, so run is the cumsum of the increments exactly
    run = np.full_like(x0, -0.0)
    x = x0.copy()
    for k in range(grid.steps):
        if k:
            run += inc[:, k - 1]
            np.add(run, x0, out=x)
        a = field.at(float(grid.nodes[k]), x)
        np.matmul(s, contract_adb(a, inc[:, k]), out=tmp)
        s += tmp
    return s


def integrate_inverse(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler path of the inverse dynamics dX = A^2 X dt - (A dB) X, X_0 = I."""
    m, k_steps = paths.paths, paths.grid.steps
    n = field.n
    dt = paths.grid.dt
    x = np.empty((m, k_steps + 1, n, n))
    x[:, 0] = np.eye(n)
    drift = np.empty((m, n, n))
    noise = np.empty((m, n, n))
    inc = paths.increments
    for k in range(k_steps):
        a = field.values(paths, k)
        np.matmul(mat_square(a), x[:, k], out=drift)
        drift *= dt[k]
        np.matmul(contract_adb(a, inc[:, k]), x[:, k], out=noise)
        np.add(x[:, k], drift, out=x[:, k + 1])
        x[:, k + 1] -= noise
    return x


def simulate_exponential(field: CoefficientField, paths: PathEnsemble,
                         inverse: bool = True) -> ExponentialEnsemble:
    s = integrate_exponential(field, paths)
    x = integrate_inverse(field, paths) if inverse else None
    return ExponentialEnsemble(field, paths, s, x, "euler")


@dataclass
class ReverseHolderReport:
    """`std_error` is, under "regression", the fit's residual standard error
    at the attaining time; it does not bound the upward bias of a maximum over
    fitted values (README sketch: 1.61 +- 0.011 against the exact 1.28)."""

    p: float
    rp_estimate: float
    std_error: float
    attaining_index: int
    profile: np.ndarray          # per grid time: estimated sup_omega E_t[|S_t^{-1} S_T|^p]
    profile_std_error: np.ndarray
    estimator: str


def _ratio_matrices(expo: ExponentialEnsemble, k: int) -> np.ndarray:
    """S_{t_k}^{-1} S_T for every path, via the integrated inverse if present."""
    s_t = expo.s[:, -1]
    if expo.s_inv is not None:
        return expo.s_inv[:, k] @ s_t
    return np.linalg.solve(expo.s[:, k], s_t)


def estimate_reverse_holder(expo: ExponentialEnsemble, p: float,
                            method: str = "regression", degree: int = 3,
                            inner_paths: int = 512) -> ReverseHolderReport:
    """Grid-time estimate of the reverse Holder constant R_p.

    R_p = max over grid times t_k of an estimate of
    ess-sup_omega E_{t_k}[ |S_{t_k}^{-1} S_T|^p ].  tau = T contributes the
    exact value 1 and is always included.

    method "regression": fit |S_{t_k}^{-1} S_T|^p against a polynomial in the
    Brownian state over the outer paths; ess-sup ~ max fitted value.
    method "nested": re-simulate the ratio process from (t_k, B_{t_k}) with
    `inner_paths` sub-paths per outer path (Markovian fields only);
    ess-sup ~ max over outer paths of the inner mean.
    """
    if p < 1:
        raise ValueError("reverse Holder requires p >= 1")
    paths = expo.paths
    k_grid = paths.grid.steps
    profile = np.zeros(k_grid + 1)
    profile_se = np.zeros(k_grid + 1)
    profile[k_grid] = 1.0  # E_T[|I|^p] exactly

    reg = RegressionConditional.of(paths, degree)
    for k in range(k_grid):
        if method == "regression":
            target = operator_norm(_ratio_matrices(expo, k)) ** p
            fitted = reg.fit_predict(k, target)
            profile[k] = float(fitted.max())
            profile_se[k] = float(np.std(target - fitted, ddof=1) / np.sqrt(paths.paths))
        elif method == "nested":
            means, ses = _nested_ratio_moment(expo, k, p, inner_paths, 7_001)
            j = int(np.argmax(means))
            profile[k] = float(means[j])
            profile_se[k] = float(ses[j])
        else:
            raise ValueError(f"unknown conditional estimator {method!r}")

    best_k = int(np.argmax(profile))
    return ReverseHolderReport(
        p=p, rp_estimate=float(max(profile[best_k], 1.0)), std_error=float(profile_se[best_k]),
        attaining_index=best_k, profile=profile, profile_std_error=profile_se,
        estimator=method)


def _nested_ratio_moment(expo: ExponentialEnsemble, k: int, p: float,
                         inner_paths: int, salt: int) -> tuple[np.ndarray, np.ndarray]:
    """Inner-MC estimates of E_{t_k}[|S_{t_k}^{-1} S_T|^p] per outer path.

    The ratio R = S_{t_k}^{-1} S solves the same exponential SDE restarted at
    the identity with the Brownian state continued from B_{t_k}, which is only
    valid for Markovian fields.
    """
    field = expo.field
    if not field.markovian:
        raise ValueError("nested estimator requires a Markovian field; use regression")
    paths = expo.paths
    m, d = paths.paths, paths.d
    nodes = paths.grid.nodes
    rest_steps = paths.grid.steps - k
    sub_grid = TimeGrid(nodes[-1] - nodes[k], rest_steps, nodes[k:] - nodes[k])
    x_k = paths.state_at(k)

    rng = substream(paths.seed, salt, k)
    inner_seed = int(rng.integers(0, 2**63 - 1))

    # Shift eval times so the restarted field sees absolute time t_k + s.
    shifted = CoefficientField(
        field.n, field.d,
        lambda t, x, _t0=float(nodes[k]): field.eval(_t0 + t, x),
        field.structure, True, field.name)
    # Inner path i restarts outer path i // inner_paths.  One Philox block of
    # inner paths at a time: the same draws as generate_brownian over all
    # m * inner_paths paths, but only S_T and then |S_T|^p are kept.
    total = m * inner_paths
    vals = np.empty(total)
    for b, lo in enumerate(range(0, total, _BLOCK)):
        hi = min(lo + _BLOCK, total)
        inc = block_increments(sub_grid, d, inner_seed, b, np.empty((hi - lo, rest_steps, d)))
        x0 = x_k[np.arange(lo, hi) // inner_paths]
        vals[lo:hi] = operator_norm(integrate_terminal(shifted, sub_grid, inc, x0)) ** p
    vals = vals.reshape(m, inner_paths)
    means = vals.mean(axis=1)
    # vals.std(axis=1, ddof=1) step for step, in place to save a second array.
    vals -= means[:, None]
    vals *= vals
    ses = np.sqrt(vals.sum(axis=1) / (inner_paths - 1)) / np.sqrt(inner_paths)
    return means, ses


@dataclass
class MartingaleDefectReport:
    defect: np.ndarray            # |E[S_{t_k}] - I| in operator norm, per node
    std_error: np.ndarray         # Frobenius aggregate of entrywise std errors
    diagonal_defect: np.ndarray   # max_i |E[S^ii_{t_k}] - 1|
    diagonal_std_error: np.ndarray
    group_defect: np.ndarray = None   # median over path groups: robust to heavy tails

    def table(self, grid: TimeGrid) -> tuple:
        """The profile per grid node as a (header, rows) table."""
        return ("t,defect,std_error,diag_defect,diag_std_error",
                np.column_stack([grid.nodes, self.defect, self.std_error,
                                 self.diagonal_defect, self.diagonal_std_error]))


def martingale_defect(expo: ExponentialEnsemble) -> MartingaleDefectReport:
    """Monte Carlo profile of |E[S_{t_k}] - S_0| with entrywise error bars.

    `group_defect` is the median over 8 path groups of the per-group defect: a
    single wild path (strict-local-martingale ensembles are heavy-tailed)
    inflates both the plain defect and its error bar, but not the median.
    """
    keep = ~expo.bad_paths
    m = int(keep.sum())
    if m == 0:
        raise ValueError("no finite paths in the ensemble")
    n, k1 = expo.n, expo.s.shape[1]
    mean = np.empty((k1, n, n))
    se = np.empty((k1, n, n))
    group = np.empty(k1)
    eye = np.eye(n)
    parts = np.array_split(np.arange(m), min(8, m))
    for lo, hi in node_blocks(k1, m * n * n * 8, n * n):
        s = expo.s[keep, lo:hi]  # boolean indexing: a private copy of the block
        mean[lo:hi] = s.mean(axis=0)
        group[lo:hi] = np.median(np.stack(
            [operator_norm(s[g].mean(axis=0) - eye) for g in parts]), axis=0)
        # s.std(axis=0, ddof=1) step for step, in place on the copy
        s -= mean[lo:hi]
        s *= s
        se[lo:hi] = np.sqrt(s.sum(axis=0) / (m - 1)) / np.sqrt(m)
    idx = np.arange(n)
    diag_gap = np.abs(mean[:, idx, idx] - 1.0)
    which = diag_gap.argmax(axis=1)
    rows = np.arange(k1)
    return MartingaleDefectReport(
        defect=operator_norm(mean - eye),
        std_error=np.sqrt((se**2).sum(axis=(1, 2))),
        diagonal_defect=diag_gap[rows, which],
        diagonal_std_error=se[:, idx, idx][rows, which],
        group_defect=group,
    )


def doob_sup_check(expo: ExponentialEnsemble, p: float, degree: int = 3) -> dict:
    """Compare E_tau[sup_{tau<=t<=T} |S_tau^{-1} S_t|^p] to (p/(p-1))^p R_p.

    Both sides are estimated from the same ensemble (regression conditionals);
    returns the worst ratio over the grid times before T, which should not
    exceed 1 beyond Monte Carlo tolerance when S is a true martingale.
    """
    if p <= 1:
        raise ValueError("the Doob factor requires p > 1")
    paths = expo.paths
    rp = estimate_reverse_holder(expo, p, method="regression", degree=degree)
    doob_factor = (p / (p - 1.0)) ** p
    bound = doob_factor * rp.rp_estimate

    reg = RegressionConditional.of(paths, degree)
    worst, worst_k = 0.0, 0
    for k in range(paths.grid.steps):
        if expo.s_inv is not None:
            ratios = expo.s_inv[:, k, None] @ expo.s[:, k:]
        else:
            ratios = np.linalg.solve(expo.s[:, k][:, None], expo.s[:, k:])
        target = (operator_norm(ratios) ** p).max(axis=1)
        fitted = reg.fit_predict(k, target)
        val = float(fitted.max())
        if val > worst:
            worst, worst_k = val, k
    return {
        "p": p,
        "doob_factor": doob_factor,
        "rp_estimate": rp.rp_estimate,
        "sup_estimate": worst,
        "ratio": worst / bound,
        "attaining_index": worst_k,
    }


def truncation_curve(vals: np.ndarray, levels=None, count: int = 13) -> dict:
    """Truncated means E[min(vals, L)] over the levels L.

    The default levels are `count` geometric steps from 1 to max(vals).
    `diverging` flags a tail slope that has not flattened between the last
    two levels, the sign of an infinite underlying moment.
    """
    if levels is None:
        levels = np.geomspace(1.0, float(vals.max()), count)
    levels = np.asarray(levels, dtype=float)
    curve = np.array([np.mean(np.minimum(vals, lv)) for lv in levels])
    tail_gain = (curve[-1] - curve[-2]) / max(curve[-2], 1e-300)
    return {
        "levels": levels,
        "curve": curve,
        "diverging": bool(tail_gain > 0.01),
        "tail_gain": float(tail_gain),
    }


def terminal_moment_truncation_curve(expo: ExponentialEnsemble, p: float = 1.0) -> dict:
    """Truncation curve E[min(|S_T|^p, L)] for increasing L.

    When the underlying moment is infinite (the rotation counterexample at
    p = 1) the curve keeps climbing and `diverging` is set.
    """
    vals = operator_norm(expo.s[:, -1][~expo.bad_paths]) ** p
    return truncation_curve(vals, np.geomspace(1.0, max(float(vals.max()), 2.0), 13))
