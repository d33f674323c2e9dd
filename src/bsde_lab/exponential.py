"""Forward integration of matrix stochastic exponentials and diagnostics.

The exponential S solves dS = S (A dB) from the identity; its inverse X is
integrated separately from dX = A^2 X dt - (A dB) X (never by per-step matrix
inversion).  Diagnostics cover reverse Holder constants, martingale defect,
and the Doob-maximal comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import PathEnsemble, generate_brownian, substream
from .fields import CoefficientField
from .grids import TimeGrid
from .norms import RegressionConditional
from .tensors import contract_adb, mat_square, operator_norm


@dataclass
class ExponentialEnsemble:
    """Simulated S (and optionally S^{-1}) along a path ensemble.

    s[m, k] is the n x n matrix at node k of path m; s[all, 0] = I.  The
    inverse residual max_k |S_k X_k - I| is reported per path, not assumed.
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

    def inverse_residual(self) -> np.ndarray:
        """max over grid nodes of |S_k X_k - I| (operator norm), per path."""
        return self._residual_norms().max(axis=1)

    def inverse_residual_profile(self) -> np.ndarray:
        """Mean over paths of |S_k X_k - I| at each grid node."""
        return self._residual_norms().mean(axis=0)

    def _residual_norms(self) -> np.ndarray:
        """|S_k X_k - I| (operator norm) per path and grid node."""
        if self.s_inv is None:
            raise ValueError("ensemble was integrated without the inverse part")
        prod = self.s @ self.s_inv
        idx = np.arange(self.n)
        prod[..., idx, idx] -= 1.0
        return operator_norm(prod)


def integrate_exponential(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler-Maruyama path of S: S_{k+1} = S_k + S_k (A_k dB_k), S_0 = I."""
    m, k_steps = paths.paths, paths.grid.steps
    n = field.n
    s = np.empty((m, k_steps + 1, n, n))
    s[:, 0] = np.eye(n)
    inc = paths.increments
    for k in range(k_steps):
        a_db = contract_adb(field.values(paths, k), inc[:, k])
        s[:, k + 1] = s[:, k] + s[:, k] @ a_db
    return s


def integrate_inverse(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler path of the inverse dynamics dX = A^2 X dt - (A dB) X, X_0 = I."""
    m, k_steps = paths.paths, paths.grid.steps
    n = field.n
    dt = paths.grid.dt
    x = np.empty((m, k_steps + 1, n, n))
    x[:, 0] = np.eye(n)
    inc = paths.increments
    for k in range(k_steps):
        a = field.values(paths, k)
        drift = (mat_square(a) @ x[:, k]) * dt[k]
        noise = contract_adb(a, inc[:, k]) @ x[:, k]
        x[:, k + 1] = x[:, k] + drift - noise
    return x


def simulate_exponential(field: CoefficientField, paths: PathEnsemble,
                         inverse: bool = True) -> ExponentialEnsemble:
    s = integrate_exponential(field, paths)
    x = integrate_inverse(field, paths) if inverse else None
    return ExponentialEnsemble(field, paths, s, x, "euler")


@dataclass
class ReverseHolderReport:
    p: float
    rp_estimate: float
    std_error: float
    attaining_index: int
    profile: np.ndarray          # per grid time: estimated sup_omega E_t[|S_t^{-1} S_T|^p]
    profile_std_error: np.ndarray
    estimator: str
    doob_sup_estimate: float | None = None

    def to_csv(self, path, grid: TimeGrid) -> None:
        rows = np.column_stack([grid.nodes, self.profile, self.profile_std_error])
        np.savetxt(path, rows, delimiter=",", header="t,estimate,std_error",
                   comments="", fmt="%.17g")


def _ratio_matrices(expo: ExponentialEnsemble, k: int) -> np.ndarray:
    """S_{t_k}^{-1} S_T for every path, via the integrated inverse if present."""
    s_t = expo.s[:, -1]
    if expo.s_inv is not None:
        return expo.s_inv[:, k] @ s_t
    return np.linalg.solve(expo.s[:, k], s_t)


def estimate_reverse_holder(expo: ExponentialEnsemble, p: float,
                            method: str = "regression", degree: int = 3,
                            inner_paths: int = 512, times=None,
                            inner_seed_salt: int = 7_001) -> ReverseHolderReport:
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
    if times is None:
        times = range(k_grid + 1)
    times = list(times)
    profile = np.zeros(k_grid + 1)
    profile_se = np.zeros(k_grid + 1)
    profile[k_grid] = 1.0  # E_T[|I|^p] exactly

    reg = RegressionConditional.of(paths, degree)
    for k in times:
        if k == k_grid:
            continue
        if method == "regression":
            target = operator_norm(_ratio_matrices(expo, k)) ** p
            fitted = reg.fit_predict(k, target)
            profile[k] = float(fitted.max())
            profile_se[k] = float(np.std(target - fitted, ddof=1) / np.sqrt(paths.paths))
        elif method == "nested":
            means, ses = _nested_ratio_moment(expo, k, p, inner_paths, inner_seed_salt)
            j = int(np.argmax(means))
            profile[k] = float(means[j])
            profile_se[k] = float(ses[j])
        else:
            raise ValueError(f"unknown conditional estimator {method!r}")

    best = int(np.argmax(profile[times])) if times else k_grid
    best_k = times[best]
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
    m = paths.paths
    nodes = paths.grid.nodes
    rest_steps = paths.grid.steps - k
    sub_grid = TimeGrid(nodes[-1] - nodes[k], rest_steps, nodes[k:] - nodes[k])
    x0 = np.repeat(paths.state_at(k), inner_paths, axis=0)

    rng = substream(paths.seed, salt, k)
    inner_seed = int(rng.integers(0, 2**63 - 1))
    inner = generate_brownian(sub_grid, paths.d, m * inner_paths, inner_seed,
                              initial_state=x0)

    # Shift eval times so the restarted field sees absolute time t_k + s.
    shifted = CoefficientField(
        field.n, field.d,
        lambda t, x, _t0=float(nodes[k]): field.eval(_t0 + t, x),
        field.structure, field.bmo_bound, True, field.name)
    r_t = integrate_exponential(shifted, inner)[:, -1]
    vals = (operator_norm(r_t) ** p).reshape(m, inner_paths)
    means = vals.mean(axis=1)
    ses = vals.std(axis=1, ddof=1) / np.sqrt(inner_paths)
    return means, ses


@dataclass
class MartingaleDefectReport:
    defect: np.ndarray            # |E[S_{t_k}] - I| in operator norm, per node
    std_error: np.ndarray         # Frobenius aggregate of entrywise std errors
    diagonal_defect: np.ndarray   # max_i |E[S^ii_{t_k}] - 1|
    diagonal_std_error: np.ndarray
    group_defect: np.ndarray = None   # median over path groups: robust to heavy tails

    def significance(self, threshold: float, k: int = -1) -> float:
        """(diagonal defect - threshold) / std error at node k; inf if se = 0."""
        d = self.diagonal_defect[k] - threshold
        se = self.diagonal_std_error[k]
        return float("inf") if se == 0 else float(d / se)

    def to_csv(self, path, grid: TimeGrid) -> None:
        rows = np.column_stack([grid.nodes, self.defect, self.std_error,
                                self.diagonal_defect, self.diagonal_std_error])
        np.savetxt(path, rows, delimiter=",",
                   header="t,defect,std_error,diag_defect,diag_std_error",
                   comments="", fmt="%.17g")


def martingale_defect(expo: ExponentialEnsemble, groups: int = 8) -> MartingaleDefectReport:
    """Monte Carlo profile of |E[S_{t_k}] - S_0| with entrywise error bars.

    `group_defect` is the median over path groups of the per-group defect: a
    single wild path (strict-local-martingale ensembles are heavy-tailed)
    inflates both the plain defect and its error bar, but not the median.
    """
    s = expo.s[~expo.bad_paths]  # boolean indexing: a private copy
    if s.shape[0] == 0:
        raise ValueError("no finite paths in the ensemble")
    m = s.shape[0]
    mean = s.mean(axis=0)
    eye = np.eye(expo.n)
    idx = np.arange(expo.n)
    diag_gap = np.abs(mean[:, idx, idx] - 1.0)
    which = diag_gap.argmax(axis=1)
    rows = np.arange(mean.shape[0])
    parts = np.array_split(np.arange(m), min(groups, m))
    group = np.median(np.stack(
        [operator_norm(s[g].mean(axis=0) - eye) for g in parts]), axis=0)
    # s.std(axis=0, ddof=1) step for step, in place on the copy to save a
    # second (M, K+1, n, n) array.
    s -= mean
    s *= s
    se = np.sqrt(s.sum(axis=0) / (m - 1)) / np.sqrt(m)
    return MartingaleDefectReport(
        defect=operator_norm(mean - eye),
        std_error=np.sqrt((se**2).sum(axis=(1, 2))),
        diagonal_defect=diag_gap[rows, which],
        diagonal_std_error=se[:, idx, idx][rows, which],
        group_defect=group,
    )


def doob_sup_check(expo: ExponentialEnsemble, p: float, degree: int = 3,
                   times=None) -> dict:
    """Compare E_tau[sup_{tau<=t<=T} |S_tau^{-1} S_t|^p] to (p/(p-1))^p R_p.

    Both sides are estimated from the same ensemble (regression conditionals);
    returns the worst ratio over the tested grid times, which should not
    exceed 1 beyond Monte Carlo tolerance when S is a true martingale.
    """
    if p <= 1:
        raise ValueError("the Doob factor requires p > 1")
    paths = expo.paths
    k_grid = paths.grid.steps
    if times is None:
        times = range(k_grid)
    rp = estimate_reverse_holder(expo, p, method="regression", degree=degree)
    doob_factor = (p / (p - 1.0)) ** p
    bound = doob_factor * rp.rp_estimate

    reg = RegressionConditional.of(paths, degree)
    worst, worst_k = 0.0, 0
    for k in times:
        if expo.s_inv is not None:
            ratios = expo.s_inv[:, k, None] @ expo.s[:, k:]
        else:
            ratios = np.linalg.solve(expo.s[:, k][:, None], expo.s[:, k:])
        target = (operator_norm(ratios) ** p).max(axis=1)
        fitted = reg.fit_predict(k, target)
        val = float(fitted.max())
        if val > worst:
            worst, worst_k = val, int(k)
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


def terminal_moment_truncation_curve(expo: ExponentialEnsemble, p: float = 1.0,
                                     levels=None) -> dict:
    """Truncation curve E[min(|S_T|^p, L)] for increasing L.

    When the underlying moment is infinite (the rotation counterexample at
    p = 1) the curve keeps climbing and `diverging` is set.
    """
    vals = operator_norm(expo.s[~expo.bad_paths][:, -1]) ** p
    if levels is None:
        levels = np.geomspace(1.0, max(float(vals.max()), 2.0), 13)
    return truncation_curve(vals, levels)
