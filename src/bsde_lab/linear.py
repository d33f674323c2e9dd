"""Monte Carlo solvers for the linear system Y = xi + int (A Z + beta) dt - int Z dB.

Four routes to the same solution:
  - the exponential representation formula (with the separately integrated
    inverse, never per-step matrix inversion),
  - regression backward induction on the discretized equation,
  - structural reductions for triangular / right outer / left outer fields,
  - Picard iteration for a sliceable perturbation A + dA plus an alpha Y term.

All solvers share one path ensemble and the same least-squares conditional
expectation operator, so cross-solver comparisons see correlated noise.  They
are built from the same pieces: one martingale-representation step
(`_represent`: N_k = E_k[h] and the centred increment regression Z~), one
scalar exponential (`_scalar_exponential`) for the triangular, right-outer
and left-outer reductions, and one backward-induction loop (`_backward`),
which the quadratic solver runs with its inner Picard step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable

import numpy as np

from .brownian import PathEnsemble
from .exponential import ExponentialEnsemble, martingale_defect, simulate_exponential
from .fields import CoefficientField, LeftOuterField, RightOuterField
from .grids import ConfigurationError
from .norms import RegressionConditional, estimate_norm
from .tensors import contract_az


class RepresentationInvalidError(RuntimeError):
    """The exponential failed the martingale-defect gate."""


class PicardDivergenceError(RuntimeError):
    """The perturbation iteration did not contract."""


@dataclass
class LinearBsdeSpec:
    """Data of the (generalized) linear equation.

    terminal(paths) -> (M, n); beta/alpha are adapted functionals of
    (paths, step) returning (M, n) and (M, n, n).  alpha and delta_field
    enter only through the perturbation solver.
    """

    field: CoefficientField
    terminal: Callable[[PathEnsemble], np.ndarray]
    beta: Callable[[PathEnsemble, int], np.ndarray] | None = None
    alpha: Callable[[PathEnsemble, int], np.ndarray] | None = None
    delta_field: CoefficientField | None = None

    @property
    def n(self) -> int:
        return self.field.n


@dataclass
class SolutionEnsemble:
    """(Y, Z) paths with solver tag and residual diagnostics.

    y[m, K] equals the terminal sample exactly for every solver; what the
    solver actually produced at the terminal node is kept in
    diagnostics["terminal_mismatch"].
    """

    spec: LinearBsdeSpec
    paths: PathEnsemble
    y: np.ndarray                  # (M, K+1, n)
    z: np.ndarray                  # (M, K, n, d)
    solver: str
    diagnostics: dict = dc_field(default_factory=dict)

    def norm_report(self, q: float = np.inf) -> dict:
        ynorm = estimate_norm("sup_p", self.y, self.paths, q=q)
        znorm = estimate_norm("bmo" if np.isinf(q) else "l2q", self.z, self.paths,
                              q=None if np.isinf(q) else q)
        return {"y": ynorm, "z": znorm}


def _per_step(fn, paths: PathEnsemble) -> np.ndarray:
    """fn(paths, k) for every grid step k, stacked on axis 1: (M, K, ...)."""
    return np.stack([np.asarray(fn(paths, k), dtype=float)
                     for k in range(paths.grid.steps)], axis=1)


def _beta_array(spec: LinearBsdeSpec, paths: PathEnsemble) -> np.ndarray | None:
    return None if spec.beta is None else _per_step(spec.beta, paths)


def _prefix(paths: PathEnsemble, x: np.ndarray | None, tail: tuple) -> np.ndarray:
    """sum_{j < k} x_j dt_j at every node, shape (M, K+1) + tail; zero if x is None."""
    out = np.zeros((paths.paths, paths.grid.steps + 1) + tail)
    if x is not None:
        dt = paths.grid.dt.reshape((1, -1) + (1,) * len(tail))
        np.cumsum(x * dt, axis=1, out=out[:, 1:])
    return out


def _scalar_exponential(paths: PathEnsemble, coeff: np.ndarray) -> np.ndarray:
    """exp(int coeff dB - 1/2 int |coeff|^2 dt) at every node; coeff (M, K, d) -> (M, K+1)."""
    m, ksteps, _ = coeff.shape
    log_e = np.zeros((m, ksteps + 1))
    incr = np.einsum("mkd,mkd->mk", coeff, paths.increments) \
        - 0.5 * (coeff**2).sum(axis=2) * paths.grid.dt[None, :]
    np.cumsum(incr, axis=1, out=log_e[:, 1:])
    return np.exp(log_e)


def _increment_regression(reg: RegressionConditional, paths: PathEnsemble,
                          next_values: np.ndarray, k: int,
                          base_values: np.ndarray | None = None) -> np.ndarray:
    """Fitted E_k[next_values dB_k] / dt, shape (M, ..., d).

    Subtracting `base_values` (any F_{t_k}-measurable centering, typically
    the fitted one-step conditional mean) leaves the expectation unchanged
    and cuts the target variance from Var(next)/dt to O(|Z|^2).
    """
    db = paths.increments[:, k]                      # (M, d)
    centered = next_values if base_values is None else next_values - base_values
    target = centered[..., None] * db[(slice(None),) + (None,) * (centered.ndim - 1)]
    return reg.fit_predict(k, target) / paths.grid.dt[k]


def _represent(paths: PathEnsemble, degree: int, h: np.ndarray) -> tuple:
    """The martingale representation of an F_T-measurable h: (N, Z~).

    N_k is the fitted E_k[h] with N_K = h, shape (M, K+1, ...), and Z~_k is
    the increment regression of N_{k+1} centred at N_k, written into one
    (M, K, ..., d) array that callers turn into their Z in place.
    """
    m, ksteps = paths.paths, paths.grid.steps
    reg = RegressionConditional.of(paths, degree)
    n_fit = np.empty((m, ksteps + 1) + h.shape[1:])
    n_fit[:, ksteps] = h
    for k in range(ksteps):
        n_fit[:, k] = reg.fit_predict(k, h)
    z_tilde = np.empty((m, ksteps) + h.shape[1:] + (paths.d,))
    for k in range(ksteps):
        z_tilde[:, k] = _increment_regression(reg, paths, n_fit[:, k + 1], k,
                                              base_values=n_fit[:, k])
    return n_fit, z_tilde


def _backward(paths: PathEnsemble, degree: int, terminal: np.ndarray,
              step: Callable) -> tuple:
    """Backward induction from Y_K = terminal (M, n); returns (y, z, drift).

    At each k from K-1 down, Z_k is the increment regression of Y_{k+1}
    centred at E_k[Y_{k+1}], and `step(k, E_k[Y_{k+1}], Z_k)` returns
    (Y_k, drift_k).
    """
    m, ksteps, n = paths.paths, paths.grid.steps, terminal.shape[-1]
    reg = RegressionConditional.of(paths, degree)
    y = np.empty((m, ksteps + 1, n))
    z = np.empty((m, ksteps, n, paths.d))
    drift = np.empty((m, ksteps, n))
    y[:, ksteps] = terminal
    for k in range(ksteps - 1, -1, -1):
        ey = reg.fit_predict(k, y[:, k + 1])
        z[:, k] = _increment_regression(reg, paths, y[:, k + 1], k, base_values=ey)
        y[:, k], drift[:, k] = step(k, ey, z[:, k])
    return y, z, drift


def _martingale_residuals(paths: PathEnsemble, y: np.ndarray, z: np.ndarray,
                          drift: np.ndarray) -> dict:
    """Conditional-moment residuals of the backward step, aggregated over paths.

    r_k = Y_k - Y_{k+1} - drift_k dt + Z_k dB_k has E_k[r] = 0 and
    E_k[r dB] = 0 in the exact discrete solution; the sample means of both
    moments are reported (the pathwise residual contains the unrepresentable
    part of the one-step martingale increment, which does not vanish).
    """
    dt = paths.grid.dt
    zdb = np.einsum("mkjd,mkd->mkj", z, paths.increments)
    r = y[:, :-1] - y[:, 1:] - drift * dt[None, :, None] + zdb
    mean_r = np.abs(r.mean(axis=0)).max()
    rdb = np.einsum("mkj,mkd->mkjd", r, paths.increments)
    mean_rdb = np.abs(rdb.mean(axis=0)).max() / dt.min()
    return {"moment_residual": float(mean_r), "moment_db_residual": float(mean_rdb)}


def _finish(spec: LinearBsdeSpec, paths: PathEnsemble, solver: str, y: np.ndarray,
            z: np.ndarray, beta: np.ndarray | None, extras: dict) -> SolutionEnsemble:
    """Drift A Z + beta, moment residuals and terminal mismatch of a solve.

    Every solver is a core, which returns (y, z, beta, extras), followed by
    this step; the Picard loop of `solve_perturbed` runs the core once per
    pass and this step once.  Keys of `extras` that it reads: "drift" (a
    drift the core already formed), "a_vals" (field values the core already
    holds, one array per step), "terminal_mismatch" (0 if absent) and
    "scalar_v" (the scalar V = b^T Z of the right-outer reduction, checked
    on the solution as "outer_identity_residual").  Every other key is a
    diagnostic of its own.
    """
    extras = dict(extras)
    drift = extras.pop("drift", None)
    a_vals = extras.pop("a_vals", None)
    if drift is None:
        if a_vals is None:
            a_vals = (spec.field.values(paths, k) for k in range(paths.grid.steps))
        drift = np.stack([contract_az(a_k, z[:, k]) for k, a_k in enumerate(a_vals)], axis=1)
        if beta is not None:
            drift += beta
    diags = _martingale_residuals(paths, y, z, drift)
    diags["terminal_mismatch"] = extras.pop("terminal_mismatch", 0.0)
    if "scalar_v" in extras:
        diags["outer_identity_residual"] = float(np.abs(
            np.einsum("j,mkjd->mkd", spec.field.b, z) - extras["scalar_v"]).mean())
    diags.update(extras)
    return SolutionEnsemble(spec, paths, y, z, solver, diags)


def _regression_core(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int) -> tuple:
    m, n = paths.paths, spec.n
    dt = paths.grid.dt
    beta = _beta_array(spec, paths)

    def step(k, ey, z_k):
        drift = contract_az(spec.field.values(paths, k), z_k)
        if beta is not None:
            drift += beta[:, k]
        return ey + drift * dt[k], drift

    y, z, drift = _backward(paths, degree,
                            np.asarray(spec.terminal(paths), dtype=float).reshape(m, n), step)
    return y, z, beta, {"drift": drift}


def solve_by_regression(spec: LinearBsdeSpec, paths: PathEnsemble,
                        degree: int = 3) -> SolutionEnsemble:
    """Backward least-squares induction on the discretized equation.

    Z_k = fitted E_k[(Y_{k+1} - E_k[Y_{k+1}]) dB_k]/dt (centered target for
    variance), Y_k = fitted E_k[Y_{k+1}] + (A_k Z_k + beta_k) dt; terminal
    condition exact by construction.
    """
    return _finish(spec, paths, "regression", *_regression_core(spec, paths, degree))


def _expo_core(spec: LinearBsdeSpec, expo: ExponentialEnsemble, degree: int) -> tuple:
    """Representation core given simulated (S, S^{-1})."""
    paths = expo.paths
    m, ksteps, n = paths.paths, paths.grid.steps, spec.n
    if expo.s_inv is None:
        raise ConfigurationError("representation solve needs the inverse ensemble")
    beta = _beta_array(spec, paths)
    xi = np.asarray(spec.terminal(paths), dtype=float).reshape(m, n)

    h = np.einsum("mij,mj->mi", expo.s[:, -1], xi)
    if beta is not None:
        h += np.einsum("mkij,mkj->mi", expo.s[:, :-1],
                       beta * paths.grid.dt[None, :, None])
    n_fit, z = _represent(paths, degree, h)

    y = np.einsum("mkij,mkj->mki", expo.s_inv, n_fit) - _prefix(paths, beta, (n,))
    terminal_mismatch = float(np.abs(y[:, ksteps] - xi).max())
    y[:, ksteps] = xi

    for k in range(ksteps):
        a_k = spec.field.values(paths, k)                                # (M, n, n, d)
        xn = np.einsum("mij,mj->mi", expo.s_inv[:, k], n_fit[:, k])      # Y + int beta
        z[:, k] = (np.einsum("mij,mjd->mid", expo.s_inv[:, k], z[:, k])
                   - np.einsum("mijd,mj->mid", a_k, xn))
    return y, z, beta, {"terminal_mismatch": terminal_mismatch}


def _gated_exponential(fld: CoefficientField, paths: PathEnsemble,
                       expo: ExponentialEnsemble | None = None) -> tuple:
    """(S with S^{-1}, worst group defect), simulated unless `expo` is given;
    raises RepresentationInvalidError past a defect of 0.1."""
    if expo is None:
        expo = simulate_exponential(fld, paths, inverse=True)
    worst = float(martingale_defect(expo).group_defect.max())
    if worst > 0.1:
        raise RepresentationInvalidError(
            f"representation invalid: S not a martingale at tolerance "
            f"(median group defect {worst:.4f} > 0.1)")
    return expo, worst


def _representation_core(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int,
                         gated: tuple) -> tuple:
    """Representation core given `_gated_exponential`'s (S, worst defect)."""
    expo, worst = gated
    y, z, beta, extras = _expo_core(spec, expo, degree)
    extras["martingale_defect"] = worst
    return y, z, beta, extras


def solve_by_representation(spec: LinearBsdeSpec, paths: PathEnsemble,
                            expo: ExponentialEnsemble | None = None,
                            degree: int = 3) -> SolutionEnsemble:
    """Solve via Y_t = S_t^{-1} E_t[S_T (xi + int_t^T beta du)].

    Refuses when the simulated exponential shows a median-of-groups
    martingale defect beyond 0.1 (the formula then solves the wrong equation).
    """
    return _finish(spec, paths, "representation",
                   *_representation_core(spec, paths, degree, _gated_exponential(
                       spec.field, paths, expo)))


def _scalar_weighted_solve(paths: PathEnsemble, coeff: np.ndarray, xi: np.ndarray,
                           beta: np.ndarray | None, degree: int = 3
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Scalar linear BSDE by exponential weights (no measure change).

    coeff: (M, K, d) bmo integrand; xi: (M,); beta: (M, K) or None.
    Returns (U (M, K+1), V (M, K, d)).  The weight is the closed-form scalar
    exponential of int coeff dB, which is strictly positive pathwise.
    """
    ksteps = paths.grid.steps
    weights = _scalar_exponential(paths, coeff)
    h = weights[:, -1] * xi
    if beta is not None:
        h += (weights[:, :-1] * beta * paths.grid.dt[None, :]).sum(axis=1)
    n_fit, v = _represent(paths, degree, h)
    u = n_fit / weights - _prefix(paths, beta, ())
    u[:, ksteps] = xi
    v /= weights[:, :-1, None]
    v -= coeff * (n_fit[:, :-1] / weights[:, :-1])[:, :, None]
    return u, v


def _triangular_core(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int) -> tuple:
    if spec.field.structure != "lower_triangular":
        raise ConfigurationError(
            f"triangular solver needs a lower_triangular field, got "
            f"{spec.field.structure!r}")
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    a_vals = [spec.field.values(paths, k) for k in range(ksteps)]
    if not spec.field.check_structure(a_vals[0], atol=1e-10):
        raise ConfigurationError("field values are not lower triangular")
    beta = _beta_array(spec, paths)
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
        u, v = _scalar_weighted_solve(paths, coeff, xi[:, i], known, degree)
        y[:, :, i] = u
        z[:, :, i, :] = v
    return y, z, beta, {"a_vals": a_vals}


def solve_triangular(spec: LinearBsdeSpec, paths: PathEnsemble,
                     degree: int = 3) -> SolutionEnsemble:
    """Sequential scalar reduction for lower-triangular fields.

    Row i sees sum_{j<i} A^i_j . Z^j as a known inhomogeneity, so each
    component is a scalar equation solved by exponential weights.
    """
    return _finish(spec, paths, "triangular", *_triangular_core(spec, paths, degree))


def _right_outer_core(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int) -> tuple:
    fld = spec.field
    if not isinstance(fld, RightOuterField) or fld.structure != "right_outer":
        raise ConfigurationError("right-outer solver needs a RightOuterField")
    m, ksteps, n = paths.paths, paths.grid.steps, spec.n
    dt = paths.grid.dt
    b = fld.b
    a_vals = _per_step(fld.a_values, paths)                          # (M, K, n, d)
    coeff = np.einsum("i,mkid->mkd", b, a_vals)
    beta = _beta_array(spec, paths)
    xi = np.asarray(spec.terminal(paths), dtype=float).reshape(m, n)
    eta = xi @ b
    beta_scalar = None if beta is None else np.einsum("mkj,j->mk", beta, b)
    u, v = _scalar_weighted_solve(paths, coeff, eta, beta_scalar, degree)

    # lifted equation: Y = xi + int (a V + beta) dt - int Z dB
    tilde = np.einsum("mkid,mkd->mki", a_vals, v)
    if beta is not None:
        tilde += beta
    h = xi + (tilde * dt[None, :, None]).sum(axis=1)
    n_fit, z = _represent(paths, degree, h)
    y = n_fit - _prefix(paths, tilde, (n,))
    y[:, ksteps] = xi
    return y, z, beta, {"scalar_v": v}


def solve_right_outer(spec: LinearBsdeSpec, paths: PathEnsemble,
                      degree: int = 3) -> SolutionEnsemble:
    """Reduction for A = a-field b^T: scalar solve for (U, V) = (b^T Y, b^T Z),
    then the lifted driverless equation with known drift a V.

    The identity V = b^T Z is re-checked on the produced solution and
    reported in diagnostics["outer_identity_residual"].
    """
    return _finish(spec, paths, "right_outer", *_right_outer_core(spec, paths, degree))


def left_outer_exponential(fld: LeftOuterField, paths: PathEnsemble) -> ExponentialEnsemble:
    """Closed-form S for A = a b-field^T.

    S a equals a times the scalar exponential of int (b^T a) dB, hence
    S = I + a m^T with dm = (scalar exponential) b dB; the inverse is the
    rank-one Sherman-Morrison form I - a m^T / (scalar exponential).
    """
    m, ksteps, n = paths.paths, paths.grid.steps, fld.n
    a = fld.a
    b_vals = _per_step(fld.b_values, paths)                          # (M, K, n, d)
    scal = _scalar_exponential(paths, np.einsum("i,mkid->mkd", a, b_vals))      # > 0
    m_vec = np.zeros((m, ksteps + 1, n))
    bdb = np.einsum("mkjd,mkd->mkj", b_vals, paths.increments)
    np.cumsum(scal[:, :-1, None] * bdb, axis=1, out=m_vec[:, 1:])
    eye = np.eye(n)
    s = eye[None, None] + np.einsum("i,mkj->mkij", a, m_vec)
    s_inv = eye[None, None] - np.einsum("i,mkj->mkij", a, m_vec) / scal[:, :, None, None]
    expo = ExponentialEnsemble(fld, paths, s, s_inv, scheme="closed_form")
    return expo


def _left_outer_core(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int) -> tuple:
    fld = spec.field
    if not isinstance(fld, LeftOuterField) or fld.structure != "left_outer":
        raise ConfigurationError("left-outer solver needs a LeftOuterField")
    y, z, beta, extras = _expo_core(spec, left_outer_exponential(fld, paths), degree)
    extras["scheme"] = "closed_form"
    return y, z, beta, extras


def solve_left_outer(spec: LinearBsdeSpec, paths: PathEnsemble,
                     degree: int = 3) -> SolutionEnsemble:
    """Representation solve with the closed-form exponential of a left-outer field."""
    return _finish(spec, paths, "left_outer", *_left_outer_core(spec, paths, degree))


# The core of each structural method and of regression; its public solver is
# the core followed by `_finish`.  The representation core also takes the
# gated exponential, which `solve_perturbed` forms once per solve.  No
# structure tag is called "regression", so `structure in _CORES` asks whether
# the field has a structural solver.
_CORES = {
    "regression": _regression_core,
    "lower_triangular": _triangular_core,
    "right_outer": _right_outer_core,
    "left_outer": _left_outer_core,
}

_SOLVERS = {
    "regression": solve_by_regression,
    "representation": solve_by_representation,
    "lower_triangular": solve_triangular,
    "right_outer": solve_right_outer,
    "left_outer": solve_left_outer,
}


def solve_perturbed(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int = 3,
                    tol: float = 1e-6, max_iters: int = 50,
                    base: str = "auto") -> SolutionEnsemble:
    """Picard iteration for BSDE(A + dA) with an optional alpha Y term.

    Each pass solves BSDE(A) with inhomogeneity beta + alpha Y^m + dA Z^m
    using the core of the structural solver matched to A's tag; the drift
    and the residual diagnostics are computed once, for the last pass, and
    a representation base simulates and gates its exponential once.
    Stops at relative residual < tol; a growing residual raises
    PicardDivergenceError, which is the numerical mirror of the perturbation
    being too large to slice.
    """
    if base == "auto":
        base = spec.field.structure if spec.field.structure in _CORES \
            else "representation"
    if base == "representation":
        # S and its defect gate do not depend on the pass
        core = partial(_representation_core, gated=_gated_exponential(spec.field, paths))
    else:
        core = _CORES[base]
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    beta = _beta_array(spec, paths)
    alpha = None if spec.alpha is None else _per_step(spec.alpha, paths)
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
        y, z, mod_beta, extras = core(mod_spec, paths, degree)
        resid = float(np.abs(y - y_prev).max() / (1.0 + np.abs(y).max()))
        history.append(resid)
        if resid < tol:
            break
        if len(history) >= 4 and history[-1] > history[-3] > history[-4]:
            raise PicardDivergenceError(
                f"perturbation too large (not sliceable at this scale); "
                f"residual history {history}")
        y_prev, z_prev = y, z
    else:
        if history[-1] >= tol:
            raise PicardDivergenceError(
                f"no convergence in {max_iters} iterations; history tail "
                f"{history[-3:]}")
    sol = _finish(mod_spec, paths, "perturbed", y, z, mod_beta, extras)
    sol.diagnostics["picard_history"] = history
    sol.diagnostics["picard_iterations"] = len(history)
    return sol


def solve_auto(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int = 3,
               method: str = "auto") -> SolutionEnsemble:
    """Dispatch on the declared structure / requested method.

    A spec with a perturbation (alpha or delta_field) is solved by
    `solve_perturbed` with the requested method as its base.
    """
    if spec.delta_field is not None or spec.alpha is not None:
        return solve_perturbed(spec, paths, degree=degree, base=method)
    if method == "auto":
        method = spec.field.structure if spec.field.structure in _CORES else "regression"
    return _SOLVERS[method](spec, paths, degree=degree)


def batch_y0(solver, spec: LinearBsdeSpec, paths: PathEnsemble, batches: int = 8,
             **kw) -> tuple[np.ndarray, np.ndarray]:
    """Y_0 estimate with a batch-split standard error.

    Runs the solver on `batches` disjoint path groups; returns
    (mean Y_0 over batches, std error per component).
    """
    m = paths.paths
    idx = np.array_split(np.arange(m), batches)
    vals = []
    for part in idx:
        sub = paths.subset(part)
        sol = solver(spec, sub, **kw)
        vals.append(sol.y[:, 0].mean(axis=0))
    vals = np.stack(vals)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(batches)


def estimate_solution_operator_norm(solver, make_spec, family, paths: PathEnsemble,
                                    q: float = np.inf, **kw) -> dict:
    """Empirical lower bound on the solution-operator norm over a test family.

    family: iterable of (name, terminal_fn, beta_fn-or-None).  The reported
    value max (||Y||_{S^q} + ||Z||) / (||xi||_{L^q} + ||beta||_{L^{1,q}}) is a
    lower bound on the true operator norm and is labeled as such.
    """
    family = list(family)
    if not family:
        raise ConfigurationError("empty test family")
    rows = []
    for name, term, beta_fn in family:
        spec = make_spec(term, beta_fn)
        sol = solver(spec, paths, **kw)
        xi = np.asarray(term(paths), dtype=float).reshape(paths.paths, -1)
        xi_size = np.sqrt((xi * xi).sum(axis=1))
        xin = float(xi_size.max() if np.isinf(q) else (xi_size**q).mean() ** (1.0 / q))
        norms = sol.norm_report(q)
        ynorm, znorm = norms["y"].value, norms["z"].value
        bnorm = 0.0
        if beta_fn is not None:
            bnorm = estimate_norm("l1q", _per_step(beta_fn, paths), paths, q=q).value
        denom = xin + bnorm
        rows.append({"name": name, "ratio": (ynorm + znorm) / denom if denom else np.inf,
                     "y_norm": ynorm, "z_norm": znorm, "xi_norm": xin, "beta_norm": bnorm})
    best = max(rows, key=lambda r: r["ratio"])
    return {"operator_norm_lower_bound": best["ratio"], "attained_by": best["name"],
            "q": q, "rows": rows}
