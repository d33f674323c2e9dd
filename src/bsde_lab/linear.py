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
which the quadratic solver runs with its inner Picard step.  The last two
hold their working arrays node-major, (K+1, M, ...), so each per-step fit
reads and writes one contiguous node, and return C-contiguous path-major
copies.  Each method in `_METHODS` checks its field and does its per-solve
work once (the gated exponential; the field values, coefficients and scalar
exponential weights of the triangular and right-outer reductions), then
returns a core that takes the terminal (M, n) and the inhomogeneity
(M, K, n) as arrays, formed once per solve.
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
                          base_values: np.ndarray) -> np.ndarray:
    """Fitted E_k[next_values dB_k] / dt, shape (M, ..., d).

    Subtracting `base_values` (any F_{t_k}-measurable centering, typically
    the fitted one-step conditional mean) leaves the expectation unchanged
    and cuts the target variance from Var(next)/dt to O(|Z|^2).
    """
    db = paths.increments[:, k]                      # (M, d)
    centered = next_values - base_values
    target = centered[..., None] * db[(slice(None),) + (None,) * (centered.ndim - 1)]
    return reg.fit_predict(k, target) / paths.grid.dt[k]


def _represent(paths: PathEnsemble, degree: int, h: np.ndarray) -> tuple:
    """The martingale representation of an F_T-measurable h: (N, Z~).

    N_k is the fitted E_k[h] with N_K = h, shape (M, K+1, ...), and Z~_k is
    the increment regression of N_{k+1} centred at N_k, written into one
    (M, K, ..., d) array that callers turn into their Z in place.  Both are
    built node-major, so each fit reads and writes one contiguous node, then
    each is copied once into the C-contiguous path-major array returned, its
    node-major buffer freed before the next copy: at most one array is held
    twice.
    """
    ksteps = paths.grid.steps
    reg = RegressionConditional.of(paths, degree)
    n_fit = np.empty((ksteps + 1,) + h.shape)
    n_fit[ksteps] = h
    for k in range(ksteps):
        n_fit[k] = reg.fit_predict(k, h)
    z_tilde = np.empty((ksteps,) + h.shape + (paths.d,))
    for k in range(ksteps):
        z_tilde[k] = _increment_regression(reg, paths, n_fit[k + 1], k, base_values=n_fit[k])
    n_fit = np.ascontiguousarray(n_fit.swapaxes(0, 1))
    z_tilde = np.ascontiguousarray(z_tilde.swapaxes(0, 1))
    return n_fit, z_tilde


def _backward(paths: PathEnsemble, degree: int, terminal: np.ndarray,
              step: Callable) -> tuple:
    """Backward induction from Y_K = terminal (M, n); returns (y, z, drift).

    At each k from K-1 down, Z_k is the increment regression of Y_{k+1}
    centred at E_k[Y_{k+1}], and `step(k, E_k[Y_{k+1}], Z_k)` returns
    (Y_k, drift_k).  Y, Z and the drift are held node-major, (K+1, M, n),
    (K, M, n, d) and (K, M, n), so each step reads and writes contiguous
    nodes; then each is copied once into the C-contiguous path-major array
    returned, its node-major buffer freed before the next copy: at most one
    array is held twice.
    """
    m, ksteps, n = paths.paths, paths.grid.steps, terminal.shape[-1]
    reg = RegressionConditional.of(paths, degree)
    y = np.empty((ksteps + 1, m, n))
    z = np.empty((ksteps, m, n, paths.d))
    drift = np.empty((ksteps, m, n))
    y[ksteps] = terminal
    for k in range(ksteps - 1, -1, -1):
        ey = reg.fit_predict(k, y[k + 1])
        z[k] = _increment_regression(reg, paths, y[k + 1], k, base_values=ey)
        y[k], drift[k] = step(k, ey, z[k])
    y = np.ascontiguousarray(y.swapaxes(0, 1))
    z = np.ascontiguousarray(z.swapaxes(0, 1))
    drift = np.ascontiguousarray(drift.swapaxes(0, 1))
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


def _finish(fld: CoefficientField | None, paths: PathEnsemble, solver: str, y: np.ndarray,
            z: np.ndarray, beta: np.ndarray | None, extras: dict) -> SolutionEnsemble:
    """Drift A Z + beta, moment residuals and terminal mismatch of a solve.

    Every solve runs a core, which returns (y, z, extras), then this step;
    the Picard loop of `solve_perturbed` runs the core once per pass and this
    step once.  Keys of `extras` that it reads: "drift" (A Z + beta as the
    core already formed it, with which `fld` may be None), "a_vals" (field
    values the core already holds, one array per step), "terminal_mismatch"
    (0 if absent) and "scalar_v" (the scalar V = b^T Z of the right-outer
    reduction, checked on the solution as "outer_identity_residual").  Every
    other key is a diagnostic of its own.
    """
    extras = dict(extras)
    drift = extras.pop("drift", None)
    a_vals = extras.pop("a_vals", None)
    if drift is None:
        if a_vals is None:
            a_vals = (fld.values(paths, k) for k in range(paths.grid.steps))
        drift = np.stack([contract_az(a_k, z[:, k]) for k, a_k in enumerate(a_vals)], axis=1)
        if beta is not None:
            drift += beta
    diags = _martingale_residuals(paths, y, z, drift)
    diags["terminal_mismatch"] = extras.pop("terminal_mismatch", 0.0)
    if "scalar_v" in extras:
        diags["outer_identity_residual"] = float(np.abs(
            np.einsum("j,mkjd->mkd", fld.b, z) - extras["scalar_v"]).mean())
    diags.update(extras)
    return SolutionEnsemble(paths, y, z, solver, diags)


# A method takes (field, paths, degree), does the work that no Picard pass
# changes (checks, field values, exponentials and weights), and returns its
# core: (xi (M, n), beta (M, K, n) | None) -> (y, z, extras), which
# `solve_perturbed` runs once per pass.

def _regression(fld: CoefficientField, paths: PathEnsemble, degree: int) -> Callable:
    dt = paths.grid.dt

    def core(xi, beta):
        def step(k, ey, z_k):
            drift = contract_az(fld.values(paths, k), z_k)
            if beta is not None:
                drift += beta[:, k]
            return ey + drift * dt[k], drift

        y, z, drift = _backward(paths, degree, xi, step)
        return y, z, {"drift": drift}
    return core


def _expo_core(fld: CoefficientField, expo: ExponentialEnsemble, degree: int, diags: dict,
               xi: np.ndarray, beta: np.ndarray | None) -> tuple:
    """Representation core given (S, S^{-1}); `diags` are added to its extras."""
    paths = expo.paths
    ksteps = paths.grid.steps
    h = np.einsum("mij,mj->mi", expo.s[:, -1], xi)
    if beta is not None:
        h += np.einsum("mkij,mkj->mi", expo.s[:, :-1],
                       beta * paths.grid.dt[None, :, None])
    n_fit, z = _represent(paths, degree, h)

    y = np.einsum("mkij,mkj->mki", expo.s_inv, n_fit) - _prefix(paths, beta, (fld.n,))
    terminal_mismatch = float(np.abs(y[:, ksteps] - xi).max())
    y[:, ksteps] = xi

    # each node's field values serve Z_k and then the drift A_k Z_k
    drift = np.empty((paths.paths, ksteps, fld.n))
    for k in range(ksteps):
        a_k = fld.values(paths, k)                                       # (M, n, n, d)
        xn = np.einsum("mij,mj->mi", expo.s_inv[:, k], n_fit[:, k])      # Y + int beta
        z[:, k] = (np.einsum("mij,mjd->mid", expo.s_inv[:, k], z[:, k])
                   - np.einsum("mijd,mj->mid", a_k, xn))
        drift[:, k] = contract_az(a_k, z[:, k])
    if beta is not None:
        drift += beta
    return y, z, {"drift": drift, "terminal_mismatch": terminal_mismatch, **diags}


def _representation(fld: CoefficientField, paths: PathEnsemble, degree: int,
                    expo: ExponentialEnsemble | None = None) -> Callable:
    """The representation core bound to S with S^{-1}, simulated unless `expo`
    is given and gated here, once: RepresentationInvalidError past a worst
    group martingale defect of 0.1."""
    if expo is None:
        expo = simulate_exponential(fld, paths, reads=("s", "s_inv"))
    worst = float(martingale_defect(expo).group_defect.max())
    if worst > 0.1:
        raise RepresentationInvalidError(
            f"representation invalid: S not a martingale at tolerance "
            f"(median group defect {worst:.4f} > 0.1)")
    if expo.s_inv is None:
        raise ConfigurationError("representation solve needs the inverse ensemble")
    return partial(_expo_core, fld, expo, degree, {"martingale_defect": worst})


def solve_by_representation(spec: LinearBsdeSpec, paths: PathEnsemble,
                            expo: ExponentialEnsemble | None = None,
                            degree: int = 3) -> SolutionEnsemble:
    """Solve via Y_t = S_t^{-1} E_t[S_T (xi + int_t^T beta du)].

    Refuses when the simulated exponential shows a median-of-groups
    martingale defect beyond 0.1 (the formula then solves the wrong equation).
    """
    return _solve(spec, paths, degree, "representation", expo=expo)


def _scalar_weighted_solve(paths: PathEnsemble, coeff: np.ndarray, weights: np.ndarray,
                           xi: np.ndarray, beta: np.ndarray | None,
                           degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Scalar linear BSDE by exponential weights (no measure change).

    coeff: (M, K, d) bmo integrand; weights: its `_scalar_exponential`
    (M, K+1), strictly positive pathwise, formed once per solve by the caller;
    xi: (M,); beta: (M, K) or None.  Returns (U (M, K+1), V (M, K, d)).
    """
    ksteps = paths.grid.steps
    h = weights[:, -1] * xi
    if beta is not None:
        h += (weights[:, :-1] * beta * paths.grid.dt[None, :]).sum(axis=1)
    n_fit, v = _represent(paths, degree, h)
    u = n_fit / weights - _prefix(paths, beta, ())
    u[:, ksteps] = xi
    v /= weights[:, :-1, None]
    v -= coeff * (n_fit[:, :-1] / weights[:, :-1])[:, :, None]
    return u, v


def _triangular(fld: CoefficientField, paths: PathEnsemble, degree: int) -> Callable:
    if fld.structure != "lower_triangular":
        raise ConfigurationError(
            f"triangular solver needs a lower_triangular field, got {fld.structure!r}")
    m, ksteps, n, d = paths.paths, paths.grid.steps, fld.n, paths.d
    a_vals = [fld.values(paths, k) for k in range(ksteps)]
    upper = np.triu_indices(n, k=1)
    if not np.all(np.abs(a_vals[0][:, upper[0], upper[1], :]) <= 1e-10):
        raise ConfigurationError("field values are not lower triangular")
    coeffs = [np.stack([a_k[:, i, i, :] for a_k in a_vals], axis=1) for i in range(n)]
    weights = [_scalar_exponential(paths, coeff) for coeff in coeffs]

    def core(xi, beta):
        y = np.empty((m, ksteps + 1, n))
        z = np.empty((m, ksteps, n, d))
        for i in range(n):
            known = np.zeros((m, ksteps))
            for j in range(i):
                known += np.stack(
                    [(a_vals[k][:, i, j, :] * z[:, k, j, :]).sum(axis=1)
                     for k in range(ksteps)], axis=1)
            if beta is not None:
                known += beta[:, :, i]
            u, v = _scalar_weighted_solve(paths, coeffs[i], weights[i], xi[:, i], known,
                                          degree)
            y[:, :, i] = u
            z[:, :, i, :] = v
        return y, z, {"a_vals": a_vals}
    return core


def solve_triangular(spec: LinearBsdeSpec, paths: PathEnsemble,
                     degree: int = 3) -> SolutionEnsemble:
    """Sequential scalar reduction for lower-triangular fields.

    Row i sees sum_{j<i} A^i_j . Z^j as a known inhomogeneity, so each
    component is a scalar equation solved by exponential weights.
    """
    return _solve(spec, paths, degree, "lower_triangular")


def _right_outer(fld: CoefficientField, paths: PathEnsemble, degree: int) -> Callable:
    if not isinstance(fld, RightOuterField) or fld.structure != "right_outer":
        raise ConfigurationError("right-outer solver needs a RightOuterField")
    ksteps, n = paths.grid.steps, fld.n
    dt = paths.grid.dt
    a_vals = _per_step(fld.a_values, paths)                          # (M, K, n, d)
    coeff = np.einsum("i,mkid->mkd", fld.b, a_vals)
    weights = _scalar_exponential(paths, coeff)

    def core(xi, beta):
        eta = xi @ fld.b
        beta_scalar = None if beta is None else np.einsum("mkj,j->mk", beta, fld.b)
        _, v = _scalar_weighted_solve(paths, coeff, weights, eta, beta_scalar, degree)

        # lifted equation: Y = xi + int (a V + beta) dt - int Z dB
        tilde = np.einsum("mkid,mkd->mki", a_vals, v)
        if beta is not None:
            tilde += beta
        h = xi + (tilde * dt[None, :, None]).sum(axis=1)
        n_fit, z = _represent(paths, degree, h)
        y = n_fit - _prefix(paths, tilde, (n,))
        y[:, ksteps] = xi
        return y, z, {"scalar_v": v}
    return core


def solve_right_outer(spec: LinearBsdeSpec, paths: PathEnsemble,
                      degree: int = 3) -> SolutionEnsemble:
    """Reduction for A = a-field b^T: scalar solve for (U, V) = (b^T Y, b^T Z),
    then the lifted driverless equation with known drift a V.

    The identity V = b^T Z is re-checked on the produced solution and
    reported in diagnostics["outer_identity_residual"].
    """
    return _solve(spec, paths, degree, "right_outer")


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
    return ExponentialEnsemble(fld, paths, s, s_inv)


def _left_outer(fld: CoefficientField, paths: PathEnsemble, degree: int) -> Callable:
    if not isinstance(fld, LeftOuterField) or fld.structure != "left_outer":
        raise ConfigurationError("left-outer solver needs a LeftOuterField")
    return partial(_expo_core, fld, left_outer_exponential(fld, paths), degree,
                   {"scheme": "closed_form"})


def solve_left_outer(spec: LinearBsdeSpec, paths: PathEnsemble,
                     degree: int = 3) -> SolutionEnsemble:
    """Representation solve with the closed-form exponential of a left-outer field."""
    return _solve(spec, paths, degree, "left_outer")


# method -> (solver tag of its solution, method).  The structural methods are
# keyed by the structure tag they need, so "auto" takes the field's own.
_STRUCTURAL = {
    "lower_triangular": ("triangular", _triangular),
    "right_outer": ("right_outer", _right_outer),
    "left_outer": ("left_outer", _left_outer),
}
_METHODS = {"regression": ("regression", _regression),
            "representation": ("representation", _representation), **_STRUCTURAL}


def _terminal(spec: LinearBsdeSpec, paths: PathEnsemble) -> np.ndarray:
    return np.asarray(spec.terminal(paths), dtype=float).reshape(paths.paths, spec.n)


def _solve(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int, method: str,
           **kw) -> SolutionEnsemble:
    """One solve by `method`, whose keyword arguments are `kw`."""
    tag, make = _METHODS[method]
    beta = _beta_array(spec, paths)
    y, z, extras = make(spec.field, paths, degree, **kw)(_terminal(spec, paths), beta)
    return _finish(spec.field, paths, tag, y, z, beta, extras)


def solve_by_regression(spec: LinearBsdeSpec, paths: PathEnsemble,
                        degree: int = 3) -> SolutionEnsemble:
    """Backward least-squares induction on the discretized equation.

    Z_k = fitted E_k[(Y_{k+1} - E_k[Y_{k+1}]) dB_k]/dt (centered target for
    variance), Y_k = fitted E_k[Y_{k+1}] + (A_k Z_k + beta_k) dt; terminal
    condition exact by construction.
    """
    return _solve(spec, paths, degree, "regression")


def solve_perturbed(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int = 3,
                    tol: float = 1e-6, max_iters: int = 50,
                    base: str = "auto") -> SolutionEnsemble:
    """Picard iteration for BSDE(A + dA) with an optional alpha Y term.

    Each pass hands the core of the method `base` ("auto": the structural
    method of A's tag, else representation) the inhomogeneity array
    beta + alpha Y^m + dA Z^m; the method's own work (a representation base
    simulates and gates S) and the drift and residual diagnostics of the
    last pass are done once.  Stops at relative residual < tol; a growing
    residual raises PicardDivergenceError, which is the numerical mirror of
    the perturbation being too large to slice.
    """
    fld = spec.field
    if base == "auto":
        base = fld.structure if fld.structure in _STRUCTURAL else "representation"
    core = _METHODS[base][1](fld, paths, degree)
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    xi = _terminal(spec, paths)
    beta = _beta_array(spec, paths)
    alpha = None if spec.alpha is None else [
        np.asarray(spec.alpha(paths, k), dtype=float) for k in range(ksteps)]
    da_vals = None if spec.delta_field is None else [
        spec.delta_field.values(paths, k) for k in range(ksteps)]

    y_prev = np.zeros((m, ksteps + 1, n))
    z_prev = np.zeros((m, ksteps, n, d))
    history = []
    for it in range(max_iters):
        mod = np.zeros((m, ksteps, n))
        if beta is not None:
            mod += beta
        for k in range(ksteps):
            if alpha is not None:
                mod[:, k] += np.einsum("mij,mj->mi", alpha[k], y_prev[:, k])
            if da_vals is not None:
                mod[:, k] += contract_az(da_vals[k], z_prev[:, k])
        y, z, extras = core(xi, mod)
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
    sol = _finish(fld, paths, "perturbed", y, z, mod, extras)
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
        method = spec.field.structure if spec.field.structure in _STRUCTURAL else "regression"
    return _solve(spec, paths, degree, method)


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
