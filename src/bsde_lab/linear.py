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
run from node K-1 back to 0 and make both fits of a node in one visit, so
the two share the node's regression basis.  Y, Z and the inhomogeneity are
stored node-major and passed as path-major views (`_by_node`), so each node
slice is contiguous and no solution is copied between layouts.  Each method
in `_METHODS` checks its field and does its per-solve work once, then
returns a core that takes the terminal (M, n) and the inhomogeneity
(M, K, n), formed once per solve, and holds only what a later step reads.
The drift A Z + beta is formed and summed into the moment residuals one node
at a time (`_MomentSums`), never stored.  The diagnostics add the paths in
the order of the path-major whole-array reductions (`brownian._path_sum`).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from .brownian import PathEnsemble, _path_sum
from .exponential import ExponentialEnsemble, martingale_defect, simulate_exponential
from .fields import CoefficientField, LeftOuterField, RightOuterField
from .grids import ConfigurationError, check_choice
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
    diagnostics["terminal_mismatch"].  No drift is kept (see `_MomentSums`).
    """

    paths: PathEnsemble
    y: np.ndarray                  # (M, K+1, n), a view of node-major (K+1, M, n)
    z: np.ndarray                  # (M, K, n, d), a view of node-major (K, M, n, d)
    solver: str
    diagnostics: dict = dc_field(default_factory=dict)

    def norm_report(self, q: float = np.inf) -> dict:
        ynorm = estimate_norm("sup_p", self.y, self.paths, q=q)
        znorm = estimate_norm("bmo" if np.isinf(q) else "l2q", self.z, self.paths,
                              q=None if np.isinf(q) else q)
        return {"y": ynorm, "z": znorm}


def _by_node(m: int, nodes: int, tail: tuple, make=np.empty) -> np.ndarray:
    """A new (m, nodes) + tail array stored node-major: the path-major view of
    a `make`((nodes, m) + tail) array, so each node slice x[:, k] is contiguous."""
    return make((nodes, m) + tail).swapaxes(0, 1)


def path_means(x: np.ndarray) -> np.ndarray:
    """Path means of x (M, nodes, ...) at each node, shape (nodes, ...), one
    node at a time: the bits of x.mean(axis=0) on a path-major copy of x."""
    return np.concatenate([_path_sum(x[None, :, k], x[0].size)
                           for k in range(x.shape[1])]) / x.shape[0]


def _per_step(fn, paths: PathEnsemble) -> np.ndarray:
    """fn(paths, k) for every grid step k as one (M, K, ...) array (`_by_node`),
    each step written into it as it is formed."""
    out = None
    for k in range(paths.grid.steps):
        value = np.asarray(fn(paths, k), dtype=float)
        if out is None:
            out = _by_node(paths.paths, paths.grid.steps, value.shape[1:])
        out[:, k] = value
    return out


def _beta_array(spec: LinearBsdeSpec, paths: PathEnsemble) -> np.ndarray | None:
    return None if spec.beta is None else _per_step(spec.beta, paths)


def _minus_prefix(y: np.ndarray, terms) -> None:
    """y[:, k+1] -= terms_0 + ... + terms_k for the (M, ...) term of each step
    k, each formed as it is read and added in order, as np.cumsum adds them."""
    for k, run in enumerate(accumulate(terms)):
        y[:, k + 1] -= run


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
    the increment regression of N_{k+1} centred at N_k, shape (M, K, ..., d);
    callers turn both into their Y and Z in place.  One loop runs from K-1
    back to 0 and fits N_k and then Z~_k at each node, so both fits share the
    node's basis.  Both are `_by_node` arrays.
    """
    m, ksteps = paths.paths, paths.grid.steps
    reg = RegressionConditional.of(paths, degree)
    n_fit = _by_node(m, ksteps + 1, h.shape[1:])
    n_fit[:, ksteps] = h
    z_tilde = _by_node(m, ksteps, h.shape[1:] + (paths.d,))
    for k in range(ksteps - 1, -1, -1):
        n_fit[:, k] = reg.fit_predict(k, h)
        z_tilde[:, k] = _increment_regression(reg, paths, n_fit[:, k + 1], k,
                                              base_values=n_fit[:, k])
    return n_fit, z_tilde


def _backward(paths: PathEnsemble, degree: int, terminal: np.ndarray,
              step: Callable) -> tuple:
    """Backward induction from Y_K = terminal (M, n); returns (y, z, moments).

    At each k from K-1 down, Z_k is the increment regression of Y_{k+1}
    centred at E_k[Y_{k+1}], and `step(k, E_k[Y_{k+1}], Z_k)` returns
    (Y_k, drift_k).  Y (M, K+1, n) and Z (M, K, n, d) are `_by_node` arrays,
    so each step reads and writes contiguous nodes; the drift is not kept.
    """
    m, ksteps, n = paths.paths, paths.grid.steps, terminal.shape[-1]
    reg = RegressionConditional.of(paths, degree)
    y = _by_node(m, ksteps + 1, (n,))
    z = _by_node(m, ksteps, (n, paths.d))
    moments = _MomentSums(paths)
    y[:, ksteps] = terminal
    for k in range(ksteps - 1, -1, -1):
        ey = reg.fit_predict(k, y[:, k + 1])
        z[:, k] = _increment_regression(reg, paths, y[:, k + 1], k, base_values=ey)
        y[:, k], drift = step(k, ey, z[:, k])
        moments.add(k, y, z, drift)
    return y, z, moments.means()


class _MomentSums:
    """Conditional-moment residuals of the backward step, fed one node at a time.

    r_k = Y_k - Y_{k+1} - drift_k dt + Z_k dB_k has E_k[r] = 0 and
    E_k[r dB] = 0 in the exact discrete solution; `means` reports the largest
    absolute sample means of both over the nodes.  `add(k, ...)` takes node k,
    in any order, once Y_k and Y_{k+1} are final, and sums over the paths by
    `_path_sum`: the bits of the whole arrays (a NaN mean stays NaN)."""

    def __init__(self, paths: PathEnsemble):
        self.paths, self.dt, self.max_r, self.max_rdb = paths, paths.grid.dt, 0.0, 0.0

    def add(self, k: int, y: np.ndarray, z: np.ndarray, drift_k: np.ndarray) -> None:
        inc, row, m = self.paths.increments[:, k], self.dt.size * y.shape[-1], self.paths.paths
        r = y[:, k] - y[:, k + 1]
        r -= drift_k * self.dt[k]
        r += np.einsum("mjd,md->mj", z[:, k], inc)
        rdb = _path_sum(np.einsum("mj,md->mjd", r, inc)[None], row * inc.shape[-1])[0]
        self.max_r = np.maximum(self.max_r, np.abs(_path_sum(r[None], row)[0] / m).max())
        self.max_rdb = np.maximum(self.max_rdb, np.abs(rdb / m).max())

    def means(self) -> dict:
        return {"moment_residual": float(self.max_r),
                "moment_db_residual": float(self.max_rdb / self.dt.min())}


def _finish(fld: CoefficientField | None, paths: PathEnsemble, solver: str, y: np.ndarray,
            z: np.ndarray, beta: np.ndarray | None, extras: dict) -> SolutionEnsemble:
    """Moment residuals, terminal mismatch and outer identity of a solve.

    Every solve runs a core, which returns (y, z, extras), then this step;
    the Picard loop of `solve_perturbed` runs the core once per pass and this
    step once.  The extras are diagnostics; those it reads are the moment
    residuals (`_MomentSums.means`) of a core that formed the drift, with
    which `fld` may be None (otherwise the field is evaluated again for the
    drift, one node at a time), "terminal_mismatch" (0 if absent) and
    "scalar_v" (the scalar V = b^T Z of the right-outer reduction, checked
    on the solution as "outer_identity_residual").
    """
    diags = {"terminal_mismatch": 0.0, **extras}
    if "moment_residual" not in diags:
        moments = _MomentSums(paths)
        for k in range(z.shape[1]):
            drift = contract_az(fld.values(paths, k), z[:, k])
            if beta is not None:
                drift += beta[:, k]
            moments.add(k, y, z, drift)
        diags.update(moments.means())
    if "scalar_v" in diags:         # path-major: the mean adds in memory order
        gap = np.einsum("j,mkjd->mkd", fld.b, z, out=np.empty(diags["scalar_v"].shape))
        gap -= diags["scalar_v"]
        diags["outer_identity_residual"] = float(np.abs(gap, out=gap).mean())
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

        return _backward(paths, degree, xi, step)
    return core


def _expo_core(fld: CoefficientField, paths: PathEnsemble, s_at: Callable, inv_at: Callable,
               degree: int, diags: dict, xi: np.ndarray, beta: np.ndarray | None) -> tuple:
    """Representation core given S_k = s_at(k) and S_k^{-1} = inv_at(k), (M, n, n)
    each, read node by node; Y and Z are written over N and Z~, and `diags`
    are added to its extras."""
    ksteps, n, dt = paths.grid.steps, fld.n, paths.grid.dt
    h = np.einsum("mij,mj->mi", s_at(ksteps), xi)
    if beta is not None:
        # at n = 1 einsum adds each path's contiguous steps as one dot product,
        # so S_k and beta dt are gathered into path-major rows; else node by node
        if n == 1:
            h += np.einsum("mkij,mkj->mi", np.stack([s_at(k) for k in range(ksteps)], axis=1),
                           np.multiply(beta, dt[None, :, None], out=np.empty(beta.shape)))
        else:
            h += sum((np.einsum("mij,mj->mi", s_at(k), beta[:, k] * dt[k])
                      for k in range(ksteps)), np.zeros_like(h))
    y, z = _represent(paths, degree, h)

    moments = _MomentSums(paths)
    run = None                                      # sum_{j < k} beta_j dt_j
    for k in range(ksteps):
        inv, a_k = inv_at(k), fld.values(paths, k)                       # a_k (M, n, n, d)
        xn = np.einsum("mij,mj->mi", inv, y[:, k])                       # Y + int beta
        z[:, k] = (np.einsum("mij,mjd->mid", inv, z[:, k])
                   - np.einsum("mijd,mj->mid", a_k, xn))
        y[:, k] = xn if run is None else xn - run
        if k:                                       # Y_k final: node k-1's moments
            moments.add(k - 1, y, z, drift)
        drift = contract_az(a_k, z[:, k])
        if beta is not None:
            drift += beta[:, k]
            run = beta[:, k] * dt[k] if run is None else run + beta[:, k] * dt[k]
    xn = np.einsum("mij,mj->mi", inv_at(ksteps), y[:, ksteps])
    terminal_mismatch = float(np.abs((xn if run is None else xn - run) - xi).max())
    y[:, ksteps] = xi
    moments.add(ksteps - 1, y, z, drift)
    return y, z, {**moments.means(), "terminal_mismatch": terminal_mismatch, **diags}


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
    return partial(_expo_core, fld, expo.paths, lambda k: expo.s[:, k],
                   lambda k: expo.s_inv[:, k], degree, {"martingale_defect": worst})


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
    (M, K+1), strictly positive pathwise, formed by the caller;
    xi: (M,); beta: (M, K) C-contiguous (each path's steps sum as one row), or
    None.  Returns (U (M, K+1), V (M, K, d)).
    """
    ksteps, dt = paths.grid.steps, paths.grid.dt
    h = weights[:, -1] * xi
    if beta is not None:
        terms = weights[:, :-1] * beta
        h += np.multiply(terms, dt[None, :], out=terms).sum(axis=1)
        del terms
    u, v = _represent(paths, degree, h)
    u /= weights                                         # N / w, then U in place
    v /= weights[:, :-1, None]
    v -= coeff * u[:, :-1, None]
    if beta is not None:
        _minus_prefix(u, (beta[:, k] * dt[k] for k in range(ksteps)))
    u[:, ksteps] = xi
    return u, v


def _triangular(fld: CoefficientField, paths: PathEnsemble, degree: int) -> Callable:
    """Keeps the diagonal and strictly lower field entries, which the solves
    read, not their weights; `_finish` evaluates the field again for the drift."""
    if fld.structure != "lower_triangular":
        raise ConfigurationError(
            f"triangular solver needs a lower_triangular field, got {fld.structure!r}")
    m, ksteps, n, d = paths.paths, paths.grid.steps, fld.n, paths.d
    rows, cols = np.tril_indices(n, k=-1)
    coeffs = np.empty((n, m, ksteps, d))                 # row i: its (M, K, d) coefficient
    lower = _by_node(m, ksteps, (rows.size, d))          # A^i_j, j < i, in tril order
    for k in range(ksteps):
        a_k = fld.values(paths, k)
        if k == 0 and not np.all(np.abs(a_k[:, cols, rows, :]) <= 1e-10):
            raise ConfigurationError("field values are not lower triangular")
        coeffs[:, :, k] = np.einsum("miid->imd", a_k)
        lower[:, k] = a_k[:, rows, cols, :]

    def core(xi, beta):
        y = _by_node(m, ksteps + 1, (n,))
        z = _by_node(m, ksteps, (n, d))
        for i in range(n):
            known = np.zeros((m, ksteps))
            for p in np.flatnonzero(rows == i):
                for k in range(ksteps):
                    known[:, k] += (lower[:, k, p] * z[:, k, cols[p]]).sum(axis=1)
            if beta is not None:
                known += beta[:, :, i]
            y[:, :, i], z[:, :, i, :] = _scalar_weighted_solve(
                paths, coeffs[i], _scalar_exponential(paths, coeffs[i]), xi[:, i], known,
                degree)
        return y, z, {}
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
    m, ksteps, n, dt = paths.paths, paths.grid.steps, fld.n, paths.grid.dt
    a_vals = _per_step(fld.a_values, paths)                          # (M, K, n, d)
    coeff = np.einsum("i,mkid->mkd", fld.b, a_vals)
    weights = _scalar_exponential(paths, coeff)

    def core(xi, beta):
        beta_scalar = None if beta is None else np.einsum(
            "mkj,j->mk", beta, fld.b, out=np.empty((m, ksteps)))
        v = _scalar_weighted_solve(paths, coeff, weights, xi @ fld.b, beta_scalar, degree)[1]
        del beta_scalar                                  # read no more

        # lifted Y = xi + int tilde dt - int Z dB, tilde_k = a_k V_k + beta_k per node
        def tilde_dt(k):
            tilde = np.einsum("mid,md->mi", a_vals[:, k], v[:, k])
            return (tilde if beta is None else tilde + beta[:, k]) * dt[k]
        # .sum(axis=1) adds a path's steps in order, or pairwise at n = 1
        h = (sum(map(tilde_dt, range(1, ksteps)), tilde_dt(0)) if n > 1 else
             np.stack([tilde_dt(k) for k in range(ksteps)], axis=1).sum(axis=1))
        y, z = _represent(paths, degree, xi + h)
        _minus_prefix(y, map(tilde_dt, range(ksteps)))
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


def _left_outer_nodes(fld: LeftOuterField, paths: PathEnsemble) -> tuple:
    """(s_at, inv_at): S_k = I + a m_k^T and S_k^{-1} = I - a m_k^T / e_k, each
    (M, n, n), formed when called, from the factors m (M, K+1, n), dm = e b dB
    from m_0 = 0, and e (M, K+1), the scalar exponential of int (b^T a) dB."""
    b_vals = _per_step(fld.b_values, paths)                          # (M, K, n, d)
    scal = _scalar_exponential(paths, np.einsum("i,mkid->mkd", fld.a, b_vals))  # > 0
    m_vec = np.zeros((paths.paths, paths.grid.steps + 1, fld.n))
    bdb = np.einsum("mkjd,mkd->mkj", b_vals, paths.increments)
    del b_vals
    bdb *= scal[:, :-1, None]
    np.cumsum(bdb, axis=1, out=m_vec[:, 1:])
    eye = np.eye(fld.n)

    def s_at(k):
        s = np.einsum("i,mj->mij", fld.a, m_vec[:, k])
        s += eye
        return s

    def inv_at(k):
        s_inv = np.einsum("i,mj->mij", fld.a, m_vec[:, k])
        s_inv /= scal[:, k, None, None]
        return np.subtract(eye, s_inv, out=s_inv)
    return s_at, inv_at


def left_outer_exponential(fld: LeftOuterField, paths: PathEnsemble) -> ExponentialEnsemble:
    """Closed-form S for A = a b-field^T, as whole (M, K+1, n, n) arrays.

    S a equals a times the scalar exponential e of int (b^T a) dB, hence
    S = I + a m^T with dm = e b dB; the inverse is the rank-one
    Sherman-Morrison form I - a m^T / e.  Both are filled node by node by
    `_left_outer_nodes`, which the left-outer solve reads one node at a time
    instead, so that it forms neither whole array.
    """
    s_at, inv_at = _left_outer_nodes(fld, paths)
    shape = (paths.paths, paths.grid.steps + 1, fld.n, fld.n)
    s, s_inv = np.empty(shape), np.empty(shape)
    for k in range(shape[1]):
        s[:, k], s_inv[:, k] = s_at(k), inv_at(k)
    return ExponentialEnsemble(fld, paths, s, s_inv)


def _left_outer(fld: CoefficientField, paths: PathEnsemble, degree: int) -> Callable:
    if not isinstance(fld, LeftOuterField) or fld.structure != "left_outer":
        raise ConfigurationError("left-outer solver needs a LeftOuterField")
    return partial(_expo_core, fld, paths, *_left_outer_nodes(fld, paths), degree,
                   {"scheme": "closed_form"})


def solve_left_outer(spec: LinearBsdeSpec, paths: PathEnsemble,
                     degree: int = 3) -> SolutionEnsemble:
    """Representation solve with the closed-form exponential of a left-outer field."""
    return _solve(spec, paths, degree, "left_outer")


# method -> (solver tag of its solution, method).  Its keys, in this order,
# are the linear config's methods after "auto" (`cli.CONFIG_SCHEMAS`), and a
# solve by any other name is refused with them.  A structural method is
# keyed by the structure tag it needs, and no structure tag names another
# method, so "auto" is the field's tag if it is a key here.
_METHODS = {"regression": ("regression", _regression),
            "representation": ("representation", _representation),
            "lower_triangular": ("triangular", _triangular),
            "right_outer": ("right_outer", _right_outer),
            "left_outer": ("left_outer", _left_outer)}


def _terminal(spec: LinearBsdeSpec, paths: PathEnsemble) -> np.ndarray:
    return np.asarray(spec.terminal(paths), dtype=float).reshape(paths.paths, spec.n)


def _solve(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int, method: str,
           **kw) -> SolutionEnsemble:
    """One solve by `method`, whose keyword arguments are `kw`."""
    check_choice("linear method", method, _METHODS)
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


# Picard passes solve_perturbed may take before it gives up.
_MAX_PASSES = 50


def solve_perturbed(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int = 3,
                    tol: float = 1e-6, base: str = "auto") -> SolutionEnsemble:
    """Picard iteration for BSDE(A + dA) with an optional alpha Y term.

    Each pass hands the core of the method `base` ("auto": A's structure
    tag if `_METHODS` has it, else representation) the inhomogeneity array
    beta + alpha Y^m + dA Z^m; the method's own work (a representation base
    simulates and gates S) is done once, and `_finish` once, on the last
    pass.  Stops at relative residual < tol; a growing residual raises
    PicardDivergenceError, which is the numerical mirror of the perturbation
    being too large to slice, and so do a non-finite residual, on its own
    pass, and _MAX_PASSES passes without a stop.  Every pass forms the
    inhomogeneity in one buffer, and |Y - Y^m| and |Y| in the spent Y^m,
    freed before `_finish`.
    """
    fld = spec.field
    if base == "auto":
        base = fld.structure if fld.structure in _METHODS else "representation"
    check_choice("linear method", base, _METHODS)
    core = _METHODS[base][1](fld, paths, degree)
    m, ksteps, n, d = paths.paths, paths.grid.steps, spec.n, paths.d
    xi = _terminal(spec, paths)
    beta = _beta_array(spec, paths)
    alpha = None if spec.alpha is None else [
        np.asarray(spec.alpha(paths, k), dtype=float) for k in range(ksteps)]
    da_vals = None if spec.delta_field is None else [
        spec.delta_field.values(paths, k) for k in range(ksteps)]

    y_prev = _by_node(m, ksteps + 1, (n,), np.zeros)
    z = _by_node(m, ksteps, (n, d), np.zeros)
    mod = _by_node(m, ksteps, (n,))
    history = []
    for _ in range(_MAX_PASSES):
        mod.fill(0.0)
        if beta is not None:
            mod += beta
        for k in range(ksteps):
            if alpha is not None:
                mod[:, k] += np.einsum("mij,mj->mi", alpha[k], y_prev[:, k])
            if da_vals is not None:
                mod[:, k] += contract_az(da_vals[k], z[:, k])
        # Z^m and the last pass's extras are read no more: free them first
        z = extras = None
        y, z, extras = core(xi, mod)
        change = np.abs(np.subtract(y, y_prev, out=y_prev), out=y_prev).max()
        resid = float(change / (1.0 + np.abs(y, out=y_prev).max()))
        history.append(resid)
        if resid < tol:
            break
        if not np.isfinite(resid):
            raise PicardDivergenceError(
                f"residual is non-finite on pass {len(history)}; residual history {history}")
        if len(history) >= 4 and history[-1] > history[-3] > history[-4]:
            raise PicardDivergenceError(
                f"perturbation too large (not sliceable at this scale); "
                f"residual history {history}")
        y_prev = y
    else:
        raise PicardDivergenceError(
            f"no convergence in {_MAX_PASSES} iterations; history tail {history[-3:]}")
    del y_prev, core
    sol = _finish(fld, paths, "perturbed", y, z, mod, extras)
    sol.diagnostics["picard_history"] = history
    sol.diagnostics["picard_iterations"] = len(history)
    return sol


def solve_auto(spec: LinearBsdeSpec, paths: PathEnsemble, degree: int = 3,
               method: str = "auto") -> SolutionEnsemble:
    """Dispatch on the requested method ("auto": the field's structure tag if
    `_METHODS` has it, else regression).

    A spec with a perturbation (alpha or delta_field) is solved by
    `solve_perturbed` with the requested method as its base.
    """
    if spec.delta_field is not None or spec.alpha is not None:
        return solve_perturbed(spec, paths, degree=degree, base=method)
    if method == "auto":
        method = spec.field.structure if spec.field.structure in _METHODS else "regression"
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
