"""Path-space norm estimators and least-squares conditional expectations.

The bmo-type norms involve a supremum over stopping times; on a grid we take
the maximum over grid times of an estimated conditional expectation, so the
reported numbers are grid-time lower estimates of the continuous-time norms.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian import PathEnsemble
from .grids import check_choice

NORM_KINDS = ("bmo", "sup_p", "l2q")


@dataclass
class NormEstimate:
    kind: str
    value: float
    std_error: float


@functools.lru_cache(maxsize=None)
def _monomials(d: int, degree: int) -> tuple:
    """(prefix column, variable) of each non-constant column of
    `poly_features` for d variables, in its column order.

    The monomials of each degree follow `combinations_with_replacement`, and
    each is its lower-degree prefix (the same combination without its last
    variable, an earlier column) times its last variable.
    """
    index, table = {(): 0}, []
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            index[combo] = len(index)
            table.append((index[combo[:-1]], combo[-1]))
    return tuple(table)


def poly_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomial features of total degree <= `degree` in the columns of x.

    x: (M, d) -> (M, n_features); the first column is the constant.  Each
    monomial is one multiply of its lower-degree prefix column by a column
    of x, which is the product of its variables taken left to right, bit for
    bit.  The result is column-major, so each column is contiguous.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, d = x.shape
    table = _monomials(d, degree)
    out = np.empty((m, len(table) + 1), order="F")
    out[:, 0] = 1.0
    for col, (prefix, j) in enumerate(table, 1):
        np.multiply(out[:, prefix], x[:, j], out=out[:, col])
    return out


class RegressionConditional:
    """Least-squares conditional expectation E[. | B_{t_k}] on one path ensemble.

    Valid for Markovian functionals (dependence through (t, B_t)).  At each
    grid step the fit is Q_k (Q_k^T y), with Q_k = F_k W_k an orthonormal
    basis of the column space of the features F_k = `poly_features(B_{t_k})`.
    The (p, r) map W_k = V Sigma^{-1} (its first r = rank columns) comes from
    the thin SVD F_k = U Sigma V^T with lstsq's default cutoff
    eps * max(M, p), so rank and fitted values match lstsq up to rounding.
    W_k is built once per step, on first use, and kept; Q_k is formed from
    it when a fit at step k needs it, and only the last step's Q_k is held,
    so consecutive fits at one step share it.  A step whose states are all
    equal (t = 0) fits the sample mean.  A rank deficiency warns once per
    operator.

    Use `RegressionConditional.of(paths, degree)`: it keeps one operator per
    (ensemble, degree) on the ensemble, so every solver and diagnostic on the
    same paths shares the maps, which are freed with the ensemble.  The
    operator holds at most (K+1) * p * r * 8 bytes of maps plus one (M, r)
    basis, with r <= p the basis rank and p = C(d + degree, degree) the
    number of monomials.  A reader that fits each step once and shares no
    operator makes its own and `forget`s each step after its fit.
    """

    def __init__(self, states: np.ndarray, degree: int):
        self.states = states            # (M, K+1, d) Brownian states
        self.degree = degree
        self._bases: dict = {}          # k -> (W_k, full column count) or None
        self._last = (None, None)       # (k, (Q_k, column count) or None), last fitted
        self._warned = False

    @classmethod
    def of(cls, paths: PathEnsemble, degree: int) -> "RegressionConditional":
        """The operator of `paths` at `degree`, created on first use."""
        op = paths.conditionals.get(degree)
        if op is None:
            op = paths.conditionals[degree] = cls(paths.states, degree)
        return op

    def _basis(self, k: int):
        """(Q_k, full column count) of step k, or None where it fits the mean."""
        if self._last[0] != k:
            self._last = (k, None)                  # the last step's Q is read no more
            x = self.states[:, k]
            if k not in self._bases and np.allclose(x, x[0]):
                self._bases[k] = None               # all states equal: fit the mean
            if k not in self._bases or self._bases[k] is not None:
                feats = poly_features(x, self.degree)
                if k not in self._bases:
                    _, s, vt = np.linalg.svd(feats, full_matrices=False)
                    cutoff = np.finfo(float).eps * max(feats.shape) * s[0]
                    rank = int(np.count_nonzero(s > cutoff))
                    self._bases[k] = (vt[:rank].T / s[:rank], feats.shape[1])
                w, columns = self._bases[k]
                self._last = (k, (feats @ w, columns))
        return self._last[1]

    def forget(self, k: int) -> None:
        """Drop the map of step k, and its basis if held; a later fit at k
        builds both again."""
        self._bases.pop(k, None)
        if self._last[0] == k:
            self._last = (None, None)

    def fit_predict(self, k: int, y: np.ndarray) -> np.ndarray:
        """Fitted E[y | B_{t_k}] at the sample points.  y may have trailing axes."""
        y = np.asarray(y, dtype=float)
        flat = y.reshape(y.shape[0], -1)
        basis = self._basis(k)
        if basis is None:
            out = np.broadcast_to(flat.mean(axis=0), flat.shape)
            return out.reshape(y.shape).copy()
        q, columns = basis
        if q.shape[1] < columns and not self._warned:
            warnings.warn(
                f"regression basis rank-deficient (rank {q.shape[1]} < {columns}); "
                "fit on the spanned column space", RuntimeWarning)
            self._warned = True
        return (q @ (q.T @ flat)).reshape(y.shape)


def _size_reader(values: np.ndarray, paths: int, nodes: int) -> Callable:
    """sizes(k): |values[:, k]| per path, shape (paths,), for values of shape
    (paths, nodes, ...), formed one node at a time when it is called."""
    v = np.asarray(values, dtype=float)
    if v.ndim < 2 or v.shape[:2] != (paths, nodes):
        raise ValueError(f"expected values with shape ({paths}, {nodes}, ...), got {v.shape}")

    def sizes(k):
        node = v[:, k]
        return np.sqrt((node * node).reshape(paths, -1).sum(axis=-1))
    return sizes


def _lp_mean(samples: np.ndarray, q: float) -> tuple[float, float]:
    """(E[samples^q])^{1/q} with a delta-method standard error."""
    m = samples.size
    moment = float(np.mean(samples**q))
    se_moment = float(np.std(samples**q, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    if moment <= 0:
        return 0.0, 0.0
    value = moment ** (1.0 / q)
    return value, se_moment * value / (q * moment)


def _max_order_stat(samples: np.ndarray) -> tuple[float, float]:
    """Per-path maximum with an order-statistics spread as the error bar."""
    s = np.sort(samples)
    k = max(1, int(np.sqrt(s.size)))
    return float(s[-1]), float(s[-1] - s[-k])


def estimate_norm(kind: str, values: np.ndarray, paths: PathEnsemble,
                  q: float | None = None, degree: int = 3) -> NormEstimate:
    """Estimate a path-space norm from sampled process values.

    kind:
      - "bmo":   values are per-step integrands (paths, K, ...);
                 sup_tk max_omega E_tk[int_tk^T |Z|^2 dt] ^ (1/2)
      - "sup_p": values are node values (paths, K+1, ...); ||sup_t |Y|||_{L^q}
      - "l2q":   per-step integrands; (E[(int |Z|^2 dt)^{q/2}])^{1/q}

    `q` is required for sup_p / l2q (math.inf allowed for sup_p).
    Conditional expectations for bmo use polynomial regression on the
    Brownian state; the essential sup is the max over fitted node values,
    the earliest node on a tie.

    |values| is read one node at a time, so no whole (paths, nodes, ...)
    temporary is formed, and a node-major array (a path-major view) reads
    contiguous nodes: sup_p keeps a running maximum per path, l2q sums each
    path's row of |Z|^2 dt, one (paths, nodes) array, and bmo carries the
    remainder backwards from T.  Every value is that of the whole-array
    form, bit for bit.
    """
    check_choice("norm kind", kind, NORM_KINDS)
    m, k_steps, dt = paths.paths, paths.grid.steps, paths.grid.dt

    if kind != "bmo":
        if q is None or q < 1:
            raise ValueError(f"{kind} requires q >= 1")
        nodes = k_steps + 1 if kind == "sup_p" else k_steps
        sizes = _size_reader(values, m, nodes)
        if kind == "sup_p":
            per_path = functools.reduce(np.maximum, map(sizes, range(nodes)))
        else:               # one (paths, nodes) array: each row sums pairwise, as a whole
            rows = np.stack([sizes(k)**2.0 * dt[k] for k in range(nodes)], axis=1)
            per_path = np.sqrt(rows.sum(axis=1))
        value, se = _max_order_stat(per_path) if np.isinf(q) else _lp_mean(per_path, q)
        return NormEstimate(kind, value, se)

    # grid-time max over estimated conditional remainders, which need every
    # path at a node: run_k = sum_{j >= k} |Z_j|^2 dt_j from node K-1 back to
    # node 0, as the reversed cumsum adds: run_{K-1} = c_{K-1}, run_k =
    # run_{k+1} + c_k.  run_K is zero on every path, so its fit is never
    # chosen: not fitted.
    sizes = _size_reader(values, m, k_steps)
    reg = RegressionConditional.of(paths, degree)
    best, best_se, run = 0.0, 0.0, None
    for k in range(k_steps - 1, -1, -1):
        contrib = sizes(k)**2.0 * dt[k]
        run = contrib if run is None else run + contrib
        fitted = reg.fit_predict(k, run)
        node = float(np.max(fitted))
        if node > 0.0 and node >= best:      # from T back: a tie keeps the earliest node
            best = node
            best_se = float(np.std(run - fitted, ddof=1) / np.sqrt(max(m - 1, 1)))
    value = float(np.sqrt(best))
    return NormEstimate(kind, value, best_se / (2.0 * value) if value > 0 else best_se)
