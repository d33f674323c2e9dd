"""Coefficient fields: the matrix process A in (R^d)^{n x n}.

A field produces, for each ensemble and grid step, the batch of MatD values
A(t_k, omega) used by the forward integrators and the linear solvers.
Markovian fields are defined by a callable of (t, state); path-dependent
fields (the rotation-with-stopping example) override `values` directly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian import PathEnsemble, _step_blocks
from .grids import ConfigurationError


@dataclass
class CoefficientField:
    """Markovian matrix coefficient A(t, x).

    The structure the solvers exploit is a fact of the class: `structure`
    is "generic" here and names the structural solve of each subclass that
    has one (`linear._METHODS`)."""

    n: int
    d: int
    eval: Callable[[float, np.ndarray], np.ndarray]
    structure = "generic"
    markovian = True    # A is a function of (t, B_t): the nested R_p may restart it

    def values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        """A at grid step k for every path, shape (paths, n, n, d)."""
        return self.at(float(paths.grid.nodes[k]), paths.state_at(k))

    def at(self, t: float, x: np.ndarray) -> np.ndarray:
        """A(t, x) for a batch of states x of shape (paths, d): (paths, n, n, d)."""
        m = x.shape[0]
        out = np.asarray(self.eval(t, x), dtype=float)
        if out.shape == (self.n, self.n, self.d):
            out = np.broadcast_to(out, (m, self.n, self.n, self.d))
        if out.shape != (m, self.n, self.n, self.d):
            raise ConfigurationError(
                f"field eval returned shape {out.shape}, expected "
                f"({m}, {self.n}, {self.n}, {self.d})")
        return out


def constant_field(a0: np.ndarray) -> CoefficientField:
    """Field with A(t, x) identically equal to a0 (shape (n, n, d))."""
    a0 = np.asarray(a0, dtype=float)
    if a0.ndim != 3 or a0.shape[0] != a0.shape[1]:
        raise ConfigurationError(f"constant field needs shape (n, n, d), got {a0.shape}")
    n, _, d = a0.shape
    return CoefficientField(n, d, lambda t, x: a0)


def zero_field(n: int, d: int) -> CoefficientField:
    return constant_field(np.zeros((n, n, d)))


def scalar_field(a: float) -> CoefficientField:
    """n = d = 1 field with constant entry a."""
    return constant_field(np.full((1, 1, 1), float(a)))


class LowerTriangularField(CoefficientField):
    """A field whose A^i_j vanishes for j > i: the triangular solve reduces it
    to n scalar equations, row by row."""

    structure = "lower_triangular"


def _vecd_at(fn: Callable, t: float, x: np.ndarray, n: int, d: int) -> np.ndarray:
    """fn(t, x) as a VecD batch (paths, n, d); a constant (n, d) is broadcast."""
    v = np.asarray(fn(t, x), dtype=float)
    if v.shape == (n, d):
        v = np.broadcast_to(v, (x.shape[0], n, d))
    return v


@dataclass
class RightOuterField(CoefficientField):
    """A^i_j = a^i b_j with an adapted VecD a-field and constant b in R^n."""

    a_eval: Callable[[float, np.ndarray], np.ndarray]
    b: np.ndarray
    structure = "right_outer"

    def a_values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        return _vecd_at(self.a_eval, float(paths.grid.nodes[k]), paths.state_at(k),
                        self.n, self.d)


def right_outer_field(a_eval, b, d: int) -> RightOuterField:
    b = np.asarray(b, dtype=float)
    n = b.shape[0]

    def ev(t, x):
        return np.einsum("mie,j->mije", _vecd_at(a_eval, t, x, n, d), b)

    return RightOuterField(n, d, ev, a_eval, b)


@dataclass
class LeftOuterField(CoefficientField):
    """A^i_j = a_i b^j with constant a in R^n and an adapted VecD b-field."""

    a: np.ndarray
    b_eval: Callable[[float, np.ndarray], np.ndarray]
    structure = "left_outer"

    def b_values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        return _vecd_at(self.b_eval, float(paths.grid.nodes[k]), paths.state_at(k),
                        self.n, self.d)


def left_outer_field(a, b_eval, d: int) -> LeftOuterField:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]

    def ev(t, x):
        return np.einsum("i,mje->mije", a, _vecd_at(b_eval, t, x, n, d))

    return LeftOuterField(n, d, ev, a, b_eval)


# The exit level of the Emery counterexample: at pi/2, E[exp(sigma/2)] of
# the exit time sigma of |B| diverges, so the stopped rotation is a strict
# local martingale.
EMERY_LEVEL = np.pi / 2


class StoppedRotationField(CoefficientField):
    """2x2 rotation generator switched off at the exit of |B| from a level.

    A(t) = [[0, 1], [-1, 0]] at nodes k before the stopping node, the first
    node where |B| >= level, then 0.  Path-dependent, so the nested R_p
    (restarts from the state alone) refuses it.  The regression R_p conditions
    on B_t alone, not on the stop: it mixes the stopped paths, whose
    |S_t^{-1} S_T|^p is exactly 1, with the live ones, and reads far too low.
    """

    markovian = False

    def __init__(self, level: float = EMERY_LEVEL):
        super().__init__(2, 1, None)
        self.level = level
        self._j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        self._cache = weakref.WeakKeyDictionary()

    def stop(self, paths: PathEnsemble) -> tuple:
        """(stop, exit state) per path: the first grid node where |B| >= level,
        or the node count if there is none, and B there (0 if there is none).

        One scan of `paths.state_blocks`, whose blocks of about
        _STEP_BLOCK_BYTES are the largest arrays it forms; it never forms
        `paths.states`."""
        if paths not in self._cache:
            m, k1 = paths.paths, paths.grid.steps + 1
            stop, state = np.full(m, k1), np.zeros(m)
            bounds = _step_blocks(k1, m * 8)
            for (lo, _), b in zip(bounds, paths.state_blocks(bounds)):
                b = b[:, :, 0]
                hit = np.abs(b) >= self.level
                new = np.flatnonzero((stop == k1) & hit.any(axis=1))
                at = hit[new].argmax(axis=1)
                stop[new] = lo + at
                state[new] = b[new, at]
            self._cache[paths] = stop, state
        return self._cache[paths]

    def values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        out = np.zeros((paths.paths, 2, 2, 1))
        out[self.stop(paths)[0] > k, :, :, 0] = self._j
        return out
