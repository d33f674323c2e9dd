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

from .brownian import PathEnsemble
from .grids import ConfigurationError

STRUCTURES = (
    "generic",
    "lower_triangular",
    "diagonal",
    "right_outer",
    "left_outer",
    "outer_plus_diagonal",
)


@dataclass
class CoefficientField:
    """Markovian matrix coefficient A(t, x) with a declared structure tag."""

    n: int
    d: int
    eval: Callable[[float, np.ndarray], np.ndarray]
    structure: str = "generic"
    bmo_bound: float | None = None
    markovian: bool = True
    name: str = ""

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ConfigurationError(f"unknown structure tag {self.structure!r}")

    def values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        """A at grid step k for every path, shape (paths, n, n, d)."""
        t = float(paths.grid.nodes[k])
        out = np.asarray(self.eval(t, paths.state_at(k)), dtype=float)
        if out.shape == (self.n, self.n, self.d):
            out = np.broadcast_to(out, (paths.paths, self.n, self.n, self.d))
        if out.shape != (paths.paths, self.n, self.n, self.d):
            raise ConfigurationError(
                f"field eval returned shape {out.shape}, expected "
                f"({paths.paths}, {self.n}, {self.n}, {self.d})")
        return out

    def check_structure(self, sample: np.ndarray, atol: float = 1e-12) -> bool:
        """True when a sampled MatD batch is consistent with the declared tag."""
        if self.structure == "lower_triangular":
            i, j = np.triu_indices(self.n, k=1)
            return bool(np.all(np.abs(sample[..., i, j, :]) <= atol))
        if self.structure == "diagonal":
            off = ~np.eye(self.n, dtype=bool)
            return bool(np.all(np.abs(sample[..., off, :]) <= atol))
        return True


def constant_field(a0: np.ndarray, structure: str = "generic",
                   name: str = "constant") -> CoefficientField:
    """Field with A(t, x) identically equal to a0 (shape (n, n, d))."""
    a0 = np.asarray(a0, dtype=float)
    if a0.ndim != 3 or a0.shape[0] != a0.shape[1]:
        raise ConfigurationError(f"constant field needs shape (n, n, d), got {a0.shape}")
    n, _, d = a0.shape
    bound = float(np.sqrt((a0 ** 2).sum()))
    return CoefficientField(n, d, lambda t, x: a0, structure, bound, True, name)


def zero_field(n: int, d: int) -> CoefficientField:
    return constant_field(np.zeros((n, n, d)), name="zero")


def scalar_field(a: float, d: int = 1, name: str = "scalar") -> CoefficientField:
    """n = 1 field with constant entry a in every Brownian coordinate slot."""
    a0 = np.full((1, 1, d), float(a))
    return constant_field(a0, structure="diagonal", name=name)


@dataclass
class RightOuterField(CoefficientField):
    """A^i_j = a^i b_j with an adapted VecD a-field and constant b in R^n."""

    a_eval: Callable[[float, np.ndarray], np.ndarray] = None
    b: np.ndarray = None

    def a_values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        t = float(paths.grid.nodes[k])
        av = np.asarray(self.a_eval(t, paths.state_at(k)), dtype=float)
        if av.shape == (self.n, self.d):
            av = np.broadcast_to(av, (paths.paths, self.n, self.d))
        return av


def right_outer_field(a_eval, b, d: int, name: str = "right_outer") -> RightOuterField:
    b = np.asarray(b, dtype=float)
    n = b.shape[0]

    def ev(t, x):
        av = np.asarray(a_eval(t, x), dtype=float)
        if av.shape == (n, d):
            av = np.broadcast_to(av, (x.shape[0], n, d))
        return np.einsum("mie,j->mije", av, b)

    fld = RightOuterField(n, d, ev, "right_outer", None, True, name)
    fld.a_eval = a_eval
    fld.b = b
    return fld


@dataclass
class LeftOuterField(CoefficientField):
    """A^i_j = a_i b^j with constant a in R^n and an adapted VecD b-field."""

    a: np.ndarray = None
    b_eval: Callable[[float, np.ndarray], np.ndarray] = None

    def b_values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        t = float(paths.grid.nodes[k])
        bv = np.asarray(self.b_eval(t, paths.state_at(k)), dtype=float)
        if bv.shape == (self.n, self.d):
            bv = np.broadcast_to(bv, (paths.paths, self.n, self.d))
        return bv


def left_outer_field(a, b_eval, d: int, name: str = "left_outer") -> LeftOuterField:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]

    def ev(t, x):
        bv = np.asarray(b_eval(t, x), dtype=float)
        if bv.shape == (n, d):
            bv = np.broadcast_to(bv, (x.shape[0], n, d))
        return np.einsum("i,mje->mije", a, bv)

    fld = LeftOuterField(n, d, ev, "left_outer", None, True, name)
    fld.a = a
    fld.b_eval = b_eval
    return fld


class StoppedRotationField(CoefficientField):
    """2x2 rotation generator switched off at the exit of |B| from a level.

    A(t) = [[0, 1], [-1, 0]] while max_{j <= k} |B_{t_j}| < level, then 0.
    Path-dependent, so conditional estimators must use regression on the
    (state, alive) pair rather than sub-simulation restarts.
    """

    def __init__(self, level: float = np.pi / 2):
        super().__init__(2, 1, None, "generic", None, False, "stopped_rotation")
        self.level = level
        self._j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        self._cache = weakref.WeakKeyDictionary()

    def alive(self, paths: PathEnsemble) -> np.ndarray:
        """alive[m, k] = path m has not touched +-level at nodes 0..k."""
        if paths not in self._cache:
            hit = np.abs(paths.states[:, :, 0]) >= self.level
            self._cache[paths] = ~np.maximum.accumulate(hit, axis=1)
        return self._cache[paths]

    def values(self, paths: PathEnsemble, k: int) -> np.ndarray:
        alive = self.alive(paths)[:, k]
        out = np.zeros((paths.paths, 2, 2, 1))
        out[alive, :, :, 0] = self._j
        return out
