"""Registry of shipped experiment instances.

Every named instance is a deterministic builder: fields and terminals are
functions of (t, state) only, so re-running a config with the same seed
reproduces every number.  Scales are chosen so that the bounded-coefficient
instances are comfortably inside the regime where the solvers' own
diagnostics (inverse residual, martingale defect, Picard contraction) pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counterexamples import NonexistenceSpec
from .fields import (EMERY_LEVEL, CoefficientField, LowerTriangularField, StoppedRotationField,
                     left_outer_field, right_outer_field, scalar_field)
from .grids import ConfigurationError
from .quadratic import QuadraticLinearDriver, UnidirectionalDriver


# The value of a parameter that is a config key of the instance's kind:
# `bsde-lab describe` prints the key's default in `cli.CONFIG_SCHEMAS`.
CONFIG_DEFAULT = "config default"


@dataclass(frozen=True)
class InstanceInfo:
    name: str
    kind: str            # field | linear | quadratic | counterexample | tree
    description: str
    build: Callable
    parameters: dict     # fixed facts; `describe` adds n and d of the built instance
    terminal: Callable | None = None     # xi(paths) of a linear or quadratic instance


def _final_state(paths):
    return paths.states[:, -1]


def _bounded_terminal_3(paths):
    b_t = paths.states[:, -1, 0]
    return np.stack([np.tanh(b_t), np.sin(b_t), 0.5 * np.cos(b_t)], axis=1)


def _bounded_terminal_2(paths):
    b_t = paths.states[:, -1, 0]
    return 0.5 * np.stack([np.tanh(b_t), np.sin(b_t)], axis=1)


def _triangular_eval(t, x):
    m = x.shape[0]
    a = np.zeros((m, 3, 3, 1))
    a[:, 0, 0, 0] = 0.30 * np.tanh(x[:, 0])
    a[:, 1, 0, 0] = 0.20 * np.sin(x[:, 0])
    a[:, 1, 1, 0] = -0.25
    a[:, 2, 1, 0] = 0.15 * np.cos(x[:, 0])
    a[:, 2, 2, 0] = 0.20
    return a


def triangular_3d() -> LowerTriangularField:
    return LowerTriangularField(3, 1, _triangular_eval)


def right_outer_3d():
    b = np.array([0.5, -0.3, 0.2])

    def a_eval(t, x):
        return 0.3 * np.stack([np.tanh(x[:, 0:1]), np.sin(x[:, 0:1]),
                               np.cos(x[:, 0:1])], axis=1)

    return right_outer_field(a_eval, b, d=1)


def left_outer_3d():
    a = np.array([0.4, 0.2, -0.3])

    def b_eval(t, x):
        return 0.3 * np.stack([np.cos(x[:, 0:1]), np.tanh(x[:, 0:1]),
                               np.sin(x[:, 0:1])], axis=1)

    return left_outer_field(a, b_eval, d=1)


def scalar_half() -> CoefficientField:
    return scalar_field(0.5)


def cole_hopf_1d() -> QuadraticLinearDriver:
    return QuadraticLinearDriver(1, 1, None, [0.5], 0.5)


def cole_hopf_1d_ud() -> UnidirectionalDriver:
    def h(z):
        z = np.asarray(z, dtype=float)
        return 0.5 * (z * z).reshape(z.shape[0], -1).sum(axis=1)

    return UnidirectionalDriver(1, 1, None, [1.0], h, 1.0)


def ql_coupled_2d() -> QuadraticLinearDriver:
    def g(t, x, y, z):
        return 0.3 * np.stack([np.tanh(y[:, 1]), np.sin(y[:, 0])], axis=1)

    return QuadraticLinearDriver(2, 1, g, [0.5, 0.25], 1.0)


def unidirectional_2d() -> UnidirectionalDriver:
    # h = |z^1|^2 / 2 keeps condition (AB) exact for {+-e_1, +-e_2} with
    # rho = sup |g|: a_m^T f = a_m^T g + (a_m . a) h and a = e_1.
    def g(t, x, y, z):
        return 0.3 * np.stack([np.tanh(y[:, 1]), np.sin(y[:, 0])], axis=1)

    def h(z):
        z = np.asarray(z, dtype=float)
        return 0.5 * (z[:, 0, :] ** 2).sum(axis=1)

    return UnidirectionalDriver(2, 1, g, [1.0, 0.0], h, 1.0)


REGISTRY: dict[str, InstanceInfo] = {info.name: info for info in (
    InstanceInfo(
        "scalar-half", "field",
        "n=1 constant coefficient a=0.5: scalar exponential with lognormal "
        "reverse Holder moments exp((p^2-p) a^2 (T-t)/2)",
        scalar_half, {"a": 0.5}, _final_state),
    InstanceInfo(
        "emery", "counterexample",
        "2x2 rotation exponential stopped at the exit of |B| from pi/2: "
        "S_t = exp((tau^t)/2) [[cos,sin],[-sin,cos]](B_{tau^t}); strict local "
        "martingale, E|S_stopped| infinite, diagonal of the stopped terminal is 0",
        StoppedRotationField, {"level": EMERY_LEVEL, "effective_horizon": CONFIG_DEFAULT}),
    InstanceInfo(
        "exit-time", "counterexample",
        "E[exp(sigma_b/2)] = 1/cos(b) for the exit time sigma_b of |W| from b",
        None, {"b": CONFIG_DEFAULT}),
    InstanceInfo(
        "nonexistence", "counterexample",
        "partition mixture of stopped rotations whose weighted exit-time sums "
        "diverge while the per-term remainder bound vanishes: the associated "
        "homogeneous linear system has no bounded solution",
        NonexistenceSpec, {"levels": "cos(b_k) = 0.9 (k+1) 2^{-k}", "j_max": CONFIG_DEFAULT}),
    InstanceInfo(
        "triangular-3d", "linear",
        "lower-triangular n=3 bounded field; sequential scalar reduction applies",
        triangular_3d, {}, _bounded_terminal_3),
    InstanceInfo(
        "right-outer-3d", "linear",
        "A = a-field b^T with b = (0.5, -0.3, 0.2); scalar equation in b^T Y",
        right_outer_3d, {}, _bounded_terminal_3),
    InstanceInfo(
        "left-outer-3d", "linear",
        "A = a b-field^T with a = (0.4, 0.2, -0.3); closed-form exponential "
        "S = I + a m^T",
        left_outer_3d, {}, _bounded_terminal_3),
    InstanceInfo(
        "cole-hopf-1d", "quadratic",
        "n=1 quadratic-linear driver f = |z|^2/2 (b = 1/2, g = 0) with xi = B_T: "
        "exp(2 b Y) is a martingale, Y_0 = T/2",
        cole_hopf_1d, {"b": 0.5, "y0_exact_at_T1": 0.5}, _final_state),
    InstanceInfo(
        "cole-hopf-1d-ud", "quadratic",
        "unidirectional twin of cole-hopf-1d: a = 1, h = |z|^2/2",
        cole_hopf_1d_ud, {}, _final_state),
    InstanceInfo(
        "ql-coupled-2d", "quadratic",
        "n=2 quadratic-linear driver, bounded coupling g through y, b=(0.5,0.25)",
        ql_coupled_2d, {}, _bounded_terminal_2),
    InstanceInfo(
        "unidirectional-2d", "quadratic",
        "n=2 unidirectional driver a = e_1, h = |z^1|^2/2, bounded g; satisfies "
        "condition (AB) with {+-e_1, +-e_2} and rho = sup|g|",
        unidirectional_2d, {"ab_vectors": "{+-e_1, +-e_2}"},
        _bounded_terminal_2),
)}

LINEAR_FIELDS = {name: info.build for name, info in REGISTRY.items()
                 if info.kind in ("field", "linear")}
QUADRATIC_DRIVERS = {name: info.build for name, info in REGISTRY.items()
                     if info.kind == "quadratic"}
# Every field a forward command accepts: the linear fields and the Emery rotation.
FIELDS = {**LINEAR_FIELDS, "emery": StoppedRotationField}


def _terminal(name: str, table: dict):
    if name not in table:
        raise ConfigurationError(f"no terminal registered for {name!r}")
    return REGISTRY[name].terminal


def linear_terminal(name: str):
    return _terminal(name, LINEAR_FIELDS)


def quadratic_terminal(name: str):
    return _terminal(name, QUADRATIC_DRIVERS)


def describe(name: str) -> InstanceInfo:
    if name not in REGISTRY:
        close = [k for k in REGISTRY if name in k or k in name]
        hint = f"; did you mean one of {close}?" if close else ""
        raise ConfigurationError(f"unknown instance {name!r}{hint} "
                                 f"(known: {sorted(REGISTRY)})")
    return REGISTRY[name]
