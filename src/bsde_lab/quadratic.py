"""Quadratic BSDE systems: quadratic-linear and unidirectional drivers.

Each driver class states its clamp rule once (`_ClampRule`); the
untruncated driver is that rule at level k = inf.  The solver is backward
Euler with an inner per-step fixed-point iteration, run on a truncated
driver; the truncation level k escalates until the solved Z stays inside the
identity region of the clamp with margin, at which point the computed pair
solves the untruncated equation on every sampled path.  Condition checkers
(positively spanning a-priori bound, Lyapunov pairs) and the
finite-difference linearization check live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian import PathEnsemble
from .grids import ConfigurationError, check_choice
from .linear import SolutionEnsemble, _MomentSums, _backward, _finish, _terminal
from .norms import RegressionConditional, estimate_norm
from .tensors import contract_az


# ---------------------------------------------------------------------------
# drivers

class _ClampRule:
    """f = (z-part) + g, with each driver class's rule for the radial clamp.

    A class gives `z_part(z, level)`, the z-part clamped at level k and the z
    that g sees; `magnitude(z)`, the norm the clamp acts on; and
    `structural(z1, z2, dz)`, the structural matrix of the linearized
    difference.  The untruncated driver is the rule at k = inf.
    """

    def at_z(self, z: np.ndarray, level: float) -> Callable:
        """f at level k and a fixed z, as a function of (t, x, y): the clamp
        and the z-part are computed here, once; each call adds only g."""
        z = np.asarray(z, dtype=float)
        part, z_eff = self.z_part(z, level)
        if self.g is None:
            return lambda t, x, y: part
        return lambda t, x, y: part + self.g(t, x, y, z_eff)

    def __call__(self, t, x, y, z):
        return self.at_z(z, np.inf)(t, x, y)


@dataclass
class QuadraticLinearDriver(_ClampRule):
    """f(t, omega, y, z) = g(t, omega, y, z) + z b^T z.

    The quadratic term is (z b^T z)_i = z^i . (sum_j b_j z^j).  g is a
    Lipschitz driver with constant `lipschitz`; |b| <= lipschitz is the class
    convention and is checked at construction.  Truncation clamps only b^T z:
    z phi_k(b^T z) + g is globally Lipschitz.  `instances.REGISTRY`, not
    the driver, holds the name of each shipped driver.
    """

    n: int
    d: int
    g: Callable
    b: np.ndarray
    lipschitz: float

    kind = "ql"

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.n,):
            raise ConfigurationError(f"b must have shape ({self.n},)")
        if np.linalg.norm(self.b) > self.lipschitz + 1e-12:
            raise ConfigurationError("|b| exceeds the declared Lipschitz constant")

    def _bz(self, z: np.ndarray) -> np.ndarray:
        return np.einsum("j,...jd->...d", self.b, z)

    def z_part(self, z: np.ndarray, level: float) -> tuple:
        return np.einsum("...id,...d->...i", z, clamp_vector(self._bz(z), level)), z

    def magnitude(self, z: np.ndarray) -> np.ndarray:
        return np.sqrt((self._bz(z) ** 2).sum(axis=-1))

    def structural(self, z1: np.ndarray, z2: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """A = Z^2 b^T + Diag(b^T Z^1), shape (M, n, n, d)."""
        struct = np.einsum("mid,j->mijd", z2, self.b)
        idx = np.arange(self.n)
        struct[:, idx, idx, :] += self._bz(z1)[:, None, :]
        return struct


@dataclass
class UnidirectionalDriver(_ClampRule):
    """f(t, omega, y, z) = g(t, omega, y, z) + a h(z), h of quadratic growth.

    Truncation clamps the z of both g and h, which keeps the spanning
    a-priori bound because the clamp is radial with |phi_k(z)| <= |z|.
    `instances.REGISTRY`, not the driver, holds the name of each shipped
    driver.
    """

    n: int
    d: int
    g: Callable
    a: np.ndarray
    h: Callable
    lipschitz: float

    kind = "unidirectional"

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.shape != (self.n,):
            raise ConfigurationError(f"a must have shape ({self.n},)")
        h0 = float(np.asarray(self.h(np.zeros((1, self.n, self.d)))).ravel()[0])
        if abs(h0) > self.lipschitz + 1e-12:
            raise ConfigurationError("|h(0)| exceeds the declared constant")

    def z_part(self, z: np.ndarray, level: float) -> tuple:
        z_eff = clamp_vecd(z, level)
        return np.asarray(self.h(z_eff), dtype=float)[..., None] * self.a, z_eff

    def magnitude(self, z: np.ndarray) -> np.ndarray:
        return _vecd_norm(z)

    def structural(self, z1: np.ndarray, z2: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """A = a (dh/dZ)^T with dh/dZ the rank-one difference quotient of h."""
        dh = np.asarray(self.h(z1), dtype=float) - np.asarray(self.h(z2), dtype=float)
        denom = (dz * dz).reshape(len(dz), -1).sum(axis=1)
        safe = np.where(denom > 0, denom, 1.0)
        return np.einsum("i,mjd->mijd", self.a, dz * (dh / safe)[:, None, None])


# The driver classes solve_quadratic takes, by `kind`: the custom driver's
# `class` choices (`cli.CONFIG_SCHEMAS`).
DRIVER_KINDS = (QuadraticLinearDriver.kind, UnidirectionalDriver.kind)


def evaluate_driver(driver, t, x, y, z) -> np.ndarray:
    """Driver value with shape checks; y: (M, n), z: (M, n, d) -> (M, n)."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape[-1] != driver.n or z.shape[-2:] != (driver.n, driver.d):
        raise ConfigurationError(
            f"driver of shape (n={driver.n}, d={driver.d}) got y {y.shape}, z {z.shape}")
    return np.asarray(driver(t, x, y, z), dtype=float)


# ---------------------------------------------------------------------------
# truncation

def _vecd_norm(z: np.ndarray) -> np.ndarray:
    """Full (Frobenius) norm of batched VecD arrays (..., n, d)."""
    return np.sqrt((z * z).reshape(z.shape[:-2] + (-1,)).sum(axis=-1))


def _clamp_profile(r: np.ndarray, k: float) -> np.ndarray:
    # psi(r) = r on [0, k]; on [k, 2k] with s = (r-k)/k:
    # psi = k (1 + s - s^3 + s^4/2), psi' = 1 - 3s^2 + 2s^3 (C^2 at both ends);
    # constant 1.5 k beyond 2k.
    s = np.clip((r - k) / k, 0.0, 1.0)
    mid = k * (1.0 + s - s**3 + 0.5 * s**4)
    return np.where(r <= k, r, np.where(r >= 2 * k, 1.5 * k, mid))


def _apply_radial(v: np.ndarray, r: np.ndarray, k: float) -> np.ndarray:
    # Rows with r <= k have scale r / r = 1 exactly (or 1 at r = 0), so only
    # the rows outside the identity region, non-finite ones included, are
    # scaled; the others are copied.
    out = v.copy()
    outside = ~(r <= k)
    if outside.any():
        ro = r[outside]
        psi = _clamp_profile(ro, k)
        scale = np.where(ro > 0, psi / np.where(ro > 0, ro, 1.0), 1.0)
        out[outside] = v[outside] * scale.reshape(scale.shape + (1,) * (v.ndim - r.ndim))
    return out


def clamp_vector(v: np.ndarray, k: float) -> np.ndarray:
    """Radial clamp of batched plain vectors (..., d): identity for |v| <= k,
    C^2 flattening to radius 1.5 k by |v| = 2k; 1-Lipschitz and
    |clamp(v)| <= |v|."""
    v = np.asarray(v, dtype=float)
    return _apply_radial(v, np.sqrt((v * v).sum(axis=-1)), k)


def clamp_vecd(z: np.ndarray, k: float) -> np.ndarray:
    """Radial clamp of batched VecD arrays (..., n, d), radial in the full norm."""
    z = np.asarray(z, dtype=float)
    return _apply_radial(z, _vecd_norm(z), k)


@dataclass
class TruncatedDriver:
    """The driver `base` clamped at level k by its class's rule, as a driver
    of its own; `at_z(z)` fixes z, as `__call__` does.  `solve_quadratic`
    does not build one: its steps call `base.at_z(z, level)`."""

    base: object
    level: float

    @property
    def n(self):
        return self.base.n

    @property
    def d(self):
        return self.base.d

    def at_z(self, z: np.ndarray) -> Callable:
        return self.base.at_z(z, self.level)

    def __call__(self, t, x, y, z):
        return self.at_z(z)(t, x, y)


def truncate_driver(driver, level: float) -> TruncatedDriver:
    if level <= 0:
        raise ConfigurationError("truncation level must be positive")
    return TruncatedDriver(driver, level)


# ---------------------------------------------------------------------------
# solver

class TruncationEscalationError(RuntimeError):
    """No self-consistent truncation level found within the schedule."""


class StepPicardError(RuntimeError):
    """Inner fixed point failed at a backward step."""


@dataclass
class QuadraticSolveReport:
    solution: SolutionEnsemble
    level: float
    escalation_log: list
    margin: float


# solve_quadratic's truncation levels k, tried in order, its margin (accept k
# once max |z| < (1 - margin) k), and the stop of its inner Picard iteration
# per step: a sup change below _PICARD_TOL within _MAX_PICARD iterations.
_LEVELS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
_MARGIN = 0.2
_PICARD_TOL = 1e-10
_MAX_PICARD = 60
# solve_quadratic's starts of the inner Picard iteration: the quadratic
# config's `init` choices.
INITS = ("mean", "zero")


def _backward_quadratic(driver, level: float, terminal: np.ndarray, paths: PathEnsemble,
                        degree: int, init: str) -> tuple:
    """Backward Euler for `driver` clamped at `level`, from Y_K = terminal
    (M, n); returns (y, z, moments).

    Z_k is the increment regression of Y_{k+1}; Y_k is the fixed point of
    y = E_k[Y_{k+1}] + f(t_k, X_k, y, Z_k) dt, iterated from E_k[Y_{k+1}]
    (init "mean") or 0 (init "zero"), damped by 1/2 once the update grows,
    until the sup change is below _PICARD_TOL; StepPicardError after
    _MAX_PICARD iterations.  Z_k is fixed within a step, so the driver's
    clamp and z-part are computed once per step (`driver.at_z(Z_k, level)`)
    and each inner iteration pays only for g.
    """
    dt = paths.grid.dt

    def step(k, ey, z_k):
        x_k = paths.state_at(k)
        t_k = float(paths.grid.nodes[k])
        f_k = driver.at_z(z_k, level)
        cur = np.zeros_like(ey) if init == "zero" else ey.copy()
        damp = 1.0
        prev_delta = np.inf
        for it in range(_MAX_PICARD):
            f_val = f_k(t_k, x_k, cur)
            nxt = ey + f_val * dt[k]
            delta = float(np.abs(nxt - cur).max())
            if delta > prev_delta:            # oscillation / growth: damp updates
                damp = 0.5
            cur = cur + damp * (nxt - cur)
            if delta < _PICARD_TOL:
                break
            prev_delta = delta
        else:
            raise StepPicardError(
                f"inner Picard did not converge at step {k} (last delta {delta:.3e})")
        return cur, f_k(t_k, x_k, cur)

    return _backward(paths, degree, terminal, step)


def _max_magnitude(driver, z: np.ndarray) -> float:
    """The largest `driver.magnitude` over every path and step of z (M, K, n, d),
    one step at a time; a NaN anywhere gives NaN."""
    return float(np.max([driver.magnitude(z[:, k]).max() for k in range(z.shape[1])]))


def solve_quadratic(driver, terminal_fn, paths: PathEnsemble, degree: int = 3,
                    init: str = "mean") -> QuadraticSolveReport:
    """Truncation-escalation solve of the quadratic system.

    The terminal terminal_fn(paths) is formed once.  For each level k in the
    schedule _LEVELS, solve with the driver clamped at k (`_backward_quadratic`,
    inner Picard stop _PICARD_TOL), then measure the largest magnitude the
    clamp acts on along the solution.
    The level is accepted once that magnitude stays below (1 - _MARGIN) k: the
    clamp is then inactive on every sampled path and the pair solves the
    original equation there.  A driver whose `kind` is not in DRIVER_KINDS,
    or an `init` not in INITS, is refused before any level is tried, naming
    the choices.
    """
    check_choice("driver kind", getattr(driver, "kind", None), DRIVER_KINDS)
    check_choice("init", init, INITS)
    terminal = _terminal(terminal_fn, paths, driver.n)
    log = []
    for level in _LEVELS:
        y, z, moments = _backward_quadratic(driver, float(level), terminal, paths, degree, init)
        zmag = _max_magnitude(driver, z)
        accepted = zmag < (1.0 - _MARGIN) * level
        log.append({"level": float(level), "max_magnitude": zmag, "accepted": accepted})
        if accepted:
            sol = _finish(None, paths, f"quadratic[{driver.kind}]", degree, y, z, None, moments)
            return QuadraticSolveReport(sol, float(level), log, 1.0 - zmag / level)
        del y, z                 # a rejected level's solution is not read again
    raise TruncationEscalationError(
        f"no self-consistent truncation level found; escalation log: {log}")


def cole_hopf_reference(b: float, terminal_samples: np.ndarray) -> float:
    """Closed-form Y_0 = (1/(2b)) log E[exp(2 b xi)] for the scalar equation
    Y = xi + int b |Z|^2 dt - int Z dB (exp(2bY) is a martingale)."""
    return float(np.log(np.mean(np.exp(2.0 * b * terminal_samples))) / (2.0 * b))


# ---------------------------------------------------------------------------
# condition checkers

@dataclass
class AbCondition:
    """A-priori-boundedness data: nonnegative rho and vectors {a_m}."""

    rho: float
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if self.rho < 0:
            raise ConfigurationError("rho must be nonnegative")


def positively_spans(vectors: np.ndarray) -> tuple[bool, dict]:
    """Exact LP test: the cone of {a_m} is all of R^n iff every +-e_i is a
    nonnegative combination.  Returns (flag, certificate of LP weights)."""
    from scipy.optimize import linprog    # here, so importing the package skips scipy

    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    mcount, n = vecs.shape
    cert = {}
    for i in range(n):
        for sign in (1.0, -1.0):
            target = np.zeros(n)
            target[i] = sign
            res = linprog(c=np.zeros(mcount), A_eq=vecs.T, b_eq=target,
                          bounds=[(0, None)] * mcount, method="highs")
            key = f"{'+' if sign > 0 else '-'}e{i}"
            if not res.success:
                return False, {**cert, key: None}
            cert[key] = res.x.tolist()
    return True, cert


def check_ab_condition(cond: AbCondition, driver, rng: np.random.Generator,
                       samples: int = 400) -> dict:
    """Report on condition (AB) for a driver: spanning certificate plus the
    worst sampled margin of a_m^T f <= rho + |a_m^T z|^2 / 2."""
    spanning, cert = positively_spans(cond.vectors)
    worst = np.inf
    violations = []
    for s in range(samples):
        x = rng.normal(size=(1, driver.d))
        y = rng.normal(scale=2.0, size=(1, driver.n))
        z = rng.normal(scale=3.0, size=(1, driver.n, driver.d))
        f_val = evaluate_driver(driver, 0.0, x, y, z)[0]
        for m_i, a_m in enumerate(cond.vectors):
            am_z = np.einsum("j,jd->d", a_m, z[0])
            margin = cond.rho + 0.5 * float(am_z @ am_z) - float(a_m @ f_val)
            if margin < worst:
                worst = margin
            if margin < -1e-9:
                violations.append({"sample": s, "m": m_i, "margin": float(margin)})
    return {"spanning": spanning, "certificate": cert,
            "worst_margin": float(worst), "violations": violations}


@dataclass
class LyapunovPair:
    """Candidate (h, k): value/gradient/Hessian callbacks plus the constant."""

    value: Callable
    gradient: Callable
    hessian: Callable
    k: float
    radius: float


class InvalidLyapunovPair(ValueError):
    pass


def _validate_pair(pair: LyapunovPair, n: int) -> None:
    zero = np.zeros(n)
    if abs(float(pair.value(zero))) > 1e-10:
        raise InvalidLyapunovPair("h(0) != 0")
    if np.linalg.norm(np.asarray(pair.gradient(zero))) > 1e-8:
        raise InvalidLyapunovPair("Dh(0) != 0")
    # C^2-at-0 surrogate: central second differences must agree with the
    # supplied Hessian at two scales (|y| fails this, its difference quotient
    # blows up like 1/eps).
    h0 = np.asarray(pair.hessian(zero), dtype=float)
    for eps in (1e-3, 5e-4):
        for i in range(n):
            e = np.zeros(n)
            e[i] = eps
            dd = (float(pair.value(e)) - 2 * float(pair.value(zero))
                  + float(pair.value(-e))) / eps**2
            if not np.isfinite(dd) or abs(dd - h0[i, i]) > 0.05 * (1 + abs(h0[i, i])):
                raise InvalidLyapunovPair(
                    f"second difference at scale {eps} disagrees with the "
                    f"Hessian callback (got {dd}, expected {h0[i, i]}); "
                    "h is not C^2 at 0 at this tolerance")


def check_lyapunov(pair: LyapunovPair, driver, rng: np.random.Generator,
                   solution: SolutionEnsemble | None = None) -> dict:
    """Pointwise margins of the Lyapunov inequality, plus the implied bmo
    bound ||Z||^2 <= k T + 2 sup_{|y| <= c} |h| checked on a solved instance.

    margin(y, z) = (1/2) sum_ij Hess(y)_ij z^i . z^j - Dh(y) . f - |z|^2 + k,
    required nonnegative for |y| <= radius.
    """
    n, d = driver.n, driver.d
    _validate_pair(pair, n)
    worst = np.inf
    worst_at = None
    for _ in range(400):
        y = rng.normal(size=n)
        if np.linalg.norm(y) > pair.radius:
            y = y * (pair.radius * rng.random() / np.linalg.norm(y))
        z = rng.normal(scale=2.0, size=(n, d))
        x = rng.normal(size=(1, d))
        f_val = evaluate_driver(driver, 0.0, x, y[None], z[None])[0]
        hess = np.asarray(pair.hessian(y), dtype=float)
        quad = 0.5 * float(np.einsum("ij,id,jd->", hess, z, z))
        margin = quad - float(np.asarray(pair.gradient(y)) @ f_val) \
            - float((z * z).sum()) + pair.k
        if margin < worst:
            worst, worst_at = margin, (y.copy(), z.copy())
    out = {"worst_margin": float(worst), "worst_at": worst_at, "valid": worst >= -1e-9}
    if solution is not None:
        t_total = float(solution.paths.grid.horizon)
        sup_h = _sup_h_on_ball(pair, n, rng)
        zn = estimate_norm("bmo", solution.z, solution.paths, degree=solution.degree)
        out["bmo_sq_estimate"] = zn.value**2
        out["bound"] = pair.k * t_total + 2.0 * sup_h
        out["bound_satisfied"] = bool(zn.value**2 <= out["bound"] + 3 * zn.std_error)
    return out


def _sup_h_on_ball(pair: LyapunovPair, n: int, rng: np.random.Generator) -> float:
    pts = rng.normal(size=(512, n))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * pair.radius
    return float(max(abs(float(pair.value(p))) for p in pts))


# ---------------------------------------------------------------------------
# finite-difference linearization

def _difference_quotient(num: np.ndarray, dvar: np.ndarray) -> np.ndarray:
    """Rank-one quotient q with q . dvar = num, zero where dvar vanishes.

    num: (M, n); dvar: (M, n) or (M, n, d) -> (M, n, n) or (M, n, n, d).
    """
    flat = dvar.reshape(dvar.shape[0], -1)
    denom = (flat * flat).sum(axis=1)
    safe = np.where(denom > 0, denom, 1.0)
    quot = np.einsum("mi,m...->mi...", num, dvar / safe.reshape((-1,) + (1,) * (dvar.ndim - 1)))
    quot[denom == 0] = 0.0
    return quot


def linearized_difference_check(driver, sol1: SolutionEnsemble, sol2: SolutionEnsemble) -> dict:
    """Verify that dY = Y1 - Y2 solves the linear equation with the
    finite-difference coefficients assembled per driver class.

    alpha = dg/dY, dA = dg/dZ, and the structural matrix A is the driver
    class's `structural`: Z^2 b^T + Diag(b^T Z^1) for quadratic-linear
    drivers, a (dh/dZ)^T for unidirectional ones.  The reported residual is the
    conditional-moment residual of the difference equation, which vanishes
    to solver tolerance because both solutions share the regression operator:
    both must live on the same paths and have been fitted at the same
    degree, which every fit here takes.
    """
    paths, degree = sol1.paths, sol1.degree
    if sol2.paths is not paths:
        raise ConfigurationError("both solutions must live on the same paths")
    if sol2.degree != degree:
        raise ConfigurationError(
            f"both solutions must be fitted at the same degree, got {degree} and {sol2.degree}")
    m, ksteps, n, d, dt = paths.paths, paths.grid.steps, driver.n, driver.d, paths.grid.dt
    dy = sol1.y - sol2.y
    dz = sol1.z - sol2.z
    reg = RegressionConditional.of(paths, degree)

    equation_residual = 0.0
    moments = _MomentSums(paths)
    alpha_all = np.empty((m, ksteps, n, n))
    da_all = np.empty((m, ksteps, n, n, d))
    struct_all = np.empty((m, ksteps, n, n, d))
    g = driver.g if driver.g is not None else (lambda t, x, y, z: np.zeros((y.shape[0], n)))
    for k in range(ksteps):
        t_k = float(paths.grid.nodes[k])
        x_k = paths.state_at(k)
        y1, y2 = sol1.y[:, k], sol2.y[:, k]
        z1, z2 = sol1.z[:, k], sol2.z[:, k]
        g_11 = g(t_k, x_k, y1, z1)
        g_21 = g(t_k, x_k, y2, z1)
        g_22 = g(t_k, x_k, y2, z2)
        alpha = _difference_quotient(g_11 - g_21, dy[:, k])
        da = _difference_quotient(g_21 - g_22, dz[:, k])
        struct = driver.structural(z1, z2, dz[:, k])
        alpha_all[:, k], da_all[:, k], struct_all[:, k] = alpha, da, struct
        drift = np.einsum("mij,mj->mi", alpha, dy[:, k]) + contract_az(struct + da, dz[:, k])
        moments.add(k, dy, dz, drift)
        # dY_k - E_k[dY_{k+1}] - drift dt vanishes to the per-step fixed-point
        # tolerance because the conditional operator is shared and linear
        fitted = reg.fit_predict(k, dy[:, k + 1])
        step_res = dy[:, k] - fitted - drift * dt[k]
        equation_residual = max(equation_residual, float(np.abs(step_res).max()))
    resid = moments.means()
    resid["equation_residual"] = equation_residual
    dxi = dy[:, -1]
    dxi_norm = float(np.sqrt((dxi * dxi).sum(axis=1)).max())
    dy_norm = estimate_norm("sup_p", dy, paths, q=np.inf).value
    dz_norm = estimate_norm("bmo", dz, paths, degree=degree).value
    return {
        "residual": resid,
        "dxi_norm": dxi_norm,
        "dy_norm": dy_norm,
        "dz_norm": dz_norm,
        "stability_ratio": (dy_norm + dz_norm) / dxi_norm if dxi_norm > 0 else 0.0,
        "coefficients": {"alpha": alpha_all, "delta_a": da_all, "structural": struct_all},
    }
