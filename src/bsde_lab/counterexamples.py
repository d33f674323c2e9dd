"""Closed-form counterexample machinery.

Two constructions in dimension n = 2, d = 1: the rotation exponential stopped
at the exit of |B| from pi/2, which is a strict local martingale with infinite
first moment at the stopped horizon, and the partition-mixture refinement of
it for which the associated homogeneous linear BSDE has no bounded solution.
Both reduce computationally to the exit-time identity

    E[exp(sigma_b / 2)] = 1 / cos(b),   sigma_b = exit time of |W| from b,

for 0 < b < pi/2, which this module also estimates directly: with a
bridge-corrected random walk (`exit_time_exponential`, the gated method) and
by exact sampling, sigma_b = b^2 J with J drawn by inverting its CDF
(`exit_time_exact`, the engine of the nonexistence diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .brownian import PathEnsemble, substream
from .exponential import ExponentialEnsemble, node_blocks, truncation_curve
from .fields import StoppedRotationField
from .grids import ConfigurationError

# Exit level above which an exit-time estimate carries `heavy_tail_warning`.
# Var exp(sigma_b/2) = 1/cos(b sqrt 2) - 1/cos(b)^2 is finite only for
# b < pi / (2 sqrt 2) ~ 1.11, and the estimated standard error is unreliable
# from pi/4 on; pi/3 sits between the two.  The flag is part of summary.json.
HEAVY_TAIL_LEVEL = np.pi / 3


@dataclass(frozen=True)
class EmerySpec:
    """Rotation exponential stopped at +-level; n = 2, d = 1."""

    level: float = np.pi / 2

    def field(self) -> StoppedRotationField:
        return StoppedRotationField(self.level)


def emery_closed_form(paths: PathEnsemble, level: float = np.pi / 2,
                      inverse: bool = True) -> ExponentialEnsemble:
    """Exact rotation-times-scalar form of the stopped exponential.

    S_t = exp((tau ^ t)/2) [[cos, sin], [-sin, cos]](B_{tau ^ t}) with tau the
    first grid node where |B| >= level; the state is clamped to +-level from
    then on, so every S_t is exactly a scalar multiple of an orthogonal
    matrix.  With `inverse`, S^{-1} = exp(-(tau ^ t)) S^T is filled in closed
    form as well.  Paths that never exit within the grid horizon are flagged
    (truncation bias), not dropped.
    """
    if paths.d != 1:
        raise ConfigurationError("the rotation example lives on a 1-d Brownian motion")
    b = paths.states[:, :, 0]
    hit = np.abs(b) >= level
    exited = hit.any(axis=1)
    m = paths.paths
    k1 = paths.grid.steps + 1
    first = np.where(exited, hit.argmax(axis=1), k1 - 1)
    del hit
    stop = np.where(exited, first, k1)       # stopped at nodes k >= stop
    exit_angle = (np.sign(b[np.arange(m), first]) * level)[:, None]
    exit_time = paths.grid.nodes[first][:, None]
    s = np.empty((m, k1, 2, 2))
    s_inv = np.empty_like(s) if inverse else None
    for lo, hi in node_blocks(k1, m * 4 * 8, 4):
        # state frozen at the (clamped) exit value once stopped
        stopped = np.arange(lo, hi)[None, :] >= stop[:, None]
        angle = np.where(stopped, exit_angle, b[:, lo:hi])
        scale = np.where(stopped, exit_time, paths.grid.nodes[None, lo:hi])  # tau ^ t
        del stopped
        scale /= 2.0
        np.exp(scale, out=scale)
        # cos, then sin over the angle buffer; -scale sin is exactly -(scale sin)
        blk = s[:, lo:hi]
        np.multiply(scale, np.cos(angle), out=blk[..., 0, 0])
        blk[..., 1, 1] = blk[..., 0, 0]
        np.sin(angle, out=angle)
        np.multiply(scale, angle, out=blk[..., 0, 1])
        np.negative(blk[..., 0, 1], out=blk[..., 1, 0])
        if inverse:
            np.square(scale, out=scale)
            np.divide(np.swapaxes(blk, -1, -2), scale[..., None, None], out=s_inv[:, lo:hi])
    # bad paths never exited: truncation bias contributors
    return ExponentialEnsemble(StoppedRotationField(level), paths, s, s_inv,
                               bad_paths=~exited)


def emery_defect_at_horizon(paths: int, horizon: float = 48.0, dt: float = 0.01,
                            seed: int = 0) -> dict:
    """Diagonal martingale defect of the stopped rotation exponential at a
    long horizon, without storing paths.

    Exited paths contribute exactly 0 to the diagonal (cos(+-pi/2) = 0 after
    clamping); survivors contribute exp(horizon/2) cos(B).  The empirical
    mean collapses to 0 once the horizon is long enough that no sampled path
    survives, which is the numerical signature of the uniform-integrability
    failure: the true per-time expectation stays 1, carried by survivors of
    vanishing probability, while the stopped terminal has expectation 0.
    """
    max_steps = int(np.ceil(horizon / dt))
    exit_steps, alive, w = _exit_walk(substream(seed, 23), paths, np.pi / 2, dt,
                                      max_steps, 256, bridge=False)
    contrib = np.zeros(paths)
    contrib[alive] = np.exp(horizon / 2.0) * np.cos(w)
    mean = float(contrib.mean())
    se = float(contrib.std(ddof=1) / np.sqrt(paths))
    defect = abs(1.0 - mean)
    return {
        "diag_defect": defect,
        "std_error": se,
        "survivors": int(alive.size),
        "significance_vs_half": float("inf") if se == 0 else (defect - 0.5) / se,
        "horizon": horizon,
        # |S_{tau ^ horizon}| = exp((tau ^ horizon)/2): rotation times scalar
        "terminal_opnorm_samples": np.exp(np.minimum(exit_steps * dt, horizon) / 2.0),
    }


@dataclass
class ExitTimeResult:
    level: float
    estimate: float
    std_error: float
    paths: int
    dt: float
    truncated_paths: int
    horizon: float
    heavy_tail_warning: bool
    truncation_levels: np.ndarray = field(default=None)
    truncation_curve: np.ndarray = field(default=None)

    @property
    def exact(self) -> float:
        return 1.0 / np.cos(self.level)


def _default_horizon(b: float) -> float:
    # Tail rate of exp(sigma/2) is lambda_1 - 1/2 with lambda_1 = pi^2 / (8 b^2);
    # run until the remaining relative mass is ~exp(-18).
    rate = np.pi**2 / (8.0 * b * b) - 0.5
    return float(min(18.0 / rate, 2000.0))


# Paths per block of the exit walk.  A block's normals and their time-major
# copy, _WALK_BLOCK x chunk doubles each (1 MB apiece at chunk 64), stay in
# cache while the block is summed and screened.
_WALK_BLOCK = 2048


def _exit_walk(rng: np.random.Generator, paths: int, b: float, dt: float,
               max_steps: int, chunk: int, bridge: bool):
    """Random walks W on the grid dt, run until |W| reaches b or max_steps.

    Returns (exit_steps, alive, w): the exit step of every path as a float
    array (max_steps for a path still alive at the end), the indices of
    those survivors in increasing order, and their final W.

    With `bridge` on, a Brownian bridge crossing test per step removes the
    O(sqrt(dt)) discrete-monitoring bias: an increment that stays inside
    (-b, b) at both ends still crosses with probability
    exp(-2 (b - w0)(b - w1) / dt) + exp(-2 (b + w0)(b + w1) / dt).

    Draw order, which fixes every output bit: each chunk of at most `chunk`
    steps draws alive x steps normals, row-major over the alive paths in
    increasing index order; with `bridge` on it then draws one uniform per
    uncrossed increment within 5 sqrt(dt) of a barrier, row-major as well.
    """
    sqdt = np.sqrt(dt)
    # The bridge test only matters within ~5 sqrt(dt) of a barrier: beyond
    # that the crossing probability is below exp(-50).
    band = 5.0 * sqdt if bridge else 0.0
    exit_steps = np.full(paths, max_steps, dtype=float)
    alive = np.arange(paths)
    w = np.zeros(paths)
    normals = np.empty(min(paths, _WALK_BLOCK) * min(chunk, max_steps))
    columns = np.empty_like(normals)
    step = 0
    while alive.size and step < max_steps:
        n_now = min(chunk, max_steps - step)
        w_end = np.empty(alive.size)
        rows, near_paths = [], []
        for start in range(0, alive.size, _WALK_BLOCK):
            w_blk = w[start:start + _WALK_BLOCK]
            z = normals[:w_blk.size * n_now].reshape(w_blk.size, n_now)
            rng.standard_normal(out=z)
            if w_blk.size >= n_now:
                # Time-major copy: the running sum is then n_now vectorised
                # row additions instead of one short accumulate per path.
                walk = columns[:z.size].reshape(n_now, w_blk.size)
                np.copyto(walk, z.T)
                walk *= sqdt
                for j in range(1, n_now):
                    np.add(walk[j - 1], walk[j], out=walk[j])
            else:
                z *= sqdt
                walk = np.cumsum(z, axis=1, out=z).T
            # W = w + running sum.  Rounding is monotone, so the extremes of
            # W are w + the extremes of the running sum, bit for bit, and W
            # itself is formed only where it is needed.
            w_end[start:start + w_blk.size] = walk[-1] + w_blk
            hi = np.maximum(walk.max(axis=0) + w_blk, w_blk)
            lo = np.minimum(walk.min(axis=0) + w_blk, w_blk)
            # Only a path that comes within `band` of a barrier, its start
            # included, can cross or need the bridge test (about 1% of paths
            # per chunk at b = pi/3); the tests below run on those alone.
            near_rows = np.flatnonzero((hi >= b - band) | (lo <= band - b))
            rows.append(near_rows + start)
            near_paths.append(walk[:, near_rows].T + w_blk[near_rows, None])
        rows = np.concatenate(rows)
        keep = np.ones(alive.size, dtype=bool)
        if rows.size:
            near_path = np.concatenate(near_paths)
            crossed = np.abs(near_path) >= b
            if bridge:
                prev = np.concatenate([w[rows, None], near_path[:, :-1]], axis=1)
                near = ((np.maximum(prev, near_path) > b - band)
                        | (np.minimum(prev, near_path) < band - b)) & ~crossed
                sel = np.nonzero(near)
                if sel[0].size:
                    wp, wn = prev[sel], near_path[sel]
                    p_up = np.exp(-2.0 * np.maximum(b - wp, 0) * np.maximum(b - wn, 0) / dt)
                    p_dn = np.exp(-2.0 * np.maximum(b + wp, 0) * np.maximum(b + wn, 0) / dt)
                    u = rng.random(sel[0].size)
                    crossed[sel] |= u < p_up + p_dn
            hit = crossed.any(axis=1)
            exit_steps[alive[rows[hit]]] = step + crossed[hit].argmax(axis=1) + 1
            keep[rows[hit]] = False
        w = w_end[keep]
        alive = alive[keep]
        step += n_now
    return exit_steps, alive, w


def _check_level(b: float) -> None:
    if not 0 < b < np.pi / 2:
        raise ConfigurationError("exit level must lie in (0, pi/2); "
                                 "E[exp(sigma/2)] diverges at pi/2")


def _exit_result(b: float, vals: np.ndarray, dt: float, truncated: int,
                 horizon: float) -> ExitTimeResult:
    """Sample mean, standard error and truncation curve of exp(sigma_b/2)."""
    paths = vals.size
    estimate = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(paths))
    trunc = truncation_curve(vals, count=9)
    return ExitTimeResult(b, estimate, se, paths, dt, truncated, horizon,
                          bool(b > HEAVY_TAIL_LEVEL), trunc["levels"], trunc["curve"])


def exit_time_exponential(b: float, paths: int, dt: float, seed: int = 0,
                          horizon: float | None = None, bridge: bool = True) -> ExitTimeResult:
    """Monte Carlo estimate of E[exp(sigma_b / 2)], sigma_b = exit of |W| from b.

    The walk is monitored at resolution dt, with the Brownian bridge
    correction when `bridge` is on; `_exit_walk` gives the draw order that
    fixes every output bit.  Paths alive at the horizon contribute the floor
    exp(horizon/2) and are counted in `truncated_paths`.

    The estimator has finite variance only for b < pi / (2 sqrt 2) ~ 1.11,
    since E[exp(sigma_b)] = 1/cos(b sqrt 2), and its standard error is
    itself unreliable from b >= pi/4 on (E[exp(2 sigma_b)] = 1/cos(2b) is
    infinite there).  Above HEAVY_TAIL_LEVEL the result carries
    `heavy_tail_warning`; every result carries a truncation curve.
    """
    _check_level(b)
    if horizon is None:
        horizon = _default_horizon(b)
    max_steps = int(np.ceil(horizon / dt))
    exit_steps, alive, _ = _exit_walk(substream(seed, 11), paths, b, dt, max_steps,
                                      64, bridge)
    return _exit_result(b, np.exp(exit_steps * dt / 2.0), dt, alive.size, horizon)


# J, the exit time of a standard Brownian motion from (-1, 1), has the
# survival function P(J > t) = (4/pi) sum_k (-1)^k / (2k+1) exp(-r_k t) with
# r_k = (2k+1)^2 pi^2 / 8.  From _J_TERMS terms on, every term is below
# 1e-22 for t >= _J_LO; P(J <= _J_LO) < 1e-40 and P(J > _J_HI) < 1e-21, so
# [_J_LO, _J_HI] holds the inverse of every double u in [0, 1).
_J_LO, _J_HI, _J_TERMS, _J_TABLE = 5e-3, 40.0, 48, 2048
_J_ODD = 2.0 * np.arange(_J_TERMS) + 1.0
_J_RATE = _J_ODD**2 * np.pi**2 / 8.0
_J_SURVIVAL = 4.0 / np.pi * (-1.0) ** np.arange(_J_TERMS) / _J_ODD
_J_DENSITY = _J_SURVIVAL * _J_RATE


def _exit_survival(t: np.ndarray) -> tuple:
    """P(J > t) and the density of J at t, from the large-time series."""
    surv = np.zeros_like(t)
    dens = np.zeros_like(t)
    for rate, c_surv, c_dens in zip(_J_RATE, _J_SURVIVAL, _J_DENSITY):
        e = np.exp(-rate * t)
        surv += c_surv * e
        dens += c_dens * e
    return surv, dens


@cache
def _exit_table() -> tuple:
    """Nodes t, decreasing and geometric over [_J_LO, _J_HI], and P(J > t),
    made nondecreasing along them (rounding can break that by an ulp where
    the survival rounds to 1)."""
    t = np.geomspace(_J_HI, _J_LO, _J_TABLE)
    surv = np.maximum.accumulate(np.minimum(_exit_survival(t)[0], 1.0))
    t.flags.writeable = surv.flags.writeable = False   # shared by every caller
    return t, surv


def exit_time_quantile(u: np.ndarray) -> np.ndarray:
    """J = F^{-1}(u) for u in [0, 1), F the CDF of J.

    Solves P(J > t) = 1 - u, which is exact for u >= 1/2, so the upper tail,
    where exp(b^2 J / 2) is large, keeps full relative precision.  The
    start is `np.interp` in the tabulated survival; four Newton steps with
    the density follow, each kept inside the table cell that brackets the
    root.  |F(J) - u| is then at the 1e-16 rounding level of F.
    """
    t_tab, s_tab = _exit_table()
    q = 1.0 - np.asarray(u, dtype=float)
    cell = np.clip(np.searchsorted(s_tab, q), 1, s_tab.size - 1)
    lo, hi = t_tab[cell], t_tab[cell - 1]
    t = np.interp(q, s_tab, t_tab)
    for _ in range(4):
        surv, dens = _exit_survival(t)
        # the density floor only acts where rounding swamps the density
        # (u below ~1e-15); the cell then bounds the step
        t = np.clip(t + (surv - q) / np.maximum(dens, 1e-300), lo, hi)
    return t


def exit_time_exact(b: float, paths: int, seed: int = 0) -> ExitTimeResult:
    """Estimate of E[exp(sigma_b / 2)] from exact draws of sigma_b.

    By Brownian scaling sigma_b = b^2 J, with J the exit time from (-1, 1);
    each path draws one uniform u from `substream(seed, 29)`, in path order,
    and takes J = `exit_time_quantile(u)`.  There is no time grid, no
    discretisation bias and no horizon, so `dt` is 0, `horizon` is inf and
    no path is truncated.  The variance caveats and `heavy_tail_warning` of
    `exit_time_exponential` apply unchanged.
    """
    _check_level(b)
    j = exit_time_quantile(substream(seed, 29).random(paths))
    return _exit_result(b, np.exp(b * b / 2.0 * j), 0.0, 0, np.inf)


def default_level_sequence(count: int) -> np.ndarray:
    """Admissible exit-level sequence b_k increasing to pi/2.

    cos(b_k) = 0.9 (k+1) 2^{-k}, so the partition-weighted terms
    2^{-k} / cos(b_k) = 1 / (0.9 (k+1)) vanish while their sum diverges
    (harmonic).  One admissible choice; nothing in the construction pins a
    particular sequence.
    """
    k = np.arange(1, count + 1)
    cos_b = 0.9 * (k + 1) * 0.5**k
    return np.arccos(cos_b)


@dataclass(frozen=True)
class NonexistenceSpec:
    """Mixture-of-exit-levels construction with partition weights 2^{-k}.

    The time-change integrand f vanishes on [0, T/2] and equals 1/(T - s) on
    [T/2, T); in the changed clock u = int f^2 ds each stopping level b_k is a
    plain exit time of a standard Brownian motion, so every expectation below
    reduces to the exit-time identity.
    """

    horizon: float = 1.0
    levels: np.ndarray = field(default_factory=lambda: default_level_sequence(12))

    def __post_init__(self):
        b = np.asarray(self.levels, dtype=float)
        checks = self.condition_report()
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            raise ConfigurationError(f"level sequence violates conditions: {bad}")
        object.__setattr__(self, "levels", b)

    def condition_report(self) -> dict:
        """Numeric check of the three level-sequence conditions on the prefix.

        Divergence of the full series cannot be decided from a prefix; the
        check accepts sequences whose terms decay no faster than harmonically
        (terms * k bounded away from zero), which forces divergence.
        """
        b = np.asarray(self.levels, dtype=float)
        k = np.arange(1, b.size + 1)
        terms = 0.5**k / np.cos(b)
        slow = terms * (k + 1)
        return {
            "range_and_increasing": bool(np.all(b >= 0) and np.all(b < np.pi / 2)
                                         and np.all(np.diff(b) > 0)),
            "partial_sums_diverge": bool(slow.min() > 0.5 * slow.max()),
            "terms_vanish": bool(terms[-1] < 0.5 * terms[0]),
        }

    def f(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        late = s >= self.horizon / 2
        out[late] = 1.0 / (self.horizon - s[late])
        return out

    def partition_weights(self, j: int) -> np.ndarray:
        return 0.5 ** np.arange(1, j + 1)

    def partial_sum(self, j: int) -> float:
        """sum_{k <= j} 2^{-k} / cos(b_k), the divergent lower bound."""
        return float((self.partition_weights(j) / np.cos(self.levels[:j])).sum())

    def remainder_bound(self, j: int) -> float:
        """1 / (2^j cos(b_j)), the vanishing gap |Y_0 - E[S_{sigma_j} xi]|."""
        return float(1.0 / (2.0**j * np.cos(self.levels[j - 1])))

    def terminal_vector(self, angles: np.ndarray) -> np.ndarray:
        """xi = (cos N_tau, sin N_tau); unit length pathwise."""
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


@dataclass
class BlowupDiagnostics:
    j: np.ndarray
    partial_sum: np.ndarray          # analytic sum_{k<=j} 2^{-k}/cos(b_k)
    simulated: np.ndarray            # simulated partial sums (same decomposition)
    simulated_std_error: np.ndarray
    remainder_bound: np.ndarray
    full_value: np.ndarray           # mixture estimate of E[exp(.5 int_0^{sigma_j} f^2)]
    heavy_levels: list
    per_level: list

    def to_rows(self):
        return np.column_stack([self.j, self.partial_sum, self.simulated,
                                self.simulated_std_error, self.remainder_bound])


def nonexistence_blowup(spec: NonexistenceSpec, j_max: int, paths_per_level: int = 20_000,
                        *, seed: int = 0) -> BlowupDiagnostics:
    """Divergence diagnostics for the no-solution construction.

    In the changed clock, E[exp(.5 int_0^{sigma_j} f^2 ds)] =
    sum_{k <= j} 2^{-k} E[exp(sigma_{b_k}/2)] + 2^{-j} E[exp(sigma_{b_j}/2)],
    so the mixture estimate combines per-level exit-time estimates; the
    analytic column uses the identity 1/cos(b_k).  Level k is estimated by
    `exit_time_exact` with seed `seed + 101 k`: exact draws, so the
    simulated column carries neither discretisation bias nor horizon
    truncation.  Levels beyond HEAVY_TAIL_LEVEL carry the heavy-tail
    warning, since their standard errors are unreliable there.
    """
    if j_max < 1 or j_max > spec.levels.size:
        raise ConfigurationError(f"j_max must be in [1, {spec.levels.size}]")
    per_level = [exit_time_exact(float(spec.levels[k]), paths_per_level, seed=seed + 101 * k)
                 for k in range(j_max)]
    est = np.array([r.estimate for r in per_level])
    ses = np.array([r.std_error for r in per_level])
    j = np.arange(1, j_max + 1)
    w = 0.5 ** np.arange(1, j_max + 1)
    partial = np.array([spec.partial_sum(int(x)) for x in j])
    sim = np.cumsum(w * est)
    sim_se = np.sqrt(np.cumsum((w * ses) ** 2))     # levels are independent
    full = sim + w * est                          # tail of the mixture sits at level j
    remainder = np.array([spec.remainder_bound(int(x)) for x in j])
    heavy = [float(spec.levels[k]) for k in range(j_max) if per_level[k].heavy_tail_warning]
    return BlowupDiagnostics(j, partial, sim, sim_se, remainder, full, heavy, per_level)
