"""Closed-form counterexample machinery.

Two constructions in dimension n = 2, d = 1: the rotation exponential stopped
at the exit of |B| from `fields.EMERY_LEVEL` (pi/2), which is a strict local
martingale with infinite first moment at the stopped horizon, and the
partition-mixture refinement of it for which the associated homogeneous
linear BSDE has no bounded solution.
Both reduce computationally to the exit-time identity

    E[exp(sigma_b / 2)] = 1 / cos(b),   sigma_b = exit time of |W| from b,

for 0 < b < pi/2, which this module also estimates directly: with a
bridge-corrected random walk (`exit_time_exponential`, the gated method) and
by exact sampling, sigma_b = b^2 J with J drawn by inverting its CDF
(`exit_time_exact`, the engine of the nonexistence diagnostics).

The closed form of the stopped rotation and its defect profile share one
block loop (`_emery_blocks`): it reads the Brownian states one node block at
a time (`PathEnsemble.state_blocks`, over the forward layer's one block rule
`_step_blocks`), forms that node-major block of S, and pushes it to its
reader, which stores it or reduces it at once.  So on a grid they hold the
increments and a few node blocks, never the whole states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .brownian import PathEnsemble, _step_blocks, substream
from .exponential import ExponentialEnsemble, MartingaleDefectReport, defect_profile
from .fields import EMERY_LEVEL, StoppedRotationField
from .grids import ConfigurationError

# Exit level above which an exit-time estimate carries `heavy_tail_warning`.
# Var exp(sigma_b/2) = 1/cos(b sqrt 2) - 1/cos(b)^2 is finite only for
# b < pi / (2 sqrt 2) ~ 1.11, and the estimated standard error is unreliable
# from pi/4 on; pi/3 sits between the two.  The flag is part of summary.json.
HEAVY_TAIL_LEVEL = np.pi / 3


def _emery_exits(paths: PathEnsemble, level: float) -> tuple:
    """(stop, exit angle, exit time) per path: stop is the stopping node of
    `StoppedRotationField(level)`, the angle is the state there clamped to
    +-level and the time that node's time (0 and T for a path that does not
    exit, which no stopped node reads)."""
    if paths.d != 1:
        raise ConfigurationError("the rotation example lives on a 1-d Brownian motion")
    stop, state = StoppedRotationField(level).stop(paths)
    first = np.minimum(stop, paths.grid.steps)
    return stop, np.sign(state) * level, paths.grid.nodes[first]


def _emery_blocks(paths: PathEnsemble, exits: tuple, rows, s, s_inv):
    """Yield the closed form's node-major (hi - lo, paths in rows, 2, 2)
    blocks of S for the paths `rows` (an index or a mask), over _step_blocks
    in node order: transposed views of the whole path-major `s` (and the same
    block of `s_inv` filled beside, unless None), or new blocks where `s` is
    None, cut from the states streamed in the stop scan's larger blocks.
    Every entry is elementwise in the path's own state, so a block's bits do
    not depend on its layout, bounds or rows.  No yielded block is kept
    here, so a reader may drop the block before the next one is formed."""
    stop, exit_angle, exit_time = (e[rows][None, :] for e in exits)
    m, nodes = stop.shape[1], paths.grid.nodes
    bounds = _step_blocks(nodes.size, m * 8)
    for (first, _), states in zip(bounds, paths.state_blocks(bounds, rows)):
        for lo, hi in _step_blocks(states.shape[1], m * 4 * 8):
            lo, hi, state = first + lo, first + hi, states[:, lo:hi, 0].T
            block = np.empty((hi - lo, m, 2, 2)) if s is None else s[:, lo:hi].swapaxes(0, 1)
            # state frozen at the (clamped) exit value once stopped
            stopped = np.arange(lo, hi)[:, None] >= stop
            angle = np.where(stopped, exit_angle, state)
            scale = np.where(stopped, exit_time, nodes[lo:hi, None])  # tau ^ t
            del stopped, state
            scale /= 2.0
            np.exp(scale, out=scale)
            # cos, then sin over the angle buffer; -scale sin is exactly -(scale sin)
            np.multiply(scale, np.cos(angle), out=block[..., 0, 0])
            block[..., 1, 1] = block[..., 0, 0]
            np.sin(angle, out=angle)
            np.multiply(scale, angle, out=block[..., 0, 1])
            np.negative(block[..., 0, 1], out=block[..., 1, 0])
            if s_inv is not None:
                np.square(scale, out=scale)
                np.divide(np.swapaxes(block, -1, -2), scale[..., None, None],
                          out=s_inv[:, lo:hi].swapaxes(0, 1))
            del angle, scale
            yield block
            del block
        del states                  # before the next states block is formed


def emery_closed_form(paths: PathEnsemble, level: float = EMERY_LEVEL,
                      inverse: bool = True) -> ExponentialEnsemble:
    """Exact rotation-times-scalar form of the stopped exponential.

    S_t = exp((tau ^ t)/2) [[cos, sin], [-sin, cos]](B_{tau ^ t}) with tau the
    first grid node where |B| >= level; the state is clamped to +-level from
    then on, so every S_t is exactly a scalar multiple of an orthogonal
    matrix.  With `inverse`, S^{-1} = exp(-(tau ^ t)) S^T is filled in closed
    form as well.  Paths that never exit within the grid horizon are flagged
    (truncation bias), not dropped.  The arrays are filled one node block at
    a time by `_emery_blocks`, through transposed views of its node-major
    blocks: the loop that `emery_defect_profile` streams without storing S.
    """
    exits = _emery_exits(paths, level)
    m, k1 = paths.paths, paths.grid.steps + 1
    s = np.empty((m, k1, 2, 2))
    s_inv = np.empty_like(s) if inverse else None
    for _ in _emery_blocks(paths, exits, slice(None), s, s_inv):
        pass
    # bad paths never exited: truncation bias contributors
    return ExponentialEnsemble(StoppedRotationField(level), paths, s, s_inv,
                               bad_paths=exits[0] == k1)


def emery_defect_profile(paths: PathEnsemble, level: float = EMERY_LEVEL) -> MartingaleDefectReport:
    """martingale_defect(emery_closed_form(paths, level)), bit for bit, without
    S or the whole states: the exited paths are known after the stop scan,
    so `_emery_blocks` forms each node block of S for them alone, from their
    streamed states, and pushes it to the reduction."""
    exits = _emery_exits(paths, level)
    k1 = paths.grid.steps + 1
    keep = exits[0] < k1
    return defect_profile(keep, 2, k1, _emery_blocks(paths, exits, keep, None, None))


# Time step of the Emery horizon walk.
_EMERY_DT = 0.01


def emery_defect_at_horizon(paths: int, horizon: float, seed: int = 0,
                            threads: int = 1) -> dict:
    """Diagonal martingale defect of the stopped rotation exponential at a
    long horizon, without storing paths.

    The walk runs to EMERY_LEVEL in steps of _EMERY_DT.  Exited paths
    contribute exactly 0 to the diagonal (cos(+-EMERY_LEVEL) = 0 after
    clamping); survivors contribute exp(horizon/2) cos(B).  The empirical
    mean collapses to 0 once the horizon is long enough that no sampled path
    survives, which is the numerical signature of the uniform-integrability
    failure: the true per-time expectation stays 1, carried by survivors of
    vanishing probability, while the stopped terminal has expectation 0.
    `threads` workers share the walk without moving a bit (`_exit_walk`).
    """
    max_steps = int(np.ceil(horizon / _EMERY_DT))
    exit_steps, alive, w = _exit_walk(seed, 23, paths, EMERY_LEVEL, _EMERY_DT, max_steps, 256,
                                      bridge=False, threads=threads)
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
        # |S_{tau ^ horizon}| = exp((tau ^ horizon)/2): rotation times scalar
        "terminal_opnorm_samples": np.exp(np.minimum(exit_steps * _EMERY_DT, horizon) / 2.0),
    }


@dataclass
class ExitTimeResult:
    level: float
    estimate: float
    std_error: float
    truncated_paths: int
    heavy_tail_warning: bool

    @property
    def exact(self) -> float:
        return 1.0 / np.cos(self.level)


def _default_horizon(b: float) -> float:
    # Tail rate of exp(sigma/2) is lambda_1 - 1/2 with lambda_1 = pi^2 / (8 b^2);
    # run until the remaining relative mass is ~exp(-18).
    rate = np.pi**2 / (8.0 * b * b) - 0.5
    return float(min(18.0 / rate, 2000.0))


# Paths per block of the exit walk.  Block k holds paths [k _WALK_BLOCK,
# (k + 1) _WALK_BLOCK) and draws from its own stream, so, like
# brownian._BLOCK, the constant is part of the draw order: changing it
# changes every output bit.  Blocks are summed in groups of at most
# _WALK_BLOCK live paths, whose normals (1 MB at chunk 64) stay in cache.
_WALK_BLOCK = 2048

# Below this many live paths in a group, one cumsum down the time axis is
# faster than a loop of row additions.  Both add in the same order, so the
# choice moves no bit.
_ROW_SUM_MIN = 300

# With threads, the walk runs in rounds of _ROUND chunks, each worker on a
# contiguous range of blocks, while at least _THREAD_MIN paths are alive.
# Below that a chunk is mostly interpreter work, which threads only contend
# for, so one thread finishes the walk.
_ROUND, _THREAD_MIN = 16, 1024


def _groups(counts: list) -> list:
    """Runs of consecutive blocks with at most _WALK_BLOCK live paths in all,
    as lists of (block, first row, rows) over the live rows in block order;
    blocks without live paths are left out."""
    groups, size, start = [], _WALK_BLOCK, 0
    for k, rows in enumerate(counts):
        if not rows:
            continue
        if size + rows > _WALK_BLOCK:
            groups.append([])
            size = 0
        groups[-1].append((k, start, rows))
        size += rows
        start += rows
    return groups


def _walk(rngs: list, alive: np.ndarray, w: np.ndarray, step: int, stop: int,
          exit_steps: np.ndarray, b: float, dt: float, chunk: int, bridge: bool):
    """Walk the live paths `alive`, at W = w after `step` steps, until `stop`
    steps or until all have exited; record exits in `exit_steps` and return
    the survivors and their W."""
    sqdt = np.sqrt(dt)
    # The bridge test only matters within ~5 sqrt(dt) of a barrier: beyond
    # that the crossing probability is below exp(-50).
    band = 5.0 * sqdt if bridge else 0.0
    walk_buf = np.empty(min(alive.size, _WALK_BLOCK) * min(chunk, stop - step))
    scratch = np.empty_like(walk_buf)
    while alive.size and step < stop:
        n_now = min(chunk, stop - step)
        w_end = np.empty(alive.size)
        keep = np.ones(alive.size, dtype=bool)
        for group in _groups(np.bincount(alive // _WALK_BLOCK).tolist()):
            g0 = group[0][1]
            g1 = group[-1][1] + group[-1][2]
            # Time-major: a step's normals are one row, so the running sum
            # is n_now vectorised row additions.
            walk = walk_buf[:n_now * (g1 - g0)].reshape(n_now, g1 - g0)
            if len(group) == 1:
                rngs[group[0][0]].standard_normal(out=walk)
                walk *= sqdt
            else:
                for k, start, rows in group:
                    z = scratch[:n_now * rows].reshape(n_now, rows)
                    rngs[k].standard_normal(out=z)
                    np.multiply(z, sqdt, out=walk[:, start - g0:start - g0 + rows])
            if g1 - g0 < _ROW_SUM_MIN:
                np.cumsum(walk, axis=0, out=walk)
            else:
                for j in range(1, n_now):
                    np.add(walk[j - 1], walk[j], out=walk[j])
            # W = w + running sum.  Rounding is monotone, so the extremes of
            # W are w + the extremes of the running sum, bit for bit, and W
            # itself is formed only where it is needed.
            w_grp = w[g0:g1]
            w_end[g0:g1] = walk[-1] + w_grp
            hi = np.maximum(walk.max(axis=0) + w_grp, w_grp)
            lo = np.minimum(walk.min(axis=0) + w_grp, w_grp)
            # Only a path that comes within `band` of a barrier, its start
            # included, can cross or need the bridge test (about 1% of paths
            # per chunk at b = pi/3); the tests below run on those alone.
            near_rows = np.flatnonzero((hi >= b - band) | (lo <= band - b))
            if not near_rows.size:
                continue
            near_path = walk[:, near_rows].T + w_grp[near_rows, None]
            crossed = np.abs(near_path) >= b
            if bridge:
                prev = np.concatenate([w_grp[near_rows, None], near_path[:, :-1]], axis=1)
                near = ((np.maximum(prev, near_path) > b - band)
                        | (np.minimum(prev, near_path) < band - b)) & ~crossed
                sel = np.nonzero(near)
                if sel[0].size:
                    wp, wn = prev[sel], near_path[sel]
                    p_up = np.exp(-2.0 * np.maximum(b - wp, 0) * np.maximum(b - wn, 0) / dt)
                    p_dn = np.exp(-2.0 * np.maximum(b + wp, 0) * np.maximum(b + wn, 0) / dt)
                    # each block's uniforms from its own stream, in the
                    # row-major order of its (path, step) pairs
                    u = np.empty(sel[0].size)
                    ends = np.searchsorted(near_rows[sel[0]],
                                           [start - g0 + rows for _, start, rows in group])
                    u_lo = 0
                    for (k, _, _), u_hi in zip(group, ends.tolist()):
                        if u_hi > u_lo:
                            rngs[k].random(out=u[u_lo:u_hi])
                        u_lo = u_hi
                    crossed[sel] |= u < p_up + p_dn
            hit = crossed.any(axis=1)
            rows_hit = g0 + near_rows[hit]
            exit_steps[alive[rows_hit]] = step + crossed[hit].argmax(axis=1) + 1
            keep[rows_hit] = False
        w = w_end[keep]
        alive = alive[keep]
        step += n_now
    return alive, w


def _exit_walk(seed: int, tag: int, paths: int, b: float, dt: float, max_steps: int,
               chunk: int, bridge: bool, threads: int):
    """Random walks W on the grid dt, run until |W| reaches b or max_steps.

    Returns (exit_steps, alive, w): the exit step of every path as a float
    array (max_steps for a path still alive at the end), the indices of
    those survivors in increasing order, and their final W.

    With `bridge` on, a Brownian bridge crossing test per step removes the
    O(sqrt(dt)) discrete-monitoring bias: an increment that stays inside
    (-b, b) at both ends still crosses with probability
    exp(-2 (b - w0)(b - w1) / dt) + exp(-2 (b + w0)(b + w1) / dt).

    Draw order, which fixes every output bit: block k of _WALK_BLOCK paths
    (the last one may hold fewer) draws from its own generator,
    `substream(seed, tag, k)` on SFC64.  Each chunk of at most `chunk` steps
    it draws steps x live normals, time-major over its live paths in
    increasing index order; with `bridge` on it then draws one uniform per
    uncrossed increment within 5 sqrt(dt) of a barrier, row-major over its
    (path, step) pairs.  A block's draws depend on its own paths alone and
    the arithmetic is per path, so neither the grouping of blocks nor the
    `threads` workers that share them out move a bit.
    """
    blocks = -(-paths // _WALK_BLOCK)
    rngs = [substream(seed, tag, k, bit_generator="SFC64") for k in range(blocks)]
    exit_steps = np.full(paths, max_steps, dtype=float)
    alive, w = np.arange(paths), np.zeros(paths)
    threads = min(threads, blocks)
    step = 0
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor   # off the start-up path
        with ThreadPoolExecutor(max_workers=threads) as pool:
            while alive.size >= _THREAD_MIN and step < max_steps:
                stop = min(max_steps, step + _ROUND * chunk)
                # cut at block boundaries into ranges of about equal live paths
                live = np.cumsum(np.bincount(alive // _WALK_BLOCK))
                cuts = [0, *live[np.searchsorted(live, np.arange(1, threads) * alive.size
                                                 / threads)], alive.size]
                parts = list(pool.map(
                    lambda lo, hi: _walk(rngs, alive[lo:hi], w[lo:hi], step, stop,
                                         exit_steps, b, dt, chunk, bridge),
                    cuts[:-1], cuts[1:]))
                alive = np.concatenate([a for a, _ in parts])
                w = np.concatenate([x for _, x in parts])
                step = stop
    alive, w = _walk(rngs, alive, w, step, max_steps, exit_steps, b, dt, chunk, bridge)
    return exit_steps, alive, w


def _check_level(b: float) -> None:
    if not 0 < b < np.pi / 2:
        raise ConfigurationError(f"exit level {b!r} must lie in (0, pi/2); "
                                 "E[exp(sigma/2)] diverges at pi/2")


# Most normals the exit walks of one run may be expected to draw, the sum
# over its levels of M b^2 / dt (E[sigma_b] = b^2), or for the Emery walk
# M min(EMERY_LEVEL^2, horizon) / dt: six times acceptance criterion 01, which
# draws 1.7e9 in under a minute at one thread.
MAX_EXIT_NORMALS = 1e10


def _check_normals(normals: float, asker: str, remedy: str) -> None:
    """Refuse a walk expected to draw more than MAX_EXIT_NORMALS normals;
    the message names what `asker` asks for and the `remedy`."""
    if normals > MAX_EXIT_NORMALS:
        raise ConfigurationError(
            f"{asker} for about {normals:.3g} normals, "
            f"above its limit of {MAX_EXIT_NORMALS:.0e}; {remedy}")


def check_exit_walks(levels: list, paths: int, dt: float) -> None:
    """Refuse exit walks over `levels` before any of them runs: a level
    outside (0, pi/2), or more than MAX_EXIT_NORMALS expected normals."""
    for b in levels:
        _check_level(b)
    _check_normals(sum(paths * b * b / dt for b in levels),
                   f"dt = {dt!r} and M = {paths} ask the exit walk", "raise dt or lower M")


def check_emery_walk(paths: int, horizon: float) -> None:
    """Refuse emery_defect_at_horizon(paths, horizon) before it runs when its
    walk may be expected to draw more than MAX_EXIT_NORMALS normals: a path
    walks until |W| reaches EMERY_LEVEL, E[sigma] = EMERY_LEVEL^2, or until
    `horizon`."""
    _check_normals(paths * min(EMERY_LEVEL ** 2, horizon) / _EMERY_DT,
                   f"M = {paths} asks the Emery walk", "lower M")


def _exit_result(b: float, vals: np.ndarray, truncated: int) -> ExitTimeResult:
    """Sample mean and standard error of the samples `vals` of exp(sigma_b/2)."""
    se = float(vals.std(ddof=1) / np.sqrt(vals.size))
    return ExitTimeResult(b, float(vals.mean()), se, truncated, bool(b > HEAVY_TAIL_LEVEL))


def exit_time_exponential(b: float, paths: int, dt: float, seed: int = 0,
                          horizon: float | None = None, bridge: bool = True,
                          threads: int = 1) -> ExitTimeResult:
    """Monte Carlo estimate of E[exp(sigma_b / 2)], sigma_b = exit of |W| from b.

    The walk is monitored at resolution dt, with the Brownian bridge
    correction when `bridge` is on; `_exit_walk` gives the draw order that
    fixes every output bit, whatever the number of `threads`.  Paths alive
    at the horizon contribute the floor exp(horizon/2) and are counted in
    `truncated_paths`.

    The estimator has finite variance only for b < pi / (2 sqrt 2) ~ 1.11,
    since E[exp(sigma_b)] = 1/cos(b sqrt 2), and its standard error is
    itself unreliable from b >= pi/4 on (E[exp(2 sigma_b)] = 1/cos(2b) is
    infinite there).  Above HEAVY_TAIL_LEVEL the result carries
    `heavy_tail_warning`.
    """
    _check_level(b)
    if horizon is None:
        horizon = _default_horizon(b)
    max_steps = int(np.ceil(horizon / dt))
    exit_steps, alive, _ = _exit_walk(seed, 11, paths, b, dt, max_steps, 64, bridge,
                                      threads)
    return _exit_result(b, np.exp(exit_steps * dt / 2.0), alive.size)


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
    discretisation bias and no horizon, so no path is truncated.  The
    variance caveats and `heavy_tail_warning` of `exit_time_exponential`
    apply unchanged.
    """
    _check_level(b)
    j = exit_time_quantile(substream(seed, 29).random(paths))
    return _exit_result(b, np.exp(b * b / 2.0 * j), 0)


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
    reduces to the exit-time identity, and f itself is never evaluated.
    """

    levels: np.ndarray = field(default_factory=lambda: default_level_sequence(12))

    def __post_init__(self):
        b = np.asarray(self.levels, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ConfigurationError(f"the level sequence is empty or not one-dimensional "
                                     f"(shape {b.shape}); give a list of at least one level")
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

    def partition_weights(self, j: int) -> np.ndarray:
        return 0.5 ** np.arange(1, j + 1)

    def partial_sum(self, j: int) -> float:
        """sum_{k <= j} 2^{-k} / cos(b_k), the divergent lower bound."""
        return float((self.partition_weights(j) / np.cos(self.levels[:j])).sum())

    def remainder_bound(self, j: int) -> float:
        """1 / (2^j cos(b_j)), the vanishing gap |Y_0 - E[S_{sigma_j} xi]|."""
        return float(1.0 / (2.0**j * np.cos(self.levels[j - 1])))


@dataclass
class BlowupDiagnostics:
    j: np.ndarray
    partial_sum: np.ndarray          # analytic sum_{k<=j} 2^{-k}/cos(b_k)
    simulated: np.ndarray            # simulated partial sums (same decomposition)
    simulated_std_error: np.ndarray
    remainder_bound: np.ndarray
    heavy_levels: list

    def to_rows(self):
        return np.column_stack([self.j, self.partial_sum, self.simulated,
                                self.simulated_std_error, self.remainder_bound])


def nonexistence_blowup(spec: NonexistenceSpec, j_max: int, paths_per_level: int,
                        *, seed: int = 0) -> BlowupDiagnostics:
    """Divergence diagnostics for the no-solution construction.

    In the changed clock, E[exp(.5 int_0^{sigma_j} f^2 ds)] =
    sum_{k <= j} 2^{-k} E[exp(sigma_{b_k}/2)] + 2^{-j} E[exp(sigma_{b_j}/2)];
    the simulated column estimates its partial sums from per-level exit-time
    estimates, and the analytic column uses the identity 1/cos(b_k).  Level
    k is estimated by `exit_time_exact` with seed `seed + 101 k`: exact
    draws, so the simulated column carries neither discretisation bias nor
    horizon truncation.  Levels beyond HEAVY_TAIL_LEVEL carry the heavy-tail
    warning, since their standard errors are unreliable there.
    """
    if j_max < 1 or j_max > spec.levels.size:
        raise ConfigurationError(f"j_max must be in [1, {spec.levels.size}]")
    per_level = [exit_time_exact(float(spec.levels[k]), paths_per_level, seed=seed + 101 * k)
                 for k in range(j_max)]
    est = np.array([r.estimate for r in per_level])
    ses = np.array([r.std_error for r in per_level])
    j = np.arange(1, j_max + 1)
    w = spec.partition_weights(j_max)
    partial = np.array([spec.partial_sum(int(x)) for x in j])
    sim = np.cumsum(w * est)
    sim_se = np.sqrt(np.cumsum((w * ses) ** 2))     # levels are independent
    remainder = np.array([spec.remainder_bound(int(x)) for x in j])
    heavy = [float(spec.levels[k]) for k in range(j_max) if per_level[k].heavy_tail_warning]
    return BlowupDiagnostics(j, partial, sim, sim_se, remainder, heavy)
