"""Seeded Brownian path ensembles.

Streams are derived from a Philox counter-based generator: path block b uses
`Philox(key=seed).jumped(b)`, so the draw for a given path never depends on
how work is partitioned across threads.  Fixed block size keeps regeneration
bit-identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import ConfigurationError, TimeGrid

# Paths per Philox sub-stream.  Part of the reproducibility contract: changing
# it changes the sampled numbers, so it is a constant, not a knob.
_BLOCK = 1 << 14


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for auxiliary draws keyed by (seed, *tags).

    Used by nested conditional estimators so inner simulations at different
    (path, time) anchors draw from disjoint streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(
        int(t) & 0xFFFFFFFFFFFFFFFF for t in tags
    ))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Batch of d-dimensional Brownian increments on a time grid.

    increments[m, k] is B_{t_{k+1}} - B_{t_k} for path m; states are the
    cumulative sums with B_0 = `initial_state` (zero unless restarted).
    Identity-hashed so path-dependent fields can cache per-ensemble state.
    """

    grid: TimeGrid
    d: int
    paths: int
    seed: int
    increments: np.ndarray = field(repr=False)
    initial_state: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.increments.shape != (self.paths, self.grid.steps, self.d):
            raise ConfigurationError(
                f"increments shape {self.increments.shape} does not match "
                f"(paths={self.paths}, steps={self.grid.steps}, d={self.d})"
            )
        if self.initial_state is None:
            object.__setattr__(self, "initial_state", np.zeros((self.paths, self.d)))
        self.increments.setflags(write=False)

    @cached_property
    def states(self) -> np.ndarray:
        """Brownian states at grid nodes, shape (paths, steps + 1, d).

        Computed once per ensemble and read-only, since every caller shares it.
        """
        out = np.empty((self.paths, self.grid.steps + 1, self.d))
        out[:, 0] = self.initial_state
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        out[:, 1:] += self.initial_state[:, None, :]
        out.setflags(write=False)
        return out

    def state_at(self, k: int) -> np.ndarray:
        """Brownian state at node k, shape (paths, d); a read-only view."""
        return self.states[:, k]

    def subset(self, index: np.ndarray) -> "PathEnsemble":
        """Sub-ensemble of the selected paths (used for batch error bars)."""
        index = np.asarray(index)
        return PathEnsemble(self.grid, self.d, int(index.size), self.seed,
                            self.increments[index].copy(), self.initial_state[index].copy())

    def coarsened(self, factor: int) -> "PathEnsemble":
        """Same Brownian paths on a grid coarsened by `factor` (increments summed)."""
        grid = self.grid.coarsened(factor)
        inc = self.increments.reshape(self.paths, grid.steps, factor, self.d).sum(axis=2)
        return PathEnsemble(grid, self.d, self.paths, self.seed, inc, self.initial_state)

    def to_csv(self, path) -> None:
        """Flat CSV dump (path-major, step-minor) for debugging."""
        m, k, d = self.increments.shape
        idx = np.repeat(np.arange(m), k), np.tile(np.arange(k), m)
        cols = [idx[0], idx[1]] + [self.increments[:, :, e].ravel() for e in range(d)]
        header = "path,step," + ",".join(f"dB{e}" for e in range(d))
        np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
                   comments="", fmt=["%d", "%d"] + ["%.17g"] * d)


def generate_brownian(grid: TimeGrid, d: int, paths: int, seed: int,
                      threads: int = 1, initial_state=None) -> PathEnsemble:
    """Simulate `paths` independent d-dimensional Brownian motions on `grid`.

    Deterministic given `seed`; the thread count changes only the execution,
    never the numbers.
    """
    if d < 1 or paths < 1:
        raise ConfigurationError(f"d and paths must be >= 1, got d={d}, paths={paths}")
    k = grid.steps
    sqrt_dt = np.sqrt(grid.dt)
    inc = np.empty((paths, k, d))
    blocks = range((paths + _BLOCK - 1) // _BLOCK)

    def fill(b: int) -> None:
        lo, hi = b * _BLOCK, min((b + 1) * _BLOCK, paths)
        rng = _block_rng(seed, b)
        z = rng.standard_normal((hi - lo, k, d))
        inc[lo:hi] = z * sqrt_dt[None, :, None]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    else:
        for b in blocks:
            fill(b)

    init = None
    if initial_state is not None:
        init = np.broadcast_to(np.asarray(initial_state, dtype=float), (paths, d)).copy()
    return PathEnsemble(grid, d, paths, seed, inc, init)
