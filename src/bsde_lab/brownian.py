"""Seeded Brownian path ensembles.

Streams are derived from a Philox counter-based generator: path block b uses
`Philox(key=seed).jumped(b)`, so the draw for a given path never depends on
how work is partitioned across threads.  Fixed block size keeps regeneration
bit-identical for any thread count.

The one block rule of every streamed forward reader lives here, beside the
states streamed in node blocks (`PathEnsemble.state_blocks`): each producer
iterates `_step_blocks` itself and pushes the node-major blocks it forms.
So does the one sum over the paths (`_path_sum`) by which the forward and
backward diagnostics reduce node-major blocks to the bits of the path-major
whole-array reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import ConfigurationError, TimeGrid

# Paths per Philox sub-stream.  Part of the reproducibility contract: changing
# it changes the sampled numbers, so it is a constant, not a knob.
_BLOCK = 1 << 14

# Budget of each node-major block of the forward layer: the Euler pass and
# the martingale defect it feeds, the Emery closed form, the reverse-Holder
# ratios and the stop scan.
_STEP_BLOCK_BYTES = 1 << 18


def _step_blocks(nodes: int, node_bytes: int) -> list:
    """(lo, hi) ranges covering `nodes` nodes, about _STEP_BLOCK_BYTES each."""
    step = max(1, _STEP_BLOCK_BYTES // node_bytes)
    return [(lo, min(lo + step, nodes)) for lo in range(0, nodes, step)]


def _path_sum(x: np.ndarray, row: int) -> np.ndarray:
    """The sum over the paths of a node-major block x (nodes, M, ...), bit for
    bit the axis-0 sum of the path-major (M, ...) array whose path rows hold
    `row` entries: numpy adds the paths in order where a node holds two or
    more entries per path and pairwise where it holds one, so such a block
    takes the running sum (a copy of its end), unless the whole rows hold one
    entry too.  The in-order sum is an einsum: the order of x.sum(axis=1), at
    a fraction of its cost per path where a node holds a few entries."""
    if x[0, 0].size >= 2:
        return np.einsum("ij...->i...", x)
    if row >= 2:
        return np.cumsum(x, axis=1)[:, -1].copy()
    return x.sum(axis=1)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def block_increments(grid: TimeGrid, seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the increments of path block `block`, in place.

    out has shape (paths in the block, grid.steps, d): _BLOCK paths, or fewer
    in the last block.  generate_brownian and the nested R_p estimator both
    draw through here, so a block's numbers never depend on who draws them.
    """
    _block_rng(seed, block).standard_normal(out=out)
    out *= np.sqrt(grid.dt)[None, :, None]
    return out


def substream(seed: int, *tags: int, bit_generator: str = "Philox") -> np.random.Generator:
    """Independent generator for auxiliary draws keyed by (seed, *tags).

    Used by nested conditional estimators so inner simulations at different
    (path, time) anchors draw from disjoint streams, and by the exit walk,
    one stream per block of paths on the numpy bit generator "SFC64".  The
    name, not the class, is the default: naming np.random here would import
    it with the package.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(
        int(t) & 0xFFFFFFFFFFFFFFFF for t in tags
    ))
    return np.random.Generator(getattr(np.random, bit_generator)(ss))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Batch of d-dimensional Brownian increments on a time grid.

    increments[m, k] is B_{t_{k+1}} - B_{t_k} for path m; the states B_t are
    their running sums from B_0 = `initial_state` (zero unless restarted),
    either streamed one node block at a time (`state_blocks`) or held whole
    (`states`, built on first use and cached).  Identity-hashed so
    path-dependent fields can cache per-ensemble state.
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

        Computed once per ensemble, as the one block of `state_blocks` over
        every node, and read-only, since every caller shares it.
        """
        out = next(self.state_blocks([(0, self.grid.steps + 1)]))
        out.setflags(write=False)
        return out

    def state_blocks(self, bounds, rows=slice(None)):
        """Yield states[rows, lo:hi] for each (lo, hi) of `bounds`, bit for bit,
        without forming `states`: a new (paths in rows, hi - lo, d) array each,
        for the paths `rows` (an index or a mask).

        The ranges must follow each other from node 0, as node blocks do.  The
        blocks are chained by the running sum of the increments, which starts
        at -0.0 (-0.0 + y == y for every y) and to which the initial state is
        added: the rule by which the nested R_p carries its restarted states.
        """
        x0 = self.initial_state[rows][:, None]
        run, pos = None, 0
        for lo, hi in bounds:
            if lo != pos:
                raise ValueError(f"state block ({lo}, {hi}) does not start at node {pos}")
            block = np.empty((x0.shape[0], hi - lo, self.d))
            if lo:
                np.add(run, self.increments[rows, lo - 1], out=block[:, 0])
            else:
                block[:, 0] = -0.0
            block[:, 1:] = self.increments[rows, lo:hi - 1]
            np.cumsum(block, axis=1, out=block)
            run = block[:, -1].copy()
            block += x0
            pos = hi
            yield block

    @cached_property
    def conditionals(self) -> dict:
        """Regression operators on these paths by degree (norms.RegressionConditional.of)."""
        return {}

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


def generate_brownian(grid: TimeGrid, d: int, paths: int, seed: int,
                      threads: int = 1, initial_state=None) -> PathEnsemble:
    """Simulate `paths` independent d-dimensional Brownian motions on `grid`.

    Deterministic given `seed`; the thread count changes only the execution,
    never the numbers.
    """
    if d < 1 or paths < 1:
        raise ConfigurationError(f"d and paths must be >= 1, got d={d}, paths={paths}")
    inc = np.empty((paths, grid.steps, d))
    blocks = range((paths + _BLOCK - 1) // _BLOCK)

    def fill(b: int) -> None:
        block_increments(grid, seed, b, inc[b * _BLOCK:(b + 1) * _BLOCK])

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor   # off the start-up path
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    else:
        for b in blocks:
            fill(b)

    init = None
    if initial_state is not None:
        init = np.broadcast_to(np.asarray(initial_state, dtype=float), (paths, d)).copy()
    return PathEnsemble(grid, d, paths, seed, inc, init)
