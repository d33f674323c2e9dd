"""Forward integration of matrix stochastic exponentials and diagnostics.

The exponential S solves dS = S (A dB) from the identity; its inverse X
solves dX = A^2 X dt - (A dB) X in the same Euler pass, which forms A and
A dB once per step for both (never by per-step matrix inversion).  The pass
keeps only what its caller reads: it can measure the inverse residual
|S X - I| and reduce the martingale defect on its blocks as they are
finished, and store the whole path of S, of X, or S_T alone.  So
`simulate-exponential` holds the paths, two integration blocks and one
defect block; the regression R_p holds S^{-1} and S_T; the nested R_p
integrates no S over the outer paths.  Diagnostics cover reverse Holder
constants, martingale defect (from node blocks of S, which need not come
from a stored array), and the Doob-maximal comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import _BLOCK, PathEnsemble, block_increments, substream
from .fields import CoefficientField
from .grids import TimeGrid
from .norms import RegressionConditional
from .tensors import contract_adb, mat_square, operator_norm


# Working-memory budget of one block of grid nodes in the forward diagnostics.
_NODE_BLOCK_BYTES = 4 << 20

# Budget of each node-major Euler block and reverse-Holder ratio block.
_STEP_BLOCK_BYTES = 1 << 18


def _step_blocks(nodes: int, node_bytes: int) -> list:
    """(lo, hi) ranges covering `nodes` nodes, about _STEP_BLOCK_BYTES each."""
    step = max(1, _STEP_BLOCK_BYTES // node_bytes)
    return [(lo, min(lo + step, nodes)) for lo in range(0, nodes, step)]


def node_blocks(nodes: int, node_bytes: int, node_entries: int):
    """(lo, hi) ranges covering `nodes` grid nodes, about _NODE_BLOCK_BYTES each.

    node_bytes is the size of one node's slice of the block's largest array.
    Every statistic is per node and an axis-0 reduction adds the paths in
    order, so results do not depend on the blocks, with one exception: numpy
    sums a reduction whose rows hold a single entry pairwise, not in path
    order.  Blocks therefore hold at least two entries per path, where a node
    holds `node_entries` of them.
    """
    step = max(1, _NODE_BLOCK_BYTES // node_bytes, -(-2 // node_entries))
    bounds = list(range(0, nodes, step)) + [nodes]
    if len(bounds) > 2 and (bounds[-1] - bounds[-2]) * node_entries < 2:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


@dataclass
class ExponentialEnsemble:
    """What one simulation of S (and of S^{-1}) along a path ensemble kept.

    s[m, k] is the n x n matrix at node k of path m; s[all, 0] = I.  Only
    what a caller reads is kept (see `simulate_exponential`): `s` and `s_inv`
    are the whole paths, `s_terminal` is S_T (a view of s when s is kept),
    and `residual` and `defect` are the inverse residual |S_k X_k - I| and
    the martingale defect as the Euler pass measured them.  `bad_paths`
    marks the paths that are non-finite at any node; it is None only when
    nothing was integrated.  A reader of something not kept gets a
    ValueError that names it.
    """

    field: CoefficientField
    paths: PathEnsemble
    s: np.ndarray | None = None
    s_inv: np.ndarray | None = None
    bad_paths: np.ndarray | None = None
    residual: np.ndarray | None = None
    s_terminal: np.ndarray | None = None
    defect: MartingaleDefectReport | None = None

    def __post_init__(self):
        if self.s is None:
            return
        if self.s_terminal is None:
            self.s_terminal = self.s[:, -1]
        if self.bad_paths is None:
            m, k1 = self.s.shape[:2]
            self.bad_paths = np.zeros(m, dtype=bool)
            for lo, hi in _step_blocks(k1, self.s[:, 0].nbytes):
                self.bad_paths |= ~np.isfinite(self.s[:, lo:hi]).all(axis=(1, 2, 3))

    @property
    def n(self) -> int:
        return self.field.n

    def kept(self, name: str, reader: str) -> np.ndarray:
        """The attribute `name`, or a ValueError if this ensemble does not hold it."""
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"{reader} reads {name}, which the ensemble does not hold: "
                             f"simulate it with {name!r} in reads")
        return value

    def inverse_residual_profile(self) -> np.ndarray:
        """Mean over paths of |S_k X_k - I| (operator norm) at each grid node:
        the profile the Euler pass measured, or else one from s and s_inv."""
        if self.residual is not None:
            return self.residual
        s = self.kept("s", "the inverse residual")
        s_inv = self.kept("s_inv", "the inverse residual")
        m, k1 = s.shape[:2]
        out = np.empty(k1)
        for lo, hi in node_blocks(k1, m * self.n * self.n * 8, 1):
            out[lo:hi] = _residual_means(s[:, lo:hi].swapaxes(0, 1),
                                         s_inv[:, lo:hi].swapaxes(0, 1))
        return out


def _residual_means(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean over paths of |S X - I| per node of node-major (nodes, paths, n, n)
    blocks of S and X.

    The paths are added in order, by a running sum along them: a plain mean
    over a contiguous path axis would add them pairwise, and then the bits
    would depend on how the nodes were blocked.
    """
    prod = s @ x
    idx = np.arange(s.shape[-1])
    prod[..., idx, idx] -= 1.0
    norms = operator_norm(prod)
    return np.cumsum(norms, axis=1)[:, -1] / norms.shape[1]


def integrate_exponential(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler-Maruyama path of S: S_{k+1} = S_k + S_k (A_k dB_k), S_0 = I."""
    return simulate_exponential(field, paths, reads=("s",)).s


def integrate_terminal(field: CoefficientField, grid: TimeGrid, inc: np.ndarray,
                       x0: np.ndarray) -> np.ndarray:
    """S_T alone, shape (paths, n, n), for the paths with increments `inc`
    started from the Brownian states x0.

    integrate_exponential's last node on the PathEnsemble(grid, ..., inc, x0),
    bit for bit: the state is carried as a running sum instead of the
    ensemble's (paths, steps + 1, d) states, and one (paths, n, n) state and
    one product buffer replace the whole path of S.
    """
    n = field.n
    s = np.empty((inc.shape[0], n, n))
    s[:] = np.eye(n)
    tmp = np.empty_like(s)
    # A 1 x 1 product is a plain multiply.  matmul writes +0.0 where the
    # product is -0.0, but S never is -0.0 (it starts at 1), so s + tmp and
    # every later value keep their bits.
    product = np.multiply if n == 1 else np.matmul
    # -0.0 + y == y for every y, so run is the cumsum of the increments exactly
    run = np.full_like(x0, -0.0)
    x = x0.copy()
    for k in range(grid.steps):
        if k:
            run += inc[:, k - 1]
            np.add(run, x0, out=x)
        a = field.at(float(grid.nodes[k]), x)
        product(s, contract_adb(a, inc[:, k]), out=tmp)
        s += tmp
    return s


def integrate_inverse(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler path of the inverse dynamics dX = A^2 X dt - (A dB) X, X_0 = I."""
    return simulate_exponential(field, paths, reads=("s_inv",)).s_inv


def _euler_pass(field: CoefficientField, paths: PathEnsemble, inverse: bool):
    """The Euler pass of S, and with `inverse` of X = S^{-1}, from S_0 = X_0 = I.

    A_k and A_k dB_k are formed once per step for both.  The steps run on
    node-major blocks of about _STEP_BLOCK_BYTES per array, so every node is
    contiguous.  Yields (lo, hi, s, x), node-major (hi - lo, M, n, n) views
    of the nodes lo <= k < hi: node 0 alone, then each finished block (x is
    None without `inverse`).  A view holds its values until the next block
    is asked for; then the last node of the block starts the next one.
    """
    m, k_steps, n = paths.paths, paths.grid.steps, field.n
    dt, inc = paths.grid.dt, paths.increments
    blocks = _step_blocks(k_steps, m * n * n * 8)
    work = [np.empty((blocks[0][1] + 1, m, n, n)) for _ in range(1 + inverse)]
    for w in work:
        w[0] = np.eye(n)
    s, x = work[0], work[1] if inverse else None
    drift, noise = np.empty((m, n, n)), np.empty((m, n, n))
    yield 0, 1, s[:1], None if x is None else x[:1]
    for lo, hi in blocks:
        for j, k in enumerate(range(lo, hi)):
            a = field.values(paths, k)
            a_db = contract_adb(a, inc[:, k])
            # the product lands in node j + 1, then S_k is added: IEEE
            # addition commutes, so this is S_k + S_k (A dB) bit for bit
            np.matmul(s[j], a_db, out=s[j + 1])
            s[j + 1] += s[j]
            if x is not None:
                np.matmul(mat_square(a), x[j], out=drift)
                drift *= dt[k]
                np.matmul(a_db, x[j], out=noise)
                np.add(x[j], drift, out=x[j + 1])
                x[j + 1] -= noise
        done = slice(1, hi - lo + 1)
        yield lo + 1, hi + 1, s[done], None if x is None else x[done]
        for w in work:
            w[0] = w[hi - lo]


def _path_major_blocks(blocks, keep: np.ndarray, n: int):
    """defect_profile's kept_block for the paths `keep`, fed by `blocks`, a
    stream of (lo, hi, node-major block of S) in node order such as
    `_euler_pass` yields.

    Each call copies the nodes it asks for, transposed, into a new path-major
    (kept paths, nodes, n, n) block: the block a stored S gives, bit for bit.
    The node-major blocks themselves are not reduced, because numpy would add
    a contiguous path axis pairwise (n = 1), not in path order.
    """
    rows = int(keep.sum())
    current = (0, 0, None)

    def kept_block(lo: int, hi: int) -> np.ndarray:
        nonlocal current
        out = np.empty((rows, hi - lo, n, n))
        pos = lo
        while pos < hi:
            if pos == current[1]:
                current = next(blocks)
            c_lo, c_hi, block = current[:3]
            top = min(hi, c_hi)
            part = block[pos - c_lo:top - c_lo]
            if rows < len(keep):
                part = part[:, keep]
            out[:, pos - lo:top - lo] = part.swapaxes(0, 1)
            pos = top
        return out
    return kept_block


# What a caller of simulate_exponential may read from its ensemble.
_READS = ("s", "s_inv", "s_terminal", "residual", "defect")


def simulate_exponential(field: CoefficientField, paths: PathEnsemble,
                         reads=("s", "s_inv")) -> ExponentialEnsemble:
    """S and X = S^{-1} in one Euler pass, keeping only what the caller reads.

    `reads` names the attributes of the ensemble that the caller reads:
      - "s", "s_inv": the whole path-major (M, K+1, n, n) paths, into which
        each finished block is copied;
      - "s_terminal": S_T alone, (M, n, n);
      - "residual": the mean of |S_k X_k - I| per node, measured on each
        finished block (X is integrated, not kept);
      - "defect": `martingale_defect`'s report, reduced from the finished
        blocks through `defect_profile`.
    `bad_paths` is always set.  X is integrated only for "s_inv" and
    "residual", and with nothing to read no pass runs.  The defect leaves
    out the bad paths, which are known only at the end of the pass: if there
    are any, S is integrated once more and reduced over the kept paths.  A
    path's S depends only on its own increments, so the bits are those of
    the stored S.
    """
    reads = set(reads)
    if reads - set(_READS):
        raise ValueError(f"simulate_exponential cannot keep {sorted(reads - set(_READS))}; "
                         f"it keeps {list(_READS)}")
    if not reads:
        return ExponentialEnsemble(field, paths)
    m, k1, n = paths.paths, paths.grid.steps + 1, field.n
    stored = {name: np.empty((m, k1, n, n)) for name in ("s", "s_inv") if name in reads}
    bad = np.zeros(m, dtype=bool)
    resid = np.zeros(k1) if "residual" in reads else None   # S_0 X_0 - I = 0
    terminal = None

    def finished():
        """The pass's blocks, each bookkept before it is handed on."""
        nonlocal terminal
        for lo, hi, s, x in _euler_pass(field, paths, bool(reads & {"s_inv", "residual"})):
            bad[:] |= ~np.isfinite(s).all(axis=(0, 2, 3))
            if resid is not None and lo:
                resid[lo:hi] = _residual_means(s, x)
            for name, block in (("s", s), ("s_inv", x)):
                if name in stored:
                    stored[name][:, lo:hi] = block.swapaxes(0, 1)
            if hi == k1 and "s_terminal" in reads:
                terminal = s[-1].copy()
            yield lo, hi, s

    blocks = finished()
    defect = None
    if "defect" in reads:
        every = np.ones(m, dtype=bool)
        defect = defect_profile(every, n, k1, _path_major_blocks(blocks, every, n))
    for _ in blocks:   # the rest of the pass, where no defect drove it
        pass
    if defect is not None and bad.any():
        keep = ~bad
        defect = defect_profile(keep, n, k1, _path_major_blocks(
            _euler_pass(field, paths, False), keep, n))
    return ExponentialEnsemble(field, paths, stored.get("s"), stored.get("s_inv"),
                               bad_paths=bad, residual=resid, s_terminal=terminal,
                               defect=defect)


@dataclass
class ReverseHolderReport:
    """`std_error` is, under "regression", the fit's residual standard error
    at the attaining time; it does not bound the upward bias of a maximum over
    fitted values (README sketch: 1.61 +- 0.011 against the exact 1.28)."""

    rp_estimate: float
    std_error: float
    attaining_index: int
    profile: np.ndarray          # per grid time: estimated sup_omega E_t[|S_t^{-1} S_T|^p]
    profile_std_error: np.ndarray
    estimator: str


def estimate_reverse_holder(expo: ExponentialEnsemble, p: float,
                            method: str = "regression", degree: int = 3,
                            inner_paths: int = 512) -> ReverseHolderReport:
    """Grid-time estimate of the reverse Holder constant R_p.

    R_p = max over grid times t_k of an estimate of
    ess-sup_omega E_{t_k}[ |S_{t_k}^{-1} S_T|^p ].  tau = T contributes the
    exact value 1 and is always included.

    method "regression": fit |S_{t_k}^{-1} S_T|^p against a polynomial in the
    Brownian state over the outer paths; ess-sup ~ max fitted value.  It
    reads S^{-1} and S_T from the ensemble, which must keep them.
    method "nested": re-simulate the ratio process from (t_k, B_{t_k}) with
    `inner_paths` sub-paths per outer path (Markovian fields only);
    ess-sup ~ max over outer paths of the inner mean.
    """
    if p < 1:
        raise ValueError("reverse Holder requires p >= 1")
    paths = expo.paths
    k_grid = paths.grid.steps
    profile = np.zeros(k_grid + 1)
    profile_se = np.zeros(k_grid + 1)
    profile[k_grid] = 1.0  # E_T[|I|^p] exactly

    reg = RegressionConditional.of(paths, degree)
    if method == "regression":
        s_inv = expo.kept("s_inv", "the regression estimator")
        s_terminal = expo.kept("s_terminal", "the regression estimator")
        for lo, hi in _step_blocks(k_grid, paths.paths * expo.n * expo.n * 8):
            targets = operator_norm(s_inv[:, lo:hi].swapaxes(0, 1) @ s_terminal) ** p
            for k, target in enumerate(targets, lo):
                fitted = reg.fit_predict(k, target)
                profile[k] = float(fitted.max())
                profile_se[k] = float(np.std(target - fitted, ddof=1) / np.sqrt(paths.paths))
    elif method == "nested":
        for k in range(k_grid):
            means, ses = _nested_ratio_moment(expo, k, p, inner_paths, 7_001)
            j = int(np.argmax(means))
            profile[k] = float(means[j])
            profile_se[k] = float(ses[j])
    else:
        raise ValueError(f"unknown conditional estimator {method!r}")

    best_k = int(np.argmax(profile))
    return ReverseHolderReport(
        rp_estimate=float(max(profile[best_k], 1.0)), std_error=float(profile_se[best_k]),
        attaining_index=best_k, profile=profile, profile_std_error=profile_se,
        estimator=method)


def _nested_ratio_moment(expo: ExponentialEnsemble, k: int, p: float,
                         inner_paths: int, salt: int) -> tuple[np.ndarray, np.ndarray]:
    """Inner-MC estimates of E_{t_k}[|S_{t_k}^{-1} S_T|^p] per outer path.

    The ratio R = S_{t_k}^{-1} S solves the same exponential SDE restarted at
    the identity with the Brownian state continued from B_{t_k}, which is only
    valid for Markovian fields.
    """
    field = expo.field
    if not field.markovian:
        raise ValueError("nested estimator requires a Markovian field; use regression")
    paths = expo.paths
    m, d = paths.paths, paths.d
    nodes = paths.grid.nodes
    rest_steps = paths.grid.steps - k
    sub_grid = TimeGrid(nodes[-1] - nodes[k], rest_steps, nodes[k:] - nodes[k])
    x_k = paths.state_at(k)

    rng = substream(paths.seed, salt, k)
    inner_seed = int(rng.integers(0, 2**63 - 1))

    # Shift eval times so the restarted field sees absolute time t_k + s.
    shifted = CoefficientField(
        field.n, field.d,
        lambda t, x, _t0=float(nodes[k]): field.eval(_t0 + t, x),
        field.structure, True, field.name)
    # Inner path i restarts outer path i // inner_paths.  One Philox block of
    # inner paths at a time: the same draws as generate_brownian over all
    # m * inner_paths paths, but only S_T and then |S_T|^p are kept.
    total = m * inner_paths
    vals = np.empty(total)
    for b, lo in enumerate(range(0, total, _BLOCK)):
        hi = min(lo + _BLOCK, total)
        inc = block_increments(sub_grid, d, inner_seed, b, np.empty((hi - lo, rest_steps, d)))
        x0 = x_k[np.arange(lo, hi) // inner_paths]
        vals[lo:hi] = operator_norm(integrate_terminal(shifted, sub_grid, inc, x0)) ** p
    vals = vals.reshape(m, inner_paths)
    means = vals.mean(axis=1)
    # vals.std(axis=1, ddof=1) step for step, in place to save a second array.
    vals -= means[:, None]
    vals *= vals
    ses = np.sqrt(vals.sum(axis=1) / (inner_paths - 1)) / np.sqrt(inner_paths)
    return means, ses


@dataclass
class MartingaleDefectReport:
    defect: np.ndarray            # |E[S_{t_k}] - I| in operator norm, per node
    std_error: np.ndarray         # Frobenius aggregate of entrywise std errors
    diagonal_defect: np.ndarray   # max_i |E[S^ii_{t_k}] - 1|
    diagonal_std_error: np.ndarray
    group_defect: np.ndarray = None   # median over path groups: robust to heavy tails

    def table(self, grid: TimeGrid) -> tuple:
        """The profile per grid node as a (header, rows) table."""
        return ("t,defect,std_error,diag_defect,diag_std_error",
                np.column_stack([grid.nodes, self.defect, self.std_error,
                                 self.diagonal_defect, self.diagonal_std_error]))


def martingale_defect(expo: ExponentialEnsemble) -> MartingaleDefectReport:
    """Monte Carlo profile of |E[S_{t_k}] - S_0| with entrywise error bars:
    the profile the Euler pass measured, or else one from s.

    `group_defect` is the median over 8 path groups of the per-group defect: a
    single wild path (strict-local-martingale ensembles are heavy-tailed)
    inflates both the plain defect and its error bar, but not the median.
    """
    if expo.defect is not None:
        return expo.defect
    s = expo.kept("s", "martingale_defect")
    keep = ~expo.bad_paths
    # boolean indexing: a private copy of the block
    return defect_profile(keep, expo.n, s.shape[1], lambda lo, hi: s[keep, lo:hi])


def defect_profile(keep: np.ndarray, n: int, nodes: int, kept_block) -> MartingaleDefectReport:
    """martingale_defect of the paths `keep`, from S one node block at a time.

    kept_block(lo, hi) returns the (kept paths, hi - lo, n, n) block of S at
    nodes lo <= k < hi, a private copy that the reduction overwrites.  The
    blocks are node_blocks of the kept paths, asked for in node order,
    whatever produces them: a stored ensemble, the Euler pass as it runs, or
    a closed form that never stores S.
    """
    m = int(keep.sum())
    if m == 0:
        raise ValueError("no finite paths in the ensemble")
    mean = np.empty((nodes, n, n))
    se = np.empty((nodes, n, n))
    group = np.empty(nodes)
    eye = np.eye(n)
    parts = np.array_split(np.arange(m), min(8, m))
    for lo, hi in node_blocks(nodes, m * n * n * 8, n * n):
        s = kept_block(lo, hi)
        mean[lo:hi] = s.mean(axis=0)
        group[lo:hi] = np.median(np.stack(
            [operator_norm(s[g].mean(axis=0) - eye) for g in parts]), axis=0)
        # s.std(axis=0, ddof=1) step for step, in place on the copy
        s -= mean[lo:hi]
        s *= s
        se[lo:hi] = np.sqrt(s.sum(axis=0) / (m - 1)) / np.sqrt(m)
        del s   # before the next block is formed
    idx = np.arange(n)
    diag_gap = np.abs(mean[:, idx, idx] - 1.0)
    which = diag_gap.argmax(axis=1)
    rows = np.arange(nodes)
    return MartingaleDefectReport(
        defect=operator_norm(mean - eye),
        std_error=np.sqrt((se**2).sum(axis=(1, 2))),
        diagonal_defect=diag_gap[rows, which],
        diagonal_std_error=se[:, idx, idx][rows, which],
        group_defect=group,
    )


def doob_sup_check(expo: ExponentialEnsemble, p: float, degree: int = 3) -> dict:
    """Compare E_tau[sup_{tau<=t<=T} |S_tau^{-1} S_t|^p] to (p/(p-1))^p R_p.

    Both sides are estimated from the same ensemble (regression conditionals),
    which must hold the whole paths of S and S^{-1}; returns the worst ratio
    over the grid times before T, which should not exceed 1 beyond Monte
    Carlo tolerance when S is a true martingale.
    """
    if p <= 1:
        raise ValueError("the Doob factor requires p > 1")
    paths = expo.paths
    s = expo.kept("s", "doob_sup_check")
    rp = estimate_reverse_holder(expo, p, method="regression", degree=degree)
    doob_factor = (p / (p - 1.0)) ** p
    bound = doob_factor * rp.rp_estimate

    reg = RegressionConditional.of(paths, degree)
    worst = 0.0
    for k in range(paths.grid.steps):
        ratios = expo.s_inv[:, k, None] @ s[:, k:]
        target = (operator_norm(ratios) ** p).max(axis=1)
        worst = max(worst, float(reg.fit_predict(k, target).max()))
    return {
        "p": p,
        "doob_factor": doob_factor,
        "rp_estimate": rp.rp_estimate,
        "sup_estimate": worst,
        "ratio": worst / bound,
    }


def truncation_curve(vals: np.ndarray, levels=None) -> dict:
    """Truncated means E[min(vals, L)] over the levels L.

    The default levels are 13 geometric steps from 1 to max(vals).
    `diverging` flags a tail slope that has not flattened between the last
    two levels (a relative gain above 1%), the sign of an infinite
    underlying moment.
    """
    if levels is None:
        levels = np.geomspace(1.0, float(vals.max()), 13)
    levels = np.asarray(levels, dtype=float)
    curve = np.array([np.mean(np.minimum(vals, lv)) for lv in levels])
    tail_gain = (curve[-1] - curve[-2]) / max(curve[-2], 1e-300)
    return {"levels": levels, "curve": curve, "diverging": bool(tail_gain > 0.01)}


def terminal_moment_truncation_curve(expo: ExponentialEnsemble, p: float = 1.0) -> dict:
    """Truncation curve E[min(|S_T|^p, L)] for increasing L.

    When the underlying moment is infinite (the rotation counterexample at
    p = 1) the curve keeps climbing and `diverging` is set.
    """
    s_terminal = expo.kept("s_terminal", "the truncation curve")
    vals = operator_norm(s_terminal[~expo.bad_paths]) ** p
    return truncation_curve(vals, np.geomspace(1.0, max(float(vals.max()), 2.0), 13))
