"""Forward integration of matrix stochastic exponentials and diagnostics.

One Euler loop, `_euler_pass`, integrates the exponential S, dS = S (A dB)
from the identity, and its inverse X, dX = A^2 X dt - (A dB) X, forming A
and A dB once per step for both (never by per-step matrix inversion).  It
reads A_k from a stream: the field along an ensemble, or along the
restarted inner paths of the nested R_p, which reads S_T alone.  Along an
ensemble it keeps only what its caller reads (`simulate_exponential`).
The martingale defect reduces the node-major blocks of S that a producer
pushes to it: a stored ensemble, the Euler pass's own finished blocks as it
runs, or a closed form, all over the one block rule `_step_blocks`.
Diagnostics cover reverse Holder constants, the martingale defect and the
Doob-maximal comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import (_BLOCK, PathEnsemble, _path_sum, _step_blocks, block_increments,
                       substream)
from .fields import CoefficientField
from .grids import TimeGrid, check_choice
from .norms import RegressionConditional
from .tensors import contract_adb, mat_square, operator_norm


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
        """Mean over paths of |S_k X_k - I| (operator norm) at each grid node,
        as the Euler pass measured it ("residual" in its reads)."""
        return self.kept("residual", "the inverse residual profile")


def _residual_means(s: np.ndarray, x: np.ndarray, nodes: int) -> np.ndarray:
    """Mean over paths of |S X - I| per node of node-major (block nodes, paths,
    n, n) blocks of S and X, on a grid of `nodes` nodes: added by `_path_sum`,
    so the bits are those of the mean over a path-major (paths, nodes) array.
    """
    prod = s @ x
    idx = np.arange(s.shape[-1])
    prod[..., idx, idx] -= 1.0
    return _path_sum(operator_norm(prod), nodes) / s.shape[1]


def integrate_exponential(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler-Maruyama path of S: S_{k+1} = S_k + S_k (A_k dB_k), S_0 = I."""
    return simulate_exponential(field, paths, reads=("s",)).s


def integrate_inverse(field: CoefficientField, paths: PathEnsemble) -> np.ndarray:
    """Euler path of the inverse dynamics dX = A^2 X dt - (A dB) X, X_0 = I."""
    return simulate_exponential(field, paths, reads=("s_inv",)).s_inv


def _restart_values(field: CoefficientField, t0: float, grid: TimeGrid,
                    inc: np.ndarray, x0: np.ndarray):
    """A_k at times t0 + t_k along paths restarted at t0 from the states x0:
    its values on the PathEnsemble(grid, ..., inc, x0) without its states,
    which are carried as a running sum by the rule of `state_blocks`."""
    # -0.0 + y == y for every y, so run is the cumsum of the increments exactly
    run = np.full_like(x0, -0.0)
    x = x0.copy()
    for k in range(grid.steps):
        if k:
            run += inc[:, k - 1]
            np.add(run, x0, out=x)
        yield field.at(t0 + float(grid.nodes[k]), x)


def _ensemble_pass(field: CoefficientField, paths: PathEnsemble, *, s: bool, inverse: bool):
    """`_euler_pass` along the paths of an ensemble."""
    values = (field.values(paths, k) for k in range(paths.grid.steps))
    return _euler_pass(values, paths.increments, paths.grid.dt, field.n, s=s, inverse=inverse)


def _euler_pass(values, inc: np.ndarray, dt: np.ndarray, n: int, *, s: bool, inverse: bool):
    """The Euler pass of S, and with `inverse` of X = S^{-1}, from S_0 = X_0 = I;
    without `s`, of X alone, along M paths with (M, K, d) increments `inc`.

    `values` yields A_k, (M, n, n, d), in step order: along an ensemble
    (`_ensemble_pass`) or along restarted paths (`_restart_values`).  A_k
    and A_k dB_k are formed once per step for both.  The steps run on
    node-major blocks of about _STEP_BLOCK_BYTES per array, so every node is
    contiguous.  Yields (lo, hi, s, x), node-major (hi - lo, M, n, n) views
    of the nodes lo <= k < hi: node 0 alone, then each finished block (None
    for the one not integrated).  A view holds its values until the pass
    moves on to the next block; the last one keeps them after the pass.
    """
    m, k_steps, _ = inc.shape
    blocks = _step_blocks(k_steps, m * n * n * 8)
    work = [np.empty((blocks[0][1] + 1, m, n, n)) if on else None for on in (s, inverse)]
    live = [w for w in work if w is not None]
    for w in live:
        w[0] = np.eye(n)
    s, x = work   # the blocks, None for the one not integrated
    drift, noise = np.empty((2, m, n, n)) if inverse else (None, None)
    # A 1 x 1 product is a plain multiply.  matmul writes +0.0 where the
    # product is -0.0, but S never is -0.0 (it starts at 1, and a sum is -0.0
    # only when both terms are), so S_k + S_k (A dB) keeps its bits.
    product = np.multiply if n == 1 else np.matmul
    yield 0, 1, *(None if w is None else w[:1] for w in work)
    for lo, hi in blocks:
        for j, k in enumerate(range(lo, hi)):
            a = next(values)
            a_db = contract_adb(a, inc[:, k])
            if s is not None:
                # the product lands in node j + 1, then S_k is added: IEEE
                # addition commutes, so this is S_k + S_k (A dB) bit for bit
                product(s[j], a_db, out=s[j + 1])
                s[j + 1] += s[j]
            if x is not None:
                np.matmul(mat_square(a), x[j], out=drift)
                drift *= dt[k]
                np.matmul(a_db, x[j], out=noise)
                np.add(x[j], drift, out=x[j + 1])
                x[j + 1] -= noise
        done = slice(1, hi - lo + 1)
        yield lo + 1, hi + 1, *(None if w is None else w[done] for w in work)
        for w in live:
            w[0] = w[hi - lo]


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
      - "defect": `martingale_defect`'s report, which `defect_profile`
        reduces from the pass's own finished blocks.
    `bad_paths` is always set.  X is integrated only for "s_inv" and
    "residual", and with nothing to read no pass runs.  The defect leaves
    out the bad paths, which are known only at the end of the pass: if there
    are any, S is integrated once more and each block is reduced over the
    kept paths, s[:, keep].  A path's S depends only on its own increments,
    so the bits are those of the stored S.
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
    inverse = bool(reads & {"s_inv", "residual"})

    def finished():
        """The pass's blocks, each bookkept before it is handed on."""
        nonlocal terminal
        for lo, hi, s, x in _ensemble_pass(field, paths, s=True, inverse=inverse):
            bad[:] |= ~np.isfinite(s).all(axis=(0, 2, 3))
            if resid is not None and lo:
                resid[lo:hi] = _residual_means(s, x, k1)
            for name, block in (("s", s), ("s_inv", x)):
                if name in stored:
                    stored[name][:, lo:hi] = block.swapaxes(0, 1)
            if hi == k1 and "s_terminal" in reads:
                terminal = s[-1].copy()
            yield lo, hi, s

    blocks = finished()
    defect = None
    if "defect" in reads:
        defect = defect_profile(np.ones(m, dtype=bool), n, k1, (s for _, _, s in blocks))
    for _ in blocks:   # the rest of the pass, where no defect drove it
        pass
    if defect is not None and bad.any():
        keep = ~bad
        defect = defect_profile(keep, n, k1, (s[:, keep] for _, _, s, _ in _ensemble_pass(
            field, paths, s=True, inverse=False)))
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


def _inverse_blocks(expo: ExponentialEnsemble):
    """(lo, x): node-major (nodes, M, n, n) blocks of S^{-1} at the nodes
    lo <= k < lo + len(x), in node order over every node before T.

    Where the ensemble keeps s_inv (a closed form, or a pass that stored it)
    the blocks are views of it; else they are the finished blocks of a
    second Euler pass that integrates X alone.  A path's X depends only on
    its own increments, so the bits are those of the stored S^{-1}.
    """
    k_grid = expo.paths.grid.steps
    if expo.s_inv is not None:
        for lo, hi in _step_blocks(k_grid, expo.s_inv[:, 0].nbytes):
            yield lo, expo.s_inv[:, lo:hi].swapaxes(0, 1)
        return
    for lo, hi, _, x in _ensemble_pass(expo.field, expo.paths, s=False, inverse=True):
        if lo < k_grid:
            yield lo, x[:k_grid - lo]


# The conditional estimators of estimate_reverse_holder, in the order the
# reverse-holder config lists them (`cli.CONFIG_SCHEMAS`).
RP_METHODS = ("regression", "nested")


def estimate_reverse_holder(expo: ExponentialEnsemble, p: float,
                            method: str = "regression", degree: int = 3,
                            inner_paths: int = 512) -> ReverseHolderReport:
    """Grid-time estimate of the reverse Holder constant R_p.

    R_p = max over grid times t_k of an estimate of
    ess-sup_omega E_{t_k}[ |S_{t_k}^{-1} S_T|^p ].  tau = T contributes the
    exact value 1 and is always included.

    method "regression": fit |S_{t_k}^{-1} S_T|^p against a polynomial in the
    Brownian state over the outer paths; ess-sup ~ max fitted value.  It
    reads S_T from the ensemble, which must keep it, and S^{-1} one
    node-major block at a time (`_inverse_blocks`): from the ensemble's
    s_inv where it is kept, else integrated a second time by an Euler pass
    of X alone.  Each node's target is fitted and its block dropped; the
    fits use the operator shared on the paths if there is one, else their
    own, which drops each node's basis after its fit.  So beyond the
    ensemble and its states this holds S_T, one basis and one integration
    block.
    method "nested": re-simulate the ratio process from (t_k, B_{t_k}) with
    `inner_paths` sub-paths per outer path (Markovian fields only);
    ess-sup ~ max over outer paths of the inner mean.
    Any other method is refused, naming RP_METHODS.
    """
    if p < 1:
        raise ValueError("reverse Holder requires p >= 1")
    check_choice("conditional estimator", method, RP_METHODS)
    paths = expo.paths
    k_grid = paths.grid.steps
    profile = np.zeros(k_grid + 1)
    profile_se = np.zeros(k_grid + 1)
    profile[k_grid] = 1.0  # E_T[|I|^p] exactly

    if method == "regression":
        s_terminal = expo.kept("s_terminal", "the regression estimator")
        # Where no operator is shared on the paths, each node's map and basis
        # have this one reader, so they are dropped after its fit, not cached.
        reg = paths.conditionals.get(degree)
        shared = reg is not None
        if not shared:
            reg = RegressionConditional(paths.states, degree)
        for lo, x in _inverse_blocks(expo):
            targets = operator_norm(x @ s_terminal) ** p
            for k, target in enumerate(targets, lo):
                fitted = reg.fit_predict(k, target)
                if not shared:
                    reg.forget(k)
                profile[k] = float(fitted.max())
                profile_se[k] = float(np.std(target - fitted, ddof=1) / np.sqrt(paths.paths))
    else:
        for k in range(k_grid):
            means, ses = _nested_ratio_moment(expo, k, p, inner_paths)
            j = int(np.argmax(means))
            profile[k] = float(means[j])
            profile_se[k] = float(ses[j])

    best_k = int(np.argmax(profile))
    return ReverseHolderReport(
        rp_estimate=float(max(profile[best_k], 1.0)), std_error=float(profile_se[best_k]),
        attaining_index=best_k, profile=profile, profile_std_error=profile_se,
        estimator=method)


def _nested_ratio_moment(expo: ExponentialEnsemble, k: int, p: float,
                         inner_paths: int) -> tuple[np.ndarray, np.ndarray]:
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

    rng = substream(paths.seed, 7_001, k)
    inner_seed = int(rng.integers(0, 2**63 - 1))

    # Inner path i restarts outer path i // inner_paths.  One Philox block of
    # inner paths at a time: the same draws as generate_brownian over all
    # m * inner_paths paths, integrated by the Euler pass of S alone, whose
    # last node S_T gives |S_T|^p; the field sees the absolute time t_k + s.
    total = m * inner_paths
    vals = np.empty(total)
    for b, lo in enumerate(range(0, total, _BLOCK)):
        hi = min(lo + _BLOCK, total)
        inc = block_increments(sub_grid, inner_seed, b, np.empty((hi - lo, rest_steps, d)))
        x0 = x_k[np.arange(lo, hi) // inner_paths]
        values = _restart_values(field, float(nodes[k]), sub_grid, inc, x0)
        for _, _, s, _ in _euler_pass(values, inc, sub_grid.dt, field.n, s=True, inverse=False):
            pass
        vals[lo:hi] = operator_norm(s[-1]) ** p
        del values, s   # the pass's buffers, before the next block is drawn
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
    group_defect: np.ndarray      # median over path groups: robust to heavy tails

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
    n, nodes = expo.n, s.shape[1]
    return defect_profile(keep, n, nodes, (s[keep, lo:hi].swapaxes(0, 1) for lo, hi in
                                           _step_blocks(nodes, s[:, 0].nbytes)))


def defect_profile(keep: np.ndarray, n: int, nodes: int, blocks) -> MartingaleDefectReport:
    """martingale_defect of the paths `keep`, from S one node block at a time.

    `blocks` yields node-major (hi - lo, kept paths, n, n) blocks of S at
    nodes lo <= k < hi, in node order over all `nodes` nodes.  Their producer
    pushes them, each over `_step_blocks`: a stored ensemble
    (`martingale_defect`), the Euler pass's own finished blocks as it runs
    (`simulate_exponential`), or a closed form that never stores S (the Emery
    profile).  A block is read, never written: the deviations of the
    variance are formed in one scratch copy.  Every sum over the paths is
    `_path_sum` and every other step is taken node by node, so the bits are
    those of the whole-array mean and std of the kept path-major S, while
    only per-node scalars are kept.
    """
    m = int(keep.sum())
    if m == 0:
        raise ValueError("no finite paths in the ensemble")
    defect, std_error, diag, diag_se, group = (np.empty(nodes) for _ in range(5))
    eye, idx = np.eye(n), np.arange(n)
    row = nodes * n * n   # entries per path of the path-major S
    # every path, then 8 groups of them
    parts = [slice(0, m)] + [slice(g[0], g[-1] + 1)
                             for g in np.array_split(np.arange(m), min(8, m))]
    work = np.empty((0, m, n, n))
    lo = 0
    for s in blocks:
        hi = lo + len(s)
        means = np.stack([_path_sum(s[:, g], row) / (g.stop - g.start) for g in parts])
        # one norm for every mean: it is taken matrix by matrix
        norms = operator_norm(means - eye)
        defect[lo:hi] = norms[0]
        group[lo:hi] = np.median(norms[1:], axis=0)
        mean = means[0]
        if len(work) < len(s):
            work = np.empty_like(s)
        # s.std(axis=0, ddof=1) step for step, in the scratch copy
        dev = np.subtract(s, mean[:, None], out=work[:len(s)])
        dev *= dev
        se = np.sqrt(_path_sum(dev, row) / (m - 1)) / np.sqrt(m)
        std_error[lo:hi] = np.sqrt((se**2).sum(axis=(1, 2)))
        gap = np.abs(mean[:, idx, idx] - 1.0)
        which, rows = gap.argmax(axis=1), np.arange(hi - lo)
        diag[lo:hi] = gap[rows, which]
        diag_se[lo:hi] = se[:, idx, idx][rows, which]
        lo = hi
        del s                       # before the producer forms the next block
    return MartingaleDefectReport(defect, std_error, diag, diag_se, group)


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
    s_inv = expo.kept("s_inv", "doob_sup_check")
    reg = RegressionConditional.of(paths, degree)   # shared with the R_p fits
    rp = estimate_reverse_holder(expo, p, method="regression", degree=degree)
    doob_factor = (p / (p - 1.0)) ** p
    bound = doob_factor * rp.rp_estimate

    worst = 0.0
    for k in range(paths.grid.steps):
        ratios = s_inv[:, k, None] @ s[:, k:]
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


def terminal_moment_truncation_curve(expo: ExponentialEnsemble, p: float) -> dict:
    """Truncation curve E[min(|S_T|^p, L)] for increasing L.

    When the underlying moment is infinite (the rotation counterexample at
    p = 1) the curve keeps climbing and `diverging` is set.
    """
    s_terminal = expo.kept("s_terminal", "the truncation curve")
    vals = operator_norm(s_terminal[~expo.bad_paths]) ** p
    return truncation_curve(vals, np.geomspace(1.0, max(float(vals.max()), 2.0), 13))
