"""Run one bsde-lab CLI command in this process and record how long it took.

    python3 bench/child.py RECORD TRACE <bsde-lab arguments...>

RECORD is a JSON file written when the command ends.  It holds the monotonic
clock at entry to and exit from the CLI runner and, with TRACE=1, the spans
and counters recorded by wrappers installed around the package's public
functions.  The command's own outputs (summary.json, CSV tables) are written
exactly as `bsde-lab` writes them; the wrappers only observe.

`time.monotonic` reads CLOCK_MONOTONIC, which is shared by every process on
the machine, so the parent can subtract its own spawn time from the runner
entry time recorded here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from bsde_lab import cli

clock = time.monotonic


class Tracer:
    """Spans and counters of one CLI run, kept in memory until it ends.

    A span is [name, start, end, parent index, case id]; the parent is the
    innermost span open when it started (-1 at the top level).  The package
    is single-threaded at `--threads 1`, so one stack describes nesting.
    """

    def __init__(self, case: str):
        self.case = case
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.case]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if counter is not None:
                counter(self, fn, args, kwargs, out)
            return out
        return traced


# Counters run after the wrapped call returns:
# counter(tracer, wrapped function, args, kwargs, return value).

def _calls(metric):
    return lambda tr, fn, args, kwargs, out: tr.count(metric, 1)


def _count_normals(tr, fn, args, kwargs, out):
    tr.count("brownian.normals", out.paths * out.grid.steps * out.d)


def _count_nested(tr, fn, args, kwargs, out):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    tr.count("exponential.nested_paths", a["expo"].paths.paths * a["inner_paths"])


def _count_features(tr, fn, args, kwargs, out):
    tr.count("norms.fit_rows", out.shape[0] * out.shape[1])


def _count_opnorm(tr, fn, args, kwargs, out):
    tr.count("tensors.opnorm_matrices", math.prod(np.shape(args[0])[:-2]))


def _count_truncated(tr, fn, args, kwargs, out):
    tr.count("counterexamples.truncated_paths", out.truncated_paths)


def _count_levels(tr, fn, args, kwargs, out):
    tr.count("quadratic.levels_tried", len(out.escalation_log))


def _count_picard(tr, fn, args, kwargs, out):
    tr.count("linear.picard_iters", out.diagnostics["picard_iterations"])


def _record_rank_warnings(tr: Tracer, fit_predict):
    """fit_predict that counts its rank-deficiency warnings, then re-issues them."""
    @functools.wraps(fit_predict)
    def fit(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fit_predict(*args, **kwargs)
        for w in caught:
            if "rank-deficient" in str(w.message):
                tr.count("norms.fit_rank_deficient", 1)
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out
    return fit


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the normals it draws."""

    def __init__(self, rng, tracer: Tracer, metric: str):
        self._rng, self._tracer, self._metric = rng, tracer, metric

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._rng.standard_normal(size, *args, **kwargs)
        self._tracer.count(self._metric, np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _exit_walk_substream(tr: Tracer, substream):
    @functools.wraps(substream)
    def counted(*args, **kwargs):
        rng = substream(*args, **kwargs)
        if tr.innermost() == "counterexamples.exit_walk":
            return _CountingGenerator(rng, tr, "counterexamples.exit_normals")
        return rng
    return counted


# (module, function, span name, counter).  Every binding of the function in
# the package is replaced, because `from .tensors import operator_norm` gives
# exponential, tree and others their own name for it.
FUNCTIONS = [
    ("tensors", "operator_norm", "tensors.opnorm", _count_opnorm),
    ("brownian", "generate_brownian", "brownian.generate", _count_normals),
    ("exponential", "integrate_exponential", "exponential.integrate", None),
    ("exponential", "integrate_inverse", "exponential.integrate", None),
    ("exponential", "simulate_exponential", "exponential.integrate", None),
    ("exponential", "estimate_reverse_holder", "exponential.rp", None),
    ("exponential", "_nested_ratio_moment", "exponential.rp", _count_nested),
    ("exponential", "terminal_moment_truncation_curve", "exponential.rp", None),
    ("exponential", "doob_sup_check", "exponential.rp", None),
    ("exponential", "martingale_defect", "exponential.defect", None),
    ("norms", "poly_features", "norms.fit", _count_features),
    ("norms", "estimate_norm", "norms.estimate_norm", None),
    ("linear", "solve_auto", "linear.solve", None),
    ("linear", "solve_by_regression", "linear.solve", None),
    ("linear", "solve_by_representation", "linear.solve", None),
    ("linear", "solve_triangular", "linear.solve", None),
    ("linear", "solve_right_outer", "linear.solve", None),
    ("linear", "solve_left_outer", "linear.solve", None),
    ("linear", "left_outer_exponential", "linear.solve", None),
    ("linear", "solve_perturbed", "linear.solve", _count_picard),
    ("quadratic", "solve_quadratic", "quadratic.backward", _count_levels),
    ("counterexamples", "exit_time_exponential", "counterexamples.exit_walk",
     _count_truncated),
    ("counterexamples", "nonexistence_blowup", "counterexamples.exit_walk", None),
    ("counterexamples", "emery_closed_form", "counterexamples.emery", None),
    ("counterexamples", "emery_defect_at_horizon", "counterexamples.emery", None),
    ("cli", "write_outputs", "cli.write_outputs", None),
    ("cli", "load_config", "cli.load_config", None),
] + [("tree", name, "tree.self", _calls("tree.calls")) for name in (
    "conditional_expectation", "all_conditional_expectations", "discrete_exponential",
    "discrete_linear_bsde_solve", "representation_solution", "discrete_reverse_holder",
    "tree_bmo", "verify_duality_lemma", "verify_duality_matrix",
    "solution_pathwise_norms", "hbsde_operator_norm")]

# (module, class, method, span name, counter).  Applied to the class and to
# every subclass that overrides the method, e.g. StoppedRotationField.values.
METHODS = [
    ("brownian", "PathEnsemble", "state_at", "brownian.state_at",
     _calls("brownian.state_at_calls")),
    ("fields", "CoefficientField", "values", "fields.values", _calls("fields.values_calls")),
    ("fields", "RightOuterField", "a_values", "fields.values", _calls("fields.values_calls")),
    ("fields", "LeftOuterField", "b_values", "fields.values", _calls("fields.values_calls")),
    ("exponential", "ExponentialEnsemble", "inverse_residual", "exponential.residual", None),
    ("exponential", "ExponentialEnsemble", "inverse_residual_profile",
     "exponential.residual", None),
    ("norms", "RegressionConditional", "fit_predict", "norms.fit", _calls("norms.fit_calls")),
    ("quadratic", "TruncatedDriver", "__call__", "quadratic.driver",
     _calls("quadratic.driver_evals")),
    ("quadratic", "QuadraticLinearDriver", "__call__", "quadratic.driver",
     _calls("quadratic.driver_evals")),
    ("quadratic", "UnidirectionalDriver", "__call__", "quadratic.driver",
     _calls("quadratic.driver_evals")),
]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every function and method listed above, wherever it is bound."""
    modules = [m for name, m in sys.modules.items()
               if name == "bsde_lab" or name.startswith("bsde_lab.")]
    for mod_name, attr, span, counter in FUNCTIONS:
        orig = getattr(importlib.import_module(f"bsde_lab.{mod_name}"), attr)
        wrapped = tracer.wrap(span, orig, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    for mod_name, cls_name, attr, span, counter in METHODS:
        cls = getattr(importlib.import_module(f"bsde_lab.{mod_name}"), cls_name)
        for sub in _subclasses(cls):
            if attr in vars(sub):
                fn = vars(sub)[attr]
                if attr == "fit_predict":
                    fn = _record_rank_warnings(tracer, fn)
                setattr(sub, attr, tracer.wrap(span, fn, counter))
    cx = importlib.import_module("bsde_lab.counterexamples")
    cx.substream = _exit_walk_substream(tracer, cx.substream)


def main(argv: list[str]) -> int:
    record_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    record = {"runner_enter": None, "runner_exit": None}
    tracer = Tracer(case=Path(record_path).stem)
    if traced:
        install(tracer)

    def timed(runner):
        run = tracer.wrap("cli.runner", runner) if traced else runner

        @functools.wraps(runner)
        def entered(*args, **kwargs):
            record["runner_enter"] = clock()
            try:
                return run(*args, **kwargs)
            finally:
                record["runner_exit"] = clock()
        return entered

    for command, (kind, runner) in list(cli.RUNNERS.items()):
        cli.RUNNERS[command] = (kind, timed(runner))
    try:
        return cli.main(cli_args)
    finally:
        if traced:
            record["spans"] = tracer.spans
            record["counts"] = tracer.counts
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
