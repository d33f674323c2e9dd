"""Benchmark workloads: the bsde-lab CLI commands each workload times, and
the checks their outputs must pass.

Every case is one CLI command at a pinned config.  The workload seed is
passed to each case as `--seed`; the checks compare results with closed forms
or invariants that hold for every seed, with Monte Carlo tolerances of four
standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable


@dataclass(frozen=True)
class Check:
    label: str
    passes: Callable[[dict, "Case"], bool]


@dataclass(frozen=True)
class Case:
    name: str
    command: tuple            # subcommand and its positional words / flags
    config: dict              # written as the --config file
    checks: tuple = ()
    expect: dict = field(default_factory=dict)

    def with_config(self, **changes) -> "Case":
        return replace(self, config={**self.config, **changes})

    def with_expect(self, **changes) -> "Case":
        return replace(self, expect={**self.expect, **changes})


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _inverse_residual(res, case):
    return res["max_inverse_residual_mean"] <= case.expect["max_inverse_residual"]


def _no_bad_paths(res, case):
    return res["bad_paths"] == 0


def _rp_at_least_one(res, case):
    return _finite(res["rp_estimate"]) and res["rp_estimate"] >= 1.0


def _y0_finite(res, case):
    return all(_finite(v) for v in res["y0_mean"])


def _solver_is(res, case):
    return res["solver"] == case.expect["solver"]


def _moment_residual(res, case):
    return res["diagnostics"]["moment_residual"] <= case.expect["moment_residual"]


def _picard_converged(res, case):
    return res["diagnostics"]["picard_history"][-1] < 1e-6


def _escalated(res, case):
    log = res["escalation_log"]
    return len(log) >= case.expect["levels_tried"] and log[-1]["accepted"]


def _cole_hopf_y0(res, case):
    # Y_0 is a sample mean of B_T + 1/2 (Z = 1 on every path), so its standard
    # error is sqrt(T / M).
    se = math.sqrt(case.config["T"] / case.config["M"])
    return abs(res["y0_mean"][0] - case.expect["y0"]) <= 4.0 * se


def _exit_time_identity(res, case):
    # The band uses the exact standard error, from Var exp(sigma_b / 2) =
    # 1/cos(b sqrt 2) - 1/cos(b)^2 (finite for b < pi / (2 sqrt 2)).  The
    # estimated one runs low on some seeds, because exp(sigma_b / 2) has no
    # finite fourth moment for b >= pi/4.
    b, paths = case.config["b"], case.config["M"]
    se = math.sqrt((1.0 / math.cos(b * math.sqrt(2.0)) - 1.0 / math.cos(b) ** 2) / paths)
    return abs(res["levels"][0]["estimate"] - case.expect["value"]) <= 4.0 * se


def _no_truncated_paths(res, case):
    return res["levels"][0]["truncated_paths"] == 0


def _conditions_hold(res, case):
    return all(res["condition_report"].values())


def _partial_sum(res, case):
    return abs(res["last_partial_sum"] - case.expect["partial_sum"]) <= 1e-12


def _emery_defect(res, case):
    return res["diag_defect_at_horizon"] >= case.expect["min_defect"]


def _moment_diverges(res, case):
    return res["moment_divergence_flag"] is True


def _envelopes_hold(res, case):
    return res["all_envelopes_hold"] is True


def _duality_gap(res, case):
    return res["worst_gap"] <= case.expect["max_gap"]


def _tree_identity(res, case):
    return res["worst_identity_error"] <= case.expect["max_error"]


def _exit_case(name: str, b: float, paths: int) -> Case:
    return Case(name, ("counterexample", "exit-time"),
                {"b": b, "dt": 1e-4, "M": paths},
                (Check("E[exp(sigma_b/2)] within 4 exact se of 1/cos(b)", _exit_time_identity),
                 Check("no path truncated at the horizon", _no_truncated_paths)),
                {"value": 1.0 / math.cos(b)})


_LINEAR_CHECKS = (Check("Y_0 finite", _y0_finite),
                  Check("solver matches the structure", _solver_is),
                  Check("backward-step moment residual small", _moment_residual))

# Partial sums of 2^-k / cos(b_k) with cos(b_k) = 0.9 (k+1) 2^-k (the shipped
# level sequence) are sum_{k<=j} 1 / (0.9 (k+1)).
_NONEXISTENCE_J = 3

WORKLOADS = {
    # Forward simulation and R_p: operator-norm SVD, einsum integration and
    # state_at re-summing.  K=800 is the shape of acceptance criterion 07;
    # the nested case restarts many short paths instead of a few long ones.
    "forward": (
        Case("exp-triangular", ("simulate-exponential",),
             {"field": "triangular-3d", "T": 1.0, "K": 800, "M": 300},
             (Check("inverse residual <= 0.05 at K=800", _inverse_residual),
              Check("no non-finite path", _no_bad_paths)),
             {"max_inverse_residual": 0.05}),
        Case("exp-emery", ("simulate-exponential",),
             {"field": "emery", "T": 1.0, "K": 800, "M": 300},
             (Check("inverse residual <= 0.05 at K=800", _inverse_residual),
              Check("no non-finite path", _no_bad_paths)),
             {"max_inverse_residual": 0.05}),
        Case("rp-regression", ("estimate-rp",),
             {"field": "triangular-3d", "T": 1.0, "K": 32, "M": 6000,
              "method": "regression"},
             (Check("R_p >= 1 and finite", _rp_at_least_one),)),
        Case("rp-nested", ("estimate-rp",),
             {"field": "scalar-half", "T": 1.0, "K": 16, "M": 300,
              "method": "nested", "inner_paths": 256},
             (Check("R_p >= 1 and finite", _rp_at_least_one),)),
    ),
    # Linear and quadratic backward solves: regression fits (poly features
    # plus lstsq) and the inner Picard driver evaluations.
    "backward": (
        Case("linear-triangular", ("solve-linear",),
             {"instance": "triangular-3d", "T": 1.0, "K": 32, "M": 6000},
             _LINEAR_CHECKS, {"solver": "triangular", "moment_residual": 0.05}),
        Case("linear-left-outer", ("solve-linear",),
             {"instance": "left-outer-3d", "T": 1.0, "K": 32, "M": 6000},
             _LINEAR_CHECKS, {"solver": "left_outer", "moment_residual": 0.05}),
        Case("linear-regression", ("solve-linear",),
             {"instance": "triangular-3d", "T": 1.0, "K": 32, "M": 6000,
              "method": "regression"},
             _LINEAR_CHECKS, {"solver": "regression", "moment_residual": 0.05}),
        Case("linear-perturbed", ("solve-linear", "--perturbation"),
             {"instance": "right-outer-3d", "T": 1.0, "K": 32, "M": 6000},
             _LINEAR_CHECKS + (Check("outer Picard loop converged", _picard_converged),),
             {"solver": "perturbed", "moment_residual": 0.05}),
        Case("quadratic-unidirectional", ("solve-quadratic",),
             {"driver": "unidirectional-2d", "T": 1.0, "K": 48, "M": 5000},
             (Check("Y_0 finite", _y0_finite),
              Check("escalates to a second truncation level", _escalated)),
             {"levels_tried": 2}),
        Case("quadratic-cole-hopf", ("solve-quadratic",),
             {"driver": "cole-hopf-1d", "T": 1.0, "K": 48, "M": 16000},
             (Check("Cole-Hopf Y_0 within 4 se of 1/2", _cole_hopf_y0),),
             {"y0": 0.5}),
    ),
    # Counterexamples and the tree oracle: the bridge-corrected exit-time
    # walk dominates; regression and SVD do almost nothing here.
    "closed-form": (
        _exit_case("exit-pi4", math.pi / 4, 3000),
        _exit_case("exit-pi3", math.pi / 3, 3000),
        Case("nonexistence", ("counterexample", "nonexistence"),
             {"j_max": _NONEXISTENCE_J, "paths_per_level": 1000},
             (Check("level-sequence conditions hold", _conditions_hold),
              Check("partial sum matches its closed form", _partial_sum)),
             {"partial_sum": sum(1.0 / (0.9 * (k + 1))
                                 for k in range(1, _NONEXISTENCE_J + 1))}),
        Case("emery", ("counterexample", "emery"), {"M": 2000},
             (Check("diagonal defect >= 0.5 at the horizon", _emery_defect),
              Check("terminal moment diverges", _moment_diverges)),
             {"min_defect": 0.5}),
        Case("equivalence", ("equivalence-suite",), {"depths": [2, 4, 6, 8]},
             (Check("all envelopes hold", _envelopes_hold),)),
        Case("oracle-duality", ("oracle", "duality"), {"instances": 100},
             (Check("duality gap <= 1e-9", _duality_gap),), {"max_gap": 1e-9}),
        Case("oracle-bsde", ("oracle", "bsde"), {"instances": 100},
             (Check("tree identity error <= 1e-10", _tree_identity),),
             {"max_error": 1e-10}),
    ),
}
