"""Config-driven experiment runner.

One experiment per config file (JSON; // line comments allowed), one
experiment per process.  Every run writes a summary.json embedding the fully
resolved config, its sha256 hash, and the package version, plus CSV tables
with 17-significant-digit floats, so re-running a config byte-reproduces the
artifacts.  Thread count is an execution knob only and never changes results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .brownian import generate_brownian
from .counterexamples import (EmerySpec, NonexistenceSpec, emery_closed_form,
                              emery_defect_at_horizon, exit_time_exponential,
                              nonexistence_blowup)
from .exponential import (estimate_reverse_holder, martingale_defect,
                          simulate_exponential, terminal_moment_truncation_curve,
                          truncation_curve)
from .grids import ConfigurationError, TimeGrid
from .instances import (LINEAR_FIELDS, QUADRATIC_DRIVERS, REGISTRY, describe,
                        linear_terminal, quadratic_terminal)
from .linear import LinearBsdeSpec, solve_auto
from .quadratic import solve_quadratic
from . import tree as tr

FMT = "%.17g"


def _base_properties(extra: dict) -> dict:
    props = {
        "kind": {"type": "string"},
        "seed": {"type": "integer"},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "K": {"type": "integer", "minimum": 1},
        "M": {"type": "integer", "minimum": 1},
    }
    props.update(extra)
    return props


def _schema(extra: dict, required=("seed",)) -> dict:
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": _base_properties(extra),
        "required": list(required),
        "additionalProperties": False,
    }


CONFIG_SCHEMAS = {
    "exponential": _schema({
        "field": {"type": "string", "enum": sorted(LINEAR_FIELDS) + ["emery"]},
    }),
    "reverse-holder": _schema({
        "field": {"type": "string", "enum": sorted(LINEAR_FIELDS) + ["emery"]},
        "p": {"type": "number", "minimum": 1},
        "method": {"type": "string", "enum": ["regression", "nested"]},
        "degree": {"type": "integer", "minimum": 1},
        "inner_paths": {"type": "integer", "minimum": 8},
    }),
    "linear": _schema({
        "instance": {"type": "string", "enum": sorted(LINEAR_FIELDS)},
        "method": {"type": "string",
                   "enum": ["auto", "regression", "representation",
                            "lower_triangular", "right_outer", "left_outer"]},
        "degree": {"type": "integer", "minimum": 1},
        "q": {"anyOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
        "perturbation": {
            "type": "object",
            "properties": {"scale": {"type": "number"},
                           "alpha": {"type": "number"}},
            "additionalProperties": False,
        },
    }),
    "quadratic": _schema({
        "driver": {"type": "string", "enum": sorted(QUADRATIC_DRIVERS) + ["custom"]},
        "degree": {"type": "integer", "minimum": 1},
        "init": {"type": "string", "enum": ["mean", "zero"]},
        "custom": {
            "type": "object",
            "properties": {
                "class": {"type": "string", "enum": ["ql", "unidirectional"]},
                "n": {"type": "integer", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "b": {"type": "array", "items": {"type": "number"}},
                "a": {"type": "array", "items": {"type": "number"}},
                "h_expr": {"type": "string"},
                "g_expr": {"type": "string"},
                "terminal_expr": {"type": "string"},
                "lipschitz": {"type": "number"},
            },
            "required": ["class", "n", "d"],
            "additionalProperties": False,
        },
    }),
    "counterexample": _schema({
        "which": {"type": "string", "enum": ["emery", "exit-time", "nonexistence"]},
        "b": {"type": "number"},
        "levels": {"type": "array", "items": {"type": "number"}},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "j_max": {"type": "integer", "minimum": 1},
        "paths_per_level": {"type": "integer", "minimum": 8},
        "effective_horizon": {"type": "number"},
    }),
    "oracle": _schema({
        "which": {"type": "string", "enum": ["bsde", "duality", "rp"]},
        "instances": {"type": "integer", "minimum": 1},
    }),
    "equivalence-suite": _schema({
        "p": {"type": "number", "minimum": 1},
        "depths": {"type": "array", "items": {"type": "integer"}},
    }),
}

DEFAULTS = {
    "exponential": {"field": "scalar-half", "T": 1.0, "K": 256, "M": 4000},
    "reverse-holder": {"field": "scalar-half", "p": 2.0, "T": 1.0, "K": 32,
                       "M": 40000, "method": "regression", "degree": 3,
                       "inner_paths": 512},
    "linear": {"instance": "triangular-3d", "method": "auto", "T": 1.0, "K": 32,
               "M": 16000, "degree": 3, "q": "inf"},
    "quadratic": {"driver": "cole-hopf-1d", "T": 1.0, "K": 48, "M": 16000,
                  "degree": 3, "init": "mean"},
    "counterexample": {"which": "exit-time", "b": float(np.pi / 3), "M": 20000,
                       "dt": 1e-4, "j_max": 4, "paths_per_level": 5000,
                       "effective_horizon": 48.0, "T": 8.0, "K": 800},
    "oracle": {"which": "bsde", "instances": 25},
    "equivalence-suite": {"p": 2.0, "depths": [2, 3, 4, 5]},
}


def load_config(path: str | None, kind: str, seed_override=None) -> dict:
    raw = {}
    if path:
        text = Path(path).read_text()
        text = re.sub(r"^\s*//.*$", "", text, flags=re.MULTILINE)
        raw = json.loads(text)
    cfg = dict(DEFAULTS[kind])
    cfg["seed"] = 0
    cfg.update(raw)
    cfg["kind"] = kind
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    validator = Draft202012Validator(CONFIG_SCHEMAS[kind])
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.path)
    if errors:
        msgs = "; ".join(f"{'/'.join(map(str, e.path)) or '<root>'}: {e.message}"
                         for e in errors)
        raise ConfigurationError(f"invalid config for {kind}: {msgs}")
    return cfg


SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "config": {"type": "object"},
        "config_hash": {"type": "string"},
        "version": {"type": "string"},
        "results": {"type": "object"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["config", "config_hash", "version", "results"],
    "additionalProperties": False,
}


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)          # "inf" / "-inf" / "nan": keep summaries valid JSON
    return obj


def write_outputs(out_dir: Path, cfg: dict, results: dict, tables: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for name, (header, rows) in tables.items():
        fp = out_dir / f"{name}.csv"
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        np.savetxt(fp, rows, delimiter=",", header=header, comments="", fmt=FMT)
        artifacts.append(fp.name)
    cfg_json = json.dumps(_to_jsonable(cfg), sort_keys=True)
    summary = {
        "config": json.loads(cfg_json),
        "config_hash": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "version": __version__,
        "results": _to_jsonable(results),
        "artifacts": sorted(artifacts),
    }
    Draft202012Validator(SUMMARY_SCHEMA).validate(summary)
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))


def _get_field(name: str):
    if name == "emery":
        return EmerySpec().field()
    return LINEAR_FIELDS[name]()


_EXPR_NAMES = {"np": np, "pi": np.pi, "abs": np.abs, "tanh": np.tanh,
               "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _compile_expr(expr: str, argnames: tuple):
    """Restricted numpy expression: names limited to arguments and _EXPR_NAMES."""
    code = compile(expr, "<config>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in argnames:
            raise ConfigurationError(f"name {name!r} not allowed in config expression")

    def fn(*args):
        scope = dict(_EXPR_NAMES)
        scope.update(zip(argnames, args))
        return eval(code, {"__builtins__": {}}, scope)

    return fn


def build_custom_driver(custom: dict):
    """Driver (and terminal) from config expressions.

    Expressions see y (M, n), z (M, n, d), t, x (M, d) for the driver parts
    and b (M, K+1, d) Brownian states for the terminal.
    """
    from .quadratic import QuadraticLinearDriver, UnidirectionalDriver
    n, d = custom["n"], custom["d"]
    lip = custom.get("lipschitz", 1.0)
    g = None
    if custom.get("g_expr"):
        g_fn = _compile_expr(custom["g_expr"], ("t", "x", "y", "z"))
        g = lambda t, x, y, z: np.asarray(g_fn(t, x, y, z), dtype=float)
    if custom["class"] == "ql":
        drv = QuadraticLinearDriver(n, d, g, custom.get("b", [0.0] * n), lip,
                                    name="custom")
    else:
        h_fn = _compile_expr(custom.get("h_expr", "0.0 * z[:, 0, 0]"), ("z",))
        drv = UnidirectionalDriver(n, d, g, custom.get("a", [1.0] + [0.0] * (n - 1)),
                                   lambda z: np.asarray(h_fn(z), dtype=float),
                                   lip, name="custom")
    term_expr = custom.get("terminal_expr", "tanh(b[:, -1, :1]) + 0 * b[:, -1, :1]")
    t_fn = _compile_expr(term_expr, ("b",))

    def terminal(paths):
        out = np.asarray(t_fn(paths.states), dtype=float)
        return np.broadcast_to(out.reshape(paths.paths, -1), (paths.paths, n)).copy()

    return drv, terminal


# ---------------------------------------------------------------------------
# experiment runners


def run_exponential(cfg: dict, out: Path, threads: int = 1) -> int:
    fld = _get_field(cfg["field"])
    grid = TimeGrid(cfg["T"], cfg["K"])
    paths = generate_brownian(grid, fld.d, cfg["M"], cfg["seed"], threads=threads)
    expo = simulate_exponential(fld, paths)
    defect = martingale_defect(expo)
    resid = expo.inverse_residual_profile()
    results = {
        "max_defect": float(defect.defect.max()),
        "max_inverse_residual_mean": float(resid.max()),
        "bad_paths": int(expo.bad_paths.sum()),
    }
    tables = {
        "defect_profile": ("t,defect,std_error,diag_defect,diag_std_error",
                           np.column_stack([grid.nodes, defect.defect, defect.std_error,
                                            defect.diagonal_defect,
                                            defect.diagonal_std_error])),
        "inverse_residual": ("t,mean_residual", np.column_stack([grid.nodes, resid])),
    }
    write_outputs(out, cfg, results, tables)
    return 0


def run_reverse_holder(cfg: dict, out: Path, threads: int = 1) -> int:
    fld = _get_field(cfg["field"])
    grid = TimeGrid(cfg["T"], cfg["K"])
    paths = generate_brownian(grid, fld.d, cfg["M"], cfg["seed"], threads=threads)
    expo = simulate_exponential(fld, paths)
    rep = estimate_reverse_holder(expo, cfg["p"], method=cfg["method"],
                                  degree=cfg["degree"], inner_paths=cfg["inner_paths"])
    results = {
        "rp_estimate": rep.rp_estimate,
        "std_error": rep.std_error,
        "attaining_time": float(grid.nodes[rep.attaining_index]),
        "estimator": rep.estimator,
    }
    tables = {
        "rp_profile": ("t,estimate,std_error",
                       np.column_stack([grid.nodes, rep.profile, rep.profile_std_error])),
    }
    if cfg["field"] == "emery":
        curve = terminal_moment_truncation_curve(expo, p=cfg["p"])
        results["divergence_flag"] = curve["diverging"]
        tables["truncation_curve"] = ("level,truncated_mean",
                                      np.column_stack([curve["levels"], curve["curve"]]))
    write_outputs(out, cfg, results, tables)
    return 0


def _q_value(q) -> float:
    """The norm exponent: a number >= 1 or "inf" (the --q flag gives text)."""
    try:
        value = float(q)
    except (TypeError, ValueError):
        value = np.nan
    if not value >= 1.0:
        raise ConfigurationError(f"q must be a number >= 1 or 'inf', got {q!r}")
    return value


def run_linear(cfg: dict, out: Path, threads: int = 1) -> int:
    fld = LINEAR_FIELDS[cfg["instance"]]()
    grid = TimeGrid(cfg["T"], cfg["K"])
    paths = generate_brownian(grid, fld.d, cfg["M"], cfg["seed"], threads=threads)
    pert = cfg.get("perturbation")
    delta, alpha = None, None
    if pert:
        from .fields import constant_field
        if pert.get("scale"):
            delta = constant_field(
                np.full((fld.n, fld.n, fld.d), float(pert["scale"])), name="delta")
        if pert.get("alpha"):
            alpha = lambda p, k, _a=float(pert["alpha"]): np.broadcast_to(
                _a * np.eye(fld.n), (p.paths, fld.n, fld.n))
    spec = LinearBsdeSpec(fld, linear_terminal(cfg["instance"]),
                          alpha=alpha, delta_field=delta)
    sol = solve_auto(spec, paths, degree=cfg["degree"], method=cfg["method"])
    q = _q_value(cfg["q"])
    norms = sol.norm_report(q)
    results = {
        "solver": sol.solver,
        "y0_mean": sol.y[:, 0].mean(axis=0),
        "y_norm": {"kind": norms["y"].kind, "value": norms["y"].value,
                   "std_error": norms["y"].std_error},
        "z_norm": {"kind": norms["z"].kind, "value": norms["z"].value,
                   "std_error": norms["z"].std_error},
        "diagnostics": {k: v for k, v in sol.diagnostics.items()
                        if isinstance(v, (int, float, str, list))},
    }
    n, d = fld.n, fld.d
    ymean = sol.y.mean(axis=0)
    zmean = np.concatenate([sol.z.mean(axis=0).reshape(grid.steps, n * d),
                            np.full((1, n * d), np.nan)])
    resid = np.full(grid.steps + 1, sol.diagnostics["moment_residual"])
    header = ("t," + ",".join(f"Y{i}" for i in range(n)) + ","
              + ",".join(f"Z{i}_{e}" for i in range(n) for e in range(d)) + ",residual")
    tables = {"solution": (header, np.column_stack([grid.nodes, ymean, zmean, resid]))}
    write_outputs(out, cfg, results, tables)
    return 0


def run_quadratic(cfg: dict, out: Path, threads: int = 1) -> int:
    if cfg["driver"] == "custom":
        if "custom" not in cfg:
            raise ConfigurationError("driver 'custom' needs a 'custom' block")
        drv, term = build_custom_driver(cfg["custom"])
    else:
        drv = QUADRATIC_DRIVERS[cfg["driver"]]()
        term = quadratic_terminal(cfg["driver"])
    grid = TimeGrid(cfg["T"], cfg["K"])
    paths = generate_brownian(grid, drv.d, cfg["M"], cfg["seed"], threads=threads)
    rep = solve_quadratic(drv, term, paths, degree=cfg["degree"], init=cfg["init"])
    sol = rep.solution
    norms = sol.norm_report(np.inf)
    results = {
        "y0_mean": sol.y[:, 0].mean(axis=0),
        "truncation_level": rep.level,
        "truncation_margin": rep.margin,
        "escalation_log": rep.escalation_log,
        "y_sup_norm": norms["y"].value,
        "z_bmo_norm": norms["z"].value,
    }
    n, d = drv.n, drv.d
    ymean = sol.y.mean(axis=0)
    zmean = np.concatenate([sol.z.mean(axis=0).reshape(grid.steps, n * d),
                            np.full((1, n * d), np.nan)])
    header = ("t," + ",".join(f"Y{i}" for i in range(n)) + ","
              + ",".join(f"Z{i}_{e}" for i in range(n) for e in range(d)))
    tables = {"solution": (header, np.column_stack([grid.nodes, ymean, zmean]))}
    write_outputs(out, cfg, results, tables)
    return 0


def run_counterexample(cfg: dict, out: Path, threads: int = 1) -> int:
    which = cfg["which"]
    if which == "exit-time":
        levels = cfg.get("levels") or [cfg["b"]]
        rows = []
        results = {"levels": []}
        for i, b in enumerate(levels):
            r = exit_time_exponential(float(b), cfg["M"], cfg["dt"],
                                      seed=cfg["seed"] + 13 * i)
            rel = abs(r.estimate / r.exact - 1.0)
            rows.append([b, r.estimate, r.std_error, r.exact, rel])
            results["levels"].append({
                "b": float(b), "estimate": r.estimate, "std_error": r.std_error,
                "exact": r.exact, "relative_error": rel,
                "heavy_tail_warning": r.heavy_tail_warning,
                "truncated_paths": r.truncated_paths})
        tables = {"exit_time": ("b,estimate,std_error,exact,relative_error", rows)}
    elif which == "emery":
        grid = TimeGrid(cfg["T"], cfg["K"])
        paths = generate_brownian(grid, 1, min(cfg["M"], 4000), cfg["seed"])
        expo = emery_closed_form(paths)
        defect = martingale_defect(expo)
        horizon = emery_defect_at_horizon(cfg["M"], cfg["effective_horizon"],
                                          seed=cfg["seed"] + 1)
        curve = truncation_curve(horizon["terminal_opnorm_samples"])
        results = {
            "diag_defect_at_horizon": horizon["diag_defect"],
            "significance_vs_half": horizon["significance_vs_half"],
            "survivors_at_horizon": horizon["survivors"],
            "moment_divergence_flag": curve["diverging"],
        }
        tables = {
            "defect_profile": ("t,defect,std_error,diag_defect,diag_std_error",
                               np.column_stack([grid.nodes, defect.defect,
                                                defect.std_error, defect.diagonal_defect,
                                                defect.diagonal_std_error])),
            "truncation_curve": ("level,truncated_mean",
                                 np.column_stack([curve["levels"], curve["curve"]])),
        }
    else:
        spec = NonexistenceSpec()
        diag = nonexistence_blowup(spec, cfg["j_max"], cfg["paths_per_level"],
                                   seed=cfg["seed"])
        results = {
            "condition_report": spec.condition_report(),
            "heavy_levels": diag.heavy_levels,
            "last_partial_sum": float(diag.partial_sum[-1]),
            "last_remainder_bound": float(diag.remainder_bound[-1]),
        }
        tables = {"blowup": ("j,partial_sum,simulated_estimate,std_error,remainder_bound",
                             diag.to_rows())}
    write_outputs(out, cfg, results, tables)
    return 0


def _random_tree(rng: np.random.Generator):
    d = int(rng.integers(1, 3))
    steps = int(rng.integers(2, 9 if d == 1 else 5))
    n = int(rng.integers(1, 4))
    filt = tr.FiniteFiltration(steps, d, float(rng.uniform(0.05, 0.3)))
    scale = 0.5 / np.sqrt(filt.dt) / (n * d) * 0.5
    a_nodes = [rng.normal(scale=min(scale, 0.6), size=(filt.nodes_at(k), n, n, d))
               for k in range(steps)]
    beta = [rng.normal(size=(filt.nodes_at(k), n)) for k in range(steps)]
    xi = rng.normal(size=(filt.leaves, n))
    return filt, a_nodes, beta, xi


def run_oracle(cfg: dict, out: Path, threads: int = 1) -> int:
    rng = np.random.default_rng(cfg["seed"])
    which = cfg["which"]
    rows, results = [], {}
    if which == "bsde":
        worst = 0.0
        for i in range(cfg["instances"]):
            filt, a_nodes, beta, xi = _random_tree(rng)
            y, _ = tr.discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
            y_rep = tr.representation_solution(filt, a_nodes, xi, beta)
            err = max(float(np.abs(y[k] - y_rep[k]).max())
                      for k in range(filt.steps + 1))
            rows.append([i, filt.steps, filt.d, xi.shape[1], err])
            worst = max(worst, err)
        results = {"worst_identity_error": worst, "instances": cfg["instances"]}
        tables = {"oracle_bsde": ("instance,steps,d,n,identity_error", rows)}
    elif which == "duality":
        worst = 0.0
        for i in range(cfg["instances"]):
            filt, a_nodes, beta, xi = _random_tree(rng)
            level = int(rng.integers(0, filt.steps))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            res = tr.verify_duality_lemma(filt, xi, level, p, rng=rng)
            rows.append([i, p, level, res["lhs"], res["rhs"], res["gap"]])
            worst = max(worst, abs(res["gap"]))
        results = {"worst_gap": worst, "instances": cfg["instances"]}
        tables = {"oracle_duality": ("instance,p,level,lhs,rhs,gap", rows)}
    else:
        filt = tr.FiniteFiltration(1, 1, 0.25)
        s = tr.discrete_exponential(filt, [np.full((1, 1, 1, 1), 1.0)])
        r2 = tr.discrete_reverse_holder(filt, s, 2.0)
        rows.append([0, 2.0, r2["rp"], 1.25])
        mono_ok = True
        for i in range(cfg["instances"]):
            filt, a_nodes, _, _ = _random_tree(rng)
            s = tr.discrete_exponential(filt, a_nodes)
            if s.singular:
                continue
            rps = [tr.discrete_reverse_holder(filt, s, p)["rp"]
                   for p in (1.0, 1.5, 2.0, 3.0)]
            mono_ok &= all(rps[j] <= rps[j + 1] + 1e-12 for j in range(3))
            rows.append([i + 1, 2.0, rps[2], np.nan])
        results = {"hand_example_r2": r2["rp"], "monotone_in_p": bool(mono_ok)}
        tables = {"oracle_rp": ("instance,p,rp,expected", rows)}
    write_outputs(out, cfg, results, tables)
    return 0


def run_equivalence_suite(cfg: dict, out: Path, threads: int = 1) -> int:
    """Desk-scale form of the well-posedness equivalence on trees.

    For bounded structural fields, exact R_p and the exact solution-operator
    bound stay within the monotone envelopes of one another; for the stopped
    rotation field both grow together with depth.
    """
    rng = np.random.default_rng(cfg["seed"])
    p = cfg["p"]
    q = p / (p - 1.0) if p > 1 else np.inf
    rows = []
    ok = True
    rot = np.zeros((2, 2, 1))
    rot[0, 1, 0], rot[1, 0, 0] = 1.0, -1.0
    for depth in cfg["depths"]:
        for tag, a_fn in (("triangular", lambda nk: np.tril(
                rng.normal(scale=0.3, size=(nk, 2, 2)))[..., None]),
                          ("rotation", lambda nk: np.broadcast_to(
                              rot, (nk, 2, 2, 1)).copy())):
            filt = tr.FiniteFiltration(depth, 1, 0.25)
            a_nodes = [a_fn(filt.nodes_at(k)) for k in range(depth)]
            s = tr.discrete_exponential(filt, a_nodes)
            rp = tr.discrete_reverse_holder(filt, s, p)["rp"]
            opn = tr.hbsde_operator_norm(filt, a_nodes, q, rng=rng,
                                         random_terminals=8)["operator_norm"]
            bmo = tr.tree_bmo(filt, a_nodes)
            n = 2
            phi = n ** (1 + p / 2.0) * opn**p          # R_p <= phi(opnorm)
            r1 = tr.discrete_reverse_holder(filt, s, 1.0)["rp"]
            psi = r1 + np.sqrt(2.0) * np.sqrt(1.0 + r1**2 * bmo**2)
            ok &= rp <= phi + 1e-9
            rows.append([depth, 1.0 if tag == "rotation" else 0.0, rp, opn, bmo,
                         phi, psi])
    results = {"all_envelopes_hold": bool(ok), "p": p}
    tables = {"equivalence": ("depth,is_rotation,rp,opnorm,bmo,phi_envelope,psi_envelope",
                              rows)}
    write_outputs(out, cfg, results, tables)
    return 0 if ok else 3


RUNNERS = {
    "simulate-exponential": ("exponential", run_exponential),
    "estimate-rp": ("reverse-holder", run_reverse_holder),
    "solve-linear": ("linear", run_linear),
    "solve-quadratic": ("quadratic", run_quadratic),
    "counterexample": ("counterexample", run_counterexample),
    "oracle": ("oracle", run_oracle),
    "equivalence-suite": ("equivalence-suite", run_equivalence_suite),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsde-lab",
        description="stochastic exponential / BSDE numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        if name in ("counterexample",):
            sp.add_argument("which", choices=["emery", "exit-time", "nonexistence"],
                            nargs="?")
        if name == "oracle":
            sp.add_argument("which", choices=["bsde", "duality", "rp"], nargs="?")
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int,
                        default=int(os.environ.get("BSDE_LAB_THREADS", "1")))
        sp.add_argument("--out", default="out")
        if name == "solve-linear":
            sp.add_argument("--structure", default=None,
                            choices=["generic", "triangular", "left-outer",
                                     "right-outer"])
            sp.add_argument("--method", default=None,
                            choices=["representation", "regression", "auto"])
            sp.add_argument("--q", default=None)
            sp.add_argument("--perturbation", action="store_true")
    lp = sub.add_parser("list")
    lp.add_argument("--kind", default=None)
    dp = sub.add_parser("describe")
    dp.add_argument("name")
    return ap


_STRUCTURE_TO_INSTANCE = {
    "triangular": "triangular-3d",
    "left-outer": "left-outer-3d",
    "right-outer": "right-outer-3d",
    "generic": "scalar-half",
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(REGISTRY):
            info = REGISTRY[name]
            if args.kind and info.kind != args.kind:
                continue
            print(json.dumps({"name": name, "kind": info.kind,
                              "description": info.description}, sort_keys=True))
        return 0
    if args.command == "describe":
        try:
            info = describe(args.name)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps({"name": info.name, "kind": info.kind,
                          "description": info.description,
                          "parameters": _to_jsonable(info.parameters)},
                         sort_keys=True, indent=1))
        return 0

    kind, runner = RUNNERS[args.command]
    try:
        cfg = load_config(args.config, kind, seed_override=args.seed)
        if getattr(args, "which", None):
            cfg["which"] = args.which
        if args.command == "solve-linear":
            if args.structure:
                cfg["instance"] = _STRUCTURE_TO_INSTANCE[args.structure]
            if args.method:
                cfg["method"] = args.method
            if args.q:
                _q_value(args.q)
                cfg["q"] = args.q
            if args.perturbation and "perturbation" not in cfg:
                cfg["perturbation"] = {"scale": 0.05, "alpha": 0.1}
        return runner(cfg, Path(args.out), threads=max(1, args.threads))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # numerical failure surfaced with module context
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
