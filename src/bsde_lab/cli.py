"""Config-driven experiment runner.

One experiment per config file (JSON; // line comments allowed), one
experiment per process.  Every run writes a summary.json embedding the fully
resolved config, its sha256 hash, and the package version, plus CSV tables
with 17-significant-digit floats, so re-running a config byte-reproduces the
artifacts.  Thread count is an execution knob only and never changes results.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .brownian import generate_brownian
from .counterexamples import (NonexistenceSpec, check_emery_walk, check_exit_walks,
                              emery_defect_at_horizon, emery_defect_profile,
                              exit_time_exponential, nonexistence_blowup)
from .exponential import (estimate_reverse_holder, martingale_defect,
                          simulate_exponential, terminal_moment_truncation_curve,
                          truncation_curve)
from .grids import ConfigurationError, TimeGrid
from .instances import (FIELDS, LINEAR_FIELDS, QUADRATIC_DRIVERS, REGISTRY, describe,
                        linear_terminal, quadratic_terminal)
from .linear import LinearBsdeSpec, solve_auto
from .quadratic import solve_quadratic
from . import tree as tr

FMT = "%.17g"


def _prop(default=None, **spec) -> dict:
    """One schema property; `default` is its JSON Schema default annotation,
    which `load_config` fills in when the config leaves the key out."""
    return spec if default is None else {**spec, "default": default}


def _grid(T, K, M) -> dict:
    """Properties of the time grid (T, K steps) and path count M, with their
    defaults; only kinds that simulate paths on a grid have them."""
    return {"T": _prop(T, type="number", exclusiveMinimum=0),
            "K": _prop(K, type="integer", minimum=1),
            "M": _prop(M, type="integer", minimum=2)}


def _schema(**props) -> dict:
    """Config schema of one experiment kind, with the defaults of its keys."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {"kind": {"type": "string"}, "seed": _prop(0, type="integer"), **props},
        "required": ["seed"],
        "additionalProperties": False,
    }


_FIELD = _prop("scalar-half", type="string", enum=sorted(FIELDS))
_DEGREE = _prop(3, type="integer", minimum=1)

CONFIG_SCHEMAS = {
    "exponential": _schema(**_grid(1.0, 256, 4000), field=_FIELD),
    "reverse-holder": _schema(
        **_grid(1.0, 32, 40000), field=_FIELD,
        p=_prop(2.0, type="number", minimum=1),
        method=_prop("regression", type="string", enum=["regression", "nested"]),
        degree=_DEGREE,
        inner_paths=_prop(512, type="integer", minimum=8)),
    "linear": _schema(
        **_grid(1.0, 32, 16000),
        instance=_prop("triangular-3d", type="string", enum=sorted(LINEAR_FIELDS)),
        method=_prop("auto", type="string",
                     enum=["auto", "regression", "representation",
                           "lower_triangular", "right_outer", "left_outer"]),
        degree=_DEGREE,
        q=_prop("inf", anyOf=[{"type": "number", "minimum": 1}, {"const": "inf"}]),
        perturbation=_prop(type="object",
                           properties={"scale": {"type": "number"},
                                       "alpha": {"type": "number"}},
                           additionalProperties=False)),
    "quadratic": _schema(
        **_grid(1.0, 48, 16000),
        driver=_prop("cole-hopf-1d", type="string",
                     enum=sorted(QUADRATIC_DRIVERS) + ["custom"]),
        degree=_DEGREE,
        init=_prop("mean", type="string", enum=["mean", "zero"]),
        custom=_prop(
            type="object",
            properties={
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
            required=["class", "n", "d"],
            additionalProperties=False)),
    "counterexample": _schema(
        **_grid(8.0, 800, 20000),
        which=_prop("exit-time", type="string",
                    enum=["emery", "exit-time", "nonexistence"]),
        b=_prop(float(np.pi / 3), type="number"),
        levels=_prop(type="array", items={"type": "number"}),
        dt=_prop(1e-4, type="number", exclusiveMinimum=0),
        j_max=_prop(4, type="integer", minimum=1),
        paths_per_level=_prop(5000, type="integer", minimum=8),
        effective_horizon=_prop(48.0, type="number", exclusiveMinimum=0)),
    "oracle": _schema(
        which=_prop("bsde", type="string", enum=["bsde", "duality", "rp"]),
        instances=_prop(25, type="integer", minimum=1)),
    "equivalence-suite": _schema(
        p=_prop(2.0, type="number", minimum=1),
        depths=_prop([2, 3, 4, 5], type="array", items={"type": "integer"})),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def schema_errors(schema: dict, value, path: str = "") -> list[str]:
    """Messages "<key path>: <reason>" for every way `value` breaks `schema`.

    Covers the JSON Schema subset the schemas in this module use (type,
    minimum, exclusiveMinimum, enum, const, anyOf, items, properties,
    required, additionalProperties), with the 2020-12 meaning: integers may
    be written as 2.0, booleans are not numbers, and numeric bounds, items
    and object keywords apply only to values of their own type.
    """
    where = path or "<root>"
    if "type" in schema and not _TYPES[schema["type"]](value):
        return [f"{where}: {value!r} is not of type {schema['type']!r}"]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: {value!r} is not one of {schema['enum']}")
    if "const" in schema and value != schema["const"]:
        errors.append(f"{where}: {value!r} is not {schema['const']!r}")
    if "anyOf" in schema and all(schema_errors(sub, value, path) for sub in schema["anyOf"]):
        errors.append(f"{where}: {value!r} is not valid under any of the given schemas")
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{where}: {value!r} is less than the minimum {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(f"{where}: {value!r} is not greater than {schema['exclusiveMinimum']!r}")
    prefix = f"{path}/" if path else ""
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += schema_errors(schema["items"], item, f"{prefix}{i}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        errors += [f"{where}: missing required key {key!r}"
                   for key in schema.get("required", ()) if key not in value]
        for key, item in value.items():
            if key in props:
                errors += schema_errors(props[key], item, f"{prefix}{key}")
            elif schema.get("additionalProperties") is False:
                errors.append(f"{where}: unknown key {key!r}")
    return errors


def _float_keys(obj, path: str, bad) -> list[str]:
    """Key paths of the floats x in a results or config tree with bad(x)."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (dict, list, tuple)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for key, value in items
                for p in _float_keys(value, f"{path}/{key}" if path else str(key), bad)]
    return [path] if isinstance(obj, (float, np.floating)) and bad(obj) else []


def load_config(path: str | None, kind: str, overrides: dict | None = None) -> dict:
    """The config of one run: the schema defaults of `kind`, updated by the
    JSON object in the file at `path`, then by `overrides` (the command-line
    flags), then validated."""
    raw = {}
    if path:
        try:
            raw = json.loads(re.sub(r"^\s*//.*$", "", Path(path).read_text(),
                                    flags=re.MULTILINE))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object, "
                                     f"not {type(raw).__name__}")
        # json reads the literals NaN and Infinity, which no key accepts
        bad = _float_keys(raw, "", lambda x: not np.isfinite(x))
        if bad:
            raise ConfigurationError(f"config file {path}: NaN or Infinity at "
                                     f"{', '.join(bad)}; every number must be finite")
    props = CONFIG_SCHEMAS[kind]["properties"]
    cfg = copy.deepcopy({key: prop["default"] for key, prop in props.items()
                         if "default" in prop})
    cfg.update(raw)
    cfg.update(overrides or {})
    cfg["kind"] = kind
    errors = schema_errors(CONFIG_SCHEMAS[kind], cfg)
    if errors:
        raise ConfigurationError(f"invalid config for {kind}: {'; '.join(errors)}")
    return cfg


# The layout of every summary.json that write_outputs writes.
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


class NanResultError(RuntimeError):
    """A NaN among the results of a run, which would reach summary.json."""


def write_outputs(out_dir: Path, cfg: dict, results: dict, tables: dict) -> None:
    """Write the tables and summary.json; a NaN in `results` is refused with
    NanResultError before any file is written (an infinity is allowed)."""
    nan = _float_keys(results, "results", np.isnan)
    if nan:
        raise NanResultError(f"NaN result at {', '.join(nan)}; nothing written")
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
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))


_EXPR_NAMES = {"np": np, "pi": np.pi, "abs": np.abs, "tanh": np.tanh,
               "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _compile_expr(expr: str, argnames: tuple):
    """Restricted numpy expression: names limited to arguments and _EXPR_NAMES."""
    try:
        code = compile(expr, "<config>", "eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"config expression {expr!r} is not valid: {exc.msg}") from None
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in argnames:
            raise ConfigurationError(f"name {name!r} not allowed in config expression")

    def fn(*args):
        scope = dict(_EXPR_NAMES)
        scope.update(zip(argnames, args))
        return eval(code, {"__builtins__": {}}, scope)

    return fn


def _on_zeros(key: str, expr: str, fn, args: tuple):
    """fn(*args) on zero inputs, refusing the expression `expr` of config key
    `key` if that raises."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except Exception as exc:   # any error of the expression itself
        raise ConfigurationError(f"{key}: {expr!r} fails on zero inputs: {exc}") from None


def _probe(key: str, expr: str, fn, args: tuple, target: tuple) -> None:
    """Refuse the expression `expr` of config key `key` unless its value on
    the zero inputs `args` broadcasts to the shape `target` unchanged."""
    shape = np.shape(_on_zeros(key, expr, fn, args))
    if len(shape) > len(target) or any(a not in (1, b) for a, b in zip(shape[::-1], target[::-1])):
        raise ConfigurationError(f"{key}: {expr!r} has shape {shape} on zero inputs, "
                                 f"which does not broadcast to {target}")


def build_custom_driver(custom: dict, steps: int):
    """Driver (and terminal) from config expressions, for a grid of `steps` steps.

    Expressions see y (M, n), z (M, n, d), t, x (M, d) for the driver parts
    and b (M, K+1, d) Brownian states for the terminal.  Before any path is
    simulated, h must give one value per path (or a constant) and g an array
    that adds to the (M, n) z-part as (M, n), probed on zero inputs, and the
    terminal must run on zero Brownian states.  The terminal gives a row per
    path or a constant, broadcast to (M, n).
    """
    from .quadratic import QuadraticLinearDriver, UnidirectionalDriver
    n, d = custom["n"], custom["d"]
    lip = custom.get("lipschitz", 1.0)
    m = n + 1   # probe paths: a per-path value never passes for an n-vector
    zeros = (0.0, np.zeros((m, d)), np.zeros((m, n)), np.zeros((m, n, d)))
    g = None
    if custom.get("g_expr"):
        g_fn = _compile_expr(custom["g_expr"], ("t", "x", "y", "z"))
        _probe("custom/g_expr", custom["g_expr"], g_fn, zeros, (m, n))
        g = lambda t, x, y, z: np.asarray(g_fn(t, x, y, z), dtype=float)
    if custom["class"] == "ql":
        drv = QuadraticLinearDriver(n, d, g, custom.get("b", [0.0] * n), lip,
                                    name="custom")
    else:
        h_expr = custom.get("h_expr", "0.0 * z[:, 0, 0]")
        h_fn = _compile_expr(h_expr, ("z",))
        _probe("custom/h_expr", h_expr, h_fn, zeros[3:], (m,))
        drv = UnidirectionalDriver(n, d, g, custom.get("a", [1.0] + [0.0] * (n - 1)),
                                   lambda z: np.asarray(h_fn(z), dtype=float),
                                   lip, name="custom")
    term_expr = custom.get("terminal_expr", "tanh(b[:, -1, :1]) + 0 * b[:, -1, :1]")
    t_fn = _compile_expr(term_expr, ("b",))

    def terminal(paths):
        out = np.asarray(t_fn(paths.states), dtype=float)
        if out.ndim:   # a constant broadcasts as it stands
            out = out.reshape(paths.paths, -1)
        return np.broadcast_to(out, (paths.paths, n)).copy()

    _on_zeros("custom/terminal_expr", term_expr, terminal,
              (SimpleNamespace(paths=m, states=np.zeros((m, steps + 1, d))),))
    return drv, terminal


# ---------------------------------------------------------------------------
# experiment runners


def _paths(cfg: dict, d: int, threads: int):
    """The config's time grid and its M d-dimensional Brownian paths."""
    grid = TimeGrid(cfg["T"], cfg["K"])
    return grid, generate_brownian(grid, d, cfg["M"], cfg["seed"], threads=threads)


def run_exponential(cfg: dict, out: Path, threads: int) -> int:
    fld = FIELDS[cfg["field"]]()
    grid, paths = _paths(cfg, fld.d, threads)
    # the defect and the residual are measured inside the Euler pass: no S is kept
    expo = simulate_exponential(fld, paths, reads=("defect", "residual"))
    defect = martingale_defect(expo)
    resid = expo.inverse_residual_profile()
    results = {
        "max_defect": float(defect.defect.max()),
        "max_inverse_residual_mean": float(resid.max()),
        "bad_paths": int(expo.bad_paths.sum()),
    }
    tables = {
        "defect_profile": defect.table(grid),
        "inverse_residual": ("t,mean_residual", np.column_stack([grid.nodes, resid])),
    }
    write_outputs(out, cfg, results, tables)
    return 0


def run_reverse_holder(cfg: dict, out: Path, threads: int) -> int:
    fld = FIELDS[cfg["field"]]()
    if cfg["method"] == "nested" and not fld.markovian:
        raise ConfigurationError(f"method 'nested' needs a Markovian field; field "
                                 f"{cfg['field']!r} is path-dependent, use 'regression'")
    grid, paths = _paths(cfg, fld.d, threads)
    # The regression estimator reads S_t^{-1} S_T; the nested one restarts
    # its own inner paths and reads no S of the outer ones.
    expo = simulate_exponential(fld, paths, reads=(
        ("s_inv", "s_terminal") if cfg["method"] == "regression" else ()))
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


def _solution_table(sol, grid: TimeGrid, *extra) -> tuple:
    """solution.csv of a solve: t, the path means of Y and of Z (NaN at T),
    then one column per (name, values) pair of `extra`."""
    _, ksteps, n, d = sol.z.shape
    zmean = np.concatenate([sol.z.mean(axis=0).reshape(ksteps, n * d),
                            np.full((1, n * d), np.nan)])
    header = ",".join(["t"] + [f"Y{i}" for i in range(n)]
                      + [f"Z{i}_{e}" for i in range(n) for e in range(d)]
                      + [name for name, _ in extra])
    return header, np.column_stack([grid.nodes, sol.y.mean(axis=0), zmean,
                                    *(values for _, values in extra)])


def run_linear(cfg: dict, out: Path, threads: int) -> int:
    fld = LINEAR_FIELDS[cfg["instance"]]()
    grid, paths = _paths(cfg, fld.d, threads)
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
    norms = sol.norm_report(float(cfg["q"]))
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
    resid = np.full(grid.steps + 1, sol.diagnostics["moment_residual"])
    write_outputs(out, cfg, results,
                  {"solution": _solution_table(sol, grid, ("residual", resid))})
    return 0


def run_quadratic(cfg: dict, out: Path, threads: int) -> int:
    if cfg["driver"] == "custom":
        if "custom" not in cfg:
            raise ConfigurationError("driver 'custom' needs a 'custom' block")
        drv, term = build_custom_driver(cfg["custom"], cfg["K"])
    else:
        drv = QUADRATIC_DRIVERS[cfg["driver"]]()
        term = quadratic_terminal(cfg["driver"])
    grid, paths = _paths(cfg, drv.d, threads)
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
    write_outputs(out, cfg, results, {"solution": _solution_table(sol, grid)})
    return 0


# `counterexample emery` takes its defect profile on the first min(M, this)
# grid paths, its horizon statistics on all M walk paths; summary.json has M.
EMERY_GRID_PATHS = 4000


def run_counterexample(cfg: dict, out: Path, threads: int) -> int:
    which = cfg["which"]
    if which == "exit-time":
        levels = [float(b) for b in cfg.get("levels") or [cfg["b"]]]
        check_exit_walks(levels, cfg["M"], cfg["dt"])
        rows = []
        results = {"levels": []}
        for i, b in enumerate(levels):
            r = exit_time_exponential(b, cfg["M"], cfg["dt"], seed=cfg["seed"] + 13 * i,
                                      threads=threads)
            rel = abs(r.estimate / r.exact - 1.0)
            rows.append([b, r.estimate, r.std_error, r.exact, rel])
            results["levels"].append({
                "b": b, "estimate": r.estimate, "std_error": r.std_error,
                "exact": r.exact, "relative_error": rel,
                "heavy_tail_warning": r.heavy_tail_warning,
                "truncated_paths": r.truncated_paths})
        tables = {"exit_time": ("b,estimate,std_error,exact,relative_error", rows)}
    elif which == "emery":
        check_emery_walk(cfg["M"], cfg["effective_horizon"])
        grid, paths = _paths({**cfg, "M": min(cfg["M"], EMERY_GRID_PATHS)}, 1, threads)
        defect = emery_defect_profile(paths)
        horizon = emery_defect_at_horizon(cfg["M"], cfg["effective_horizon"],
                                          seed=cfg["seed"] + 1, threads=threads)
        curve = truncation_curve(horizon["terminal_opnorm_samples"])
        results = {
            "diag_defect_at_horizon": horizon["diag_defect"],
            "significance_vs_half": horizon["significance_vs_half"],
            "survivors_at_horizon": horizon["survivors"],
            "moment_divergence_flag": curve["diverging"],
        }
        tables = {
            "defect_profile": defect.table(grid),
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


_ORACLE_HEADERS = {"bsde": "instance,steps,d,n,identity_error",
                   "duality": "instance,p,level,lhs,rhs,gap",
                   "rp": "instance,p,rp,expected"}


def run_oracle(cfg: dict, out: Path, threads: int) -> int:
    """Exact tree identities on random trees: the linear BSDE solve against
    its representation (bsde), the duality lemma (duality), or R_2 after the
    hand example R_2 = 1.25, skipping singular exponentials (rp)."""
    rng = np.random.default_rng(cfg["seed"])
    which = cfg["which"]
    rows, mono_ok = [], True
    if which == "rp":
        filt = tr.FiniteFiltration(1, 1, 0.25)
        s = tr.discrete_exponential(filt, [np.full((1, 1, 1, 1), 1.0)])
        rows.append([0, 2.0, tr.discrete_reverse_holder(filt, s, 2.0)["rp"], 1.25])
    for i in range(cfg["instances"]):
        filt, a_nodes, beta, xi = _random_tree(rng)
        if which == "bsde":
            y, _ = tr.discrete_linear_bsde_solve(filt, xi, beta, a_nodes)
            y_rep = tr.representation_solution(filt, a_nodes, xi, beta)
            err = max(float(np.abs(y[k] - y_rep[k]).max())
                      for k in range(filt.steps + 1))
            rows.append([i, filt.steps, filt.d, xi.shape[1], err])
        elif which == "duality":
            level = int(rng.integers(0, filt.steps))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            res = tr.verify_duality_lemma(filt, xi, level, p, rng=rng)
            rows.append([i, p, level, res["lhs"], res["rhs"], res["gap"]])
        else:
            s = tr.discrete_exponential(filt, a_nodes)
            if s.singular:
                continue
            rps = [tr.discrete_reverse_holder(filt, s, p)["rp"]
                   for p in (1.0, 1.5, 2.0, 3.0)]
            mono_ok &= all(rps[j] <= rps[j + 1] + 1e-12 for j in range(3))
            rows.append([i + 1, 2.0, rps[2], np.nan])
    if which == "rp":
        results = {"hand_example_r2": rows[0][2], "monotone_in_p": bool(mono_ok)}
    else:
        key, col = ("worst_identity_error", 4) if which == "bsde" else ("worst_gap", 5)
        results = {key: max([0.0] + [abs(row[col]) for row in rows]),
                   "instances": cfg["instances"]}
    write_outputs(out, cfg, results, {f"oracle_{which}": (_ORACLE_HEADERS[which], rows)})
    return 0


def run_equivalence_suite(cfg: dict, out: Path, threads: int) -> int:
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


_STRUCTURE_TO_INSTANCE = {
    "generic": "scalar-half",
    "triangular": "triangular-3d",
    "left-outer": "left-outer-3d",
    "right-outer": "right-outer-3d",
}


def _q_value(text: str):
    """The --q flag's text as a config value: "inf" or a number >= 1."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not value >= 1.0:
        raise ConfigurationError(f"q must be a number >= 1 or 'inf', got {text!r}")
    return "inf" if value == np.inf else value


# The config value of a flag whose text is not that value itself, by config key.
_FLAG_VALUE = {"instance": _STRUCTURE_TO_INSTANCE.__getitem__, "q": _q_value}


def _thread_count(text: str) -> int:
    """A thread count: an integer of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsde-lab",
        description="stochastic exponential / BSDE numerical laboratory")
    try:
        threads = _thread_count(os.environ.get("BSDE_LAB_THREADS", "1"))
    except argparse.ArgumentTypeError as exc:
        ap.error(f"BSDE_LAB_THREADS {exc}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (kind, _) in RUNNERS.items():
        sp = sub.add_parser(name)
        props = CONFIG_SCHEMAS[kind]["properties"]
        if "which" in props:
            sp.add_argument("which", choices=props["which"]["enum"], nargs="?")
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=_thread_count, default=threads)
        sp.add_argument("--out", default="out")
        if name == "solve-linear":   # each flag's dest is the config key it sets
            sp.add_argument("--structure", dest="instance",
                            choices=list(_STRUCTURE_TO_INSTANCE))
            sp.add_argument("--method", choices=props["method"]["enum"])
            sp.add_argument("--q")
            sp.add_argument("--perturbation", action="store_const",
                            const={"scale": 0.05, "alpha": 0.1})
    lp = sub.add_parser("list")
    lp.add_argument("--kind", default=None)
    dp = sub.add_parser("describe")
    dp.add_argument("name")
    return ap


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
        # every flag named after a config key sets it; an unset flag is None
        flags = {key: _FLAG_VALUE.get(key, lambda v: v)(value)
                 for key, value in vars(args).items()
                 if value is not None and key in CONFIG_SCHEMAS[kind]["properties"]}
        cfg = load_config(args.config, kind, flags)
        return runner(cfg, Path(args.out), threads=args.threads)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # numerical failure surfaced with module context
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
