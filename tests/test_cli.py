import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import bsde_lab
from bsde_lab.cli import CONFIG_SCHEMAS, SUMMARY_SCHEMA, load_config, main, schema_errors
from bsde_lab.grids import ConfigurationError


def run(args):
    return main([str(a) for a in args])


def test_list_contains_registry_names(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("emery", "nonexistence", "cole-hopf-1d", "triangular-3d"):
        assert name in out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all({"name", "kind", "description"} <= set(row) for row in lines)


def test_describe_emery_prints_closed_form_parameters(capsys):
    assert run(["describe", "emery"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"]["level"] == pytest.approx(np.pi / 2)
    assert "exp((tau^t)/2)" in payload["description"]


def test_describe_unknown_suggests(capsys):
    assert run(["describe", "cole-hopf"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": 1, "wat": 2}')
    with pytest.raises(ConfigurationError, match="wat"):
        load_config(str(cfg), "exponential")


def test_linear_config_rejects_structure_key(tmp_path):
    # the solver follows the instance's field; --structure picks the instance
    cfg = tmp_path / "structure.json"
    cfg.write_text('{"seed": 1, "structure": "triangular"}')
    with pytest.raises(ConfigurationError, match="structure"):
        load_config(str(cfg), "linear")


def _loaded_by_import(*packages: str) -> str:
    """Modules of `packages` that `import bsde_lab, bsde_lab.cli` loads, as printed."""
    src = Path(bsde_lab.__file__).resolve().parents[1]
    code = ("import sys, bsde_lab, bsde_lab.cli; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {packages!r}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return done.stdout.strip()


def test_import_does_not_load_scipy():
    # scipy.optimize costs about half a second of start-up and only
    # quadratic.positively_spans uses it
    assert _loaded_by_import("scipy") == "[]"


def test_import_does_not_load_numpy_random():
    # numpy imports numpy.random on first use; naming it at import time, even
    # in a default argument, adds about 10 ms to the start of every run
    assert "'numpy.random'" not in _loaded_by_import("numpy")


def test_import_loads_no_jsonschema_or_thread_pool():
    # the config validator is cli.schema_errors; the thread pool is imported
    # only when generate_brownian runs with threads > 1
    assert _loaded_by_import("jsonschema", "concurrent") == "[]"


_LEAVES = (st.none() | st.booleans() | st.integers(-3, 10) | st.floats(-3.0, 10.0)
           | st.floats() | st.text(max_size=4)
           | st.sampled_from(["inf", "-inf", "mean", "nested", "ql", "emery", "bsde"]))
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["class", "n", "d", "scale"]) | st.text(max_size=3), kids, max_size=4),
    max_leaves=8)
_BLOCK_VALUES = (st.integers(0, 3) | st.sampled_from(["ql", "unidirectional", "x**2"])
                 | st.lists(st.floats(-1.0, 1.0) | _LEAVES, max_size=3) | _LEAVES)


def _object_block(props: dict):
    """A dict for one of the object-valued config keys: known keys, maybe a stray one."""
    keys = st.sampled_from(sorted(props) + ["wat"])
    return st.dictionaries(keys, _BLOCK_VALUES, max_size=len(props) + 1)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(CONFIG_SCHEMAS)),
       how=st.sampled_from(["valid", "type", "minimum", "unknown", "enum", "q",
                            "items", "nested", "drop", "any"]),
       data=st.data())
def test_schema_errors_agree_with_jsonschema(kind, how, data):
    from jsonschema import Draft202012Validator
    schema = CONFIG_SCHEMAS[kind]
    props = schema["properties"]
    cfg = load_config(None, kind)
    pick = lambda keys: data.draw(st.sampled_from(sorted(keys)))
    bounded = [k for k, v in props.items() if {"minimum", "exclusiveMinimum"} & set(v)]
    enums = [k for k, v in props.items() if "enum" in v]
    blocks = [k for k, v in props.items() if v.get("type") == "object"]
    arrays = [k for k, v in props.items() if v.get("type") == "array"]
    if how == "type":
        cfg[pick(props)] = data.draw(st.none() | st.booleans() | st.text(max_size=3)
                                     | st.lists(st.integers(), max_size=2)
                                     | st.dictionaries(st.text(max_size=2), st.integers(),
                                                       max_size=2))
    elif how == "minimum" and bounded:
        key = pick(bounded)
        bound = props[key].get("minimum", props[key].get("exclusiveMinimum"))
        cfg[key] = data.draw(st.sampled_from([bound - 1, bound - 0.5, bound, float(bound),
                                              bound + 0.5, bound + 1, float(bound + 2)]))
    elif how == "unknown":
        cfg[data.draw(st.text(min_size=1, max_size=5).filter(lambda k: k not in props))] = 1
    elif how == "enum" and enums:
        cfg[pick(enums)] = data.draw(st.text(max_size=8) | st.sampled_from(
            ["mean", "nested", "regression", "emery", "ql", "duality"]))
    elif how == "q":
        cfg["q"] = data.draw(_LEAVES | st.sampled_from(["inf", "INF", "Infinity", 1, 1.0, 0.99]))
    elif how == "items" and arrays:
        cfg[pick(arrays)] = data.draw(st.lists(st.integers(0, 9) | st.floats(0.1, 1.5)
                                               | _LEAVES, max_size=4))
    elif how == "nested" and blocks:
        key = pick(blocks)
        cfg[key] = data.draw(_object_block(props[key]["properties"]))
    elif how == "drop":
        del cfg[pick(cfg)]
    elif how == "any":
        for key in data.draw(st.lists(st.sampled_from(sorted(props)) | st.text(max_size=3),
                                      max_size=3)):
            cfg[key] = data.draw(_JSON_VALUES)
    accepted = Draft202012Validator(schema).is_valid(cfg)
    event(f"{how}: {'accepted' if accepted else 'rejected'}")
    assert (schema_errors(schema, cfg) == []) == accepted


def test_schema_errors_name_each_broken_key():
    cfg = {"kind": "quadratic", "seed": 1, "degree": 0, "M": True, "wat": 2,
           "custom": {"class": "ql", "n": 1, "b": [0.5, "x"]}}
    errors = schema_errors(CONFIG_SCHEMAS["quadratic"], cfg)
    assert errors == ["degree: 0 is less than the minimum 1",
                      "M: True is not of type 'integer'",
                      "<root>: unknown key 'wat'",
                      "custom: missing required key 'd'",
                      "custom/b/1: 'x' is not of type 'number'"]
    assert schema_errors(SUMMARY_SCHEMA, {"config": {}, "config_hash": "",
                                          "version": "0", "results": {}}) == []


def test_config_comments_and_seed_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('// comment line\n{"seed": 5, "M": 100, "K": 8}')
    loaded = load_config(str(cfg), "exponential", {"seed": 9})
    assert loaded["seed"] == 9 and loaded["M"] == 100


def test_schemas_reject_bad_types(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": 1, "p": 0.5}')
    with pytest.raises(ConfigurationError, match=r"\bp: "):
        load_config(str(cfg), "reverse-holder")
    # direct check: p below 1 fails the schema
    import jsonschema
    bad = dict(seed=1, p=0.5)
    bad["kind"] = "reverse-holder"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, CONFIG_SCHEMAS["reverse-holder"])


@pytest.mark.parametrize("q", ['"abc"', "0.5", "0"])
def test_linear_config_rejects_bad_q(tmp_path, q):
    cfg = tmp_path / "bad_q.json"
    cfg.write_text(f'{{"seed": 1, "M": 200, "K": 4, "q": {q}}}')
    with pytest.raises(ConfigurationError, match=r"\bq: "):
        load_config(str(cfg), "linear")
    # refused before any path is simulated, with the configuration exit code
    out = tmp_path / "never"
    assert run(["solve-linear", "--config", cfg, "--out", out]) == 2
    assert not out.exists()


# The kinds that simulate paths on a time grid, the only ones with T, K and M.
_GRID_KINDS = ["counterexample", "exponential", "linear", "quadratic", "reverse-holder"]


@pytest.mark.parametrize("kind", _GRID_KINDS)
def test_single_path_config_refused(tmp_path, kind):
    # Every standard error divides by M - 1, so M = 1 is refused up front.
    cfg = tmp_path / "one_path.json"
    cfg.write_text('{"seed": 1, "M": 1}')
    with pytest.raises(ConfigurationError, match="M: 1 is less than the minimum 2"):
        load_config(str(cfg), kind)
    cfg.write_text('{"seed": 1, "M": 2}')
    load_config(str(cfg), kind)


def test_single_path_run_writes_nothing(tmp_path):
    cfg = tmp_path / "one_path.json"
    cfg.write_text('{"seed": 1, "M": 1, "K": 4}')
    out = tmp_path / "never"
    assert run(["simulate-exponential", "--config", cfg, "--out", out]) == 2
    assert not out.exists()


# Every kind's defaults, written out apart from the schemas that state them.
_KIND_DEFAULTS = {
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


@pytest.mark.parametrize("kind", sorted(CONFIG_SCHEMAS))
def test_schema_defaults_are_the_config_defaults(kind):
    assert sorted(_KIND_DEFAULTS) == sorted(CONFIG_SCHEMAS)
    assert load_config(None, kind) == {**_KIND_DEFAULTS[kind], "seed": 0, "kind": kind}


def test_loaded_config_does_not_share_defaults():
    load_config(None, "equivalence-suite")["depths"].append(9)
    assert load_config(None, "equivalence-suite")["depths"] == [2, 3, 4, 5]


def test_which_choices_are_the_schema_enum():
    from bsde_lab.cli import RUNNERS, build_parser
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, (kind, _) in RUNNERS.items():
        which = [a.choices for a in commands[name]._actions if a.dest == "which"]
        enum = CONFIG_SCHEMAS[kind]["properties"].get("which", {}).get("enum")
        assert which == ([enum] if enum else [])


def test_every_instance_has_a_terminal():
    from bsde_lab.brownian import generate_brownian
    from bsde_lab.grids import TimeGrid
    from bsde_lab.instances import (LINEAR_FIELDS, QUADRATIC_DRIVERS, linear_terminal,
                                    quadratic_terminal)
    paths = generate_brownian(TimeGrid(1.0, 4), 1, 5, seed=1)
    for table, terminal in ((LINEAR_FIELDS, linear_terminal),
                            (QUADRATIC_DRIVERS, quadratic_terminal)):
        for name, build in table.items():
            xi = np.asarray(terminal(name)(paths))
            assert xi.shape == (5, build().n), name
    with pytest.raises(ConfigurationError, match="no terminal"):
        linear_terminal("cole-hopf-1d")
    with pytest.raises(ConfigurationError, match="no terminal"):
        quadratic_terminal("emery")


@pytest.mark.parametrize("command,body,named", [
    ("counterexample", '{"which": "emery", "M": 50, "effective_horizon": -1}',
     "effective_horizon"),
    # its horizon walk would draw about 2.5e11 normals
    ("counterexample", '{"which": "emery", "M": 1000000000}', "M = 1000000000"),
    ("simulate-exponential", "[1, 2]", "bad.json"),
    ("simulate-exponential", '{"M": 50,', "bad.json"),
    ("simulate-exponential", None, "bad.json"),
    ("solve-quadratic", '{"M": 50, "K": 4, "driver": "custom", "custom": '
                        '{"class": "ql", "n": 1, "d": 1, "g_expr": "y +"}}', "'y +'"),
    ("estimate-rp", '{"M": 50, "K": 4, "field": "emery", "method": "nested"}', "nested"),
    ("oracle", '{"instances": 2, "T": 1.0}', "unknown key 'T'"),
    ("oracle", '{"instances": 2, "K": 4}', "unknown key 'K'"),
    ("equivalence-suite", '{"depths": [2], "M": 50}', "unknown key 'M'"),
    ("solve-quadratic", '{"M": 50, "K": 4, "driver": "custom", "custom": {"class": '
                        '"unidirectional", "n": 2, "d": 1, "h_expr": "z"}}', "custom/h_expr"),
    ("solve-quadratic", '{"M": 50, "K": 4, "driver": "custom", "custom": '
                        '{"class": "ql", "n": 2, "d": 1, "g_expr": "y[:, 0]"}}', "custom/g_expr"),
    ("solve-quadratic", '{"M": 50, "K": 4, "driver": "custom", "custom": '
                        '{"class": "ql", "n": 1, "d": 1, "g_expr": "y[:, 0]"}}', "custom/g_expr"),
    ("solve-quadratic", '{"M": 50, "K": 4, "driver": "custom", "custom": {"class": "ql", '
                        '"n": 2, "d": 1, "terminal_expr": "b[0, -1, :]"}}',
     "custom/terminal_expr"),
], ids=["negative-horizon", "emery-over-work-limit", "array-file", "unparsable-file",
        "missing-file", "bad-expression", "nested-emery", "oracle-T", "oracle-K", "equivalence-M",
        "h-not-per-path", "g-per-path-n2", "g-per-path-n1", "terminal-not-per-path"])
def test_bad_config_refused_before_any_output(tmp_path, capsys, monkeypatch, command, body,
                                              named):
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the config was refused")

    monkeypatch.setattr(bsde_lab.cli, "generate_brownian", no_paths)
    cfg = tmp_path / "bad.json"
    if body is not None:
        cfg.write_text(body)
    out = tmp_path / "never"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_constant_terminal_expr_runs(tmp_path):
    cfg = tmp_path / "const.json"
    cfg.write_text('{"M": 50, "K": 4, "driver": "custom", "custom": {"class": "ql", '
                   '"n": 2, "d": 1, "terminal_expr": "0.5"}}')
    out = tmp_path / "const"
    assert run(["solve-quadratic", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[-1, 1:3], [0.5, 0.5])   # Y_T, both components


@pytest.mark.parametrize("command,body,named", [
    ("simulate-exponential", '{"M": 50, "K": 4, "T": NaN}', "at T;"),
    ("counterexample", '{"levels": [0.5, -Infinity], "M": 50}', "at levels/1;"),
    ("solve-quadratic", '{"M": 50, "K": 4, "driver": "custom", "custom": {"class": "ql", '
                        '"n": 1, "d": 1, "lipschitz": Infinity}}', "at custom/lipschitz;"),
], ids=["nan-T", "infinite-level", "infinite-lipschitz"])
def test_non_finite_json_literal_refused(tmp_path, capsys, command, body, named):
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(body)
    out = tmp_path / "never"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body,named", [
    ('{"levels": [0.5, 2.0], "M": 50, "dt": 1e-3}', ["exit level 2.0"]),
    ('{"b": 1.0, "M": 100000, "dt": 1e-6}', ["dt = 1e-06", "M = 100000"]),
], ids=["bad-second-level", "over-work-limit"])
def test_exit_time_config_refused_before_any_walk(tmp_path, capsys, monkeypatch, body,
                                                  named):
    def no_walk(*args, **kwargs):
        raise AssertionError("an exit walk ran before the config was refused")

    monkeypatch.setattr(bsde_lab.cli, "exit_time_exponential", no_walk)
    cfg = tmp_path / "bad.json"
    cfg.write_text(body)
    out = tmp_path / "never"
    assert run(["counterexample", "exit-time", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named)
    assert not out.exists()


@pytest.mark.parametrize("which,body", [
    ("exit-time", {"M": 5000, "dt": 1e-3, "b": 1.0}),
    ("emery", {"M": 5000, "T": 1.0, "K": 40, "effective_horizon": 2.0}),
])
def test_counterexample_outputs_identical_across_threads(tmp_path, which, body):
    # 5000 paths are three walk blocks; at horizon 2 some Emery paths survive
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**body, "seed": 6}))
    outs = [tmp_path / f"t{t}" for t in (1, 2, 4)]
    for t, out in zip((1, 2, 4), outs):
        assert run(["counterexample", which, "--config", cfg, "--out", out,
                    "--threads", t]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()
    if which == "emery":
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert 0 < summary["results"]["survivors_at_horizon"] < 5000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,body,named", [
    ("estimate-rp", '{"M": 200, "K": 8, "p": 1e6}', "results/rp_estimate"),
    ("solve-linear", '{"M": 200, "K": 8, "T": 1e6}', "results/y0_mean/1"),
], ids=["rp-huge-p", "linear-huge-T"])
def test_nan_result_refused_before_any_output(tmp_path, capsys, command, body, named):
    cfg = tmp_path / "nan.json"
    cfg.write_text(body)
    out = tmp_path / "never"
    assert run([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "NanResultError" in err and named in err
    assert not out.exists()


def test_infinite_result_is_written(tmp_path):
    from bsde_lab.cli import write_outputs
    write_outputs(tmp_path, {"kind": "oracle", "seed": 0}, {"significance": np.inf}, {})
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["results"] == {"significance": "inf"}


@pytest.mark.parametrize("q", ['"inf"', "1", "2.5"])
def test_linear_config_accepts_q(tmp_path, q):
    cfg = tmp_path / "q.json"
    cfg.write_text(f'{{"seed": 1, "q": {q}}}')
    assert load_config(str(cfg), "linear")["q"] == json.loads(q)


def test_linear_q_flag_refused_up_front(tmp_path, capsys):
    out = tmp_path / "never"
    for bad in ("abc", "0.5", "nan"):
        assert run(["solve-linear", "--q", bad, "--out", out]) == 2
        assert "q must be" in capsys.readouterr().err
    assert not out.exists()


def golden_case_id(args: list, body: dict, threads: int) -> str:
    # a field or method chosen in the config body is named, as no flag sets it
    chosen = [f"{key}={body[key]}" for key in ("field", "method") if key in body]
    return " ".join(args + chosen + (["--threads", str(threads)] if threads > 1 else []))


_SMALL_GRID = {"T": 1.0, "K": 8, "M": 300}
# Every command, every solve-linear flag, the emery field and every oracle:
# arguments and config file body.
_RERUN_CASES = [
    (["simulate-exponential"], _SMALL_GRID),
    (["simulate-exponential"], {**_SMALL_GRID, "field": "emery"}),
    (["estimate-rp"], _SMALL_GRID),
    (["estimate-rp"], {**_SMALL_GRID, "field": "emery"}),
    (["estimate-rp"], {**_SMALL_GRID, "method": "nested", "inner_paths": 16}),
    (["solve-linear"], _SMALL_GRID),
    (["solve-linear", "--structure", "left-outer"], _SMALL_GRID),
    (["solve-linear", "--structure", "right-outer"], _SMALL_GRID),
    (["solve-linear", "--method", "regression"], _SMALL_GRID),
    (["solve-linear", "--q", "2"], _SMALL_GRID),
    (["solve-linear", "--q", "inf"], _SMALL_GRID),
    (["solve-linear", "--perturbation"], _SMALL_GRID),
    (["solve-quadratic"], _SMALL_GRID),
    (["counterexample", "exit-time"], {"M": 300, "dt": 1e-3}),
    (["counterexample", "emery"], {"T": 1.0, "K": 16, "M": 300, "effective_horizon": 2.0}),
    (["counterexample", "nonexistence"], {"j_max": 2, "paths_per_level": 50}),
    (["oracle", "bsde"], {"instances": 3}),
    (["oracle", "duality"], {"instances": 3}),
    (["oracle", "rp"], {"instances": 3}),
    (["equivalence-suite"], {"depths": [2, 3]}),
]


@pytest.mark.parametrize("args,body", _RERUN_CASES,
                         ids=[golden_case_id(args, body, 1) for args, body in _RERUN_CASES])
def test_summary_config_reruns_to_identical_bytes(tmp_path, args, body):
    # the config a summary embeds, flags included, re-runs to the same files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(args + ["--config", cfg, "--seed", 3, "--out", first]) == 0
    embedded = json.loads((first / "summary.json").read_text())["config"]
    cfg.write_text(json.dumps(embedded))
    assert run([args[0], "--config", cfg, "--out", again]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in again.iterdir()) == names
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


# The rerun cases at one thread, then two commands whose work splits across
# threads: 20000 paths fill two Brownian blocks, 5000 walk paths three walk
# blocks.  tools/update_goldens.py records every case at one thread, so the
# threaded cases also pin thread invariance.
GOLDEN_CASES = [(args, body, 1) for args, body in _RERUN_CASES] + [
    (["simulate-exponential"], {"T": 1.0, "K": 8, "M": 20000}, 2),
    (["counterexample", "exit-time"], {"M": 5000, "dt": 1e-3}, 2),
]
GOLDEN_MANIFEST = Path(__file__).parent / "data" / "outputs.json"


def golden_environment() -> dict:
    """What the manifest's bits may depend on beyond the package source."""
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def run_golden_case(args: list, body: dict, threads: int, out: Path) -> dict:
    """{artifact name: bytes} of one case run at seed 3 into `out`."""
    cfg = out.parent / f"{out.name}.json"
    cfg.write_text(json.dumps(body))
    assert run(args + ["--config", cfg, "--seed", 3, "--threads", threads, "--out", out]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args,body,threads", GOLDEN_CASES,
                         ids=[golden_case_id(args, body, t) for args, body, t in GOLDEN_CASES])
def test_outputs_match_golden_manifest(tmp_path, args, body, threads):
    # the manifest keeps each artifact's text beside its sha256, so that a
    # mismatch reports the largest relative difference of its numbers
    manifest = json.loads(GOLDEN_MANIFEST.read_text())
    case = golden_case_id(args, body, threads)
    want = manifest["cases"][case]
    got = run_golden_case(args, body, threads, tmp_path / "out")
    failures = []
    for name in sorted(set(want) | set(got)):
        if name not in got or name not in want:
            failures.append(f"{case}/{name}: {'not written' if name in want else 'new'}")
        elif hashlib.sha256(got[name]).hexdigest() != want[name]["sha256"]:
            golden = tmp_path / "golden" / name
            golden.parent.mkdir(exist_ok=True)
            golden.write_text(want[name]["text"])
            verdict = _compare_outputs().compare_file(golden, tmp_path / "out" / name)
            failures.append(f"{case}/{name}: {verdict}")
    if failures and manifest["environment"] != golden_environment():
        failures.append(f"manifest made with {manifest['environment']}, "
                        f"this run has {golden_environment()}")
    assert not failures, "\n".join(failures)


def test_exponential_run_byte_reproducible(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 500, "K": 32, "seed": 4}')
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["simulate-exponential", "--config", cfg, "--out", out1]) == 0
    assert run(["simulate-exponential", "--config", cfg, "--out", out2,
                "--threads", 4]) == 0
    for name in ("summary.json", "defect_profile.csv", "inverse_residual.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert schema_errors(SUMMARY_SCHEMA, summary) == []
    assert summary["version"]
    assert len(summary["config_hash"]) == 64
    assert summary["results"]["max_defect"] < 0.1


def test_seed_changes_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 400, "K": 16}')
    a, b = tmp_path / "s1", tmp_path / "s2"
    run(["simulate-exponential", "--config", cfg, "--out", a, "--seed", 1])
    run(["simulate-exponential", "--config", cfg, "--out", b, "--seed", 2])
    assert (a / "defect_profile.csv").read_bytes() != (b / "defect_profile.csv").read_bytes()


def test_rp_run_zero_field_equivalent(tmp_path):
    # scalar field with tiny horizon behaves like A = 0: Rp ~ 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 3000, "K": 8, "T": 0.01, "seed": 3}')
    out = tmp_path / "rp"
    assert run(["estimate-rp", "--config", cfg, "--out", out]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert abs(res["rp_estimate"] - 1.0) < 0.05
    rows = np.loadtxt(out / "rp_profile.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 3


def test_linear_flags_and_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 2000, "K": 16, "seed": 7}')
    out = tmp_path / "lin"
    assert run(["solve-linear", "--config", cfg, "--out", out,
                "--structure", "right-outer", "--method", "auto"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["solver"] == "right_outer"
    assert summary["config"]["instance"] == "right-outer-3d"
    rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert rows.shape == (17, 1 + 3 + 3 + 1)


def test_quadratic_run_and_escalation_log(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 2000, "K": 16, "seed": 7, "driver": "cole-hopf-1d"}')
    out = tmp_path / "quad"
    assert run(["solve-quadratic", "--config", cfg, "--out", out]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert abs(res["y0_mean"][0] - 0.5) < 0.05
    assert res["escalation_log"][-1]["accepted"]


def test_counterexample_exit_time(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 3000, "dt": 1e-3, "b": np.pi / 3, "seed": 5}))
    out = tmp_path / "exit"
    assert run(["counterexample", "exit-time", "--config", cfg, "--out", out]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]["levels"][0]
    assert abs(res["estimate"] - 2.0) / 2.0 < 0.05


def test_oracle_duality_and_rp(tmp_path):
    for which in ("duality", "rp"):
        out = tmp_path / which
        assert run(["oracle", which, "--out", out, "--seed", 11]) == 0
        res = json.loads((out / "summary.json").read_text())["results"]
        if which == "duality":
            assert res["worst_gap"] < 1e-9
        else:
            assert res["hand_example_r2"] == 1.25
            assert res["monotone_in_p"]


def test_threads_env_var_default(monkeypatch):
    from bsde_lab.cli import build_parser
    monkeypatch.setenv("BSDE_LAB_THREADS", "5")
    args = build_parser().parse_args(["simulate-exponential"])
    assert args.threads == 5
    monkeypatch.delenv("BSDE_LAB_THREADS")
    args = build_parser().parse_args(["simulate-exponential", "--threads", "2"])
    assert args.threads == 2


def test_threads_env_var_not_an_integer_refused(monkeypatch, capsys):
    monkeypatch.setenv("BSDE_LAB_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        run(["list"])
    assert exc.value.code == 2
    assert "BSDE_LAB_THREADS must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("env, flags, message", [
    (None, ["--threads", 0], "argument --threads: must be at least 1, got 0"),
    (None, ["--threads", -2], "argument --threads: must be at least 1, got -2"),
    ("0", [], "BSDE_LAB_THREADS must be at least 1, got 0"),
])
def test_threads_below_one_refused(monkeypatch, tmp_path, capsys, env, flags, message):
    if env is not None:
        monkeypatch.setenv("BSDE_LAB_THREADS", env)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["simulate-exponential", *flags, "--out", out])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_equivalence_suite_exit_code(tmp_path):
    out = tmp_path / "eq"
    assert run(["equivalence-suite", "--out", out, "--seed", 13]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert res["all_envelopes_hold"]
    rows = np.loadtxt(out / "equivalence.csv", delimiter=",", skiprows=1)
    rot = rows[rows[:, 1] == 1.0]
    assert rot[-1, 2] > rot[0, 2]       # rotation R_p grows with depth
