import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsde_lab
from bsde_lab.cli import CONFIG_SCHEMAS, load_config, main
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


def test_import_does_not_load_scipy():
    # scipy.optimize costs about half a second of start-up and only
    # quadratic.positively_spans uses it
    src = Path(bsde_lab.__file__).resolve().parents[1]
    code = ("import sys, bsde_lab, bsde_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"


def test_config_comments_and_seed_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('// comment line\n{"seed": 5, "M": 100, "K": 8}')
    loaded = load_config(str(cfg), "exponential", seed_override=9)
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


def test_equivalence_suite_exit_code(tmp_path):
    out = tmp_path / "eq"
    assert run(["equivalence-suite", "--out", out, "--seed", 13]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert res["all_envelopes_hold"]
    rows = np.loadtxt(out / "equivalence.csv", delimiter=",", skiprows=1)
    rot = rows[rows[:, 1] == 1.0]
    assert rot[-1, 2] > rot[0, 2]       # rotation R_p grows with depth
