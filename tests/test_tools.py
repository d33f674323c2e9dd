import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_same_tree_is_identical(tmp_path):
    tool = _compare_outputs()
    case = next(c for c in tool.WORKLOADS["backward"] if c.name == "quadratic-cole-hopf")
    src = ROOT / "src"
    rows = tool.compare_case(case, src, src, seed=3, threads=1, workdir=tmp_path)
    assert rows == [("solution.csv", "identical"), ("summary.json", "identical")]


def test_compare_file_reports_largest_relative_difference(tmp_path):
    tool = _compare_outputs()
    a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
    a.write_text("t,Y0\n0.0,1.0\n0.5,2.0\n")
    b.write_text("t,Y0\n0.0,1.0\n0.5,2.0000000002\n")
    c.write_text("t,Y0\n0.0,1.0\n")
    assert tool.compare_file(a, a) == "identical"
    assert tool.compare_file(a, b) == "max relative difference 1.000e-10"
    assert tool.compare_file(a, c).startswith("differs (4 against 2 numbers)")
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    ja.write_text(json.dumps({"x": [1.0, "inf"], "name": "s"}))
    jb.write_text(json.dumps({"x": [1.5, "inf"], "name": "s"}))
    assert tool.compare_file(ja, jb) == "max relative difference 3.333e-01"


def test_case_filter_keeps_only_named_cases(capsys):
    tool = _compare_outputs()
    every = tool.select_cases(["closed-form"], None)
    kept = tool.select_cases(["closed-form"], ["oracle-bsde", "exit-pi4"])
    assert [c.name for c in kept] == ["exit-pi4", "oracle-bsde"]   # workload order
    assert [c.name for c in every] == [c.name for c in tool.WORKLOADS["closed-form"]]
    with pytest.raises(ValueError, match="no case nonexistent"):
        tool.select_cases(["closed-form"], ["nonexistent"])
    src = str(ROOT / "src")
    assert tool.main([src, src, "--workload", "backward", "--seed", "3",
                      "--case", "quadratic-cole-hopf"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "0 differing output(s) in 1 case(s), seed 3, threads 1"
    with pytest.raises(SystemExit):
        tool.main([src, src, "--workload", "backward", "--seed", "3", "--case", "emery"])
