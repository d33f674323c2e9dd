import importlib.util
import json
import os
import subprocess
import sys
import textwrap
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


def test_main_prints_peak_rss_of_each_tree(capsys):
    tool = _compare_outputs()
    src = str(ROOT / "src")
    assert tool.main([src, src, "--workload", "backward", "--seed", "3",
                      "--case", "quadratic-cole-hopf"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rss = [line for line in lines if line.startswith("quadratic-cole-hopf: peak RSS ")]
    assert len(rss) == 1
    values = [float(part.split(" MB in ")[0])
              for part in rss[0].removeprefix("quadratic-cole-hopf: peak RSS ").split(", ")]
    assert len(values) == 2 and all(v > 0 for v in values)
    assert lines[-1] == "0 differing output(s) in 1 case(s), seed 3, threads 1"


def _bench_python(*args, cwd):
    """Run python with the package and the bench harness importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_bench_harness_wraps_the_package(tmp_path):
    # The harness looks package names up with getattr and binds parameters
    # by name, so a renamed function, parameter or runner breaks it.
    check = _bench_python("-c", textwrap.dedent("""
        import child
        from bsde_lab.cli import CONFIG_SCHEMAS, RUNNERS
        child.install(child.Tracer("t"))
        for command, entry in RUNNERS.items():
            assert type(entry) is tuple and len(entry) == 2, command
            assert entry[0] in CONFIG_SCHEMAS and callable(entry[1]), command
    """), cwd=tmp_path)
    assert check.returncode == 0, check.stderr
    cfg = tmp_path / "rp.json"
    cfg.write_text('{"method": "nested", "K": 4, "M": 20, "inner_paths": 16}')
    record = tmp_path / "record.json"
    run = _bench_python(ROOT / "bench" / "child.py", record, 1, "estimate-rp",
                        "--config", cfg, "--seed", 1, "--out", tmp_path / "out", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    counts = json.loads(record.read_text())["counts"]
    assert counts["exponential.nested_paths"] == 4 * 20 * 16
