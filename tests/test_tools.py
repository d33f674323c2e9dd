import ast
import hashlib
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


def test_update_goldens_rewrites_the_committed_manifest():
    spec = importlib.util.spec_from_file_location(
        "update_goldens", ROOT / "tools" / "update_goldens.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cli = tool._test_cli()
    assert tool.manifest(cli) == json.loads(cli.GOLDEN_MANIFEST.read_text())


def test_update_goldens_reports_what_moved():
    spec = importlib.util.spec_from_file_location(
        "update_goldens", ROOT / "tools" / "update_goldens.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def entry(text):
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "text": text}

    old = {"cases": {"solve": {"a.csv": entry("t,Y0\n0.0,1.0\n"), "b.csv": entry("t\n1.0\n"),
                               "gone.csv": entry("t\n0.0\n")},
                     "walk": {"c.json": entry('{"x": 2.0}')}}}
    new = {"cases": {"solve": {"a.csv": entry("t,Y0\n0.0,1.0000000002\n"),
                               "b.csv": entry("t\n1.0\n")},
                     "walk": {"c.json": entry('{"x": 2.0}'), "d.csv": entry("t\n2.0\n")}}}
    assert tool.moved(old, new) == [
        "solve/a.csv: max relative difference 2.000e-10",
        "solve/gone.csv: removed",
        "walk/d.csv: new",
        "2 artifact(s) unchanged",
    ]
    assert tool.moved(new, new) == ["4 artifact(s) unchanged"]


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


def test_set_overrides_the_config_of_every_selected_case(capsys):
    tool = _compare_outputs()
    assert tool.parse_setting("M=4000") == ("M", 4000)
    assert tool.parse_setting('field="emery"') == ("field", "emery")
    assert tool.parse_setting("depths=[2, 3]") == ("depths", [2, 3])
    for bad in ("M", "=3", "field=emery"):
        with pytest.raises(tool.argparse.ArgumentTypeError, match="KEY=VALUE|not JSON"):
            tool.parse_setting(bad)
    cases = tool.select_cases(["forward"], ["exp-triangular", "rp-regression"],
                              [("M", 40), ("K", 4)])
    assert [(c.config["M"], c.config["K"], c.config["field"]) for c in cases] == \
        [(40, 4, "triangular-3d")] * 2
    assert tool.WORKLOADS["forward"][0].config["M"] == 300   # the workload is untouched
    src = str(ROOT / "src")
    assert tool.main([src, src, "--workload", "forward", "--seed", "3",
                      "--case", "exp-triangular", "--set", "M=40", "--set", "K=4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "0 differing output(s) in 1 case(s), seed 3, threads 1"
    with pytest.raises(SystemExit):
        tool.main([src, src, "--workload", "forward", "--seed", "3", "--set", "M"])


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
    assert rss[0].endswith(" (MALLOC_MMAP_THRESHOLD_=131072)")
    assert lines[-1] == "0 differing output(s) in 1 case(s), seed 3, threads 1"


def test_compare_outputs_pins_the_malloc_threshold_of_its_children(tmp_path, monkeypatch):
    tool = _compare_outputs()
    env = tool.child_env(ROOT / "src")
    assert env["MALLOC_MMAP_THRESHOLD_"] == "131072"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str((ROOT / "src").resolve())
    seen = []
    popen = tool.subprocess.Popen

    def recording_popen(argv, env, **kw):
        seen.append(env)
        return popen(argv, env=env, **kw)
    monkeypatch.setattr(tool.subprocess, "Popen", recording_popen)
    case = next(c for c in tool.WORKLOADS["backward"] if c.name == "quadratic-cole-hopf")
    proc, _ = tool.run_case(case.with_config(M=200, K=4), ROOT / "src", 3, 1, tmp_path / "a")
    assert proc.returncode == 0, proc.stderr
    assert [e["MALLOC_MMAP_THRESHOLD_"] for e in seen] == ["131072"]


def test_peak_probe_names_the_package_frames_at_the_peak(capsys):
    spec = importlib.util.spec_from_file_location("peak_probe", ROOT / "tools" / "peak_probe.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--workload", "backward", "--seed", "3", "--case", "linear-left-outer",
                      "--set", "M=300", "--set", "K=4", "--depth", "3"]) == 0
    head, *frames = capsys.readouterr().out.splitlines()
    assert head.startswith("linear-left-outer: traced peak ") and head.endswith(" MB")
    assert float(head.split()[3]) > 0
    modules = {path.name for path in (ROOT / "src" / "bsde_lab").glob("*.py")}
    assert 1 <= len(frames) <= 3
    for frame in frames:                       # "module.py:line function", innermost first
        where, function = frame.split()
        module, line = where.split(":")
        assert module in modules and int(line) > 0 and function.isidentifier(), frame


def test_peak_probe_lists_the_largest_sites_live_at_the_peak(capsys, monkeypatch):
    # `--sites N` adds "MB module.py:line" lines, largest first, from the last
    # snapshot, which the hook takes only once the peak has risen by
    # SNAPSHOT_STEP since the one before.  The step is cut here to 64 KiB,
    # since this case peaks near 1 MB.
    spec = importlib.util.spec_from_file_location("peak_probe", ROOT / "tools" / "peak_probe.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SNAPSHOT_STEP", 1 << 16)
    snapshots, take = [], tool.tracemalloc.take_snapshot
    monkeypatch.setattr(tool.tracemalloc, "take_snapshot",
                        lambda: snapshots.append(None) or take())
    assert tool.main(["--workload", "backward", "--seed", "3", "--case", "linear-left-outer",
                      "--set", "M=300", "--set", "K=4", "--depth", "1", "--sites", "4"]) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    peak_mb = float(head.split()[3])
    sites = [line.split() for line in lines if line.split()[1] == "MB"]
    assert len(lines) == 1 + len(sites) and 1 <= len(sites) <= 4
    modules = {path.name for path in (ROOT / "src" / "bsde_lab").glob("*.py")}
    sizes = []
    for size, _, where in sites:
        module, line = where.split(":")
        assert module in modules and int(line) > 0, where
        sizes.append(float(size))
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > 0
    assert sum(sizes) <= peak_mb + 0.05 + 0.005 * len(sizes)
    assert 1 <= len(snapshots) <= peak_mb * 2**20 / (1 << 16) + 2


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


def _src_stats():
    spec = importlib.util.spec_from_file_location("src_stats", ROOT / "tools" / "src_stats.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_STATS_MODULE = '''\
"""Module doc
on two lines."""

import os
from dataclasses import dataclass

# a comment
STRUCTURES = ("a", "b", "c")
CONFIG_SCHEMAS = {"x": {"properties": {"p": {}, "q": {}}}, "y": {"properties": {"r": {}}}}


@dataclass
class Box:
    """Doc."""
    size: int
    name: str = "box"
    kind = "plain"


def f(a, b=1, *, c=2, d):
    return a + b + c + d  # a trailing comment is code


def env(key):
    # A and B once each, and the read by a computed name
    return os.environ.get("A"), os.environ["A"], os.getenv("B", "1"), os.environ[key]
'''


def test_src_stats_counts_a_synthetic_package(tmp_path, capsys):
    tool = _src_stats()
    pkg = tmp_path / "src_stats_demo_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Demo package."""\n')
    (pkg / "mod.py").write_text(_STATS_MODULE)
    stats = tool.tree_stats(tmp_path)
    assert list(stats) == ["src_stats_demo_pkg/__init__.py", "src_stats_demo_pkg/mod.py"]
    assert stats["src_stats_demo_pkg/mod.py"] == {
        "code": 13, "docstring": 3, "comment": 2, "blank": 8,
        "defaulted_parameters": 2, "dataclass_fields": 2, "config_properties": 3,
        "structure_tags": 3, "environment_variables": 3}
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["total", "13", "4", "2", "8", "27", "13"]
    assert lines[-1] == ("settable values: defaulted parameters 2, dataclass fields 2, "
                         "config properties 3, structure tags 3, environment variables 3")
    shipped = tool.total(tool.tree_stats(ROOT / "src"))
    assert shipped["code"] > 0 and shipped["config_properties"] > 0
    assert shipped["structure_tags"] == 0              # a field's class states its structure
    assert shipped["environment_variables"] == 0       # command-line flags set the runs


# METHODS entries of bench/child.py that name no method of the package:
# install() skips them, so their spans never record.
STALE_BENCH_METHODS = {("exponential", "ExponentialEnsemble", "inverse_residual")}


def test_bench_trace_targets_resolve(monkeypatch):
    """Every function and method the traced bench wraps exists in the package,
    so a rename fails here instead of in install() under --trace 1."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for mod, attr, _, _ in child.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"bsde_lab.{mod}"), attr)), (mod, attr)
    unresolved = {(mod, cls, attr) for mod, cls, attr, _, _ in child.METHODS
                  if not callable(getattr(getattr(importlib.import_module(f"bsde_lab.{mod}"),
                                                  cls), attr, None))}
    assert unresolved == STALE_BENCH_METHODS


def test_no_unused_module_level_import():
    """Every name a package module imports at its top level is used in it
    (`__init__`, which re-exports names, is left out)."""
    unused = []
    for path in sorted((ROOT / "src" / "bsde_lab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name not in used]
    assert not unused, unused


# Parameters that a caller's signature fixes: the runners' shared
# (cfg, out, threads), the (z1, z2, dz) of every driver's `structural`, and
# the (t, x[, y], z) of a field or driver callback.
UNREAD_BY_SIGNATURE = {
    "cli.py run_oracle threads",
    "cli.py run_equivalence_suite threads",
    "quadratic.py QuadraticLinearDriver.structural dz",
    "instances.py _triangular_eval t",
    "instances.py right_outer_3d.a_eval t",
    "instances.py left_outer_3d.b_eval t",
    "instances.py ql_coupled_2d.g t",
    "instances.py ql_coupled_2d.g x",
    "instances.py ql_coupled_2d.g z",
    "instances.py unidirectional_2d.g t",
    "instances.py unidirectional_2d.g x",
    "instances.py unidirectional_2d.g z",
}


def _unread_parameters(node, path: Path, scope: str = "") -> list:
    """'module qualified.name parameter' of every `def` under `node` whose
    body never loads that parameter (`self` and `cls` are left out)."""
    unread = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            loads = {n.id for stmt in child.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name} {scope}{child.name} {p}" for p in params
                       if p not in loads and p not in ("self", "cls")]
            unread += _unread_parameters(child, path, f"{scope}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            unread += _unread_parameters(child, path, f"{scope}{child.name}.")
        else:
            unread += _unread_parameters(child, path, scope)
    return unread


def test_no_unread_parameter():
    """Every parameter of a package `def` is read in its body, but for the
    ones a caller's signature fixes (UNREAD_BY_SIGNATURE)."""
    unread = set()
    for path in sorted((ROOT / "src" / "bsde_lab").glob("*.py")):
        unread.update(_unread_parameters(ast.parse(path.read_text()), path))
    assert unread == UNREAD_BY_SIGNATURE


def _attribute_reads(tree) -> set:
    """The attribute names `tree` reads: `obj.name` loads, and the string
    literal handed to `getattr(obj, name)` or to `ExponentialEnsemble.kept`,
    which reads its attribute by name."""
    reads = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads.add(n.attr)
        elif isinstance(n, ast.Call):
            named = (n.args[1:2] if isinstance(n.func, ast.Name) and n.func.id == "getattr"
                     else n.args[:1] if isinstance(n.func, ast.Attribute)
                     and n.func.attr == "kept" else [])
            reads.update(a.value for a in named
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return reads


def test_no_write_only_dataclass_field():
    """Every annotated field of a package dataclass is read as an attribute
    somewhere in the package (`_attribute_reads`): a field nothing reads is
    a value a caller can set to no effect."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "bsde_lab").glob("*.py"))}
    reads = set().union(*map(_attribute_reads, trees.values()))
    fields = set()
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(dec) for dec in cls.decorator_list):
                fields.update((f"{name} {cls.name}.{item.target.id}", item.target.id)
                              for item in cls.body if isinstance(item, ast.AnnAssign))
    assert fields, "no dataclass field found"
    assert sorted(field for field, attr in fields if attr not in reads) == []


def _package_imports(nodes) -> set:
    """The package modules that the import statements among `nodes` name."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module
                       else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bsde_lab."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("bsde_lab."))
    return out


def test_no_function_level_import_dodges_a_cycle():
    """No package module imports, inside a function, a module that imports it
    at module level: that import only hides a cycle between the two, which
    moving the shared code to a module both import removes."""
    package = ROOT / "src" / "bsde_lab"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    top = {name: _package_imports(tree.body) for name, tree in trees.items()}
    dodges = set()
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dodges.update(f"{name}.py:{node.lineno} imports {target}"
                              for node in ast.walk(fn)
                              for target in _package_imports([node])
                              if name in top.get(target, ()))
    assert not dodges, sorted(dodges)
