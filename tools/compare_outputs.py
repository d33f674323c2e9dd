"""Compare the output files of the benchmark cases between two source trees.

    python3 tools/compare_outputs.py SRC_A SRC_B --workload backward --seed 1
    python3 tools/compare_outputs.py SRC_A SRC_B --workload all --seed 2 --threads 4
    python3 tools/compare_outputs.py SRC_A SRC_B --workload closed-form --seed 1 \
        --case exit-pi4 --case emery
    python3 tools/compare_outputs.py SRC_A SRC_B --workload forward --seed 1 \
        --case exp-triangular --set M=4000 --set K=400

SRC_A and SRC_B are directories that hold a `bsde_lab` package (the `src/`
directory of two checkouts).  Every case of the workload (bench/workloads.py,
imported read-only) runs once as a `bsde-lab` command from each tree, at the
given seed and thread count, with BLAS pinned to one thread; repeated
`--case NAME` options keep only the named cases, and repeated
`--set KEY=VALUE` options (VALUE read as JSON) override that key of every
selected case's config, to compare at sizes the benchmark does not run.
For each output
file the script prints `identical` when the bytes agree, and otherwise the
largest relative difference over the numbers in the file, then one line
with the peak RSS of the command in each tree, which never counts as a
difference.  It exits with status 1 on any difference, a missing file or a
failed command.

Each command runs with MALLOC_MMAP_THRESHOLD_=131072 in its environment.
Setting it also stops glibc from raising the threshold as the process frees
large blocks, so every array of 128 KiB or more is its own mapping and is
returned when freed: the peak RSS follows the live arrays rather than the
layout of the heap.  The RSS line names the pin.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MALLOC_PIN = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def child_env(src: Path) -> dict:
    """The environment of a command run from `src`: the package of `src`
    first on the module path, BLAS on one thread and the malloc pin set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BSDE_LAB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(MALLOC_PIN)
    return env


def run_case(case, src: Path, seed: int, threads: int, out: Path):
    """Run one case's CLI command with `src` first on the module path.

    Returns the finished process and its peak RSS in MB, read with wait4.
    """
    out.mkdir(parents=True)
    cfg = out.parent / f"{out.name}.cfg.json"
    cfg.write_text(json.dumps(case.config))
    env = child_env(src)
    argv = [sys.executable, "-m", "bsde_lab.cli", *case.command, "--config", str(cfg),
            "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
    # Output goes to files, so the child can be reaped with wait4 rather than
    # by Popen, which would discard its resource usage.
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        done = subprocess.CompletedProcess(argv, proc.returncode, stdout.read(), stderr.read())
    return done, usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def _numbers(path: Path) -> list:
    """Every number in a CSV table or a JSON document, in reading order."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []

        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found.append(float(node))
            elif isinstance(node, str) and node in ("inf", "-inf", "nan"):
                found.append(float(node))
        walk(json.loads(text))
        return found
    return [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(a: Path, b: Path) -> str:
    """`identical`, or the largest relative difference between two outputs."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    try:
        xs, ys = _numbers(a), _numbers(b)
    except ValueError:
        return "differs (not numeric)"
    if len(xs) != len(ys):
        return f"differs ({len(xs)} against {len(ys)} numbers)"
    worst = max((_relative(x, y) for x, y in zip(xs, ys)), default=0.0)
    return f"max relative difference {worst:.3e}"


def compare_case(case, src_a: Path, src_b: Path, seed: int, threads: int,
                 workdir: Path, peaks: list | None = None) -> list:
    """[(file name, verdict)] for one case; a failed command is one entry.

    The peak RSS in MB of each command that ran is appended to `peaks`.
    """
    outs = []
    for tag, src in (("a", src_a), ("b", src_b)):
        out = workdir / f"{case.name}-{tag}"
        proc, peak = run_case(case, src, seed, threads, out)
        if peaks is not None:
            peaks.append(peak)
        if proc.returncode != 0:
            return [("<command>", f"failed in {src} with status {proc.returncode}: "
                                  f"{proc.stderr.strip()[-300:]}")]
        outs.append(out)
    names = sorted({p.name for out in outs for p in out.iterdir()})
    rows = []
    for name in names:
        a, b = outs[0] / name, outs[1] / name
        if not (a.is_file() and b.is_file()):
            rows.append((name, "missing in " + (str(src_a) if not a.is_file() else str(src_b))))
        else:
            rows.append((name, compare_file(a, b)))
    return rows


def select_cases(workloads: list, names: list | None, settings: list = ()) -> list:
    """The cases of `workloads`, in order, or only those named in `names`,
    with each (key, value) of `settings` set in their configs."""
    cases = [c for w in workloads for c in WORKLOADS[w]]
    if names:
        unknown = sorted(set(names) - {c.name for c in cases})
        if unknown:
            raise ValueError(f"no case {', '.join(unknown)} in workload(s) "
                             f"{', '.join(workloads)}")
        cases = [c for c in cases if c.name in names]
    return [c.with_config(**dict(settings)) for c in cases]


def parse_setting(text: str) -> tuple:
    """("KEY", VALUE) of a `--set KEY=VALUE` option, VALUE read as JSON."""
    key, sep, value = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError(f"the value of {key} is not JSON: {value!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--case", action="append", metavar="NAME",
                    help="compare only this case (repeatable)")
    ap.add_argument("--set", action="append", default=[], type=parse_setting,
                    metavar="KEY=VALUE", dest="settings",
                    help="set KEY to the JSON VALUE in every case's config (repeatable)")
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        cases = select_cases(names, args.case, args.settings)
    except ValueError as err:
        ap.error(str(err))
    workdir = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    differing = 0
    try:
        for case in cases:
            peaks = []
            for name, verdict in compare_case(case, args.src_a, args.src_b, args.seed,
                                              args.threads, workdir, peaks):
                print(f"{case.name}/{name}: {verdict}", flush=True)
                differing += verdict != "identical"
            print(f"{case.name}: peak RSS " + ", ".join(
                f"{mb:.1f} MB in {src}" for mb, src in zip(peaks, (args.src_a, args.src_b)))
                + " (" + " ".join(f"{k}={v}" for k, v in MALLOC_PIN.items()) + ")",
                flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{differing} differing output(s) in {len(cases)} case(s), seed {args.seed}, "
          f"threads {args.threads}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
