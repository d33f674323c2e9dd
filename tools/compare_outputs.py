"""Compare the output files of the benchmark cases between two source trees.

    python3 tools/compare_outputs.py SRC_A SRC_B --workload backward --seed 1
    python3 tools/compare_outputs.py SRC_A SRC_B --workload all --seed 2 --threads 4
    python3 tools/compare_outputs.py SRC_A SRC_B --workload closed-form --seed 1 \
        --case exit-pi4 --case emery

SRC_A and SRC_B are directories that hold a `bsde_lab` package (the `src/`
directory of two checkouts).  Every case of the workload (bench/workloads.py,
imported read-only) runs once as a `bsde-lab` command from each tree, at the
given seed and thread count, with BLAS pinned to one thread; repeated
`--case NAME` options keep only the named cases.  For each output
file the script prints `identical` when the bytes agree, and otherwise the
largest relative difference over the numbers in the file.  It exits with
status 1 on any difference, a missing file or a failed command.
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


def run_case(case, src: Path, seed: int, threads: int, out: Path) -> subprocess.CompletedProcess:
    """Run one case's CLI command with `src` first on the module path."""
    out.mkdir(parents=True)
    cfg = out.parent / f"{out.name}.cfg.json"
    cfg.write_text(json.dumps(case.config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BSDE_LAB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    argv = [sys.executable, "-m", "bsde_lab.cli", *case.command, "--config", str(cfg),
            "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


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
                 workdir: Path) -> list:
    """[(file name, verdict)] for one case; a failed command is one entry."""
    outs = []
    for tag, src in (("a", src_a), ("b", src_b)):
        out = workdir / f"{case.name}-{tag}"
        proc = run_case(case, src, seed, threads, out)
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


def select_cases(workloads: list, names: list | None) -> list:
    """The cases of `workloads`, in order, or only those named in `names`."""
    cases = [c for w in workloads for c in WORKLOADS[w]]
    if not names:
        return cases
    unknown = sorted(set(names) - {c.name for c in cases})
    if unknown:
        raise ValueError(f"no case {', '.join(unknown)} in workload(s) {', '.join(workloads)}")
    return [c for c in cases if c.name in names]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--case", action="append", metavar="NAME",
                    help="compare only this case (repeatable)")
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        cases = select_cases(names, args.case)
    except ValueError as err:
        ap.error(str(err))
    workdir = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    differing = 0
    try:
        for case in cases:
            for name, verdict in compare_case(case, args.src_a, args.src_b, args.seed,
                                              args.threads, workdir):
                print(f"{case.name}/{name}: {verdict}", flush=True)
                differing += verdict != "identical"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{differing} differing output(s) in {len(cases)} case(s), seed {args.seed}, "
          f"threads {args.threads}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
