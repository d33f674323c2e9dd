"""bsde-lab benchmark: time every case of a workload as its own CLI process.

    python3 bench/run.py --workload forward --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs a closed loop: each case of the workload (bench/workloads.py)
is a `bsde-lab` command at `--threads 1` in a child process, and the next
case starts when the previous one has exited.  A round runs every case once;
rounds repeat with the same seed until `--seconds` have passed (at least two
rounds, so that every output is checked to be byte-identical between runs).

With `--trace 0` the end-to-end metrics are printed.  With `--trace 1`, odd
rounds run with wrappers around the package's public functions
(bench/child.py) and the per-layer self times and counters of those rounds
are printed, together with the tracing overhead against the untraced rounds.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

OpenBLAS, OpenMP and MKL are pinned to one thread in every child, so the
numbers are a plain single-threaded baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Case

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PACKAGE = ROOT / "src" / "bsde_lab"
RUNS = ROOT / ".bench_runs"

CASE_TIMEOUT_S = 60.0       # one case; the largest takes a few seconds
RUN_DEADLINE_S = 150.0      # no case starts after this; keeps a run under 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

# Span names of bench/child.py; each gives the metric "<span>_s" (self time).
LAYER_SPANS = (
    "tensors.opnorm", "exponential.integrate", "exponential.residual",
    "exponential.rp", "exponential.defect", "brownian.state_at", "brownian.generate",
    "fields.values", "norms.fit", "norms.estimate_norm", "linear.solve",
    "quadratic.backward", "quadratic.driver", "counterexamples.exit_walk",
    "counterexamples.emery", "tree.self", "cli.write_outputs", "cli.load_config",
    "cli.runner",
)
LAYER_COUNTS = (
    "tensors.opnorm_matrices", "exponential.nested_paths", "brownian.state_at_calls",
    "brownian.normals", "fields.values_calls", "norms.fit_calls", "norms.fit_rows",
    "norms.fit_rank_deficient", "linear.picard_iters", "quadratic.driver_evals",
    "quadratic.levels_tried", "counterexamples.exit_normals",
    "counterexamples.truncated_paths", "tree.calls",
)


def per_layer_units(workloads: dict) -> dict:
    units = {f"{span}_s": "s" for span in LAYER_SPANS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["trace.overhead_s"] = "s"
    for cases in workloads.values():
        for case in cases:
            units[f"case.{case.name}.solve_s"] = "s"
            units[f"case.{case.name}.peak_rss_mb"] = "MB"
    return units


@dataclass
class CaseRun:
    case: Case
    traced: bool
    spawned: float
    exited: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None = None
    solve_s: float | None = None
    digest: str | None = None
    failures: list = field(default_factory=list)
    checks: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BSDE_LAB_THREADS", None)
    return env


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for fp in sorted(out.iterdir()):
        h.update(fp.name.encode() + b"\0" + fp.read_bytes() + b"\0")
    return h.hexdigest()


def run_case(case: Case, seed: int, traced: bool, workdir: Path, tag: str,
             deadline: float) -> CaseRun:
    """Run one case in a child process, then check what it wrote."""
    out = workdir / tag / case.name
    record = workdir / f"{tag}-{case.name}.json"
    argv = [sys.executable, str(CHILD), str(record), "1" if traced else "0",
            *case.command, "--config", str(workdir / f"{case.name}.cfg.json"),
            "--seed", str(seed), "--threads", "1", "--out", str(out)]
    timeout = max(1.0, min(CASE_TIMEOUT_S, deadline - time.monotonic()))
    with open(workdir / f"{tag}-{case.name}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = CaseRun(case, traced, spawned, exited, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)

    run.checks += 1
    if proc.returncode != 0 or not record.is_file():
        run.failures.append(f"exit status {proc.returncode}")
        return run
    rec = json.loads(record.read_text())
    run.setup_s = rec["runner_enter"] - spawned
    run.solve_s = rec["runner_exit"] - rec["runner_enter"]
    run.spans = rec.get("spans", [])
    run.counts = rec.get("counts", {})
    results = json.loads((out / "summary.json").read_text())["results"]
    for check in case.checks:
        run.checks += 1
        try:
            if not check.passes(results, case):
                run.failures.append(check.label)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            run.failures.append(f"{check.label} ({type(exc).__name__}: {exc})")
    run.digest = _digest(out)
    shutil.rmtree(out)
    return run


def run_workload(cases, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop over rounds of `cases`; returns one list of CaseRuns per round."""
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
    try:
        for case in cases:
            (workdir / f"{case.name}.cfg.json").write_text(json.dumps(case.config))
        # Compile the package's bytecode once, as an installed package would
        # have it, so the first timed case does not pay for it.
        subprocess.run([sys.executable, "-c", "import bsde_lab.cli"], env=_child_env(),
                       cwd=ROOT, check=True)
        start = time.monotonic()
        deadline = start + RUN_DEADLINE_S
        rounds, durations = [], []
        # A round starts only if a round as long as the median so far still
        # ends within `seconds`; two rounds always run.
        while len(rounds) < 2 or (time.monotonic() - start
                                  + statistics.median(durations) <= seconds):
            if time.monotonic() >= deadline:
                break
            traced = trace and len(rounds) % 2 == 1
            begun = time.monotonic()
            rounds.append([run_case(c, seed, traced, workdir, f"r{len(rounds)}", deadline)
                           for c in cases])
            durations.append(time.monotonic() - begun)
        return rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def checks_of(rounds: list) -> tuple[int, list]:
    """(checks attempted, failure messages), byte-identity between rounds included."""
    attempted, failures = 0, []
    first = {}
    for r, runs in enumerate(rounds):
        for run in runs:
            attempted += run.checks
            failures += [f"round {r} {run.case.name}: {msg}" for msg in run.failures]
            if run.digest is None:
                continue
            if run.case.name in first:
                attempted += 1
                if run.digest != first[run.case.name]:
                    failures.append(f"round {r} {run.case.name}: outputs differ "
                                    "from round 0 with the same seed")
            else:
                first[run.case.name] = run.digest
    return attempted, failures


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(rounds: list) -> dict:
    """Samples of each end-to-end metric over the untraced rounds."""
    plain = [runs for runs in rounds if not runs[0].traced]
    done = [run for runs in plain for run in runs if run.solve_s is not None]
    return {
        "wall_s": [runs[-1].exited - runs[0].spawned for runs in plain],
        "solve_s": [sum(run.solve_s or 0.0 for run in runs) for runs in plain],
        "setup_s": [run.setup_s for run in done],
        "cpu_s": [sum(run.cpu_s for run in runs) for runs in plain],
        "peak_rss_mb": [max(run.rss_mb for runs in plain for run in runs)],
    }


def _self_times(runs: list) -> dict:
    """Self time per span name: each span's duration minus its children's."""
    total = {}
    for run in runs:
        for name, start, end, parent, _ in run.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = run.spans[parent][0]
                total[pname] = total.get(pname, 0.0) - (end - start)
    return total


def per_layer(rounds: list, units: dict) -> dict:
    """Samples of each per-layer metric over the traced rounds."""
    traced = [runs for runs in rounds if runs[0].traced]
    plain = [runs for runs in rounds if not runs[0].traced]
    samples = {name: [] for name in units}
    for runs in traced:
        selfs = _self_times(runs)
        for span in LAYER_SPANS:
            samples[f"{span}_s"].append(selfs.get(span, 0.0))
        for name in LAYER_COUNTS:
            samples[name].append(sum(run.counts.get(name, 0) for run in runs))
        for run in runs:
            samples[f"case.{run.case.name}.solve_s"].append(run.solve_s or 0.0)
            samples[f"case.{run.case.name}.peak_rss_mb"].append(run.rss_mb)
    traced_solve = [sum(run.solve_s or 0.0 for run in runs) for runs in traced]
    plain_solve = [sum(run.solve_s or 0.0 for run in runs) for runs in plain]
    samples["trace.overhead_s"] = [statistics.median(traced_solve)
                                   - statistics.median(plain_solve)]
    for name, values in samples.items():
        if not values:           # a case of another workload: it did not run
            values.append(0.0)
    return samples


def layer_shares(rounds: list) -> dict:
    """Share of traced solve time per module, from the traced rounds."""
    traced = [runs for runs in rounds if runs[0].traced]
    selfs = _self_times([run for runs in traced for run in runs])
    selfs.pop("cli.load_config", None)         # runs before the runner: set-up
    solve = sum(run.solve_s or 0.0 for runs in traced for run in runs)
    shares = {}
    for span, t in selfs.items():
        module = span.split(".")[0]
        shares[module] = shares.get(module, 0.0) + t / solve
    return shares


def save_spans(rounds: list, path: Path) -> None:
    """Write the spans and counters of the traced rounds, one list per round."""
    traced = [[{"case": run.case.name, "spans": run.spans, "counts": run.counts}
               for run in runs] for runs in rounds if runs[0].traced]
    path.write_text(json.dumps(traced))


def machine(seed: int) -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas = fn()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or commit
    src = hashlib.sha256()
    for fp in sorted(PACKAGE.glob("*.py")):
        src.update(fp.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": blas, "platform": platform.platform(),
            "commit": commit, "source_sha256": src.hexdigest(), "seed": seed}


def _fmt(name: str, unit: str, values: list) -> str:
    q1, med, q3 = _quartiles(values)
    return f"  {name:38s} {med:12.6g} {unit:5s} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def report(workloads: dict, workload: str, seed: int, seconds: float,
           trace: bool) -> dict:
    cases = workloads[workload]
    rounds = run_workload(cases, seed, seconds, trace)
    attempted, failures = checks_of(rounds)
    print(f"workload {workload}: {len(cases)} cases, {len(rounds)} rounds, seed {seed}, "
          f"{'traced and untraced' if trace else 'untraced'} rounds")
    for msg in failures:
        print(f"  FAILED {msg}")
    print(f"  {'failed_frac':38s} {len(failures) / attempted:12.6g} 1     "
          f"({len(failures)} of {attempted} checks)")
    if trace:
        units = per_layer_units(workloads)
        samples = per_layer(rounds, units)
        for module, share in sorted(layer_shares(rounds).items()):
            print(f"  share of traced solve_s in {module:22s} {share:8.1%}")
        spans = RUNS / f"spans-{workload}-seed{seed}.json"
        save_spans(rounds, spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        units, samples = END_TO_END, end_to_end(rounds)
    here = {f"case.{case.name}." for case in cases}
    metrics = {}
    for name, unit in units.items():
        if not name.startswith("case.") or name[:name.rfind(".") + 1] in here:
            print(_fmt(name, unit, samples[name]))
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None, workloads: dict = WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"bsde-lab sources not found under {PACKAGE}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print("machine " + json.dumps(machine(args.seed), sort_keys=True))
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = {name: report(workloads, name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}/{m}": v for name, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
