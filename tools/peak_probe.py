"""Where the traced memory of each benchmark case peaks.

    python3 tools/peak_probe.py --workload backward --seed 1
    python3 tools/peak_probe.py --workload backward --seed 1 --case linear-perturbed \
        --set M=2000 --depth 6
    python3 tools/peak_probe.py --workload all --seed 1 --src ../other/src

Every case of the workload (bench/workloads.py, imported read-only, as
tools/compare_outputs.py does) runs once, in this process, as the
`bsde_lab.cli` command of the case, with `tracemalloc` on and a
`sys.setprofile` hook that reads the traced peak at every call and return.
Whenever the peak has risen since the last reading, the hook records the
stack, so the last record holds the frames in which the peak was reached:
the innermost Python frame then running and its callers.  For each case the
script prints the traced peak in MB and the innermost `--depth` frames of
`bsde_lab` at that moment, innermost first, as `module.py:line function`.
`--case` and `--set KEY=VALUE` select and resize cases as in
compare_outputs.py; `--src` names the directory that holds the `bsde_lab`
package to probe (default: this checkout's `src/`), put first on the module
path before the package is imported.

tracemalloc counts the arrays numpy allocates, not the interpreter or the
libraries, so the peak is that of the live Python and numpy data, not the
RSS of a process.  The hook slows the commands by a few times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_outputs import WORKLOADS, parse_setting, select_cases  # noqa: E402

PACKAGE = f"{os.sep}bsde_lab{os.sep}"


def _package_frames(frame, depth: int) -> list:
    """`module.py:line function` of the innermost `depth` package frames."""
    found = []
    while frame is not None and len(found) < depth:
        code = frame.f_code
        if PACKAGE in code.co_filename:
            found.append(f"{Path(code.co_filename).name}:{frame.f_lineno} {code.co_name}")
        frame = frame.f_back
    return found


def probe(run, depth: int = 4) -> tuple:
    """(peak bytes, package frames at the peak) of calling `run()`.

    The frames are those of the last hook event at which the traced peak had
    risen, innermost first; an empty list if the peak rose in no package
    frame."""
    best = [0, []]

    def hook(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > best[0]:
            best[0] = peak
            frames = _package_frames(frame, depth)
            if frames:
                best[1] = frames

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, best[1]


def run_case(case, seed: int, workdir: Path, depth: int) -> tuple:
    """(exit status, peak bytes, frames) of one case's command, in-process."""
    from bsde_lab import cli

    cfg = workdir / f"{case.name}.cfg.json"
    cfg.write_text(json.dumps(case.config))
    argv = [*case.command, "--config", str(cfg), "--seed", str(seed),
            "--out", str(workdir / case.name)]
    status = []
    peak, frames = probe(lambda: status.append(cli.main(argv)), depth)
    return status[0], peak, frames


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--case", action="append", metavar="NAME",
                    help="probe only this case (repeatable)")
    ap.add_argument("--set", action="append", default=[], type=parse_setting,
                    metavar="KEY=VALUE", dest="settings",
                    help="set KEY to the JSON VALUE in every case's config (repeatable)")
    ap.add_argument("--depth", type=int, default=4, help="package frames to print")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the bsde_lab package")
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        cases = select_cases(names, args.case, args.settings)
    except ValueError as err:
        ap.error(str(err))
    sys.path.insert(0, str(args.src.resolve()))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="peak-probe-") as tmp:
        for case in cases:
            status, peak, frames = run_case(case, args.seed, Path(tmp), args.depth)
            failed += status != 0
            print(f"{case.name}: traced peak {peak / 2**20:.1f} MB"
                  + ("" if status == 0 else f" (command exited with status {status})"),
                  flush=True)
            for frame in frames:
                print(f"    {frame}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
