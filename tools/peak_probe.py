"""Where the traced memory of each benchmark case peaks.

    python3 tools/peak_probe.py --workload backward --seed 1
    python3 tools/peak_probe.py --workload backward --seed 1 --case linear-perturbed \
        --set M=2000 --depth 6
    python3 tools/peak_probe.py --workload all --seed 1 --src ../other/src
    python3 tools/peak_probe.py --workload backward --seed 1 --sites 5

Every case of the workload (bench/workloads.py, imported read-only, as
tools/compare_outputs.py does) runs once, in this process, as the
`bsde_lab.cli` command of the case, with `tracemalloc` on and a
`sys.setprofile` hook that reads the traced peak at every call and return.
Whenever the peak has risen since the last reading, the hook records the
stack, so the last record holds the frames in which the peak was reached:
the innermost Python frame then running and its callers.  For each case the
script prints the traced peak in MB and the innermost `--depth` frames of
`bsde_lab` at that moment, innermost first, as `module.py:line function`.
With `--sites N` it also prints the N largest allocation sites live at the
peak: the traced bytes still held, grouped by the innermost `bsde_lab` line
that allocated them, as `MB module.py:line`.  They come from a
`tracemalloc` snapshot, which the hook takes only when the peak has risen by
SNAPSHOT_STEP bytes since the last one, so the sites are those of the last
snapshot, up to SNAPSHOT_STEP below the peak (the first snapshot is taken at
the first rise).  `--case` and `--set KEY=VALUE` select and resize cases as in
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
# Rise of the traced peak between two snapshots of `--sites`, in bytes.
SNAPSHOT_STEP = 1 << 20
# Frames tracemalloc keeps per allocation with `--sites`: enough to reach the
# innermost package frame below numpy's Python wrappers.
SITE_FRAMES = 16


def _package_frames(frame, depth: int) -> list:
    """`module.py:line function` of the innermost `depth` package frames."""
    found = []
    while frame is not None and len(found) < depth:
        code = frame.f_code
        if PACKAGE in code.co_filename:
            found.append(f"{Path(code.co_filename).name}:{frame.f_lineno} {code.co_name}")
        frame = frame.f_back
    return found


def _largest_sites(snapshot, count: int) -> list:
    """(bytes, `module.py:line`) of the `count` package lines whose live
    allocations in `snapshot` are largest, largest first; an allocation made
    below no package frame is not counted."""
    sizes = {}
    for trace in snapshot.traces:
        for frame in reversed(trace.traceback):            # innermost first
            if PACKAGE in frame.filename:
                site = f"{Path(frame.filename).name}:{frame.lineno}"
                sizes[site] = sizes.get(site, 0) + trace.size
                break
    return sorted(((size, site) for site, size in sizes.items()), reverse=True)[:count]


def probe(run, depth: int = 4, sites: int = 0) -> tuple:
    """(peak bytes, package frames at the peak, largest sites) of calling `run()`.

    The frames are those of the last hook event at which the traced peak had
    risen, innermost first; an empty list if the peak rose in no package
    frame.  The sites are the `sites` largest of `_largest_sites` in the last
    snapshot, taken once the peak had risen by SNAPSHOT_STEP bytes since the
    one before (none if `sites` is 0)."""
    best = [0, [], None, -SNAPSHOT_STEP]    # peak, frames, snapshot, its peak

    def hook(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > best[0]:
            best[0] = peak
            frames = _package_frames(frame, depth)
            if frames:
                best[1] = frames
            if sites and peak - best[3] >= SNAPSHOT_STEP:
                best[2], best[3] = tracemalloc.take_snapshot(), peak

    tracemalloc.start(SITE_FRAMES if sites else 1)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, best[1], [] if best[2] is None else _largest_sites(best[2], sites)


def run_case(case, seed: int, workdir: Path, depth: int, sites: int = 0) -> tuple:
    """(exit status, peak bytes, frames, sites) of one case's command, in-process."""
    from bsde_lab import cli

    cfg = workdir / f"{case.name}.cfg.json"
    cfg.write_text(json.dumps(case.config))
    argv = [*case.command, "--config", str(cfg), "--seed", str(seed),
            "--out", str(workdir / case.name)]
    status = []
    peak, frames, largest = probe(lambda: status.append(cli.main(argv)), depth, sites)
    return status[0], peak, frames, largest


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
    ap.add_argument("--sites", type=int, default=0, metavar="N",
                    help="also print the N largest allocation sites live at the peak")
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
            status, peak, frames, largest = run_case(case, args.seed, Path(tmp), args.depth,
                                                     args.sites)
            failed += status != 0
            print(f"{case.name}: traced peak {peak / 2**20:.1f} MB"
                  + ("" if status == 0 else f" (command exited with status {status})"),
                  flush=True)
            for frame in frames:
                print(f"    {frame}", flush=True)
            for size, site in largest:
                print(f"    {size / 2**20:8.2f} MB {site}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
