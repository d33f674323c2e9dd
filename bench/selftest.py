"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

For every workload it makes one tiny pass with tracing off and one with
tracing on, and requires that the result line names every metric of
BENCHMARK.json with its unit and that every output check passes.  Then it
runs a case whose expected value is deliberately wrong and requires that the
failure is counted, so the checker cannot pass vacuously.  Takes about a
minute; exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from workloads import WORKLOADS

SEED = 1

# Sizes small enough for a quick pass but large enough that every check still
# holds at SEED (the outputs are deterministic given the seed).
TINY = {
    "exp-triangular": {"M": 20}, "exp-emery": {"M": 20},
    "rp-regression": {"M": 500}, "rp-nested": {"M": 20, "inner_paths": 16},
    "linear-triangular": {"M": 1000}, "linear-left-outer": {"M": 1000},
    "linear-regression": {"M": 1000}, "linear-perturbed": {"M": 1000},
    "quadratic-unidirectional": {"M": 2000}, "quadratic-cole-hopf": {"M": 2000},
    "exit-pi4": {"M": 300}, "exit-pi3": {"M": 300},
    "nonexistence": {"paths_per_level": 100}, "emery": {"M": 500},
    "equivalence": {"depths": [2, 4]},
    "oracle-duality": {"instances": 10}, "oracle-bsde": {"instances": 10},
}


def tiny_workloads() -> dict:
    return {name: tuple(case.with_config(**TINY[case.name]) for case in cases)
            for name, cases in WORKLOADS.items()}


def run_harness(workloads: dict, workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)], workloads=workloads)
    text = out.getvalue()
    require(code == 0, f"{workload} trace={trace}: exit code {code}")
    return json.loads(text.strip().splitlines()[-1]), text


def require(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = tiny_workloads()
    require(set(workloads) == {w["name"] for w in spec["workloads"]},
            "BENCHMARK.json workloads differ from bench/workloads.py")
    for workload in workloads:
        for trace in (0, 1):
            result, text = run_harness(workloads, workload, trace)
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                    f"{workload} trace={trace}: checks failed\n{text}")
            for metric in named[trace]:
                got = result["metrics"].get(metric["name"])
                require(got is not None and got["unit"] == metric["unit"],
                        f"{workload} trace={trace}: {metric['name']} missing or "
                        f"not in {metric['unit']}: {got}")
            print(f"selftest: {workload} trace={trace} ok "
                  f"({result['attempted']} checks, {len(result['metrics'])} metrics)")

    wrong = workloads["backward"][-1].with_expect(y0=0.7)     # Cole-Hopf Y_0 is 1/2
    result, text = run_harness({"backward": (wrong,)}, "backward", 0)
    require(not result["correct"] and result["failed"] >= 1,
            f"a wrong expected Cole-Hopf Y_0 was not counted as a failure\n{text}")
    print(f"selftest: wrong expected value counted ({result['failed']} of "
          f"{result['attempted']} checks failed)")
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
