"""Rewrite tests/data/outputs.json, the golden manifest of CLI artifacts.

    python3 tools/update_goldens.py

Runs every case of `GOLDEN_CASES` in tests/test_cli.py at seed 3 and one
thread, in the one pinned child process that the golden test runs them in
(`run_golden_cases`), and records the sha256 and the text of each artifact
with the environment of that child.  `test_outputs_match_golden_manifest`
reruns the cases, the threaded ones at their thread count, and compares.

Before it writes, it prints each artifact whose sha256 moved against the
committed manifest, with the largest relative difference of its numbers
(`tools/compare_outputs.py`'s `compare_file`), and the count of artifacts
that did not move.  A change that moves the manifest names those files and
says why.
"""

from __future__ import annotations

import importlib.util
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _test_cli():
    sys.path.insert(0, str(ROOT / "src"))
    return _load("test_cli", ROOT / "tests" / "test_cli.py")


def manifest(cli) -> dict:
    """The manifest of the cases in `cli`, the loaded tests/test_cli.py."""
    with tempfile.TemporaryDirectory(prefix="goldens-") as tmp:
        files, environment = cli.run_golden_cases(
            [(args, body, 1) for args, body, _ in cli.GOLDEN_CASES], Path(tmp))
    cases = {}
    for (args, body, threads), outputs in zip(cli.GOLDEN_CASES, files):
        cases[cli.golden_case_id(args, body, threads)] = {
            name: {"sha256": hashlib.sha256(data).hexdigest(), "text": data.decode()}
            for name, data in outputs.items()}
    return {"environment": environment, "cases": cases}


def moved(old: dict, new: dict) -> list:
    """Lines naming each artifact of manifest `new` whose sha256 differs from
    manifest `old`, with the largest relative difference of its numbers,
    then the count of unchanged artifacts."""
    compare_file = _load("compare_outputs", ROOT / "tools" / "compare_outputs.py").compare_file
    lines, unchanged = [], 0
    with tempfile.TemporaryDirectory(prefix="goldens-moved-") as tmp:
        for case in sorted(set(old["cases"]) | set(new["cases"])):
            was, now = old["cases"].get(case, {}), new["cases"].get(case, {})
            for name in sorted(set(was) | set(now)):
                if name not in was or name not in now:
                    lines.append(f"{case}/{name}: {'new' if name in now else 'removed'}")
                elif was[name]["sha256"] == now[name]["sha256"]:
                    unchanged += 1
                else:
                    a, b = Path(tmp) / "old", Path(tmp) / "new"
                    for side, entry in ((a, was[name]), (b, now[name])):
                        side.mkdir(exist_ok=True)
                        (side / name).write_text(entry["text"])
                    lines.append(f"{case}/{name}: {compare_file(a / name, b / name)}")
    return lines + [f"{unchanged} artifact(s) unchanged"]


def main() -> int:
    cli = _test_cli()
    out = cli.GOLDEN_MANIFEST
    new = manifest(cli)
    if out.exists():
        old = json.loads(out.read_text())
        print("\n".join(moved(old, new) + cli.environment_differences(
            old["environment"], new["environment"])))
    out.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
