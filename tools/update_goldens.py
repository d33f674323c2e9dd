"""Rewrite tests/data/outputs.json, the golden manifest of CLI artifacts.

    python3 tools/update_goldens.py

Runs every case of `GOLDEN_CASES` in tests/test_cli.py in-process at seed 3
and one thread, and records the sha256 and the text of each artifact, with
the numpy version and the platform.  `test_outputs_match_golden_manifest`
reruns the cases, the threaded ones at their thread count, and compares.
A change that moves the manifest names the files that moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _test_cli():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("test_cli", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def manifest(cli) -> dict:
    """The manifest of the cases in `cli`, the loaded tests/test_cli.py."""
    cases = {}
    with tempfile.TemporaryDirectory(prefix="goldens-") as tmp:
        for i, (args, body, threads) in enumerate(cli.GOLDEN_CASES):
            files = cli.run_golden_case(args, body, 1, Path(tmp) / str(i))
            cases[cli.golden_case_id(args, body, threads)] = {
                name: {"sha256": hashlib.sha256(data).hexdigest(), "text": data.decode()}
                for name, data in files.items()}
    return {"environment": cli.golden_environment(), "cases": cases}


def main() -> int:
    cli = _test_cli()
    out = cli.GOLDEN_MANIFEST
    out.write_text(json.dumps(manifest(cli), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
