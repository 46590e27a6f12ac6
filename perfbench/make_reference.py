"""Rebuild ``reference.json`` from the CLI.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Runs ``python -m repro <tool> <scenario> --json`` once per cell of the
request domain, in the pinned environment, and records the exit code and
the verdict.  Rebuild it only when a change is meant to alter verdicts;
a benchmark run fails every request whose verdict differs from it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import WORK, pinned_env  # noqa: E402
from perfbench.oracle import (REFERENCE_PATH, cli_argv,  # noqa: E402
                              document_verdict, domain, reference_key)


def build_reference() -> dict:
    env = pinned_env()
    WORK.mkdir(exist_ok=True)
    reference = {}
    for cell in domain():
        cwd = tempfile.mkdtemp(prefix="ref-", dir=WORK)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *cli_argv(*cell)],
                cwd=cwd, env=env, capture_output=True, text=True,
                timeout=120)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        if done.returncode not in (0, 1):
            raise SystemExit(f"{cell}: exit {done.returncode}\n{done.stderr}")
        reference[reference_key(*cell)] = {
            "exit": done.returncode,
            "verdict": document_verdict(cell[0], json.loads(done.stdout))}
        print(reference_key(*cell), done.returncode, file=sys.stderr)
    return reference


if __name__ == "__main__":
    table = build_reference()
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} cells to {REFERENCE_PATH}")
