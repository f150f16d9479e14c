"""Pin the SHA-256 digests the benchmark checks outputs against.

Runs every input of every workload's pool through the current program and
writes ``digests.json``. Run it only when a change alters container bytes or
sweep CSVs on purpose, and say so in that change:

    python3 perfbench/pin.py

Each entry holds, separated by spaces, the first 16 hex digits of the
SHA-256 of the input, the container, the sweep report CSV and the sweep
points CSV.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, WORK_PARENT, WORKLOADS, Runner, import_enumcode


def pin(workload: str, cli) -> dict:
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"pin-{workload}-", dir=WORK_PARENT)
    try:
        runner = Runner(workload, cli, Path(workdir), pinned=None)
        for k in range(WORKLOADS[workload].pool):
            runner.rep(k)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.failed:
        raise SystemExit(f"{workload}: {runner.failed} operations failed: {runner.errors}")
    spec = WORKLOADS[workload]
    return {
        "n": spec.n,
        "pool": spec.pool,
        "digests": [" ".join(runner.recorded[k]) for k in range(spec.pool)],
    }


def main() -> int:
    cli = import_enumcode()["cli"]
    table = {}
    for workload in sorted(WORKLOADS):
        table[workload] = pin(workload, cli)
        print(f"pinned {workload}: {table[workload]['pool']} inputs", flush=True)
    with open(DIGESTS, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
