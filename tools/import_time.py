"""Import time of ``enumcode.cli`` in fresh interpreters, and what it loads.

Usage (from the repository root):

    python3 tools/import_time.py

Every command of the CLI first imports ``enumcode.cli``, so this is the
floor of every command's time. Each sample starts a new interpreter, puts
``src/`` on ``sys.path`` and times ``import enumcode.cli`` inside the child
with ``time.perf_counter``, as ``setup_sample`` in ``perfbench/run.py``
does. It does so under ``python -I``, as perfbench measures it, and under
``python -I -S``, where ``site`` imports nothing first, so every module the
package needs is paid for by the import itself. For each flag set the
output gives the best of ``RUNS`` samples in seconds and the modules that
the import added to ``sys.modules``, as one JSON object. The interpreter
is the one that runs the script.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FLAGS = (("-I",), ("-I", "-S"))
RUNS = 9
# The child prints the import's seconds, then the modules loaded before it,
# then every module loaded after it, one line each.
CHILD = f"""\
import sys, time
sys.path.insert(0, {str(SRC)!r})
before = sorted(sys.modules)
start = time.perf_counter()
import enumcode.cli
seconds = time.perf_counter() - start
print(seconds)
print(" ".join(before))
print(" ".join(sorted(sys.modules)))
"""


def sample(flags: tuple[str, ...]) -> tuple[float, list[str], list[str]]:
    """(seconds, modules the import added, every module loaded after it) in
    one fresh interpreter started with ``flags``."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, before, after = done.stdout.splitlines()
    modules = after.split()
    return float(seconds), sorted(set(modules) - set(before.split())), modules


def main() -> None:
    out = {"python": sys.version.split()[0], "runs": RUNS}
    for flags in FLAGS:
        samples = [sample(flags) for _ in range(RUNS)]
        out[" ".join(flags)] = {
            "best_s": min(seconds for seconds, _, _ in samples),
            "loaded": samples[0][1],
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
