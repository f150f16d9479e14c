"""Measure a change against its parent in alternating perfbench pairs.

Usage (from the repository root, under any installed Python 3.10 or later):

    python3 tools/bench_snapshot.py --parent DIR --change DIR --workload W \
        [--workload W2 ...] --pairs N --seconds S --seed0 K --pr P [--note TEXT]

DIR is a checkout of each side, for example a ``git archive`` of the parent
commit and one of the change. Pair i runs ``perfbench/run.py --workload W
--seed K+i --seconds S --trace 0`` once in each checkout, each run in a fresh
interpreter, the parent first in even pairs and the change first in odd
ones; within a pair index the workloads run in the order given. The end-to-end
metrics, which way each is better, come from the change's ``BENCHMARK.json``.

It writes ``BENCH_<P>.json`` in the current directory, in the schema of the
earlier ``BENCH_*.json`` files: per workload and metric, each side's median,
quartiles (``statistics.quantiles``, inclusive), min and max, the ratio of
the medians (change / parent), the pairs the change won and lost (ties count
for neither), whether the gap between the medians exceeds the parent's
quartile spread, and every pair's ratio; per workload and side, the failed
and attempted operations; and the host probe perfbench takes before each
run, with the machine. A run that exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a fresh interpreter, parsed by :func:`parse_run`."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {done.returncode}\n{done.stderr}")
    return parse_run(done.stdout)


def parse_run(stdout: str) -> dict:
    """The metrics, failure counts, machine and host probe of one run's output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next(json.loads(line[len("machine: ") :]) for line in lines if line.startswith("machine: "))
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "machine": machine,
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles, min and max of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarise_metric(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over pairs: ``parent[i]`` and ``change[i]`` ran as pair i."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    return {
        "better": better,
        "parent": before,
        "change": after,
        "ratio_of_medians": after["median"] / before["median"] if before["median"] else None,
        "change_wins": wins,
        "change_losses": losses,
        "median_gap_exceeds_parent_iqr": abs(after["median"] - before["median"])
        > before["q3"] - before["q1"],
        "pair_ratios": [c / p if p else None for p, c in zip(parent, change)],
    }


def summarise_workload(pairs: list[tuple[dict, dict]], seeds: list[int], better: dict[str, str]) -> dict:
    """A workload's entry from its (parent run, change run) pairs."""
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    return {
        "pairs": len(pairs),
        "seeds": seeds,
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
        "metrics": {
            name: summarise_metric(
                [r["metrics"][name] for r in sides["parent"]],
                [r["metrics"][name] for r in sides["change"]],
                direction,
            )
            for name, direction in better.items()
        },
    }


def snapshot(runs: dict[str, list[tuple[dict, dict]]], seeds: dict[str, list[int]], better: dict[str, str]) -> dict:
    """Machine, host probe and every workload's entry of a whole measurement."""
    every = [pair for pairs in runs.values() for pair in pairs]
    machine = every[0][1]["machine"]
    return {
        "machine": {key: machine[key] for key in ("python", "implementation", "nproc", "cpu_model")},
        "host_probe_s": {
            side: spread([pair[i]["machine"]["host_probe_s"]["before"] for pair in every])
            for i, side in enumerate(("parent", "change"))
        },
        "workloads": {
            workload: summarise_workload(pairs, seeds[workload], better)
            for workload, pairs in runs.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 for quartiles")

    with open(args.change / "BENCHMARK.json") as handle:
        better = {metric["name"]: metric["better"] for metric in json.load(handle)["end_to_end"]}
    runs: dict[str, list[tuple[dict, dict]]] = {workload: [] for workload in args.workload}
    seeds = {workload: [args.seed0 + i for i in range(args.pairs)] for workload in args.workload}
    for i in range(args.pairs):
        for workload in args.workload:
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            done = {side: run(checkout, workload, args.seed0 + i, args.seconds) for side, checkout in order}
            runs[workload].append((done["parent"], done["change"]))
            ratio = done["change"]["metrics"]["decode_MBps"] / done["parent"]["metrics"]["decode_MBps"]
            print(f"pair {i} {workload}: decode_MBps change/parent {ratio:.3f}", file=sys.stderr)

    method = (
        f"tools/bench_snapshot.py: perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
        "--trace 0 in a checkout of the parent and one of the change, each run in its own "
        f"fresh interpreter; {args.pairs} pairs per workload, seeds {args.seed0}-"
        f"{args.seed0 + args.pairs - 1}, the parent first in even pairs; quartiles by "
        "statistics.quantiles(method='inclusive'); host_probe_s is the probe perfbench takes "
        "before each run"
    )
    out = {"pr": args.pr, "change": args.note, "method": method, **snapshot(runs, seeds, better)}
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
