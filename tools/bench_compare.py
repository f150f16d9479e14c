"""Chain the change/parent ratios of every committed ``BENCH_*.json``.

Usage (from anywhere, under any installed Python 3.10 or later):

    python3 tools/bench_compare.py

It reads every ``BENCH_*.json`` at the repository root, each in the schema
``tools/bench_snapshot.py`` writes, and orders them by their ``pr``. For each
workload and end-to-end metric it prints the running product of
``ratio_of_medians`` (change / parent) in PR order, so the column of PR P is
the ratio chained from the first PR to P, and it names the PRs whose
``median_gap_exceeds_parent_iqr`` is true. Each ratio compares a change with
its parent in one session; the products chain ratios from different
sessions, so they show a trajectory, not one measurement. A PR whose file
lacks a workload leaves that workload's product as it was ("-" in its
column). The last line is one JSON object with the same figures. A file that
cannot be read or parsed, or that lacks a key of that schema, stops the
script with a non-zero exit and a message naming the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> tuple[int, dict[str, dict[str, tuple[float, bool]]]]:
    """(pr, workload -> metric -> (ratio of medians, gap past the parent's IQR)) of one file."""
    try:
        snapshot = json.loads(path.read_text())
        ratios = {
            workload: {
                metric: (
                    float(entry["ratio_of_medians"]),
                    bool(entry["median_gap_exceeds_parent_iqr"]),
                )
                for metric, entry in body["metrics"].items()
            }
            for workload, body in snapshot["workloads"].items()
        }
        return int(snapshot["pr"]), ratios
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{path}: unreadable: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SystemExit(f"{path}: missing or malformed key: {exc!r}") from None


def chain(paths: list[Path]) -> dict:
    """The running products and gap PRs of the files at ``paths``, in PR order."""
    snapshots: dict[int, tuple[Path, dict]] = {}
    for path in paths:
        pr, ratios = load(path)
        if pr in snapshots:
            raise SystemExit(f"{path}: pr {pr} is also {snapshots[pr][0]}")
        snapshots[pr] = path, ratios
    prs = sorted(snapshots)
    # workload -> metric -> its figures, in the order the files first name them
    chained: dict[str, dict[str, dict]] = {}
    for pr in prs:
        for workload, metrics in snapshots[pr][1].items():
            for metric in metrics:
                chained.setdefault(workload, {}).setdefault(
                    metric, {"running": {}, "product": 1.0, "gap_prs": []}
                )
    for pr in prs:
        path, ratios = snapshots[pr]
        for workload, metrics in chained.items():
            if workload not in ratios:
                continue
            for metric, figures in metrics.items():
                if metric not in ratios[workload]:
                    raise SystemExit(f"{path}: missing or malformed key: {workload}/{metric}")
                ratio, gap = ratios[workload][metric]
                figures["product"] *= ratio
                figures["running"][pr] = figures["product"]
                if gap:
                    figures["gap_prs"].append(pr)
    return {"prs": prs, "chained": chained}


def table(result: dict) -> list[str]:
    """The printed rows: one per workload and metric, a column per PR."""
    prs = result["prs"]
    rows = [["workload", "metric", *map(str, prs), "gap past parent IQR"]]
    for workload, metrics in result["chained"].items():
        for metric, figures in metrics.items():
            running = [figures["running"].get(pr) for pr in prs]
            cells = ["-" if value is None else f"{value:.3f}" for value in running]
            gaps = " ".join(map(str, figures["gap_prs"])) or "-"
            rows.append([workload, metric, *cells, gaps])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    ]


def main(root: Path = ROOT) -> int:
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        raise SystemExit(f"{root}: no BENCH_*.json")
    result = chain(paths)
    for line in table(result):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
