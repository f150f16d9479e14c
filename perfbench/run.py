"""enumcode benchmark: encode, decode and sweep through the CLI, in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload dna-var-r16 --seed 1 --seconds 30 --trace 0

Each repetition runs ``enumcode.cli.main`` on one fresh input from the
workload's pool of pinned inputs: encode, decode and sweep, each timed on its
own. Every output is checked (round trip, SHA-256 digests pinned in
``digests.json``) and every failure is counted. The host's speed drifts by up
to half over tens of seconds, so each time metric comes from the fastest
repetition; README.md in this directory explains why.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a fixed number of repetitions run under the tracer. The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK_PARENT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

ALPHABET = "acgt"
# Repetitions every run makes whatever the time; the deterministic metrics
# (bits per base) come from these first ones only.
FIXED_REPS = 32
SETUP_SAMPLES = 20


@dataclass(frozen=True)
class Workload:
    n: int  # symbols per input
    pool: int  # pinned inputs; a run walks them from a seed-chosen start
    encode: tuple[str, ...] | None  # None: encode at the best point the sweep found
    sweep: tuple[str, ...]
    trace_reps: int  # repetitions of a traced run


# Why each workload exists is in README.md: per-block overhead (var-r16),
# permutation ranks of multi-kilobit integers (fixed-8k), counting work
# whose ranks are thrown away (sweep-5k). Each pool holds about ten times the
# repetitions a 30 s run makes today, so a program several times faster still
# runs the whole 30 s on fresh inputs.
WORKLOADS = {
    "dna-var-r16": Workload(
        n=16_000,
        pool=3072,
        encode=("--alpha", "a", "--r", "16"),
        sweep=("--alphas", "a", "--r-set", "16", "--L-set", "64"),
        trace_reps=40,
    ),
    "dna-fixed-8k": Workload(
        n=8192,
        pool=1024,
        encode=("--mode", "fixed", "--L", "8192"),
        sweep=("--alphas", "a", "--r-set", "16", "--L-set", "8192"),
        trace_reps=32,
    ),
    "dna-sweep-5k": Workload(
        n=5000,
        pool=1152,
        encode=None,
        sweep=(),
        trace_reps=24,
    ),
}


def dna_like(seed, n: int) -> bytes:
    """Synthetic DNA-like data: abrupt compositional segments, heavy skew.

    The generator of the acceptance suite (tests/test_acceptance.py).
    """
    rng = random.Random(seed)
    comps = [
        [0.55, 0.05, 0.08, 0.32],
        [0.15, 0.38, 0.32, 0.15],
        [0.34, 0.16, 0.05, 0.45],
    ]
    out = bytearray()
    prev = None
    while len(out) < n:
        comp = rng.choice([c for c in comps if c is not prev] or comps)
        prev = comp
        seg = rng.randint(300, 1200)
        out += bytes(rng.choices(b"acgt", weights=comp, k=min(seg, n - len(out))))
    return bytes(out)


def pool_input(workload: str, k: int) -> bytes:
    return dna_like(f"{workload}:{k}", WORKLOADS[workload].n)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def import_enumcode() -> dict:
    """Import the package from the checkout's ``src``; exit 2 if it is not there.

    Returns each layer's module by its short name.
    """
    if not (SRC / "enumcode" / "__init__.py").is_file():
        print(f"perfbench: no enumcode package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import enumcode.cli  # noqa: F401

    return {layer: sys.modules[f"enumcode.{layer}"] for layer in LAYERS}


class Runner:
    """Runs one repetition's CLI operations and checks every output.

    With ``pinned`` set to None it records the digests instead of checking
    them (this is how ``pin.py`` makes ``digests.json``).
    """

    def __init__(self, workload: str, cli, workdir: Path, pinned: list[str] | None):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.cli = cli
        if pinned is not None and len(pinned) != self.spec.pool:
            raise SystemExit(
                f"perfbench: {len(pinned)} pinned digests for a pool of {self.spec.pool}; run pin.py"
            )
        self.pinned = None if pinned is None else [entry.split() for entry in pinned]
        self.recorded: dict[int, list[str]] = {}
        self.input = workdir / "input.dna"
        self.container = workdir / "input.dna.enum"
        self.decoded = workdir / "decoded.dna"
        self.report = workdir / "report.csv"
        self.points = workdir / "points.csv"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, k: int, op: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"input {k} {op}: {why}")

    def _check(self, k: int, op: str, fields: dict[int, bytes]) -> bool:
        """Compare outputs (digest field -> bytes) with their pinned digests.

        An operation with several mismatching outputs counts as one failure.
        """
        values = {field: digest(data) for field, data in fields.items()}
        if self.pinned is None:
            for field, value in values.items():
                self.recorded.setdefault(k, ["", "", "", ""])[field] = value
            return True
        wrong = [
            f"digest {value} differs from pinned {self.pinned[k][field]}"
            for field, value in values.items()
            if self.pinned[k][field] != value
        ]
        if wrong:
            self._fail(k, op, "; ".join(wrong))
        return not wrong

    def _main(self, k: int, op: str, argv: list[str], outputs: tuple[Path, ...]) -> float | None:
        """Time one ``cli.main`` call; None when it failed.

        ``outputs`` are removed first, so that a command which writes nothing
        cannot pass on an earlier repetition's files.
        """
        self.attempted += 1
        for path in outputs:
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        gc.collect()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                start = perf_counter()
                code = self.cli.main(argv)
                elapsed = perf_counter() - start
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            self._fail(k, op, f"raised {exc!r}")
            return None
        if code != 0:
            self._fail(k, op, f"exit code {code}: {sink.getvalue().strip()[-200:]}")
            return None
        return elapsed

    def sweep(self, k: int) -> tuple[float | None, dict | None]:
        """Seconds (None unless both CSVs match their digests) and the report's
        best point and average bits per base (None: no readable report)."""
        argv = ["sweep", str(self.input), "--alphabet", ALPHABET]
        argv += ["--out", str(self.report), "--points", str(self.points), *self.spec.sweep]
        elapsed = self._main(k, "sweep", argv, (self.report, self.points))
        if elapsed is None:
            return None, None
        try:
            report = self.report.read_bytes()
            points = self.points.read_bytes()
            rows = list(csv.DictReader(io.StringIO(report.decode())))
            best, average = rows[0], rows[-1]
            parsed = {
                "alpha": best["alpha"],
                "r": best["r"],
                "bits_per_base": float(average["variable_bits_per_base"]),
            }
        except Exception as exc:  # a missing or malformed report is a counted failure
            self._fail(k, "sweep", f"unreadable report: {exc!r}")
            return None, None
        ok = self._check(k, "sweep", {2: report, 3: points})
        return (elapsed if ok else None), parsed

    def encode(self, k: int, args) -> tuple[float | None, int]:
        """Seconds (None unless the container matches its digest) and container bits (0: failed)."""
        argv = ["encode", str(self.input), "--alphabet", ALPHABET]
        argv += ["--out", str(self.container), *args]
        elapsed = self._main(k, "encode", argv, (self.container,))
        if elapsed is None:
            return None, 0
        try:
            container = self.container.read_bytes()
        except OSError as exc:
            self._fail(k, "encode", f"no container: {exc!r}")
            return None, 0
        ok = self._check(k, "encode", {1: container})
        return (elapsed if ok else None), 8 * len(container)

    def decode(self, k: int, data: bytes) -> float | None:
        argv = ["decode", str(self.container), "--out", str(self.decoded)]
        elapsed = self._main(k, "decode", argv, (self.decoded,))
        if elapsed is None:
            return None
        try:
            decoded = self.decoded.read_bytes()
        except OSError as exc:
            self._fail(k, "decode", f"no output: {exc!r}")
            return None
        if decoded != data:
            self._fail(k, "decode", "round trip differs from the input")
            return None
        return elapsed

    def rep(self, k: int) -> dict:
        """One repetition on pool input ``k``: every operation, checked.

        Returns the seconds of each operation that succeeded and the bits
        per base this input gives.
        """
        data = pool_input(self.name, k)
        if not self._check(k, "input", {0: data}):
            raise SystemExit(f"perfbench: input {k} differs from the pinned one (generator changed?)")
        self.input.write_bytes(data)
        times: dict[str, float] = {}
        args = self.spec.encode
        sweep_time, report = self.sweep(k)
        if sweep_time is not None:
            times["sweep"] = sweep_time
        if args is None:
            if report is None:
                return {"times": times, "bits_per_base": None}
            args = ("--alpha", report["alpha"], "--r", report["r"])
        encode_time, bits = self.encode(k, args)
        if encode_time is not None:
            times["encode"] = encode_time
        if bits:  # decode whatever encode wrote, even a container that failed its digest
            decode_time = self.decode(k, data)
            if decode_time is not None:
                times["decode"] = decode_time
        if self.spec.encode is None:
            bpb = report["bits_per_base"]
        else:
            bpb = bits / len(data) if bits else None
        return {"times": times, "bits_per_base": bpb}


def setup_sample() -> float:
    """Seconds a fresh interpreter spends importing ``enumcode.cli``."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        "import enumcode.cli\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip())


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop (best of three): host speed, not program speed."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
    }


def start_index(seed: int, pool: int) -> int:
    return random.Random(seed).randrange(pool)


def summary(values: list[float]) -> dict:
    values = sorted(values)
    return {
        "reps": len(values),
        "min_s": values[0],
        "median_s": statistics.median(values),
        "p90_s": values[min(len(values) - 1, int(0.9 * len(values)))],
    }


def measure(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the diagnostics behind them."""
    spec = runner.spec
    first = start_index(seed, spec.pool)
    times: dict[str, list[float]] = {"encode": [], "decode": [], "sweep": []}
    bpb: list[float] = []
    setup = [setup_sample()]  # the first import may also compile bytecode
    setup_every = seconds / SETUP_SAMPLES
    next_setup = perf_counter() + setup_every
    deadline = perf_counter() + seconds
    reps = 0
    while reps < spec.pool and (reps < FIXED_REPS or perf_counter() < deadline):
        result = runner.rep((first + reps) % spec.pool)
        for op, value in result["times"].items():
            times[op].append(value)
        if reps < FIXED_REPS and result["bits_per_base"] is not None:
            bpb.append(result["bits_per_base"])
        reps += 1
        # fresh-import samples are spread over the run like the repetitions
        if perf_counter() >= next_setup:
            setup.append(setup_sample())
            next_setup += setup_every
    setup.append(setup_sample())
    if not all(times.values()) or not bpb:
        raise SystemExit("perfbench: an operation never succeeded: " + "; ".join(runner.errors))

    n = spec.n
    metrics = {
        "setup_s": (min(setup), "s"),
        "encode_MBps": (n / 1e6 / min(times["encode"]), "MB/s"),
        "decode_MBps": (n / 1e6 / min(times["decode"]), "MB/s"),
        "sweep_kbase_per_s": (n / 1e3 / min(times["sweep"]), "kbase/s"),
        "bits_per_base": (statistics.fmean(bpb), "bit/base"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    diagnostics = {
        "reps": reps,
        "pool_exhausted": reps >= spec.pool and perf_counter() < deadline,
        "ops": {op: summary(values) for op, values in times.items()},
        "setup_samples_s": setup,
    }
    return metrics, diagnostics


def measure_traced(runner: Runner, modules: dict, seed: int, reps: int, span_path: Path | None):
    """Traced run: per-layer metrics over ``reps`` repetitions.

    Each input runs once untraced and then once traced; the ratio of the two
    summed times is the tracing overhead.
    """
    spec = runner.spec
    first = start_index(seed, spec.pool)
    tracer = Tracer()
    plain = traced = 0.0
    for j in range(reps):
        k = (first + j) % spec.pool
        plain += sum(runner.rep(k)["times"].values())
        tracer.recording = j == 0
        tracer.trace_id = k
        tracer.install(modules)
        try:
            traced += sum(runner.rep(k)["times"].values())
        finally:
            tracer.uninstall()
    units = {name: unit for name, unit, _ in metric_names()}
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / plain if plain else 0.0
    if span_path is not None:
        tracer.write_spans(span_path)
    return {name: (values[name], unit) for name, unit in units.items()}, tracer


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_enumcode()
    with open(DIGESTS) as handle:
        pinned = json.load(handle)[args.workload]["digests"]

    info = machine()
    probe_before = host_probe()
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        runner = Runner(args.workload, modules["cli"], workdir, pinned)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, _ = measure_traced(
                runner, modules, args.seed, runner.spec.trace_reps, span_path
            )
            diagnostics = {"spans_file": str(span_path.relative_to(ROOT))}
        else:
            metrics, diagnostics = measure(runner, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass
    info["host_probe_s"] = {"before": probe_before, "after": host_probe()}

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("machine: " + json.dumps(info))
    print("diagnostics: " + json.dumps(diagnostics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    fail_ratio = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"ops {runner.attempted}  failed {runner.failed}  fail_ratio {fail_ratio}")
    for error in runner.errors:
        print(f"failure: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
