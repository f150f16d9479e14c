"""Command-line front end: encode/decode files, print enumeration tables,
emit the naive-vs-enumerated comparison CSV, and sweep codec parameters
over a corpus.

Exit codes: 0 success, 2 usage, 3 I/O, 4 format (bad container header or
input symbol outside the alphabet), 5 corrupt payload.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

from .analysis import finite_set_h0, write_comparison_csv
from .block_codec import (
    AlphabetError,
    CodecParams,
    CorruptContainerError,
    DEFAULT_MAX_OUTPUT,
    EncodedContainer,
    FormatError,
    MODE_FIXED,
    MODE_VARIABLE,
    accounted_bits,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    average_block_length,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    block_vectors,
    check_alphabet,
    container_bits,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    decode,
    delimiter_positions,
    encode,
    factorize,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    vector_bits,
)
from .composition_codec import enumerate_all, format_vector
from .permutation_codec import (
    enumerate_perms,
    frequency_vector,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_CORRUPT = 5

R_SET_DEFAULT = (4, 8, 16, 32, 64, 128)
L_SET_DEFAULT = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def render_symbol(byte: int) -> str:
    return chr(byte) if 0x21 <= byte <= 0x7E else f"0x{byte:02x}"


def render_alphabet(alphabet: bytes) -> str:
    return "".join(render_symbol(b) for b in alphabet)


def read_sequence(path: str, fasta: bool = False, fasta_map: str | None = None) -> bytes:
    raw = Path(path).read_bytes()
    if not fasta:
        return raw
    cleaned = bytearray()
    for line in raw.splitlines():
        line = line.strip()
        if not line or line[:1] in (b">", b";"):
            continue
        cleaned += line.upper()
    if fasta_map:
        table = bytearray(range(256))
        for pair in fasta_map.split(","):
            src, _, dst = pair.upper().partition("=")
            if len(src) != 1 or len(dst) != 1 or max(ord(src), ord(dst)) > 0xFF:
                raise ValueError(f"bad --fasta-map entry {pair!r} (want FROM=TO)")
            table[ord(src)] = ord(dst)
        cleaned = cleaned.translate(bytes(table))
    check_alphabet(cleaned, b"ACGT")
    return bytes(cleaned)


def _distinct(values, option: str):
    if len(set(values)) != len(values):
        raise ValueError(f"{option} entries must be distinct")
    return values


def _symbols(text: str, args) -> bytes:
    """An option's symbols as bytes; ``--fasta`` uppercases them as it does the sequence."""
    return (text.upper() if args.fasta else text).encode("latin-1")


def discover_alphabet(data: bytes, args) -> bytes:
    if args.alphabet:
        return _distinct(_symbols(args.alphabet, args), "--alphabet")
    return bytes(sorted(set(data)))


def _build_params(data: bytes, args) -> CodecParams:
    alphabet = discover_alphabet(data, args)
    if args.mode == MODE_VARIABLE:
        if not args.alpha or args.r is None:
            raise ValueError("variable mode needs --alpha and --r")
        return CodecParams.variable(alphabet, _symbols(args.alpha, args), args.r, len(data))
    if args.L is None:
        raise ValueError("fixed mode needs --L")
    return CodecParams.fixed(alphabet, args.L, len(data))


def cmd_encode(args) -> int:
    data = read_sequence(args.input, args.fasta, args.fasta_map)
    params = _build_params(data, args)
    raw = encode(data, params).to_bytes()
    out_path = args.out or args.input + ".enum"
    Path(out_path).write_bytes(raw)

    vectors, pad = block_vectors(data, params)
    acct = vector_bits(vectors, params)
    total_bits = 8 * len(raw)
    n = params.n
    print(f"input: {args.input}")
    print(f"n: {n}")
    print(f"sigma: {params.sigma}")
    print(f"alphabet: {render_alphabet(params.alphabet)}")
    print(f"mode: {params.mode}")
    if params.mode == MODE_VARIABLE:
        print(f"alpha: {render_symbol(params.alpha_byte)}")
        print(f"r: {params.r}")
    else:
        print(f"L: {params.fixed_len}")
    print(f"blocks: {len(vectors)}")
    print(f"pad: {pad}")
    print(f"container_bits: {total_bits}")
    print(f"container_bytes: {total_bits // 8}")
    print(f"accounted_bits_ceiled: {acct.bits_ceiled}")
    print(f"accounted_bits_real: {acct.bits_real:.3f}")
    print(f"accounted_bits_per_base: {acct.per_base(n):.4f}")
    print(f"container_bits_per_base: {total_bits / n if n else 0.0:.4f}")
    print(f"output: {out_path}")
    return EXIT_OK


def cmd_decode(args) -> int:
    raw = Path(args.input).read_bytes()
    container = EncodedContainer.from_bytes(raw)
    data = decode(container, max_output=args.max_output)
    out_path = args.out
    if not out_path:
        out_path = args.input[: -len(".enum")] if args.input.endswith(".enum") else args.input + ".out"
    Path(out_path).write_bytes(data)
    print(f"input: {args.input}")
    print(f"n: {len(data)}")
    print(f"output: {out_path}")
    return EXIT_OK


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def cmd_tables(args) -> int:
    if args.compositions:
        inner_sum, sigma = args.compositions
        for rank, vec in enumerate(enumerate_all(inner_sum, sigma, limit=args.limit)):
            print(f"{rank}\t{format_vector(vec)}")
        return EXIT_OK
    counts = tuple(int(part) for part in args.perms.split(","))
    alphabet = args.alphabet
    if not alphabet:
        if len(counts) > len(_LETTERS):
            raise ValueError("pass --alphabet for more than 26 dimensions")
        alphabet = _LETTERS[: len(counts)]
    for rank, seq in enumerate(enumerate_perms(counts, alphabet, limit=args.limit)):
        print(f"{rank}\t{seq}")
    return EXIT_OK


def cmd_figure1(args) -> int:
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_comparison_csv(handle, args.sigma, args.nmax)
    else:
        write_comparison_csv(sys.stdout, args.sigma, args.nmax)
    return EXIT_OK


@dataclass(frozen=True)
class SweepPoint:
    """One (file, mode, parameters) evaluation of the grid."""

    file_id: str
    n: int
    mode: str
    alpha: int | None
    r: int | None
    fixed_len: int | None
    blocks: int
    avg_block_len: float
    bits_ceiled: int
    bits_real: float
    container_bits: int

    @property
    def bits_per_base(self) -> float:
        return self.bits_ceiled / self.n if self.n else 0.0


@dataclass(frozen=True)
class FileSweep:
    file_id: str
    n: int
    counts: tuple[int, ...]
    h0_bits_per_base: float
    points: list[SweepPoint]
    best_variable: SweepPoint
    best_fixed: SweepPoint
    best_variable_rcap: SweepPoint  # best constrained to the largest r in the grid


def sweep_file(
    file_id: str,
    data: bytes,
    *,
    alphabet: bytes | None = None,
    alphas: bytes | None = None,
    r_set: tuple[int, ...] = R_SET_DEFAULT,
    l_set: tuple[int, ...] = L_SET_DEFAULT,
) -> FileSweep:
    """Evaluate the full parameter grid on one file.

    Bits-per-base figures use the whole-bit field accounting, priced from
    each block's count vector alone. Best points minimize that figure; ties
    break toward smaller r (or L) and then the earlier alphabet symbol, so
    reports are reproducible.
    """
    if not data:
        raise ValueError("cannot sweep an empty file")
    alphabet = alphabet or bytes(sorted(set(data)))
    alphas = alphas or alphabet
    check_alphabet(data, alphabet)
    counts = tuple(map(data.count, alphabet))
    n = len(data)

    # each delimiter's offsets are found once and serve every r
    positions = {alpha: delimiter_positions(data, alpha) for alpha in alphas}
    grid = [
        (CodecParams.variable(alphabet, alpha, r, n), positions[alpha])
        for alpha in alphas
        for r in r_set
    ]
    grid += [(CodecParams.fixed(alphabet, fixed_len, n), None) for fixed_len in l_set]
    points: list[SweepPoint] = []
    for params, delimiters in grid:
        vectors, _ = block_vectors(data, params, delimiters)
        acct = vector_bits(vectors, params)
        points.append(
            SweepPoint(
                file_id=file_id,
                n=n,
                mode=params.mode,
                alpha=params.alpha_byte if params.mode == MODE_VARIABLE else None,
                r=params.r,
                fixed_len=params.fixed_len,
                blocks=len(vectors),
                avg_block_len=fmean(map(sum, vectors)),
                bits_ceiled=acct.bits_ceiled,
                bits_real=acct.bits_real,
                container_bits=acct.container_bits,
            )
        )

    alpha_order = {byte: pos for pos, byte in enumerate(alphabet)}
    variable_points = [p for p in points if p.mode == MODE_VARIABLE]
    fixed_points = [p for p in points if p.mode == MODE_FIXED]
    best_variable = min(
        variable_points, key=lambda p: (p.bits_ceiled, p.r, alpha_order[p.alpha])
    )
    best_fixed = min(fixed_points, key=lambda p: (p.bits_ceiled, p.fixed_len))
    r_cap = max(r_set)
    best_variable_rcap = min(
        (p for p in variable_points if p.r == r_cap),
        key=lambda p: (p.bits_ceiled, alpha_order[p.alpha]),
    )
    return FileSweep(
        file_id,
        n,
        counts,
        finite_set_h0(counts) / n,
        points,
        best_variable,
        best_fixed,
        best_variable_rcap,
    )


_REPORT_COLUMNS = [
    "file",
    "n",
    "counts",
    "h0_bits_per_base",
    "fixed_bits_per_base",
    "fixed_L",
    "variable_bits_per_base",
    "alpha",
    "r",
    "avg_block_length",
    "variable_rmax_bits_per_base",
    "rmax_alpha",
]


def _averages(sweeps: list[FileSweep]) -> list[float]:
    """Mean h0, best fixed, best variable and best r-capped variable bits per base."""
    rows = [
        (
            s.h0_bits_per_base,
            s.best_fixed.bits_per_base,
            s.best_variable.bits_per_base,
            s.best_variable_rcap.bits_per_base,
        )
        for s in sweeps
    ]
    return [sum(column) / len(sweeps) for column in zip(*rows)]


def write_report_csv(stream, sweeps: list[FileSweep]) -> None:
    """One row per file with the per-file bests, then an averages row."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    for sweep in sweeps:
        fixed, var, rcap = sweep.best_fixed, sweep.best_variable, sweep.best_variable_rcap
        writer.writerow(
            [
                sweep.file_id,
                sweep.n,
                " ".join(str(c) for c in sweep.counts),
                f"{sweep.h0_bits_per_base:.6f}",
                f"{fixed.bits_per_base:.6f}",
                fixed.fixed_len,
                f"{var.bits_per_base:.6f}",
                render_symbol(var.alpha),
                var.r,
                f"{var.avg_block_len:.2f}",
                f"{rcap.bits_per_base:.6f}",
                render_symbol(rcap.alpha),
            ]
        )
    if sweeps:
        h0, fixed, variable, rcap = (f"{mean:.6f}" for mean in _averages(sweeps))
        writer.writerow(["average", "", "", h0, fixed, "", variable, "", "", "", rcap, ""])


_DETAIL_COLUMNS = [
    "file",
    "mode",
    "alpha",
    "r",
    "L",
    "blocks",
    "avg_block_len",
    "bits_ceiled",
    "bits_per_base",
    "bits_real",
    "real_per_base",
    "container_bits",
    "container_per_base",
    "best",
]


def write_points_csv(stream, sweeps: list[FileSweep]) -> None:
    """Every grid point, including the exact container sizes."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_DETAIL_COLUMNS)
    for sweep in sweeps:
        for p in sweep.points:
            writer.writerow(
                [
                    p.file_id,
                    p.mode,
                    render_symbol(p.alpha) if p.alpha is not None else "",
                    p.r if p.r is not None else "",
                    p.fixed_len if p.fixed_len is not None else "",
                    p.blocks,
                    f"{p.avg_block_len:.2f}",
                    p.bits_ceiled,
                    f"{p.bits_per_base:.6f}",
                    f"{p.bits_real:.3f}",
                    f"{p.bits_real / p.n:.6f}",
                    p.container_bits,
                    f"{p.container_bits / p.n:.6f}",
                    int(p is sweep.best_variable or p is sweep.best_fixed),
                ]
            )


def print_sweep_summary(sweeps: list[FileSweep]) -> None:
    header = (
        f"{'file':<16} {'n':>9} {'h0_bpb':>8} {'fixed_bpb':>10} {'L':>5} "
        f"{'var_bpb':>8} {'alpha':>5} {'r':>4} {'avg_blk':>8} "
        f"{'var_rmax_bpb':>13} {'alpha':>5}"
    )
    print(header)
    for sweep in sweeps:
        fixed, var, rcap = sweep.best_fixed, sweep.best_variable, sweep.best_variable_rcap
        print(
            f"{sweep.file_id:<16} {sweep.n:>9} {sweep.h0_bits_per_base:>8.4f} "
            f"{fixed.bits_per_base:>10.4f} {fixed.fixed_len:>5} "
            f"{var.bits_per_base:>8.4f} {render_symbol(var.alpha):>5} "
            f"{var.r:>4} {var.avg_block_len:>8.1f} "
            f"{rcap.bits_per_base:>13.4f} {render_symbol(rcap.alpha):>5}"
        )
    if sweeps:
        avg_h0, avg_fixed, avg_var, avg_rcap = _averages(sweeps)
        print(
            f"{'average':<16} {'-':>9} {avg_h0:>8.4f} {avg_fixed:>10.4f} {'-':>5} "
            f"{avg_var:>8.4f} {'-':>5} {'-':>4} {'-':>8} {avg_rcap:>13.4f} {'-':>5}"
        )


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_int_set(text: str, option: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in text.split(","))
    if not values or any(v < 1 for v in values):
        raise ValueError("parameter sets need positive integers")
    return _distinct(values, option)


def cmd_sweep(args) -> int:
    r_set = _parse_int_set(args.r_set, "--r-set") if args.r_set else R_SET_DEFAULT
    l_set = _parse_int_set(args.L_set, "--L-set") if args.L_set else L_SET_DEFAULT
    alphas = None
    if args.alphas:
        alphas = _distinct(_symbols(args.alphas, args), "--alphas")
    sweeps: list[FileSweep] = []
    failures = 0
    for path in sorted(args.inputs):
        try:
            data = read_sequence(path, args.fasta, args.fasta_map)
            alphabet = discover_alphabet(data, args)
            sweeps.append(
                sweep_file(
                    Path(path).name,
                    data,
                    alphabet=alphabet,
                    alphas=alphas,
                    r_set=r_set,
                    l_set=l_set,
                )
            )
        except (OSError, ValueError) as exc:
            failures += 1
            print(f"sweep: skipping {path}: {exc}", file=sys.stderr)
    print_sweep_summary(sweeps)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_report_csv(handle, sweeps)
    if args.points:
        with open(args.points, "w", newline="") as handle:
            write_points_csv(handle, sweeps)
    if not sweeps and failures:
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumcode",
        description="Enumerative coding of sequences over small alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a file into a container")
    p.add_argument("input")
    p.add_argument("--mode", choices=[MODE_VARIABLE, MODE_FIXED], default=MODE_VARIABLE)
    p.add_argument("--alpha", help="delimiter symbol (variable mode)")
    p.add_argument("--r", type=int, help="delimiter occurrences per block (variable mode)")
    p.add_argument("--L", type=int, help="block length (fixed mode)")
    p.add_argument("--alphabet", help="explicit alphabet in significance order")
    p.add_argument("--fasta", action="store_true", help="strip FASTA headers, uppercase")
    p.add_argument("--fasta-map", help="extra base mapping, e.g. N=A,R=G")
    p.add_argument("--out", help="output path (default: INPUT.enum)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a container back to the original bytes")
    p.add_argument("input")
    p.add_argument("--out", help="output path (default: INPUT without .enum)")
    p.add_argument(
        "--max-output",
        type=non_negative_int,
        default=DEFAULT_MAX_OUTPUT,
        metavar="BYTES",
        help=f"refuse a container declaring more output bytes (default: {DEFAULT_MAX_OUTPUT})",
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("tables", help="print a rank-ordered enumeration")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--compositions",
        nargs=2,
        type=int,
        metavar=("SUM", "SIGMA"),
        help="all SIGMA-dimensional count vectors with the given inner sum",
    )
    group.add_argument(
        "--perms", metavar="C1,C2,...", help="all arrangements of the given multiset"
    )
    p.add_argument("--alphabet", help="symbols for --perms (default: a, b, c, ...)")
    p.add_argument("--limit", type=int, default=200_000)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("figure1", help="CSV comparing naive vs enumerated vector coding")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("sweep", help="evaluate the parameter grid over a corpus")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--alphas", help="candidate delimiter symbols (default: whole alphabet)")
    p.add_argument("--r-set", dest="r_set", help="comma-separated r values")
    p.add_argument("--L-set", dest="L_set", help="comma-separated fixed block lengths")
    p.add_argument("--alphabet", help="explicit alphabet in significance order")
    p.add_argument("--fasta", action="store_true")
    p.add_argument("--fasta-map", help="extra base mapping, e.g. N=A,R=G")
    p.add_argument("--out", help="write the per-file report CSV here")
    p.add_argument("--points", help="write the per-point detail CSV here")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FormatError, AlphabetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CorruptContainerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
