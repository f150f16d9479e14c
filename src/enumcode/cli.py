"""Command-line front end: encode/decode files, print enumeration tables,
emit the naive-vs-enumerated comparison CSV, and sweep codec parameters
over a corpus.

Exit codes: 0 success, 2 usage, 3 I/O, 4 format (bad container header or
input symbol outside the alphabet), 5 corrupt payload.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from collections import namedtuple
from functools import cache

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
    check_alphabet,
    container_bits,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    decode,
    encode,
    factorize,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    grid_vectors,
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
# an error's exit code is that of the first entry it is an instance of
_EXIT_CODES = (
    (CorruptContainerError, EXIT_CORRUPT),
    ((FormatError, AlphabetError), EXIT_FORMAT),
    (OSError, EXIT_IO),
    (ValueError, EXIT_USAGE),
)

R_SET_DEFAULT = (4, 8, 16, 32, 64, 128)
L_SET_DEFAULT = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def render_symbol(byte: int) -> str:
    return chr(byte) if 0x21 <= byte <= 0x7E else f"0x{byte:02x}"


def render_alphabet(alphabet: bytes) -> str:
    return "".join(render_symbol(b) for b in alphabet)


def _fasta_table(args) -> bytes | None:
    """The byte translation ``--fasta-map`` (such as ``N=A,R=G``) asks of ``--fasta`` input."""
    if not args.fasta_map:
        return None
    if not args.fasta:
        raise ValueError("--fasta-map needs --fasta")
    table = bytearray(range(256))
    for pair in args.fasta_map.split(","):
        src, _, dst = pair.upper().partition("=")
        if len(src) != 1 or len(dst) != 1 or max(ord(src), ord(dst)) > 0xFF:
            raise ValueError(f"bad --fasta-map entry {pair!r} (want FROM=TO)")
        table[ord(src)] = ord(dst)
    return bytes(table)


def read_sequence(path: str, fasta: bool = False, table: bytes | None = None) -> bytes:
    """A file's bytes; with ``fasta``, its sequence lines uppercased, mapped
    through ``table`` and checked to be ACGT."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if not fasta:
        return raw
    cleaned = bytearray()
    for line in raw.splitlines():
        line = line.strip()
        if not line or line[:1] in (b">", b";"):
            continue
        cleaned += line.upper()
    if table:
        cleaned = cleaned.translate(table)
    check_alphabet(cleaned, b"ACGT")
    return bytes(cleaned)


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def _distinct(values, option: str):
    if len(set(values)) != len(values):
        raise ValueError(f"{option} entries must be distinct")
    return values


def _symbols(text: str, args) -> bytes:
    """An option's symbols as bytes; ``--fasta`` uppercases them as it does the sequence."""
    return (text.upper() if args.fasta else text).encode("latin-1")


def _explicit_alphabet(args) -> bytes | None:
    """The ``--alphabet`` symbols, or None when the input's own bytes are the alphabet."""
    return _distinct(_symbols(args.alphabet, args), "--alphabet") if args.alphabet else None


def _build_params(data: bytes, args) -> CodecParams:
    alphabet = _explicit_alphabet(args) or bytes(sorted(set(data)))
    if args.mode == MODE_VARIABLE:
        if not args.alpha or args.r is None:
            raise ValueError("variable mode needs --alpha and --r")
        return CodecParams.variable(alphabet, _symbols(args.alpha, args), args.r, len(data))
    if args.L is None:
        raise ValueError("fixed mode needs --L")
    return CodecParams.fixed(alphabet, args.L, len(data))


def cmd_encode(args) -> int:
    data = read_sequence(args.input, args.fasta, _fasta_table(args))
    params = _build_params(data, args)
    container = encode(data, params)
    raw = container.to_bytes()
    out_path = args.out or args.input + ".enum"
    _write_bytes(out_path, raw)

    acct = container.accounting
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
    print(f"blocks: {acct.blocks}")
    print(f"pad: {container.pad}")
    print(f"container_bits: {total_bits}")
    print(f"container_bytes: {total_bits // 8}")
    print(f"accounted_bits_ceiled: {acct.bits_ceiled}")
    print(f"accounted_bits_real: {acct.bits_real:.3f}")
    print(f"accounted_bits_per_base: {acct.per_base(n):.4f}")
    print(f"container_bits_per_base: {total_bits / n if n else 0.0:.4f}")
    print(f"output: {out_path}")
    return EXIT_OK


def cmd_decode(args) -> int:
    container = EncodedContainer.from_bytes(read_sequence(args.input))
    data = decode(container, max_output=args.max_output)
    out_path = args.out
    if not out_path:
        out_path = args.input[: -len(".enum")] if args.input.endswith(".enum") else args.input + ".out"
    _write_bytes(out_path, data)
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
    counts = tuple(_int_entry(part, "--perms") for part in args.perms.split(","))
    alphabet = args.alphabet
    if not alphabet:
        if len(counts) > len(_LETTERS):
            raise ValueError("pass --alphabet for more than 26 dimensions")
        alphabet = _LETTERS[: len(counts)]
    for rank, seq in enumerate(enumerate_perms(counts, alphabet, limit=args.limit)):
        print(f"{rank}\t{seq}")
    return EXIT_OK


def cmd_figure1(args) -> int:
    table = io.StringIO()  # built whole, its arguments checked, before a line is written
    write_comparison_csv(table, args.sigma, args.nmax)
    if args.out:
        _write_bytes(args.out, table.getvalue().encode())
    else:
        sys.stdout.write(table.getvalue())
    return EXIT_OK


class SweepPoint(namedtuple("SweepPoint", "params accounting avg_block_len")):
    """One grid point: the params it was priced under and what :func:`vector_bits` returned."""

    __slots__ = ()

    @property
    def bits_per_base(self) -> float:
        return self.accounting.per_base(self.params.n)


class FileSweep(
    namedtuple(
        "FileSweep",
        "file_id n counts h0_bits_per_base points best_variable best_fixed best_variable_rcap",
    )
):
    """One file's grid: every point, and the best variable, fixed and
    largest-r variable point among them."""

    __slots__ = ()


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
    counts = tuple(map(data.count, alphabet))
    n = len(data)
    grid = [CodecParams.variable(alphabet, alpha, r, n) for alpha in alphas for r in r_set]
    grid += [CodecParams.fixed(alphabet, fixed_len, n) for fixed_len in l_set]
    points: list[SweepPoint] = []
    # checks data against the alphabet before the first point's vectors
    for params, vectors in zip(grid, grid_vectors(data, grid)):
        average = sum(map(sum, vectors)) / len(vectors)
        points.append(SweepPoint(params, vector_bits(vectors, params), average))

    def cost(p: SweepPoint) -> tuple[int, int, int]:
        # ties go to the smaller r (or L), then to the delimiter earlier in the alphabet
        params = p.params
        return p.accounting.bits_ceiled, params.r or params.fixed_len, params.alpha_index or 0

    variable_points = [p for p in points if p.params.mode == MODE_VARIABLE]
    best_variable = min(variable_points, key=cost)
    best_fixed = min((p for p in points if p.params.mode == MODE_FIXED), key=cost)
    r_cap = max(r_set)
    best_variable_rcap = min((p for p in variable_points if p.params.r == r_cap), key=cost)
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


# The report's columns: CSV name and format, then the summary's title, width
# and format; the summary leaves out a column without a title.
_REPORT_COLUMNS = (
    ("file", "", "file", "<16", ""),
    ("n", "", "n", ">9", ""),
    ("counts", "", "", "", ""),
    ("h0_bits_per_base", ".6f", "h0_bpb", ">8", ".4f"),
    ("fixed_bits_per_base", ".6f", "fixed_bpb", ">10", ".4f"),
    ("fixed_L", "", "L", ">5", ""),
    ("variable_bits_per_base", ".6f", "var_bpb", ">8", ".4f"),
    ("alpha", "", "alpha", ">5", ""),
    ("r", "", "r", ">4", ""),
    ("avg_block_length", ".2f", "avg_blk", ">8", ".1f"),
    ("variable_rmax_bits_per_base", ".6f", "var_rmax_bpb", ">13", ".4f"),
    ("rmax_alpha", "", "alpha", ">5", ""),
)


def report_rows(sweeps: list[FileSweep]) -> list[list]:
    """One row of raw values per file with its bests, then an averages row:
    "average", the mean of each bits-per-base column, and None elsewhere."""
    rows = []
    for sweep in sweeps:
        fixed, var, rcap = sweep.best_fixed, sweep.best_variable, sweep.best_variable_rcap
        rows.append(
            [
                sweep.file_id,
                sweep.n,
                " ".join(str(c) for c in sweep.counts),
                sweep.h0_bits_per_base,
                fixed.bits_per_base,
                fixed.params.fixed_len,
                var.bits_per_base,
                render_symbol(var.params.alpha_byte),
                var.params.r,
                var.avg_block_len,
                rcap.bits_per_base,
                render_symbol(rcap.params.alpha_byte),
            ]
        )
    if rows:
        columns = list(zip(_REPORT_COLUMNS, zip(*rows)))[1:]
        means = (
            sum(values) / len(values) if name.endswith("bits_per_base") else None
            for (name, *_), values in columns
        )
        rows.append(["average", *means])
    return rows


def _cells(row: list, formats, empty: str) -> list[str]:
    """A report row's values in their formats, ``empty`` for None."""
    return [empty if v is None else format(v, fmt) for v, fmt in zip(row, formats)]


def print_sweep_summary(rows: list[list]) -> None:
    """The report rows under the titles, "-" in an empty cell."""
    _, _, titles, widths, formats = zip(*_REPORT_COLUMNS)
    for cells in [titles, *(_cells(row, formats, "-") for row in rows)]:
        shown = (format(cell, width) for cell, width, title in zip(cells, widths, titles) if title)
        print(" ".join(shown))


def report_csv_rows(rows: list[list]) -> list:
    """The report rows under the CSV header, an empty cell left empty."""
    names, formats, *_ = zip(*_REPORT_COLUMNS)
    return [names, *(_cells(row, formats, "") for row in rows)]


def point_rows(sweeps: list[FileSweep]):
    """Every grid point, including the exact container sizes, under the CSV header."""
    yield [
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
    for sweep in sweeps:
        for p in sweep.points:
            params, acct = p.params, p.accounting
            yield [
                sweep.file_id,
                params.mode,
                render_symbol(params.alpha_byte) if params.alpha_index else "",
                params.r or "",
                params.fixed_len or "",
                acct.blocks,
                f"{p.avg_block_len:.2f}",
                acct.bits_ceiled,
                f"{p.bits_per_base:.6f}",
                f"{acct.bits_real:.3f}",
                f"{acct.bits_real / sweep.n:.6f}",
                acct.container_bits,
                f"{acct.container_bits / sweep.n:.6f}",
                int(p is sweep.best_variable or p is sweep.best_fixed),
            ]


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_entry(part: str, option: str) -> int:
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"bad {option} entry {part!r} (want an integer)") from None


def _parse_int_set(text: str, option: str) -> tuple[int, ...]:
    values = tuple(_int_entry(part, option) for part in text.split(","))
    if not values or any(v < 1 for v in values):
        raise ValueError("parameter sets need positive integers")
    return _distinct(values, option)


def cmd_sweep(args) -> int:
    r_set = _parse_int_set(args.r_set, "--r-set") if args.r_set else R_SET_DEFAULT
    l_set = _parse_int_set(args.L_set, "--L-set") if args.L_set else L_SET_DEFAULT
    alphas = None
    if args.alphas:
        alphas = _distinct(_symbols(args.alphas, args), "--alphas")
    # checked once, before any file is read: a bad option is a usage error; the
    # largest r and L raise as encode does on an --r or --L past its u32 field
    CodecParams.variable(b"a", b"a", max(r_set), 0)
    CodecParams.fixed(b"a", max(l_set), 0)
    alphabet = _explicit_alphabet(args)
    if alphabet and alphas:
        for alpha in alphas:  # raises as encode does on an --alpha outside --alphabet
            CodecParams.variable(alphabet, alpha, 1, 0)
    table = _fasta_table(args)
    sweeps: list[FileSweep] = []
    failures = 0
    for path in sorted(args.inputs):
        try:
            data = read_sequence(path, args.fasta, table)
            sweeps.append(
                sweep_file(
                    os.path.basename(path),
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
    rows = report_rows(sweeps)
    print_sweep_summary(rows)
    if args.out:
        _write_csv(args.out, report_csv_rows(rows))
    if args.points:
        _write_csv(args.points, point_rows(sweeps))
    if not sweeps and failures:
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumcode",
        description="Enumerative coding of sequences over small alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the input options encode and sweep share
    symbols = argparse.ArgumentParser(add_help=False)
    symbols.add_argument("--alphabet", help="explicit alphabet in significance order")
    symbols.add_argument("--fasta", action="store_true", help="strip FASTA headers, uppercase")
    symbols.add_argument("--fasta-map", help="extra base mapping, e.g. N=A,R=G")

    p = sub.add_parser("encode", parents=[symbols], help="encode a file into a container")
    p.add_argument("input")
    p.add_argument("--mode", choices=[MODE_VARIABLE, MODE_FIXED], default=MODE_VARIABLE)
    p.add_argument("--alpha", help="delimiter symbol (variable mode)")
    p.add_argument("--r", type=int, help="delimiter occurrences per block (variable mode)")
    p.add_argument("--L", type=int, help="block length (fixed mode)")
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

    p = sub.add_parser("sweep", parents=[symbols], help="evaluate the parameter grid over a corpus")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--alphas", help="candidate delimiter symbols (default: whole alphabet)")
    p.add_argument("--r-set", dest="r_set", help="comma-separated r values")
    p.add_argument("--L-set", dest="L_set", help="comma-separated fixed block lengths")
    p.add_argument("--out", help="write the per-file report CSV here")
    p.add_argument("--points", help="write the per-point detail CSV here")
    p.set_defaults(func=cmd_sweep)

    return parser


# built on the first call, not at import; parse_args keeps no state between calls
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
