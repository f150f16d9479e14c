import csv
import hashlib
import random
from statistics import fmean

import pytest

from enumcode import analysis, block_codec, cli
from enumcode.block_codec import encode
from enumcode.cli import main, sweep_file
from enumcode.combinatorics import CombinatoricsContext

from conftest import COMPOSITIONS_4_4, FIG_T, PERMS_2110
from oracles import real_bits_tolerance, reference_accounted_bits, reference_factorize
from test_acceptance import _dna_like


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_bytes(FIG_T)
    return path


class TestEncodeDecode:
    def test_round_trip(self, tmp_path, fig_file, capsys):
        enc = tmp_path / "sample.enum"
        dec = tmp_path / "sample.out"
        assert main(["encode", str(fig_file), "--alpha", "a", "--r", "2", "--out", str(enc)]) == 0
        out = capsys.readouterr().out
        assert "blocks: 6" in out
        assert "pad: 2" in out
        assert "accounted_bits_ceiled: 73" in out
        assert main(["decode", str(enc), "--out", str(dec)]) == 0
        assert sha(dec) == sha(fig_file)

    def test_one_call_does_not_leak_into_the_next(self, tmp_path, fig_file, capsys):
        # main builds its parser once per process; no option may outlive its call
        args = ["encode", str(fig_file), "--alpha", "a", "--r", "2"]
        elsewhere = tmp_path / "elsewhere.enum"
        default = tmp_path / "sample.txt.enum"
        assert main([*args, "--mode", "fixed", "--L", "8", "--out", str(elsewhere)]) == 0
        assert "mode: fixed" in capsys.readouterr().out
        assert not default.exists()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "mode: variable" in out
        assert f"output: {default}" in out
        assert default.exists()
        # a usage error, then a valid call
        assert main(["encode", str(fig_file), "--r", "two"]) == 2
        back = tmp_path / "back.txt"
        assert main(["decode", str(default), "--out", str(back)]) == 0
        assert back.read_bytes() == FIG_T

    def test_fixed_mode(self, tmp_path, fig_file):
        enc = tmp_path / "f.enum"
        dec = tmp_path / "f.out"
        assert main(["encode", str(fig_file), "--mode", "fixed", "--L", "8", "--out", str(enc)]) == 0
        assert main(["decode", str(enc), "--out", str(dec)]) == 0
        assert dec.read_bytes() == FIG_T

    def test_empty_file(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.write_bytes(b"")
        enc = tmp_path / "empty.enum"
        dec = tmp_path / "empty.out"
        assert main(["encode", str(src), "--alphabet", "a", "--alpha", "a", "--r", "2", "--out", str(enc)]) == 0
        assert "blocks: 0" in capsys.readouterr().out
        assert main(["decode", str(enc), "--out", str(dec)]) == 0
        assert dec.read_bytes() == b""

    def test_deterministic_output(self, tmp_path, fig_file, capsys):
        enc1 = tmp_path / "a.enum"
        enc2 = tmp_path / "b.enum"
        main(["encode", str(fig_file), "--alpha", "a", "--r", "2", "--out", str(enc1)])
        first = capsys.readouterr().out
        main(["encode", str(fig_file), "--alpha", "a", "--r", "2", "--out", str(enc2)])
        second = capsys.readouterr().out
        assert enc1.read_bytes() == enc2.read_bytes()
        assert first.replace(str(enc1), "") == second.replace(str(enc2), "")

    def test_fasta_input(self, tmp_path):
        src = tmp_path / "seq.fa"
        src.write_bytes(b">header line\nacgTA\ncgt\n;comment\nNN\n")
        enc = tmp_path / "seq.enum"
        dec = tmp_path / "seq.out"
        args = ["encode", str(src), "--fasta", "--fasta-map", "N=A", "--alpha", "a", "--r", "2", "--out", str(enc)]
        assert main(args) == 0
        assert main(["decode", str(enc), "--out", str(dec)]) == 0
        assert dec.read_bytes() == b"ACGTACGTAA"

    def test_fasta_alphabet_is_uppercased(self, tmp_path, capsys):
        # --fasta uppercases the sequence, so --alphabet must follow, as --alpha does
        src = tmp_path / "t.fa"
        src.write_bytes(b">h\nacgtacgtaacc\ngtt\n")
        enc = tmp_path / "t.enum"
        dec = tmp_path / "t.out"
        args = ["encode", str(src), "--fasta", "--alpha", "a", "--r", "2", "--alphabet", "tgca"]
        assert main([*args, "--out", str(enc)]) == 0
        assert "alphabet: TGCA" in capsys.readouterr().out
        assert main(["decode", str(enc), "--out", str(dec)]) == 0
        assert dec.read_bytes() == b"ACGTACGTAACCGTT"

    def test_fasta_rejects_unmapped_bases(self, tmp_path, capsys):
        src = tmp_path / "seq.fa"
        src.write_bytes(b">h\nACGTN\n")
        assert main(["encode", str(src), "--fasta", "--alpha", "A", "--r", "2"]) == 4
        assert "offset 4" in capsys.readouterr().err
        # the first foreign base is reported at its offset in the joined
        # sequence, not at a later repeat or its offset within its line
        src.write_bytes(b">h\nacgt\nacrt\n;note\nggra\n")
        assert main(["encode", str(src), "--fasta", "--alpha", "A", "--r", "2"]) == 4
        assert "byte 0x52 at offset 6 is not" in capsys.readouterr().err

    def test_fasta_map_rejects_malformed_entries(self, tmp_path, capsys):
        src = tmp_path / "seq.fa"
        src.write_bytes(b">h\nACGTN\n")
        # a FROM or TO outside Latin-1, and a FROM whose uppercase is two
        # characters, are malformed entries, not tracebacks
        for entry in ("\u0100=A", "\u00df=A", "N=\u0100", "\u00ff=A", "N=AC", "NA"):
            args = ["encode", str(src), "--fasta", "--fasta-map", entry, "--alpha", "A", "--r", "2"]
            assert main(args) == 2, entry
            assert f"bad --fasta-map entry {entry!r} (want FROM=TO)" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_input(self, tmp_path):
        assert main(["encode", str(tmp_path / "nope"), "--alpha", "a", "--r", "1"]) == 3

    def test_usage_error(self):
        assert main(["encode"]) == 2
        assert main(["bogus-command"]) == 2

    def test_variable_mode_needs_alpha(self, fig_file):
        assert main(["encode", str(fig_file)]) == 2

    def test_delimiter_must_be_one_symbol(self, tmp_path, fig_file, capsys):
        out = tmp_path / "out.enum"
        assert main(["encode", str(fig_file), "--alpha", "ag", "--r", "1", "--out", str(out)]) == 2
        assert "delimiter must be one symbol" in capsys.readouterr().err
        assert not out.exists()

    def test_block_length_wider_than_its_header_field(self, tmp_path, fig_file, capsys):
        # fixed_len is a u32 header field: rejected before anything is encoded
        enc = tmp_path / "wide.enum"
        args = ["encode", str(fig_file), "--mode", "fixed", "--L", str(2**32), "--out", str(enc)]
        assert main(args) == 2
        assert "fixed_len <= 4294967295" in capsys.readouterr().err
        assert not enc.exists()

    def test_alphabet_violation_with_offset(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"acgx")
        assert main(["encode", str(src), "--alphabet", "acgt", "--alpha", "a", "--r", "2"]) == 4
        assert "offset 3" in capsys.readouterr().err

    def test_wrong_magic(self, tmp_path):
        bad = tmp_path / "bad.enum"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["decode", str(bad)]) == 4

    def test_truncated_container(self, tmp_path, fig_file):
        enc = tmp_path / "t.enum"
        main(["encode", str(fig_file), "--alpha", "a", "--r", "2", "--out", str(enc)])
        enc.write_bytes(enc.read_bytes()[:-8])
        assert main(["decode", str(enc)]) == 5

    def test_max_output(self, tmp_path, fig_file, capsys):
        enc = tmp_path / "m.enum"
        dec = tmp_path / "m.out"
        main(["encode", str(fig_file), "--alpha", "a", "--r", "2", "--out", str(enc)])
        n = len(FIG_T)
        assert main(["decode", str(enc), "--out", str(dec), "--max-output", str(n - 1)]) == 5
        assert f"n={n} symbols, more than the output cap of {n - 1}" in capsys.readouterr().err
        assert not dec.exists()
        # a negative cap is a usage error, not a corrupt container
        assert main(["decode", str(enc), "--out", str(dec), "--max-output", "-1"]) == 2
        assert "--max-output: must be >= 0, got -1" in capsys.readouterr().err
        assert not dec.exists()
        assert main(["decode", str(enc), "--out", str(dec), "--max-output", str(n)]) == 0
        assert dec.read_bytes() == FIG_T


# Bindings src/ keeps only because perfbench/tracer.py looks them up by name.
# No command may call them, so they can be deleted once the tracer stops
# looking them up.
TRACER_ONLY = [
    (cli, "factorize"),
    (cli, "accounted_bits"),
    (cli, "container_bits"),
    (cli, "average_block_length"),
    (cli, "frequency_vector"),
    (block_codec, "sequence_to_perm_index"),
    (block_codec, "perm_index_to_sequence"),
    (CombinatoricsContext, "k_count"),
    (analysis, "multinomial"),
]


def test_commands_run_without_the_tracer_only_bindings(tmp_path, monkeypatch, capsys):
    for owner, name in TRACER_ONLY:

        def stub(*args, name=name, **kwargs):
            raise AssertionError(f"{name} is called")

        monkeypatch.setattr(owner, name, staticmethod(stub) if isinstance(owner, type) else stub)
    src = tmp_path / "dna.txt"
    data = _dna_like(3, n=3000)
    src.write_bytes(data)
    for options in (["--alpha", "a", "--r", "16"], ["--mode", "fixed", "--L", "2048"]):
        enc, dec = tmp_path / "x.enum", tmp_path / "x.out"
        assert main(["encode", str(src), "--out", str(enc), *options]) == 0
        assert main(["decode", str(enc), "--out", str(dec)]) == 0
        assert dec.read_bytes() == data
    report = tmp_path / "report.csv"
    assert main(["sweep", str(src), "--r-set", "2,16", "--L-set", "8,2048", "--out", str(report)]) == 0
    assert "skipping" not in capsys.readouterr().err
    assert report.read_text().count("\n") == 3
    for owner, name in TRACER_ONLY:  # every stub was in place throughout
        with pytest.raises(AssertionError, match=f"{name} is called"):
            getattr(owner, name)()


class TestTables:
    def test_compositions_table(self, capsys):
        assert main(["tables", "--compositions", "4", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 35
        parsed = [tuple(int(x) for x in line.split("\t")[1].split(",")) for line in lines]
        assert parsed == COMPOSITIONS_4_4
        assert [int(line.split("\t")[0]) for line in lines] == list(range(35))

    def test_perms_table(self, capsys):
        assert main(["tables", "--perms", "2,1,1,0", "--alphabet", "acgt"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines] == PERMS_2110

    def test_zero_sum_composition(self, capsys):
        assert main(["tables", "--compositions", "0", "3"]) == 0
        assert capsys.readouterr().out == "0\t0,0,0\n"

    def test_default_perm_alphabet(self, capsys):
        assert main(["tables", "--perms", "1,1"]) == 0
        assert capsys.readouterr().out == "0\tab\n1\tba\n"

    def test_guard(self, capsys):
        assert main(["tables", "--compositions", "40", "8", "--limit", "10"]) == 2

    def test_perm_alphabet_above_latin1_is_a_usage_error(self, capsys):
        assert main(["tables", "--perms", "1,1", "--alphabet", "\u03b1\u03b2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alphabet entry '\u03b1' is above U+00FF\n"

    def test_perms_entry_that_is_not_an_integer_is_named(self, capsys):
        assert main(["tables", "--perms", "1,x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --perms entry 'x' (want an integer)\n"


class TestFigure1:
    def test_csv_to_stdout(self, capsys):
        assert main(["figure1", "--sigma", "4", "--nmax", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,naive_bits,enum_bits,gap"
        assert len(lines) == 11

    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure1", "--sigma", "2", "--nmax", "5", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 5
        assert all(abs(float(r["gap"])) < 1e-9 for r in rows)

    @pytest.mark.parametrize("sigma,nmax", [(1, 3), (4, 0)])
    def test_bad_arguments_write_nothing(self, tmp_path, capsys, sigma, nmax):
        out = tmp_path / "fig.csv"
        for to in (["--out", str(out)], []):
            assert main(["figure1", "--sigma", str(sigma), "--nmax", str(nmax), *to]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
        assert not out.exists()


def make_corpus(tmp_path, count=2, n=4000):
    rng = random.Random(11)
    paths = []
    for i in range(count):
        w = [0.42, 0.08, 0.15, 0.35] if i % 2 else [0.3, 0.3, 0.2, 0.2]
        path = tmp_path / f"file{i}.txt"
        path.write_bytes(bytes(rng.choices(b"acgt", weights=w, k=n)))
        paths.append(path)
    return paths


class TestSweep:
    def test_summary_and_csv(self, tmp_path, capsys):
        paths = make_corpus(tmp_path)
        out = tmp_path / "report.csv"
        points = tmp_path / "points.csv"
        args = [
            "sweep", *(str(p) for p in paths),
            "--r-set", "2,4", "--L-set", "4,8",
            "--out", str(out), "--points", str(points),
        ]
        assert main(args) == 0
        summary = capsys.readouterr().out
        assert "average" in summary
        report_rows = list(csv.DictReader(out.open()))
        assert [r["file"] for r in report_rows] == ["file0.txt", "file1.txt", "average"]
        assert float(report_rows[0]["h0_bits_per_base"]) < 2.0
        point_rows = list(csv.DictReader(points.open()))
        # 4 alphas x 2 r values + 2 L values per file
        assert len(point_rows) == 2 * (4 * 2 + 2)
        assert sum(int(r["best"]) for r in point_rows) == 4

    def test_single_symbol_file_costs_almost_nothing(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_bytes(b"x" * 10000)
        sweep = sweep_file("mono.txt", path.read_bytes())
        # every block is uniform: no frequency or permutation bits at all,
        # just the per-block length accounting
        assert sweep.best_variable.bits_per_base < 0.1
        assert sweep.best_fixed.bits_per_base == 0.0

    def test_point_matches_independent_accounting(self, tmp_path):
        (path,) = make_corpus(tmp_path, count=1)
        # the sweep reads count vectors at the block bounds; the oracle cuts
        # every block symbol by symbol and prices it block by block
        inputs = [path.read_bytes(), *(_dna_like(seed, n=2000) for seed in (1, 2, 5))]
        inputs.append(b"acgt" * 101 + b"a")  # ends on a consumed delimiter at r=1
        for data in inputs:
            sweep = sweep_file("x", data, r_set=(1, 2, 4), l_set=(1, 4, 8))
            for point in sweep.points:
                params = point.params
                blocks = reference_factorize(data, params)
                acct = reference_accounted_bits(blocks, params)
                assert point.accounting.blocks == len(blocks)
                assert point.avg_block_len == fmean(b.length for b in blocks)
                assert point.accounting.bits_ceiled == acct.bits_ceiled
                # the arrangement terms come from the log2 k! table
                tolerance = real_bits_tolerance([b.length for b in blocks], acct.bits_real)
                real = point.accounting.bits_real
                assert real == pytest.approx(acct.bits_real, rel=0, abs=tolerance)
                assert point.bits_per_base == pytest.approx(acct.bits_ceiled / len(data))
                # the container column is the size of the container encode writes
                assert point.accounting.container_bits == 8 * len(encode(data, params).to_bytes())

    def test_fasta_alphas_are_uppercased(self, tmp_path, capsys):
        # --fasta uppercases the sequence, so a lowercase delimiter must follow,
        # as it does for encode --alpha
        src = tmp_path / "t.fa"
        src.write_bytes(b">h\nacgtacgtaacc\nggtt\n")
        points = tmp_path / "points.csv"
        args = ["sweep", str(src), "--fasta", "--alphas", "a", "--r-set", "2", "--L-set", "4"]
        assert main([*args, "--points", str(points)]) == 0
        assert "skipping" not in capsys.readouterr().err
        rows = list(csv.DictReader(points.open()))
        assert [(row["mode"], row["alpha"]) for row in rows] == [("variable", "A"), ("fixed", "")]

    def test_fasta_alphabet_is_uppercased(self, tmp_path, capsys):
        src = tmp_path / "t.fa"
        src.write_bytes(b">h\nacgtacgtaacc\ngtt\n")
        report = tmp_path / "report.csv"
        args = ["sweep", str(src), "--fasta", "--alphabet", "tgca", "--alphas", "a"]
        assert main([*args, "--r-set", "2", "--L-set", "4", "--out", str(report)]) == 0
        assert "skipping" not in capsys.readouterr().err
        row = next(csv.DictReader(report.open()))
        assert (row["counts"], row["alpha"]) == ("4 3 4 4", "A")

    def test_repeated_entries_are_usage_errors(self, tmp_path, capsys):
        # rejected before any file is read: the input does not exist
        missing = str(tmp_path / "missing.txt")
        points = tmp_path / "points.csv"
        for option, value in (("--alphas", "aa"), ("--r-set", "2,4,2"), ("--L-set", "8,8")):
            args = ["sweep", missing, option, value, "--points", str(points)]
            assert main(args) == 2, option
            err = capsys.readouterr().err
            assert f"{option} entries must be distinct" in err
            assert "skipping" not in err
        # --fasta uppercases --alphas before the check
        args = ["sweep", missing, "--fasta", "--alphas", "aA"]
        assert main(args) == 2
        assert "--alphas entries must be distinct" in capsys.readouterr().err
        assert not points.exists()

    @pytest.mark.parametrize(
        "option,value,entry", [("--r-set", "x", "'x'"), ("--L-set", "4,", "''")]
    )
    def test_entry_that_is_not_an_integer_is_named(self, tmp_path, capsys, option, value, entry):
        # rejected before any file is read: the input does not exist
        assert main(["sweep", str(tmp_path / "missing.txt"), option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad {option} entry {entry} (want an integer)\n"

    @pytest.mark.parametrize(
        "option,message",
        [
            (["--alphabet", "aacgt"], "--alphabet entries must be distinct"),
            (["--fasta", "--fasta-map", "N=AC"], "bad --fasta-map entry 'N=AC' (want FROM=TO)"),
        ],
    )
    def test_bad_alphabet_or_fasta_map_is_one_usage_error(self, tmp_path, capsys, option, message):
        # checked once, before any file is read, as encode checks them
        paths = []
        for name in ("a.fa", "b.fa"):
            path = tmp_path / name
            path.write_bytes(b">h\nacgtacgt\n")
            paths.append(str(path))
        assert main(["sweep", *paths, *option, "--r-set", "2", "--L-set", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert main(["encode", paths[0], *option, "--alpha", "A", "--r", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command", [["encode", "--alpha", "a", "--r", "2"], ["sweep", "--r-set", "2", "--L-set", "4"]]
    )
    def test_fasta_map_without_fasta_is_a_usage_error(self, tmp_path, capsys, command):
        # the map applies to --fasta input only; without --fasta it is rejected
        # before its entries are parsed and before any file is read (the input
        # does not exist)
        name, *options = command
        missing = str(tmp_path / "missing.txt")
        assert main([name, missing, "--fasta-map", "N=A,garbage", *options]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --fasta-map needs --fasta\n"
        assert captured.out == ""

    def test_alphas_outside_an_explicit_alphabet_is_one_usage_error(self, tmp_path, capsys):
        # checked once, before any file is read, as encode checks --alpha
        paths = [str(p) for p in make_corpus(tmp_path)]
        options = ["--alphabet", "acgt", "--alphas", "x", "--r-set", "2", "--L-set", "4"]
        assert main(["sweep", *paths, *options]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: delimiter symbol 0x78 is not in the alphabet\n"
        assert captured.out == ""
        assert main(["encode", paths[0], "--alphabet", "acgt", "--alpha", "x", "--r", "2"]) == 2
        assert capsys.readouterr().err == "error: delimiter symbol 0x78 is not in the alphabet\n"

    @pytest.mark.parametrize(
        "option,message",
        [
            ("--r-set", "variable mode needs 1 <= r <= 4294967295"),
            ("--L-set", "fixed mode needs 1 <= fixed_len <= 4294967295"),
        ],
    )
    def test_entry_past_its_header_field_is_one_usage_error(self, tmp_path, capsys, option, message):
        # checked once, before any file is read, as encode checks --r and --L
        paths = [str(p) for p in make_corpus(tmp_path)]
        report = tmp_path / "report.csv"
        assert main(["sweep", *paths, option, "4,4294967296", "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not report.exists()
        if option == "--r-set":
            encode_options = ["--alpha", "a", "--r", "4294967296"]
        else:
            encode_options = ["--mode", "fixed", "--L", "4294967296"]
        assert main(["encode", paths[0], *encode_options]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_alphas_outside_a_file_alphabet_skips_that_file(self, tmp_path, capsys):
        # without --alphabet each file has its own alphabet, so the check is per file
        good = make_corpus(tmp_path, count=1)[0]
        other = tmp_path / "other.txt"
        other.write_bytes(b"cgtcgtcgt")
        args = ["sweep", str(good), str(other), "--alphas", "a", "--r-set", "2", "--L-set", "4"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"sweep: skipping {other}: delimiter symbol 0x61 is not in the alphabet\n"
        )
        assert "file0.txt" in captured.out

    def test_records_cannot_be_assigned(self):
        sweep = sweep_file("x", _dna_like(1, n=2000), r_set=(2,), l_set=(4,))
        for record, name in [(sweep, "n"), (sweep.best_fixed, "avg_block_len")]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert hash(sweep.best_fixed) == hash(sweep.best_fixed)

    def test_deterministic(self, tmp_path, capsys):
        paths = make_corpus(tmp_path)
        args = ["sweep", *(str(p) for p in paths), "--r-set", "2", "--L-set", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unreadable_file_is_skipped(self, tmp_path, capsys):
        paths = make_corpus(tmp_path, count=1)
        args = ["sweep", str(paths[0]), str(tmp_path / "missing.txt"), "--r-set", "2", "--L-set", "4"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        assert "file0.txt" in captured.out

    def test_file_with_a_foreign_byte_is_skipped(self, tmp_path, capsys):
        good = make_corpus(tmp_path, count=1)[0]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"acgtaxcgt")
        args = ["--alphabet", "acgt", "--r-set", "2", "--L-set", "4"]
        assert main(["sweep", str(good), str(bad), *args]) == 0
        captured = capsys.readouterr()
        assert f"skipping {bad}: byte 0x78 at offset 5" in captured.err
        assert "file0.txt" in captured.out
        assert "bad.txt" not in captured.out
        # with nothing left to report the sweep fails as for unreadable files
        assert main(["sweep", str(bad), *args]) == 3

    def test_tie_break_prefers_smaller_r_and_earlier_symbol(self, tmp_path):
        # a uniform file gives many ties; the reported best must be stable
        data = b"abab" * 500
        sweep = sweep_file("t", data, r_set=(2, 2), l_set=(4,))
        best = sweep.best_variable
        candidates = [
            p
            for p in sweep.points
            if p.params.mode == "variable"
            and p.accounting.bits_ceiled == best.accounting.bits_ceiled
        ]
        assert best.params.r == min(p.params.r for p in candidates)
