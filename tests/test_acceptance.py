"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen. Criterion 6 fails by design: its 0.2-bit tolerance around the
(sigma-1)*log2(sigma-1) estimate cannot be met by an exact evaluation
(details in its comment and assertion message), and it is not loosened.
Criterion 4's first reference rank was a misprint (396); it is corrected
to 618, the rank a brute-force enumeration gives.
"""

import math
import os
import random
import time
from collections import Counter
from itertools import permutations, product
from pathlib import Path

from enumcode.analysis import enumeration_gain, finite_set_h0
from enumcode.block_codec import (
    CodecParams,
    EncodedContainer,
    decode,
    encode,
    factorize,
)
from enumcode.cli import main, read_sequence, sweep_file
from enumcode.combinatorics import k_count, multinomial
from enumcode.composition_codec import enumerate_all, index_to_vector, vector_to_index
from enumcode.permutation_codec import enumerate_perms, sequence_to_perm_index

from conftest import COMPOSITIONS_4_4, FIG_FREQS, FIG_LENGTHS, FIG_T, PERMS_2110
from oracles import k_count_sum_form



def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_composition_table(capsys):
    with _Timer() as t:
        assert main(["tables", "--compositions", "4", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        emitted = [tuple(int(x) for x in line.split("\t")[1].split(",")) for line in lines]
        table_ok = emitted == COMPOSITIONS_4_4 and len(lines) == 35
        round_trip_ok = all(
            vector_to_index(vec) == rank and index_to_vector(rank, 4, 4) == vec
            for rank, vec in enumerate(COMPOSITIONS_4_4)
        )
    with capsys.disabled():
        _criterion(
            1,
            "35-row composition table in rank order, all rows round-trip",
            table_ok and round_trip_ok and t.elapsed < 1.0,
            f"{t.elapsed:.2f}s",
        )


def test_criterion_2_worked_rank_with_trace():
    with _Timer() as t:
        trace = []
        rank = vector_to_index((2, 1, 1, 0), trace=trace)
    _criterion(
        2,
        "rank of (2,1,1,0) is 29 with addends 15+10+3+1",
        rank == 29 and trace == [15, 10, 3, 1] and t.elapsed < 1.0,
        f"rank={rank}, trace={trace}, {t.elapsed:.2f}s",
    )


def test_criterion_3_permutation_table(capsys):
    with _Timer() as t:
        assert main(["tables", "--perms", "2,1,1,0", "--alphabet", "acgt"]) == 0
        lines = capsys.readouterr().out.splitlines()
        emitted = [line.split("\t")[1] for line in lines]
        table_ok = emitted == PERMS_2110
        rank_ok = sequence_to_perm_index("agca", "acgt") == 5
    with capsys.disabled():
        _criterion(
            3,
            "12-row permutation table in rank order, agca ranks 5",
            table_ok and rank_ok and t.elapsed < 1.0,
            f"{t.elapsed:.2f}s",
        )


def test_criterion_4_reference_factorization_end_to_end():
    # The published first rank reads 396, which is "gtacagt", not
    # "ttgaacg": a misprint. The lexicographic order that the agca=5
    # example, the 12-row table and the other five block ranks all pin down
    # places "ttgaacg" at 618 among the 630 arrangements of (2,1,2,2); no
    # other alphabet order, string direction or rank base matches all six.
    # The brute-force enumeration below is asserted too, so the expected
    # value rests on it rather than on sequence_to_perm_index.
    expected_ranks = (618, 852, 11, 11, 7, 2)
    with _Timer() as t:
        params = CodecParams.variable(b"acgt", b"a", 2, len(FIG_T))
        blocks = factorize(FIG_T, params)
        lengths_ok = [b.length for b in blocks] == FIG_LENGTHS
        freqs_ok = [b.freq for b in blocks] == FIG_FREQS
        ranks = tuple(sequence_to_perm_index(b.content, params.alphabet) for b in blocks)
        ranks_ok = ranks == expected_ranks
        round_trip_ok = decode(encode(FIG_T, params)) == FIG_T
    brute = sorted(set(permutations(sorted("ttgaacg"))))
    brute_rank = brute.index(tuple("ttgaacg"))
    brute_ok = brute_rank == ranks[0]
    _criterion(
        4,
        "reference factorization: lengths, frequency vectors, perm ranks, round trip",
        lengths_ok and freqs_ok and ranks_ok and brute_ok and round_trip_ok and t.elapsed < 1.0,
        f"lengths_ok={lengths_ok}, freqs_ok={freqs_ok}, round_trip_ok={round_trip_ok}, "
        f"ranks={ranks} vs expected {expected_ranks}, brute-force rank of first block={brute_rank}, "
        f"{t.elapsed:.2f}s",
    )


def test_criterion_5_count_identity_and_brute_force():
    with _Timer() as t:
        identity_ok = all(
            k_count(sigma, n) == k_count_sum_form(sigma, n)
            for sigma in range(1, 9)
            for n in range(65)
        )
        brute_ok = True
        for sigma in range(1, 6):
            by_sum = Counter(sum(t) for t in product(range(13), repeat=sigma))
            brute_ok = brute_ok and all(
                k_count(sigma, n) == by_sum[n] for n in range(13)
            )
    _criterion(
        5,
        "closed form == summation form (sigma 1..8, n 0..64) == brute force (sigma 1..5, n 0..12)",
        identity_ok and brute_ok and t.elapsed < 10.0,
        f"{t.elapsed:.2f}s",
    )


def test_criterion_6_gain_convergence():
    with _Timer() as t:
        results = {}
        for sigma in (4, 20, 128, 256):
            estimate = (sigma - 1) * math.log2(sigma - 1)
            dev_large = abs(enumeration_gain(sigma, 10**7) - estimate)
            dev_small = abs(enumeration_gain(sigma, 10**3) - estimate)
            results[sigma] = (dev_large, dev_small)
        within_tolerance = all(dev_large < 0.2 for dev_large, _ in results.values())
        shrinking = all(dev_large < dev_small for dev_large, dev_small in results.values())
    # The exact gain converges to log2((sigma-1)!), which sits
    # (sigma-1)*log2(e) - 0.5*log2(2*pi*(sigma-1)) bits below the
    # (sigma-1)*log2(sigma-1) estimate this criterion compares against
    # (2.17 bits at sigma=4, 362.6 at sigma=256), so the 0.2-bit clause is
    # unsatisfiable for any correct implementation; the monotone-shrink
    # clause holds.
    detail = ", ".join(
        f"sigma={s}: dev@1e7={dl:.3f}, dev@1e3={ds:.3f}" for s, (dl, ds) in results.items()
    )
    _criterion(
        6,
        "gain within 0.2 bits of (sigma-1)*log2(sigma-1) at n=1e7 and closer than at n=1e3",
        within_tolerance and shrinking and t.elapsed < 5.0,
        f"{detail}, {t.elapsed:.2f}s",
    )


def _fuzz_cases(rng, total=1000):
    alphabets = [b"ab", b"acgt", bytes(range(ord("A"), ord("A") + 20))]
    r_choices = [1, 2, 4, 16]
    l_choices = [1, 3, 8, 64]

    cases = []
    # deterministic edges: empty, all-delimiter, delimiter-terminal inputs
    for alphabet in alphabets:
        cases.append((b"", CodecParams.variable(alphabet, alphabet[0], 2, 0)))
        cases.append((b"", CodecParams.fixed(alphabet, 4, 0)))
        for r in (1, 4):
            alpha = alphabet[0]
            data = bytes([alpha]) * (3 * r + 1)
            cases.append((data, CodecParams.variable(alphabet, alpha, r, len(data))))
            # blocks of exactly r delimiters joined and terminated by one more
            chunk = bytes([alpha]) * r + bytes([alphabet[-1]]) * 2
            data = b"".join(chunk + bytes([alpha]) for _ in range(3))
            cases.append((data, CodecParams.variable(alphabet, alpha, r, len(data))))
        # every delimiter choice gets at least one case
        for alpha in alphabet:
            data = bytes(rng.choices(alphabet, k=rng.randint(0, 64)))
            params = CodecParams.variable(alphabet, alpha, rng.choice(r_choices), len(data))
            cases.append((data, params))

    while len(cases) < total:
        alphabet = rng.choice(alphabets)
        bucket = rng.random()
        if bucket < 0.85:
            n = rng.randint(0, 256)
        elif bucket < 0.97:
            n = rng.randint(257, 2048)
        else:
            alphabet = b"acgt"
            n = rng.randint(2049, 10**4)
        data = bytes(rng.choices(alphabet, k=n))
        if rng.random() < 0.5:
            alpha = alphabet[rng.randrange(len(alphabet))]
            params = CodecParams.variable(alphabet, alpha, rng.choice(r_choices), n)
        else:
            params = CodecParams.fixed(alphabet, rng.choice(l_choices), n)
        cases.append((data, params))
    return cases[:total]


def test_criterion_7_round_trip_fuzzing():
    rng = random.Random(20260810)
    with _Timer() as t:
        cases = _fuzz_cases(rng)
        failures = 0
        for data, params in cases:
            container = EncodedContainer.from_bytes(encode(data, params).to_bytes())
            if decode(container) != data:
                failures += 1
    _criterion(
        7,
        "1000 randomized containers decode byte-identically in both modes",
        failures == 0 and t.elapsed < 60.0,
        f"failures={failures}, {t.elapsed:.2f}s",
    )


# Size, per-symbol counts, and per-base entropy column of the reference
# 11-file DNA corpus results; the entropy check is pure arithmetic on the
# counts.
CORPUS_TABLE = [
    ("chmpxx", 121024, (42896, 17309, 17556, 43263), 1.866),
    ("chntxx", 155844, (47824, 29991, 28992, 49037), 1.957),
    ("hehcmv", 229354, (49475, 64911, 66192, 48776), 1.985),
    ("humdyst", 38770, (12001, 7161, 7011, 12597), 1.946),
    ("humghcs", 66495, (17311, 16271, 16441, 16472), 1.999),
    ("humhbb", 73308, (22068, 14146, 14785, 22309), 1.967),
    ("humhdab", 58864, (13422, 14846, 15906, 14690), 1.997),
    ("humprtb", 56737, (15689, 11281, 11599, 18168), 1.970),
    ("mpomtcg", 186609, (53206, 39215, 39924, 54264), 1.983),
    ("mtpacga", 100314, (35804, 13428, 16724, 34358), 1.879),
    ("vaccg", 191737, (63921, 32010, 32030, 63776), 1.919),
]


def _dna_like(seed, n=30000):
    """Synthetic DNA-like data: abrupt compositional segments, heavy skew."""
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


def _find_corpus():
    root = os.environ.get("ENUMCODE_DNA_CORPUS")
    if not root:
        return None
    paths = {}
    for name, _, _, _ in CORPUS_TABLE:
        matches = sorted(Path(root).glob(f"{name}*"))
        if not matches:
            return None
        paths[name] = matches[0]
    return paths


def test_criterion_8_corpus_entropy_and_sweep():
    with _Timer() as t:
        h0_failures = []
        for name, n, counts, expected in CORPUS_TABLE:
            per_base = finite_set_h0(counts) / n
            if abs(per_base - expected) > 0.001:
                h0_failures.append((name, per_base))
        h0_ok = not h0_failures

        corpus = _find_corpus()
        if corpus:
            sweeps = []
            for name, path in sorted(corpus.items()):
                raw = path.read_bytes()
                if raw[:1] == b">":
                    data = read_sequence(str(path), fasta=True).lower()
                else:
                    data = b"".join(raw.lower().split())
                sweeps.append(sweep_file(name, data))
            count = len(sweeps)
            avg_h0 = sum(s.h0_bits_per_base for s in sweeps) / count
            avg_fixed = sum(s.best_fixed.bits_per_base for s in sweeps) / count
            avg_var = sum(s.best_variable.bits_per_base for s in sweeps) / count
            sweep_ok = (
                abs(avg_h0 - 1.952) <= 0.02
                and abs(avg_fixed - 1.961) <= 0.02
                and abs(avg_var - 1.946) <= 0.02
            )
            sweep_detail = (
                f"corpus averages h0={avg_h0:.3f}, fixed={avg_fixed:.3f}, var={avg_var:.3f}"
            )
        else:
            wins = 0
            for seed in range(10):
                sweep = sweep_file(f"synthetic{seed}", _dna_like(seed))
                wins += (
                    sweep.best_variable.accounting.bits_ceiled
                    <= sweep.best_fixed.accounting.bits_ceiled
                )
            sweep_ok = wins >= 8
            sweep_detail = f"corpus unavailable; variable <= fixed on {wins}/10 synthetic files"
    _criterion(
        8,
        "per-file H0 within 0.001 of the reference column; sweep comparison",
        h0_ok and sweep_ok and t.elapsed < 300.0,
        f"h0_failures={h0_failures or 'none'}, {sweep_detail}, {t.elapsed:.1f}s",
    )


def test_criterion_9_oracle_equivalence():
    with _Timer() as t:
        perm_ok = True
        letters = "abcd"
        for sigma in range(1, 5):
            alphabet = letters[:sigma]
            for total in range(0, 8):
                for counts in enumerate_all(total, sigma):
                    if multinomial(counts) > 10**4:
                        continue
                    ids = [j for j, c in enumerate(counts) for _ in range(c)]
                    brute = [
                        "".join(alphabet[j] for j in p)
                        for p in sorted(set(permutations(ids)))
                    ]
                    rows = enumerate_perms(counts, alphabet)
                    perm_ok = perm_ok and rows == brute
                    perm_ok = perm_ok and all(
                        sequence_to_perm_index(seq, alphabet) == rank
                        for rank, seq in enumerate(rows)
                    )

        comp_ok = True
        for sigma in range(1, 5):
            for total in range(0, 9):
                brute = sorted(
                    t for t in product(range(total + 1), repeat=sigma) if sum(t) == total
                )
                rows = enumerate_all(total, sigma)
                comp_ok = comp_ok and rows == brute
                comp_ok = comp_ok and all(
                    vector_to_index(vec) == rank for rank, vec in enumerate(rows)
                )
    _criterion(
        9,
        "rank orders equal brute-force generation (permutations and compositions)",
        perm_ok and comp_ok and t.elapsed < 60.0,
        f"{t.elapsed:.2f}s",
    )
