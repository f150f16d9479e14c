"""Byte-exact outputs pinned by SHA-256.

Sweep CSVs, the printed sweep summary, containers and the encode report
are the program's contract: a change to any byte of them must be on
purpose. All but the summary digests were recorded from the
implementation that ranked every block during factorization, so they also
pin that rank-free factorization changes nothing a user sees.
"""

import hashlib

import pytest

from enumcode.cli import main

from test_acceptance import _dna_like

SEEDS = (0, 1, 2)
N = 10_000

ENCODINGS = {
    "var-a-16": ["--alpha", "a", "--r", "16"],
    "fixed-64": ["--mode", "fixed", "--L", "64"],
    "fixed-2048": ["--mode", "fixed", "--L", "2048"],
}

# seed -> output -> SHA-256; "summary" is the sweep's printed table, and
# "<encoding>-stdout" is the encode report with the scratch directory
# replaced by "D".
GOLDEN = {
    0: {
        "summary": "4b053ded215cd1cbda784800b3d50ac37bd82418cc6d67bbd5da2ff92f86b532",
        "report": "548902028e2a3d9c69e73931cdf536dbd6e9a41d6f289ac8debd38e298294df8",
        "points": "3a9ee43d0e951cd4f2e35454a76769cf223044db0a705a6f1590ce25767db210",
        "var-a-16": "0b28f26697bdd460833f4bbb6d0daac910a308db6b34f74381b2e2664da98f95",
        "var-a-16-stdout": "8a5308b6641c99f967e1012073b08afabbe846ac9b443c31cff3284c0d2af702",
        "fixed-64": "0bc9506fb813557fc26cfcb7418033fa2351652447a8c8049e98c6e701864a8d",
        "fixed-64-stdout": "f4aef83732d34d532d0e94432843ed6237f41a5009124380951782397c9af605",
        "fixed-2048": "46bd3166eee041e9ff2318de1144ef860007c9f288b8217366973eeedc4a2cb1",
        "fixed-2048-stdout": "d2285938bd3054fd3cc81c25445502eee88a34015ddd931c3023ca5bdd25e85d",
    },
    1: {
        "summary": "a78eb2c8597918ec49b27e92d9245edfdbe22f98b55592bc66f60edeaaa5dea6",
        "report": "80cb39b434dcaaadc6661ab32aa81c0308aa0a8a49a65695cf2171a3e3aeda61",
        "points": "d1abb3301dea3d9c57c8db8afd5747dd86e82f3c6244f901687c229a175d7dc7",
        "var-a-16": "dd3d547562be36692c0238c11b3bc68b9052560b6bb448c5b57955a19aa8eb81",
        "var-a-16-stdout": "ea33d0bf20321143cfe48bc3c98670623261bf5d99a67a4b1fba049be4f26d97",
        "fixed-64": "461f6fd3a51e6a5d9601bb2d244034e6c66d869ee2daedc2c2d36e4ef4c0802e",
        "fixed-64-stdout": "d6a43fe9ca4b206701c22ec0338627170bafb033a4136c2dd865c2445f8394f1",
        "fixed-2048": "ae775e048e24b92ce72a0a2772c91e603d6af87206a82293c6d39e7da24db7b1",
        "fixed-2048-stdout": "d06a15bb2acc333415146013f4e1ced4aafe40520f91d79e57b6247d762506e4",
    },
    2: {
        "summary": "8c3c5da566ce6e06f4e1668312cd7563230909638a46785a96be740f63479035",
        "report": "7e81ffe1403aaf0e1b7f238ebf43553fc105f26c2bb27c4a39e0e111db837b66",
        "points": "dac692e9e57883a9bd7ab133a944aefff4afb4d64faa697681268d8b67024c65",
        "var-a-16": "322b64b9dda693535afdf081aa1624d29422d76140bb64bd8a22d82d80b2437e",
        "var-a-16-stdout": "294a830964fa670e5aa65ac2a9ba73f8d2eec5ebb2f0553d3732b8eea47461bf",
        "fixed-64": "5d48de2833d2df02b8996dbabe85a1a0c17fc37e5e83d7cec0b941d34e4c0ca0",
        "fixed-64-stdout": "ea0f8b12765d9a6875dc77396c62b3a6619a55b763db2ed0b9fccef4efcf4614",
        "fixed-2048": "a2b6313669a7fea83f17cbbf928291e661cf62d8289b18b44093d051e7d7bdb5",
        "fixed-2048-stdout": "ce7a1cc0483ddbba535086a2b0252a46a278dfc69c4006ad565bef002af5e54b",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def dna_file(tmp_path, request):
    path = tmp_path / f"dna{request.param}.seq"
    path.write_bytes(_dna_like(request.param, n=N))
    return path


@pytest.mark.parametrize("dna_file", SEEDS, indirect=True)
def test_sweep_csvs(dna_file, tmp_path, capsys):
    seed = int(dna_file.stem[3:])
    report, points = tmp_path / "report.csv", tmp_path / "points.csv"
    argv = ["sweep", str(dna_file), "--out", str(report), "--points", str(points)]
    assert main(argv) == 0
    assert sha(capsys.readouterr().out.encode()) == GOLDEN[seed]["summary"]
    assert sha(report.read_bytes()) == GOLDEN[seed]["report"]
    assert sha(points.read_bytes()) == GOLDEN[seed]["points"]


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("dna_file", SEEDS, indirect=True)
def test_containers_and_report(dna_file, encoding, tmp_path, capsys):
    seed = int(dna_file.stem[3:])
    out = tmp_path / "c.enum"
    assert main(["encode", str(dna_file), "--out", str(out), *ENCODINGS[encoding]]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "D")
    assert sha(out.read_bytes()) == GOLDEN[seed][encoding]
    assert sha(stdout.encode()) == GOLDEN[seed][f"{encoding}-stdout"]
