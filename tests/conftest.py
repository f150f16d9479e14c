# Worked 34-symbol example: delimiter 'a', r=2 factors it into six blocks.
FIG_T = b"ttgaacgagaagccgtatgaaatgaaaatatcac"
FIG_ALPHABET = b"acgt"
FIG_BLOCKS = [b"ttgaacg", b"gaagccgt", b"tgaa", b"tgaa", b"atatc", b"caa"]
FIG_LENGTHS = [7, 8, 4, 4, 5, 3]
FIG_FREQS = [
    (2, 1, 2, 2),
    (2, 2, 3, 1),
    (2, 0, 1, 1),
    (2, 0, 1, 1),
    (2, 1, 0, 2),
    (2, 1, 0, 0),
]
FIG_PAD = 2

# All 35 four-dimensional vectors with inner sum 4, in rank order.
COMPOSITIONS_4_4 = [
    (0, 0, 0, 4), (0, 0, 1, 3), (0, 0, 2, 2), (0, 0, 3, 1), (0, 0, 4, 0),
    (0, 1, 0, 3), (0, 1, 1, 2), (0, 1, 2, 1), (0, 1, 3, 0), (0, 2, 0, 2),
    (0, 2, 1, 1), (0, 2, 2, 0), (0, 3, 0, 1), (0, 3, 1, 0), (0, 4, 0, 0),
    (1, 0, 0, 3), (1, 0, 1, 2), (1, 0, 2, 1), (1, 0, 3, 0), (1, 1, 0, 2),
    (1, 1, 1, 1), (1, 1, 2, 0), (1, 2, 0, 1), (1, 2, 1, 0), (1, 3, 0, 0),
    (2, 0, 0, 2), (2, 0, 1, 1), (2, 0, 2, 0), (2, 1, 0, 1), (2, 1, 1, 0),
    (2, 2, 0, 0), (3, 0, 0, 1), (3, 0, 1, 0), (3, 1, 0, 0), (4, 0, 0, 0),
]

# The 12 arrangements of counts (2,1,1,0) over a<c<g<t, in rank order.
PERMS_2110 = [
    "aacg", "aagc", "acag", "acga", "agac", "agca",
    "caag", "caga", "cgaa", "gaac", "gaca", "gcaa",
]
