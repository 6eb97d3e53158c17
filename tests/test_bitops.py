"""The bit kernels against their set-comprehension definitions."""

import random
import tracemalloc
from functools import reduce
from operator import or_

from hypothesis import given, settings, strategies as st

from eulerchar import _bitops
from eulerchar._bitops import (
    compress_columns, count_is, count_planes, iter_bits, mask, maximal_sets, transpose_rows,
)
from eulerchar.docio import parse_complex
from test_cli import wide_sparse_document

# iter_bits scans every width byte by byte; the widths straddle a byte
# (7/8/9), a 64-bit word (63/64/65) and 4,096 bits, and 10,395 is the facet
# count of match-11, whose nerve is the widest golden universe
WIDTHS = (1, 7, 8, 9, 63, 64, 65, 720, 4096, 4097, 10395)
# every other byte of a 10,395-bit universe: transpose_rows' compact rows,
# live byte columns with empty ones between them
GAPPED = sum(0xFF << 16 * i for i in range(650))


def ref_bits(x):
    return [p for p in range(x.bit_length()) if x >> p & 1]


def ref_transpose(sets):
    elements = {v for s in sets for v in ref_bits(s)}
    return {v: sum(1 << i for i, s in enumerate(sets) if s >> v & 1) for v in elements}


def ref_compress(keep, sets):
    positions = ref_bits(keep)
    return len(positions), [
        sum(1 << j for j, p in enumerate(positions) if s >> p & 1) for s in sets
    ]


def ref_counts(sets, width):
    return [sum(s >> v & 1 for s in sets) for v in range(width)]


def sparse_set(rng, width, density):
    x = 0
    for p in range(width):
        if rng.random() < density:
            x |= 1 << p
    return x


def check(keep, sets):
    assert list(iter_bits(keep)) == ref_bits(keep)
    for s in sets:
        assert list(iter_bits(s)) == ref_bits(s)
    assert transpose_rows(sets) == ref_transpose(sets)
    assert compress_columns(keep, sets) == ref_compress(keep, sets)


def test_empty_and_zero_inputs():
    assert transpose_rows([]) == {}
    assert transpose_rows([0, 0, 0]) == {}
    assert compress_columns(0, []) == (0, [])
    assert compress_columns(0, [0, 0]) == (0, [0, 0])
    assert compress_columns(0b1010, [0, 0]) == (2, [0, 0])
    assert list(iter_bits(0)) == []


def test_single_bit_keep():
    for p in (0, 1, 63, 64, 4096, 10394):
        keep = 1 << p
        below = keep - 1
        assert compress_columns(keep, [keep, 0, keep | below, below]) == (1, [1, 0, 1, 0])


def test_one_set_transpose():
    for width in WIDTHS:
        s = (1 << width) - 1
        assert transpose_rows([s]) == {v: 1 for v in range(width)}
        assert transpose_rows([1 << (width - 1)]) == {width - 1: 1}


def test_bits_outside_keep_are_dropped():
    # bits below and between keep's bits must not leak into the result
    keep = 0b1100_0100
    assert compress_columns(keep, [0b0011_1011, 0xFF, 0b0101_0000]) == (3, [0, 0b111, 0b010])
    # nor bits above keep's top byte, or between it and keep's top bit
    assert compress_columns(keep, [0xFF << 8, 1 << 7 | 1 << 900, 0x3F]) == (3, [0, 0b100, 0b001])
    keep = 0xF0 << 80 | 0x0F << 16
    sets = [mask(200), 0xFF << 84, 0xAA << 16 | 1 << 79 | 1 << 88 | 1 << 150, 0xFFFF << 8]
    assert compress_columns(keep, sets) == ref_compress(keep, sets)


def test_compress_round_widths():
    # a keep of width w takes ceil(log2 w) shift rounds: at w = 2^k the top
    # bit moves w - 1 = 2^k - 1 places and uses every round, at 2^k + 1 it
    # moves 2^k places and uses only the last one
    rng = random.Random(0xC0)
    for k in range(1, 15):
        for w in (1 << k, (1 << k) + 1):
            sets = [rng.getrandbits(w + 9) for _ in range(3)] + [0, mask(w)]
            for keep in (1 << (w - 1), 1 | 1 << (w - 1), 2 | 1 << (w - 1),
                         rng.getrandbits(w) | 1 << (w - 1),
                         sparse_set(rng, w, 0.02) | 1 << (w - 1)):
                assert compress_columns(keep, sets) == ref_compress(keep, sets), (w, keep)


def test_compress_keep_shapes():
    rng = random.Random(0xB17)
    for w in (8, 9, 64, 100, 1000):
        sets = [rng.getrandbits(w + 16) for _ in range(4)]
        for keep in (
            mask(w),  # all ones: no bit moves
            mask(w) // 3,  # alternating bits 0, 2, 4, ...
            mask(w) // 3 << 1,  # alternating bits 1, 3, 5, ...
            mask(w) ^ 1,  # bit 0 clear: everything moves one place
            1 << (w - 1),  # one bit at the top
            sum(1 << 8 * j + j % 8 for j in range((w + 7) // 8)),  # every byte column live
        ):
            assert compress_columns(keep, sets) == ref_compress(keep, sets), (w, keep)


def test_one_live_byte_column():
    # one live byte column among dead ones, where operator.itemgetter would
    # return an int instead of a tuple
    for j in (1, 5, 200):
        for byte in (0x01, 0x80, 0x5A, 0xFF):
            keep = byte << 8 * j
            sets = [mask(8 * j + 20), 0xA5 << 8 * j, 1 << 8 * j + 7, 0]
            assert compress_columns(keep, sets) == ref_compress(keep, sets), (j, byte)
            family = [s & keep for s in sets if s & keep]
            assert transpose_rows(family) == ref_transpose(family), (j, byte)


def test_seeded_widths():
    rng = random.Random(0x5EED)
    for width in WIDTHS:
        for density in (0.02, 0.5, 0.97):
            m = rng.randint(1, 40)
            sets = [sparse_set(rng, width, density) for _ in range(m)]
            keep = sparse_set(rng, width, rng.choice((0.05, 0.5))) | 1 << (width - 1)
            check(keep, sets)
            # keep inside the union of the sets, as the engine calls it
            union = 0
            for s in sets:
                union |= s
            check(union, sets)
            check(keep, sets + [0])
            # the transpose's byte matrix at m = 1 and 9, over gapped byte
            # columns, and with zero sets interleaved
            for part in (sets[:1], sets[:9]):
                gapped = [s & GAPPED for s in part]
                for family in (part, gapped, [x for s in part for x in (0, s)]):
                    assert transpose_rows(family) == ref_transpose(family)
    # one live byte column high up, every byte below it empty
    check(1 << 10394, [1 << 10394, 0, 1 << 10390])


def test_many_sets_few_elements():
    # the nerve's shape: thousands of short rows become a few long columns
    rng = random.Random(11)
    sets = [rng.getrandbits(55) for _ in range(5000)]
    check(rng.getrandbits(55) | 1 << 54, sets)
    # more sets than one byte matrix chunk holds, with empty byte columns
    check(1 << 54, [s & 0xFF00FF00FF00FF for s in sets])


def test_transpose_memory_is_bounded():
    # match-13's root nerve transposes 135,135 facets over 78 vertices; a byte
    # matrix joined in one piece would hold a bytes object per set at once
    rng = random.Random(13)
    sets = [rng.getrandbits(78) for _ in range(135_135)]
    tracemalloc.start()
    try:
        rows = transpose_rows(sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert sum(map(int.bit_count, rows.values())) == sum(map(int.bit_count, sets))
    for v in (0, 40, 77):
        assert rows[v] == sum(1 << i for i, s in enumerate(sets) if s >> v & 1)


def test_compress_memory_is_bounded():
    # the root of the wide sparse document: 513 sets, keep holds 1,281 bits up
    # to bit 2^24 - 1.  A binary-string gather formats every set at keep's
    # full 2 MB width (about 34 MB at peak); the kernel keeps one set's bytes
    # at that width at a time (about 7 MB)
    facets = list(parse_complex(wide_sparse_document()).facets)
    keep = reduce(or_, facets)
    tracemalloc.start()
    try:
        k, sets = compress_columns(keep, facets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
    index = {p: i for i, p in enumerate(iter_bits(keep))}
    assert k == len(index) == 1281
    assert sets == [sum(1 << index[p] for p in iter_bits(f)) for f in facets]


def positions(limit):
    return st.sets(st.integers(min_value=0, max_value=limit)).map(lambda ps: sum(1 << p for p in ps))


@settings(max_examples=200, deadline=None)
@given(keep=positions(3000), sets=st.lists(positions(3100), max_size=8))
def test_compress_matches_definition(keep, sets):
    # sparse positions leave dead byte columns, and the sets reach past keep
    assert compress_columns(keep, sets) == ref_compress(keep, sets)


@settings(max_examples=200, deadline=None)
@given(
    keep=st.integers(min_value=0, max_value=(1 << 130) - 1),
    sets=st.lists(st.integers(min_value=0, max_value=(1 << 130) - 1), max_size=12),
)
def test_kernels_match_definitions(keep, sets):
    check(keep, [s & ((1 << keep.bit_length()) - 1) for s in sets])


def check_counts(sets, sel, width):
    planes = count_planes(sets)
    counts = ref_counts(sets, width)
    assert len(planes) == max(counts, default=0).bit_length()
    assert [sum((p >> v & 1) << i for i, p in enumerate(planes)) for v in range(width)] == counts
    want = {}
    for v in range(width):
        if sel >> v & 1:
            want[counts[v]] = want.get(counts[v], 0) | 1 << v
    # up to twice the largest possible count: past every plane
    for c in range(-1, 2 * len(sets) + 3):
        assert count_is(planes, sel, c) == want.get(c, 0), c


def test_count_kernels_edge_families():
    # no sets, the family {∅}, and counts at zero and above every count
    assert count_planes([]) == [] and count_planes([0]) == []
    for sets in ([], [0], [0b11, 0b01], [0b110] * 5):
        check_counts(sets, 0b1111, 4)
    assert count_is([], 0b101, 0) == 0b101 and count_is([], 0b101, 1) == 0
    planes = count_planes([0b11, 0b01, 0b01])  # counts 3 and 1
    assert (count_is(planes, 0b11, 3), count_is(planes, 0b11, 2)) == (0b01, 0)
    # vertex 2 lies in no set, so reading only the low bits of c would keep it
    assert count_is(planes, 0b111, 4) == count_is(planes, 0b111, 1 << 40) == 0


@settings(max_examples=200, deadline=None)
@given(
    sets=st.lists(st.integers(min_value=0, max_value=(1 << 70) - 1), max_size=40),
    sel=st.integers(min_value=0, max_value=(1 << 70) - 1),
)
def test_count_kernels_match_definitions(sets, sel):
    check_counts(sets, sel, 70)


def ref_maximal(sets):
    return sorted({s for s in sets if not any(s != t and s & t == s for t in sets)})


def dense_family(rng, width, m, misses):
    """m sets on a width-vertex union, each missing misses(rng) vertices;
    the first two miss disjoint runs, so the union is all width vertices."""
    full = mask(width)
    sets = [full ^ mask(misses(rng)), full ^ (mask(misses(rng)) << width // 2)]
    while len(sets) < m:
        sets.append(full ^ sum(1 << v for v in rng.sample(range(width), misses(rng))))
    return sets


def complement_calls(monkeypatch):
    calls = []
    kernel = _bitops._maximal_complements

    def spy(union, order):
        calls.append(len(order))
        return kernel(union, order)

    monkeypatch.setattr(_bitops, "_maximal_complements", spy)
    return calls


def test_dense_maximal_sets_match_brute_force(monkeypatch):
    # dense families with duplicates, dominated sets (a set less a few more
    # vertices) and the union itself, which alone is maximal when present
    calls = complement_calls(monkeypatch)
    rng = random.Random(26)
    seen = set()
    for trial in range(40):
        width = rng.choice((40, 97, 160, 300))
        sets = dense_family(rng, width, rng.randint(34, 150), lambda r: r.randint(1, width // 40))
        for _ in range(rng.randint(0, 20)):
            s = rng.choice(sets)
            sets.append(s & ~(1 << rng.randrange(width)) if rng.random() < 0.7 else s)
        if trial % 5 == 0:
            sets.append(mask(width))
        rng.shuffle(sets)
        before = len(calls)
        got = maximal_sets(sets)
        assert got == ref_maximal(sets), trial
        if len(calls) > before:
            seen.add("union" if got == [mask(width)] else "complements")
        if len(set(sets)) < len(sets):
            seen.add("duplicates")
        if len(got) < len(set(sets)) - 1:
            seen.add("dominated")
    assert seen == {"union", "complements", "duplicates", "dominated"}, seen


def test_dense_regime_gates(monkeypatch):
    # complements are runs [i, i + length) of about share = 10 vertices on a
    # union of share * _DENSE_SHARE vertices, with total m * share + extra:
    # the mean complement sits 1/m under, at or 1/m over the union's
    # 1/_DENSE_SHARE.  Only a batch of more than _DENSE_BATCH sets under it
    # takes the complement regime.
    calls = complement_calls(monkeypatch)
    share = 10
    width = share * _bitops._DENSE_SHARE
    full = mask(width)
    for m in (_bitops._DENSE_BATCH, _bitops._DENSE_BATCH + 1, 2 * _bitops._DENSE_BATCH + 1):
        for extra in (-1, 0, 1):
            lengths = [share + (-1) ** i for i in range(m - m % 2)] + [share] * (m % 2)
            lengths[0] += extra
            sets = [full ^ mask(n) << i for i, n in enumerate(lengths)]
            assert reduce(or_, sets) == full
            assert m * width - sum(map(int.bit_count, sets)) == m * share + extra
            before = len(calls)
            assert maximal_sets(sets) == ref_maximal(sets), (m, extra)
            assert (len(calls) > before) == (m > _bitops._DENSE_BATCH and extra < 0), (m, extra)
