"""The bit kernels against their set-comprehension definitions."""

import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from eulerchar._bitops import compress_columns, count_is, count_planes, iter_bits, transpose_rows

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
    # bits below and between keep's bits must not leak into the result (a
    # set never reaches above keep's highest bit)
    keep = 0b1100_0100
    assert compress_columns(keep, [0b0011_1011, 0xFF, 0b0101_0000]) == (3, [0, 0b111, 0b010])


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
