"""The bit kernels against their set-comprehension definitions."""

import random
import tracemalloc
from functools import reduce
from operator import or_

from hypothesis import given, settings, strategies as st

from eulerchar import _bitops
from eulerchar._bitops import (
    compress_columns, count_is, count_planes, iter_bits, mask, maximal_sets, relabel_by_degree,
    transpose_rows,
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
    # set by set and bit by bit, lowest first, at a cost of the sets' bits
    rows = {}
    for i, s in enumerate(sets):
        while s:
            low = s & -s
            v = low.bit_length() - 1
            rows[v] = rows.get(v, 0) | 1 << i
            s ^= low
    return rows


def ref_gather(order, sets):
    return [sum(1 << j for j, p in enumerate(order) if s >> p & 1) for s in sets]


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
            # the transpose's matrix rows at m = 1 and 9, over gapped byte
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
    # more sets than one chunk holds, with empty byte columns
    check(1 << 54, [s & 0xFF00FF00FF00FF for s in sets])


# set counts around _t64's 64-set blocks and the kernels' chunks of
# _TRANSPOSE_CHUNK sets
CHUNK = _bitops._TRANSPOSE_CHUNK
BLOCK_COUNTS = (1, 63, 64, 65, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1, 4095, 4096, 4097)


def test_transpose_block_and_chunk_boundaries():
    # universes of one and two 64-bit words, gapped byte columns (rows over
    # the live bytes, sets of every written size) and one live column high
    # up; every third set is empty
    rng = random.Random(27)
    universes = {
        "one word": lambda: rng.getrandbits(64),
        "two words": lambda: rng.getrandbits(128),
        "gapped": lambda: sum(1 << p for p in rng.sample(range(10395), 8)) & GAPPED,
        "top bit": lambda: 1 << 10394,
    }
    for m in BLOCK_COUNTS:
        for name, draw in universes.items():
            sets = [0 if i % 3 == 2 else draw() for i in range(m)]
            assert transpose_rows(sets) == ref_transpose(sets), (m, name)


def rank_planes(order):
    # planes counting vertex order[j] j times, so that ascending degree
    # order, ties broken by label, is order itself
    bits = range(len(order).bit_length())
    return [sum(1 << v for j, v in enumerate(order) if j >> i & 1) for i in bits]


def test_relabel_by_degree_matches_definition():
    # orders shuffled over every position below width, or over some
    # positions below 128 (a live set of at most 64 vertices that spans two
    # words), on sets spanning several 64-set blocks up to the table's
    # 512-facet keys, with the empty and the full set
    rng = random.Random(0x6A7)
    for width in (1, 8, 63, 64, 65, 100, 127, 128):
        for m in (1, 63, 64, 65, 200, 511, 512):
            order = rng.sample(range(width), width) if m % 2 else rng.sample(range(128), min(width, 64))
            alive = sum(1 << v for v in order)
            sets = [rng.getrandbits(128) & alive for _ in range(m)]
            if m > 2:
                sets[1], sets[-1] = 0, alive
            assert relabel_by_degree(alive, rank_planes(order), sets) == ref_gather(order, sets), (width, m)
    # the identity and the reversal of one and two full words
    for width in (64, 128):
        sets = [rng.getrandbits(width) for _ in range(70)]
        order = list(range(width))
        assert relabel_by_degree(mask(width), rank_planes(order), sets) == sets
        assert relabel_by_degree(mask(width), rank_planes(order[::-1]), sets) == ref_gather(order[::-1], sets)


def test_relabel_by_degree_orders_by_degree():
    # planes counted from the sets themselves: vertices by ascending degree,
    # ties broken by label
    rng = random.Random(0xDE6)
    for width in (5, 64, 65, 128):
        for m in (1, 64, 65, 300):
            sets = [sparse_set(rng, width, 0.3) for _ in range(m)]
            planes = count_planes(sets)
            alive = reduce(or_, sets, 0)
            order = sorted(iter_bits(alive), key=lambda v: (sum(s >> v & 1 for s in sets), v))
            assert relabel_by_degree(alive, planes, sets) == ref_gather(order, sets), (width, m)


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


def levelled_family(rng, distinct, width=160):
    """distinct sets of 0-24 vertices on width vertices with the empty set,
    sets nested across size levels (a set less one to three of its vertices)
    and duplicates; few enough per set that no batch is dense."""
    sets = {0}
    while len(sets) < distinct:
        if len(sets) > 8 and rng.random() < 0.3:
            s = rng.choice(sorted(sets))
            for v in rng.sample(list(iter_bits(s)), min(s.bit_count(), rng.randint(1, 3))):
                s &= ~(1 << v)
        else:
            s = sum(1 << v for v in rng.sample(range(width), rng.randint(1, 24)))
        sets.add(s)
    sets = list(sets)
    sets += rng.choices(sets, k=distinct // 8)
    rng.shuffle(sets)
    return sets


def test_large_maximal_sets_match_brute_force(monkeypatch):
    # only a batch of more than _LARGE_BATCH distinct sets takes the walk
    calls = []
    walk = _bitops._undominated

    def spy(rows, within, sets):
        calls.append(len(sets))
        return walk(rows, within, sets)

    monkeypatch.setattr(_bitops, "_undominated", spy)
    rng = random.Random(28)
    for distinct in (_bitops._LARGE_BATCH, _bitops._LARGE_BATCH + 1, 3000):
        sets = levelled_family(rng, distinct)
        assert len(set(sets)) == distinct < len(sets)
        before = len(calls)
        got = maximal_sets(sets)
        assert got == ref_maximal(sets), distinct
        assert 1 < len(got) < distinct - 100, distinct
        # one walk a size level, over every distinct set
        assert (len(calls) > before) == (distinct > _bitops._LARGE_BATCH), distinct
        if distinct > _bitops._LARGE_BATCH:
            assert len(calls) - before > 2 and sum(calls[before:]) == distinct


def test_undominated_edge_cases():
    family = [0b0110, 0b1011, 0b1100]
    rows = transpose_rows(family)
    sets = [0, 0b0010, 0b0100, 0b0110, 0b1001, 0b1110, 0b10000]
    # no set to lie in: every set is kept, the empty set too
    assert _bitops._undominated(rows, 0, sets) == sets
    assert _bitops._undominated({}, 0, sets) == sets
    # the empty set lies in every indexed set; a vertex in no set keys no row
    for within in range(1, 8):
        inside = [f for i, f in enumerate(family) if within >> i & 1]
        want = [s for s in sets if not any(s & f == s for f in inside)]
        assert _bitops._undominated(rows, within, sets) == want, within
        assert 0 not in want
    assert _bitops._undominated(rows, 0b100, sets) == [0b0010, 0b0110, 0b1001, 0b1110, 0b10000]
