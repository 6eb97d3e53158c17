"""Bit-packed set kernels.

A face / vertex set is a plain Python int used as a bit vector (bit i =
element i).  CPython big ints already execute the word-level boolean ops in
C, so these kernels keep the Python-level loop counts low: maximal_sets
switches to a transposed incidence view for large batches, iter_bits scans
an int byte by byte through a table, transpose_rows reads each element's row
from a byte column of the sets' byte matrix (about m × live byte columns of
memory, built a chunk of sets at a time), compress_columns drops the dead
byte columns of its mask and closes the remaining gaps with a few
mask-and-shift rounds shared by every set, and _gather (behind the engine's
relabelled table keys) picks bits from a set's binary string, where bit p is
the character p places from the right.
"""

from functools import reduce
from itertools import compress, groupby, repeat
from operator import itemgetter, or_

_BYTE_BITS = [tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)]
# transpose_rows reads bit b of a byte as the character _BIT_CHARS[b] (b"0"
# or b"1"), and builds its byte matrix _TRANSPOSE_CHUNK sets at a time
_BIT_CHARS = [bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8)]
_TRANSPOSE_CHUNK = 4096

# batches larger than this use the transposed dominator check in maximal_sets
_LARGE_BATCH = 512


def mask(n):
    """All-ones mask for a universe of n elements."""
    return (1 << n) - 1


def iter_bits(x):
    """Yield the set bit positions of x in ascending order."""
    bb = _BYTE_BITS
    base = 0
    for byte in x.to_bytes((x.bit_length() + 7) >> 3, "little"):
        if byte:
            for b in bb[byte]:
                yield base + b
        base += 8


def transpose_rows(sets):
    """Incidence transpose: dict mapping element v to the bitmask of set
    indices i with v in sets[i].  Only elements that occur are keyed.
    Each chunk of _TRANSPOSE_CHUNK sets becomes a byte matrix, one row per
    set (last set first) by the union's live byte columns; bit b of column
    j, translated to "0"/"1", spells the row of element 8j + b in base 2."""
    union = reduce(or_, sets, 0)
    stride = (union.bit_length() + 7) >> 3
    live = union.to_bytes(stride, "little")
    cols = list(compress(range(stride), live))
    width = len(cols)
    rows = dict.fromkeys([8 * j + b for j in cols for b in _BYTE_BITS[live[j]]], 0)
    for start in range(0, len(sets), _TRANSPOSE_CHUNK):
        chunk = sets[start:start + _TRANSPOSE_CHUNK][::-1]
        if width == stride:
            mat = b"".join(map(int.to_bytes, chunk, repeat(stride), repeat("little")))
        else:
            mat = b"".join(_live_bytes(chunk, stride, cols))
        for k, j in enumerate(cols):
            col = mat[k::width]
            for b in _BYTE_BITS[live[j]]:
                rows[8 * j + b] |= int(col.translate(_BIT_CHARS[b]), 2) << start
    return rows


def _live_bytes(sets, stride, cols):
    """Iterator over each set's bytes at the byte columns cols, in order;
    every set fits in stride bytes."""
    # a single index would make itemgetter return an int, not a tuple
    pick = itemgetter(*cols) if len(cols) > 1 else itemgetter(slice(cols[0], cols[0] + 1))
    return map(bytes, map(pick, map(int.to_bytes, sets, repeat(stride), repeat("little"))))


def maximal_sets(sets):
    """Maximal elements of a family of bitsets under inclusion.

    Duplicates are dropped.  Result is sorted ascending as integers, so the
    output order is canonical regardless of input order.
    """
    order = sorted(set(sets), key=int.bit_count, reverse=True)
    if not order or order[0].bit_count() == order[-1].bit_count():
        # equal-cardinality distinct sets are pairwise incomparable
        return sorted(order)
    if len(order) > _LARGE_BATCH:
        return sorted(_maximal_transposed(order))
    # a set can only lie in a strictly larger one: each size level is tested
    # against the levels kept above it (s & k == s says s ⊆ k; `in` scans in C)
    kept = []
    for _, level in groupby(order, int.bit_count):
        kept += [s for s in level if s not in map(s.__and__, kept)]
    return sorted(kept)


def _maximal_transposed(order):
    # order is sorted by descending size; a set can only be dominated by a
    # strictly larger one, i.e. by an earlier index from a previous size run.
    rows = transpose_rows(order)
    kept = []
    bound_mask = 0
    cur = order[0].bit_count()
    level_mask = 0  # accumulates (1 << i) for indices at the current level
    for i, s in enumerate(order):
        sz = s.bit_count()
        if sz != cur:
            bound_mask |= level_mask
            level_mask = 0
            cur = sz
        level_mask |= 1 << i
        if bound_mask:
            acc = bound_mask
            for v in iter_bits(s):
                acc &= rows[v]
                if not acc:
                    break
            if acc:
                continue
        kept.append(s)
    return kept


def count_planes(sets):
    """Bit-sliced per-element counters: planes[i] holds bit i of the number
    of sets containing each element, and len(planes) is the bit length of
    the largest count.  The sets go in two at a time: a full adder puts them
    into the lowest plane, and its carry ripples up."""
    planes = [0] * len(sets).bit_length()
    pairs = iter(sets)
    for a in pairs:
        b = next(pairs, 0)
        low = planes[0]
        t = low ^ a
        carry = (low & a) | (t & b)
        planes[0] = t ^ b
        i = 1
        while carry:
            p = planes[i]
            planes[i] = p ^ carry
            carry &= p
            i += 1
    while planes and not planes[-1]:
        planes.pop()
    return planes


def count_is(planes, sel, c):
    """Elements of sel lying in exactly c of the sets counted into planes;
    0 when c is negative or has more bits than planes."""
    if c >> len(planes):
        return 0
    for i, p in enumerate(planes):
        sel &= p if c >> i & 1 else ~p
    return sel


def compress_columns(keep, sets):
    """Re-index each bitset onto the dense universe enumerating the set bits
    of `keep` in ascending order.  Returns (k, new_sets).

    The sets are cut to keep, narrowed to keep's live byte columns, and then
    compressed as in Warren's Hacker's Delight, section 7-4: round i moves
    every kept bit whose distance to its place has bit i set 2^i places
    right, so ceil(log2 w) rounds of one mask each close every gap."""
    if not keep:
        return 0, [0] * len(sets)
    k = keep.bit_count()
    sets = [s & keep for s in sets]
    stride = (keep.bit_length() + 7) >> 3
    live = keep.to_bytes(stride, "little")
    cols = list(compress(range(stride), live))
    if len(cols) < stride:
        keep = int.from_bytes(live.translate(None, b"\0"), "little")
        sets = list(map(int.from_bytes, _live_bytes(sets, stride, cols), repeat("little")))
    w = keep.bit_length()
    # zeros has bit p where keep lacks bit p - 1.  In round sh, the prefix
    # parity of zeros is bit sh of each position's count of gaps below it,
    # so the kept bits with it set move sh places right (Warren's mk and mp)
    zeros = (keep ^ mask(w)) << 1
    sh = 1
    while sh < w:
        parity = zeros
        step = 1
        while step < w:
            parity ^= parity << step
            step <<= 1
        move = parity & keep
        if move:
            keep = keep ^ move | move >> sh
            sets = [x ^ (t := x & move) | t >> sh for x in sets]
        zeros &= ~parity
        sh <<= 1
    return k, sets


def _gather(order, sets):
    """Each bitset with bit i renamed from bit order[i] (bits outside order
    dropped); order is a non-empty list of distinct positions.  The engine's
    relabelled table keys use it: their order is a permutation of a node's
    live vertices by degree, not an ascending one."""
    fmt = f"0{max(order) + 1}b"
    # character ~p is bit p; picked highest first, the bits spell the new set
    pick = itemgetter(*[~p for p in reversed(order)])
    return [int("".join(pick(format(f, fmt))), 2) for f in sets]
