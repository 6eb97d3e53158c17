"""Bit-packed set kernels.

A face / vertex set is a plain Python int used as a bit vector (bit i =
element i).  CPython big ints already execute the word-level boolean ops in
C, so these kernels keep the Python-level loop counts low: maximal_sets
tests a dense batch by its sets' small complements and any other one size
level by size level, a large one through the dominance walk _undominated
over a transposed incidence view (the engine's large deletions share that
walk) and a small one in C, iter_bits scans an int byte by byte through a
table, compress_columns drops the dead byte columns of its mask and closes
the remaining gaps with a few mask-and-shift rounds shared by every set, and
one block-transpose kernel, _t64, serves both transpose_rows (each element's
row of set indices) and relabel_by_degree (the engine's relabelled table
keys).  They lay their sets out as rows of 64-bit words, _TRANSPOSE_CHUNK
sets at a time, and _t64 transposes every 64×64 bit block of one word column
at once with six delta swaps on one int.
"""

from functools import reduce
from itertools import compress, groupby, repeat
from operator import and_, itemgetter, or_
from struct import pack, unpack

_BYTE_BITS = [tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)]

# transpose_rows lays its sets out _TRANSPOSE_CHUNK at a time, and
# relabel_by_degree takes at most that many, which bounds the matrix and
# _T64_SWAPS' masks (8 KB each).  In a 64×64 block, bit 64r + c is bit c of
# row r, and the transpose swaps bit k of each bit's index with bit k + 6 for
# k = 0..5 (Warren, Hacker's Delight, section 7-3): the bits with index bit k
# set and bit k + 6 clear, those under the mask, trade places with the bits
# 63 * 2^k above them.
_TRANSPOSE_CHUNK = 1024


def _swap_mask(k):
    # bits c with bit k of c set, in the rows r with bit k of r clear
    word = sum(1 << c for c in range(64) if c >> k & 1).to_bytes(8, "little")
    block = (word * (1 << k) + bytes(8 << k)) * (32 >> k)
    return int.from_bytes(block * (_TRANSPOSE_CHUNK // 64), "little")


_T64_SWAPS = [(63 << k, _swap_mask(k)) for k in range(6)]

# maximal_sets' regimes.  A batch of more than _DENSE_BATCH sets whose
# complements in the union hold on average fewer than 1/_DENSE_SHARE of its
# vertices tests complements, at a cost of about their total size.  Else each
# size level is tested against the levels above it: in a batch of more than
# _LARGE_BATCH sets by _undominated over the batch's transpose, in a smaller
# one against the sets kept there.  Best of
# 3 on every batch of random_3cnf(60, 1) the gate takes there, complements
# against the other regimes: dbms 3,256 batches 0.77 against 5.85 s, bcrt
# 1,750 batches 0.77 against 5.93 s.  A gate on the largest complement
# (under 1/32 of the union, more than 128 sets) takes only 1,610 of dbms's
# batches; the other 1,646 (65-512 sets whose complements average 2-4
# vertices, the largest 4-16) took 1.27 against 0.24 s.  On perfbench's
# batches (set-up and a pass, seeds 1-3) only gadgets' 18-variable CNF
# reaches complements (65-126 sets on 107-270 vertices, 0.04-0.09 against
# 0.14-0.44 ms a batch); random-antichain's batches of at most 40 sets skip
# the gate's OR.  A gate of 8 × the largest complement below the set count
# would take gadgets' nicgraph-7-2 round trip there too (217 sets on a
# 21-vertex union), where complements are slower (0.99 against 0.94 ms).
_DENSE_BATCH = 64
_DENSE_SHARE = 32
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
    Each chunk of _TRANSPOSE_CHUNK sets becomes a matrix with one row of
    64-bit words per set, over the union's live byte columns when dropping
    the dead ones saves a word, and _t64 transposes its word columns: in a
    block of 64 sets, an element's row is then one 64-bit item of its
    column."""
    union = reduce(or_, sets, 0)
    if not union:
        return {}
    stride = (union.bit_length() + 7) >> 3
    live = union.to_bytes(stride, "little")
    cols = list(compress(range(stride), live))
    words = (len(cols) + 7) >> 3
    # either way each element keys its row in ascending order
    keys = places = list(iter_bits(union))
    if words < (stride + 7) >> 3:
        places = list(iter_bits(int.from_bytes(live.translate(None, b"\0"), "little")))
    else:
        cols = None
    if len(sets) <= 64:
        # one block: bit p's row is item p of the word columns end to end
        xs = _word_columns(_matrix(sets, words, cols), words)
        items = unpack(f"<{64 * words}Q", b"".join([x.to_bytes(512, "little") for x in xs]))
        return dict(zip(keys, map(items.__getitem__, places)))
    parts = []
    for start in range(0, len(sets), _TRANSPOSE_CHUNK):
        chunk = sets[start:start + _TRANSPOSE_CHUNK]
        n = len(chunk) + (-len(chunk) & 63)
        t = [_items(x, n) for x in _word_columns(_matrix(chunk, words, cols), words)]
        # the row of bit p is items p & 63, + 64, ... of column p >> 6
        parts.append([t[p >> 6][p & 63::64].tobytes() for p in places])
    return {v: int.from_bytes(b"".join(row), "little") for v, row in zip(keys, zip(*parts))}


def _matrix(sets, words, cols=None):
    """The sets as rows of `words` 64-bit words: over the live byte columns
    cols of their union (see _live_bytes), or over their own bytes."""
    if cols:
        return b"".join(map(bytes.ljust, _live_bytes(sets, cols), repeat(8 * words), repeat(b"\0")))
    if words == 1:
        return pack(f"<{len(sets)}Q", *sets)
    return b"".join(map(int.to_bytes, sets, repeat(8 * words), repeat("little")))


def _word_columns(mat, words):
    """The word columns of mat, a byte matrix of one row of `words` 64-bit
    words per set, each as an int with every 64-set block transposed: in
    column w, the 64-bit item 64b + c is bit c of word w over the sets of
    block b (bit r from set 64b + r)."""
    q = memoryview(mat).cast("Q")
    return [_t64(int.from_bytes(q[w::words], "little")) for w in range(words)]


def _t64(x):
    """x with every 64×64 bit block transposed (bit 64r + c of a block, the
    4,096 bits from 4,096b, moves to bit 64c + r); x holds at most
    _TRANSPOSE_CHUNK rows of 64 bits.  Six delta swaps, one per bit of a
    row or column index (see _T64_SWAPS)."""
    for d, a in _T64_SWAPS:
        t = (x ^ x >> d) & a
        x ^= t | t << d
    return x


def _items(x, n):
    """The n 64-bit items of x as a memoryview; its slices with a step pick
    items without a copy of the rest."""
    return memoryview(x.to_bytes(8 * n, "little")).cast("Q")


def _live_bytes(sets, cols):
    """Iterator over each set's bytes at the live byte columns cols, in
    order.  Every set is written out at cols[-1] + 1 bytes, so it must fit
    there and its bytes outside cols must be zero; the sets are taken one
    at a time, so a lazy iterable holds one set at that width at once."""
    # a single index would make itemgetter return an int, not a tuple
    pick = itemgetter(*cols) if len(cols) > 1 else itemgetter(slice(cols[0], cols[0] + 1))
    return map(bytes, map(pick, map(int.to_bytes, sets, repeat(cols[-1] + 1), repeat("little"))))


def maximal_sets(sets):
    """Maximal elements of a family of bitsets under inclusion.

    Duplicates are dropped.  Result is sorted ascending as integers, so the
    output order is canonical regardless of input order.  Three regimes
    (see _DENSE_BATCH), each costing the small side of its batch: dense
    batches compare complements, which hold few vertices; large ones walk
    transposed rows over a set's vertices (_undominated); small ones in C.
    """
    order = sorted(set(sets), key=int.bit_count, reverse=True)
    if not order or order[0].bit_count() == order[-1].bit_count():
        # equal-cardinality distinct sets are pairwise incomparable
        return sorted(order)
    if len(order) > _DENSE_BATCH:
        # the gate costs one OR and one popcount a set
        union = reduce(or_, order)
        cells = len(order) * union.bit_count()
        if _DENSE_SHARE * (cells - sum(map(int.bit_count, order))) < cells:
            return sorted(_maximal_complements(union, order))
    # a set can only lie in a strictly larger one: each size level is tested
    # against the levels above it
    kept = []
    if len(order) > _LARGE_BATCH:
        rows = transpose_rows(order)
        above = 0
        for _, level in groupby(order, int.bit_count):
            level = list(level)
            kept += _undominated(rows, mask(above), level)
            above += len(level)
    else:
        for _, level in groupby(order, int.bit_count):
            # s & k == s says s ⊆ k; `in` scans in C
            kept += [s for s in level if s not in map(s.__and__, kept)]
    return sorted(kept)


def _maximal_complements(union, order):
    # order is sorted by descending size inside union.  k ⊇ s iff
    # (union - k) ⊆ (union - s), so s is dominated iff a kept complement
    # lies in its own.  Each kept complement is filed under its lowest
    # vertex, and s is tested only against the buckets of its complement's
    # vertices that key one (filed).  Sets of s's size have complements of
    # its size, so none of them can dominate it, and a kept one may be filed
    # before s is tested.
    if order[0] == union:
        return [union]  # it holds every other set
    buckets = {}
    filed = 0
    kept = []
    for s in order:
        c = union ^ s
        b = c & filed
        while b:
            x = b & -b
            # c | ∁k == c says ∁k ⊆ ∁s; `in` scans in C
            if c in map(c.__or__, buckets[x]):
                break
            b ^= x
        else:
            kept.append(s)
            x = c & -c
            buckets.setdefault(x, []).append(c)
            filed |= x
    return kept


def _undominated(rows, within, sets):
    """The sets s for which the AND of rows[v] over the vertices v of s,
    started from the index mask within, reaches 0.  With rows a family's
    transpose_rows, those are the sets that lie in none of the family's sets
    indexed by within: within = 0 keeps every set, and an empty set is kept
    only then."""
    out = []
    for s in sets:
        # s's vertices by a low-bit loop, a little faster than iter_bits on
        # sets of a few vertices (replays of narrow-bcrt's large splits)
        acc = within
        b = s
        while b and acc:
            x = b & -b
            acc &= rows.get(x.bit_length() - 1, 0)
            b ^= x
        if not acc:
            out.append(s)
    return out


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
    right, so ceil(log2 w) rounds of one mask each close every gap.  When
    columns are dropped, each set is cut and narrowed before the next (see
    _live_bytes), so one set at keep's full width is held at a time."""
    if not keep:
        return 0, [0] * len(sets)
    k = keep.bit_count()
    stride = (keep.bit_length() + 7) >> 3
    live = keep.to_bytes(stride, "little")
    cols = list(compress(range(stride), live))
    if len(cols) < stride:
        cut = map(and_, sets, repeat(keep))
        sets = list(map(int.from_bytes, _live_bytes(cut, cols), repeat("little")))
        keep = int.from_bytes(live.translate(None, b"\0"), "little")
    else:
        sets = [s & keep for s in sets]
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


def relabel_by_degree(alive, planes, sets):
    """The sets with the vertices of alive renamed 0.. by ascending degree,
    the count that planes hold bit-sliced (see count_planes), ties broken by
    label: alive is split into degree classes plane by plane from the top
    one down, lacking it first.  Sized to the engine's relabelled table keys:
    at most _TRANSPOSE_CHUNK sets, each lying in alive, which lies below bit
    128.  The sets are laid out as one chunk and transposed, the vertex rows
    are picked in class order, and the result is transposed back."""
    classes = [alive]
    for plane in reversed(planes):
        classes = [c for s in classes for c in (s & ~plane, s & plane) if c]
    words = 1 + (alive.bit_length() - 1 >> 6)
    out_words = (alive.bit_count() + 63) >> 6
    n = len(sets) + (-len(sets) & 63)
    t = [_items(x, n) for x in _word_columns(_matrix(sets, words), words)]
    # vertex v of each block becomes bit j & 63 of word j >> 6, j its rank
    picked = bytearray(8 * n * out_words)
    q = memoryview(picked).cast("Q")
    for j, v in enumerate(v for c in classes for v in iter_bits(c)):
        q[(j & 63) * out_words + (j >> 6)::64 * out_words] = t[v >> 6][v & 63::64]
    new = [_items(x, n)[:len(sets)] for x in _word_columns(picked, out_words)]
    if out_words == 1:
        return new[0].tolist()
    return [a | b << 64 for a, b in zip(*new)]
