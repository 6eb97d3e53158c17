"""Divide-and-conquer reduced-Euler-characteristic engine.

Two algorithms over the same node pipeline, each splitting a node into a first
child, a second child and a sign, χ̃ = χ̃(first) + sign·χ̃(second):

* bcrt: split on a vertex-set pivot σ with σ ∉ Δ and σ ⊊ V:
          χ̃(Δ) = χ̃(Δ⊖∁σ) + χ̃(Δ∪pows σ)
        When ∁σ is one vertex e (popvar, rarevar, random) the second term is
        -χ̃(lk e), and the split is deletion plus link:
          χ̃(Δ) = χ̃(Δ∖e) - χ̃(lk e)
* dbms: split on a facet σ:  χ̃(D) = χ̃(Δ) - χ̃(Δ⊖∁σ)  with
          Δ = closure(facets∖{σ})
        Every face of Δ⊖∁σ lies in σ, so when σ has at most _LEAF_FACETS
        vertices and more than _LEAF_FACETS distinct cut sets t ∩ σ generate
        it, the second child is solved at the split on σ's vertex lattice
        (a split leaf, not a node) and only Δ is pushed.

The terminal step scores void, {∅} and a cone (a vertex in every facet),
and solves any other node of at most _LEAF_FACETS facets or at most
_LEAF_FACETS live vertices as a leaf, by one closure on a subset lattice in
a 2^k-bit integer (the paper's inclusion-exclusion over the lcms of a few
generators, done bit parallel): _lattice_masked takes χ̃ of the nerve from
the sets of facets that share a vertex, and _vertex_lattice takes χ̃ of the
node itself from its facets re-packed onto its live vertices.  None of this
needs simplified facets, so a node (the root and every child alike) that
arrives with at most _LEAF_FACETS facets goes to the terminal step at once; the
vertex bound is tried where the node's live vertices are known, after
simplify and the nerve.
A larger node is re-packed on entry onto its live vertices if its stored
width far exceeds their count.  It is then simplified: unused vertices are
dropped, and each pass eliminates all of its abundant vertices in one batch,
with one sign flip per missing facet and one maximal_sets (see
_simplify_masked for why that equals eliminating them one at a time).  If
it has more than _SPLIT_FACETS facets, it is split into independent factors
Δ_A ⊕ Δ_B (whose χ̃ multiply) or else into k ≥ 2 vertex-disjoint parts
(whose χ̃ add, plus k - 1), when it has them.  Otherwise it is possibly
replaced by its nerve and tried at the terminal step again, and any node
left goes on to a pivot split.

A node of at most _TABLE_KEY_FACETS facets (a bound apart from, and above,
the split threshold) that reaches its pivot split is first looked up in a
subproblem table that lives for one euler() call and maps facet tuples to
unsigned χ̃: the node's exact facets or, on a narrow node whose shape came up
before, those of a copy relabelled by degree (_bitops.relabel_by_degree),
which isomorphic nodes share.
A hit replaces the whole subtree by the stored value, a miss stores the value
once the subtree is solved.  Evaluation is an explicit stack machine, so
recursion depth is bounded regardless of instance size, and all randomness is
derived from (seed, node path), which makes every run bit-reproducible.
"""

import time
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import and_, or_, xor
from typing import Optional

from ._bitops import (
    _undominated, compress_columns, count_is, count_planes, iter_bits, mask, maximal_sets,
    relabel_by_degree, transpose_rows,
)
from .core import (
    Complex,
    _closure_facets,
    _independent_pair_masked,
    _independent_parts_masked,
    _nerve_facets,
    _packed,
    _sum_parts_masked,
    as_face,
)
from .errors import InputError, checked_add, checked_mul

ALGORITHMS = ("bcrt", "dbms")
BCRT_PIVOTS = ("popvar", "rarevar", "random", "popgcd")
DBMS_PIVOTS = ("rarevar", "popvar", "maxsupp", "minsupp", "random", "rarest", "raremax")
DEFAULT_PIVOT = {"bcrt": "popvar", "dbms": "raremax"}

# when the stored width is this much larger than the live vertex count the
# node's facets are re-packed onto a dense universe
_COMPRESS_MIN_WIDTH = 2048
_COMPRESS_RATIO = 3

# Only a node of more than _SPLIT_FACETS facets tries the join and then the
# sum split; a smaller one relies on the table, which finds the repeats a
# split would expose.  Either split at every node lost (match-10 dbms 3,547 ->
# 4,876 nodes).
_SPLIT_FACETS = 64
# The subproblem table keys only nodes of at most _TABLE_KEY_FACETS facets.
# A key is held from a node's split until its subtree is solved, so keying
# every size piles keys up along a deep bcrt stack (655,497 facets at once on
# rook-8-8, +19 MB peak RSS, before the vertex-lattice leaf), and large keys
# push small, often repeated ones out of the table.  At 512 rook-8-8 bcrt
# peaks at 22.8 MB (21.8 keyed up to 64) with a stack of at most 97 items.
# Sweep, bcrt nodes keyed up to 64 / 256 / 512 / 1,024 facets (2^14-facet
# table): rook-7-7 1,393 / 435 / 327 / 241, match-12 3,859 / 1,015 / 847 /
# 533, rook-8-8 14,301 / 3,973 / 2,669 / 1,745, match-13 10,689 / 6,633 /
# 8,177 / 8,119 (evictions 0 / 1,776 / 3,330 / 3,592), nicgraph-9-2 105,519
# / 105,505 / 105,537 / 105,537.  narrow-bcrt's rook-6-6 (77), match-10 (113)
# and nicgraph-7-2 (63) read the same from 256 up; at 1,024 match-10 also
# keys its nodes of 513 to 1,024 facets for no hit, and narrow-bcrt read
# 0.086 and 0.083 against 0.082 reference s (one 10 s run a seed, seeds 1-2).
# relabel_by_degree takes at most 1,024 sets (_bitops._TRANSPOSE_CHUNK), so
# this bound must stay at or below that.
_TABLE_KEY_FACETS = 512
# the table holds keys of at most this many facets in total; a store that
# would pass it evicts the oldest entries first (deterministic, so the
# counters repeat from run to run).  Sweep with keys up to 512 facets,
# 2^14 / 2^16 / 2^18: narrow-bcrt evicts nothing at 2^14, so its nodes do
# not move; match-13 bcrt 8,177 / 4,965 / 4,565 nodes at 35.5 / 35.4 /
# 37.5 MB, nicgraph-9-2 bcrt 105,537 / 92,041 / 76,565 nodes at 18.2 / 20.2 /
# 28.1 MB.
_TABLE_FACETS = 1 << 14
# A keyed node that misses is looked up again under a copy relabelled by
# degree, if its live vertices fit in _ISO_BITS bits (relabel_by_degree
# takes sets below bit 128, so this bound must stay at or below that) and
# the hash of its shape (m, live vertex count, popcount of each plane) came
# up before in the call: 5 % of such misses on random:40,45 under bcrt,
# 57-74 % on rook-6-6, match-10 and nicgraph-7-2.  (Whole shape tuples held
# 1 MB more at peak on nicgraph-9-2 bcrt.)
_ISO_BITS = 128
# A node that is not void, {∅} or a cone is a leaf, solved by a closure
# instead of by pivot splits, if it has at most _LEAF_FACETS facets
# (_lattice_masked, as it arrives or after simplify and the nerve, whichever
# comes first) or, after simplify and the nerve, at most _LEAF_FACETS live
# vertices (on its vertex lattice; dbms takes the nerve of such a node first,
# so in practice only bcrt and runs without the nerve get there, while dbms
# uses the vertex lattice for second children of at most _LEAF_FACETS
# vertices and more distinct generators, at their split).  The closure works
# on a 2^k-bit set of subsets of the k facets or vertices, so the cost per
# leaf doubles with each one, and 0 turns every leaf off, the split leaf
# too.  Sweep of the facet bound before the split leaf, perfbench wall_s in
# reference s (one 10 s run, seed 1; 8 before the kernel read 1.45 and
# 0.197): random-antichain 12 -> 0.96, 14 -> 0.81, 16 -> 0.73, 18 -> 0.90,
# 20 -> 2.35, where the closure dominates; gadgets 12 -> 0.161, 14 ->
# 0.152, 16 -> 0.141, 18 -> 0.151, 20 -> 0.223.
_LEAF_FACETS = 16
# A single-vertex bcrt split (σ = V∖{e}) builds its deletion child in
# _deletion, by one of two regimes.  A node of at most
# _TRANSPOSED_DELETION_FACETS facets, or one of at most _SCAN_DELETION_KEEP
# keep sets, scans the keep sets for each cut set directly; a larger node
# with more keep sets ANDs the rows of the keep sets' transpose over each cut
# set's vertices.  The scan pays for the keep side, the transpose for the cut
# sets' vertices.  Replays, best of 3 to 9 (maximal_sets(keep + cut) /
# scan / transpose): the 4,036 deletions of at most 64 facets in
# random-antichain's 40 bcrt solves 172 / 76 / 113 ms; nicgraph-9-2 bcrt's,
# one in four of 44,208, 600 / 297 / 592 ms; narrow-bcrt's 110 deletions
# above 64 facets, all with more than 16 keep sets, 47 / 116 / 16.2 ms; the
# 206 large deletions of random_3cnf(60, 1) under bcrt, each of at most 16
# keep sets against about 900 cut sets that hold 99 % of the union,
# 173 / 111 / 5,713 ms.  No deletion above 64 facets on the golden bcrt rows
# (rook-8-8, match-13, nicgraph-9-2) has 16 keep sets or fewer.
_TRANSPOSED_DELETION_FACETS = 64
_SCAN_DELETION_KEEP = 16

_M64 = (1 << 64) - 1


def _mix(x):
    # splitmix64 finalizer; the only randomness source in the engine
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _child_key(key, branch):
    return _mix(key ^ (0xA5A5A5A5 + branch))


def _draw(key, salt, bound):
    return _mix(key ^ (salt * 0x9E3779B97F4A7C15 & _M64)) % bound


@dataclass(frozen=True)
class EngineConfig:
    algorithm: str = "dbms"
    pivot: Optional[str] = None  # None = algorithm default
    use_nerve: bool = True
    seed: int = 0

    def resolved_pivot(self) -> str:
        return self.pivot if self.pivot is not None else DEFAULT_PIVOT[self.algorithm]

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        allowed = BCRT_PIVOTS if self.algorithm == "bcrt" else DBMS_PIVOTS
        if self.pivot is not None and self.pivot not in allowed:
            raise InputError(
                f"pivot {self.pivot!r} is not a {self.algorithm} strategy {allowed}"
            )


@dataclass
class EngineStats:
    nodes_expanded: int = 0
    base_case_hits: dict = field(default_factory=dict)
    nerve_applications: int = 0
    abundant_eliminations: int = 0
    independence_splits: int = 0
    # not in counters(), whose five keys the benchmark sums
    sum_splits: int = 0  # nodes split into vertex-disjoint parts
    cache_hits: int = 0  # subproblem-table traffic
    cache_evictions: int = 0
    relabelled_keys: int = 0  # lookups made under relabel_by_degree
    max_depth: int = 0  # deepest todo stack; pending table keys lie along it
    split_leaves: int = 0  # dbms second children solved at their split
    elapsed: float = 0.0

    def counters(self):
        """The five deterministic counters that the benchmark sums."""
        return {
            "nodes_expanded": self.nodes_expanded,
            "base_case_hits": dict(sorted(self.base_case_hits.items())),
            "nerve_applications": self.nerve_applications,
            "abundant_eliminations": self.abundant_eliminations,
            "independence_splits": self.independence_splits,
        }

    def extras(self):
        """Every field but elapsed and counters()' keys, in field order."""
        skip = self.counters().keys() | {"elapsed"}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}


# ---------------------------------------------------------------------------
# node pipeline pieces, shared by the stack machine and the public operations
# (the nerve and both split kernels live in core, the vertex counts in _bitops)
# ---------------------------------------------------------------------------


def _simplify_masked(facets):
    """Fixpoint of unused-vertex removal and abundant-vertex elimination.

    Returns (alive, facets, planes, sign, eliminations), planes counting the
    returned facets.  An abundant vertex lies in m - 1 of the m facets, all
    but σ; eliminating it replaces the complex by closure(facets∖{σ}) ⊖ ∁σ
    and flips the sign (the discarded closure is a cone, so its χ̃
    contribution is 0 and the split identity leaves a minus sign).  The other
    vertices missing σ leave with it as unused vertices, so the count and the
    sign go once per σ.

    Each pass eliminates its abundant vertices in one batch, lowest vertex
    first: t is the intersection of the σs taken so far, and the pass ends
    with one maximal_sets of f ∩ t over the facets f still live.  Maximality
    is preserved under intersection with t (each f ∩ t lies in g ∩ t for a
    maximal g), so that one maximalization equals the chain of per-σ ones.
    A later σ stays the missing facet of its vertex v as long as σ ∩ t is
    still a facet there: v lies in every other live facet and in t, so no
    other f ∩ t lies inside σ ∩ t.  Two guards keep the batch equal to
    eliminating the vertices one at a time:

    * stop rule: at most m - 1 of the m facets go, so the node never loses
      its last facet (a simplex boundary would otherwise become void);
    * cone guard: from the second σ on, the batch stops when σ ∩ t lies in
      another live facet.  That facet would swallow σ ∩ t, leaving v in every
      facet: a cone, which the next pass keeps and the terminal step scores.
      The first σ needs no check, since the input is an antichain.
    """
    sign = 1
    elim = 0
    while True:
        planes = count_planes(facets)
        alive = reduce(or_, planes, 0)
        m = len(facets)
        abundant = count_is(planes, alive, m - 1)
        if not abundant:
            return alive, facets, planes, sign, elim
        t = alive
        k = 0  # σs taken
        rest = abundant  # abundant vertices whose σ is still live
        while rest and k < m - 1:
            ebit = rest & -rest
            for sigma in facets:
                if not sigma & ebit:
                    break
            s = sigma & t
            # s lies in the k σs taken and in this one; one more holder is a
            # live facet that makes a cone (s & f == s says s ⊆ f)
            if k and [s & f for f in facets].count(s) > k + 1:
                break
            t = s
            k += 1
            rest &= t
        # the σs taken are the facets containing t: a live one would have
        # stopped the batch (or, for the first σ, broken the antichain)
        facets = maximal_sets([g for f in facets if (g := f & t) != t])
        if k % 2:
            sign = -sign
        elim += k


def _narrowed(facets):
    """facets, re-packed onto their union's vertices when the stored width
    (that of the largest facet) is much larger than the live vertex count."""
    width = max(facets, default=0).bit_length()
    if width > _COMPRESS_MIN_WIDTH:
        alive = reduce(or_, facets, 0)
        if _COMPRESS_RATIO * alive.bit_count() < width:
            facets = compress_columns(alive, facets)[1]
    return facets


def _base_case_masked(facets, alive=None):
    """The terminal step, tried in order.  Returns (value, kind) or None.

    Void, {∅} and a cone (a vertex in all m facets) have fixed values; any
    other node of at most _LEAF_FACETS facets or at most _LEAF_FACETS live
    vertices is a leaf, solved on the subset lattice of its facet indices
    (_lattice_masked) or of its live vertices.  None is left for a non-cone
    with more of both, which goes on to a split.  No step needs simplified
    facets; alive, the facets' union, is computed if not given.
    """
    m = len(facets)
    if m == 0:
        return 0, "void"
    if m == 1 and facets[0] == 0:
        return -1, "empty_face"
    if reduce(and_, facets):
        return 0, "cone"
    if alive is None:
        alive = reduce(or_, facets)
    if m <= _LEAF_FACETS:
        return _lattice_masked(alive, facets), "lattice"
    if alive.bit_count() <= _LEAF_FACETS:
        return _vertex_lattice(alive, facets), "lattice"
    return None


def _subset_masks(m):
    """(holds, odd) over the 2^m subsets S of range(m), bit S standing for S:
    holds[i] marks the S that contain i, odd those of odd size.  The sets
    holding m - 1 are the upper half, and holds[i] = h ^ (h >> 2^i) for
    h = holds[i + 1], since adding 2^i to S carries into bit i + 1 iff i ∈ S."""
    holds = [mask(1 << m - 1) << (1 << m - 1)]
    for i in reversed(range(m - 1)):
        holds.insert(0, holds[0] ^ holds[0] >> (1 << i))
    return holds, reduce(xor, holds)


# for the largest leaf on either lattice: 17 masks of 2^16 bits, about
# 0.14 MB, built at import in well under 1 ms
_HOLDS, _ODD = _subset_masks(_LEAF_FACETS)


def _lattice_masked(alive, facets):
    """χ̃ of a non-void complex of at most _LEAF_FACETS facets (alive is their
    union) as χ̃ of its nerve, summed on the subset lattice of the facet
    indices.

    A set S of indices is a nerve face iff some live vertex lies in every
    facet of S, so the faces are the down-closure of the vertex rows
    {i : v ∈ f_i}.  The rows come from splitting alive by each facet in turn,
    depth first, so at most m classes are pending at once.  Bit S of u marks
    a face: u starts as the rows and the empty set, and _closed_chi closes it
    and counts.  (For {∅}, alive is 0 and u holds only the empty set: χ̃ =
    -1.)
    """
    m = len(facets)
    u = 1
    pending = [(alive, 0, 0)]  # (class of vertices, next facet, row so far)
    while pending:
        c, i, row = pending.pop()
        for i in range(i, m):
            inside = c & facets[i]
            if inside:
                if inside != c:
                    pending.append((c ^ inside, i + 1, row))
                    c = inside
                row |= 1 << i
        u |= 1 << row
    return _closed_chi(u, m)


def _vertex_lattice(alive, sets):
    """χ̃ of the complex generated by sets, a non-empty family of subsets of
    alive, which has at most _LEAF_FACETS vertices: the sets, re-packed onto
    alive's k vertices, mark the generators on the 2^k lattice, and
    _closed_chi closes and counts them.  The sets need not be an antichain:
    duplicate, dominated and empty sets change no down-closure, and sets that
    are all empty give {∅}, χ̃ = -1."""
    k, packed = compress_columns(alive, sets)
    return _closed_chi(reduce(or_, (1 << f for f in packed)), k)


def _closed_chi(u, k):
    """χ̃ of the complex whose faces are the down-closure of u, a set of
    subsets of range(k) with bit S standing for S.  Round i adds S∖{i} for
    every S ∋ i in u (a zeta transform; Björklund, Husfeldt, Kaski and
    Koivisto, STOC 2007), and χ̃ sums -(-1)^|S| over the faces, the empty one
    included: odd faces less even ones."""
    for i in range(k):
        u |= (u & _HOLDS[i]) >> (1 << i)
    return 2 * (u & _ODD).bit_count() - u.bit_count()


def _argmax_mask(sel, planes):
    """Vertices of sel whose counter value is maximal (as a mask)."""
    for p in reversed(planes):
        t = sel & p
        if t:
            sel = t
    return sel


def _argmin_mask(sel, planes):
    for p in reversed(planes):
        t = sel & ~p
        if t:
            sel = t
    return sel


def _lowest(bits):
    return (bits & -bits).bit_length() - 1


# The pivot precondition: a split node has at least two facets, no vertex in
# all of them (a cone is a base case) and, as simplify leaves it, none in
# m - 1.  So no facet is V∖{e}, which would put e in the other m - 1, and
# none of its nerve is either: a nerve facet of m - 1 vertices is a vertex in
# m - 1 facets of the node.  The selectors thus choose from all of alive, and
# euler() asserts that each bcrt pivot is valid.


def _select_bcrt_masked(alive, facets, planes, strategy, key):
    if strategy == "random":
        choices = list(iter_bits(alive))
        e = choices[_draw(key, 11, len(choices))]
        return alive ^ (1 << e)
    if strategy == "rarevar":
        return alive ^ (1 << _lowest(_argmax_mask(alive, planes)))
    ebit = 1 << _lowest(_argmin_mask(alive, planes))
    if strategy == "popgcd":
        eligible = [f for f in facets if not f & ebit]
        idx = list(range(len(eligible)))
        union = 0
        for t in range(min(3, len(idx))):
            union |= eligible[idx.pop(_draw(key, 13 + t, len(idx)))]
        if union != alive and all(union & ~f for f in facets):
            return union
    # popvar, and popgcd when its facet union is not a valid pivot
    return alive ^ ebit


def _select_dbms_masked(alive, facets, planes, strategy, key):
    m = len(facets)
    if strategy == "random":
        return _draw(key, 17, m)
    if strategy == "maxsupp":  # smallest facet (algebraic names are mirrored)
        return min(range(m), key=lambda i: facets[i].bit_count())
    if strategy == "minsupp":  # largest facet
        return min(range(m), key=lambda i: -facets[i].bit_count())
    if strategy in ("popvar", "rarevar", "raremax"):
        # the first facet lacking the rarest (popvar) or most popular vertex
        pick = _argmin_mask if strategy == "popvar" else _argmax_mask
        ebit = 1 << _lowest(pick(alive, planes))
        lacking = [i for i, f in enumerate(facets) if not f & ebit]
        if strategy == "raremax":  # the smallest such facet
            return min(lacking, key=lambda i: facets[i].bit_count())
        return lacking[0]
    # rarest: fewest top-popularity vertices held, ties broken level by level
    # down, then by index; stopping early is 2.3x faster than a lexicographic max
    best = range(m)
    while len(best) > 1 and alive:
        lev = _argmax_mask(alive, planes)
        alive &= ~lev
        held = [(lev & facets[i]).bit_count() for i in best]
        low = min(held)
        best = [i for i, c in zip(best, held) if c == low]
    return best[0]


def _split_dbms_masked(facets, idx):
    """dbms split on σ = facets[idx]: (facets of Δ, second, -1), second
    standing for Δ⊖∁σ, the complex generated by the cut sets t ∩ σ of the
    other facets t.  Every face of it lies in σ, so when σ has at most
    _LEAF_FACETS vertices and the distinct cut sets number more than
    _LEAF_FACETS (too many for a facet leaf), second is its χ̃, solved here on
    σ's vertex lattice; otherwise it is its facets, the maximal cut sets."""
    sigma = facets[idx]
    rest = facets[:idx] + facets[idx + 1 :]
    cut = {t & sigma for t in rest}
    if len(cut) > _LEAF_FACETS and sigma.bit_count() <= _LEAF_FACETS:
        return rest, _vertex_lattice(sigma, cut), -1
    return rest, maximal_sets(cut), -1


def _deletion(keep, cut):
    """maximal_sets(keep + cut) for two antichains where no cut set contains
    a keep set: the keep sets and the cut sets that lie in none of them,
    sorted.

    The scan tests each cut set h against the keep sets in C (h & g == h
    says h ⊆ g).  The transpose walk (_undominated, shared with
    maximal_sets' large batches), with rows[v] the mask of the keep sets
    holding v, takes the keep sets holding h as the AND of rows[v] over v in
    h: all of them for an empty h, none once some v of h is in no keep set.
    See _TRANSPOSED_DELETION_FACETS for which regime a split takes."""
    if len(keep) <= _SCAN_DELETION_KEEP or len(keep) + len(cut) <= _TRANSPOSED_DELETION_FACETS:
        return sorted(keep + [h for h in cut if h not in map(h.__and__, keep)])
    return sorted(keep + _undominated(transpose_rows(keep), mask(len(keep)), cut))


def _split_bcrt_masked(alive, facets, sigma):
    """bcrt split on σ ⊆ alive: (facets of Δ⊖∁σ on σ, second, sign).  When
    ∁σ is one vertex e, second is lk e in the facets' order (so sorted too)
    and sign -1; else it is the closure Δ∪pows σ and sign +1.

    lk e's facets are the cut sets f∖e of the facets f ∋ e, an antichain
    since f∖e ⊆ f′∖e would give f ⊆ f′.  The deletion is the facets g ∌ e
    (the keep sets) and the cut sets that lie in no g; no g lies in a cut
    set, since it would lie in that set's facet; _deletion builds it."""
    ebit = alive & ~sigma
    if ebit & (ebit - 1):  # popgcd's σ can miss several vertices
        return maximal_sets([f & sigma for f in facets]), _closure_facets(facets, sigma), 1
    keep = [f for f in facets if not f & ebit]
    cut = [f ^ ebit for f in facets if f & ebit]
    return _deletion(keep, cut), cut, -1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_NODE, _ADD, _MUL = 0, 1, 2


def euler(cx: Complex, cfg: Optional[EngineConfig] = None):
    """Exact χ̃(Δ).  Returns (value, EngineStats); deterministic for a fixed
    configuration, including the random pivot strategies."""
    if cfg is None:
        cfg = EngineConfig()
    strategy = cfg.resolved_pivot()
    dbms = cfg.algorithm == "dbms"
    stats = EngineStats()
    hits = stats.base_case_hits
    t0 = time.perf_counter()

    # a node item (_NODE, facets, key, sign) stands for sign·χ̃(facets);
    # _MUL multiplies the top two values on the stack, and (_ADD, tkey, sign)
    # adds them and files the sum, unsigned, in the table under tkey unless
    # tkey is None
    todo = [(_NODE, list(cx.facets), _mix(cfg.seed & _M64), 1)]
    vals = []
    table = {}  # insertion-ordered, so its first key is the oldest
    held = 0  # facets in the table's keys
    shapes = set()  # shape hashes of the narrow nodes looked up so far
    depth = 0
    while todo:
        if len(todo) > depth:
            depth = len(todo)
        item = todo.pop()
        op = item[0]
        if op != _NODE:
            b = vals.pop()
            if op == _MUL:
                vals[-1] = checked_mul(vals[-1], b)
                continue
            value = vals[-1] = checked_add(vals[-1], b)
            _, tkey, tsign = item
            if tkey is not None:
                while table and held + len(tkey) > _TABLE_FACETS:
                    old = next(iter(table))
                    held -= len(old)
                    del table[old]
                    stats.cache_evictions += 1
                table[tkey] = value * tsign
                held += len(tkey)
            continue

        _, facets, key, sign = item
        stats.nodes_expanded += 1
        if len(facets) <= _LEAF_FACETS:
            # the terminal step needs no re-pack, simplify or nerve first
            value, kind = _base_case_masked(facets)
            hits[kind] = hits.get(kind, 0) + 1
            vals.append(value * sign)
            continue
        alive, facets, planes, flip, elim = _simplify_masked(_narrowed(facets))
        sign *= flip
        stats.abundant_eliminations += elim

        if len(facets) > _SPLIT_FACETS:
            pair = _independent_pair_masked(alive, facets)
            if pair is not None:
                a, b = pair
                fa, fb = _independent_parts_masked(alive, facets, a, b)
                stats.independence_splits += 1
                todo.append((_MUL,))
                todo.append((_NODE, fb, _child_key(key, 3), 1))
                todo.append((_NODE, fa, _child_key(key, 2), sign))
                continue
            parts = _sum_parts_masked(alive, facets)  # χ̃(A ⊔ B) = χ̃(A) + χ̃(B) + 1
            if parts is not None:
                stats.sum_splits += 1
                vals.append((len(parts) - 1) * sign)
                for i, part in enumerate(parts):
                    todo += (_ADD, None, 1), (_NODE, part, _child_key(key, 4 + i), sign)
                continue

        m = len(facets)
        nu = alive.bit_count()
        if cfg.use_nerve and m >= 2 and (m > nu if dbms else nu > m):
            facets = _nerve_facets(facets)
            planes = count_planes(facets)
            alive = reduce(or_, planes, 0)
            stats.nerve_applications += 1
            # the strict inequality guarantees the algorithm-sensitive
            # dimension drops, so nerves cannot alternate forever
            assert (len(facets) < m) if dbms else (alive.bit_length() < nu)
            m = len(facets)

        bc = _base_case_masked(facets, alive)
        if bc is not None:
            value, kind = bc
            hits[kind] = hits.get(kind, 0) + 1
            vals.append(value * sign)
            continue

        # the facet tuple determines the complex exactly, and the facets are
        # sorted here (maximal_sets, dbms's rest slice, bcrt's link and facet
        # closure, and the monotone compression keep them so), so a
        # repeated complex repeats its key; a relabelled key names an
        # isomorphic copy, of the same χ̃, so both kinds share the table
        tkey = None
        if m <= _TABLE_KEY_FACETS:
            tkey = tuple(facets)
            hit = table.get(tkey)
            if hit is None and alive.bit_length() <= _ISO_BITS:
                shape = hash((m, alive.bit_count(), *map(int.bit_count, planes)))
                if shape in shapes:
                    tkey = tuple(sorted(relabel_by_degree(alive, planes, facets)))
                    hit = table.get(tkey)
                    stats.relabelled_keys += 1
                else:
                    if len(shapes) >= _TABLE_FACETS:
                        shapes.clear()
                    shapes.add(shape)
            if hit is not None:
                stats.cache_hits += 1
                vals.append(hit * sign)
                continue
        todo.append((_ADD, tkey, sign))
        if dbms:
            idx = _select_dbms_masked(alive, facets, planes, strategy, key)
            first, second, s = _split_dbms_masked(facets, idx)
            if type(second) is int:
                # the second child was solved at the split: the _ADD adds its
                # value, filed now, to the first child's
                stats.split_leaves += 1
                vals.append(second * s * sign)
                todo.append((_NODE, first, _child_key(key, 0), sign))
                continue
            assert len(first) < m and len(second) < m
        else:
            sigma = _select_bcrt_masked(alive, facets, planes, strategy, key)
            # termination needs σ ⊊ V and σ ∉ Δ: the deletion branch loses a
            # vertex, the link loses e and the facets without it, and the
            # union branch gains the new face σ.  A facet holding σ = V∖{e}
            # is σ or V, so a single-vertex σ needs only two list scans
            ebit = alive & ~sigma
            assert ebit and (
                sigma not in facets and alive not in facets if not ebit & (ebit - 1)
                else all(sigma & ~f for f in facets))
            first, second, s = _split_bcrt_masked(alive, facets, sigma)
        todo.append((_NODE, second, _child_key(key, 1), s * sign))
        todo.append((_NODE, first, _child_key(key, 0), sign))

    stats.max_depth = depth
    stats.elapsed = time.perf_counter() - t0
    return vals.pop(), stats


# ---------------------------------------------------------------------------
# public single-step operations (the building blocks, used heavily by tests)
# ---------------------------------------------------------------------------


def simplify(cx: Complex):
    """Unused-vertex removal and abundant-vertex elimination to fixpoint.
    Returns (complex, sign) with sign·χ̃(result) = χ̃(input); a wide sparse
    input is re-packed first, as every node is in euler()."""
    alive, facets, _, sign, _ = _simplify_masked(_narrowed(cx.facets))
    return _packed(alive, facets), sign


def try_base_case(cx: Complex) -> Optional[int]:
    """χ̃ from the engine's terminal step, the one euler() takes on a node
    as it arrives and again after simplify and the nerve: 0 for void and for
    a cone, -1 for {∅}, the leaf's value for any other complex of at most
    _LEAF_FACETS (16) facets or at most _LEAF_FACETS live vertices, and None
    for a non-cone with more of both.  The complex need not be simplified
    first."""
    bc = _base_case_masked(cx.facets)
    return None if bc is None else bc[0]


def _pivot_node(cx: Complex):
    """(alive, facets, planes) of a complex meeting the pivot precondition
    (above _select_bcrt_masked); InputError for any other."""
    facets = list(cx.facets)
    planes = count_planes(facets)
    alive = reduce(or_, planes, 0)
    m = len(facets)
    if m < 2 or count_is(planes, alive, m) or count_is(planes, alive, m - 1):
        raise InputError("a pivot needs m >= 2 facets and no vertex in m or m - 1 of them")
    return alive, facets, planes


def select_pivot_bcrt(cx: Complex, strategy: str, key: int = 0) -> int:
    """Choose a bcrt pivot σ (bitmask) with σ ∉ Δ and σ ⊊ V.  `key` seeds the
    deterministic randomness used by the random/popgcd strategies.  As at a
    split in euler(), Δ needs m >= 2 facets and no vertex in m or m - 1 of
    them (simplify leaves none in m - 1); anything else raises InputError."""
    if strategy not in BCRT_PIVOTS:
        raise InputError(f"unknown bcrt strategy {strategy!r}")
    return _select_bcrt_masked(*_pivot_node(cx), strategy, _mix(key & _M64))


def select_pivot_dbms(cx: Complex, strategy: str, key: int = 0) -> int:
    """Choose the index of the dbms pivot facet; Δ as for select_pivot_bcrt."""
    if strategy not in DBMS_PIVOTS:
        raise InputError(f"unknown dbms strategy {strategy!r}")
    return _select_dbms_masked(*_pivot_node(cx), strategy, _mix(key & _M64))


def split_bcrt(cx: Complex, sigma):
    """(Δ⊖∁σ re-indexed, Δ∪pows σ); χ̃ values of the parts sum to χ̃(Δ)."""
    s = as_face(cx.n, sigma)
    # the split identity needs a non-empty σ with σ ∉ Δ and σ ⊊ V (for a
    # non-void Δ non-emptiness already follows from σ ∉ Δ)
    if not s or s == mask(cx.n) or not all(s & ~f for f in cx.facets):
        raise InputError("a bcrt pivot must be a non-empty proper subset of V and not a face")
    inner = _split_bcrt_masked(reduce(or_, cx.facets, 0), cx.facets, s)[0]
    return _packed(s, inner), Complex(cx.n, tuple(_closure_facets(cx.facets, s)))


def split_dbms(cx: Complex, facet_index: int):
    """(closure(facets∖{σ}), that closure ⊖ ∁σ); χ̃(Δ) = first - second.
    The second complex is always built, even where euler() would solve it at
    the split."""
    if not 0 <= facet_index < len(cx.facets) or len(cx.facets) < 2:
        raise InputError("a dbms split needs at least two facets and 0 <= index < m")
    sigma = cx.facets[facet_index]
    rest = cx.facets[:facet_index] + cx.facets[facet_index + 1 :]
    return Complex(cx.n, rest), _packed(sigma, maximal_sets([t & sigma for t in rest]))
