"""Divide-and-conquer reduced-Euler-characteristic engine.

Two algorithms over the same node pipeline:

* bcrt: split on a vertex-set pivot σ with σ ∉ Δ and σ ⊊ V:
          χ̃(Δ) = χ̃(Δ⊖∁σ) + χ̃(Δ∪pows σ)
* dbms: split on a facet σ:  χ̃(D) = χ̃(Δ) - χ̃(Δ⊖∁σ)  with
          Δ = closure(facets∖{σ})

Every node is simplified first (unused vertices dropped, abundant vertices
eliminated with a sign flip), optionally decomposed along an independent
vertex pair, possibly replaced by its nerve, and finally matched against the
base cases before a pivot split.  A small node (at most _TABLE_KEY_FACETS
facets) that reaches its pivot split is first looked up in a subproblem
table that lives for one euler() call and maps the node's exact facet tuple
to its unsigned χ̃; a hit replaces the whole subtree by the stored value, a
miss stores the value once the subtree is solved.  Evaluation is an explicit
stack machine, so recursion depth is bounded regardless of instance size,
and all randomness is derived from (seed, node path), which makes every run
bit-reproducible.
"""

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ._bitops import compress_columns, iter_bits, mask, maximal_sets
from .core import (
    Complex,
    _common_vertices,
    _independent_pair_masked,
    _independent_parts_masked,
    _nerve_facets,
    add_facet_closure,
    as_face,
    restrict,
)
from .errors import InputError, checked_add, checked_mul

ALGORITHMS = ("bcrt", "dbms")
BCRT_PIVOTS = ("popvar", "rarevar", "random", "popgcd")
DBMS_PIVOTS = ("rarevar", "popvar", "maxsupp", "minsupp", "random", "rarest", "raremax")
DEFAULT_PIVOT = {"bcrt": "popvar", "dbms": "raremax"}
INDEPENDENCE = ("off", "root", "all")

# when the stored width is this much larger than the live vertex count the
# node's facets are re-packed onto a dense universe
_COMPRESS_MIN_WIDTH = 2048
_COMPRESS_RATIO = 3

# The subproblem table keys only nodes of at most _TABLE_KEY_FACETS facets.
# A key is held from a node's split until its subtree is solved, so keying
# every size piles keys up along a deep bcrt stack (655,497 facets at once on
# rook-8-8, +19 MB peak RSS), and on the golden families large keys repeat so
# rarely that they mostly push small, often repeated ones out of the table.
_TABLE_KEY_FACETS = 64
# the table holds keys of at most this many facets in total; a store that
# would pass it evicts the oldest entries first (deterministic, so the
# counters repeat from run to run)
_TABLE_FACETS = 1 << 14

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
    independence: str = "root"  # independent-pair splits: off | root | all nodes
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
        if self.independence not in INDEPENDENCE:
            raise InputError(f"independence {self.independence!r} is not one of {INDEPENDENCE}")


@dataclass
class EngineStats:
    nodes_expanded: int = 0
    base_case_hits: dict = field(default_factory=dict)
    nerve_applications: int = 0
    abundant_eliminations: int = 0
    independence_splits: int = 0
    # subproblem-table traffic; not in counters(), whose five keys the
    # benchmark sums
    cache_hits: int = 0
    cache_evictions: int = 0
    elapsed: float = 0.0

    def counters(self):
        """Deterministic counters (everything except elapsed)."""
        return {
            "nodes_expanded": self.nodes_expanded,
            "base_case_hits": dict(sorted(self.base_case_hits.items())),
            "nerve_applications": self.nerve_applications,
            "abundant_eliminations": self.abundant_eliminations,
            "independence_splits": self.independence_splits,
        }


# ---------------------------------------------------------------------------
# node pipeline pieces, shared by the stack machine and the public operations
# (the nerve, independence split and cone test kernels live in core)
# ---------------------------------------------------------------------------


def _simplify_masked(facets):
    """Fixpoint of unused-vertex removal and abundant-vertex elimination.

    Returns (alive, facets, sign, eliminations).  An abundant vertex lies in
    every facet except exactly one facet σ; eliminating it replaces the
    complex by closure(facets∖{σ}) ⊖ ∁σ and flips the sign (the discarded
    closure is a cone, so its χ̃ contribution is 0 and the split identity
    leaves a minus sign).
    """
    sign = 1
    elim = 0
    while True:
        alive = 0
        for f in facets:
            alive |= f
        m = len(facets)
        if m <= 1:
            return alive, facets, sign, elim
        once = 0
        twice = 0
        for f in facets:
            c = alive & ~f
            twice |= once & c
            once |= c
        abundant = once & ~twice
        if not abundant:
            return alive, facets, sign, elim
        ebit = abundant & -abundant
        drop = 0
        for i, f in enumerate(facets):
            if not f & ebit:
                drop = i
                break
        sigma = facets[drop]
        facets = maximal_sets([facets[j] & sigma for j in range(m) if j != drop])
        sign = -sign
        elim += 1


def _base_case_masked(universe, facets):
    """Terminal values, tried in order.  Returns (value, kind) or None.

    The 3-facet and 4-facet rules carry their own structural guards (pairwise
    disjoint facets / 4 vertices each in exactly two facets) so they are safe
    even if a caller skipped simplification.
    """
    m = len(facets)
    if m == 0:
        return 0, "void"
    if m == 1 and facets[0] == 0:
        return -1, "empty_face"
    if _common_vertices(facets):
        return 0, "cone"
    if m >= 2:
        once = 0
        twice = 0
        for f in facets:
            c = universe & ~f
            twice |= once & c
            once |= c
        if not twice:  # complements pairwise disjoint = facets pairwise co-disjoint
            return (1 if m % 2 == 0 else -1), "codisjoint"
    if m == 2:
        return 1, "two_facets"
    if m == 3:
        v1 = 0
        v2 = 0
        for f in facets:
            v2 |= v1 & f
            v1 |= f
        if not v2:  # three pairwise disjoint simplices
            return 2, "three_facets"
    if m == 4 and universe.bit_count() == 4:
        c1 = c2 = c3 = 0
        for f in facets:
            c3 |= c2 & f
            c2 |= c1 & f
            c1 |= f
        if c2 & ~c3 == universe:  # every vertex in exactly two facets
            return -1, "four_facets"
    return None


def _count_planes(facets):
    """Bit-sliced per-vertex incidence counters: planes[i] holds bit i of the
    number of facets containing each vertex."""
    planes = []
    for f in facets:
        carry = f
        i = 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            t = planes[i] & carry
            planes[i] ^= carry
            carry = t
            i += 1
    return planes


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


def _bcrt_candidates(alive, facets):
    """Vertices e usable as comple{e} pivots: comple{e} must not be a facet."""
    nu = alive.bit_count()
    excl = 0
    for f in facets:
        if f.bit_count() == nu - 1:
            excl |= alive & ~f
    return alive & ~excl


def _select_bcrt_masked(alive, facets, strategy, key):
    cand = _bcrt_candidates(alive, facets)
    # if no candidate existed every comple{e} would be a facet, i.e. Δ is the
    # simplex boundary, which the co-disjoint base case already handled
    assert cand, "pivot selection reached with no valid vertex"
    if strategy == "random":
        choices = list(iter_bits(cand))
        e = choices[_draw(key, 11, len(choices))]
        return alive ^ (1 << e)
    planes = _count_planes(facets)
    if strategy == "rarevar":
        return alive ^ (1 << _lowest(_argmax_mask(cand, planes)))
    ebit = 1 << _lowest(_argmin_mask(cand, planes))
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


def _select_dbms_masked(alive, facets, strategy, key):
    m = len(facets)
    if strategy == "random":
        return _draw(key, 17, m)
    if strategy == "maxsupp":  # smallest facet (algebraic names are mirrored)
        return min(range(m), key=lambda i: (facets[i].bit_count(), i))
    if strategy == "minsupp":  # largest facet
        return min(range(m), key=lambda i: (-facets[i].bit_count(), i))
    planes = _count_planes(facets)
    if strategy == "popvar":
        # rare vertex (no constraint), then the first facet lacking it
        ebit = 1 << _lowest(_argmin_mask(alive, planes))
        for i, f in enumerate(facets):
            if not f & ebit:
                return i
        raise AssertionError("rare vertex contained in every facet (cone)")
    cand = _bcrt_candidates(alive, facets)
    assert cand, "no popular-vertex candidate (simplex boundary)"
    if strategy in ("rarevar", "raremax"):
        ebit = 1 << _lowest(_argmax_mask(cand, planes))
        lacking = [i for i, f in enumerate(facets) if not f & ebit]
        if strategy == "rarevar":
            return lacking[0]
        return min(lacking, key=lambda i: (facets[i].bit_count(), i))
    # rarest: rank facets by how many top-popularity vertices they lack,
    # breaking ties with the next popularity level down
    remaining = list(range(m))
    level_sel = cand
    while len(remaining) > 1 and level_sel:
        lev = _argmax_mask(level_sel, planes)
        best = -1
        keep = []
        for i in remaining:
            lacked = (lev & ~facets[i]).bit_count()
            if lacked > best:
                best = lacked
                keep = [i]
            elif lacked == best:
                keep.append(i)
        remaining = keep
        level_sel &= ~lev
    return remaining[0]


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
    split_root = cfg.independence != "off"
    split_all = cfg.independence == "all"
    stats = EngineStats()
    hits = stats.base_case_hits
    t0 = time.perf_counter()

    # a node item (_NODE, facets, key, sign, is_root) stands for sign·χ̃(facets);
    # _MUL multiplies the top two values on the stack, and (_ADD, tkey, sign)
    # adds them and files the sum, unsigned, in the table under tkey unless
    # tkey is None
    todo = [(_NODE, list(cx.facets), _mix(cfg.seed & _M64), 1, True)]
    vals = []
    table = {}
    order = deque()  # the table's keys, oldest first
    held = 0  # facets in the table's keys
    while todo:
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
                while order and held + len(tkey) > _TABLE_FACETS:
                    old = order.popleft()
                    held -= len(old)
                    del table[old]
                    stats.cache_evictions += 1
                table[tkey] = value * tsign
                order.append(tkey)
                held += len(tkey)
            continue

        _, facets, key, sign, is_root = item
        stats.nodes_expanded += 1
        alive, facets, flip, elim = _simplify_masked(facets)
        sign *= flip
        stats.abundant_eliminations += elim

        width = alive.bit_length()
        if width > _COMPRESS_MIN_WIDTH and _COMPRESS_RATIO * alive.bit_count() < width:
            k, facets = compress_columns(alive, facets)
            alive = mask(k)

        if split_all or (split_root and is_root):
            pair = _independent_pair_masked(alive, facets)
            if pair is not None:
                a, b = pair
                fa, fb = _independent_parts_masked(alive, facets, a, b)
                stats.independence_splits += 1
                todo.append((_MUL,))
                todo.append((_NODE, fb, _child_key(key, 3), 1, False))
                todo.append((_NODE, fa, _child_key(key, 2), sign, False))
                continue

        m = len(facets)
        nu = alive.bit_count()
        if cfg.use_nerve and m >= 2 and nu >= 1 and (m > nu if dbms else nu > m):
            facets = _nerve_facets(facets)
            alive = 0
            for f in facets:
                alive |= f
            stats.nerve_applications += 1
            # the strict inequality guarantees the algorithm-sensitive
            # dimension drops, so nerves cannot alternate forever
            assert (len(facets) < m) if dbms else (alive.bit_length() < nu)
            m = len(facets)

        bc = _base_case_masked(alive, facets)
        if bc is not None:
            value, kind = bc
            hits[kind] = hits.get(kind, 0) + 1
            vals.append(value * sign)
            continue

        # the facet tuple determines the complex exactly, and the facets are
        # sorted here (maximal_sets, dbms's rest slice, bcrt's sorted outer
        # and the monotone compression keep them so), so a repeated complex
        # repeats its key
        tkey = None
        if m <= _TABLE_KEY_FACETS:
            tkey = tuple(facets)
            hit = table.get(tkey)
            if hit is not None:
                stats.cache_hits += 1
                vals.append(hit * sign)
                continue
        todo.append((_ADD, tkey, sign))
        if dbms:
            idx = _select_dbms_masked(alive, facets, strategy, key)
            sigma = facets[idx]
            rest = facets[:idx] + facets[idx + 1 :]
            inner = maximal_sets([t & sigma for t in rest])
            assert len(rest) < m and len(inner) < m
            todo.append((_NODE, inner, _child_key(key, 1), -sign, False))
            todo.append((_NODE, rest, _child_key(key, 0), sign, False))
        else:
            sigma = _select_bcrt_masked(alive, facets, strategy, key)
            # termination needs σ ⊊ V and σ ∉ Δ: the deletion branch loses a
            # vertex and the union branch gains the new face σ
            assert sigma != alive and all(sigma & ~f for f in facets)
            outer = sorted([f for f in facets if f & ~sigma] + [sigma])
            todo.append((_NODE, outer, _child_key(key, 1), sign, False))
            todo.append(
                (_NODE, maximal_sets([f & sigma for f in facets]), _child_key(key, 0), sign, False)
            )

    stats.elapsed = time.perf_counter() - t0
    return vals.pop(), stats


# ---------------------------------------------------------------------------
# public single-step operations (the building blocks, used heavily by tests)
# ---------------------------------------------------------------------------


def simplify(cx: Complex):
    """Unused-vertex removal and abundant-vertex elimination to fixpoint.
    Returns (complex, sign) with sign·χ̃(result) = χ̃(input)."""
    alive, facets, sign, _ = _simplify_masked(list(cx.facets))
    k, packed = compress_columns(alive, facets)
    return Complex(k, tuple(packed)), sign


def try_base_case(cx: Complex) -> Optional[int]:
    """χ̃ for the directly-solvable shapes, or None.  Assumes the complex has
    been simplified (the 3/4-facet rules self-guard regardless)."""
    bc = _base_case_masked(mask(cx.n), list(cx.facets))
    return None if bc is None else bc[0]


def select_pivot_bcrt(cx: Complex, strategy: str, key: int = 0) -> int:
    """Choose a bcrt pivot σ (bitmask) with σ ∉ Δ and σ ⊊ V.  `key` seeds the
    deterministic randomness used by the random/popgcd strategies."""
    if strategy not in BCRT_PIVOTS:
        raise InputError(f"unknown bcrt strategy {strategy!r}")
    return _select_bcrt_masked(mask(cx.n), list(cx.facets), strategy, _mix(key & _M64))


def select_pivot_dbms(cx: Complex, strategy: str, key: int = 0) -> int:
    """Choose the index of the dbms pivot facet."""
    if strategy not in DBMS_PIVOTS:
        raise InputError(f"unknown dbms strategy {strategy!r}")
    return _select_dbms_masked(mask(cx.n), list(cx.facets), strategy, _mix(key & _M64))


def split_bcrt(cx: Complex, sigma):
    """(Δ⊖∁σ re-indexed, Δ∪pows σ); χ̃ values of the parts sum to χ̃(Δ)."""
    s = as_face(cx.n, sigma)
    # the split identity needs a non-empty σ with σ ∉ Δ and σ ⊊ V (for a
    # non-void Δ non-emptiness already follows from σ ∉ Δ)
    assert s and s != mask(cx.n) and all(s & ~f for f in cx.facets), "invalid bcrt pivot"
    deleted, _ = restrict(cx, mask(cx.n) & ~s)
    return deleted, add_facet_closure(cx, s)


def split_dbms(cx: Complex, facet_index: int):
    """(closure(facets∖{σ}), that closure ⊖ ∁σ); χ̃(Δ) = first - second."""
    assert len(cx.facets) >= 2, "dbms split needs at least two facets"
    sigma = cx.facets[facet_index]
    rest = Complex(cx.n, cx.facets[:facet_index] + cx.facets[facet_index + 1 :])
    deleted, _ = restrict(rest, mask(cx.n) & ~sigma)
    return rest, deleted
