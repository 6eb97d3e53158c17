"""Benchmark-family generators: random antichains, chessboard (rook)
complexes, matching complexes, and not-2-connected-graph complexes.

Edge universes are indexed lexicographically over vertex pairs so generated
complexes are bit-identical across runs.
"""

import math
import random
from dataclasses import dataclass
from itertools import accumulate, combinations, permutations
from operator import mul
from typing import Optional

from .core import Complex, make_complex
from .docio import MAX_UNIVERSE
from .errors import CapacityError, InputError

DEFAULT_FACET_LIMIT = 2_000_000
# gen_random's acceptance loop is quadratic: 10,000 facets take about 11 s
RANDOM_FACET_LIMIT = 10_000
# gen_random rejects at most 10,000 m candidates over all its draws, and
# gives a draw up after 1 / _RANDOM_ATTEMPTS of that budget in a row.  So a
# spec that saturates every draw fails after 10,000 m rejections (about
# 0.15 s on random:6,20, against 2.8 s when each of 33 draws had the whole
# budget), and random:4,6, which succeeds in about 1 draw in 8, gets 100
# draws of 600 rejections (seeds 0-299 all succeed).
_RANDOM_ATTEMPTS = 100
FAMILIES = ("random", "rook", "match", "nicgraph")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    a: int
    b: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown generator family {self.family!r}")
        if self.a <= 0 or (self.b is not None and self.b <= 0):
            raise InputError("generator parameters must be positive")
        if self.family == "nicgraph" and (self.b is None or self.b < 2):
            raise InputError("nicgraph requires connectivity parameter b >= 2")

    def __str__(self):
        if self.family == "random":
            return f"random:{self.a},{self.b},seed={self.seed}"
        if self.family == "match":
            return f"match:{self.a}"
        return f"{self.family}:{self.a},{self.b}"


def parse_spec(text: str) -> GeneratorSpec:
    """Parse the CLI syntax: rook:6,6  match:9  nicgraph:7,2  random:20,100,seed=7."""
    try:
        family, _, args = text.partition(":")
        parts = [p.strip() for p in args.split(",")] if args else []
        seed = 0
        if parts and parts[-1].startswith("seed="):
            seed = int(parts.pop()[5:])
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"bad generator spec {text!r}: {exc}") from None
    if family == "match":
        if len(nums) != 1:
            raise InputError("match takes one parameter, e.g. match:9")
        return GeneratorSpec("match", nums[0])
    if family in ("rook", "nicgraph", "random"):
        if len(nums) != 2:
            raise InputError(f"{family} takes two parameters, e.g. {family}:6,6")
        return GeneratorSpec(family, nums[0], nums[1], seed)
    raise InputError(f"unknown generator family {family!r}")


def generate(spec: GeneratorSpec) -> Complex:
    if spec.family == "random":
        return gen_random(spec.a, spec.b, spec.seed)
    if spec.family == "rook":
        return gen_rook(spec.a, spec.b)
    if spec.family == "match":
        return gen_matching(spec.a)
    return gen_nicgraph(spec.a, spec.b)


def gen_random(n: int, m: int, seed: int) -> Complex:
    """m facets on n vertices; each prospective facet takes every vertex with
    probability 1/2 and is rejected if comparable to an accepted facet.  A
    draw whose accepted facets no m-antichain extends (seed 0 of random:4,6
    takes a 3-set first) starts over from an empty list, and the spec fails
    once 10,000 m candidates are rejected over all its draws; a spec that
    succeeds on its first draw gives the same facets as with no restarts."""
    if n < 1 or m < 1:
        raise InputError("gen_random requires n >= 1 and m >= 1")
    if n > MAX_UNIVERSE:
        raise CapacityError(f"gen_random({n},{m}) exceeds the limit of {MAX_UNIVERSE} vertices")
    if m > RANDOM_FACET_LIMIT:
        raise CapacityError(f"gen_random({n},{m}) exceeds {RANDOM_FACET_LIMIT} facets")
    # Sperner's bound C(n, n//2) on an antichain passes the limit from n = 16 on
    if n < 16 and m > math.comb(n, n // 2):
        raise CapacityError(f"gen_random({n},{m}): no antichain on {n} vertices has {m} sets")
    rng = random.Random(seed)
    limit = 10_000 * m
    streak = limit // _RANDOM_ATTEMPTS
    accepted = []
    rejected = run = 0  # rejections in all, and in a row
    while len(accepted) < m:
        cand = rng.getrandbits(n)
        for f in accepted:
            if cand & ~f == 0 or f & ~cand == 0:
                break
        else:
            accepted.append(cand)
            run = 0
            continue
        rejected += 1
        if rejected == limit:
            raise CapacityError(
                f"gen_random({n},{m}) saturated: {limit} candidates rejected over all draws"
            )
        run += 1
        if run == streak:  # the draw is saturated: start over
            accepted = []
            run = 0
    return Complex(n, tuple(sorted(accepted)))


def gen_rook(a: int, b: int, max_facets: int = DEFAULT_FACET_LIMIT) -> Complex:
    """a x b chessboard complex: vertices are board cells (cell (i,j) is
    index i*b+j), facets are the placements of min(a,b) non-attacking rooks."""
    if a < 1 or b < 1:
        raise InputError("gen_rook requires positive board dimensions")
    if any(c > max_facets for c in accumulate(range(max(a, b), abs(a - b), -1), mul)):
        raise CapacityError(f"rook-{a}-{b} exceeds {max_facets} facets")
    # rook k of the short side stands on line p of the long side
    ks, ps = (b, 1) if a <= b else (1, b)
    facets = []
    for perm in permutations(range(max(a, b)), min(a, b)):
        bits = 0
        for k, p in enumerate(perm):
            bits |= 1 << (k * ks + p * ps)
        facets.append(bits)
    return Complex(a * b, tuple(sorted(facets)))


def edge_index(i: int, j: int, a: int) -> int:
    """Lexicographic index of edge {i,j} (i<j) among the pairs of 0..a-1."""
    if not 0 <= i < j < a:
        raise InputError(f"bad edge ({i},{j}) for {a} vertices")
    return i * (2 * a - i - 1) // 2 + (j - i - 1)


def gen_matching(a: int, max_facets: int = DEFAULT_FACET_LIMIT) -> Complex:
    """Matching complex of the complete graph K_a: vertices are the C(a,2)
    edges, facets are the maximal matchings (perfect or near-perfect)."""
    if a < 2:
        raise InputError("gen_matching requires a >= 2")
    # (a-1)!! perfect matchings for even a, a!! near-perfect for odd a
    if any(c > max_facets for c in accumulate(range(3, a + 1, 2), mul)):
        raise CapacityError(f"match-{a} exceeds {max_facets} facets")
    n = a * (a - 1) // 2
    facets = []

    def rec(avail, bits, skips):
        if not avail:
            facets.append(bits)
            return
        u = avail[0]
        rest = avail[1:]
        for k, w in enumerate(rest):
            rec(rest[:k] + rest[k + 1 :], bits | (1 << edge_index(u, w, a)), skips)
        if skips:  # leave u unmatched (odd a: exactly one vertex stays single)
            rec(rest, bits, skips - 1)

    rec(tuple(range(a)), 0, a % 2)
    return Complex(n, tuple(sorted(facets)))


def gen_nicgraph(a: int, b: int, max_facets: int = DEFAULT_FACET_LIMIT) -> Complex:
    """Complex of not-b-connected graphs on a labeled vertices; complex
    vertices are the C(a,2) edges of K_a.

    Facets are built from vertex cuts: for every (b-1)-subset C and every
    unordered bipartition {A,B} of the remaining vertices (both sides
    nonempty), take the edge set of K_{A∪C} ∪ K_{B∪C}.  For b=2 every
    maximal not-2-connected graph arises this way (the tests check facet
    maximality directly); larger b reuses the same cut construction.
    """
    if a < 3:
        raise InputError("gen_nicgraph requires a >= 3")
    if b < 2:
        raise InputError("gen_nicgraph requires b >= 2")
    if b >= a:
        raise InputError("gen_nicgraph requires b < a")
    # C(a, b-1) cuts times 2^(a-b) - 1 bipartitions, each a distinct facet;
    # a huge a - b is refused before its shift is built
    k = a - b
    if k > max_facets.bit_length() or math.comb(a, b - 1) * ((1 << k) - 1) > max_facets:
        raise CapacityError(f"nicgraph-{a}-{b} has more than {max_facets} facets")
    n = a * (a - 1) // 2
    verts = range(a)

    def clique_bits(vs):
        bits = 0
        for i, j in combinations(sorted(vs), 2):
            bits |= 1 << edge_index(i, j, a)
        return bits

    cand = []
    for cut in combinations(verts, b - 1):
        rest = [v for v in verts if v not in cut]
        anchor, others = rest[0], rest[1:]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                side_a = (anchor,) + extra
                if len(side_a) == len(rest):
                    continue  # the other side must be nonempty
                side_b = [v for v in rest if v not in side_a]
                cand.append(clique_bits(side_a + cut) | clique_bits(tuple(side_b) + cut))
    return make_complex(n, cand)
