"""Brute-force ground truth: two independent reduced-Euler-characteristic
computations and face-vector enumeration.

These are deliberately naive and guarded; every property test in the suite
checks the fast algorithms against them.
"""

from dataclasses import dataclass

from ._bitops import transpose_rows
from .core import Complex
from .errors import CapacityError, checked_add, checked_sub

SUBSET_VERTEX_LIMIT = 25
IE_FACET_LIMIT = 25
DEFAULT_FACE_LIMIT = 2_000_000


@dataclass(frozen=True)
class FVector:
    """Face counts f_{-1}, f_0, ..., f_{n-1} (f_i = faces of dimension i)."""

    entries: tuple

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def euler(self) -> int:
        """Alternating sum -f_{-1} + f_0 - f_1 + ..."""
        acc = 0
        for k, c in enumerate(self.entries):
            acc = checked_sub(acc, c) if k % 2 == 0 else checked_add(acc, c)
        return acc


def euler_by_subsets(cx: Complex) -> int:
    """χ̃ by enumerating all 2^n vertex subsets and testing face membership."""
    if cx.n > SUBSET_VERTEX_LIMIT:
        raise CapacityError(f"{cx.n} vertices exceeds 2^n enumeration guard")
    facets = cx.facets
    acc = 0
    for s in range(1 << cx.n):
        for f in facets:
            if s & ~f == 0:
                acc += 1 if s.bit_count() & 1 else -1
                break
    return acc


def euler_by_inclusion_exclusion(cx: Complex) -> int:
    """χ̃ by inclusion-exclusion over facet subsets: the subsets with empty
    common intersection contribute (-1)^|v|; everything else contributes 0."""
    m = len(cx.facets)
    if m > IE_FACET_LIMIT:
        raise CapacityError(f"{m} facets exceeds 2^m enumeration guard")
    if m == 0:
        return 0
    facets = cx.facets

    def rec(i, inter, parity):
        # inter is None while no facet has been chosen (v = ∅ is excluded);
        # once the running intersection hits ∅ only the full prefix with no
        # facets left undecided contributes (extensions cancel in pairs).
        if inter == 0:
            return 0 if i < m else (1 if parity == 0 else -1)
        if i == m:
            return 0
        total = rec(i + 1, inter, parity)
        nxt = facets[i] if inter is None else inter & facets[i]
        return total + rec(i + 1, nxt, parity ^ 1)

    return rec(0, None, 0)


def f_vector(cx: Complex, max_faces: int = DEFAULT_FACE_LIMIT) -> FVector:
    """Count faces by cardinality, enumerating each face exactly once.

    Faces are grown by appending vertices in ascending order while some facet
    still contains the whole face, so the walk visits the face lattice without
    materializing 2^n subsets.  Aborts once more than max_faces are seen, or
    up front if one facet alone has more (this bounds the recursion depth).
    """
    n = cx.n
    if not cx.facets:
        return FVector((0,) * (n + 1))
    if 1 << max(f.bit_count() for f in cx.facets) > max_faces:
        raise CapacityError(f"more than {max_faces} faces")
    rows = transpose_rows(cx.facets)  # vertex -> facets containing it
    row_list = [rows.get(v) for v in range(n)]
    counts = [0] * (n + 1)
    counts[0] = 1  # the empty face
    seen = 1

    def rec(sup, start, card):
        nonlocal seen
        for v in range(start, n):
            r = row_list[v]
            if r is None:
                continue
            s2 = sup & r
            if s2:
                counts[card + 1] += 1
                seen += 1
                if seen > max_faces:
                    raise CapacityError(f"more than {max_faces} faces")
                rec(s2, v + 1, card + 1)

    rec((1 << len(cx.facets)) - 1, 0, 0)
    return FVector(tuple(counts))
