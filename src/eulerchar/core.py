"""Simplicial complexes represented by their facets over a fixed vertex universe.

Vertices are dense indices 0..n-1 and a face is a bit-packed int (bit i =
vertex i).  A Complex stores the maximal faces as a sorted tuple of ints;
facet lists are always antichains.  The void complex has no facets at all,
while the complex {∅} has the single facet 0.  Unused vertices (in no facet)
are legal.  All operations are pure; Complex values are immutable and safe
to share between threads.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional, Union

from ._bitops import (
    compress_columns, count_is, count_planes, iter_bits, mask, maximal_sets, transpose_rows
)
from .errors import InputError

FaceLike = Union[int, Iterable[int]]


def as_face(n: int, face: FaceLike) -> int:
    """Normalize a face given as an int bitmask or an iterable of vertex
    indices, checking bounds against the universe size n."""
    if isinstance(face, int):
        if face < 0 or face.bit_length() > n:
            raise InputError(f"face {face:#x} does not fit a universe of {n} vertices")
        return face
    bits = 0
    for v in face:
        if not 0 <= v < n:
            raise InputError(f"vertex index {v} outside universe of size {n}")
        bits |= 1 << v
    return bits


@dataclass(frozen=True)
class Complex:
    """A simplicial complex: universe size plus the antichain of facets.

    Unchecked: the facets must be distinct, pairwise incomparable bitmasks
    below 1 << n, or χ̃ comes out wrong; make_complex is the checked form."""

    n: int
    facets: tuple

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def facet_members(self):
        """Facets as sorted vertex-index tuples (for display and tests)."""
        return [tuple(iter_bits(f)) for f in self.facets]

    def is_void(self) -> bool:
        return not self.facets

    def __repr__(self):
        return f"Complex(n={self.n}, facets={self.facet_members()})"


def make_complex(n: int, faces: Iterable[FaceLike]) -> Complex:
    """Build a Complex from arbitrary faces: duplicates and dominated faces
    are removed, so the result's facets are the maximal input faces."""
    if n < 0:
        raise InputError("universe size must be non-negative")
    return Complex(n, tuple(maximal_sets([as_face(n, f) for f in faces])))


def restrict(cx: Complex, tau: FaceLike):
    """The deletion Δ⊖τ: faces of Δ disjoint from τ, on the universe of the
    surviving n-|τ| vertices (re-indexed densely, ascending).

    Returns (complex, old_to_new) where old_to_new maps surviving vertex
    indices to their new names.
    """
    t = as_face(cx.n, tau)
    keep = mask(cx.n) & ~t
    old_to_new = {p: j for j, p in enumerate(iter_bits(keep))}
    return _packed(keep, maximal_sets([f & keep for f in cx.facets])), old_to_new


def _packed(keep, facets) -> Complex:
    """The facets (inside keep) as a Complex on keep's vertices, re-indexed."""
    k, packed = compress_columns(keep, facets)
    return Complex(k, tuple(packed))


def add_facet_closure(cx: Complex, sigma: FaceLike) -> Complex:
    """Δ ∪ pows(σ): add every subset of σ, keeping the universe."""
    s = as_face(cx.n, sigma)
    for f in cx.facets:
        if s & ~f == 0:
            return cx  # σ already a face
    return Complex(cx.n, tuple(_closure_facets(cx.facets, s)))


def _closure_facets(facets, s):
    """Sorted facets of Δ ∪ pows(s) for a face s ∉ Δ: s replaces the facets
    inside it."""
    return sorted([f for f in facets if f & ~s] + [s])


def is_cone(cx: Complex) -> Optional[int]:
    """Lowest vertex contained in every facet, or None.  Void and {∅} are
    not cones."""
    m = len(cx.facets)
    common = count_is(count_planes(cx.facets), mask(cx.n), m) if m else 0
    return (common & -common).bit_length() - 1 if common else None


def _nerve_facets(facets):
    """Facets of the nerve over the facet-index universe: the maximal sets of
    facets sharing a vertex, or [0] (the complex {∅}) when no vertex is used."""
    rows = transpose_rows(facets)  # vertex -> set of facets containing it
    if not rows:
        return [0]
    return maximal_sets(list(rows.values()))


def nerve(cx: Complex) -> Complex:
    """Nerve of a non-void complex: one vertex per facet, faces = facet sets
    with a common vertex.  ∅ is always a face, so a complex whose only face
    is ∅ has nerve {∅}.  Preserves the reduced Euler characteristic."""
    if not cx.facets:
        raise InputError("nerve of the void complex is undefined")
    return Complex(len(cx.facets), tuple(_nerve_facets(cx.facets)))


def join(a: Complex, b: Complex) -> Complex:
    """Join Δ⊕Γ on the concatenated universes (Γ's vertices shifted by Δ.n).
    Reduced Euler characteristics multiply."""
    if not a.facets or not b.facets:
        raise InputError("join requires non-void operands")
    afull = mask(a.n)
    bfull = mask(b.n) << a.n
    cand = [f | bfull for f in a.facets]
    cand += [afull | (t << a.n) for t in b.facets]
    return Complex(a.n + b.n, tuple(maximal_sets(cand)))


def _independent_pair_masked(alive, facets):
    """Vertex bipartition (A, B) of `alive` with every facet complement inside
    one side, or None; see find_independent_pair."""
    blobs = []
    for f in facets:
        merged = alive & ~f
        rest = []
        for b in blobs:
            if b & merged:
                merged |= b
            else:
                rest.append(b)
        if merged == alive:
            return None  # every later complement merges into this component
        rest.append(merged)
        blobs = rest
    if len(blobs) < 2:
        return None
    a = min(blobs, key=lambda b: (b & -b).bit_length())
    return a, alive & ~a


def _independent_parts_masked(alive, facets, a, b):
    """Facet lists of Δ_A and Δ_B (still on the masks a and b) for a pair
    returned by _independent_pair_masked: a facet goes to the side holding
    its complement."""
    fa = []
    fb = []
    for f in facets:
        (fa if alive & ~f & ~a == 0 else fb).append(f)
    return sorted(f & a for f in fa), sorted(f & b for f in fb)


def _sum_parts_masked(alive, facets):
    """The facets (not empty, their union alive) split into vertex-connected
    parts, or None for one part.  A reach grows from facets[0] by sweeps until
    it covers alive; each sweep visits every isqrt(m)-th facet first, since in
    sorted order the top vertices come last."""
    parts = []
    while True:
        reach, grown = facets[0], 0
        while grown != reach != alive:
            grown = reach
            for f in facets[:: isqrt(len(facets))] + facets:
                if f & reach:
                    reach |= f
                    if reach == alive:
                        break
        if reach == alive:
            return parts + [facets] if parts else None
        parts.append([f for f in facets if f & reach])
        facets = [f for f in facets if not f & reach]
        alive ^= reach


def find_independent_pair(cx: Complex):
    """Detect a vertex bipartition (A, B) witnessing Δ = Δ_A ⊕ Δ_B, where each
    facet complement lies entirely inside one side.

    Connected components of the facet complements under shared-vertex overlap
    are merged; with two or more components the split is the component holding
    the lowest complement vertex versus everything else.  Returns bitmasks
    (A, B) or None (single component, a facet equal to V, or < 2 facets).
    Assumes no unused vertices.
    """
    return _independent_pair_masked(mask(cx.n), cx.facets)


def independent_parts(cx: Complex, a: int, b: int):
    """Reconstruct (Δ_A, Δ_B) from the independent pair find_independent_pair
    returned: Δ_A is the closure of the facets whose complement lies in A,
    deleted down to A's universe."""
    fa, fb = _independent_parts_masked(mask(cx.n), cx.facets, a, b)
    return _packed(a, fa), _packed(b, fb)
