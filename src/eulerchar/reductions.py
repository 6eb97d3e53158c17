"""Constructive hardness gadgets: the #SAT → graph → complex pipeline,
complexes with a prescribed reduced Euler characteristic, and the
χ̃-negation gadget.

Every construction here is validated against brute force in the tests; none
of it is needed by the engine itself.
"""

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from .core import Complex, join, make_complex
from .errors import CapacityError, InputError


@dataclass(frozen=True)
class CnfFormula:
    """CNF with DIMACS-style literals: 1-based variable indices, negative
    for negated occurrences.  Individual clauses must be nonempty; the
    clause list itself may be empty (a vacuous conjunction)."""

    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise InputError("negative variable count")
        for cl in self.clauses:
            if not cl:
                raise InputError("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InputError(f"literal {lit} out of range")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on 0..num_vertices-1."""

    num_vertices: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise InputError("loops are not allowed")
            if not (0 <= u < v < self.num_vertices):
                raise InputError(f"bad edge ({u},{v})")


def sat_to_graph(f: CnfFormula) -> Graph:
    """Variable gadget: a triangle T_i, F_i, D_i per variable; one vertex C_j
    per clause; an edge from C_j to T_i (positive occurrence) or F_i
    (negative occurrence).  Vertex order: T_1,F_1,D_1,...,C_1,...,C_k."""
    n = f.num_vars
    edges = set()
    for i in range(n):
        t, fa, d = 3 * i, 3 * i + 1, 3 * i + 2
        edges.update({(t, fa), (t, d), (fa, d)})
    for j, clause in enumerate(f.clauses):
        c = 3 * n + j
        for lit in clause:
            node = 3 * (abs(lit) - 1) + (0 if lit > 0 else 1)
            edges.add((min(node, c), max(node, c)))
    return Graph(3 * n + len(f.clauses), frozenset(edges))


def graph_to_complex(g: Graph) -> Complex:
    """Facets are the complements of the edges; the parity sum of the
    independent sets of g is then (-1)^|V| · χ̃ of the complex."""
    if not g.edges:
        raise InputError("graph_to_complex requires at least one edge")
    full = (1 << g.num_vertices) - 1
    return make_complex(
        g.num_vertices, [full ^ (1 << u) ^ (1 << v) for u, v in g.edges]
    )


def count_sat_bruteforce(f: CnfFormula) -> int:
    """Truth-table count of satisfying assignments (guarded at 20 variables)."""
    if f.num_vars > 20:
        raise CapacityError("truth-table oracle guarded at 20 variables")
    count = 0
    for assign in range(1 << f.num_vars):
        ok = True
        for clause in f.clauses:
            if not any(
                (assign >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            count += 1
    return count


def sat_to_complex(f: CnfFormula) -> Tuple[Complex, int]:
    """Compose the two reductions.  Returns (Δ, s) with s·χ̃(Δ) = #SAT(f).

    The two reduction steps carry parities (-1)^num_vars and
    (-1)^num_graph_vertices; the graph has 3·num_vars + num_clauses vertices,
    so the composite sign collapses to (-1)^num_clauses.  The tests pin this
    against the truth-table oracle over an exhaustive small enumeration.
    """
    # CnfFormula keeps every literal within 1..num_vars, so the variables
    # all occur exactly when as many distinct ones occur as are declared
    occurring = {abs(lit) for cl in f.clauses for lit in cl}
    if len(occurring) != f.num_vars:
        raise InputError("every variable must occur in some clause")
    sign = -1 if len(f.clauses) % 2 else 1
    return graph_to_complex(sat_to_graph(f)), sign


def _points(k: int) -> Complex:
    """k isolated vertices; χ̃ = k - 1."""
    return Complex(k, tuple(1 << i for i in range(k)))


_TRIANGLE = ((1 << 0) | (1 << 1), (1 << 0) | (1 << 2), (1 << 1) | (1 << 2))


def _triangle_boundary() -> Complex:
    return Complex(3, _TRIANGLE)


def _power_block(n: int) -> Complex:
    """Join of n three-point complexes: χ̃ = 2^n on 3n vertices, 3n facets.
    For n = 0 falls back to two isolated points (χ̃ = 1)."""
    if n == 0:
        return _points(2)
    cx = _points(3)
    for _ in range(n - 1):
        cx = join(cx, _points(3))
    return cx


def _disjoint_union(parts) -> Complex:
    """Concatenate vertex universes; for non-void parts with nonempty facets
    χ̃(result) = Σχ̃(part) + #parts - 1."""
    offset = 0
    facets = []
    for p in parts:
        facets.extend(f << offset for f in p.facets)
        offset += p.n
    return Complex(offset, tuple(sorted(facets)))


def complex_with_euler(k: int) -> Complex:
    """A complex with χ̃ = k whose vertex and facet counts stay within
    2l² + 3l + 7 for l = ceil(log2 |k|).

    k = 0 is the void complex and k = 1 two isolated points.  Powers of two
    use a join of three-point blocks directly.  Other positive k combine the
    blocks of the binary expansion as a disjoint union plus a correction
    gadget Φ with χ̃ = -(#blocks).  Negative k joins with a triangle boundary
    to negate."""
    if not -(1 << 63) < k < (1 << 63):
        raise InputError("|k| must fit a signed 64-bit integer")
    if k < 0:
        return negate_euler(complex_with_euler(-k))
    if k == 0:
        return Complex(0, ())
    if k == 1:
        return _points(2)
    if k & (k - 1) == 0:
        return _power_block(k.bit_length() - 1)
    blocks = [_power_block(n) for n in range(k.bit_length()) if (k >> n) & 1]
    phi = join(_points(len(blocks) + 1), _triangle_boundary())
    return _disjoint_union(blocks + [phi])


def negate_euler(cx: Complex) -> Complex:
    """Δ ⊕ Ω for a triangle boundary Ω on three fresh vertices appended to
    the universe; χ̃ is negated because χ̃(Ω) = -1."""
    if cx.is_void():
        raise InputError("negate_euler requires a non-void complex")
    return join(cx, _triangle_boundary())
