import math
import time
from itertools import combinations

import pytest

from eulerchar import (
    CapacityError,
    InputError,
    euler_by_subsets,
    gen_matching,
    gen_nicgraph,
    gen_random,
    gen_rook,
)
from eulerchar import generators
from eulerchar._bitops import iter_bits
from eulerchar.generators import GeneratorSpec, edge_index, generate, parse_spec


def test_parse_spec_round_trip():
    for text in ["rook:6,6", "match:9", "nicgraph:7,2", "random:20,100,seed=7"]:
        spec = parse_spec(text)
        assert str(spec) == text
        assert parse_spec(str(spec)) == spec


def test_parse_spec_errors():
    for bad in ["", "rook:6", "match:9,9", "cube:3", "rook:a,b", "nicgraph:7,1"]:
        with pytest.raises(InputError):
            parse_spec(bad)


def test_spec_validation():
    with pytest.raises(InputError):
        GeneratorSpec("rook", 0, 6)
    with pytest.raises(InputError):
        GeneratorSpec("nicgraph", 7, 1)


# --- random -----------------------------------------------------------------


def test_gen_random_postconditions():
    c = gen_random(20, 100, seed=7)
    assert c.n == 20 and c.num_facets == 100
    for a in c.facets:
        for b in c.facets:
            assert a == b or (a & ~b and b & ~a)


def test_gen_random_deterministic():
    assert gen_random(15, 30, 5) == gen_random(15, 30, 5)
    assert gen_random(15, 30, 5) != gen_random(15, 30, 6)


def test_gen_random_single_vertex():
    c = gen_random(1, 1, 3)
    assert c.n == 1 and c.facets in ((0,), (1,))


def test_gen_random_saturates(monkeypatch):
    # one vertex admits only one facet, and C(4, 2) = 6 sets is the largest
    # antichain on 4 vertices (Sperner): both are refused before sampling.
    # Six facets on 4 vertices fit, but seed 0 first draws a 3-set, which no
    # 6-antichain extends, so with one draw allowed sampling gives up.
    for n, m in ((1, 2), (4, 7)):
        with pytest.raises(CapacityError, match="no antichain"):
            gen_random(n, m, 0)
    monkeypatch.setattr(generators, "_RANDOM_ATTEMPTS", 1)
    with pytest.raises(CapacityError, match="saturated"):
        gen_random(4, 6, 0)


def test_gen_random_restarts_a_saturated_draw():
    # the six 2-sets are the only 6-antichain on 4 vertices; seed 0 reaches
    # them on its eighth draw, each saturated one costing 60,000 rejections
    start = time.perf_counter()
    c = gen_random(4, 6, 0)
    assert time.perf_counter() - start < 1
    assert c == gen_random(4, 6, 0)
    assert c.facets == tuple(sorted(1 << a | 1 << b for a, b in combinations(range(4), 2)))


# --- rook -------------------------------------------------------------------


def test_gen_rook_counts():
    c = gen_rook(6, 6)
    assert (c.n, c.num_facets) == (36, 720)
    assert gen_rook(1, 1).facets == (1,)
    assert gen_rook(2, 3).num_facets == 6
    assert all(f.bit_count() == 2 for f in gen_rook(2, 3).facets)


def test_gen_rook_facets_are_nonattacking():
    a, b = 3, 4
    for f in gen_rook(a, b).facets:
        cells = [(v // b, v % b) for v in iter_bits(f)]
        rows = [r for r, _ in cells]
        cols = [c for _, c in cells]
        assert len(set(rows)) == len(cells) and len(set(cols)) == len(cells)
        assert len(cells) == min(a, b)


def test_gen_rook_rectangular_orientations_agree_on_counts():
    assert gen_rook(2, 3).num_facets == gen_rook(3, 2).num_facets
    assert euler_by_subsets(gen_rook(2, 3)) == euler_by_subsets(gen_rook(3, 2))


def test_gen_rook_capacity():
    with pytest.raises(CapacityError):
        gen_rook(8, 8, max_facets=1000)


# --- matching ---------------------------------------------------------------


def test_gen_matching_counts():
    assert (gen_matching(9).n, gen_matching(9).num_facets) == (36, 945)
    assert (gen_matching(10).n, gen_matching(10).num_facets) == (45, 945)
    assert gen_matching(4).num_facets == 3


def test_gen_matching_facets_are_maximal_matchings():
    a = 7
    c = gen_matching(a)
    pairs = list(combinations(range(a), 2))
    for f in c.facets:
        edges = [pairs[v] for v in iter_bits(f)]
        used = [v for e in edges for v in e]
        assert len(set(used)) == len(used)  # a matching
        free = set(range(a)) - set(used)
        assert len(free) <= 1  # maximal: at most one uncovered vertex


def test_edge_index_lexicographic():
    a = 5
    expect = 0
    for i in range(a):
        for j in range(i + 1, a):
            assert edge_index(i, j, a) == expect
            expect += 1


# --- nicgraph ---------------------------------------------------------------


def _edges_of(face, a):
    pairs = list(combinations(range(a), 2))
    return [pairs[v] for v in iter_bits(face)]


def _is_connected(a, edges, removed=()):
    verts = [v for v in range(a) if v not in removed]
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for u, w in edges:
        if u in adj and w in adj:
            adj[u].add(w)
            adj[w].add(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def _is_biconnected(a, edges):
    if a < 3 or not _is_connected(a, edges):
        return False
    return all(_is_connected(a, edges, removed=(v,)) for v in range(a))


def test_gen_nicgraph_counts():
    assert (gen_nicgraph(7, 2).n, gen_nicgraph(7, 2).num_facets) == (21, 217)
    assert (gen_nicgraph(4, 2).n, gen_nicgraph(4, 2).num_facets) == (6, 12)


def test_gen_nicgraph_facets_maximal_not_biconnected():
    for a in (4, 5, 6, 7):
        c = gen_nicgraph(a, 2)
        all_edges = set(combinations(range(a), 2))
        for f in c.facets:
            edges = _edges_of(f, a)
            assert not _is_biconnected(a, edges), (a, edges)
            for extra in all_edges - set(edges):
                assert _is_biconnected(a, edges + [extra]), (a, edges, extra)


def test_gen_nicgraph_validation():
    with pytest.raises(InputError):
        gen_nicgraph(2, 2)
    with pytest.raises(InputError):
        gen_nicgraph(7, 1)


def test_capacity_is_checked_before_building():
    # the facet counts the up-front checks use are exact: (a-1)!! or a!!
    # matchings, 8!/0! rook placements, and C(a, b-1)·(2^(a-b) - 1) nicgraph
    # facets for every b
    assert gen_matching(11, max_facets=10395).num_facets == 10395
    with pytest.raises(CapacityError):
        gen_matching(11, max_facets=10394)
    assert gen_rook(8, 8, max_facets=40320).num_facets == 40320
    with pytest.raises(CapacityError):
        gen_rook(8, 8, max_facets=40319)
    for a in range(3, 9):
        for b in range(2, a):
            count = math.comb(a, b - 1) * (2 ** (a - b) - 1)
            assert gen_nicgraph(a, b, max_facets=count).num_facets == count, (a, b)
            with pytest.raises(CapacityError):
                gen_nicgraph(a, b, max_facets=count - 1)
    # building these used to overflow the recursion limit or run for minutes,
    # and the exact rook count alone took seconds
    for spec in (
        "match:3000",
        "nicgraph:40,2",
        "nicgraph:1000000000,999999990",
        "rook:1000000,1000000",
    ):
        with pytest.raises(CapacityError):
            generate(parse_spec(spec))


# --- cross checks -----------------------------------------------------------


def test_generated_complexes_match_oracle():
    for spec in ["rook:2,3", "match:6", "nicgraph:4,2", "random:12,10,seed=42"]:
        c = generate(parse_spec(spec))
        from eulerchar import euler

        assert euler(c)[0] == euler_by_subsets(c), spec
