from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from eulerchar import (
    Complex,
    EngineConfig,
    add_facet_closure,
    InputError,
    euler,
    euler_by_inclusion_exclusion,
    euler_by_subsets,
    f_vector,
    is_cone,
    make_complex,
    nerve,
    select_pivot_bcrt,
    select_pivot_dbms,
    simplify,
    split_bcrt,
    split_dbms,
    try_base_case,
)
from eulerchar import engine
from eulerchar._bitops import count_planes, iter_bits, mask, maximal_sets
from eulerchar.engine import BCRT_PIVOTS, DBMS_PIVOTS
from eulerchar.generators import generate, parse_spec

from conftest import all_complexes, flipped, interleaved_union, random_complex


def cx(n, *faces):
    return make_complex(n, faces)


def all_configs():
    for alg, pivots in (("bcrt", BCRT_PIVOTS), ("dbms", DBMS_PIVOTS)):
        for piv in pivots:
            for nv in (True, False):
                yield EngineConfig(algorithm=alg, pivot=piv, use_nerve=nv)


# --- simplify ----------------------------------------------------------------


def test_simplify_drops_unused_vertex():
    assert simplify(cx(3, {0, 1})) == (cx(2, {0, 1}), 1)


def test_simplify_sign_contract_on_examples():
    # abundant elimination flips the sign; sign * χ̃(result) = χ̃(input)
    for c in [cx(3, {0, 1}, {0, 2}, {1, 2}), cx(3, {0, 1}, {2})]:
        out, sign = simplify(c)
        assert sign * euler_by_subsets(out) == euler_by_subsets(c)


def test_simplify_reaches_fixpoint(rng):
    # dense facets give passes with many abundant vertices, and with them
    # the cases where a batch must stop before a cone
    for _ in range(3000):
        n = rng.randint(1, 11)
        density = rng.choice((0.3, 0.5, 0.7, 0.85, 0.95))
        c = make_complex(
            n, [[v for v in range(n) if rng.random() < density] for _ in range(rng.randint(1, 14))]
        )
        out, sign = simplify(c)
        assert sign in (-1, 1)
        assert sign * euler_by_subsets(out) == euler_by_subsets(c)
        # no unused vertices
        used = 0
        for f in out.facets:
            used |= f
        assert used == mask(out.n)
        # no abundant vertices: every vertex misses zero or >= 2 facets
        for v in range(out.n):
            missing = sum(1 for f in out.facets if not (f >> v) & 1)
            assert missing != 1, (c, out, v)


def test_simplify_simplex_boundaries():
    # every vertex is abundant, each missing its own facet: the batch must
    # stop one facet short of void, leaving {∅} with sign (-1)^(n-1)
    for n in range(1, 13):
        boundary = make_complex(n, [mask(n) ^ (1 << v) for v in range(n)])
        assert simplify(boundary) == (Complex(0, (0,)), (-1) ** (n - 1)), n
        assert euler_by_subsets(boundary) == (-1) ** n


def test_simplify_stops_before_a_cone():
    # 0 misses {1,2} and 2 misses {0,3}; after the first, {0,3} ∩ {1,2} = ∅
    # lies in the live {0,2}, so the batch stops, and the next pass is left
    # with the cone {2} (the path 1-2-0-3 is contractible)
    path = cx(4, {0, 2}, {1, 2}, {0, 3})
    assert simplify(path) == (cx(1, {0}), -1)
    assert euler_by_subsets(path) == 0


def test_simplify_void_and_point():
    assert simplify(cx(2)) == (Complex(0, ()), 1)
    assert simplify(Complex(1, (0,))) == (Complex(0, (0,)), 1)


# --- try_base_case -----------------------------------------------------------


def test_base_case_examples():
    assert try_base_case(cx(4, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2})) == 1
    assert try_base_case(cx(3, {0, 1}, {2})) == 1
    assert try_base_case(cx(4, {0, 1}, {1, 2}, {2, 3}, {0, 3})) == -1
    assert try_base_case(Complex(1, (0,))) == -1


def test_base_case_order_and_misses():
    assert try_base_case(cx(3)) == 0  # void
    assert try_base_case(cx(4, {0, 1, 2, 3})) == 0  # cone
    assert try_base_case(cx(3, {0}, {1})) == 1  # two facets, unused vertex
    assert try_base_case(cx(3, {0}, {1}, {2})) == 2  # three disjoint simplices
    # triangle boundary = simplex boundary: pairwise co-disjoint, (-1)^3
    assert try_base_case(cx(3, {0, 1}, {0, 2}, {1, 2})) == -1
    # path complex: not a cone, so the leaf solves it (contractible)
    path = cx(4, {0, 1}, {1, 2}, {2, 3})
    assert try_base_case(path) == euler_by_subsets(path) == 0
    # four facets, every vertex in two of them, over 5 or 6 vertices: blown-up
    # K4 minus an edge (χ̃ = -2) and K4 (χ̃ = -3), not the 4-cycle's -1
    for edges in ("01 02 03 12 13", "01 02 03 12 13 23"):
        pairs = edges.split()
        c = cx(len(pairs), *[{v for v, p in enumerate(pairs) if str(i) in p} for i in range(4)])
        assert try_base_case(c) == euler(c)[0] == euler_by_subsets(c) == 3 - len(pairs)
    # nine isolated points: no cone, and more facets than the leaf takes
    assert try_base_case(cx(9, *[{v} for v in range(9)])) is None


def test_base_case_values_match_oracle(rng):
    # every complex on at most 4 vertices, and complexes of 9-12 equal-size
    # facets (an antichain), beyond the leaf, every other one made a cone by
    # an apex vertex n
    large = []
    for i in range(60):
        n = rng.randint(6, 8)
        faces = rng.sample(list(combinations(range(n), rng.randint(2, n - 2))), rng.randint(9, 12))
        large.append(make_complex(n + 1, [f + (n,) if i % 2 else f for f in faces]))
    hits = misses = large_cones = 0
    for c in [*all_complexes(4), *large]:
        got = try_base_case(c)
        if got is None:
            misses += 1
            assert c.num_facets > 8 and is_cone(c) is None, c
        else:
            hits += 1
            large_cones += c.num_facets > 8
            assert got == euler_by_subsets(c), c
    assert hits > 50 and misses > 20 and large_cones > 20


# --- pivot selection ---------------------------------------------------------


# simplified, no cone: vertex 3 lies in 3 of the 5 facets, the others in 2
PIVOT_EXAMPLE = cx(5, {0, 1, 2}, {0, 3}, {1, 3}, {2, 4}, {3, 4})


def test_pivot_example_is_a_split_node():
    assert simplify(PIVOT_EXAMPLE) == (PIVOT_EXAMPLE, 1)
    assert is_cone(PIVOT_EXAMPLE) is None


def test_select_pivot_bcrt_examples():
    c = PIVOT_EXAMPLE
    assert select_pivot_bcrt(c, "popvar") == 0b11110  # V less the rarest vertex, 0
    assert select_pivot_bcrt(c, "rarevar") == 0b10111  # V less the most popular, 3
    # the facets lacking vertex 0 are {1,3}, {2,4} and {3,4}: three draws take
    # all of them, and their union V∖{0} is no face
    assert select_pivot_bcrt(c, "popgcd", key=5) == 0b11110
    picks = {select_pivot_bcrt(c, "random", key=0) for _ in range(5)}
    assert len(picks) == 1  # deterministic for a fixed key


def test_select_pivot_needs_a_split_node():
    # void, {∅}, one facet, a cone, the triangle boundary (each vertex in
    # m - 1 facets) and unsimplified complexes with a vertex in m - 1 facets
    cases = [
        cx(3),
        Complex(2, (0,)),
        cx(3, {0, 2}),
        cx(4, {0, 1}, {0, 2, 3}),
        cx(3, {0, 1}, {0, 2}, {1, 2}),
        cx(4, {0, 1}, {2, 3}),
        cx(3, {0, 1}, {2}),
        cx(4, {0, 1, 2}, {0, 3}, {1, 3}),
    ]
    for c in cases:
        for strat in BCRT_PIVOTS:
            with pytest.raises(InputError):
                select_pivot_bcrt(c, strat)
        for strat in DBMS_PIVOTS:
            with pytest.raises(InputError):
                select_pivot_dbms(c, strat)


def test_select_pivot_rejects_unknown_strategy():
    c = cx(4, {0, 1}, {2, 3})
    with pytest.raises(InputError):
        select_pivot_bcrt(c, "nope")
    with pytest.raises(InputError):
        select_pivot_dbms(c, "nope")


def test_select_pivot_bcrt_validity(rng):
    # a pivot needs at least two facets and no cone; simplify has left no
    # vertex in m - 1 facets, so no simplex boundary either
    reached = 0
    for _ in range(200):
        c, _ = simplify(random_complex(rng, 9, 9))
        if c.num_facets < 2 or is_cone(c) is not None:
            continue
        reached += 1
        for strat in BCRT_PIVOTS:
            s = select_pivot_bcrt(c, strat, key=17)
            assert 0 < s < mask(c.n)
            assert all(s & ~f for f in c.facets), (c, strat)  # σ ∉ Δ
    assert reached >= 5


def test_select_pivot_dbms_examples():
    c = PIVOT_EXAMPLE
    assert c.facets == (0b00111, 0b01001, 0b01010, 0b10100, 0b11000)
    assert select_pivot_dbms(c, "maxsupp") == 1  # {0,3}: smallest, lowest position
    assert select_pivot_dbms(c, "minsupp") == 0  # {0,1,2}
    assert select_pivot_dbms(c, "rarevar") == 0  # first facet lacking vertex 3
    assert select_pivot_dbms(c, "raremax") == 3  # smallest lacking 3: {2,4}
    assert select_pivot_dbms(c, "popvar") == 2  # first facet lacking vertex 0
    # {0,1,2} and {2,4} hold no vertex 3; of them {2,4} holds fewer of the rest
    assert select_pivot_dbms(c, "rarest") == 3


def test_simplified_nodes_meet_the_pivot_precondition(rng):
    # a facet V∖{e} would put e in the other m - 1 facets, and a nerve facet
    # of m - 1 vertices is a vertex in m - 1 facets, so simplify's fixpoint
    # leaves neither in a node or in its nerve
    randoms = [random_complex(rng, 10, 14) for _ in range(3000)]
    reached = 0
    for c in [*all_complexes(5), *randoms]:
        s, _ = simplify(c)
        if s.num_facets < 2 or is_cone(s) is not None:
            continue
        reached += 1
        for node in (s, nerve(s)):
            nu = reduce(or_, node.facets, 0).bit_count()
            assert all(f.bit_count() != nu - 1 for f in node.facets), (c, node)
    assert reached > 1000


def test_select_pivot_dbms_all_strategies_in_range(rng):
    reached = 0
    for _ in range(200):
        c, _ = simplify(random_complex(rng, 9, 9))
        if c.num_facets < 2 or is_cone(c) is not None:
            continue
        reached += 1
        for strat in DBMS_PIVOTS:
            idx = select_pivot_dbms(c, strat, key=3)
            assert 0 <= idx < c.num_facets
    assert reached >= 5


# --- splits ------------------------------------------------------------------


def test_split_bcrt_example():
    c = cx(3, {0, 1}, {2})
    d, u = split_bcrt(c, {0, 2})
    assert d == cx(2, {0}, {1})
    assert u == cx(3, {0, 1}, {0, 2})
    assert euler_by_subsets(c) == euler_by_subsets(d) + euler_by_subsets(u)


def test_split_bcrt_identity_exhaustive():
    # the public split and the engine's (first, second, sign) on every valid
    # σ, multi-vertex ones (closure child, sign +1) included
    for c in all_complexes(4):
        base = euler_by_subsets(c)
        alive = reduce(or_, c.facets, 0)
        for s in range(1, mask(c.n)):
            if any(s & ~f == 0 for f in c.facets):
                continue
            d, u = split_bcrt(c, s)
            assert euler_by_subsets(d) + euler_by_subsets(u) == base, (c, s)
            first, second, sign = engine._split_bcrt_masked(alive, list(c.facets), s)
            assert sign == (-1 if (alive & ~s).bit_count() <= 1 else 1), (c, s)
            assert first == sorted(first) and second == sorted(second), (c, s)
            if sign == 1:
                assert tuple(second) == u.facets, (c, s)
            parts = [euler_by_subsets(Complex(c.n, tuple(x))) for x in (first, second)]
            assert parts[0] + sign * parts[1] == base, (c, s)


def test_vertex_split_is_deletion_plus_link(rng, monkeypatch):
    # every single-vertex pivot σ = V∖{e} of seeded antichains, with the
    # transposed deletion on at every size; facet sizes spread over 0, 1, 2 or
    # 4 vertices, so d = max|g ∌ e| - min|f∖e| (f ∋ e) is 1 on the pure
    # complexes and 0 to 2 or above on others, one kernel for every d
    monkeypatch.setattr(engine, "_TRANSPOSED_DELETION_FACETS", 0)
    seen = set()
    for _ in range(300):
        n = rng.randint(6, 10)
        k = rng.randint(2, n - 4)
        spread = rng.choice((0, 1, 2, 4))
        faces = [rng.sample(range(n), k + rng.randint(0, spread)) for _ in range(rng.randint(2, 40))]
        c = make_complex(n, faces)
        alive = reduce(or_, c.facets, 0)
        pure = len({f.bit_count() for f in c.facets}) == 1
        for e in iter_bits(alive):
            ebit = 1 << e
            sigma = alive ^ ebit
            keep = [f.bit_count() for f in c.facets if not f & ebit]
            cut = [f.bit_count() - 1 for f in c.facets if f & ebit]
            if keep:
                seen.add("pure" if pure else min(max(keep) - min(cut), 3))
            inner, link, sign = engine._split_bcrt_masked(alive, list(c.facets), sigma)
            assert sign == -1, (c, e)
            assert inner == maximal_sets([f & sigma for f in c.facets]), (c, e)
            assert link == sorted(link), (c, e)
            union = euler_by_subsets(add_facet_closure(c, sigma))
            assert -euler_by_subsets(Complex(n, tuple(link))) == union, (c, e)
    assert seen >= {"pure", 1, 2, 3}, seen


def deletion_pairs(c):
    """(keep, cut) of each single-vertex split of c: the facets without e
    and the others less e, as _split_bcrt_masked hands them over."""
    for e in iter_bits(reduce(or_, c.facets, 0)):
        ebit = 1 << e
        yield [f for f in c.facets if not f & ebit], [f ^ ebit for f in c.facets if f & ebit]


def test_transposed_deletion_matches_maximal_sets(rng):
    # the kernel against maximal_sets(keep + cut) on seeded antichains, with
    # d = max|keep set| - min|cut set| from 0 to above 2 and the edge cases
    # below: an empty cut set (the facet {e}), no keep set, a cut vertex in
    # no keep set (vertex 3 with e = 0 in the last complex)
    complexes = [cx(2, {0}), cx(4, {0}, {1, 2}, {2, 3}), cx(4, {0, 1}, {0, 2}, {0, 3}), cx(4, {0, 3}, {1, 2}, {0, 1})]
    for _ in range(200):
        n = rng.randint(6, 10)
        k = rng.randint(0, n - 4)
        spread = rng.choice((0, 1, 2, 4))
        complexes.append(make_complex(n, [rng.sample(range(n), k + rng.randint(0, spread)) for _ in range(rng.randint(2, 40))]))
    seen = set()
    for c in complexes:
        for keep, cut in deletion_pairs(c):
            assert engine._transposed_deletion(keep, cut) == maximal_sets(keep + cut), (c, keep, cut)
            if 0 in cut:
                seen.add("empty cut set")
            if not keep:
                seen.add("no keep set")
                continue
            union = reduce(or_, keep)
            if any(h & ~union for h in cut):
                seen.add("lone cut vertex")
            seen.add(min(max(map(int.bit_count, keep)) - min(map(int.bit_count, cut)), 3))
    assert seen >= {"empty cut set", "no keep set", "lone cut vertex", 0, 1, 2, 3}, seen


def test_large_vertex_splits_use_the_transposed_deletion(monkeypatch):
    # the kernel builds all 35 of nicgraph-7-2's splits above
    # _TRANSPOSED_DELETION_FACETS facets, each with d > 2, at the default gate
    calls = []
    kernel = engine._transposed_deletion

    def spy(keep, cut):
        calls.append(max(map(int.bit_count, keep)) - min(map(int.bit_count, cut)))
        return kernel(keep, cut)

    monkeypatch.setattr(engine, "_transposed_deletion", spy)
    value, _ = euler(generate(parse_spec("nicgraph:7,2")), EngineConfig(algorithm="bcrt"))
    assert value == -120
    assert len(calls) == 35 and min(calls) > 2, calls


def test_split_bcrt_rejects_an_invalid_pivot():
    c = cx(3, {0, 1}, {2})
    for sigma in (0, 0b111, 0b01, {0, 1}):  # empty, V, a face, a facet
        with pytest.raises(InputError):
            split_bcrt(c, sigma)
    # the void complex takes any non-empty proper subset of V
    d, u = split_bcrt(cx(3), {0, 2})
    assert (d, u) == (cx(2), cx(3, {0, 2}))
    assert euler_by_subsets(d) + euler_by_subsets(u) == euler_by_subsets(cx(3))


def test_split_dbms_rejects_fewer_than_two_facets():
    for c in (cx(3), Complex(2, (0,)), cx(3, {0, 1})):
        with pytest.raises(InputError):
            split_dbms(c, 0)


def test_split_dbms_rejects_an_index_out_of_range():
    # a negative index used to build a wrong child: on this complex -1 gave
    # a first child of 9 "facets" with duplicates and σ itself
    c = cx(4, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2})
    for idx in (-1, -5, 5):
        with pytest.raises(InputError):
            split_dbms(c, idx)
    rest, deleted = split_dbms(c, 4)
    assert euler_by_subsets(rest) - euler_by_subsets(deleted) == euler_by_subsets(c)


def test_split_dbms_example():
    c = cx(3, {0, 1}, {1, 2})
    rest, deleted = split_dbms(c, 1)
    assert rest == cx(3, {0, 1})
    assert euler_by_subsets(c) == euler_by_subsets(rest) - euler_by_subsets(deleted)


def test_split_dbms_identity_exhaustive():
    # the public split and the engine's (first, second, sign) on every facet
    for c in all_complexes(4):
        if c.num_facets < 2:
            continue
        base = euler_by_subsets(c)
        for idx in range(c.num_facets):
            rest, deleted = split_dbms(c, idx)
            assert euler_by_subsets(rest) - euler_by_subsets(deleted) == base, (c, idx)
            first, second, sign = engine._split_dbms_masked(list(c.facets), idx)
            assert sign == -1 and tuple(first) == rest.facets, (c, idx)
            parts = [euler_by_subsets(Complex(c.n, tuple(x))) for x in (first, second)]
            assert parts[0] + sign * parts[1] == base, (c, idx)


# --- engine ------------------------------------------------------------------


def test_engine_trivial_values():
    assert euler(cx(4, {0, 1, 2, 3}))[0] == 0  # pows(V) is a cone
    assert euler(cx(5))[0] == 0
    assert euler(Complex(2, (0,)))[0] == -1


def test_engine_matches_oracle_exhaustive_small():
    for c in all_complexes(3):
        want = euler_by_subsets(c)
        for cfg in all_configs():
            assert euler(c, cfg)[0] == want, (c, cfg)


def test_engine_matches_oracle_random(rng):
    for trial in range(100):
        c = random_complex(rng, 12, 12)
        want = euler_by_subsets(c)
        for cfg in all_configs():
            assert euler(c, cfg)[0] == want, (c, cfg)


def test_engine_deterministic_stats():
    c = make_complex(10, [(i * 7919) % 1024 for i in range(1, 9)])
    for cfg in all_configs():
        a_val, a_stats = euler(c, cfg)
        b_val, b_stats = euler(c, cfg)
        assert a_val == b_val
        assert a_stats.counters() == b_stats.counters()
        assert a_stats.nodes_expanded >= 1


def test_large_join_splits_into_factors():
    # complex_with_euler joins three-point blocks into nodes too large for the
    # subproblem table; pivot splits alone take about 2^20 nodes here
    from eulerchar.reductions import complex_with_euler

    k = 2**40 + 12345
    cx = complex_with_euler(k)
    for alg in ("dbms", "bcrt"):
        value, stats = euler(cx, EngineConfig(algorithm=alg))
        assert value == k, alg
        assert stats.nodes_expanded < 1000, (alg, stats.nodes_expanded)
        assert stats.independence_splits > 0, alg


def test_cone_over_a_large_join_splits_before_its_terminal_step():
    # an apex in every facet of a 30-block join: 90 facets, too many for the
    # table, so the node takes the join split and the cone lands in a factor.
    # The apex lies in no facet complement, so a split kernel that gives each
    # complement component its own factor would drop it (and return 2^30)
    from eulerchar.reductions import _power_block

    block = _power_block(30)
    apex = 1 << block.n
    c = Complex(block.n + 1, tuple(sorted(f | apex for f in block.facets)))
    assert c.num_facets == 90
    for alg in ("dbms", "bcrt"):
        value, stats = euler(c, EngineConfig(algorithm=alg))
        assert value == 0, alg
        assert stats.independence_splits > 0, alg


def test_points_split_into_one_part_each_above_the_table_size():
    # 100 isolated points: no join, so the root takes one 100-part sum split,
    # each part a single point (a cone), and χ̃ = 0·100 + 99.  64 points fit
    # the table, so they go through pivot splits instead
    from eulerchar.reductions import _points

    for alg in ("dbms", "bcrt"):
        value, stats = euler(_points(100), EngineConfig(algorithm=alg))
        assert (value, stats.sum_splits) == (99, 1), alg
        assert (stats.nodes_expanded, stats.base_case_hits) == (101, {"cone": 100}), alg
        value, stats = euler(_points(64), EngineConfig(algorithm=alg))
        assert (value, stats.sum_splits) == (63, 0), alg


def test_disjoint_union_is_the_sum_plus_parts_less_one(rng):
    # three parts of 18, 18 and 30 facets on 19 vertices: too many facets for
    # the table, no join, so the root splits into its three parts (once
    # simplified, at sign -1, in the flipped copy)
    for trial in range(4):
        parts = [
            make_complex(n, rng.sample(list(combinations(range(n), 3)), m))
            for n, m in ((6, 18), (6, 18), (7, 30))
        ]
        union = interleaved_union(rng, parts)
        want = sum(euler_by_subsets(p) for p in parts) + 2
        assert f_vector(union).euler == want
        for alg in ("dbms", "bcrt"):
            for c, sign in ((union, 1), (flipped(union), -1)):
                value, stats = euler(c, EngineConfig(algorithm=alg))
                assert value == sign * want, (trial, alg, sign)
                assert stats.sum_splits == 1, (trial, alg, sign)
    assert euler_by_subsets(union) == want


def test_disjoint_union_of_joins_splits_once():
    # complex_with_euler's union of power blocks and its correction gadget
    # (5,625 facets): the root splits into its parts, which are joins; pivot
    # splits alone took 71,861 nodes under dbms and did not finish in minutes
    # under bcrt.  The node count is pinned, not a time
    from eulerchar.reductions import complex_with_euler

    k = 2**62 - 12345
    cx = complex_with_euler(k)
    for alg in ("dbms", "bcrt"):
        value, stats = euler(cx, EngineConfig(algorithm=alg))
        assert value == k, alg
        assert (stats.nodes_expanded, stats.sum_splits) == (3490, 1), alg


def test_engine_allocates_nothing_universe_sized():
    # two facets on a 2^28-vertex universe: the engine works on the live
    # vertices only and never builds an n-bit mask
    import tracemalloc

    tracemalloc.start()
    try:
        value, _ = euler(Complex(2**28, (0b011, 0b110)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0
    assert peak < 1 << 20


# --- small-node leaf -------------------------------------------------------------


def lattice(c):
    return engine._lattice_masked(reduce(or_, c.facets, 0), list(c.facets))


def test_lattice_leaf_matches_oracle_exhaustive():
    checked = 0
    for c in all_complexes(4):
        if 1 <= c.num_facets <= 8:
            assert lattice(c) == euler_by_subsets(c), c
            checked += 1
    assert checked > 150


def test_lattice_leaf_matches_oracle_random(rng):
    for _ in range(500):
        c = random_complex(rng, 12, 8)
        assert lattice(c) == euler_by_subsets(c), c


def test_lattice_leaf_changes_no_value(rng, monkeypatch):
    # the same complexes solved with the leaf and, with _LEAF_FACETS at 0, by
    # pivot splits down to void, {∅} and cones alone; 6-30 facets of 2-6
    # vertices, so most reach the leaf only after splits
    cases = []
    for _ in range(200):
        n = rng.randint(8, 20)
        facets = [rng.sample(range(n), rng.randint(2, 6)) for _ in range(rng.randint(6, 30))]
        cases.append(make_complex(n, facets))
    configs = [cfg for cfg in all_configs() if cfg.use_nerve]
    with_leaf = [[euler(c, cfg) for cfg in configs] for c in cases]
    assert any(s.base_case_hits.get("lattice") for row in with_leaf for _, s in row)
    monkeypatch.setattr(engine, "_LEAF_FACETS", 0)
    for c, row in zip(cases, with_leaf):
        for cfg, (want, _) in zip(configs, row):
            value, stats = euler(c, cfg)
            assert value == want, (c, cfg)
            assert "lattice" not in stats.base_case_hits


@pytest.mark.parametrize("k", [9, 10])
def test_blown_up_boundary_above_the_leaf(k):
    # k groups of 2 facets: vertex j lies in every facet outside group j, and
    # facet i also holds the private vertex k + i.  No vertex lies in m - 1
    # facets, so simplify keeps it; under bcrt its nerve is a simplex boundary
    # on k facets blown up (each nerve vertex in k - 1 of them), too many
    # facets for the leaf, so a pivot split must solve it
    c = make_complex(3 * k, [[j for j in range(k) if j != i // 2] + [k + i] for i in range(2 * k)])
    nv = nerve(c)
    assert nv.num_facets == k > engine._LEAF_FACETS
    assert all(sum(f >> v & 1 for f in nv.facets) == k - 1 for v in range(nv.n))
    want = euler_by_inclusion_exclusion(c)
    assert want == (-1) ** k
    for cfg in all_configs():
        if cfg.use_nerve:
            assert euler(c, cfg)[0] == want, cfg


def _small_nodes(case, rng):
    """(complexes of at most _LEAF_FACETS facets, their χ̃ from an oracle)."""
    if case == "random":  # an unused vertex, and flipped's abundant apex
        cases = []
        while len(cases) < 40:
            c = random_complex(rng, 8, 7)
            if c.num_facets >= 2:
                c = flipped(c)
                cases.append(Complex(c.n + 1, c.facets))
        return cases, [euler_by_subsets(c) for c in cases]
    if case == "above_bit_4096":  # a triangle boundary, re-packed at the parent
        c = cx(3, {0, 1}, {1, 2}, {0, 2})
        return [Complex(4099, tuple(f << 4096 for f in c.facets))], [euler_by_subsets(c)]
    if case == "large_nerve":
        # one private vertex for each 4-subset of the 8 facets, so the nerve
        # (which bcrt takes, 70 vertices > 8 facets) is the 3-skeleton of a
        # simplex on 8 vertices: 70 facets, χ̃ = -1 + 8 - 28 + 56 - 70
        quads = list(combinations(range(8), 4))
        c = cx(70, *[{v for v, q in enumerate(quads) if i in q} for i in range(8)])
        assert nerve(c).num_facets == 70 > engine._LEAF_FACETS
        return [c], [euler_by_inclusion_exclusion(c)]
    c = {"cone": cx(5, {0, 1, 2}, {0, 3}, {0, 4}),
         "empty_face": Complex(1, (0,)),
         "one_facet": cx(4, {0, 1, 3})}[case]
    return [c], [euler_by_subsets(c)]


@pytest.mark.parametrize(
    "case", ["random", "cone", "empty_face", "one_facet", "above_bit_4096", "large_nerve"])
def test_small_node_ends_at_entry(case, rng):
    # a node of at most _LEAF_FACETS facets goes to the terminal step as it
    # arrives: no elimination, no nerve and no child under any config
    cases, wants = _small_nodes(case, rng)
    for c, want in zip(cases, wants):
        assert c.num_facets <= engine._LEAF_FACETS
        assert try_base_case(c) == want, c
        for cfg in all_configs():
            value, stats = euler(c, cfg)
            assert value == want, (c, cfg)
            got = stats.counters()
            assert (got["nodes_expanded"], got["abundant_eliminations"],
                    got["nerve_applications"]) == (1, 0, 0), (c, cfg)


# --- subproblem table ----------------------------------------------------------


def test_table_hits_keep_golden_values():
    # dbms finds no exact repeat on match-9 under any pivot; match-11 has them
    for spec, cfg, want in [
        ("match:11", EngineConfig(), -936),
        ("match:9", EngineConfig(algorithm="bcrt", pivot="popvar"), -28),
    ]:
        value, stats = euler(generate(parse_spec(spec)), cfg)
        assert value == want, spec
        assert stats.cache_hits > 0, spec


def test_table_eviction_changes_no_value(monkeypatch):
    rook = generate(parse_spec("rook:6,6"))
    cfg = EngineConfig(algorithm="bcrt")
    want, roomy = euler(rook, cfg)
    monkeypatch.setattr(engine, "_TABLE_FACETS", 64)
    value, stats = euler(rook, cfg)
    assert value == want == 185
    assert stats.cache_evictions > roomy.cache_evictions
    assert stats.nodes_expanded > roomy.nodes_expanded
    again = euler(rook, cfg)[1]
    assert again.counters() == stats.counters()
    assert (again.cache_hits, again.cache_evictions) == (stats.cache_hits, stats.cache_evictions)


def test_counters_keep_their_five_keys():
    # the benchmark (perfbench/run.py) sums exactly these keys per pass;
    # sum_splits and the table's counts are EngineStats fields outside them
    _, stats = euler(generate(parse_spec("match:9")), EngineConfig(algorithm="bcrt"))
    assert set(stats.counters()) == {
        "nodes_expanded",
        "base_case_hits",
        "nerve_applications",
        "abundant_eliminations",
        "independence_splits",
    }


# (spec, algorithm, χ̃, nodes, eliminations, nerves, base-case hits, table
# hits, evictions, relabelled lookups) under the algorithm's default pivot, or
# the one named after a slash, with no join or sum split anywhere: a change
# to the node pipeline that keeps every value but changes the search shows
# here first
PINNED_SEARCHES = [
    ("rook:6,6", "dbms", 185, 1087, 0, 7, {"cone": 2, "lattice": 542}, 0, 0, 0),
    ("rook:6,6", "bcrt", 185, 309, 0, 0, {"cone": 15, "lattice": 67}, 73, 0, 99),
    ("match:10", "dbms", -1216, 1539, 0, 1, {"cone": 2, "lattice": 768}, 0, 0, 0),
    ("match:10", "bcrt", -1216, 491, 0, 0, {"cone": 8, "lattice": 108}, 130, 0, 166),
    ("nicgraph:7,2", "dbms", -120, 1055, 538, 9, {"cone": 226, "lattice": 299}, 3, 0, 3),
    ("nicgraph:7,2", "bcrt", -120, 2021, 1132, 52,
     {"cone": 464, "empty_face": 17, "lattice": 414}, 116, 183, 615),
    ("match:11", "dbms", -936, 901, 0, 1, {"cone": 4, "lattice": 411}, 36, 0, 0),
    ("rook:6,6", "dbms/rarest", 185, 947, 0, 2, {"cone": 1, "lattice": 467}, 6, 0, 16),
]

# the rows whose search relabelled keys change, as they read with exact keys
# alone (nodes, eliminations, nerves, base-case hits, table hits, evictions)
EXACT_KEY_SEARCHES = {
    ("rook:6,6", "bcrt"): (953, 0, 0, {"cone": 28, "lattice": 414}, 35, 0),
    ("match:10", "bcrt"): (1223, 0, 0, {"cone": 32, "lattice": 508}, 72, 0),
    ("nicgraph:7,2", "bcrt"): (2563, 1414, 62,
                               {"cone": 604, "empty_face": 19, "lattice": 628}, 31, 394),
    ("rook:6,6", "dbms/rarest"): (995, 0, 2, {"cone": 1, "lattice": 497}, 0, 0),
}


def _search(spec, alg):
    """A PINNED_SEARCHES row's figures from χ̃ on, as run now."""
    alg, _, pivot = alg.partition("/")
    value, stats = euler(generate(parse_spec(spec)), EngineConfig(algorithm=alg, pivot=pivot or None))
    c = stats.counters()
    assert c["independence_splits"] == stats.sum_splits == 0
    return (value, c["nodes_expanded"], c["abundant_eliminations"], c["nerve_applications"],
            c["base_case_hits"], stats.cache_hits, stats.cache_evictions, stats.relabelled_keys)


@pytest.mark.parametrize("row", PINNED_SEARCHES, ids=lambda r: f"{r[0]}-{r[1]}")
def test_search_is_pinned(row):
    assert _search(*row[:2]) == row[2:]


@pytest.mark.parametrize("row", PINNED_SEARCHES, ids=lambda r: f"{r[0]}-{r[1]}")
def test_exact_keys_alone_keep_the_exact_search(row, monkeypatch):
    # with no node narrow enough for a relabelled key the table sees exact
    # keys only, and every row reads as it did before relabelled keys existed
    monkeypatch.setattr(engine, "_ISO_BITS", 0)
    exact = EXACT_KEY_SEARCHES.get(row[:2], row[3:9])
    assert _search(*row[:2]) == (row[2], *exact, 0)


# --- relabelled keys -------------------------------------------------------------


def iso(c):
    planes = count_planes(c.facets)
    return engine._iso_facets(reduce(or_, planes, 0), list(c.facets), planes)


def degrees(facets):
    live = reduce(or_, facets, 0)
    return sorted(sum(f >> v & 1 for f in facets) for v in iter_bits(live))


def test_iso_facets_is_an_isomorphic_copy(rng):
    for _ in range(500):
        c = random_complex(rng, 12, 12)
        if c.facets == (0,):  # {∅}: no live vertex to rename (a base case)
            continue
        out = iso(c)
        assert list(out) == maximal_sets(out), c
        assert len(out) == c.num_facets
        assert degrees(out) == degrees(c.facets)
        assert sorted(map(int.bit_count, out)) == sorted(map(int.bit_count, c.facets))
        assert euler_by_subsets(Complex(c.n, out)) == euler_by_subsets(c), c


def test_iso_facets_ignores_labels_when_degrees_are_distinct(rng):
    found = 0
    while found < 50:
        c = random_complex(rng, 6, 12, min_n=3)
        degs = degrees(c.facets)
        if c.facets == (0,) or len(set(degs)) < len(degs):
            continue
        found += 1
        # a random injective relabelling, into a universe up to three times wider
        target = rng.sample(range(3 * c.n), c.n)
        moved = [sum(1 << target[v] for v in iter_bits(f)) for f in c.facets]
        assert iso(make_complex(3 * c.n, moved)) == iso(c), c


def test_engine_counts_base_case_kinds():
    _, stats = euler(cx(3, {0}, {1}, {2}), EngineConfig(use_nerve=False))
    assert sum(stats.base_case_hits.values()) >= 1
    assert stats.elapsed >= 0.0


def test_checked_arithmetic_is_a_distinct_error():
    from eulerchar import EulerOverflowError
    from eulerchar.errors import INT64_MAX, INT64_MIN, checked_add, checked_mul, checked_sub

    assert checked_add(INT64_MAX, 0) == INT64_MAX
    assert checked_sub(INT64_MIN, 0) == INT64_MIN
    with pytest.raises(EulerOverflowError):
        checked_add(INT64_MAX, 1)
    with pytest.raises(EulerOverflowError):
        checked_sub(INT64_MIN, 1)
    with pytest.raises(EulerOverflowError):
        checked_mul(1 << 32, 1 << 32)


def test_engine_aborts_on_chi_overflow():
    # join of 63 three-point blocks has χ̃ = 2^63, one past the signed range;
    # independence splits of the large nodes make the huge value reachable
    # (pivot splits alone would need ~2^62 leaf contributions)
    from eulerchar import EulerOverflowError
    from eulerchar.reductions import _power_block

    with pytest.raises(EulerOverflowError):
        euler(_power_block(63))
    assert euler(_power_block(62))[0] == 1 << 62


def test_config_validation():
    with pytest.raises(InputError):
        EngineConfig(algorithm="fast")
    with pytest.raises(InputError):
        EngineConfig(algorithm="bcrt", pivot="raremax")
    with pytest.raises(InputError):
        EngineConfig(algorithm="dbms", pivot="popgcd")
    assert EngineConfig().resolved_pivot() == "raremax"
    assert EngineConfig(algorithm="bcrt").resolved_pivot() == "popvar"
