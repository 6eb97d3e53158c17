import random
import tracemalloc
from functools import reduce
from itertools import combinations
from math import comb
from operator import itemgetter, or_

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
from eulerchar import _bitops, engine
from eulerchar._bitops import count_planes, iter_bits, mask, maximal_sets, relabel_by_degree
from eulerchar.engine import ALGORITHMS, BCRT_PIVOTS, DBMS_PIVOTS
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
    # isolated points: no cone, and one facet more than the leaf takes
    k = engine._LEAF_FACETS + 1
    assert try_base_case(cx(k, *[{v} for v in range(k)])) is None


def test_base_case_values_match_oracle(rng):
    # every complex on at most 4 vertices, and complexes of 1-4 equal-size
    # facets (an antichain) on 8-10 vertices more than the leaf takes: a
    # third made cones by an apex vertex n, a third given a private vertex
    # each (more than _LEAF_FACETS live vertices, so no leaf), and a third
    # left on at most 10 live vertices for the vertex lattice
    leaf = engine._LEAF_FACETS
    large = []
    for i in range(90):
        n = rng.randint(8, 10)
        size = rng.choice([k for k in range(2, n - 1) if comb(n, k) >= leaf + 4])
        faces = rng.sample(list(combinations(range(n), size)), rng.randint(leaf + 1, leaf + 4))
        if i % 3 == 1:
            large.append(make_complex(n + 1, [f + (n,) for f in faces]))
        elif i % 3 == 2:
            large.append(make_complex(n + len(faces), [f + (n + j,) for j, f in enumerate(faces)]))
        else:
            large.append(make_complex(n, faces))
    hits = misses = large_cones = large_leaves = 0
    for c in [*all_complexes(4), *large]:
        got = try_base_case(c)
        live = reduce(or_, c.facets, 0).bit_count()
        if got is None:
            misses += 1
            assert c.num_facets > leaf and live > leaf and is_cone(c) is None, c
        else:
            hits += 1
            if c.num_facets > leaf:
                large_cones += is_cone(c) is not None
                large_leaves += is_cone(c) is None
            assert got == euler_by_subsets(c), c
    assert hits > 50 and misses > 20 and large_cones > 20 and large_leaves > 20


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
    # deletion's transpose on at every size (the scan is the default there);
    # facet sizes spread over 0, 1, 2 or 4 vertices, so d = max|g ∌ e| -
    # min|f∖e| (f ∋ e) is 1 on the pure complexes and 0 to 2 or above on
    # others, one kernel for every d
    transpose_every_deletion(monkeypatch)
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


def transpose_every_deletion(monkeypatch):
    monkeypatch.setattr(engine, "_TRANSPOSED_DELETION_FACETS", -1)
    monkeypatch.setattr(engine, "_SCAN_DELETION_KEEP", -1)


def scan_every_deletion(monkeypatch):
    monkeypatch.setattr(engine, "_SCAN_DELETION_KEEP", 1 << 30)


def deletion_pairs(c):
    """(keep, cut) of each single-vertex split of c: the facets without e
    and the others less e, as _split_bcrt_masked hands them over."""
    for e in iter_bits(reduce(or_, c.facets, 0)):
        ebit = 1 << e
        yield [f for f in c.facets if not f & ebit], [f ^ ebit for f in c.facets if f & ebit]


def test_transposed_deletion_matches_maximal_sets(rng, monkeypatch):
    # both of _deletion's regimes against maximal_sets(keep + cut) on seeded
    # antichains, with d = max|keep set| - min|cut set| from 0 to above 2
    # and the edge cases below: an empty cut set (the facet {e}), no keep
    # set, a cut vertex in no keep set (vertex 3 with e = 0 in the last
    # complex)
    complexes = [cx(2, {0}), cx(4, {0}, {1, 2}, {2, 3}), cx(4, {0, 1}, {0, 2}, {0, 3}), cx(4, {0, 3}, {1, 2}, {0, 1})]
    for _ in range(200):
        n = rng.randint(6, 10)
        k = rng.randint(0, n - 4)
        spread = rng.choice((0, 1, 2, 4))
        complexes.append(make_complex(n, [rng.sample(range(n), k + rng.randint(0, spread)) for _ in range(rng.randint(2, 40))]))
    seen = set()
    for c in complexes:
        for keep, cut in deletion_pairs(c):
            want = maximal_sets(keep + cut)
            with monkeypatch.context() as patch:
                transpose_every_deletion(patch)
                assert engine._deletion(keep, cut) == want, (c, keep, cut)
                scan_every_deletion(patch)
                assert engine._deletion(keep, cut) == want, (c, keep, cut)
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


def test_deletion_regimes_agree_around_their_gates(rng, monkeypatch):
    # keep sets are 6-vertex and cut sets 5-vertex subsets of 14 vertices,
    # some of them inside a keep set, so keep + {h + e} is an antichain for a
    # vertex e = 14: m facets around _TRANSPOSED_DELETION_FACETS with keep
    # counts around _SCAN_DELETION_KEEP, and beside each keep count the facet
    # {e}, whose cut set is empty (and then the only one).  The default, the
    # scan and the transpose all give maximal_sets(keep + cut), and the
    # default transposes exactly the nodes above both gates.
    transposes = []
    kernel = engine.transpose_rows
    monkeypatch.setattr(engine, "transpose_rows", lambda sets: transposes.append(1) or kernel(sets))
    facets_gate, keep_gate = engine._TRANSPOSED_DELETION_FACETS, engine._SCAN_DELETION_KEEP

    def subsets(k, count, out=()):
        out = set(out)
        while len(out) < count:
            out.add(sum(1 << v for v in rng.sample(range(14), k)))
        return sorted(out)

    cases = []
    for n_keep in (keep_gate - 1, keep_gate, keep_gate + 1, facets_gate):
        keep = subsets(6, n_keep)
        cases.append((keep, [0]))
        inner = sorted({g ^ 1 << v for g in keep[:3] for v in iter_bits(g)})
        for m in (facets_gate - 1, facets_gate, facets_gate + 1, 2 * facets_gate):
            if m > n_keep:
                cases.append((keep, subsets(5, m - n_keep, inner[: max(1, (m - n_keep) // 3)])))
    seen = set()
    for keep, cut in cases:
        want = maximal_sets(keep + cut)
        assert len(want) < len(keep) + len(cut), "a cut set lies in a keep set"
        before = len(transposes)
        assert engine._deletion(keep, cut) == want, (keep, cut)
        transposed = len(keep) > keep_gate and len(keep) + len(cut) > facets_gate
        assert (len(transposes) > before) == transposed, (len(keep), len(cut))
        if transposed:
            seen.add("transposed")
        else:
            seen.add("small node" if len(keep) + len(cut) <= facets_gate else "few keep sets")
        with monkeypatch.context() as patch:
            transpose_every_deletion(patch)
            assert engine._deletion(keep, cut) == want
            scan_every_deletion(patch)
            assert engine._deletion(keep, cut) == want
    assert seen == {"small node", "few keep sets", "transposed"}, seen


def test_large_vertex_splits_use_the_transposed_deletion(monkeypatch):
    # the transpose builds all 22 of nicgraph-7-2's deletions above
    # _TRANSPOSED_DELETION_FACETS facets, each with more than
    # _SCAN_DELETION_KEEP keep sets and d > 2, at the default gates
    calls = []
    kernel = engine._deletion

    def spy(keep, cut):
        if len(keep) + len(cut) > engine._TRANSPOSED_DELETION_FACETS:
            calls.append((len(keep), max(map(int.bit_count, keep)) - min(map(int.bit_count, cut))))
        return kernel(keep, cut)

    monkeypatch.setattr(engine, "_deletion", spy)
    value, _ = euler(generate(parse_spec("nicgraph:7,2")), EngineConfig(algorithm="bcrt"))
    assert value == -120
    assert len(calls) == 22, calls
    assert all(k > engine._SCAN_DELETION_KEEP and d > 2 for k, d in calls), calls


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
    # an apex in every facet of a 30-block join: 90 facets, more than the
    # split threshold, so the node takes the join split and the cone lands in
    # a factor.  The apex lies in no facet complement, so a split kernel that
    # gives each complement component its own factor would drop it (and
    # return 2^30)
    from eulerchar.reductions import _power_block

    block = _power_block(30)
    apex = 1 << block.n
    c = Complex(block.n + 1, tuple(sorted(f | apex for f in block.facets)))
    assert c.num_facets == 90
    for alg in ("dbms", "bcrt"):
        value, stats = euler(c, EngineConfig(algorithm=alg))
        assert value == 0, alg
        assert stats.independence_splits > 0, alg


def test_points_split_into_one_part_each_above_the_split_threshold():
    # 100 isolated points: no join, so the root takes one 100-part sum split,
    # each part a single point (a cone), and χ̃ = 0·100 + 99.  64 points do
    # not pass the split threshold, so they go through pivot splits instead
    from eulerchar.reductions import _points

    for alg in ("dbms", "bcrt"):
        value, stats = euler(_points(100), EngineConfig(algorithm=alg))
        assert (value, stats.sum_splits) == (99, 1), alg
        assert (stats.nodes_expanded, stats.base_case_hits) == (101, {"cone": 100}), alg
        value, stats = euler(_points(64), EngineConfig(algorithm=alg))
        assert (value, stats.sum_splits) == (63, 0), alg


def test_disjoint_union_is_the_sum_plus_parts_less_one(rng):
    # three parts of 18, 18 and 30 facets on 19 vertices: more facets than
    # the split threshold, no join, so the root splits into its three parts
    # (once simplified, at sign -1, in the flipped copy)
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
        assert (stats.nodes_expanded, stats.sum_splits) == (3192, 1), alg


def test_engine_allocates_nothing_universe_sized():
    # two facets on a 2^28-vertex universe: the engine works on the live
    # vertices only and never builds an n-bit mask
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


def antichain(rng, n, m):
    """m random facets of about n / 2 of n >= 8 vertices, none inside another
    (drawn again from scratch if the draws stall)."""
    while True:
        facets = []
        for _ in range(50 * m):
            f = sum(1 << v for v in rng.sample(range(n), rng.randint(n // 2 - 1, n // 2 + 1)))
            if all(f & ~g and g & ~f for g in facets):
                facets.append(f)
                if len(facets) == m:
                    return make_complex(n, facets)


def test_lattice_leaf_matches_oracle_exhaustive():
    checked = 0
    for c in all_complexes(4):
        if c.num_facets:
            assert lattice(c) == euler_by_subsets(c), c
            checked += 1
    assert checked > 150


def test_lattice_leaf_matches_oracle_random(rng):
    for i in range(500):
        c = antichain(rng, rng.randint(8, 11), 1 + i % engine._LEAF_FACETS)
        assert lattice(c) == euler_by_subsets(c), c


def test_lattice_leaf_at_full_size():
    # m = _LEAF_FACETS, the kernel's largest size (the random test above
    # takes it too): every face but the whole set, all of them, and points
    m = engine._LEAF_FACETS
    boundary = make_complex(m, [mask(m) ^ 1 << i for i in range(m)])
    assert lattice(boundary) == (-1) ** m
    assert lattice(make_complex(m + 1, [1 << m | 1 << i for i in range(m)])) == 0  # a cone
    assert lattice(make_complex(m, [1 << i for i in range(m)])) == m - 1


def test_lattice_leaf_memory_is_bounded():
    # 3,000 live vertices above bit 4096, each in a random set of the
    # _LEAF_FACETS facets: about 2,900 distinct vertex rows at 16 facets.
    # Splitting breadth first holds every class at the full 19,092-bit width
    # (about 10 MB at peak); depth first holds at most m pending classes
    m = engine._LEAF_FACETS
    rng = random.Random(16)
    facets = [0] * m
    for j in range(3000):
        for i in iter_bits(rng.getrandbits(m)):
            facets[i] |= 1 << 4096 + 5 * j
    c = make_complex(4096 + 5 * 3000, facets)
    assert c.num_facets == m
    tracemalloc.start()
    try:
        value = lattice(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert value == euler_by_inclusion_exclusion(c)


def test_lattice_leaf_changes_no_value(rng, monkeypatch):
    # the same complexes solved with the leaf and, with _LEAF_FACETS at 0 (no
    # leaf on either lattice and no child solved at a split), by pivot splits
    # down to void, {∅} and cones alone; 17-40 facets of 2-6 vertices each on
    # 17-24 vertices, so most keep more than _LEAF_FACETS facets and live
    # vertices and reach a leaf only after splits
    leaf = engine._LEAF_FACETS
    cases = []
    for _ in range(200):
        n = rng.randint(leaf + 1, leaf + 8)
        facets = [rng.sample(range(n), rng.randint(2, 6)) for _ in range(rng.randint(leaf + 1, 40))]
        cases.append(make_complex(n, facets))
    above = [c for c in cases if min(c.num_facets, reduce(or_, c.facets).bit_count()) > leaf]
    assert len(above) >= 150
    configs = [cfg for cfg in all_configs() if cfg.use_nerve]
    with_leaf = [[euler(c, cfg) for cfg in configs] for c in cases]
    assert any(s.base_case_hits.get("lattice") for row in with_leaf for _, s in row)
    monkeypatch.setattr(engine, "_LEAF_FACETS", 0)
    for c, row in zip(cases, with_leaf):
        for cfg, (want, _) in zip(configs, row):
            value, stats = euler(c, cfg)
            assert value == want, (c, cfg)
            assert "lattice" not in stats.base_case_hits and not stats.split_leaves


# --- vertex-lattice leaf ---------------------------------------------------------


def default_configs():
    """Both algorithms at their default pivots, with the nerve and without."""
    for alg in ALGORITHMS:
        for nv in (True, False):
            yield EngineConfig(algorithm=alg, use_nerve=nv)


def test_vertex_lattice_solves_every_skeleton_at_the_root():
    # the k-subsets of n <= _LEAF_FACETS vertices, the (k-1)-skeleton of a
    # simplex: χ̃ = (-1)^(k-1) C(n-1, k).  One of more than _LEAF_FACETS
    # facets ends at the root, on its vertex lattice or, after dbms's nerve
    # (n facets), on its facet lattice
    leaf = engine._LEAF_FACETS
    large = 0
    for n in range(1, leaf + 1):
        for k in range(1, n + 1):
            c = make_complex(n, combinations(range(n), k))
            for cfg in default_configs():
                value, stats = euler(c, cfg)
                assert value == (-1) ** (k - 1) * comb(n - 1, k), (n, k, cfg)
                assert c.num_facets <= leaf or stats.nodes_expanded == 1, (n, k, cfg)
            large += c.num_facets > leaf
    assert large > 50


def test_vertex_lattice_matches_oracle_random(rng):
    # 200 antichains of 17-200 facets on 8-16 vertices, each solved at the
    # root under both algorithms, with the nerve and without
    leaf = engine._LEAF_FACETS
    checked = 0
    while checked < 200:
        n = rng.randint(8, 16)
        sizes = range(n // 2 - 1, n // 2 + 2)
        c = make_complex(n, [rng.sample(range(n), rng.choice(sizes)) for _ in range(rng.randint(17, 200))])
        if c.num_facets <= leaf:
            continue
        want = euler_by_subsets(c)
        for cfg in default_configs():
            value, stats = euler(c, cfg)
            assert (value, stats.nodes_expanded) == (want, 1), (c, cfg)
        checked += 1


def cycle_with_a_chord(n, base=0):
    """The n-cycle on vertices base, base + 3, ... plus the chord from the
    first to the third: n + 1 edges, no cone, χ̃ = -1 + n - (n + 1) = -2."""
    ring = [base + 3 * i for i in range(n)]
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)] + [(ring[0], ring[2])]
    return make_complex(base + 3 * n, edges)


def test_vertex_lattice_takes_at_most_leaf_live_vertices():
    leaf = engine._LEAF_FACETS
    at, above = cycle_with_a_chord(leaf), cycle_with_a_chord(leaf + 1)
    assert at.num_facets > leaf and try_base_case(at) == -2
    assert try_base_case(above) is None
    for alg in ALGORITHMS:
        value, stats = euler(above, EngineConfig(algorithm=alg))
        assert value == -2 and stats.nodes_expanded > 1, alg


def test_bcrt_splits_only_nodes_of_many_live_vertices(monkeypatch):
    # a node of at most _LEAF_FACETS live vertices is a leaf, so every node
    # that reaches a bcrt pivot has more
    live = []
    select = engine._select_bcrt_masked

    def spy(alive, *rest):
        live.append(alive.bit_count())
        return select(alive, *rest)

    monkeypatch.setattr(engine, "_select_bcrt_masked", spy)
    value, _ = euler(generate(parse_spec("nicgraph:7,2")), EngineConfig(algorithm="bcrt"))
    assert value == -120
    assert live and min(live) > engine._LEAF_FACETS, live


def test_vertex_lattice_memory_is_bounded():
    # 16 live vertices above bit 2^20 in 17 facets of 128 KB each.  The
    # generators are the facets re-packed onto bits 0-15 (1 << f of a raw
    # facet would have 2^(2^20) bits), and the re-pack holds one facet at
    # full width at a time (a copy of every facet would be 2.2 MB)
    leaf = engine._LEAF_FACETS
    c = cycle_with_a_chord(leaf, 1 << 20)
    assert c.num_facets > leaf and reduce(or_, c.facets).bit_count() == leaf
    tracemalloc.start()
    try:
        values = [try_base_case(c)] + [euler(c, EngineConfig(algorithm=a))[0] for a in ALGORITHMS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert values == [-2, -2, -2]


# --- split leaf ------------------------------------------------------------------


def spread(sets, spots):
    """The sets with vertex v moved to position spots[v]."""
    return [sum(1 << spots[v] for v in iter_bits(s)) for s in sets]


def both_routes(monkeypatch, leaf_fn, alive, sets):
    """leaf_fn's value on the narrow route, as the engine takes it below bit
    _NARROW_LEAF_BITS, and on the wide one, forced by a bound of 0."""
    narrow = leaf_fn(alive, sets)
    with monkeypatch.context() as m:
        m.setattr(engine, "_NARROW_LEAF_BITS", 0)
        return narrow, leaf_fn(alive, sets)


# widths around one and two 64-bit words, the narrow bound (128) included,
# and one far above it
LEAF_WIDTHS = (63, 64, 65, 127, 128, 129, 300)


def test_vertex_lattice_matches_oracle_on_any_generators(rng, monkeypatch):
    # generator families on k <= _LEAF_FACETS vertices spread below bit
    # width, the top one at width - 1 and one vertex of alive in no set, with
    # duplicates, sets inside others and empty sets; the kernel takes them
    # as they are, in a list or a set, on either route, the oracle the
    # complex they generate
    leaf = engine._LEAF_FACETS
    for width in LEAF_WIDTHS:
        for i in range(2 * leaf):
            k = 1 + i % leaf
            hole = 1 << rng.randrange(k - 1) if k > 1 else 0
            sets = [rng.getrandbits(k) & ~hole for _ in range(rng.randint(1, 40))]
            sets += [s & rng.getrandbits(k) for s in sets[:5]] + sets[:3] + [0]
            rng.shuffle(sets)
            spots = sorted(rng.sample(range(width - 1), k - 1)) + [width - 1]
            alive = sum(1 << p for p in spots)
            want = euler_by_subsets(make_complex(k, [list(iter_bits(s)) for s in sets]))
            for family in (spread(sets, spots), set(spread(sets, spots))):
                routes = both_routes(monkeypatch, engine._vertex_lattice, alive, family)
                assert routes == (want, want), (width, k, sets)
    # all empty: {∅}, whatever the lattice
    for alive in (0, 1, mask(leaf) << 40, mask(leaf) << 200):
        assert both_routes(monkeypatch, engine._vertex_lattice, alive, [0, 0]) == (-1, -1)


def test_vertex_lattice_takes_sets_past_a_transpose_chunk(monkeypatch):
    # relabel re-packs a block of 64 sets at a time, so 1,024 and 1,025
    # generators on a 16-vertex σ take the narrow route too: the 560
    # 3-subsets of σ, repeated, generate the 2-skeleton of its simplex,
    # χ̃ = C(15, 3) = 455
    chunk = _bitops._TRANSPOSE_CHUNK
    spots = [4 * v + 1 for v in range(16)]
    sets = spread([sum(1 << v for v in t) for t in combinations(range(16), 3)], spots)
    alive = sum(1 << p for p in spots)
    relabelled = []
    relabel = engine.relabel

    def spy(alive, order, sets):
        relabelled.append(len(sets))
        return relabel(alive, order, sets)

    monkeypatch.setattr(engine, "relabel", spy)
    for count in (chunk, chunk + 1):
        family = (sets * 2)[:count]
        assert both_routes(monkeypatch, engine._vertex_lattice, alive, family) == (455, 455), count
    assert relabelled == [chunk, chunk + 1]


def test_facet_leaf_routes_agree_with_the_oracle(rng, monkeypatch):
    # antichains of up to _LEAF_FACETS facets whose live vertices are spread
    # below bit width, the top one at width - 1; the positions below it that
    # lie in no facet have empty rows, which mark only the empty set
    leaf = engine._LEAF_FACETS
    for width in LEAF_WIDTHS:
        for i in range(2 * leaf):
            c = antichain(rng, rng.randint(8, 11), 1 + i % leaf)
            used = reduce(or_, c.facets).bit_count()
            spots = [0] * c.n
            for v, p in zip(iter_bits(reduce(or_, c.facets)),
                            sorted(rng.sample(range(width - 1), used - 1)) + [width - 1]):
                spots[v] = p
            facets = spread(c.facets, spots)
            alive = reduce(or_, facets)
            assert alive.bit_length() == width
            want = euler_by_subsets(c)
            assert both_routes(monkeypatch, engine._lattice_masked, alive, facets) == (want, want), (width, c)
    assert both_routes(monkeypatch, engine._lattice_masked, 0, [0]) == (-1, -1)


def test_narrow_leaf_gate(monkeypatch):
    # every leaf of random:40,45 under dbms lies below bit 64 and takes the
    # narrow route, through one kernel a leaf; match-11 dbms's 104 facet
    # leaves lie on the nerve's universe of up to 10,395 bits and take none
    calls = {"leaf": 0, "narrow": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    for name in ("_lattice_masked", "_vertex_lattice"):
        monkeypatch.setattr(engine, name, counted("leaf", getattr(engine, name)))
    for name in ("_block_rows", "relabel"):
        monkeypatch.setattr(engine, name, counted("narrow", getattr(engine, name)))
    value, stats = euler(generate(parse_spec("random:40,45,seed=1")))
    assert calls["leaf"] == stats.base_case_hits["lattice"] + stats.split_leaves > 0
    assert calls["narrow"] == calls["leaf"]
    calls.update(leaf=0, narrow=0)
    value, stats = euler(generate(parse_spec("match:11")))
    assert value == -936 and calls["leaf"] == stats.base_case_hits["lattice"] == 104
    assert calls["narrow"] == 0


def test_split_solves_the_second_child_on_its_pivot_facet():
    # σ = facets[0] has 16 vertices; each other facet holds two of them and
    # a private vertex, so their cut sets are the C(16, 2) = 120 edges on σ
    # (the 1-skeleton of a simplex, χ̃ = -1 + 16 - 120).  Five such facets
    # give five cut sets, too few to solve at the split
    leaf = engine._LEAF_FACETS
    pairs = list(combinations(range(leaf), 2))
    others = [1 << a | 1 << b | 1 << 200 + i for i, (a, b) in enumerate(pairs)]
    assert engine._split_dbms_masked([mask(leaf)] + others, 0) == (others, -105, -1)
    _, second, _ = engine._split_dbms_masked([mask(leaf)] + others[:5], 0)
    assert second == [t & mask(leaf) for t in others[:5]] == maximal_sets(second)
    # a σ of 17 vertices is declined however many cut sets it has
    _, second, _ = engine._split_dbms_masked([mask(leaf + 1)] + others, 0)
    assert second == maximal_sets(second) and len(second) == len(pairs)


def test_declined_splits_push_maximal_children(monkeypatch):
    # on random:40,45 dbms, every second child that is pushed is an antichain
    # (maximal_sets of the cut sets), and every one solved at its split has
    # a pivot facet of at most _LEAF_FACETS vertices
    split = engine._split_dbms_masked
    seen = {"pushed": 0, "solved": 0}

    def spy(facets, idx):
        first, second, sign = split(facets, idx)
        sigma = facets[idx]
        if isinstance(second, int):
            assert sigma.bit_count() <= engine._LEAF_FACETS
            seen["solved"] += 1
        else:
            assert second == maximal_sets([t & sigma for t in first])
            seen["pushed"] += 1
        return first, second, sign

    monkeypatch.setattr(engine, "_split_dbms_masked", spy)
    for seed in range(3):
        euler(generate(parse_spec(f"random:40,45,seed={seed}")))
    assert seen["pushed"] and seen["solved"]


def test_random_dbms_solves_split_leaves_to_bcrt_values():
    # the workload the split leaf is for: each seed makes split leaves, and
    # its χ̃ equals bcrt's, which solves no child at a split; split leaves
    # are not nodes, so they stay out of the base-case hits
    for seed in range(8):
        c = generate(parse_spec(f"random:40,45,seed={seed}"))
        value, stats = euler(c)
        want, bcrt = euler(c, EngineConfig(algorithm="bcrt"))
        assert value == want, seed
        assert stats.split_leaves > 0 and bcrt.split_leaves == 0, seed
        assert sum(stats.base_case_hits.values()) <= stats.nodes_expanded, seed


def blown_up_boundary(k):
    """k groups of 2 facets: vertex j lies in every facet outside group j, and
    facet i also holds the private vertex k + i; χ̃ = (-1)^k."""
    return make_complex(3 * k, [[j for j in range(k) if j != i // 2] + [k + i] for i in range(2 * k)])


@pytest.mark.parametrize("above", [1, 2], ids=["leaf+1", "leaf+2"])
def test_blown_up_boundary_above_the_leaf(above):
    # no vertex lies in m - 1 facets, so simplify keeps it; under bcrt its
    # nerve is a simplex boundary on k facets blown up (each nerve vertex in
    # k - 1 of them), too many facets for the leaf, so a pivot split must
    # solve it
    k = engine._LEAF_FACETS + above
    c = blown_up_boundary(k)
    nv = nerve(c)
    assert nv.num_facets == k > engine._LEAF_FACETS
    assert all(sum(f >> v & 1 for f in nv.facets) == k - 1 for v in range(nv.n))
    # inclusion-exclusion over 2k facets takes 4x longer with each k (0.05 s
    # at k = 9, about an hour at 17), so the oracle checks the sign at k = 9
    assert euler_by_inclusion_exclusion(blown_up_boundary(9)) == -1
    for cfg in all_configs():
        if cfg.use_nerve:
            assert euler(c, cfg)[0] == (-1) ** k, cfg


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
    # match-11 bcrt evicts 108 entries in the full table and more, losing
    # hits, in a 64-facet one (rook-6-6, the earlier instance, lost none once
    # its small nodes became leaves)
    match = generate(parse_spec("match:11"))
    cfg = EngineConfig(algorithm="bcrt")
    want, roomy = euler(match, cfg)
    monkeypatch.setattr(engine, "_TABLE_FACETS", 64)
    value, stats = euler(match, cfg)
    assert value == want == -936
    assert stats.cache_evictions > roomy.cache_evictions
    assert stats.nodes_expanded > roomy.nodes_expanded
    again = euler(match, cfg)[1]
    assert again.counters() == stats.counters()
    assert (again.cache_hits, again.cache_evictions) == (stats.cache_hits, stats.cache_evictions)


def _large_hits(events):
    """Table hits on nodes above the split threshold, from a spy's events: the
    facet count of a node that reached the table (its terminal step found
    nothing), or None for a pivot choice, which follows only a miss."""
    ends = events[1:] + [0]
    return sum(1 for m, nxt in zip(events, ends)
               if m and m > engine._SPLIT_FACETS and nxt is not None)


def test_large_keys_save_nodes(monkeypatch):
    # rook-6-6 and match-10 bcrt take values from the table on nodes of more
    # than _SPLIT_FACETS facets; keyed only up to the split threshold they give
    # the same χ̃ from more nodes
    events = []
    base_case, select = engine._base_case_masked, engine._select_bcrt_masked

    def spy_base_case(facets, alive=None):
        bc = base_case(facets, alive)
        if bc is None:
            events.append(len(facets))
        return bc

    def spy_select(*args):
        events.append(None)
        return select(*args)

    monkeypatch.setattr(engine, "_base_case_masked", spy_base_case)
    monkeypatch.setattr(engine, "_select_bcrt_masked", spy_select)
    cases = {"rook:6,6": 185, "match:10": -1216}
    cfg = EngineConfig(algorithm="bcrt")
    nodes = {}
    for spec, want in cases.items():
        events.clear()
        value, stats = euler(generate(parse_spec(spec)), cfg)
        assert value == want, spec
        assert _large_hits(events) >= 1, spec
        nodes[spec] = stats.nodes_expanded
    monkeypatch.setattr(engine, "_TABLE_KEY_FACETS", engine._SPLIT_FACETS)
    for spec, want in cases.items():
        events.clear()
        value, stats = euler(generate(parse_spec(spec)), cfg)
        assert value == want, spec
        assert _large_hits(events) == 0, spec
        assert stats.nodes_expanded > nodes[spec], spec


@pytest.mark.parametrize("faces", [
    [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}],  # each facet misses one vertex
    [{0, 1}, {1, 2}, {2, 3}, {0, 3}],  # each facet misses two
], ids=["one_missing", "two_missing"])
def test_bcrt_pivot_check_rejects_a_face(faces, monkeypatch):
    # with the leaves off and no abundant-vertex elimination (which would take
    # the tetrahedron boundary's vertices), both roots reach a pivot split; a
    # selector that returns a facet as σ breaks termination, and the check in
    # euler() catches it on both of its paths
    def unsimplified(facets):
        planes = count_planes(facets)
        return reduce(or_, planes, 0), facets, planes, 1, 0

    c = cx(4, *faces)
    cfg = EngineConfig(algorithm="bcrt", use_nerve=False)
    monkeypatch.setattr(engine, "_LEAF_FACETS", 0)
    assert euler(c, cfg)[0] == euler_by_subsets(c)
    monkeypatch.setattr(engine, "_simplify_masked", unsimplified)
    monkeypatch.setattr(engine, "_select_bcrt_masked", lambda alive, facets, *_: facets[0])
    with pytest.raises(AssertionError):
        euler(c, cfg)


def test_counters_keep_their_five_keys():
    # the benchmark (perfbench/run.py) sums exactly these keys per pass;
    # sum_splits, the table's counts and max_depth are EngineStats fields
    # outside them
    _, stats = euler(generate(parse_spec("match:9")), EngineConfig(algorithm="bcrt"))
    assert set(stats.counters()) == {
        "nodes_expanded",
        "base_case_hits",
        "nerve_applications",
        "abundant_eliminations",
        "independence_splits",
    }


def test_max_depth_is_the_deepest_stack():
    # a leaf at entry holds only the root; a split pushes each child with at
    # most one operation that combines it, so the stack never holds more than
    # two items per node
    assert euler(cx(3, {0, 1}, {1, 2}, {0, 2}))[1].max_depth == 1
    c = generate(parse_spec("rook:6,6"))
    for alg in ("dbms", "bcrt"):
        _, stats = euler(c, EngineConfig(algorithm=alg))
        assert 1 < stats.max_depth <= 2 * stats.nodes_expanded, alg
        assert euler(c, EngineConfig(algorithm=alg))[1].max_depth == stats.max_depth, alg


# (spec, algorithm, χ̃, nodes, eliminations, nerves, base-case hits, table
# hits, evictions, relabelled lookups) under the algorithm's default pivot, or
# the one named after a slash, with no join or sum split anywhere: a change
# to the node pipeline that keeps every value but changes the search shows
# here first
PINNED_SEARCHES = [
    ("rook:6,6", "dbms", 185, 167, 0, 1, {"lattice": 84}, 0, 0, 0),
    ("rook:6,6", "bcrt", 185, 77, 0, 0, {"lattice": 31}, 8, 0, 17),
    ("match:10", "dbms", -1216, 321, 0, 1, {"lattice": 161}, 0, 0, 0),
    ("match:10", "bcrt", -1216, 113, 0, 0, {"lattice": 45}, 12, 0, 25),
    ("nicgraph:7,2", "dbms", -120, 61, 2, 1, {"lattice": 31}, 0, 0, 0),
    ("nicgraph:7,2", "bcrt", -120, 63, 0, 0, {"lattice": 32}, 0, 0, 14),
    ("match:11", "dbms", -936, 251, 0, 1, {"lattice": 104}, 22, 0, 0),
    ("rook:6,6", "dbms/rarest", 185, 151, 0, 1, {"lattice": 76}, 0, 0, 0),
]

# the rows whose search relabelled keys change, as they read with exact keys
# alone (nodes, eliminations, nerves, base-case hits, table hits, evictions);
# nicgraph-7-2 bcrt's 14 relabelled lookups all miss, so it reads the same
EXACT_KEY_SEARCHES = {
    ("rook:6,6", "bcrt"): (161, 0, 0, {"lattice": 80}, 1, 0),
    ("match:10", "bcrt"): (293, 0, 0, {"lattice": 145}, 2, 0),
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
    return tuple(sorted(relabel_by_degree(reduce(or_, planes, 0), planes, list(c.facets))))


def degrees(facets):
    live = reduce(or_, facets, 0)
    return sorted(sum(f >> v & 1 for f in facets) for v in iter_bits(live))


def test_relabelled_key_is_an_isomorphic_copy(rng):
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


def test_relabelled_key_ignores_labels_when_degrees_are_distinct(rng):
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


def string_relabel(alive, planes, facets):
    # the relabelled keys' first gather: the live vertices by ascending
    # degree read off planes, ties by label; character ~p of a set's binary
    # string is bit p, and the characters picked highest first spell the key
    degree = {v: sum((p >> v & 1) << i for i, p in enumerate(planes)) for v in iter_bits(alive)}
    order = sorted(degree, key=lambda v: (degree[v], v))
    fmt = f"0{max(order) + 1}b"
    pick = itemgetter(*[~p for p in reversed(order)])
    return [int("".join(pick(format(f, fmt))), 2) for f in facets]


def test_relabelled_keys_match_the_string_gather(rng, monkeypatch):
    # every relabelled lookup of narrow-bcrt's searches (nodes of up to 124
    # facets, two 64-set blocks) and random complexes on 65-128 vertices of
    # up to 300 facets get the keys the string gather gave them, so no
    # relabelled key, and no table hit, moves
    nodes = []

    def spy(alive, planes, facets):
        nodes.append((alive, planes, list(facets)))
        return relabel_by_degree(alive, planes, facets)

    monkeypatch.setattr(engine, "relabel_by_degree", spy)
    for spec in ("rook:6,6", "match:10", "nicgraph:7,2"):
        euler(generate(parse_spec(spec)), EngineConfig(algorithm="bcrt"))
    assert len(nodes) == 56 and max(len(f) for _, _, f in nodes) > 64
    for _ in range(60):
        n = rng.randint(65, 128)
        c = make_complex(n, [rng.getrandbits(n) for _ in range(rng.randint(1, 300))])
        planes = count_planes(c.facets)
        nodes.append((reduce(or_, planes, 0), planes, list(c.facets)))
    for node in nodes:
        assert sorted(relabel_by_degree(*node)) == sorted(string_relabel(*node))


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
