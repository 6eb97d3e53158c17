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
from eulerchar._bitops import iter_bits, mask, maximal_sets
from eulerchar.engine import BCRT_PIVOTS, DBMS_PIVOTS
from eulerchar.generators import generate, parse_spec

from conftest import all_complexes, random_complex


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


def test_select_pivot_bcrt_examples():
    assert select_pivot_bcrt(cx(4, {0, 1}, {2, 3}), "popvar") == 0b1110
    assert select_pivot_bcrt(cx(3, {0, 1}, {2}), "rarevar") == 0b110
    c = cx(3, {0, 1}, {2})
    picks = {select_pivot_bcrt(c, "random", key=0) for _ in range(5)}
    assert len(picks) == 1  # deterministic for a fixed key


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
    c = cx(4, {0, 1, 2}, {0, 3}, {1, 3})
    assert c.facets == (0b0111, 0b1001, 0b1010)
    assert select_pivot_dbms(c, "maxsupp") == 1  # {0,3}: smallest, lowest position
    assert select_pivot_dbms(c, "minsupp") == 0  # {0,1,2}
    assert select_pivot_dbms(c, "rarevar") == 2  # first facet lacking vertex 0


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
    for c in all_complexes(4):
        base = euler_by_subsets(c)
        for s in range(1, mask(c.n)):
            if any(s & ~f == 0 for f in c.facets):
                continue
            d, u = split_bcrt(c, s)
            assert euler_by_subsets(d) + euler_by_subsets(u) == base, (c, s)


def test_vertex_split_is_deletion_plus_link(rng, monkeypatch):
    # every single-vertex pivot σ = V∖{e} of seeded antichains, with the
    # hash deletion on at every size; facet sizes spread over 0, 1, 2 or 4
    # vertices, so d = max|g ∌ e| - min|f∖e| (f ∋ e) is 1 on the pure
    # complexes and up to 2 (the lookups) or above it (maximal_sets) on others
    monkeypatch.setattr(engine, "_HASH_DELETION_FACETS", 0)
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
            inner, link = engine._split_bcrt_masked(alive, list(c.facets), sigma)
            assert inner == maximal_sets([f & sigma for f in c.facets]), (c, e)
            union = euler_by_subsets(add_facet_closure(c, sigma))
            assert -euler_by_subsets(Complex(n, tuple(link))) == union, (c, e)
    assert seen >= {"pure", 1, 2, 3}, seen


def test_split_dbms_example():
    c = cx(3, {0, 1}, {1, 2})
    rest, deleted = split_dbms(c, 1)
    assert rest == cx(3, {0, 1})
    assert euler_by_subsets(c) == euler_by_subsets(rest) - euler_by_subsets(deleted)


def test_split_dbms_identity_exhaustive():
    for c in all_complexes(4):
        if c.num_facets < 2:
            continue
        base = euler_by_subsets(c)
        for idx in range(c.num_facets):
            rest, deleted = split_dbms(c, idx)
            assert euler_by_subsets(rest) - euler_by_subsets(deleted) == base, (c, idx)


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
    # cache_hits and cache_evictions are EngineStats fields outside them
    _, stats = euler(generate(parse_spec("match:9")), EngineConfig(algorithm="bcrt"))
    assert set(stats.counters()) == {
        "nodes_expanded",
        "base_case_hits",
        "nerve_applications",
        "abundant_eliminations",
        "independence_splits",
    }


# (spec, algorithm, χ̃, nodes, eliminations, nerves, base-case hits, table
# hits, evictions) under the algorithm's default pivot, or the one named
# after a slash, with no independence split anywhere: a change to the node
# pipeline that keeps every value but changes the search shows here first
PINNED_SEARCHES = [
    ("rook:6,6", "dbms", 185, 1087, 31, 79,
     {"cone": 26, "empty_face": 2, "lattice": 516}, 0, 0),
    ("rook:6,6", "bcrt", 185, 955, 155, 180,
     {"cone": 163, "lattice": 221}, 94, 0),
    ("match:10", "dbms", -1216, 1539, 62, 1,
     {"cone": 22, "empty_face": 42, "lattice": 706}, 0, 0),
    ("match:10", "bcrt", -1216, 1223, 137, 215,
     {"cone": 72, "empty_face": 77, "lattice": 391}, 72, 0),
    ("nicgraph:7,2", "dbms", -120, 1055, 1322, 9,
     {"cone": 360, "empty_face": 50, "lattice": 115}, 3, 0),
    ("nicgraph:7,2", "bcrt", -120, 2563, 3380, 257,
     {"cone": 802, "empty_face": 83, "lattice": 366}, 31, 394),
    ("match:11", "dbms", -936, 901, 70, 1,
     {"cone": 29, "empty_face": 28, "lattice": 358}, 36, 0),
    ("rook:6,6", "dbms/rarest", 185, 995, 10, 51,
     {"cone": 11, "lattice": 487}, 0, 0),
]


@pytest.mark.parametrize("row", PINNED_SEARCHES, ids=lambda r: f"{r[0]}-{r[1]}")
def test_search_is_pinned(row):
    spec, alg, want, nodes, elims, nerves, kinds, hits, evictions = row
    alg, _, pivot = alg.partition("/")
    cfg = EngineConfig(algorithm=alg, pivot=pivot or None)
    value, stats = euler(generate(parse_spec(spec)), cfg)
    assert value == want
    assert stats.counters() == {
        "nodes_expanded": nodes,
        "base_case_hits": kinds,
        "nerve_applications": nerves,
        "abundant_eliminations": elims,
        "independence_splits": 0,
    }
    assert (stats.cache_hits, stats.cache_evictions) == (hits, evictions)


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
