"""Metamorphic checks above the brute-force oracle's range (n = 30-288).

No oracle reaches these sizes, so every value is checked against relations
that must hold between runs: both algorithms under every pivot strategy,
nerve on and off, a vertex relabelling, the nerve, the negation gadget, the
join product and the disjoint-union sum, and against the alternating sum of
the face counts.  The join is where both algorithms hit the subproblem
table; a wrong table key gives wrong values only on complexes this large,
which is what this suite is for.

The paper's #P-hardness reduction gives an exact value from outside the
engine: with (Δ, s) = sat_to_complex(F), s·χ̃(Δ) = #SAT(F), and the model
counter in sharpsat.py counts F.  The dense complexes of 25-40 variable
3-CNFs (180-288 vertices) are where abundant-vertex elimination does most of
its work.

Dense complexes (60-80 vertices, facets of about half of them) check
dbms = bcrt and the nerve with the engine's own nerve step off.  The vertex
recursion χ̃(Δ) = χ̃(Δ∖e) - χ̃(lk e), bcrt's single-vertex split, is checked
between dbms runs on sparse and dense complexes.

Time budget: about 22 s on 2 cores in all, of which the #SAT cases take
about 10 s (4.6 s for the 40-variable one), the dense ones about 1.5 s, the
disjoint unions about 2 s and the vertex recursion about 1 s.  The
60-variable #SAT case is marked slow and runs only with -m slow.
"""

import random
from functools import reduce
from operator import or_

import pytest

from eulerchar import EngineConfig, engine, euler, f_vector, make_complex
from eulerchar._bitops import iter_bits
from eulerchar.core import join, nerve, restrict
from eulerchar.engine import BCRT_PIVOTS, DBMS_PIVOTS
from eulerchar.reductions import (
    CnfFormula,
    complex_with_euler,
    count_sat_bruteforce,
    negate_euler,
    sat_to_complex,
)

from conftest import flipped, interleaved_union
from sharpsat import count_models

SEEDS = range(24)
DENSE_SEEDS = range(12)
UNION_SEEDS = range(12)
# (variables, seed) of 3-CNFs at clause ratio 4.2; these seeds give formulas
# with 1-444 models, since an unsatisfiable one only checks χ̃ = 0.  The
# 60-variable one (432 vertices, 936 facets, 444 models; 845 dbms and 447
# bcrt nodes) takes about 6 s, so it is opt-in: pytest -m slow
SAT_CASES = [
    (25, 0), (25, 2), (30, 1), (30, 2), (35, 0), (40, 0),
    pytest.param(60, 1, marks=pytest.mark.slow),
]


def sparse_complex(rng, n_range, m_range):
    # facets of 2-6 vertices: large enough to be far from a cone, small
    # enough that every pivot strategy (some blow up on dense facets) stays
    # within a few hundred nodes
    n = rng.randint(*n_range)
    m = rng.randint(*m_range)
    return make_complex(n, [rng.sample(range(n), rng.randint(2, 6)) for _ in range(m)])


def dense_complex(rng):
    # 60-80 vertices and 10-30 facets of about n/2 vertices: far from the
    # sparse cases above, with many abundant vertices and wide leaves
    n = rng.randint(60, 80)
    return make_complex(
        n, [rng.sample(range(n), n // 2 + rng.randint(-3, 3)) for _ in range(rng.randint(10, 30))]
    )


def relabel(cx, rng):
    perm = list(range(cx.n))
    rng.shuffle(perm)
    return make_complex(cx.n, [[perm[v] for v in iter_bits(f)] for f in cx.facets])


def value(cx, **kw):
    return euler(cx, EngineConfig(**kw))[0]


def all_configs(seed, **kw):
    for alg, pivots in (("dbms", DBMS_PIVOTS), ("bcrt", BCRT_PIVOTS)):
        for piv in pivots:
            yield EngineConfig(algorithm=alg, pivot=piv, seed=seed, **kw)


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_agree_above_oracle_range(seed, monkeypatch):
    rng = random.Random(seed)
    cx = sparse_complex(rng, (30, 60), (20, 100))
    want = value(cx)
    # at most 100 facets of at most 6 vertices: at most 6,400 faces to count
    assert f_vector(cx).euler == want

    for nv in (True, False):
        for cfg in all_configs(seed, use_nerve=nv):
            assert euler(cx, cfg)[0] == want, (seed, cfg)
    for alg in ("dbms", "bcrt"):
        assert value(relabel(cx, rng), algorithm=alg) == want, (seed, alg)
        assert value(nerve(cx), algorithm=alg) == want, (seed, alg)
        assert value(negate_euler(cx), algorithm=alg) == -want, (seed, alg)

    # a factor with a known χ̃ = k; with the split threshold out of reach (so
    # no node tries the independence split) the engine takes the join apart
    # by pivot splits, and its three-point blocks repeat subproblems, so both
    # algorithms take values from the table
    k = rng.choice((-1, 1)) * rng.randint(2, 12)
    joined = join(cx, complex_with_euler(k))
    for alg in ("dbms", "bcrt"):
        assert value(joined, algorithm=alg) == want * k, (seed, k, alg)
    monkeypatch.setattr(engine, "_SPLIT_FACETS", 1 << 30)
    hits = {"dbms": 0, "bcrt": 0}
    for cfg in all_configs(seed):
        got, stats = euler(joined, cfg)
        assert got == want * k, (seed, k, cfg)
        hits[cfg.algorithm] += stats.cache_hits
    assert hits["dbms"] > 0 and hits["bcrt"] > 0, hits


@pytest.mark.parametrize("seed", UNION_SEEDS)
def test_disjoint_union_adds_above_oracle_range(seed):
    # χ̃(A ⊔ B ⊔ C) = χ̃(A) + χ̃(B) + χ̃(C) + 2 on three sparse complexes whose
    # vertices interleave in one universe: more facets than the split
    # threshold, so the engine takes the sum split and solves each part on its
    # own
    rng = random.Random(2000 + seed)
    parts = [sparse_complex(rng, (30, 60), (25, 60)) for _ in range(3)]
    union = interleaved_union(rng, parts)
    assert union.num_facets > engine._SPLIT_FACETS
    want = sum(value(p) for p in parts) + 2
    for nv in (True, False):
        for cfg in all_configs(seed, use_nerve=nv):
            got, stats = euler(union, cfg)
            assert got == want, (seed, cfg)
            assert stats.sum_splits >= 1, (seed, cfg)
    # simplify takes the flipped copy's apex, so there the sum split runs on
    # a node of sign -1
    for alg in ("dbms", "bcrt"):
        assert value(flipped(union), algorithm=alg) == -want, (seed, alg)


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_dense_relations_agree(seed):
    cx = dense_complex(random.Random(seed))
    want = value(cx)
    assert value(cx, algorithm="bcrt") == want, seed
    # with the nerve step off the engine cannot turn the nerve back
    nv = nerve(cx)
    for alg in ("dbms", "bcrt"):
        assert value(nv, algorithm=alg, use_nerve=False) == want, (seed, alg)


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_vertex_recursion_above_oracle_range(seed):
    # bcrt's single-vertex split as a relation between dbms runs, on a sparse
    # and a dense complex: χ̃(Δ) = χ̃(Δ∖e) - χ̃(lk e) for three used vertices
    rng = random.Random(1000 + seed)
    for cx in (sparse_complex(rng, (30, 60), (20, 100)), dense_complex(rng)):
        want = value(cx)
        for e in rng.sample(sorted(iter_bits(reduce(or_, cx.facets))), 3):
            deletion, _ = restrict(cx, {e})
            link = make_complex(cx.n, [f ^ (1 << e) for f in cx.facets if f >> e & 1])
            assert value(deletion) - value(link) == want, (seed, e)


def random_3cnf(num_vars, seed, ratio=4.2):
    """Random 3-CNF with round(ratio·num_vars) clauses in which every
    variable occurs (sat_to_complex requires that)."""
    rng = random.Random(seed * 1000 + num_vars)
    everyone = set(range(1, num_vars + 1))
    while True:
        triples = [rng.sample(range(1, num_vars + 1), 3) for _ in range(round(ratio * num_vars))]
        if {v for t in triples for v in t} == everyone:
            clauses = tuple(tuple(v * rng.choice((1, -1)) for v in t) for t in triples)
            return CnfFormula(num_vars, clauses)


def test_model_counter_matches_truth_tables():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 10)
        clauses = tuple(
            tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 30))
        )
        assert count_models(n, clauses) == count_sat_bruteforce(CnfFormula(n, clauses)), clauses


@pytest.mark.parametrize("num_vars, seed", SAT_CASES)
def test_sat_reduction_counts_models(num_vars, seed):
    f = random_3cnf(num_vars, seed)
    cx, sign = sat_to_complex(f)
    want = count_models(num_vars, f.clauses)
    assert want > 0
    for alg in ("dbms", "bcrt"):
        assert sign * value(cx, algorithm=alg) == want, (num_vars, seed, alg)
