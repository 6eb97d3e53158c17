"""Metamorphic checks above the brute-force oracle's range (n = 30-288).

No oracle reaches these sizes, so every value is checked against relations
that must hold between runs: both algorithms under every pivot strategy,
nerve on and off, a vertex relabelling, the nerve, the negation gadget and
the join product, and against the alternating sum of the face counts.  The join is where both algorithms hit the subproblem
table; a wrong table key gives wrong values only on complexes this large,
which is what this suite is for.

The paper's #P-hardness reduction gives an exact value from outside the
engine: with (Δ, s) = sat_to_complex(F), s·χ̃(Δ) = #SAT(F), and the model
counter in sharpsat.py counts F.  The dense complexes of 25-40 variable
3-CNFs (180-288 vertices) are where abundant-vertex elimination does most of
its work.

Time budget: about 20 s on 2 cores in all, of which the #SAT cases take
about 10 s (4.6 s for the 40-variable one).
"""

import random

import pytest

from eulerchar import EngineConfig, engine, euler, f_vector, make_complex
from eulerchar._bitops import iter_bits
from eulerchar.core import join, nerve
from eulerchar.engine import BCRT_PIVOTS, DBMS_PIVOTS
from eulerchar.reductions import (
    CnfFormula,
    complex_with_euler,
    count_sat_bruteforce,
    negate_euler,
    sat_to_complex,
)

from sharpsat import count_models

SEEDS = range(24)
# (variables, seed) of 3-CNFs at clause ratio 4.2; these seeds give formulas
# with 1-333 models, since an unsatisfiable one only checks χ̃ = 0
SAT_CASES = [(25, 0), (25, 2), (30, 1), (30, 2), (35, 0), (40, 0)]


def sparse_complex(rng, n_range, m_range):
    # facets of 2-6 vertices: large enough to be far from a cone, small
    # enough that every pivot strategy (some blow up on dense facets) stays
    # within a few hundred nodes
    n = rng.randint(*n_range)
    m = rng.randint(*m_range)
    return make_complex(n, [rng.sample(range(n), rng.randint(2, 6)) for _ in range(m)])


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

    # a factor with a known χ̃ = k; with every node keyed (so none tries the
    # independence split) the engine takes the join apart by pivot splits,
    # and its three-point blocks repeat subproblems, so both algorithms take
    # values from the table
    k = rng.choice((-1, 1)) * rng.randint(2, 12)
    joined = join(cx, complex_with_euler(k))
    for alg in ("dbms", "bcrt"):
        assert value(joined, algorithm=alg) == want * k, (seed, k, alg)
    monkeypatch.setattr(engine, "_TABLE_KEY_FACETS", 1 << 30)
    hits = {"dbms": 0, "bcrt": 0}
    for cfg in all_configs(seed):
        got, stats = euler(joined, cfg)
        assert got == want * k, (seed, k, cfg)
        hits[cfg.algorithm] += stats.cache_hits
    assert hits["dbms"] > 0 and hits["bcrt"] > 0, hits


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
