"""Metamorphic checks above the brute-force oracle's range (n = 30-60).

No oracle reaches these sizes, so every value is checked against relations
that must hold between runs: both algorithms under every pivot strategy,
nerve on and off, a vertex relabelling, the nerve, the negation gadget and
the join product.  The join is where both algorithms hit the subproblem
table; a wrong table key gives wrong values only on complexes this large,
which is what this suite is for.
"""

import random

import pytest

from eulerchar import EngineConfig, engine, euler, make_complex
from eulerchar._bitops import iter_bits
from eulerchar.core import join, nerve
from eulerchar.engine import BCRT_PIVOTS, DBMS_PIVOTS
from eulerchar.reductions import complex_with_euler, negate_euler

SEEDS = range(24)


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
