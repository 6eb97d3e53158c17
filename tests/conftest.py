import random
from functools import reduce
from operator import or_

import pytest

from eulerchar import Complex, make_complex
from eulerchar._bitops import iter_bits


def antichain_families(n):
    """Every antichain of subsets of {0..n-1}, including [] (void) and [0] ({∅})."""
    subs = list(range(1 << n))
    out = []

    def rec(i, cur):
        out.append(tuple(cur))
        for j in range(i, len(subs)):
            s = subs[j]
            if all(s & ~t and t & ~s for t in cur):
                cur.append(s)
                rec(j + 1, cur)
                cur.pop()

    rec(0, [])
    return out


def all_complexes(max_n):
    for n in range(max_n + 1):
        for fam in antichain_families(n):
            yield Complex(n, tuple(sorted(fam)))


def random_complex(rng: random.Random, max_n=12, max_m=12, min_n=1):
    n = rng.randint(min_n, max_n)
    m = rng.randint(1, max_m)
    return make_complex(n, [rng.getrandbits(n) for _ in range(m)])


def interleaved_union(rng, parts):
    """The disjoint union of parts (complexes with no empty facet) on one
    universe whose labels are shuffled, so that the parts interleave."""
    n = sum(p.n for p in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    facets = []
    for p in parts:
        labels, perm = perm[: p.n], perm[p.n :]
        facets += [sum(1 << labels[v] for v in iter_bits(f)) for f in p.facets]
    return Complex(n, tuple(sorted(facets)))


def flipped(c):
    """A complex of χ̃ = -χ̃(c) that simplify turns back into c with sign -1:
    an apex joined to every facet, plus the simplex on c's vertices, in which
    the apex is abundant."""
    apex = 1 << c.n
    top = reduce(or_, c.facets)
    return Complex(c.n + 1, tuple(sorted([f | apex for f in c.facets] + [top])))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
