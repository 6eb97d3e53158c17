"""Exact references past the oracle: closed forms for the rook, match and
nicgraph families.

A face of the chessboard complex rook-a-b is a placement of k non-attacking
rooks, so f_{k-1} = C(a,k)·C(b,k)·k!.  A face of match-n is a matching of k
edges in K_n, so f_{k-1} = n!/(k!·2^k·(n-2k)!).  Either way
χ̃ = Σ_k (-1)^(k+1) f_{k-1}.  These give the golden values of both families
and check the engine on boards and graphs that no golden row covers, under
both algorithms' default pivots.

nicgraph-a-b, the complex of not-b-connected graphs on a vertices, is a
wedge of spheres (Babson, Björner, Linusson, Shareshian and Welker,
"Complexes of not i-connected graphs", Topology 38, 1999): (a-2)! spheres of
dimension 2a-5 for b = 2, so χ̃ = -(a-2)!, and (a-3)·(a-2)!/2 spheres of
dimension 2a-4 for b = 3, so χ̃ = (a-3)·(a-2)!/2.  The b = 3 values also
check gen_nicgraph's cut construction past b = 2.

Time budget: about 3 s on 2 cores, most of it the a = 2 boards.
"""

from math import comb, factorial

import pytest

from eulerchar import EngineConfig, euler, f_vector, gen_matching, gen_nicgraph, gen_rook

# every board a <= b of at most this many facets, with b <= MAX_SIDE (a = 1
# would otherwise run to 2,000 isolated points, and a = 2 reaches 1,980
# facets at b = 45)
MAX_FACETS = 2000
MAX_SIDE = 45
MAX_MATCH = 10


def rook_faces(a, b):
    return [comb(a, k) * comb(b, k) * factorial(k) for k in range(min(a, b) + 1)]


def match_faces(n):
    return [
        factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k)) for k in range(n // 2 + 1)
    ]


def chi(faces):
    return sum((-1) ** (k + 1) * f for k, f in enumerate(faces))


def boards():
    for a in range(1, MAX_SIDE + 1):
        for b in range(a, MAX_SIDE + 1):
            if factorial(b) // factorial(b - a) > MAX_FACETS:
                break
            yield a, b


def test_closed_forms_give_the_known_values():
    # the golden values of tests/test_acceptance.py and a few boards beyond
    assert [chi(rook_faces(a, a)) for a in (6, 7, 8)] == [185, -204, -6209]
    assert [chi(rook_faces(a, b)) for a, b in ((3, 8), (4, 7), (5, 9))] == [191, -225, 4364]
    assert [chi(match_faces(n)) for n in range(7, 14)] == [
        20, 132, -28, -1216, -936, 12440, 23672
    ]


@pytest.mark.parametrize("alg", ["dbms", "bcrt"])
def test_engine_matches_rook_closed_form(alg):
    cfg = EngineConfig(algorithm=alg)
    for a, b in boards():
        assert euler(gen_rook(a, b), cfg)[0] == chi(rook_faces(a, b)), (a, b)


@pytest.mark.parametrize("alg", ["dbms", "bcrt"])
def test_engine_matches_match_closed_form(alg):
    cfg = EngineConfig(algorithm=alg)
    for n in range(2, MAX_MATCH + 1):
        assert euler(gen_matching(n), cfg)[0] == chi(match_faces(n)), n


@pytest.mark.parametrize("alg", ["dbms", "bcrt"])
def test_engine_matches_nicgraph_closed_form(alg):
    # nicgraph-8-2 (504 facets) is the largest; the golden rows give -120,
    # -720 and -5,040 for a = 7, 8 and 9
    cfg = EngineConfig(algorithm=alg)
    for a in range(3, 9):
        assert euler(gen_nicgraph(a, 2), cfg)[0] == -factorial(a - 2), a
    for a in range(4, 8):
        assert euler(gen_nicgraph(a, 3), cfg)[0] == (a - 3) * factorial(a - 2) // 2, a
    assert [(a - 3) * factorial(a - 2) // 2 for a in range(4, 8)] == [1, 6, 36, 240]


def test_f_vector_matches_closed_forms():
    # the face counts themselves, on the smallest members
    for a in range(1, 5):
        for b in range(a, 6):
            cx = gen_rook(a, b)
            want = rook_faces(a, b)
            assert f_vector(cx).entries == tuple(want + [0] * (cx.n + 1 - len(want))), (a, b)
    for n in range(2, 8):
        cx = gen_matching(n)
        want = match_faces(n)
        assert f_vector(cx).entries == tuple(want + [0] * (cx.n + 1 - len(want))), n
