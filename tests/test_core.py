import pytest
from hypothesis import given, settings, strategies as st

from eulerchar import (
    Complex,
    InputError,
    add_facet_closure,
    euler_by_subsets,
    find_independent_pair,
    is_cone,
    join,
    make_complex,
    nerve,
    restrict,
    simplify,
)
from eulerchar._bitops import iter_bits, mask, maximal_sets
from eulerchar.core import as_face, independent_parts

from conftest import all_complexes, random_complex


def cx(n, *faces):
    return make_complex(n, faces)


# --- make_complex ----------------------------------------------------------


def test_make_complex_drops_dominated_and_duplicates():
    assert cx(3, {0, 1}, {0}, {0, 1}) == cx(3, {0, 1})


def test_make_complex_void():
    assert cx(3).facets == ()


def test_make_complex_empty_face_dominated():
    assert cx(2, (), {0}) == cx(2, {0})


def test_make_complex_rejects_out_of_range():
    with pytest.raises(InputError):
        make_complex(3, [{3}])
    with pytest.raises(InputError):
        make_complex(2, [{-1}])


def test_make_complex_order_independent(rng):
    for _ in range(50):
        faces = [rng.getrandbits(6) for _ in range(8)]
        shuffled = faces[:]
        rng.shuffle(shuffled)
        assert make_complex(6, faces) == make_complex(6, shuffled)


def test_normalization_idempotent(rng):
    for _ in range(100):
        c = random_complex(rng, 10, 10)
        assert make_complex(c.n, c.facets) == c


@settings(deadline=None)
@given(st.integers(1, 8), st.lists(st.sets(st.integers(0, 7)), max_size=6))
def test_face_ops_match_set_semantics(n, sets):
    sets = [{v for v in s if v < n} for s in sets]
    packed = [as_face(n, s) for s in sets]
    for a, sa in zip(packed, sets):
        for b, sb in zip(packed, sets):
            assert (a == b) == (sa == sb)
            assert (a & ~b == 0) == (sa <= sb)
            assert set(iter_bits(a | b)) == sa | sb
            assert set(iter_bits(a & b)) == sa & sb
            assert set(iter_bits(mask(n) & ~a)) == set(range(n)) - sa


@settings(deadline=None)
@given(st.lists(st.integers(0, 2**10 - 1), max_size=12))
def test_maximal_sets_is_antichain_of_maximal_inputs(vals):
    out = maximal_sets(vals)
    assert out == sorted(set(out))
    for a in out:
        for b in out:
            assert a == b or (a & ~b and b & ~a)
    for v in vals:
        assert any(v & ~m == 0 for m in out)


# --- restrict --------------------------------------------------------------


def test_restrict_examples():
    got, remap = restrict(cx(3, {0, 1}, {1, 2}), {2})
    assert got == cx(2, {0, 1})
    assert remap == {0: 0, 1: 1}

    got, _ = restrict(cx(3, {0, 1}), {0, 1})
    assert got == Complex(1, (0,))  # the complex {∅} on one vertex

    # {1,2} is itself a facet of the triangle boundary and avoids vertex 0,
    # so the deletion is the full edge, not two loose points
    got, _ = restrict(cx(3, {0, 1}, {0, 2}, {1, 2}), {0})
    assert got == cx(2, {0, 1})
    assert euler_by_subsets(got) == 0


def test_restrict_remap_is_ascending():
    _, remap = restrict(cx(5, {0, 1, 2, 3, 4}), {1, 3})
    assert remap == {0: 0, 2: 1, 4: 2}


# --- add_facet_closure -----------------------------------------------------


def test_add_facet_closure_examples():
    assert add_facet_closure(cx(3, {0, 1}, {2}), {0, 2}) == cx(3, {0, 1}, {0, 2})
    before = cx(3, {0, 1, 2})
    assert add_facet_closure(before, {0}) == before
    assert add_facet_closure(cx(2), ()) == Complex(2, (0,))


# --- is_cone ---------------------------------------------------------------


def test_is_cone_examples():
    assert is_cone(cx(3, {0, 1}, {0, 2})) == 0
    assert is_cone(cx(3, {0, 1}, {1, 2}, {0, 2})) is None
    assert is_cone(Complex(1, (0,))) is None
    assert is_cone(cx(3)) is None


# --- nerve -----------------------------------------------------------------


def test_nerve_examples():
    assert nerve(cx(3, {0, 1}, {1, 2}, {0, 2})) == cx(3, {0, 1}, {1, 2}, {0, 2})
    assert nerve(cx(2, {0})) == cx(1, {0})
    assert nerve(Complex(1, (0,))) == Complex(1, (0,))


def test_nerve_void_rejected():
    with pytest.raises(InputError):
        nerve(cx(2))


def test_nerve_invariance_exhaustive_small():
    for c in all_complexes(5):
        if c.is_void():
            continue
        assert euler_by_subsets(nerve(c)) == euler_by_subsets(c), c


def test_nerve_invariance_random(rng):
    for _ in range(200):
        c = random_complex(rng, 10, 10)
        assert euler_by_subsets(nerve(c)) == euler_by_subsets(c), c


# --- join ------------------------------------------------------------------


def test_join_two_points_with_three_points():
    # two points joined with three points
    got = join(cx(2, {0}, {1}), cx(3, {0}, {1}, {2}))
    assert got == cx(5, {0, 2, 3, 4}, {1, 2, 3, 4}, {0, 1, 2}, {0, 1, 3}, {0, 1, 4})


def test_join_two_empty_face_complexes():
    got = join(Complex(1, (0,)), Complex(1, (0,)))
    assert got == cx(2, {0}, {1})
    assert euler_by_subsets(got) == 1  # (-1) * (-1)


def test_join_full_simplices():
    assert join(cx(1, {0}), cx(1, {0})) == cx(2, {0, 1})


def test_join_void_rejected():
    with pytest.raises(InputError):
        join(cx(1), cx(1, {0}))


def test_join_multiplicativity_random(rng):
    for _ in range(200):
        a = random_complex(rng, 6, 6)
        b = random_complex(rng, 6, 6)
        j = join(a, b)
        assert euler_by_subsets(j) == euler_by_subsets(a) * euler_by_subsets(b)


# --- find_independent_pair -------------------------------------------------


def test_independent_pair_on_join_example():
    psi = join(cx(2, {0}, {1}), cx(3, {0}, {1}, {2}))
    pair = find_independent_pair(psi)
    assert pair is not None
    a, b = pair
    assert a | b == mask(psi.n) and a & b == 0
    da, db = independent_parts(psi, a, b)
    assert euler_by_subsets(da) * euler_by_subsets(db) == euler_by_subsets(psi)


def test_independent_pair_triangle_three_components():
    # complements {2},{0},{1} do not overlap: three components, so the first
    # is returned against the rest
    pair = find_independent_pair(cx(3, {0, 1}, {1, 2}, {0, 2}))
    assert pair == (1, 6)  # A = {0}, B = {1,2}


def test_independent_pair_single_facet():
    assert find_independent_pair(cx(2, {0, 1})) is None


def test_independent_pair_soundness(rng):
    found = 0
    for trial in range(200):
        c = random_complex(rng, 9, 6)
        if trial % 2:
            # random complexes rarely decompose; join-built ones always do,
            # and a join never has unused vertices
            other = random_complex(rng, 4, 3)
            if c.is_void() or other.is_void():
                continue
            c = join(c, other)
        else:
            c, _ = simplify(c)  # precondition: no unused vertices
        if c.num_facets < 2:
            continue
        pair = find_independent_pair(c)
        if pair is None:
            continue
        found += 1
        a, b = pair
        assert a and b and a | b == mask(c.n) and a & b == 0
        da, db = independent_parts(c, a, b)
        joined = join(da, db)
        # join relabels the universe: A's vertices first, then B's
        perm = list(iter_bits(a)) + list(iter_bits(b))
        relabeled = make_complex(
            c.n, [[perm.index(v) for v in iter_bits(f)] for f in c.facets]
        )
        assert joined == relabeled
        assert euler_by_subsets(da) * euler_by_subsets(db) == euler_by_subsets(c)
    assert found  # the sweep must actually exercise decompositions


def test_independent_pair_pows_v():
    assert find_independent_pair(cx(3, {0, 1, 2})) is None


# --- antichain preservation ------------------------------------------------


def _is_antichain(c):
    return all(
        a == b or (a & ~b and b & ~a) for a in c.facets for b in c.facets
    )


def test_operations_preserve_antichain(rng):
    for _ in range(100):
        c = random_complex(rng, 8, 8)
        assert _is_antichain(c)
        assert _is_antichain(restrict(c, {0})[0])
        assert _is_antichain(add_facet_closure(c, rng.getrandbits(c.n)))
        if not c.is_void():
            assert _is_antichain(nerve(c))
