import pytest

from eulerchar import (
    CapacityError,
    Complex,
    euler_by_inclusion_exclusion,
    euler_by_subsets,
    f_vector,
    make_complex,
)

from conftest import all_complexes, random_complex


def cx(n, *faces):
    return make_complex(n, faces)


def test_subsets_examples():
    assert euler_by_subsets(cx(3, {0, 1}, {0, 2}, {1, 2})) == -1
    assert euler_by_subsets(cx(3, {0, 1, 2})) == 0
    assert euler_by_subsets(Complex(1, (0,))) == -1
    assert euler_by_subsets(cx(3)) == 0


def test_inclusion_exclusion_examples():
    assert euler_by_inclusion_exclusion(cx(3, {0, 1}, {0, 2}, {1, 2})) == -1
    assert euler_by_inclusion_exclusion(cx(4, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2})) == 1
    assert euler_by_inclusion_exclusion(cx(3)) == 0
    assert euler_by_inclusion_exclusion(Complex(0, (0,))) == -1


def test_guards():
    with pytest.raises(CapacityError):
        euler_by_subsets(cx(26, {0}))
    with pytest.raises(CapacityError):
        euler_by_inclusion_exclusion(make_complex(26, [{i} for i in range(26)]))
    with pytest.raises(CapacityError):
        f_vector(cx(4, {0, 1}, {1, 2}), max_faces=3)
    # one facet of d vertices alone has 2^d faces: refused before the walk,
    # whose recursion would otherwise go d levels deep
    with pytest.raises(CapacityError):
        f_vector(cx(1500, range(1500)))
    assert f_vector(cx(3, {0, 1, 2}), max_faces=8).total == 8
    with pytest.raises(CapacityError):
        f_vector(cx(3, {0, 1, 2}), max_faces=7)


def test_f_vector_examples():
    fv = f_vector(cx(3, {0, 1}, {0, 2}, {1, 2}))
    assert fv.entries == (1, 3, 3, 0)
    assert fv.total == 7
    assert fv.euler == -1
    void = f_vector(cx(3))
    assert void.entries == (0, 0, 0, 0) and void.total == 0


def test_oracles_agree_exhaustive():
    for c in all_complexes(4):
        assert euler_by_subsets(c) == euler_by_inclusion_exclusion(c), c


def test_oracles_agree_random(rng):
    for _ in range(500):
        c = random_complex(rng, 12, 12)
        want = euler_by_subsets(c)
        assert euler_by_inclusion_exclusion(c) == want, c
        assert f_vector(c).euler == want, c
