import pytest

from eulerchar import (
    Complex,
    InputError,
    SquareFreeIdeal,
    complex_to_ideal,
    euler,
    euler_by_subsets,
    ideal_to_complex,
    make_complex,
    minimalize,
    nerve,
    transpose_ideal,
)

from conftest import all_complexes, random_complex


def test_phi_examples():
    # facets of (3; {1},{2}) complement to x0x2 and x0x1
    ideal = complex_to_ideal(make_complex(3, [{1}, {2}]))
    assert ideal == SquareFreeIdeal(3, (0b101, 0b011))
    # ∅ on 3 vertices maps to the full product x0x1x2
    assert complex_to_ideal(Complex(3, (0,))).generators == (0b111,)
    # pows(V) maps to the unit ideal
    assert complex_to_ideal(make_complex(3, [{0, 1, 2}])).generators == (0,)
    # void maps to the zero ideal
    assert complex_to_ideal(make_complex(3, [])).is_zero()


def test_phi_inverse_examples():
    ideal = minimalize([(0, 1), (0, 2)], 3)
    c = ideal_to_complex(ideal)
    assert c == make_complex(3, [{2}, {1}])
    assert c.n == 3  # vertex 0 stays in the universe though unused
    assert ideal_to_complex(SquareFreeIdeal(3, ())) == make_complex(3, [])


def test_minimalize_examples():
    assert minimalize([(1, 2), (1,)], 3).generators == (0b010,)
    assert minimalize([(0, 1), (1, 2)], 3).generators == (0b110, 0b011)
    assert minimalize([(0, 1, 2), (0, 1), (1, 2), (0, 1)], 3).generators == (0b110, 0b011)


def test_ideal_validation():
    with pytest.raises(InputError):
        SquareFreeIdeal(2, (0b01, 0b11))  # non-minimal
    with pytest.raises(InputError):
        SquareFreeIdeal(2, (0b01, 0b01))  # duplicate
    with pytest.raises(InputError):
        SquareFreeIdeal(1, (0b10,))  # row outside ambient variables
    # more than 512 rows of mixed sizes takes the transposed antichain route:
    # the 2-subsets of 40 variables plus one 3-subset containing 0b11
    pairs = [(1 << i) | (1 << j) for i in range(40) for j in range(i + 1, 40)]
    rows = tuple(sorted(pairs + [0b111], reverse=True))
    assert len(rows) > 512
    with pytest.raises(InputError):
        SquareFreeIdeal(40, rows)
    antichain = tuple(sorted(pairs + [0b111 << 40], reverse=True))
    assert SquareFreeIdeal(43, antichain).num_generators == 781


def test_transpose_examples():
    ideal = minimalize([(0, 1), (0, 2)], 3)
    t = transpose_ideal(ideal)
    assert t == SquareFreeIdeal(2, (0b10, 0b01))
    assert transpose_ideal(minimalize([(0, 1)], 2)) == SquareFreeIdeal(1, (0b1,))
    with pytest.raises(InputError):
        transpose_ideal(SquareFreeIdeal(3, ()))
    # variable 2 divides no generator: its all-zero row makes the unit ideal
    assert transpose_ideal(minimalize([(0,), (1,)], 3)) == SquareFreeIdeal(2, (0,))
    # variable 0 divides every generator: its all-ones row is dominated
    assert transpose_ideal(minimalize([(0, 1), (0, 2), (0, 3)], 4)) == SquareFreeIdeal(
        3, (0b100, 0b010, 0b001)
    )


def test_round_trips_random(rng):
    for _ in range(100):
        c = random_complex(rng, 9, 9)
        ideal = complex_to_ideal(c)
        assert ideal_to_complex(ideal) == c
        assert complex_to_ideal(ideal_to_complex(ideal)) == ideal


def test_transpose_chi_invariance_exhaustive():
    for c in all_complexes(4):
        if c.is_void() or c.n == 0:
            continue
        ideal = complex_to_ideal(c)
        t = transpose_ideal(ideal)
        assert euler_by_subsets(ideal_to_complex(t)) == euler_by_subsets(c), c


def test_transpose_chi_invariance_random_engine(rng):
    for _ in range(100):
        c = random_complex(rng, 9, 9)
        if c.is_void():
            continue
        t = transpose_ideal(complex_to_ideal(c))
        assert euler(ideal_to_complex(t))[0] == euler(c)[0], c


def test_transpose_is_nerve_structurally(rng):
    for _ in range(100):
        c = random_complex(rng, 9, 9)
        if c.is_void():
            continue
        assert ideal_to_complex(transpose_ideal(complex_to_ideal(c))) == nerve(c), c


def test_unit_ideal_round_trip():
    unit = minimalize([()], 2)
    assert unit.generators == (0,)
    c = ideal_to_complex(unit)
    assert c == make_complex(2, [{0, 1}])
    assert complex_to_ideal(c) == unit
