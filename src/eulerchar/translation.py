"""Dictionary between simplicial complexes and square-free monomial ideals.

An ideal is just its 0/1 generator-exponent matrix: one bit row per minimal
generator (bit v = variable v divides the generator), with an explicit
ambient variable count.  A facet corresponds to the complement of a
generator row, so the translation never touches polynomial arithmetic.
"""

from dataclasses import dataclass
from typing import Iterable, Tuple

from ._bitops import mask, maximal_sets
from .core import Complex, FaceLike, as_face, nerve
from .errors import InputError


@dataclass(frozen=True)
class SquareFreeIdeal:
    """Minimal generators of a square-free monomial ideal as bit rows.

    Rows are duplicate-free, pairwise non-dividing (an antichain under
    bitwise inclusion) and kept in descending integer order.  Complementing
    within the full mask is integer subtraction, so descending rows put
    generator i in correspondence with facet i of the translated complex
    (whose facets are ascending); that alignment is what makes the
    transpose ideal literally equal the nerve through φ⁻¹.  No rows at all
    is the zero ideal; a single all-zero row is the unit ideal <1>.
    """

    num_vars: int
    generators: Tuple[int, ...]

    def __post_init__(self):
        n = self.num_vars
        if n < 0:
            raise InputError("negative variable count")
        rows = self.generators
        for r in rows:
            if r < 0 or r.bit_length() > n:
                raise InputError(f"generator row {r:#x} does not fit {n} variables")
        if len(set(rows)) != len(rows):
            raise InputError("duplicate generator rows")
        if tuple(sorted(rows, reverse=True)) != rows:
            raise InputError("generator rows must be sorted descending")
        # rows are distinct here, so any dominated row shrinks the maximal sets
        if len(maximal_sets(list(rows))) != len(rows):
            raise InputError("generator rows must be minimal (antichain)")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def is_zero(self) -> bool:
        return not self.generators


def minimalize(rows: Iterable[FaceLike], num_vars: int) -> SquareFreeIdeal:
    """Keep the divisibility-minimal rows (componentwise-minimal bit rows)."""
    if num_vars < 0:
        raise InputError("negative variable count")
    full = mask(num_vars)
    packed = [as_face(num_vars, r) for r in rows]
    minimal = [full ^ r for r in maximal_sets([full ^ r for r in packed])]
    return SquareFreeIdeal(num_vars, tuple(sorted(minimal, reverse=True)))


def complex_to_ideal(cx: Complex) -> SquareFreeIdeal:
    """φ: one generator per facet, the row being the facet's complement.
    The void complex maps to the zero ideal."""
    full = mask(cx.n)
    # ascending facets complement to descending rows, keeping i ↔ i
    return SquareFreeIdeal(cx.n, tuple(full ^ f for f in cx.facets))


def ideal_to_complex(ideal: SquareFreeIdeal) -> Complex:
    """φ⁻¹: facets are the complements of the generator rows, on the full
    ambient variable universe (unused variables stay as unused vertices)."""
    full = mask(ideal.num_vars)
    return Complex(ideal.num_vars, tuple(full ^ r for r in ideal.generators))


def transpose_ideal(ideal: SquareFreeIdeal) -> SquareFreeIdeal:
    """Transpose the generator/variable matrix and minimalize the rows.

    The result lives in as many variables as the input had generators, and
    has the same χ̃ through φ⁻¹: it is the nerve seen through the
    translation, which is how it is computed."""
    if ideal.is_zero():
        raise InputError("transpose of the zero ideal is undefined")
    if ideal.num_vars < 1:
        raise InputError("transpose requires at least one ambient variable")
    return complex_to_ideal(nerve(ideal_to_complex(ideal)))
