"""Reduced Euler characteristics of facet-presented simplicial complexes.

Exact divide-and-conquer computation (bcrt and dbms splits with pluggable
pivot strategies), brute-force oracles, benchmark-family generators, a
square-free-monomial-ideal translation layer, and constructive hardness
gadgets, plus a CLI (`eulerchar`).
"""

from .core import (
    Complex,
    add_facet_closure,
    find_independent_pair,
    is_cone,
    join,
    make_complex,
    nerve,
    restrict,
)
from .engine import (
    EngineConfig,
    EngineStats,
    euler,
    select_pivot_bcrt,
    select_pivot_dbms,
    simplify,
    split_bcrt,
    split_dbms,
    try_base_case,
)
from .errors import CapacityError, EulerOverflowError, InputError
from .generators import GeneratorSpec, gen_matching, gen_nicgraph, gen_random, gen_rook
from .oracle import FVector, euler_by_inclusion_exclusion, euler_by_subsets, f_vector
from .reductions import (
    CnfFormula,
    Graph,
    complex_with_euler,
    count_sat_bruteforce,
    graph_to_complex,
    negate_euler,
    sat_to_complex,
    sat_to_graph,
)
from .translation import (
    SquareFreeIdeal,
    complex_to_ideal,
    ideal_to_complex,
    minimalize,
    transpose_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "Complex",
    "make_complex",
    "restrict",
    "add_facet_closure",
    "is_cone",
    "nerve",
    "join",
    "find_independent_pair",
    "euler_by_subsets",
    "euler_by_inclusion_exclusion",
    "f_vector",
    "FVector",
    "euler",
    "simplify",
    "try_base_case",
    "select_pivot_bcrt",
    "select_pivot_dbms",
    "split_bcrt",
    "split_dbms",
    "EngineConfig",
    "EngineStats",
    "GeneratorSpec",
    "gen_random",
    "gen_rook",
    "gen_matching",
    "gen_nicgraph",
    "CnfFormula",
    "Graph",
    "sat_to_graph",
    "graph_to_complex",
    "count_sat_bruteforce",
    "sat_to_complex",
    "complex_with_euler",
    "negate_euler",
    "SquareFreeIdeal",
    "complex_to_ideal",
    "ideal_to_complex",
    "minimalize",
    "transpose_ideal",
    "InputError",
    "CapacityError",
    "EulerOverflowError",
    "__version__",
]
