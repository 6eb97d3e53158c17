"""Text and JSON document formats for complexes, ideals and CNF input.

Complex text format: optional '#' comment lines, a 'vertices <n>' header,
then one facet per line as ascending space-separated vertex indices; the
literal token 'empty' is the ∅ facet and zero facet lines denote the void
complex.  The JSON form is {"vertices": n, "facets": [[...], ...]}.

Ideal text format: 'vars <n>' header, one generator per line as variable
indices ('empty' is the unit generator, i.e. the all-zero exponent row).

CNF input is the DIMACS subset: 'c' comments, a 'p cnf <vars> <clauses>'
header, clauses as integers terminated by 0 (may span lines).
"""

import json

from ._bitops import iter_bits
from .core import Complex, make_complex
from .errors import CapacityError, InputError
from .reductions import CnfFormula
from .translation import SquareFreeIdeal, minimalize

# largest vertex or variable count a document may declare: above the
# generators' 2,000,000-facet limit, so every generated complex's nerve fits
MAX_UNIVERSE = 1 << 24


def _data_lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _parse_rows(text, header, doc_name, row_name):
    """The shared text layout: '<header> <n>', then one row of ascending
    indices per line ('empty' is the empty row).  Returns (n, rows)."""
    lines = list(_data_lines(text))
    if not lines or not lines[0].startswith(header):
        raise InputError(f"{doc_name} document must start with '{header} <n>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputError(f"bad header line {lines[0]!r}") from None
    if n > MAX_UNIVERSE:
        raise CapacityError(f"{header} {n} exceeds the limit of {MAX_UNIVERSE}")
    rows = []
    for line in lines[1:]:
        if line == "empty":
            rows.append(())
            continue
        try:
            rows.append(tuple(int(t) for t in line.split()))
        except ValueError:
            raise InputError(f"bad {row_name} line {line!r}") from None
    return n, rows


def parse_complex(text: str) -> Complex:
    """Parse either format (JSON is recognized by a leading '{').  Input
    faces are maximalized, mirroring facets-only input conventions."""
    if text.lstrip().startswith("{"):
        return parse_complex_json(text)
    return make_complex(*_parse_rows(text, "vertices", "complex", "facet"))


def _json_int(v, what):
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"{what} {v!r} is not an integer")
    return v


def parse_complex_json(text: str) -> Complex:
    try:
        doc = json.loads(text)
        n = _json_int(doc["vertices"], "vertices")
        if n > MAX_UNIVERSE:
            raise CapacityError(f"vertices {n} exceeds the limit of {MAX_UNIVERSE}")
        return make_complex(n, [tuple(_json_int(v, "vertex") for v in f) for f in doc["facets"]])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad JSON complex document: {exc}") from None


def write_complex(cx: Complex, as_json: bool = False) -> str:
    if as_json:
        doc = {"vertices": cx.n, "facets": [list(iter_bits(f)) for f in cx.facets]}
        return json.dumps(doc) + "\n"
    out = [f"vertices {cx.n}"]
    for f in cx.facets:
        out.append("empty" if f == 0 else " ".join(str(v) for v in iter_bits(f)))
    return "\n".join(out) + "\n"


def parse_ideal(text: str) -> SquareFreeIdeal:
    n, rows = _parse_rows(text, "vars", "ideal", "generator")
    return minimalize(rows, n)


def write_ideal(ideal: SquareFreeIdeal) -> str:
    out = [f"vars {ideal.num_vars}"]
    for g in ideal.generators:
        out.append("empty" if g == 0 else " ".join(str(v) for v in iter_bits(g)))
    return "\n".join(out) + "\n"


def write_dimacs(f: CnfFormula) -> str:
    out = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    num_vars = None
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"bad DIMACS problem line {line!r}")
            try:
                num_vars = int(parts[2])
            except ValueError:
                raise InputError(f"bad DIMACS problem line {line!r}") from None
            if num_vars > MAX_UNIVERSE:
                raise CapacityError(f"p cnf {num_vars} exceeds the limit of {MAX_UNIVERSE}")
            continue
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise InputError(f"bad DIMACS clause line {line!r}") from None
    if num_vars is None:
        raise InputError("missing 'p cnf' header")
    clauses = []
    current = []
    for t in tokens:
        if t == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(t)
    if current:
        raise InputError("last clause is not terminated by 0")
    return CnfFormula(num_vars, tuple(clauses))


def sniff_kind(text: str) -> str:
    """Classify a document as 'complex', 'ideal' or 'cnf' by its header."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return "complex"
    for line in _data_lines(text):
        if line.startswith("vertices"):
            return "complex"
        if line.startswith("vars"):
            return "ideal"
        if line.startswith("p cnf") or line.startswith("c"):
            return "cnf"
        break
    raise InputError("unrecognized document (expected vertices/vars/p cnf header)")
