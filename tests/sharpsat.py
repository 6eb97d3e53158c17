"""A small exact model counter (#SAT), independent of the eulerchar engine.

DPLL over clause sets: a unit clause fixes its literal, otherwise the most
frequent variable is tried both ways; variable-disjoint components are
counted apart and multiplied, and every clause set's count is memoized.  A
clause is a frozenset of DIMACS literals.  On seeded 3-CNFs at clause ratio
4.2 it takes about 0.1 s for 40 variables, 0.3-0.7 s for 60 and 2-23 s for
80-100 (2-vCPU guest, Python 3.11.7).
"""

from collections import Counter


def count_models(num_vars, clauses):
    """Satisfying assignments of the CNF over variables 1..num_vars."""
    cls = frozenset(frozenset(c) for c in clauses)
    return _Dpll().over(cls, num_vars)


def _assign(cls, lit):
    """cls with lit true, or None when a clause becomes empty."""
    out = []
    for c in cls:
        if lit in c:
            continue
        if -lit in c:
            c = c - {-lit}
            if not c:
                return None
        out.append(c)
    return frozenset(out)


def _variables(cls):
    return {abs(lit) for c in cls for lit in c}


def _components(cls):
    """Variable-disjoint parts of cls."""
    occ = {}
    for c in cls:
        for lit in c:
            occ.setdefault(abs(lit), []).append(c)
    seen = set()
    parts = []
    for v in occ:
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        part = set()
        while stack:
            for c in occ[stack.pop()]:
                if c not in part:
                    part.add(c)
                    for lit in c:
                        if abs(lit) not in seen:
                            seen.add(abs(lit))
                            stack.append(abs(lit))
        parts.append(frozenset(part))
    return parts


class _Dpll:
    def __init__(self):
        self.memo = {}

    def over(self, cls, n):
        """Models of cls over n variables, among them every one of cls; the
        variables cls does not mention are free."""
        if cls is None:
            return 0
        return self.count(cls) << (n - len(_variables(cls)))

    def count(self, cls):
        """Models of cls over the variables that occur in it."""
        if not cls:
            return 1
        got = self.memo.get(cls)
        if got is not None:
            return got
        parts = _components(cls)
        if len(parts) > 1:
            got = 1
            for part in parts:
                got *= self.count(part)
        else:
            n = len(_variables(cls))
            unit = next((c for c in cls if len(c) == 1), None)
            if unit is not None:
                lits = tuple(unit)
            else:
                v = Counter(abs(lit) for c in cls for lit in c).most_common(1)[0][0]
                lits = (v, -v)
            got = sum(self.over(_assign(cls, lit), n - 1) for lit in lits)
        self.memo[cls] = got
        return got
