"""Per-layer tracing from outside the program.

The layers are the modules of ``src/eulerchar``.  A ``Tracer`` replaces the
public functions named in ``TARGETS`` by timing wrappers in every eulerchar
module that binds them (``engine`` imports ``maximal_sets`` by name, so
patching ``_bitops`` alone would miss the engine's calls), and puts the
originals back afterwards, checking each by identity.

Every call is a span.  A span's self time is its duration minus the time of
the traced calls nested in it, including their bookkeeping, so the self times
of all spans plus the unattributed time add up to the traced wall time.
"""

import sys
import time

_PACKAGE = "eulerchar"
BASE_KINDS = ("void", "empty_face", "cone", "codisjoint", "two_facets", "three_facets", "four_facets")


def _cells(extra, args, result):
    keep, sets = args
    extra["cells"] = extra.get("cells", 0) + len(sets) * keep.bit_count()


def _sets(extra, args, result):
    extra["sets_in"] = extra.get("sets_in", 0) + len(args[0])
    extra["kept"] = extra.get("kept", 0) + len(result)


def _incidences(extra, args, result):
    extra["incidences"] = extra.get("incidences", 0) + sum(map(int.bit_count, args[0]))


def _generators(extra, args, result):
    extra["generators"] = extra.get("generators", 0) + len(args[0].generators)


def _written(extra, args, result):
    extra["bytes"] = extra.get("bytes", 0) + len(result)


def _parsed(extra, args, result):
    extra["bytes"] = extra.get("bytes", 0) + len(args[0])


# (module, attribute, count hook); "Class.method" patches the class attribute
TARGETS = (
    ("engine", "euler", None),
    ("_bitops", "maximal_sets", _sets),
    ("_bitops", "compress_columns", _cells),
    ("_bitops", "transpose_rows", _incidences),
    ("core", "make_complex", None),
    ("core", "join", None),
    ("core", "nerve", None),
    ("translation", "complex_to_ideal", None),
    ("translation", "ideal_to_complex", None),
    ("translation", "transpose_ideal", None),
    ("translation", "minimalize", None),
    ("translation", "SquareFreeIdeal.__post_init__", _generators),
    ("docio", "parse_complex", _parsed),
    ("docio", "parse_ideal", _parsed),
    ("docio", "parse_dimacs", _parsed),
    ("docio", "write_complex", _written),
    ("docio", "write_ideal", _written),
    ("docio", "write_dimacs", _written),
    ("reductions", "complex_with_euler", None),
    ("reductions", "negate_euler", None),
    ("reductions", "sat_to_complex", None),
    ("generators", "generate", None),
)


def _span_key(module, attr):
    return f"{module}.{attr.split('.')[0]}"


class Span:
    __slots__ = ("calls", "incl", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.extra = {}


class Tracer:
    def __init__(self):
        self.spans = {}
        self._stack = []  # per open span: time spent in its traced children
        self._bindings = []  # (owner, name, original, wrapper)
        self.installed = False
        for module, attr, hook in TARGETS:
            self.spans[_span_key(module, attr)] = Span()

    def reset(self):
        for span in self.spans.values():
            span.__init__()

    def _wrap(self, fn, span, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                span.calls += 1
                span.incl += t1 - t0
                span.self_s += t1 - t0 - child
                if stack:
                    stack[-1] += t1 - t0
            if hook is not None:
                hook(span.extra, args, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return traced

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
        }
        bindings = []
        for module, attr, hook in TARGETS:
            span = self.spans[_span_key(module, attr)]
            owner_mod = mods[f"{_PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner_mod, cls_name)
                fn = cls.__dict__[meth]
                bindings.append((cls, meth, fn, self._wrap(fn, span, hook)))
                continue
            fn = getattr(owner_mod, attr)
            wrapper = self._wrap(fn, span, hook)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        bindings.append((mod, name, fn, wrapper))
        for owner, name, _, wrapper in bindings:
            setattr(owner, name, wrapper)
        self._bindings = bindings
        self.installed = True

    def uninstall(self):
        """Put every original back and check each one by identity."""
        for owner, name, fn, _ in self._bindings:
            setattr(owner, name, fn)
        for owner, name, fn, _ in self._bindings:
            current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if current is not fn:
                raise RuntimeError(f"{owner.__name__}.{name} was not restored")
        self._bindings = []
        self.installed = False


# per-layer metric names and units; "_bitops" is reported as "bitops" because
# a metric name must start with a letter or a digit
LAYER_UNITS = {
    "engine.euler_s": "s",
    "engine.self_s": "s",
    "engine.calls": "count",
    "engine.nodes": "count",
    "engine.us_per_node": "us",
    "engine.leaf_share": "ratio",
    **{f"engine.base_case.{k}": "count" for k in BASE_KINDS},
    "engine.nerve_applications": "count",
    "engine.abundant_eliminations": "count",
    "engine.independence_splits": "count",
    "bitops.compress_columns.calls": "count",
    "bitops.compress_columns.self_s": "s",
    "bitops.compress_columns.cells": "count",
    "bitops.maximal_sets.calls": "count",
    "bitops.maximal_sets.self_s": "s",
    "bitops.maximal_sets.sets_in": "count",
    "bitops.maximal_sets.kept_share": "ratio",
    "bitops.transpose_rows.calls": "count",
    "bitops.transpose_rows.self_s": "s",
    "bitops.transpose_rows.incidences": "count",
    "translation.complex_to_ideal.self_s": "s",
    "translation.ideal_to_complex.self_s": "s",
    "translation.transpose_ideal.self_s": "s",
    "translation.minimalize.self_s": "s",
    "translation.SquareFreeIdeal.self_s": "s",
    "translation.generators": "count",
    "docio.parse_s": "s",
    "docio.write_s": "s",
    "docio.bytes": "bytes",
    "reductions.complex_with_euler.self_s": "s",
    "reductions.negate_euler.self_s": "s",
    "reductions.sat_to_complex.self_s": "s",
    "core.join.self_s": "s",
    "core.nerve.self_s": "s",
    "core.make_complex.self_s": "s",
    "generators.generate_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
}


def pass_metrics(spans, counters, wall):
    """Per-layer metrics of one traced pass, from its spans and the summed
    EngineStats counters of its instances (all but the two set-up and
    untraced-run figures that the runner adds)."""
    s = spans
    nodes = counters["nodes_expanded"]
    hits = counters["base_case_hits"]
    euler = s["engine.euler"]
    ms = s["_bitops.maximal_sets"]
    cc = s["_bitops.compress_columns"]
    tr = s["_bitops.transpose_rows"]
    m = {
        "engine.euler_s": euler.incl,
        "engine.self_s": euler.self_s,
        "engine.calls": euler.calls,
        "engine.nodes": nodes,
        "engine.us_per_node": euler.incl / nodes * 1e6 if nodes else 0.0,
        "engine.leaf_share": sum(hits.values()) / nodes if nodes else 0.0,
        **{f"engine.base_case.{k}": hits.get(k, 0) for k in BASE_KINDS},
        "engine.nerve_applications": counters["nerve_applications"],
        "engine.abundant_eliminations": counters["abundant_eliminations"],
        "engine.independence_splits": counters["independence_splits"],
        "bitops.compress_columns.calls": cc.calls,
        "bitops.compress_columns.self_s": cc.self_s,
        "bitops.compress_columns.cells": cc.extra.get("cells", 0),
        "bitops.maximal_sets.calls": ms.calls,
        "bitops.maximal_sets.self_s": ms.self_s,
        "bitops.maximal_sets.sets_in": ms.extra.get("sets_in", 0),
        "bitops.maximal_sets.kept_share": (
            ms.extra["kept"] / ms.extra["sets_in"] if ms.extra.get("sets_in") else 0.0
        ),
        "bitops.transpose_rows.calls": tr.calls,
        "bitops.transpose_rows.self_s": tr.self_s,
        "bitops.transpose_rows.incidences": tr.extra.get("incidences", 0),
        "translation.generators": s["translation.SquareFreeIdeal"].extra.get("generators", 0),
        "docio.parse_s": sum(s[k].self_s for k in s if k.startswith("docio.parse")),
        "docio.write_s": sum(s[k].self_s for k in s if k.startswith("docio.write")),
        "docio.bytes": sum(s[k].extra.get("bytes", 0) for k in s if k.startswith("docio.")),
        "trace.unattributed_share": (wall - sum(x.self_s for x in s.values())) / wall,
    }
    for key in (
        "translation.complex_to_ideal",
        "translation.ideal_to_complex",
        "translation.transpose_ideal",
        "translation.minimalize",
        "translation.SquareFreeIdeal",
        "reductions.complex_with_euler",
        "reductions.negate_euler",
        "reductions.sat_to_complex",
        "core.join",
        "core.nerve",
        "core.make_complex",
    ):
        m[f"{key}.self_s"] = s[key].self_s
    return m
