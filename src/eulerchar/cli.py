"""Command-line interface.

Subcommands: euler, gen, reduce, construct-euler, nerve, transpose,
translate, fvector.  '-' means stdin/stdout.  Exit codes: 0 success,
1 input/parse error, 2 capacity or overflow.
"""

import argparse
import json
import os
import statistics
import sys
import time

from . import docio, engine, generators, oracle, reductions, translation
from .errors import CapacityError, EulerOverflowError, InputError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _load_complex(path: str):
    """euler/fvector accept a complex document, or an ideal document which is
    translated through φ⁻¹."""
    text = _read(path)
    kind = docio.sniff_kind(text)
    if kind == "complex":
        return docio.parse_complex(text)
    if kind == "ideal":
        return translation.ideal_to_complex(docio.parse_ideal(text))
    raise InputError("expected a complex or ideal document (use 'reduce' for CNF)")


def _complex_out(cx, out_path):
    as_json = bool(out_path) and out_path != "-" and out_path.endswith(".json")
    _write(out_path, docio.write_complex(cx, as_json=as_json))


def _cmd_euler(args) -> int:
    if args.repeat < 1:
        raise InputError("--repeat must be at least 1")
    cx = _load_complex(args.file)
    if args.algorithm.startswith("oracle"):
        if args.pivot is not None:
            raise InputError(f"--pivot does not apply to {args.algorithm}")
        fn = (
            oracle.euler_by_subsets
            if args.algorithm == "oracle-subsets"
            else oracle.euler_by_inclusion_exclusion
        )

        def solve():
            return fn(cx), {"algorithm": args.algorithm}

    else:
        cfg = engine.EngineConfig(
            algorithm=args.algorithm,
            pivot=args.pivot,
            use_nerve=args.nerve == "on",
            seed=args.seed,
        )

        def solve():
            value, stats = engine.euler(cx, cfg)
            counters = {**stats.counters(), **stats.extras()}
            counters["algorithm"] = args.algorithm
            counters["pivot"] = cfg.resolved_pivot()
            return value, counters

    runs = []
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        runs.append(solve())
        times.append(time.perf_counter() - t0)
    if any(r != runs[0] for r in runs[1:]):
        raise AssertionError("nondeterministic run")
    value, counters = runs[0]
    print(value)
    if args.stats:
        print(json.dumps(counters, sort_keys=True))
        median = statistics.median(times)
        print(f"elapsed median {median:.6f}s over {args.repeat} run(s)", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    cx = generators.generate(generators.parse_spec(args.spec))
    _complex_out(cx, args.output)
    return 0


def _cmd_reduce(args) -> int:
    formula = docio.parse_dimacs(_read(args.file))
    cx, sign = reductions.sat_to_complex(formula)
    doc = f"# sign {sign}\n" + docio.write_complex(cx)
    _write(args.output, doc)
    if args.verify:
        if formula.num_vars > 20:
            print("verify skipped: more than 20 variables", file=sys.stderr)
            return 0
        expected = reductions.count_sat_bruteforce(formula)
        value, _ = engine.euler(cx)
        if sign * value != expected:
            print(f"verify FAILED: {sign}*{value} != {expected}", file=sys.stderr)
            return 1
        print(f"verified: #sat = {expected}", file=sys.stderr)
    return 0


def _cmd_construct_euler(args) -> int:
    _complex_out(reductions.complex_with_euler(args.k), args.output)
    return 0


def _cmd_nerve(args) -> int:
    from .core import nerve

    _complex_out(nerve(docio.parse_complex(_read(args.file))), args.output)
    return 0


def _cmd_transpose(args) -> int:
    ideal = docio.parse_ideal(_read(args.file))
    _write(args.output, docio.write_ideal(translation.transpose_ideal(ideal)))
    return 0


def _cmd_translate(args) -> int:
    text = _read(args.file)
    kind = docio.sniff_kind(text)
    if kind == "complex":
        ideal = translation.complex_to_ideal(docio.parse_complex(text))
        _write(args.output, docio.write_ideal(ideal))
    elif kind == "ideal":
        cx = translation.ideal_to_complex(docio.parse_ideal(text))
        _complex_out(cx, args.output)
    else:
        raise InputError("translate expects a complex or ideal document")
    return 0


def _cmd_fvector(args) -> int:
    fv = oracle.f_vector(_load_complex(args.file))
    print(" ".join(str(c) for c in fv.entries))
    print(f"total {fv.total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eulerchar",
        description="Reduced Euler characteristics of simplicial complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("euler", help="compute χ̃ of a complex (or ideal) document")
    pe.add_argument("file")
    pe.add_argument(
        "--algorithm",
        choices=["bcrt", "dbms", "oracle-subsets", "oracle-ie"],
        default="dbms",
    )
    pe.add_argument("--pivot", default=None)
    pe.add_argument("--nerve", choices=["on", "off"], default="on")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--stats", action="store_true")
    pe.add_argument("--repeat", type=int, default=1)
    pe.set_defaults(fn=_cmd_euler)

    def command(name, about, fn, arg, *flags, output=True, **arg_kw):
        # a subcommand of one positional argument, store_true flags and -o
        sp = sub.add_parser(name, help=about)
        sp.add_argument(arg, **arg_kw)
        for flag in flags:
            sp.add_argument(flag, action="store_true")
        if output:
            sp.add_argument("-o", "--output", default=None)
        sp.set_defaults(fn=fn)

    command("gen", "generate a benchmark family instance", _cmd_gen, "spec",
            help="rook:6,6 | match:9 | nicgraph:7,2 | random:20,100,seed=7")
    command("reduce", "DIMACS CNF -> complex with s*χ̃ = #sat", _cmd_reduce, "file", "--verify")
    command("construct-euler", "emit a complex with χ̃ = k", _cmd_construct_euler, "k", type=int)
    command("nerve", "nerve of a complex document", _cmd_nerve, "file")
    command("transpose", "transpose an ideal document", _cmd_transpose, "file")
    command("translate", "complex ↔ ideal through φ", _cmd_translate, "file")
    command("fvector", "face counts by dimension", _cmd_fvector, "file", output=False)
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, EulerOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
    except BrokenPipeError:
        # the downstream reader went away (e.g. | head); die quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
