#!/usr/bin/env python3
"""Benchmark harness: compare algorithms and pivot strategies on the
generated families, reporting median wall time, node counts, abundant-vertex
eliminations (one per missing facet dropped by simplification), subproblem
table hits (subtrees the table saved), independence splits (nodes above the
split threshold that split into independent factors) and sum splits (nodes
above it that split into vertex-disjoint parts).

With --json PATH the rows also go to PATH as one JSON document: per
instance and configuration χ̃, counters(), the fields of
EngineStats.extras() (sum_splits, cache_hits, cache_evictions,
relabelled_keys for table lookups made under a degree-relabelled copy,
max_depth for the deepest stack of pending work, along which the table keys
of unsolved nodes are held, and split_leaves for dbms second children solved
at their split, not counted as nodes), the median seconds, the median in
reference seconds and the row's peak RSS (peak_rss_kb; each row runs in a
fresh process that receives the instance and reads its own address space's
high-water mark, so its figure is that row's alone), plus the Python
version, the usable CPU count, the git commit of the checkout, whether the
checkout has uncommitted changes or untracked files (dirty; None outside
git), src_lines, the total line count of the eulerchar modules measured
(src/eulerchar/*.py in a checkout), and src_code_lines, their lines that
hold code (see code_lines).  Every timed run sits between two runs
of perfbench/run.py's calibration loop, which scales it to reference seconds
(see that file): the seconds the run would take on a host where the loop
takes its reference time, so points from different hosts and hours compare.

Examples:
    python bench/benchmark.py                       # default instance set
    python bench/benchmark.py --instances rook:7,7 match:11 --repeat 5
    python bench/benchmark.py --algorithms dbms --pivots raremax,rarest
    python bench/benchmark.py --pivots default --json BENCH_<tag>.json
"""

import argparse
import ast
import importlib.util
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import eulerchar
from eulerchar import CapacityError, EngineConfig, InputError, euler
from eulerchar.engine import ALGORITHMS, BCRT_PIVOTS, DBMS_PIVOTS, DEFAULT_PIVOT
from eulerchar.generators import generate, parse_spec

# modest defaults: every strategy finishes in seconds on these; pass
# --instances for the heavyweights (rook:8,8, match:13, nicgraph:9,2)
DEFAULT_INSTANCES = [
    "rook:6,6",
    "match:9",
    "match:10",
    "nicgraph:7,2",
    "random:30,30,seed=1",
]


def load_perfbench():
    """perfbench/run.py, loaded by path for its calibration; its `import
    tracing` needs perfbench/ on sys.path."""
    directory = str(Path(__file__).resolve().parent.parent / "perfbench")
    if directory not in sys.path:
        sys.path.insert(0, directory)
    spec = importlib.util.spec_from_file_location("perfbench_run", f"{directory}/run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_one(cx, cfg, repeat, perf):
    """(χ̃, stats, median seconds, median reference seconds) of repeat runs,
    each between two runs of perf's calibration loop."""
    times = []
    refs = []
    value = stats = None
    for _ in range(repeat):
        before = perf.calibrate()
        t0 = time.perf_counter()
        value, stats = euler(cx, cfg)
        t = time.perf_counter() - t0
        times.append(t)
        refs.append(perf.reference_seconds(t, before, perf.calibrate()))
    return value, stats, statistics.median(times), statistics.median(refs)


def peak_rss_kb():
    """This process's peak RSS in KB: VmHWM from /proc/self/status, the
    high-water mark of its own address space.  ru_maxrss, the fallback off
    Linux, would on Linux keep the parent's mark across fork and exec, so a
    small row run after the parent built a large instance would read the
    parent's figure."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_row(cx, cfg, repeat):
    """run_one in this process, then its peak RSS (KB)."""
    value, stats, med, med_ref = run_one(cx, cfg, repeat, load_perfbench())
    return value, stats, med, med_ref, peak_rss_kb()


# a fresh interpreter loads this file by path (however the caller loaded it),
# reads run_row's arguments pickled on stdin and writes its result to stdout
_ROW_CHILD = """
import importlib.util, pickle, sys
spec = importlib.util.spec_from_file_location("benchmark_row", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
sys.stdout.buffer.write(pickle.dumps(bench.run_row(*pickle.load(sys.stdin.buffer))))
"""


def run_fresh(cx, cfg, repeat):
    """run_row in a fresh process, so that the peak RSS is the row's own."""
    done = subprocess.run(
        [sys.executable, "-c", _ROW_CHILD, os.path.abspath(__file__)],
        input=pickle.dumps((cx, cfg, repeat)),
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        check=True,
    )
    return pickle.loads(done.stdout)


def code_lines(source):
    """The number of lines of Python source that hold code: not blank, not
    only a comment, and not inside a docstring (a statement that is a lone
    string).  Unlike the raw line count, comments and docstrings cannot
    move it."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            docs.update(range(node.lineno, node.end_lineno + 1))
    # comments, line ends, indentation and the end hold no code
    blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in blank:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def git(args):
    """Stripped stdout of a git command run in this checkout, or None outside
    git."""
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def checkout_facts():
    """The JSON document's fields other than rows: the Python version, the
    usable CPU count, the checkout's git state and the package's line
    counts."""
    status = git(["status", "--porcelain"])  # one line per changed or untracked path
    modules = sorted(Path(eulerchar.__file__).parent.glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git(["rev-parse", "HEAD"]),
        "dirty": None if status is None else status != "",
        "src_lines": sum(p.read_bytes().count(b"\n") for p in modules),
        "src_code_lines": sum(code_lines(p.read_text("utf-8")) for p in modules),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", nargs="*", default=DEFAULT_INSTANCES)
    ap.add_argument("--algorithms", default="dbms,bcrt")
    ap.add_argument(
        "--pivots",
        default=None,
        help="comma list ('default' = the algorithm's default pivot); default = all per algorithm",
    )
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--json", metavar="PATH", help="also write the rows to PATH as JSON")
    args = ap.parse_args(argv)

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    pivot_names = [p.strip() for p in (args.pivots or "").split(",") if p.strip()]
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if not algorithms or not set(algorithms) <= set(ALGORITHMS):
        ap.error(f"--algorithms takes a comma list of {', '.join(ALGORITHMS)}")
    # a pivot is run under each chosen algorithm that has it
    known = {p for a in algorithms for p in (BCRT_PIVOTS if a == "bcrt" else DBMS_PIVOTS)}
    known.add("default")
    if not set(pivot_names) <= known:
        ap.error(f"--pivots takes a comma list of {', '.join(sorted(known))}")
    try:
        instances = [(text, generate(parse_spec(text))) for text in args.instances]
    except (InputError, CapacityError) as exc:
        ap.error(str(exc))

    # read before the rows run, so that an edit made during a run of minutes
    # cannot mark a clean checkout dirty
    facts = checkout_facts() if args.json else None
    print(
        f"{'instance':>18} {'n':>5} {'m':>7}  {'config':<18} {'chi':>8} {'nodes':>9} "
        f"{'elims':>9} {'hits':>7} {'splits':>7} {'sums':>5} {'median_s':>9}"
    )
    rows = []
    for spec_text, cx in instances:
        for alg in algorithms:
            all_pivots = BCRT_PIVOTS if alg == "bcrt" else DBMS_PIVOTS
            if pivot_names:
                named = (DEFAULT_PIVOT[alg] if p == "default" else p for p in pivot_names)
                pivots = list(dict.fromkeys(p for p in named if p in all_pivots))
            else:
                pivots = all_pivots
            for piv in pivots:
                cfg = EngineConfig(algorithm=alg, pivot=piv)
                value, stats, med, med_ref, rss = run_fresh(cx, cfg, args.repeat)
                print(
                    f"{spec_text:>18} {cx.n:>5} {cx.num_facets:>7}  "
                    f"{alg + '/' + piv:<18} {value:>8} {stats.nodes_expanded:>9} "
                    f"{stats.abundant_eliminations:>9} {stats.cache_hits:>7} "
                    f"{stats.independence_splits:>7} {stats.sum_splits:>5} {med:>9.3f}",
                    flush=True,
                )
                rows.append(
                    {
                        "instance": spec_text,
                        "algorithm": alg,
                        "pivot": piv,
                        "chi": value,
                        "counters": stats.counters(),
                        **stats.extras(),
                        "median_s": med,
                        "median_ref_s": med_ref,
                        "repeat": args.repeat,
                        "peak_rss_kb": rss,
                    }
                )
    if args.json:
        with open(args.json, "w") as out:
            json.dump({**facts, "rows": rows}, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
