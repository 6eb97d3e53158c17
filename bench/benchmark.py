#!/usr/bin/env python3
"""Benchmark harness: compare algorithms and pivot strategies on the
generated families, reporting median wall time, node counts, abundant-vertex
eliminations (one per missing facet dropped by simplification), subproblem
table hits (subtrees the table saved) and independence splits (nodes too
large for the table that split into independent factors).

With --json PATH the rows also go to PATH as one JSON document: per
instance and configuration χ̃, counters(), cache_hits, cache_evictions, the
median seconds and the process's peak RSS so far (ru_maxrss, KB; rows run in
the order listed, so each row's figure covers the rows before it), plus the
Python version, the usable CPU count and the git commit of the checkout.

Examples:
    python bench/benchmark.py                       # default instance set
    python bench/benchmark.py --instances rook:7,7 match:11 --repeat 5
    python bench/benchmark.py --algorithms dbms --pivots raremax,rarest
    python bench/benchmark.py --pivots default --json BENCH_<tag>.json
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

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


def run_one(cx, cfg, repeat):
    times = []
    value = stats = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value, stats = euler(cx, cfg)
        times.append(time.perf_counter() - t0)
    return value, stats, statistics.median(times)


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


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
    ap.add_argument("--nerve", choices=["on", "off"], default="on")
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

    print(
        f"{'instance':>18} {'n':>5} {'m':>7}  {'config':<18} {'chi':>8} {'nodes':>9} "
        f"{'elims':>9} {'hits':>7} {'splits':>7} {'median_s':>9}"
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
                cfg = EngineConfig(algorithm=alg, pivot=piv, use_nerve=args.nerve == "on")
                value, stats, med = run_one(cx, cfg, args.repeat)
                print(
                    f"{spec_text:>18} {cx.n:>5} {cx.num_facets:>7}  "
                    f"{alg + '/' + piv:<18} {value:>8} {stats.nodes_expanded:>9} "
                    f"{stats.abundant_eliminations:>9} {stats.cache_hits:>7} "
                    f"{stats.independence_splits:>7} {med:>9.3f}",
                    flush=True,
                )
                rows.append(
                    {
                        "instance": spec_text,
                        "algorithm": alg,
                        "pivot": piv,
                        "nerve": args.nerve,
                        "chi": value,
                        "counters": stats.counters(),
                        "cache_hits": stats.cache_hits,
                        "cache_evictions": stats.cache_evictions,
                        "median_s": med,
                        "repeat": args.repeat,
                        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    }
                )
    if args.json:
        doc = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "rows": rows,
        }
        with open(args.json, "w") as out:
            json.dump(doc, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
