#!/usr/bin/env python3
"""Benchmark harness: compare algorithms and pivot strategies on the
generated families, reporting median wall time, node counts, abundant-vertex
eliminations (one per missing facet dropped by simplification), subproblem
table hits (subtrees the table saved) and independence splits (nodes too
large for the table that split into independent factors).

Examples:
    python bench/benchmark.py                       # default instance set
    python bench/benchmark.py --instances rook:7,7 match:11 --repeat 5
    python bench/benchmark.py --algorithms dbms --pivots raremax,rarest
"""

import argparse
import statistics
import sys
import time

from eulerchar import CapacityError, EngineConfig, InputError, euler
from eulerchar.engine import ALGORITHMS, BCRT_PIVOTS, DBMS_PIVOTS
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", nargs="*", default=DEFAULT_INSTANCES)
    ap.add_argument("--algorithms", default="dbms,bcrt")
    ap.add_argument("--pivots", default=None, help="comma list; default = all per algorithm")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--nerve", choices=["on", "off"], default="on")
    args = ap.parse_args(argv)

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    pivot_names = [p.strip() for p in (args.pivots or "").split(",") if p.strip()]
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if not algorithms or not set(algorithms) <= set(ALGORITHMS):
        ap.error(f"--algorithms takes a comma list of {', '.join(ALGORITHMS)}")
    # a pivot is run under each chosen algorithm that has it
    known = {p for a in algorithms for p in (BCRT_PIVOTS if a == "bcrt" else DBMS_PIVOTS)}
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
    for spec_text, cx in instances:
        for alg in algorithms:
            all_pivots = BCRT_PIVOTS if alg == "bcrt" else DBMS_PIVOTS
            pivots = [p for p in pivot_names if p in all_pivots] if pivot_names else all_pivots
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
