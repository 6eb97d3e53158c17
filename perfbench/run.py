#!/usr/bin/env python3
"""The eulerchar benchmark: one workload per run, single process, closed loop.

    python3 perfbench/run.py --workload wide-dbms --seed 1 --seconds 20 --trace 0

Workloads: wide-dbms, narrow-bcrt, random-antichain, gadgets (see
workloads.py and BENCHMARK.json for why each exists).  A run imports the
program from ``src/`` of the checkout it sits in, sets the workload up three
times (``setup_s`` is the import time plus the median set-up), then solves
every instance once per pass, one at a time, until ``--seconds`` have passed.
Every solve and set-up sits between two runs of a fixed calibration loop, and
its time is reported in reference seconds (see ``calibrate``).
Every χ̃ is checked against its reference and every instance's EngineStats
counters must repeat exactly from pass to pass; a wrong value, an exception,
a counter drift or the per-instance time cap counts as a failed instance and
the run goes on.

With ``--trace 0`` the last line reports the end-to-end metrics (wall_s,
instance_p50_s, instance_tail_s, peak_rss_mb, setup_s).  With ``--trace 1``
the first half of the time runs untraced and the second half traced, with
the layer functions wrapped from outside (tracing.py), and the last line
reports the per-layer metrics.  The last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shlex
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
INSTANCE_CAP_S = 30.0  # an instance still running after this counts as failed
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# The speed of a shared host swings by up to 2x between states that last from
# a tenth of a second to minutes, and pure-Python code slows with it, so raw
# seconds follow the host more than the program.  So every timed step runs
# between two calibrations, and its time t is reported in reference seconds,
# t * CALIBRATION_REF_S / (mean of the two calibrations): the time the step
# would take on a host where the calibration loop takes CALIBRATION_REF_S
# (about that of a 2-vCPU Xeon KVM guest).  The loop uses none of the program,
# so a change to the program moves reference seconds as it moves seconds.
CALIBRATION_REF_S = 0.010
_CAL_RNG = random.Random(0)
_CAL_SETS = [_CAL_RNG.getrandbits(45) for _ in range(1800)]

E2E_UNITS = {
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _calibration_loop():
    """Fixed pure-Python work of the program's kind: walking the bits of
    small sets, dict counting and sorting."""
    counts = {}
    acc = 0
    for s in _CAL_SETS:
        x = s
        while x:
            low = x & -x
            acc += low.bit_length()
            x ^= low
        key = s & 1023
        counts[key] = counts.get(key, 0) + 1
    return acc + len(sorted(_CAL_SETS, key=lambda v: v & 0xFFF))


def calibrate():
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


def reference_seconds(seconds, before, after):
    """``seconds`` measured between calibrations ``before`` and ``after``,
    in reference seconds."""
    return seconds * 2 * CALIBRATION_REF_S / (before + after)


def import_program():
    """Import eulerchar from this checkout's src/ without writing bytecode
    into it; returns the seconds the import took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    t0 = time.perf_counter()
    import eulerchar  # noqa: F401
    import eulerchar.docio  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(eulerchar.__file__).resolve().parent != src / "eulerchar":
        raise ImportError(f"eulerchar imported from {eulerchar.__file__}, not from {src}")
    return elapsed


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"instance exceeded the {INSTANCE_CAP_S:g} s cap")


class Checker:
    """Checks each solve against its reference and its first counters."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counters = {}

    def record(self, inst, outcome):
        self.attempted += 1
        errors = []
        if isinstance(outcome, BaseException):
            errors.append(f"{type(outcome).__name__}: {outcome}")
        else:
            value, stats = outcome
            if value != inst.expected:
                errors.append(f"chi {value}, expected {inst.expected}")
            counters = stats.counters()
            first = self.counters.setdefault(inst.label, counters)
            if counters != first:
                errors.append(f"counters drifted from {first} to {counters}")
        if errors:
            self.failed += 1
            self.errors += [f"{inst.label}: {e}" for e in errors]

    def digest(self):
        text = json.dumps(self.counters, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(instances, checker):
    """Solve every instance once, each between two calibrations.  Returns
    (per-instance times in reference seconds, raw seconds spent solving,
    summed counters of the instances that returned)."""
    times = []
    raw = 0.0
    total = {
        "nodes_expanded": 0,
        "base_case_hits": {},
        "nerve_applications": 0,
        "abundant_eliminations": 0,
        "independence_splits": 0,
    }
    before = calibrate()
    for inst in instances:
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_CAP_S)
        try:
            outcome = inst.solve()
        except Exception as exc:  # any failure of one instance is counted, not fatal
            outcome = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        times.append(reference_seconds(elapsed, before, after))
        raw += elapsed
        before = after
        checker.record(inst, outcome)
        if not isinstance(outcome, BaseException):
            for key, value in outcome[1].counters().items():
                if key == "base_case_hits":
                    for kind, n in value.items():
                        total[key][kind] = total[key].get(kind, 0) + n
                else:
                    total[key] += value
    return times, raw, total


def min_samples(tail_pct):
    """Fewest samples that leave TAIL_BEYOND of them above the nearest-rank
    tail_pct percentile."""
    n = TAIL_BEYOND + 1
    while n - math.ceil(tail_pct * n) < TAIL_BEYOND:
        n += 1
    return n


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_passes(instances, checker, seconds, min_passes, on_pass=None):
    """Run passes until ``seconds`` have passed and at least ``min_passes``
    ran.  Returns (pass walls and per-instance times in reference seconds,
    raw pass walls); ``on_pass(raw wall, counters)`` sees each pass."""
    walls, samples, raws = [], [], []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        times, raw, counters = run_pass(instances, checker)
        walls.append(sum(times))
        samples.extend(times)
        raws.append(raw)
        if on_pass is not None:
            on_pass(raw, counters)
        if time.perf_counter() - t_start >= seconds and len(walls) >= min_passes:
            return walls, samples, raws


def run_workload(name, seed, seconds, trace, import_s=0.0, setup_repeats=SETUP_REPEATS, min_passes=None):
    """Run one workload; returns a dict with the metrics (name -> (value,
    unit)), the check counts and the report lines."""
    import workloads  # imports eulerchar, so only after import_program()

    wl = workloads.WORKLOADS[name]
    checker = Checker()
    lines = []
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if trace:
            metrics = _traced_run(wl, seed, seconds, checker, lines)
        else:
            metrics = _untraced_run(wl, seed, seconds, checker, lines, import_s, setup_repeats, min_passes)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
    failed = checker.failed
    lines.append(f"error_rate {failed / checker.attempted:.6g} ({failed} of {checker.attempted} instances)")
    lines += [f"  error: {e}" for e in checker.errors[:10]]
    lines.append(f"counters_digest {checker.digest()}")
    return {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def _setup(wl, seed, repeats):
    """Set the workload up ``repeats`` times; returns the last instances and
    draws and each set-up's time in reference seconds."""
    times = []
    before = calibrate()
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        instances, drawn = wl.setup(seed)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        times.append(reference_seconds(elapsed, before, after))
        before = after
    return instances, drawn, times


def _untraced_run(wl, seed, seconds, checker, lines, import_s, setup_repeats, min_passes):
    instances, drawn, setups = _setup(wl, seed, setup_repeats)
    lines.append(f"inputs {json.dumps(drawn)}")
    lines.append("instances " + ", ".join(f"{i.label}={i.expected}" for i in instances))
    if min_passes is None:
        min_passes = math.ceil(min_samples(wl.tail_pct) / len(instances))
    walls, samples, raws = timed_passes(instances, checker, seconds, min_passes)
    samples.sort()
    tail, beyond = nearest_rank(samples, wl.tail_pct)
    setup_s = import_s + statistics.median(setups)
    metrics = {
        "wall_s": statistics.median(walls),
        "instance_p50_s": statistics.median(samples),
        "instance_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes, reference seconds",
        "instance_p50_s": f"median of {len(samples)} instance solves",
        "instance_tail_s": f"p{wl.tail_pct * 100:g} of {len(samples)} solves, {beyond} beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"import {import_s:.4f} s + median of {len(setups)} set-ups, reference seconds",
    }
    for key, value in metrics.items():
        lines.append(f"{key} {value:.6g} {E2E_UNITS[key]}  ({notes[key]})")
    lines.append("pass_walls_s " + " ".join(f"{w:.4f}" for w in walls))
    lines.append(f"raw_wall_s {statistics.median(raws):.6g} s  (median of the same passes in seconds)")
    return {key: (value, E2E_UNITS[key]) for key, value in metrics.items()}


def _traced_run(wl, seed, seconds, checker, lines):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        instances, drawn = wl.setup(seed)
    finally:
        tracer.uninstall()
    generate_s = tracer.spans["generators.generate"].incl
    lines.append(f"inputs {json.dumps(drawn)}")

    untraced, _, _ = timed_passes(instances, checker, seconds / 2, 1)
    per_pass = []

    def snapshot(wall, counters):
        per_pass.append(tracing.pass_metrics(tracer.spans, counters, wall))
        tracer.reset()

    tracer.reset()
    tracer.install()
    try:
        traced, _, _ = timed_passes(instances, checker, seconds / 2, 1, snapshot)
    finally:
        tracer.uninstall()
    lines.append(
        f"traced {len(traced)} passes after {len(untraced)} untraced; "
        f"{len(tracing.TARGETS)} wrapped functions restored and checked by identity"
    )
    # median_low keeps a count as the integer one pass produced
    metrics = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["generators.generate_s"] = generate_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out = {}
    for key, unit in tracing.LAYER_UNITS.items():
        out[key] = (metrics[key], unit)
        lines.append(f"{key} {metrics[key]:.6g} {unit}")
    return out


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "command": shlex.join([Path(sys.executable).name, *sys.argv]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    before = calibrate()
    import_s = import_program()
    import_s = reference_seconds(import_s, before, calibrate())
    import workloads

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print("facts " + json.dumps(machine_facts(args)), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, import_s)
    for line in result["lines"]:
        print(line)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
