import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "benchmark.py"
COUNTERS = {
    "nodes_expanded",
    "base_case_hits",
    "nerve_applications",
    "abundant_eliminations",
    "independence_splits",
}


def bench_json(tmp_path, *args):
    out = tmp_path / "bench.json"
    cmd = [sys.executable, str(BENCH), "--instances", "rook:3,3", "--repeat", "1"]
    subprocess.run(
        [*cmd, "--json", str(out), *args],
        capture_output=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text())


def test_benchmark_writes_json(tmp_path):
    doc = bench_json(tmp_path)
    assert {"python", "nproc", "git_commit", "rows"} <= set(doc)
    assert doc["nproc"] >= 1
    # every strategy of both algorithms, one row each
    assert len(doc["rows"]) == 11
    for row in doc["rows"]:
        assert row["instance"] == "rook:3,3" and row["chi"] == -4
        assert set(row["counters"]) == COUNTERS
        for key in ("cache_hits", "cache_evictions", "ru_maxrss_kb"):
            assert isinstance(row[key], int), key
        assert row["median_s"] >= 0


def test_benchmark_default_pivots(tmp_path):
    rows = bench_json(tmp_path, "--pivots", "default,raremax")["rows"]
    assert [(r["algorithm"], r["pivot"]) for r in rows] == [("dbms", "raremax"), ("bcrt", "popvar")]
