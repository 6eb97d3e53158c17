import importlib.util
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


def bench_json(tmp_path, *args, instances=("rook:3,3",)):
    out = tmp_path / "bench.json"
    cmd = [sys.executable, str(BENCH), "--instances", *instances, "--repeat", "1"]
    subprocess.run(
        [*cmd, "--json", str(out), *args],
        capture_output=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text())


def test_benchmark_writes_json(tmp_path):
    doc = bench_json(tmp_path)
    assert {"python", "nproc", "git_commit", "dirty", "rows"} <= set(doc)
    assert doc["nproc"] >= 1
    # dirty says whether the checkout differs from git_commit; outside git
    # there is neither
    assert doc["dirty"] in (True, False, None)
    assert (doc["dirty"] is None) == (doc["git_commit"] is None)
    # the line count of the package's modules, net lines removed being a metric
    assert isinstance(doc["src_lines"], int) and doc["src_lines"] > 0
    # of which the lines holding code, which comments and docstrings cannot move
    assert isinstance(doc["src_code_lines"], int)
    assert 0 < doc["src_code_lines"] < doc["src_lines"]
    # every strategy of both algorithms, one row each
    assert len(doc["rows"]) == 11
    for row in doc["rows"]:
        assert row["instance"] == "rook:3,3" and row["chi"] == -4
        assert "nerve" not in row  # the nerve is always on
        assert set(row["counters"]) == COUNTERS
        for key in ("sum_splits", "cache_hits", "cache_evictions", "relabelled_keys",
                    "max_depth", "split_leaves", "peak_rss_kb"):
            assert isinstance(row[key], int), key
        assert row["max_depth"] >= 1
        assert row["median_s"] >= 0
        # the same runs scaled by perfbench's calibration loop
        assert isinstance(row["median_ref_s"], float) and row["median_ref_s"] > 0


def test_benchmark_default_pivots(tmp_path):
    rows = bench_json(tmp_path, "--pivots", "default,raremax")["rows"]
    assert [(r["algorithm"], r["pivot"]) for r in rows] == [("dbms", "raremax"), ("bcrt", "popvar")]


def test_each_row_has_its_own_peak_rss(tmp_path):
    # match-13 dbms peaks about 35 MB above a tiny row; run in one process,
    # the tiny row after it would report the same peak
    rows = bench_json(tmp_path, "--algorithms", "dbms", "--pivots", "default",
                      instances=("match:13", "rook:3,3"))["rows"]
    large, small = (row["peak_rss_kb"] for row in rows)
    assert [row["instance"] for row in rows] == ["match:13", "rook:3,3"]
    assert small < large - 20_000, (large, small)
    # the parent holds match-13's 135,135 facets while it spawns the tiny
    # row; the row reads its own figure, not the parent's high-water mark
    alone = bench_json(tmp_path, "--algorithms", "dbms", "--pivots", "default")["rows"]
    assert abs(alone[0]["peak_rss_kb"] - small) < 2_048, (alone[0]["peak_rss_kb"], small)


def load_bench():
    spec = importlib.util.spec_from_file_location("benchmark_script", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_git_state_is_read_before_the_rows_run(tmp_path, monkeypatch):
    # the checkout is clean when the run starts and edited while a row runs;
    # the document records the state the rows ran from
    bench = load_bench()
    status = [""]

    def fake_git(args):
        return {"status": status[0], "rev-parse": "0" * 40}[args[0]]

    def edited_during_row(cx, cfg, repeat):
        status[0] = " M src/eulerchar/engine.py"
        value, stats = bench.euler(cx, cfg)
        return value, stats, 0.0, 0.0, 0

    monkeypatch.setattr(bench, "git", fake_git)
    monkeypatch.setattr(bench, "run_fresh", edited_during_row)
    out = tmp_path / "bench.json"
    bench.main(["--instances", "rook:3,3", "--algorithms", "dbms", "--pivots", "default",
                "--repeat", "1", "--json", str(out)])
    doc = json.loads(out.read_text())
    assert (doc["git_commit"], doc["dirty"]) == ("0" * 40, False)
    assert [row["chi"] for row in doc["rows"]] == [-4]


def test_code_lines_skip_comments_docstrings_and_blanks():
    bench = load_bench()
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment\n"
        '    """Docstring."""\n'
        "    s = \"\"\"a string\n"
        "    over two lines\"\"\"\n"
        "    return (x +\n"
        "\n"
        "            1)\n"
    )
    # def, the two lines of s and the return's two lines
    assert bench.code_lines(source) == 5
