"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

Every workload runs a single pass after a single set-up, once untraced and
once traced, so the file takes well under a minute.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from eulerchar import engine, reductions  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(name, trace):
    return run.run_workload(name, seed=7, seconds=0, trace=trace, setup_repeats=1, min_passes=1)


def _bindings():
    """Every attribute of every eulerchar module, plus the traced method of
    SquareFreeIdeal, mapped to the object it holds."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "eulerchar" or mod_name.startswith("eulerchar."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
    out[("SquareFreeIdeal", "__post_init__")] = (
        sys.modules["eulerchar.translation"].SquareFreeIdeal.__dict__["__post_init__"]
    )
    return out


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name):
    before = _bindings()
    for trace, units in ((0, run.E2E_UNITS), (1, tracing.LAYER_UNITS)):
        res = _smoke(name, trace)
        assert res["correct"], res["lines"]
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert {k: u for k, (_, u) in res["metrics"].items()} == units
        assert any(line.startswith("error_rate 0 ") for line in res["lines"])
        if trace == 0:
            assert all(v > 0 for v, _ in res["metrics"].values()), res["metrics"]
    for key, value in _bindings().items():
        assert value is before[key], key


def test_wrong_reference_raises_error_rate(monkeypatch):
    n, m, chi = workloads.GOLDEN["match:10"]
    monkeypatch.setitem(workloads.GOLDEN, "match:10", (n, m, chi + 1))
    res = _smoke("narrow-bcrt", 0)
    assert not res["correct"]
    assert (res["attempted"], res["failed"]) == (3, 1)
    assert any(line.startswith("error_rate 0.333333 ") for line in res["lines"])
    assert any(f"expected {chi + 1}" in line for line in res["lines"])


def test_time_cap_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "INSTANCE_CAP_S", 0.01)
    res = _smoke("narrow-bcrt", 0)
    assert (res["attempted"], res["failed"]) == (3, 3)
    assert any("InstanceTimeout" in line for line in res["lines"])


def test_counter_drift_counts_as_failure():
    inst = workloads.Instance("x", None, 0)
    checker = run.Checker()
    checker.record(inst, (0, engine.EngineStats(nodes_expanded=5)))
    checker.record(inst, (0, engine.EngineStats(nodes_expanded=5)))
    assert checker.failed == 0
    checker.record(inst, (0, engine.EngineStats(nodes_expanded=6)))
    assert checker.failed == 1 and "drifted" in checker.errors[0]


def test_tracer_restores_after_an_exception():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.euler is not before[("eulerchar.engine", "euler")]
        with pytest.raises(AttributeError):
            engine.euler(None)
        assert tracer._stack == []
        assert tracer.spans["engine.euler"].calls == 1
    finally:
        tracer.uninstall()
    for key, value in _bindings().items():
        assert value is before[key], key


def test_count_models_matches_the_truth_table_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 8)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 12))
        )
        f = reductions.CnfFormula(n, clauses)
        assert workloads.count_models(n, clauses) == reductions.count_sat_bruteforce(f)


def test_tail_percentile_leaves_ten_samples_beyond():
    for pct in (0.6, 0.8, 0.85, 0.9):
        n = run.min_samples(pct)
        assert run.nearest_rank(list(range(n)), pct)[1] == run.TAIL_BEYOND
        assert run.nearest_rank(list(range(n - 1)), pct)[1] < run.TAIL_BEYOND


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gadgets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_seconds_scale_with_the_calibration():
    ref = run.CALIBRATION_REF_S
    assert run.reference_seconds(0.5, ref, ref) == pytest.approx(0.5)
    # a host running at half speed doubles both the solve and the calibration
    assert run.reference_seconds(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert run.calibrate() > 0
