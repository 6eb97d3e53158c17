import json
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from eulerchar import CnfFormula, Complex, make_complex, minimalize
from eulerchar.cli import run
from eulerchar.docio import (
    MAX_UNIVERSE,
    parse_complex,
    parse_dimacs,
    parse_ideal,
    sniff_kind,
    write_complex,
    write_dimacs,
    write_ideal,
)
from eulerchar.errors import InputError

from conftest import random_complex

TRIANGLE = "vertices 3\n0 1\n0 2\n1 2\n"


# --- document formats --------------------------------------------------------


def test_parse_complex_basic():
    c = parse_complex("# comment\nvertices 3\n0 1\n2\n")
    assert c == make_complex(3, [{0, 1}, {2}])


def test_parse_complex_empty_token_and_void():
    assert parse_complex("vertices 2\nempty\n") == Complex(2, (0,))
    assert parse_complex("vertices 4\n") == make_complex(4, [])


def test_parse_complex_maximalizes_input_faces():
    assert parse_complex("vertices 3\n0\n0 1\n") == make_complex(3, [{0, 1}])


def test_parse_complex_json():
    c = parse_complex('{"vertices": 3, "facets": [[0, 1], [2]]}')
    assert c == make_complex(3, [{0, 1}, {2}])


def test_parse_errors():
    bad_docs = [
        "",
        "facets 3",
        "vertices x",
        "vertices 2\n0 q\n",
        '{"vertices": 1}',
        '{"vertices": 5.7, "facets": [[0, 1]]}',
        '{"vertices": "4", "facets": [[0, 1]]}',
        '{"vertices": true, "facets": [[0]]}',
        '{"vertices": 3, "facets": [[true, false]]}',
    ]
    for bad in bad_docs:
        with pytest.raises(InputError):
            parse_complex(bad)
    for bad in ["vertices 3\n", "vars -1\n0\n"]:
        with pytest.raises(InputError):
            parse_ideal(bad)
    with pytest.raises(InputError):
        parse_dimacs("1 2 0\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.lists(st.integers(0, 2**10 - 1), max_size=8), st.booleans())
def test_complex_writer_parser_round_trip(n, faces, as_json):
    c = make_complex(n, [f & ((1 << n) - 1) for f in faces])
    assert parse_complex(write_complex(c, as_json=as_json)) == c


def test_ideal_writer_parser_round_trip(rng):
    for _ in range(40):
        c = random_complex(rng, 8, 8)
        from eulerchar import complex_to_ideal

        ideal = complex_to_ideal(c)
        assert parse_ideal(write_ideal(ideal)) == ideal
    unit = minimalize([()], 3)
    assert parse_ideal(write_ideal(unit)) == unit


def test_parse_dimacs():
    f = parse_dimacs("c comment\np cnf 3 3\n1 -2 0\n1 3 0\n-2 3 0\n")
    assert f == CnfFormula(3, ((1, -2), (1, 3), (-2, 3)))
    multi = parse_dimacs("p cnf 2 1\n1\n2 0\n")
    assert multi.clauses == ((1, 2),)


def test_dimacs_writer_parser_round_trip(rng):
    for _ in range(40):
        nv = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(0, 6)):
            vs = rng.sample(range(1, nv + 1), rng.randint(1, nv))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        f = CnfFormula(nv, tuple(clauses))
        assert parse_dimacs(write_dimacs(f)) == f


def test_sniff_kind():
    assert sniff_kind(TRIANGLE) == "complex"
    assert sniff_kind("vars 2\n0 1\n") == "ideal"
    assert sniff_kind("p cnf 1 1\n1 0\n") == "cnf"
    assert sniff_kind('{"vertices": 1, "facets": []}') == "complex"


# --- CLI behaviour (in-process) -----------------------------------------------


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_euler_command(tmp_path, capsys):
    path = tmp_path / "tri.cmpx"
    path.write_text(TRIANGLE)
    code, out, _ = _run(capsys, "euler", str(path))
    assert code == 0 and out == "-1\n"


def test_euler_all_algorithms_agree(tmp_path, capsys):
    path = tmp_path / "c.cmpx"
    path.write_text("vertices 5\n0 1 2\n1 3\n2 4\n0 3 4\n")
    values = set()
    for alg in ["bcrt", "dbms", "oracle-subsets", "oracle-ie"]:
        code, out, _ = _run(capsys, "euler", str(path), "--algorithm", alg)
        assert code == 0
        values.add(out)
    assert len(values) == 1


def test_euler_stats_line_is_json(tmp_path, capsys):
    path = tmp_path / "tri.cmpx"
    path.write_text(TRIANGLE)
    code, out, err = _run(capsys, "euler", str(path), "--stats", "--repeat", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-1"
    stats = json.loads(lines[1])
    assert stats["nodes_expanded"] >= 1
    assert stats["sum_splits"] == stats["independence_splits"] == 0
    assert stats["cache_hits"] == stats["cache_evictions"] == stats["relabelled_keys"] == 0
    # a leaf at entry: the root is all the stack ever holds
    assert stats["max_depth"] == 1
    # counters()' five keys, then the EngineStats fields outside them
    assert set(stats) == {
        "nodes_expanded", "base_case_hits", "nerve_applications", "abundant_eliminations",
        "independence_splits", "sum_splits", "cache_hits", "cache_evictions",
        "relabelled_keys", "max_depth", "algorithm", "pivot",
    }
    assert "elapsed" not in stats  # deterministic stdout; timing goes to stderr
    assert "elapsed median" in err


def test_euler_accepts_ideal_documents(tmp_path, capsys):
    # <x0x1, x0x2, x1x2> translates to three isolated points: χ̃ = 2
    path = tmp_path / "ideal.txt"
    path.write_text("vars 3\n0 1\n0 2\n1 2\n")
    code, out, _ = _run(capsys, "euler", str(path))
    assert code == 0 and out == "2\n"


def test_gen_command(tmp_path, capsys):
    out_file = tmp_path / "rook.cmpx"
    code, _, _ = _run(capsys, "gen", "rook:2,2", "-o", str(out_file))
    assert code == 0
    assert parse_complex(out_file.read_text()) == make_complex(4, [{0, 3}, {1, 2}])


def test_gen_reaches_a_spec_whose_first_draw_saturates(capsys):
    # random:4,6 is the six 2-sets of 4 vertices (seed 0 gets there on its
    # eighth draw)
    code, out, _ = _run(capsys, "gen", "random:4,6")
    assert code == 0
    assert parse_complex(out) == make_complex(4, combinations(range(4), 2))


def test_gen_json_output(tmp_path, capsys):
    out_file = tmp_path / "rook.json"
    code, _, _ = _run(capsys, "gen", "rook:2,2", "-o", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["vertices"] == 4


def test_reduce_command(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 -2 0\n1 3 0\n-2 3 0\n")
    code, out, err = _run(capsys, "reduce", str(cnf), "--verify")
    assert code == 0
    assert out.startswith("# sign -1\nvertices 12\n")
    assert "verified: #sat = 4" in err


def test_construct_euler_command(capsys):
    code, out, _ = _run(capsys, "construct-euler", "0")
    assert code == 0 and out == "vertices 0\n"
    code, out, _ = _run(capsys, "construct-euler", "-7")
    assert code == 0
    from eulerchar import euler

    assert euler(parse_complex(out))[0] == -7


def test_transform_commands(tmp_path, capsys):
    tri = tmp_path / "tri.cmpx"
    tri.write_text(TRIANGLE)
    code, out, _ = _run(capsys, "nerve", str(tri))
    assert code == 0 and parse_complex(out) == parse_complex(TRIANGLE)
    code, out, _ = _run(capsys, "translate", str(tri))
    assert code == 0
    ideal_doc = out
    assert parse_ideal(ideal_doc).num_generators == 3
    ideal_path = tmp_path / "tri.ideal"
    ideal_path.write_text(ideal_doc)
    code, out, _ = _run(capsys, "transpose", str(ideal_path))
    assert code == 0 and parse_ideal(out).num_vars == 3
    code, out, _ = _run(capsys, "translate", str(ideal_path))
    assert code == 0 and parse_complex(out) == parse_complex(TRIANGLE)


def test_fvector_command(tmp_path, capsys):
    tri = tmp_path / "tri.cmpx"
    tri.write_text(TRIANGLE)
    code, out, _ = _run(capsys, "fvector", str(tri))
    assert code == 0
    assert out == "1 3 3 0\ntotal 7\n"


def test_exit_codes(tmp_path, capsys):
    assert _run(capsys, "euler", str(tmp_path / "missing.cmpx"))[0] == 1
    bad = tmp_path / "bad.cmpx"
    bad.write_text("vertices 2\n5\n")
    assert _run(capsys, "euler", str(bad))[0] == 1
    big = tmp_path / "big.cmpx"
    big.write_text("vertices 30\n" + "\n".join(str(i) for i in range(30)) + "\n")
    assert _run(capsys, "euler", str(big), "--algorithm", "oracle-subsets")[0] == 2
    assert _run(capsys, "euler", str(bad.parent / "bad.cmpx"), "--pivot", "nope")[0] == 1
    good = tmp_path / "good.cmpx"
    good.write_text(TRIANGLE)
    assert _run(capsys, "euler", str(good), "--repeat", "0")[0] == 1
    assert _run(capsys, "euler", str(good), "--algorithm", "oracle-ie", "--pivot", "nope")[0] == 1
    binary = tmp_path / "binary.cmpx"
    binary.write_bytes(b"vertices 2\n\xff\xfe\n")
    assert _run(capsys, "euler", str(binary))[0] == 1


def test_universe_cap_is_a_capacity_error(tmp_path, capsys):
    # a header just above the cap is refused before anything n-sized is built
    over = MAX_UNIVERSE + 1
    docs = {
        "big.ideal": f"vars {over}\n0 1\n",
        "big.cmpx": f"vertices {over}\n0 1\n",
        "big.json": json.dumps({"vertices": over, "facets": [[0, 1]]}),
    }
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(doc)
        assert _run(capsys, "euler", str(path))[0] == 2, name
    path = tmp_path / "big.cnf"
    path.write_text(f"p cnf {over} 1\n1 0\n")
    assert _run(capsys, "reduce", str(path))[0] == 2
    assert parse_ideal(f"vars {MAX_UNIVERSE}\n0 1\n").num_vars == MAX_UNIVERSE
    # at the cap itself the header is read, and the coverage check refuses
    # the unused variables without building anything num_vars-sized
    path.write_text(f"p cnf {MAX_UNIVERSE} 1\n1 0\n")
    assert _run(capsys, "reduce", str(path))[0] == 1


def test_oversized_outputs_exit_2(tmp_path, capsys):
    # refused up front with an error line; each used to die with a
    # RecursionError traceback or run for minutes
    facet = tmp_path / "facet.cmpx"
    facet.write_text("vertices 1500\n" + " ".join(map(str, range(1500))) + "\n")
    code, _, err = _run(capsys, "fvector", str(facet))
    assert code == 2 and err.startswith("error: "), err
    for spec in (
        "match:3000",
        "nicgraph:40,2",
        "random:1,100000",
        "random:40,200000",
        "random:16777217,1",
    ):
        code, _, err = _run(capsys, "gen", spec)
        assert code == 2 and err.startswith("error: "), (spec, err)


def wide_sparse_document():
    # one facet reaches the top of a 2^24-vertex universe and 512 short ones
    # of mixed sizes stay low, so parsing takes maximal_sets' transposed path
    rows = [f"{i} {i + 1000}" if i % 2 else f"{i} {i + 1000} {i + 2000}" for i in range(512)]
    return "\n".join([f"vertices {MAX_UNIVERSE}", f"0 {MAX_UNIVERSE - 1}", *rows]) + "\n"


def test_wide_sparse_document_stays_small(tmp_path):
    # a transpose costing one character per set and universe bit would need
    # about 8.6 GB here.  The child caps its own address space at 1 GiB, so
    # such a regression fails with MemoryError instead of exhausting the host.
    path = tmp_path / "wide.cmpx"
    path.write_text(wide_sparse_document())
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from eulerchar import nerve\n"
        "from eulerchar.docio import parse_complex\n"
        "t = time.perf_counter()\n"
        "cx = parse_complex(open(sys.argv[1]).read())\n"
        "nv = nerve(cx)\n"
        "print(len(cx.facets), len(nv.facets), time.perf_counter() - t,\n"
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    facets, nerve_facets, seconds, rss_kb = done.stdout.split()
    assert (int(facets), int(nerve_facets)) == (513, 512)
    assert float(seconds) < 10 and int(rss_kb) < 200_000, done.stdout


def test_wide_sparse_root_is_narrowed_before_simplify(monkeypatch):
    # every node's facets are re-packed onto their live vertices on entry,
    # the root onto its 1,281, so no simplify does mask arithmetic on 2 MB
    # ints; the public simplify() re-packs its input the same way
    from eulerchar import EngineConfig, engine, euler, simplify

    cx = parse_complex(wide_sparse_document())
    widths = []
    simplify_masked = engine._simplify_masked

    def recording(facets):
        widths.append(max((f.bit_length() for f in facets), default=0))
        return simplify_masked(facets)

    monkeypatch.setattr(engine, "_simplify_masked", recording)
    for alg in ("dbms", "bcrt"):
        # the root's 513 facets fall into 512 vertex-disjoint parts (the wide
        # facet meets the first short one), each a simplex: one sum split
        value, stats = euler(cx, EngineConfig(algorithm=alg))
        assert (value, stats.nodes_expanded, stats.sum_splits) == (511, 513, 1), alg
    out, sign = simplify(cx)
    assert sign * euler(out)[0] == 511
    assert max(widths) < 4096


# --- subprocess round trip (real pipes) ----------------------------------------


def test_pipe_gen_to_euler():
    gen = subprocess.run(
        [sys.executable, "-m", "eulerchar", "gen", "match:6"],
        capture_output=True,
        text=True,
        check=True,
    )
    ev = subprocess.run(
        [sys.executable, "-m", "eulerchar", "euler", "-", "--algorithm", "bcrt", "--pivot", "popvar"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    from eulerchar import euler_by_subsets, gen_matching

    assert int(ev.stdout.strip()) == euler_by_subsets(gen_matching(6))


# --- scripts outside the package -----------------------------------------------


def _load_script(directory, name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_rejects_bad_arguments(capsys):
    # each used to end in a traceback or print only the header row
    bench = _load_script("bench", "benchmark")
    for argv in (
        ["--repeat", "0"],
        ["--pivots", "nope"],
        ["--algorithms", "bcrt", "--pivots", "raremax"],
        ["--algorithms", "oracle"],
        ["--instances", "torus:3"],
        ["--instances", "match:3000"],
    ):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--instances", "match:4", *argv])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, argv
    assert bench.main(["--instances", "match:4", "--pivots", "raremax", "--repeat", "1"]) == 0
    lines = capsys.readouterr()[0].splitlines()
    assert len(lines) == 2 and "dbms/raremax" in lines[1]


def test_perfbench_traced_names_resolve():
    # perfbench's tracer wraps these package functions by name, so renaming
    # one fails here and not only when the benchmark runs
    import importlib

    for module, attr, _ in _load_script("perfbench", "tracing").TARGETS:
        owner = importlib.import_module(f"eulerchar.{module}")
        for part in attr.split("."):
            owner = vars(owner)[part]
        assert callable(owner), (module, attr)
