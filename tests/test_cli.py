import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynds.cli import (TRACE_SUITES, BenchReport, TraceError, gen_trace, main,
                       parse_trace, run_trace, trace_suite)
from dynds.range_mode import DynRangeModeDS
from dynds.reductions import (KPartiteGraph, OuMvInstance, format_graph,
                              format_oumv)

PROBLEMS = sorted({p for p, _ in TRACE_SUITES})


# ---------------- trace files ----------------

@pytest.mark.parametrize("problem", PROBLEMS)
def test_serialize_parse_identity(problem):
    rng = random.Random(18)
    trace = gen_trace(problem, rng, size=25)
    text = trace.serialize()
    again = parse_trace(text)
    assert again.serialize() == text
    assert again.problem == trace.problem
    assert again.ops == trace.ops


@given(seed=st.integers(0, 10 ** 6), pi=st.integers(0, len(PROBLEMS) - 1))
@settings(max_examples=30, deadline=None)
def test_generated_traces_replay_clean(seed, pi):
    # every generated trace must parse and run through the scan oracle
    problem = PROBLEMS[pi]
    trace = gen_trace(problem, random.Random(seed), size=12)
    again = parse_trace(trace.serialize())
    run_trace(again, "oracle")


BAD_TRACES = [
    ("", 1, "empty trace"),
    ("junk\n", 1, "expected 'problem"),
    ("problem what\n", 1, "unknown problem"),
    ("problem sequence-mode\n", 2, "expected 'header"),
    ("problem sequence-mode\nheader m=3\n", 2, "header keys"),
    ("problem sequence-mode\nheader cap=x\n", 2, "must be integer"),
    ("problem sequence-mode\nheader cap=4\nNOP 1\n", 3, "unknown op"),
    ("problem sequence-mode\nheader cap=4\nSINS 1\n", 3, "takes 2 arguments"),
    ("problem sequence-mode\nheader cap=4\nSINS 1 z\n", 3, "bad SINS argument"),
    ("# lead\n\nproblem sequence-mode\nheader cap=4\nSDEL 1 2\n", 5,
     "takes 1 argument"),
]


@pytest.mark.parametrize("text,line,frag", BAD_TRACES)
def test_parse_rejects_with_line_number(text, line, frag):
    with pytest.raises(TraceError) as ei:
        parse_trace(text)
    assert ei.value.line == line
    assert frag in str(ei.value)


def test_comments_and_blanks_ignored():
    text = ("# header comment\n\nproblem sequence-mode\n"
            "header cap=4   # inline\nSINS 1 7\nSQRY 1 1\n")
    trace = parse_trace(text)
    assert trace.ops == [("SINS", "1", "7"), ("SQRY", "1", "1")]


# ---------------- solve ----------------

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_oracle_real_agree_file(tmp_path, capsys):
    f = _write(tmp_path, "t.trace",
               "problem sequence-mode\nheader cap=8\n"
               "SINS 1 5\nSINS 2 4\nSINS 3 5\nSQRY 1 3\nSDEL 2\nSQRY 1 2\n")
    assert main(["solve", f, "--structure", "oracle"]) == 0
    a = capsys.readouterr().out
    assert main(["solve", f, "--structure", "real"]) == 0
    b = capsys.readouterr().out
    assert a == b == "(5,2)\n(5,2)\n"


@pytest.mark.parametrize("problem,structure", TRACE_SUITES)
def test_solve_structures_match_oracle(problem, structure, tmp_path, capsys):
    rng = random.Random(41)
    f = _write(tmp_path, "g.trace",
               gen_trace(problem, rng, size=30).serialize())
    assert main(["solve", f, "--structure", "oracle"]) == 0
    a = capsys.readouterr().out
    assert main(["solve", f, "--structure", structure]) == 0
    assert capsys.readouterr().out == a


def test_solve_parse_error_exit2(tmp_path, capsys):
    f = _write(tmp_path, "bad.trace",
               "problem sequence-mode\nheader cap=4\nSINS one 2\n")
    assert main(["solve", f]) == 2
    assert "line 3" in capsys.readouterr().err


def test_solve_op_error_exit3(tmp_path, capsys):
    f = _write(tmp_path, "sem.trace",
               "problem sequence-mode\nheader cap=4\nSINS 1 9\nSQRY 1 5\n")
    assert main(["solve", f]) == 3
    assert "op 2" in capsys.readouterr().err


def test_solve_capacity_error_names_op(tmp_path, capsys):
    f = _write(tmp_path, "cap.trace",
               "problem sequence-mode\nheader cap=1\nSINS 1 3\nSINS 2 4\n")
    assert main(["solve", f]) == 3
    assert "op 2" in capsys.readouterr().err


def test_solve_contract_error_exit3(tmp_path, capsys, monkeypatch):
    # a structure's contract check (here: a non-empty range with no mode)
    # raises RuntimeError; solve reports it with the op index, no traceback
    monkeypatch.setattr(DynRangeModeDS, "query", lambda self, box: None)
    f = _write(tmp_path, "contract.trace",
               "problem sequence-mode\nheader cap=4\nSINS 1 9\nSQRY 1 1\n")
    assert main(["solve", f]) == 3
    err = capsys.readouterr().err
    assert "op 2" in err and "no mode" in err
    assert "Traceback" not in err


def test_solve_missing_file_exit2(capsys):
    assert main(["solve", "/nonexistent/x.trace"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_out_flag(tmp_path, capsys):
    f = _write(tmp_path, "t.trace",
               "problem langerman\nheader ext=4\nUPD 1 2\nUPD 2 -2\n"
               "ZQRY\nPQRY 3\n")
    out = tmp_path / "answers.txt"
    assert main(["solve", f, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == "true\n0\n"


def test_solve_no_queries_no_output(tmp_path, capsys):
    f = _write(tmp_path, "q.trace",
               "problem sequence-mode\nheader cap=4\nSINS 1 2\n")
    assert main(["solve", f]) == 0
    assert capsys.readouterr().out == ""


# ---------------- reduce ----------------

def _planted_graph():
    rng = random.Random(5)
    edges = set()
    for pi in range(1, 5):
        for pj in range(pi + 1, 5):
            edges.add(((pi, 2), (pj, 2)))
            if rng.random() < 0.4:
                edges.add(((pi, 1), (pj, 3)))
    return KPartiteGraph((3, 3, 3, 3), edges)


def test_reduce_planted_clique_true(tmp_path, capsys):
    f = _write(tmp_path, "g.txt", format_graph(_planted_graph()))
    assert main(["reduce", f, "--reduction", "red_4clique_range_mode",
                 "--adapter", "real"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "true"
    assert out[-1].startswith("# calls")


def test_reduce_path_graph_false(tmp_path, capsys):
    g = KPartiteGraph((2, 2, 2, 2), [((1, 1), (2, 1)), ((2, 1), (3, 1)),
                                     ((3, 1), (4, 1))])
    f = _write(tmp_path, "g.txt", format_graph(g))
    assert main(["reduce", f, "--reduction", "red_4clique_subconn"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "false"


def test_reduce_empty_matrix_all_false(tmp_path, capsys):
    inst = OuMvInstance(2, 3, frozenset(), (
        (frozenset({1, 2}), frozenset({3})),
        (frozenset({1}), frozenset({2})),
    ))
    f = _write(tmp_path, "mv.txt", format_oumv(inst))
    assert main(["reduce", f, "--reduction", "red_oumvk_halfspace_k2",
                 "--adapter", "real"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["false", "false"]


def test_reduce_adapters_agree_on_answers(tmp_path, capsys):
    f = _write(tmp_path, "g.txt", format_graph(_planted_graph()))
    answers = {}
    for adapter in ("oracle", "real"):
        assert main(["reduce", f, "--reduction", "red_4clique_range_mode",
                     "--adapter", adapter]) == 0
        out = capsys.readouterr().out.splitlines()
        answers[adapter] = [l for l in out if not l.startswith("#")]
    assert answers["oracle"] == answers["real"]


def test_reduce_arity_mismatch_exit2(tmp_path, capsys):
    inst = OuMvInstance(3, 2, frozenset({(1, 1, 1)}),
                        ((frozenset({1}),) * 3,))
    f = _write(tmp_path, "mv3.txt", format_oumv(inst))
    assert main(["reduce", f, "--reduction", "red_oumvk_skyline_k2"]) == 2
    assert "arity" in capsys.readouterr().err


def test_reduce_unknown_ids_exit2(tmp_path, capsys):
    f = _write(tmp_path, "g.txt", format_graph(_planted_graph()))
    assert main(["reduce", f, "--reduction", "nope"]) == 2
    capsys.readouterr()
    assert main(["reduce", f, "--reduction", "red_4clique_range_mode",
                 "--adapter", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("adapter", ["oracle", "real"])
def test_reduce_driver_value_error_exit2(tmp_path, capsys, adapter):
    # langerman needs n to be a perfect k-th power; n = 3, k = 3 is not
    f = _write(tmp_path, "mv3.txt", "3 3 1 1\n1 2 3\n1\n2\n3\n")
    assert main(["reduce", f, "--reduction", "red_oumvk_langerman_k3",
                 "--adapter", adapter]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "perfect power" in captured.err


def test_reduce_state_not_restored_exit3(tmp_path, capsys, monkeypatch):
    # a target whose fingerprint drifts fails the reduction's state-restore
    # check, a RuntimeError that reduce reports without a traceback
    from dynds.reductions import KleeTargetOracle
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(KleeTargetOracle, "fingerprint",
                        lambda self: next(ticks))
    inst = OuMvInstance(2, 2, frozenset({(1, 2)}),
                        ((frozenset({1}), frozenset({2})),))
    f = _write(tmp_path, "mv.txt", format_oumv(inst))
    assert main(["reduce", f, "--reduction", "red_oumvk_klee_k2",
                 "--adapter", "oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target state not restored after klee phase\n"


def test_reduce_bad_instance_exit2(tmp_path, capsys):
    f = _write(tmp_path, "g.txt", "4 2 2 2\n")
    assert main(["reduce", f, "--reduction", "red_4clique_range_mode"]) == 2
    assert "line 1" in capsys.readouterr().err


# ---------------- crosscheck ----------------

def test_crosscheck_reduction_scope_clean(capsys):
    assert main(["crosscheck", "--scope", "red_oumvk_erickson_k2",
                 "--seed", "3", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "total mismatches=0" in out


def test_crosscheck_structure_scope_clean(capsys):
    assert main(["crosscheck", "--scope", "langerman", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tracecheck problem=langerman" in out


def test_crosscheck_fault_scope_exit1(capsys):
    assert main(["crosscheck", "--scope", "fault", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    m = re.search(r"total mismatches=(\d+)", out)
    assert m and int(m.group(1)) >= 1


def test_crosscheck_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (a, b):
        assert main(["crosscheck", "--scope", "red_4clique_color",
                     "--seed", "12", "--count", "4", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_crosscheck_unknown_scope_exit2(capsys):
    assert main(["crosscheck", "--scope", "bogus"]) == 2
    assert "unknown scope" in capsys.readouterr().err


def test_trace_suite_reports_mismatch_count():
    rep = trace_suite("erickson", "eager", seed=8, cases=4)
    assert rep.cases == 4
    assert rep.mismatches == []
    assert "mismatches=0" in rep.render()


# ---------------- bench ----------------

def test_bench_oracle_scan_linear(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", "--structure", "oracle-scan",
                 "--sizes", "100,200,400,800,1600", "--seed", "2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    m = re.search(r"fit_exponent=([0-9.]+) target=1.0000 tol=0.20 "
                  r"pass=(\w+)", text)
    assert m and m.group(2) == "true"
    assert abs(float(m.group(1)) - 1.0) <= 0.05


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", "--structure", "oracle-scan",
                 "--sizes", "50,100,200,400", "--seed", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,ops,visits,ns,visits_per_op"
    assert len([l for l in lines if re.match(r"\d+,", l)]) == 4


def test_bench_deterministic_but_for_ns(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        assert main(["bench", "--structure", "oracle-scan",
                     "--sizes", "50,100,200,400", "--seed", "7",
                     "--out", str(p)]) == 0
        rows = [l.split(",") for l in p.read_text().splitlines()
                if re.match(r"\d+,", l)]
        outs.append([(r[0], r[1], r[2], r[4]) for r in rows])
    assert outs[0] == outs[1]


def _bench_pinned_columns(tmp_path, structure):
    # visits are the cost model: an engineering speedup leaves every column
    # but ns as it was
    out = tmp_path / "b.csv"
    assert main(["bench", "--structure", structure, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines if re.match(r"\d+,", l)]
    return lines[0], [(r[0], r[1], r[2], r[4]) for r in rows], lines[-1]


def test_bench_sequence_mode_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "sequence-mode") == (
        "# bench structure=sequence-mode seed=0 "
        "sizes=243,729,2187,6561,19683",
        [("243", "120", "5644", "47.033"),
         ("729", "120", "13074", "108.950"),
         ("2187", "120", "26847", "223.725"),
         ("6561", "120", "58452", "487.100"),
         ("19683", "120", "135325", "1127.708")],
        "fit_exponent=0.7147 target=0.6667 tol=0.20 pass=true")


def test_bench_range_mode_dyn_2d_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "range-mode-dyn-2d") == (
        "# bench structure=range-mode-dyn-2d seed=0 "
        "sizes=243,729,2187,6561,19683",
        [("243", "60", "1936", "32.267"),
         ("729", "60", "4194", "69.900"),
         ("2187", "60", "9245", "154.083"),
         ("6561", "60", "19486", "324.767"),
         ("19683", "60", "41686", "694.767")],
        "fit_exponent=0.6986 target=0.8000 tol=0.20 pass=true")


def test_bench_skyline3d_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "skyline3d") == (
        "# bench structure=skyline3d seed=0 sizes=256,512,1024,2048,4096",
        [("256", "144", "1071836", "7443.306"),
         ("512", "198", "2131578", "10765.545"),
         ("1024", "288", "4756148", "16514.403"),
         ("2048", "405", "9483696", "23416.533"),
         ("4096", "576", "18938648", "32879.597")],
        "fit_exponent=0.5407 target=0.5000 tol=0.20 pass=true")


def test_bench_too_few_sizes_exit2(capsys):
    assert main(["bench", "--structure", "oracle-scan",
                 "--sizes", "100,200,400"]) == 2
    assert "at least 4" in capsys.readouterr().err


def test_bench_unknown_structure_exit2(capsys):
    assert main(["bench", "--structure", "wat"]) == 2
    assert "unknown bench structure" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["8,8,8,8", "0,10,20,40"])
def test_bench_degenerate_sizes_exit2(capsys, sizes):
    # a fit needs two distinct positive sizes; no traceback either way
    assert main(["bench", "--structure", "oracle-scan", "--sizes", sizes]) == 2
    err = capsys.readouterr().err
    assert "positive and not all equal" in err and "Traceback" not in err


@pytest.mark.parametrize("exponent", [0.5, 2 / 3])
def test_fit_exponent_exact_power_law(exponent):
    rows = [(n, 1, 1, 1, n ** exponent) for n in (16, 32, 64, 128, 256, 1024)]
    rep = BenchReport("x", 0, rows, exponent, 0.2)
    assert abs(rep.fit_exponent - exponent) <= 1e-12


# ---------------- runtime dependencies ----------------

def test_import_pulls_in_no_third_party_runtime():
    # `import dynds.cli` must stay standard-library only
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, dynds.cli; "
            "print(sorted({'numpy', 'sortedcontainers'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
