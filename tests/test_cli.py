import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dynds.cli import (TRACE_SUITES, TraceError, gen_trace, main, parse_trace,
                       run_trace, trace_suite)
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


def test_bench_too_few_sizes_exit2(capsys):
    assert main(["bench", "--structure", "oracle-scan",
                 "--sizes", "100,200,400"]) == 2
    assert "at least 4" in capsys.readouterr().err


def test_bench_unknown_structure_exit2(capsys):
    assert main(["bench", "--structure", "wat"]) == 2
    assert "unknown bench structure" in capsys.readouterr().err
