import dataclasses
import hashlib
import math
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynds.cli import (PROBLEMS, TRACE_SUITES, BenchReport, OpError, OpTrace,
                       TraceError, gen_trace, main, parse_trace, run_bench,
                       run_trace, trace_suite)
from dynds.core_geom import VisitCounter
from dynds.range_mode import DynRangeModeDS, SequenceAdapter
from dynds.reductions import (REDUCTIONS, KPartiteGraph, OuMvInstance,
                              format_graph, format_oumv)

PROBLEM_IDS = sorted(PROBLEMS)


# ---------------- trace files ----------------

@pytest.mark.parametrize("problem", PROBLEM_IDS)
def test_serialize_parse_identity(problem):
    rng = random.Random(18)
    trace = gen_trace(problem, rng, size=25)
    text = trace.serialize()
    again = parse_trace(text)
    assert again.serialize() == text
    assert again.problem == trace.problem
    assert again.ops == trace.ops


@given(seed=st.integers(0, 10 ** 6), pi=st.integers(0, len(PROBLEM_IDS) - 1))
@settings(max_examples=30, deadline=None)
def test_generated_traces_replay_clean(seed, pi):
    # every generated trace must parse and run through the scan oracle
    problem = PROBLEM_IDS[pi]
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
    ("problem sequence-mode\nheader cap=1 cap=8\n", 2,
     "header key 'cap' given twice"),
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
    for sid in ["oracle", *PROBLEMS["sequence-mode"].solvers]:
        assert main(["solve", f, "--structure", sid]) == 3
        assert capsys.readouterr().err == \
            "error: op 2: capacity 1 exceeded\n", sid


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


STAGED_ERRORS = [
    ("common-colors", "m=3", "ON 1\nBASE 1 2 1\n", 1,
     "BASE must precede other ops"),
    ("common-colors", "m=3", "BASE 1 2 1\nBASE 1 2 1\n", 2,
     "BASE given twice"),
    ("erickson", "ext=2", "MQRY\nBASE 1 2\n", 2, "BASE must be the first op"),
    ("halfspace", "d=2", "P 0 0\nHINS 1 0 0 ge\nP 1 1\n", 3,
     "point set is fixed before halfspace ops"),
    ("halfspace", "d=2", "QRY\n", 1, "no points"),
    ("range-mode-dyn", "d=1 cap=4", "DEL 1 2\n", 1,
     "delete of absent point [1] label 2"),
    ("color-count", "cap=4", "DEL 1 1 2\n", 1,
     "delete of absent point (1, 1) label 2"),
    ("sequence-mode", "cap=4", "SINS 2 5\n", 1,
     "insert position 2 out of range 1..1"),
    ("sequence-mode", "cap=4", "SINS 1 5\nSDEL 2\n", 2,
     "delete position 2 out of range 1..1"),
    ("hyperclique", "n=3 k=2", "EINS 1 4\n", 1, "edge uses unknown vertices"),
    ("hyperclique", "n=3 k=2", "EINS 2 2\n", 1,
     "edge must have 2 distinct vertices"),
    ("hyperclique", "n=3 k=2", "QRY 4\n", 1, "unknown vertex"),
    ("erickson", "ext=2,2", "INC 3 1\n", 1, "bad axis"),
    ("erickson", "ext=2,2", "BASE 1 2 3 4\nINC 1 5\n", 2, "bad index"),
    ("halfspace", "d=2", "P 0 0\nHDEL 1 0 0 ge\n", 2,
     "delete of absent halfspace"),
    ("langerman", "ext=2,2", "PQRY 3 1\n", 1,
     "index (3, 1) out of range (2, 2)"),
]


@pytest.mark.parametrize("problem,header,ops,index,msg", STAGED_ERRORS)
def test_solve_staged_op_errors_exit3(problem, header, ops, index, msg,
                                      tmp_path, capsys):
    f = _write(tmp_path, "staged.trace",
               f"problem {problem}\nheader {header}\n{ops}")
    for sid in PROBLEMS[problem].solvers:
        assert main(["solve", f, "--structure", sid]) == 3, sid
        assert capsys.readouterr().err == f"error: op {index}: {msg}\n"


HEADER_ERRORS = [
    ("hyperclique", "n=3 k=1", "QRY 1\n", "k must be >= 2"),
    ("range-mode-dyn", "d=0 cap=5", "QRY\n", "dimension must be >= 1"),
    ("sequence-mode", "cap=-1", "SINS 1 5\n", "capacity must be >= 1"),
    ("color-count", "cap=0", "INS 1 1 1\n", "capacity must be >= 1"),
    ("langerman", "ext=0", "ZQRY\n", "extents must be positive"),
    ("erickson", "ext=0", "INC 1 1\n", "extents must be positive"),
    # a header integer past the platform's index size is refused by name
    ("langerman", "ext=99999999999999999999", "ZQRY\n",
     f"header ext must be at most {sys.maxsize}"),
    ("erickson", "ext=99999999999999999999", "INC 1 1\n",
     f"header ext must be at most {sys.maxsize}"),
    ("hyperclique", "n=99999999999999999999 k=2", "QRY 1\n",
     f"header n must be at most {sys.maxsize}"),
    ("sequence-mode", f"cap=-{sys.maxsize + 1}", "SINS 1 5\n",
     f"header cap must be at least -{sys.maxsize}"),
]


@pytest.mark.parametrize("problem,header,ops,msg", HEADER_ERRORS)
def test_solve_rejected_header_exit2(problem, header, ops, msg, tmp_path,
                                     capsys):
    # a header value a solver's constructor rejects is a trace error on
    # the header line, under every structure id alike
    f = _write(tmp_path, "header.trace",
               f"# header check\nproblem {problem}\n\nheader {header}\n{ops}")
    for sid in PROBLEMS[problem].solvers:
        assert main(["solve", f, "--structure", sid]) == 2, sid
        assert capsys.readouterr().err == f"error: line 4: {msg}\n", sid


# hand-written edge traces: (problem, header, ops, the oracle's exit code)
EDGE_TRACES = [
    ("sequence-mode", "cap=4", "SINS 2 5\n", 3),
    ("sequence-mode", "cap=4", "SINS 1 5\nSDEL 2\n", 3),
    ("sequence-mode", "cap=4", "SINS 1 5\nSQRY 1 2\n", 3),
    ("sequence-mode", "cap=1", "SINS 1 3\nSQRY 1 1\nSINS 2 4\n", 3),
    ("sequence-mode", "cap=2", "SINS 1 3\nSINS 1 4\nSDEL 1\nSINS 2 3\n"
     "SQRY 1 2\n", 0),
    ("range-mode-dyn", "d=1 cap=1", "INS 1 1\nINS 2 2\nQRY 1 2\n", 3),
    ("range-mode-dyn", "d=1 cap=1", "INS 1 1\nDEL 1 1\nINS 2 2\nQRY 1 2\n",
     0),
    ("range-mode-dyn", "d=1 cap=4", "INS 1 1\nDEL 1 2\n", 3),
    ("range-mode-dyn", "d=2 cap=4", "INS 0 0 2\nINS 0 0 2\nINS 1 1 1\n"
     "QRY 0 1 0 1\nQRY 2 3 2 3\n", 0),
    ("color-count", "cap=1", "INS 0 0 1\nINS 1 1 2\nQRY 0 1 0 1\n", 3),
    ("color-count", "cap=4", "INS 0 0 1\nINS 0 0 1\nDEL 0 0 1\n"
     "QRY 0 0 0 0\nDEL 1 1 1\n", 3),
    ("common-colors", "m=3", "BASE 1 2 1\nBASE 1 2 1\n", 3),
    ("common-colors", "m=3", "BASE 1 2 1\nON 3\n", 3),
    ("common-colors", "m=3", "BASE 1 2 1\nON 1\nQRY 1 1 3 3\n"
     "QRY 2 1 1 1\n", 3),
    ("langerman", "ext=4", "UPD 1 -1\nZQRY\nUPD 5 1\n", 3),
    ("langerman", "ext=2,2", "UPD 2 2 3\nPQRY 2 2\nPQRY 3 1\n", 3),
    ("erickson", "ext=2", "INC 2 1\n", 3),
    ("erickson", "ext=2,2", "BASE 1 0 0 2\nINC 1 2\nVQRY 2 2\nMQRY\n"
     "VQRY 3 1\n", 3),
    ("hyperclique", "n=3 k=2", "EINS 1 2\nEINS 2 1\n", 3),
    ("hyperclique", "n=3 k=2", "EINS 1 1\n", 3),
    ("hyperclique", "n=3 k=2", "EINS 1 2\nEINS 1 3\nEINS 2 3\nQRY 1\n"
     "EDEL 1 3\nEDEL 1 3\n", 3),
    ("skyline3d", "cap=8", "INS 1 1 1 3\nINS 2 2 2 3\n", 3),
    ("skyline3d", "cap=8", "INS 1 1 1 1\n", 3),
    ("skyline3d", "cap=8", "QRY\nDEL\n", 3),
    ("skyline3d", "cap=8", "INS 1 1 1 3\nQRY\nDEL\nQRY\n", 0),
    ("halfspace", "d=2", "P 0 0\nHDEL 1 0 0 ge\n", 3),
    ("halfspace", "d=2", "P 0 0\nP 1 1\nHINS 1 1 1 ge\nHINS 1 1 1 ge\n"
     "QRY\nHDEL 1 1 1 ge\nQRY\n", 0),
]


@pytest.mark.parametrize("problem,header,ops,code", EDGE_TRACES)
def test_solve_edge_traces_agree(problem, header, ops, code, tmp_path,
                                 capsys):
    # every structure id gives the oracle's exit code and output lines
    f = _write(tmp_path, "edge.trace",
               f"problem {problem}\nheader {header}\n{ops}")
    assert main(["solve", f, "--structure", "oracle"]) == code
    want = capsys.readouterr().out
    for sid in PROBLEMS[problem].solvers:
        assert (main(["solve", f, "--structure", sid]),
                capsys.readouterr().out) == (code, want), sid


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


@pytest.mark.parametrize("rid,aid,header", [
    ("red_clique_batch_dmode_d1", "real", "3 2 2 99999999999999999999"),
    ("red_4clique_range_minority", "oracle", "4 2 2 2 99999999999999999999"),
])
def test_reduce_overflowing_part_exit2(tmp_path, capsys, rid, aid, header):
    # a part size past the platform's index size overflows in the driver
    f = _write(tmp_path, "g.txt", header + "\n")
    assert main(["reduce", f, "--reduction", rid, "--adapter", aid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _out_of_memory(*args):
    raise MemoryError


def test_solve_out_of_memory_exit3(tmp_path, capsys, monkeypatch):
    # a structure the machine cannot hold is reported, not a traceback
    monkeypatch.setitem(PROBLEMS["langerman"].solvers, "real", _out_of_memory)
    f = _write(tmp_path, "z.trace", "problem langerman\nheader ext=4\nZQRY\n")
    assert main(["solve", f, "--structure", "real"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: allocation failed\n"
    assert "Traceback" not in captured.err


def test_reduce_out_of_memory_exit3(tmp_path, capsys, monkeypatch):
    def too_large(inst):
        raise MemoryError("part too large")
    monkeypatch.setitem(REDUCTIONS["red_oumvk_klee_k2"].adapters, "oracle",
                        too_large)
    inst = OuMvInstance(2, 2, frozenset({(1, 2)}),
                        ((frozenset({1}), frozenset({2})),))
    f = _write(tmp_path, "mv.txt", format_oumv(inst))
    assert main(["reduce", f, "--reduction", "red_oumvk_klee_k2",
                 "--adapter", "oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: part too large\n"
    assert "Traceback" not in captured.err


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


def test_reduce_closed_form_check_exit3_under_optimize(tmp_path):
    # the drivers' closed-form checks are contract checks: under python -O
    # too, a target answer above the Erickson phase ceiling stops reduce
    # with exit 3 and no traceback
    inst = OuMvInstance(2, 2, frozenset({(1, 2)}),
                        ((frozenset({1}), frozenset({2})),))
    f = _write(tmp_path, "mv.txt", format_oumv(inst))
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from dynds.cli import main\n"
            "from dynds.tensor_ds import EricksonLazy\n"
            "EricksonLazy.max_value = lambda self: 10 ** 6\n"
            f"sys.exit(main(['reduce', {f!r}, '--reduction',\n"
            "                'red_oumvk_erickson_k2', '--adapter', 'lazy']))\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: max above the phase ceiling\n"


def test_reduce_call_budget_exit3(tmp_path, capsys, monkeypatch):
    # a target that sees one query more than the driver's budget allows
    # fails the budget check, a RuntimeError that reduce reports without a
    # traceback
    cfg = REDUCTIONS["red_4clique_range_mode"]

    class ExtraQuery:
        def __init__(self, target):
            self._target = target
            self._extra = True

        def __getattr__(self, name):
            return getattr(self._target, name)

        def query(self, *args):
            if self._extra:
                self._extra = False
                self._target.query(*args)
            return self._target.query(*args)

    monkeypatch.setitem(REDUCTIONS, cfg.rid, dataclasses.replace(
        cfg, run=lambda g, target: cfg.run(g, ExtraQuery(target))))
    f = _write(tmp_path, "g.txt", format_graph(_planted_graph()))
    assert main(["reduce", f, "--reduction", cfg.rid,
                 "--adapter", "oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: call budget broken: mode queries\n"


# `# calls` line of `dynds reduce` on one seeded instance per reduction and
# adapter, at the reduction's largest crosscheck size
_CALLS_PINS = {
    ("red_4clique_range_mode", "oracle"):
        "build=1 delete_middle=5 insert_middle=5 query=45",
    ("red_4clique_range_mode", "real"):
        "build=1 delete_middle=5 insert_middle=5 query=45",
    ("red_4clique_range_minority", "oracle"):
        "build=1 delete_middle=5 insert_middle=5 query=125",
    ("red_clique_batch_dmode_d1", "oracle"): "build=1 query=25",
    ("red_clique_batch_dmode_d1", "real"): "build=1 query=25",
    ("red_clique_batch_dmode_d2", "oracle"): "build=1 query=9",
    ("red_clique_batch_dmode_d2", "real"): "build=1 query=9",
    ("red_clique_dyn_dmode_d1", "oracle"):
        "build=1 delete=16 insert=16 query=125",
    ("red_clique_dyn_dmode_d1", "real"):
        "build=1 delete=16 insert=16 query=125",
    ("red_4clique_subconn", "oracle"): "build=1 query=1 set_active=15",
    ("red_4clique_2pattern", "docs"): "build=1 query=125 set_on=26",
    ("red_4clique_2pattern", "cc"): "build=1 query=125 set_on=26",
    ("red_4clique_color", "oracle"): "build=1 count=400 delete=16 insert=16",
    ("red_4clique_color", "dcc"): "build=1 count=400 delete=16 insert=16",
    ("red_4clique_streach", "oracle"):
        "build=1 delete_edge=18 insert_edge=21 query=5",
    ("red_oumvk_skyline_k2", "oracle"):
        "count=18 delete=27 insert=27 preprocess=1",
    ("red_oumvk_skyline_k2", "engine"):
        "count=18 delete=27 insert=27 preprocess=1",
    ("red_oumvk_skyline_k3", "oracle"):
        "count=18 delete=31 insert=31 preprocess=1",
    ("red_oumvk_klee_k2", "oracle"): "build=1 delete=17 insert=17 volume=15",
    ("red_oumvk_halfspace_k2", "real"):
        "build=1 delete=24 insert=24 min_count=3",
    ("red_oumvk_halfspace_k2", "oracle"):
        "build=1 delete=24 insert=24 min_count=3",
    ("red_oumvk_halfspace_k3", "real"):
        "build=1 delete=54 insert=54 min_count=3",
    ("red_oumvk_halfspace_k3", "oracle"):
        "build=1 delete=54 insert=54 min_count=3",
    ("red_oumvk_hyperclique_k2", "lazy"): "build=1 delete=15 insert=15 query=3",
    ("red_oumvk_hyperclique_k2", "counting"):
        "build=1 delete=15 insert=15 query=3",
    ("red_oumvk_hyperclique_k3", "lazy"): "build=1 delete=23 insert=23 query=3",
    ("red_oumvk_hyperclique_k3", "counting"):
        "build=1 delete=23 insert=23 query=3",
    ("red_oumvk_erickson_k2", "lazy"): "build=1 increment=30 max_value=3",
    ("red_oumvk_erickson_k2", "eager"): "build=1 increment=30 max_value=3",
    ("red_oumvk_erickson_k3", "lazy"): "build=1 increment=36 max_value=3",
    ("red_oumvk_erickson_k3", "eager"): "build=1 increment=36 max_value=3",
    ("red_oumvk_langerman_k2", "real"): "build=1 exists_zero=5 update=38",
    ("red_oumvk_langerman_k2", "oracle"): "build=1 exists_zero=5 update=38",
    ("red_oumvk_langerman_k3", "real"): "build=1 exists_zero=8 update=60",
    ("red_oumvk_langerman_k3", "oracle"): "build=1 exists_zero=8 update=60",
}


def test_reduce_calls_lines_pinned(tmp_path, capsys):
    got = {}
    for rid, cfg in REDUCTIONS.items():
        inst = cfg.gen(random.Random(f"pin.{rid}"), cfg.sizes[-1])
        text = format_graph(inst) if cfg.kind == "clique" \
            else format_oumv(inst)
        f = _write(tmp_path, "inst.txt", text)
        for aid in cfg.adapters:
            assert main(["reduce", f, "--reduction", rid,
                         "--adapter", aid]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            got[(rid, aid)] = last[len("# calls "):]
    assert got == _CALLS_PINS


def test_reduce_calls_omit_uncalled_methods(tmp_path, capsys):
    # no part-4 edges: the st-reachability driver flips no edge and probes
    # nothing, and the edge its target inserts while building is not a
    # driver call
    g = KPartiteGraph((2, 2, 2, 2), [((1, 1), (2, 1))])
    f = _write(tmp_path, "g.txt", format_graph(g))
    assert main(["reduce", f, "--reduction", "red_4clique_streach"]) == 0
    assert capsys.readouterr().out == "false\n# calls build=1\n"


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


@pytest.mark.parametrize("count", [0, -2])
def test_crosscheck_count_below_one_exit2(count, capsys):
    assert main(["crosscheck", "--scope", "langerman",
                 "--count", str(count)]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"error: count must be >= 1, got {count}\n"


def test_crosscheck_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (a, b):
        assert main(["crosscheck", "--scope", "red_4clique_color",
                     "--seed", "12", "--count", "4", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("scope,code,digest", [
    ("default", 0,
     "908e87fc236da9ed23982e6165a4e3fff35bf3ca8fe224a06a20aaf8d2eb4de6"),
    ("fault", 1,
     "76342d8a5903e1153a755cefd5cc044b1b0920bdbbbf767d18d01a5dbcc662ee"),
])
def test_crosscheck_report_bytes_pinned(scope, code, digest, tmp_path,
                                        monkeypatch):
    # the seed-3 reports are part of the CLI contract, and the default
    # scope's counted visits, summed over every VisitCounter the run makes,
    # are part of the cost model
    visits = {"default": 757718}.get(scope)
    made = []
    init = VisitCounter.__init__

    def recording_init(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(VisitCounter, "__init__", recording_init)
    out = tmp_path / "report.txt"
    assert main(["crosscheck", "--scope", scope, "--seed", "3",
                 "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if visits is not None:
        assert sum(c.count for c in made) == visits


def test_python_m_dynds_runs_the_cli():
    # an uninstalled checkout runs the CLI as `python -m dynds`
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "dynds", "crosscheck", "--scope", "langerman"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines()[-1] == "total mismatches=0"


def test_crosscheck_with_debug_checks_under_python_O(tmp_path):
    # every structure's invariant checks on, asserts stripped: the checks
    # raise on their own, and the seed-3 report keeps its pinned bytes
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "report.txt"
    run = subprocess.run(
        [sys.executable, "-O", "-m", "dynds", "crosscheck", "--seed", "3",
         "--out", str(out)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "DYNDS_DEBUG_ASSERT": "1"})
    assert (run.returncode, run.stderr) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "908e87fc236da9ed23982e6165a4e3fff35bf3ca8fe224a06a20aaf8d2eb4de6")


def test_crosscheck_unknown_scope_exit2(capsys):
    assert main(["crosscheck", "--scope", "bogus"]) == 2
    assert "unknown scope" in capsys.readouterr().err


def test_trace_suite_reports_mismatch_count():
    rep = trace_suite("erickson", "eager", seed=8, cases=4)
    assert rep.cases == 4
    assert rep.mismatches == []
    assert "mismatches=0" in rep.render()


def test_crosscheck_reports_a_failing_structure_op(monkeypatch, tmp_path):
    # the third query of the real sequence structure raises: its case is a
    # mismatch whose got is the op's error text, and `dynds crosscheck`
    # exits 1 with a report in place of a traceback
    calls = []
    query = SequenceAdapter.query

    def failing(self, l, r):
        calls.append((l, r))
        if len(calls) == 3:
            raise RuntimeError(f"no mode found in the non-empty range "
                               f"[{l}, {r}]")
        return query(self, l, r)

    monkeypatch.setattr(SequenceAdapter, "query", failing)
    rep = trace_suite("sequence-mode", "real", seed=3, cases=5)
    assert rep.cases == 5 and len(rep.mismatches) == 1
    _, _, want, got = rep.mismatches[0]
    assert re.fullmatch(r"op \d+: no mode found in the non-empty range "
                        r"\[\d+, \d+\]", got) and want != got
    calls.clear()
    out = tmp_path / "report.txt"
    assert main(["crosscheck", "--scope", "sequence-mode", "--seed", "3",
                 "--out", str(out)]) == 1
    text = out.read_text()
    assert text.startswith("tracecheck problem=sequence-mode structure=real "
                           "cases=20 mismatches=1\n")
    assert f"got={got}\n" in text and text.endswith("total mismatches=1\n")


def _trace_behaviour_digest(seeds=range(6), size=24):
    # sha256 over the generated trace text, each structure's output lines
    # and the OpError text of the same trace with one op dropped
    h = hashlib.sha256()
    for problem in dict.fromkeys(p for p, _ in TRACE_SUITES):
        sids = ["oracle"] + [s for p, s in TRACE_SUITES if p == problem]
        for seed in seeds:
            trace = gen_trace(problem, random.Random(f"pin.{problem}.{seed}"),
                              size)
            h.update(trace.serialize().encode())
            n = len(trace.ops)
            variants = [trace] + [
                OpTrace(problem, trace.header, trace.ops[:j] + trace.ops[j + 1:])
                for j in sorted({0, n // 2, n - 1, seed % n})]
            for variant in variants:
                for sid in sids:
                    try:
                        got = "\n".join(run_trace(variant, sid))
                    except OpError as exc:
                        got = f"error: {exc}"
                    h.update(f"{sid}\n{got}\n".encode())
    return h.hexdigest()


def test_trace_behaviour_pinned():
    # generated traces, answers and error text are part of the CLI contract
    assert _trace_behaviour_digest() == (
        "c4676cdb5e146e25297ee94f76c22db9e9e948c5d2ad98ac405743f54cc1ad9d")


# ---------------- regimes the generated traces miss ----------------

def test_sequence_respacing_matches_oracle(monkeypatch):
    # 65 front inserts halve the first key down to an odd one, which
    # re-spaces every key, the 6 dead ones included; crosscheck's traces
    # never get that far
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rebuild, rebuilds = SequenceAdapter._rebuild, []

    def counted(self):
        rebuilds.append(len(self))
        rebuild(self)
    monkeypatch.setattr(SequenceAdapter, "_rebuild", counted)
    rng = random.Random(34)
    ops = [("SINS", str(i), str(rng.randint(1, 5))) for i in range(1, 21)]
    ops += [("SDEL", str(rng.randint(1, 20 - i))) for i in range(6)]
    n = 14
    for _ in range(70):
        ops.append(("SINS", "1", str(rng.randint(1, 5))))
        n += 1
        l = rng.randint(1, n)
        ops.append(("SQRY", str(l), str(rng.randint(l, n))))
    trace = OpTrace("sequence-mode", {"cap": "100"}, ops)
    want = run_trace(trace, "oracle")
    assert len(want) == 70
    assert run_trace(trace, "real") == want
    assert rebuilds


def _skyline_dup_trace(rng: random.Random, size: int) -> OpTrace:
    # _gen_skyline3d's schedule on points from {1,2}^3 that live up to 30
    # ops, so that live points repeat
    t = OpTrace("skyline3d", {})
    deaths, op = set(), 0
    for _ in range(size):
        op += 1
        if op in deaths:
            t.ops.append(("DEL",))
        elif rng.random() < 0.5:
            death = op + rng.randint(1, 30)
            while death in deaths:
                death += 1
            deaths.add(death)
            p = tuple(rng.randint(1, 2) for _ in range(3))
            t.ops.append(("INS",) + tuple(map(str, p)) + (str(death),))
        else:
            t.ops.append(("QRY",))
    while any(d > op for d in deaths):
        op += 1
        t.ops.append(("DEL",) if op in deaths else ("QRY",))
    t.header["cap"] = str(len(t.ops) + 4)
    return t


def test_skyline_repeated_points_match_oracle(monkeypatch):
    # crosscheck's skyline traces never hand maxima3d a repeated point
    import dynds.geom_dyn as geom_dyn
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    maxima3d, repeats = geom_dyn.maxima3d, []

    def counted(mult):
        repeats.append(max(mult.values(), default=0) > 1)
        return maxima3d(mult)
    monkeypatch.setattr(geom_dyn, "maxima3d", counted)
    for case in range(60):
        trace = _skyline_dup_trace(random.Random(f"skyline.dup.{case}"), 60)
        assert run_trace(trace, "engine") == run_trace(trace, "oracle"), case
    assert sum(repeats) >= 20


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
    assert lines[1] == "n,ops,visits,ns,visits_per_op,setup_ns"
    rows = [l.split(",") for l in lines if re.match(r"\d+,", l)]
    assert len(rows) == 4 and {len(r) for r in rows} == {6}


def test_bench_ns_fit_line(tmp_path):
    # the slope of log(ns/ops) against log n, one line above the visit fit
    out = tmp_path / "b.csv"
    assert main(["bench", "--structure", "oracle-scan",
                 "--sizes", "50,100,200,400", "--seed", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [[int(v) for v in l.split(",")[:4]] for l in lines
            if re.match(r"\d+,", l)]
    slope = statistics.linear_regression(
        [math.log(n) for n, _, _, _ in rows],
        [math.log(ns / ops) for _, ops, _, ns in rows]).slope
    assert lines[-2] == f"ns_fit_exponent={slope:.4f}"
    assert lines[-1].startswith("fit_exponent=")


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
        [("243", "120", "1562", "13.017"),
         ("729", "120", "3408", "28.400"),
         ("2187", "120", "7393", "61.608"),
         ("6561", "120", "15236", "126.967"),
         ("19683", "120", "36882", "307.350")],
        "fit_exponent=0.7119 target=0.6667 tol=0.20 pass=true")


def test_bench_range_mode_dyn_2d_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "range-mode-dyn-2d") == (
        "# bench structure=range-mode-dyn-2d seed=0 "
        "sizes=243,729,2187,6561,19683",
        [("243", "60", "1852", "30.867"),
         ("729", "60", "4026", "67.100"),
         ("2187", "60", "9113", "151.883"),
         ("6561", "60", "19294", "321.567"),
         ("19683", "60", "41482", "691.367")],
        "fit_exponent=0.7086 target=0.8000 tol=0.20 pass=true")


def test_bench_skyline3d_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "skyline3d") == (
        "# bench structure=skyline3d seed=0 sizes=256,512,1024,2048,4096",
        [("256", "144", "9140", "63.472"),
         ("512", "198", "18132", "91.576"),
         ("1024", "288", "36754", "127.618"),
         ("2048", "405", "72125", "178.086"),
         ("4096", "576", "145350", "252.344")],
        "fit_exponent=0.4942 target=0.5000 tol=0.20 pass=true")


def test_bench_langerman_d1_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "langerman-d1") == (
        "# bench structure=langerman-d1 seed=0 "
        "sizes=16,32,64,128,256,512,1024",
        [("16", "150", "593", "3.953"),
         ("32", "150", "646", "4.307"),
         ("64", "150", "1259", "8.393"),
         ("128", "150", "1494", "9.960"),
         ("256", "150", "2483", "16.553"),
         ("512", "150", "3255", "21.700"),
         ("1024", "150", "4809", "32.060")],
        "fit_exponent=0.5252 target=0.5000 tol=0.20 pass=true")


@pytest.mark.parametrize("structure,rows", [
    ("halfspace-d2", [(16, 60, 464), (64, 60, 1282), (256, 60, 3044),
                      (1024, 60, 7136)]),
    ("halfspace-d3", [(27, 60, 708), (64, 60, 1545), (216, 60, 3340),
                      (512, 60, 7648)]),
])
def test_bench_halfspace_visits_pinned(structure, rows):
    # small sizes only, the smallest default size among them: a row's
    # visits depend on its n and seed alone
    rep = run_bench(structure, [n for n, _, _ in rows], seed=0)
    assert [r[:3] for r in rep.rows] == rows


@pytest.mark.parametrize("structure,rows", [
    ("hyperclique-counting", [(16, 60, 552), (32, 60, 1292), (64, 60, 2760),
                              (128, 60, 6012)]),
    ("erickson-eager", [(64, 60, 735), (512, 60, 2895), (4096, 60, 11535),
                        (13824, 60, 25935)]),
])
def test_bench_oumvk_tensor_visits_pinned(structure, rows):
    rep = run_bench(structure, [n for n, _, _ in rows], seed=0)
    assert [r[:3] for r in rep.rows] == rows


def test_bench_langerman_d2_visits_pinned(tmp_path):
    assert _bench_pinned_columns(tmp_path, "langerman-d2") == (
        "# bench structure=langerman-d2 seed=0 sizes=8,12,18,27,40,60",
        [("8", "60", "489", "8.150"),
         ("12", "60", "1295", "21.583"),
         ("18", "60", "1141", "19.017"),
         ("27", "60", "2140", "35.667"),
         ("40", "60", "6300", "105.000"),
         ("60", "60", "10933", "182.217")],
        "fit_exponent=1.4826 target=1.3333 tol=0.20 pass=true")


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


@pytest.mark.parametrize("command", ["solve", "reduce", "crosscheck",
                                     "bench"])
def test_unwritable_out_exit2(command, tmp_path, capsys):
    trace = _write(tmp_path, "t.trace",
                   "problem langerman\nheader ext=4\nZQRY\n")
    graph = _write(tmp_path, "g.txt", format_graph(_planted_graph()))
    argv = {"solve": ["solve", trace],
            "reduce": ["reduce", graph, "--reduction",
                       "red_4clique_range_mode"],
            "crosscheck": ["crosscheck", "--scope", "langerman"],
            "bench": ["bench", "--structure", "oracle-scan",
                      "--sizes", "1,2,3,4"]}[command]
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: ")
    assert str(out) in got.err and "Traceback" not in got.err


@pytest.mark.parametrize("exc,code", [
    (ValueError, 2), (OverflowError, 2), (OSError, 2),
    (RuntimeError, 3), (MemoryError, 3)])
@pytest.mark.parametrize("command", ["solve", "reduce", "crosscheck",
                                     "bench"])
def test_exit_table(command, exc, code, tmp_path, capsys, monkeypatch):
    # whatever a command's work raises from the table, `main` maps it to
    # one exit code and one `error: ` line, never a traceback
    import dynds.cli as cli

    def fail(*args, **kwargs):
        raise exc("injected")

    trace = _write(tmp_path, "t.trace",
                   "problem langerman\nheader ext=4\nZQRY\n")
    graph = _write(tmp_path, "g.txt", format_graph(_planted_graph()))
    cfg = REDUCTIONS["red_4clique_range_mode"]
    if command == "reduce":
        monkeypatch.setitem(REDUCTIONS, cfg.rid,
                            dataclasses.replace(cfg, run=fail))
    else:
        monkeypatch.setattr(cli, {"solve": "run_trace",
                                  "crosscheck": "trace_suite",
                                  "bench": "run_bench"}[command], fail)
    argv = {"solve": ["solve", trace],
            "reduce": ["reduce", graph, "--reduction", cfg.rid],
            "crosscheck": ["crosscheck", "--scope", "langerman"],
            "bench": ["bench", "--structure", "oracle-scan"]}[command]
    assert main(argv) == code
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: ")
    assert "injected" in got.err and "Traceback" not in got.err


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
