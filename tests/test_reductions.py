import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynds.core_geom import Box, Interval
from dynds.reductions import (
    REDUCTIONS,
    FaultyTarget,
    KPartiteGraph,
    OuMvInstance,
    clique_bruteforce,
    crosscheck_suite,
    format_graph,
    format_oumv,
    oumv_answers,
    parse_graph,
    parse_oumv,
    random_kpartite,
    random_oumv,
    red_4clique_2pattern,
    red_4clique_color,
    red_4clique_range_mode,
    red_4clique_subconn,
    red_oumvk_erickson,
    red_oumvk_langerman,
    red_oumvk_skyline,
    Counted,
    DocsTargetOracle,
    StReachTargetOracle,
    SubConnTargetOracle,
)


def adapter(rid, aid, inst):
    """The target that `dynds reduce --reduction rid --adapter aid` builds."""
    return REDUCTIONS[rid].adapters[aid](inst)


def complete_kpartite(sizes):
    edges = []
    k = len(sizes)
    for pi in range(1, k + 1):
        for pj in range(pi + 1, k + 1):
            for u in range(1, sizes[pi - 1] + 1):
                for v in range(1, sizes[pj - 1] + 1):
                    edges.append(((pi, u), (pj, v)))
    return KPartiteGraph(sizes, edges)


# ---------------- k-partite graphs ----------------

def test_graph_validation():
    with pytest.raises(ValueError):
        KPartiteGraph([2, 2], [((1, 1), (1, 2))])   # intra-part
    with pytest.raises(ValueError):
        KPartiteGraph([2, 2], [((1, 3), (2, 1))])   # vertex out of range
    with pytest.raises(ValueError):
        KPartiteGraph([2, 2], [((0, 1), (2, 1))])   # part out of range
    g = KPartiteGraph([2, 3], [((2, 3), (1, 1))])   # parts normalized
    assert g.has(1, 1, 2, 3) and g.has(2, 3, 1, 1)
    assert g.neighbors(1, 1, 2) == [3]
    assert g.neighbors(1, 2, 2) == []


def test_clique_complete_graph():
    assert clique_bruteforce(complete_kpartite([2, 2, 2, 2]))
    assert clique_bruteforce(complete_kpartite([1, 3, 2]))


def test_clique_missing_edge_singletons():
    g = complete_kpartite([1, 1, 1, 1])
    edges = set(g.edges)
    edges.discard(((2, 1), (4, 1)))
    assert not clique_bruteforce(KPartiteGraph([1, 1, 1, 1], edges))


def test_clique_empty_part():
    assert not clique_bruteforce(KPartiteGraph([2, 0, 2]))


def clique_bruteforce_unpruned(g: KPartiteGraph) -> bool:
    for tup in itertools.product(*[range(1, n + 1) for n in g.sizes]):
        if all(g.has(i + 1, tup[i], j + 1, tup[j])
               for i in range(g.k) for j in range(i + 1, g.k)):
            return True
    return False


def test_clique_pruned_vs_unpruned():
    rng = random.Random(31337)
    for _ in range(120):
        k = rng.randint(2, 4)
        sizes = [rng.randint(1, 6) for _ in range(k)]
        g = random_kpartite(rng, sizes, 0.5)
        assert clique_bruteforce(g) == clique_bruteforce_unpruned(g)


# ---------------- instance files ----------------

def test_graph_file_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        g = random_kpartite(rng, [rng.randint(1, 4) for _ in range(4)], 0.4)
        h = parse_graph(format_graph(g))
        assert h.sizes == g.sizes and h.edges == g.edges


def test_graph_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_graph("# only comments\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_graph("3 2 2\n")                    # header arity
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("2 2 2\n1 1 2\n")             # short edge line
    with pytest.raises(ValueError, match="line 3"):
        parse_graph("2 2 2\n1 1 2 2\n2 1 1 1\n")  # p_i >= p_j
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("2 2 2\n1 9 2 1\n")           # vertex range


def test_graph_parse_comments_and_blanks():
    g = parse_graph("# header\n2 1 1\n\n1 1 2 1  # the only edge\n")
    assert g.edges == {((1, 1), (2, 1))}


def test_oumv_file_roundtrip():
    rng = random.Random(6)
    for _ in range(25):
        inst = random_oumv(rng, rng.randint(2, 3), rng.randint(1, 5))
        assert parse_oumv(format_oumv(inst)) == inst


def test_oumv_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_oumv("2 2 0\n")                     # bad header
    with pytest.raises(ValueError, match="line 2"):
        parse_oumv("2 2 1 0\n1 3\n")              # tuple out of range
    with pytest.raises(ValueError):
        parse_oumv("2 2 0 1\n1\n")                # missing subset line
    inst = parse_oumv("2 3 1 1\n2 2\n-\n1 3\n")
    assert inst.queries[0][0] == frozenset()
    assert inst.queries[0][1] == frozenset({1, 3})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_oumv_roundtrip_property(seed):
    inst = random_oumv(random.Random(seed), 2, 3)
    assert parse_oumv(format_oumv(inst)) == inst


# ---------------- connectivity baselines ----------------

def subconn_unionfind(vertices, edges, active, s, t) -> bool:
    """Recompute s-t connectivity on the active-induced subgraph."""
    if s not in active or t not in active:
        return False
    parent = {v: v for v in vertices if v in active}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return find(s) == find(t)


def test_subconn_oracle_vs_unionfind():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 9)
        verts = list(range(n))
        edges = [(u, v) for u in verts for v in verts
                 if u < v and rng.random() < 0.4]
        t = SubConnTargetOracle()
        t.build(verts, edges, 0, n - 1)
        for _ in range(12):
            v = rng.choice(verts)
            t.set_active(v, rng.random() < 0.6)
            assert t.query() == subconn_unionfind(
                verts, edges, t.active, 0, n - 1)


def test_subconn_unknown_vertex():
    t = SubConnTargetOracle()
    t.build([1, 2], [(1, 2)], 1, 2)
    with pytest.raises(KeyError):
        t.set_active(9, True)


def test_streach_edge_errors():
    t = StReachTargetOracle()
    t.build([1, 2, 3], [(1, 2)], 1, 3)
    assert not t.query()
    t.insert_edge(2, 3)
    assert t.query()
    with pytest.raises(ValueError):
        t.insert_edge(2, 3)        # duplicate
    t.delete_edge(2, 3)
    with pytest.raises(ValueError):
        t.delete_edge(2, 3)        # absent
    with pytest.raises(KeyError):
        t.insert_edge(1, 9)


# ---------------- clique-side reductions ----------------

def dense_triangle_free_4p():
    # no A-B-C triangle but every vertex sees part 4
    edges = []
    for x in range(1, 3):
        for dd in range(1, 3):
            edges += [((1, x), (4, dd)), ((2, x), (4, dd)), ((3, x), (4, dd))]
    edges += [((1, 1), (2, 1)), ((2, 1), (3, 1))]   # path, no closing edge
    return KPartiteGraph([2, 2, 2, 2], edges)


def test_mode_reduction_negative_instance():
    g = dense_triangle_free_4p()
    assert not clique_bruteforce(g)
    assert not red_4clique_range_mode(
        g, Counted(adapter("red_4clique_range_mode", "oracle", g)))


def test_mode_reduction_positive_instance():
    g = complete_kpartite([2, 2, 2, 2])
    assert red_4clique_range_mode(
        g, Counted(adapter("red_4clique_range_mode", "real", g)))


def test_mode_query_budget_exact():
    g = complete_kpartite([3, 2, 2, 2])
    t = Counted(adapter("red_4clique_range_mode", "oracle", g))
    red_4clique_range_mode(g, t)
    assert t.calls["query"] == 3 * 2 * 2
    assert t.calls["build"] == 1
    assert t.inserted_elems == 2 * 2   # each phase inserts N_D(c)


def test_mode_reduction_skips_empty_neighborhoods():
    # vertex (1,2) has no part-4 neighbors: its row is never queried
    g = complete_kpartite([2, 2, 2, 2])
    edges = {e for e in g.edges if e[0] != (1, 2) or e[1][0] != 4}
    g2 = KPartiteGraph([2, 2, 2, 2], edges)
    t = Counted(adapter("red_4clique_range_mode", "oracle", g2))
    red_4clique_range_mode(g2, t)
    assert t.calls["query"] == 1 * 2 * 2


def test_wrong_part_count_rejected():
    g = complete_kpartite([2, 2, 2])
    g4 = complete_kpartite([2, 2, 2, 2])
    with pytest.raises(ValueError):
        red_4clique_range_mode(
            g, adapter("red_4clique_range_mode", "oracle", g4))
    with pytest.raises(ValueError):
        red_4clique_subconn(g, SubConnTargetOracle())


@pytest.mark.parametrize("rid,aid", [
    ("red_4clique_range_mode", "oracle"),
    ("red_4clique_range_mode", "real"),
    ("red_4clique_range_minority", "oracle"),
    ("red_clique_batch_dmode_d1", "oracle"),
    ("red_clique_batch_dmode_d1", "real"),
    ("red_clique_batch_dmode_d2", "oracle"),
    ("red_clique_batch_dmode_d2", "real"),
    ("red_clique_dyn_dmode_d1", "oracle"),
    ("red_clique_dyn_dmode_d1", "real"),
    ("red_4clique_subconn", "oracle"),
    ("red_4clique_2pattern", "docs"),
    ("red_4clique_2pattern", "cc"),
    ("red_4clique_color", "oracle"),
    ("red_4clique_color", "dcc"),
    ("red_4clique_streach", "oracle"),
])
def test_clique_reductions_random(rid, aid):
    rep = crosscheck_suite(1234, (), rid, aid, count=40)
    assert rep.ok, rep.render()


def test_2pattern_toggle_budget():
    g = complete_kpartite([2, 3, 2, 3])
    t = Counted(DocsTargetOracle())
    red_4clique_2pattern(g, t)
    assert t.calls["query"] == 2 * 3 * 2
    assert t.calls["set_on"] == 2 * 2 * 3   # on and off per phase edge


def test_color_strict_mode_agrees():
    rng = random.Random(77)
    for _ in range(20):
        g = random_kpartite(rng, [2, 2, 2, 2], 0.5)
        lazy = red_4clique_color(
            g, Counted(adapter("red_4clique_color", "oracle", g)))
        strict = red_4clique_color(
            g, Counted(adapter("red_4clique_color", "oracle", g)),
            strict=True)
        assert lazy == strict == clique_bruteforce(g)


def test_color_count_budget():
    g = complete_kpartite([2, 2, 3, 2])
    t = Counted(adapter("red_4clique_color", "oracle", g))
    red_4clique_color(g, t)
    assert t.calls["count"] == (3 * 3 + 1) * 2 * 2
    t2 = Counted(adapter("red_4clique_color", "oracle", g))
    red_4clique_color(g, t2, strict=True)
    assert t2.calls["count"] == (3 * 3 + 3) * 2 * 2


def test_subconn_early_return():
    g = complete_kpartite([2, 2, 2, 2])
    t = Counted(SubConnTargetOracle())
    assert red_4clique_subconn(g, t)
    # first d, first b already yields a path
    assert t.calls["query"] == 1


# ---------------- OuMv-side reductions ----------------

@pytest.mark.parametrize("rid,aid", [
    ("red_oumvk_skyline_k2", "oracle"),
    ("red_oumvk_skyline_k2", "engine"),
    ("red_oumvk_skyline_k3", "oracle"),
    ("red_oumvk_klee_k2", "oracle"),
    ("red_oumvk_halfspace_k2", "real"),
    ("red_oumvk_halfspace_k2", "oracle"),
    ("red_oumvk_halfspace_k3", "real"),
    ("red_oumvk_hyperclique_k2", "lazy"),
    ("red_oumvk_hyperclique_k2", "counting"),
    ("red_oumvk_hyperclique_k3", "lazy"),
    ("red_oumvk_erickson_k2", "lazy"),
    ("red_oumvk_erickson_k2", "eager"),
    ("red_oumvk_erickson_k3", "lazy"),
    ("red_oumvk_langerman_k2", "real"),
    ("red_oumvk_langerman_k2", "oracle"),
    ("red_oumvk_langerman_k3", "real"),
])
def test_oumv_reductions_random(rid, aid):
    rep = crosscheck_suite(4321, (), rid, aid, count=40)
    assert rep.ok, rep.render()


def test_skyline_hand_instance():
    inst = OuMvInstance(2, 2, frozenset({(1, 2)}),
                        ((frozenset({1}), frozenset({2})),))
    rec = []
    out = red_oumvk_skyline(
        inst, adapter("red_oumvk_skyline_k2", "oracle", inst), record=rec)
    assert out == [True]
    assert rec == [[3, 3, 2]]


def test_skyline_counts_follow_closed_form():
    rng = random.Random(99)
    for _ in range(15):
        inst = random_oumv(rng, 2, 4)
        rec = []
        out = red_oumvk_skyline(
            inst, adapter("red_oumvk_skyline_k2", "oracle", inst), record=rec)
        assert out == oumv_answers(inst)
        for us, cs in zip(inst.queries, rec):
            for j, c in enumerate(cs):
                tail = sum(1 for t in inst.tuples
                           if t[1] > j and t[0] in us[0])
                assert c == -len(us[0]) + inst.n + 1 + tail


def test_skyline_oracle_checks_the_deleted_point():
    # the driver names the point it deletes; the oracle target checks that
    # it is the one whose death is due
    t = adapter("red_oumvk_skyline_k2", "oracle", _EMPTY_OUMV)
    t.preprocess([])
    t.insert((1, 2, 3), 2)
    with pytest.raises(ValueError, match="does not die at op 2"):
        t.delete((3, 2, 1))


def test_erickson_phase_thresholds():
    rng = random.Random(13)
    inst = random_oumv(rng, 2, 3, num_queries=4)
    rec = []
    out = red_oumvk_erickson(
        inst, adapter("red_oumvk_erickson_k2", "lazy", inst), record=rec)
    assert [f for f, _, _ in rec] == [1, 2, 3, 4]
    for (f, thr, mv), ans in zip(rec, out):
        assert thr == 2 + 1 + (f - 1) * 2
        assert (mv == thr) == ans


def test_erickson_empty_tensor_max():
    inst = OuMvInstance(2, 2, frozenset(),
                        ((frozenset({1, 2}), frozenset({1, 2})),))
    rec = []
    out = red_oumvk_erickson(
        inst, adapter("red_oumvk_erickson_k2", "lazy", inst), record=rec)
    assert out == [False]
    assert rec[0][2] == 2   # k + (f-1)k: ceiling minus one without a hit


def test_halfspace_empty_tuples_short_circuit():
    inst = OuMvInstance(2, 3, frozenset(),
                        ((frozenset({1}), frozenset({2})),) * 2)
    class Boom:
        def __getattr__(self, name):
            raise AssertionError("target must stay untouched")
    from dynds.reductions import red_oumvk_halfspace
    assert red_oumvk_halfspace(inst, Boom()) == [False, False]


@pytest.mark.parametrize("sense,depth", [("lt", 0), ("le", 1), ("gt", 0),
                                         ("ge", 1), ("<", 0), ("<=", 1),
                                         (">", 0), (">=", 1)])
def test_halfspace_scan_matches_system_on_boundary(sense, depth):
    # the halfspace passes through the only point, so strictness decides
    from dynds.geom_dyn import HalfspaceScan, HalfspaceSystem
    scan = HalfspaceScan([(0, 0)])
    scan.insert((1, 1), 0, sense)
    hs = HalfspaceSystem([(0, 0)])
    hs.insert((1, 1), 0, sense)
    assert scan.min_count() == hs.min_count() == depth


def test_langerman_rejects_non_power():
    inst = OuMvInstance(3, 3, frozenset(), ())
    with pytest.raises(ValueError):
        red_oumvk_langerman(
            inst, adapter("red_oumvk_langerman_k3", "oracle", inst))


def test_langerman_debug_identity(monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rng = random.Random(3)
    for _ in range(5):
        inst = random_oumv(rng, 3, 4)
        out = red_oumvk_langerman(
            inst, adapter("red_oumvk_langerman_k3", "oracle", inst))
        assert out == oumv_answers(inst)


# ---------------- crosscheck machinery ----------------

def test_registry_covers_both_kinds():
    kinds = {cfg.kind for cfg in REDUCTIONS.values()}
    assert kinds == {"clique", "oumv"}
    for cfg in REDUCTIONS.values():
        assert cfg.adapters and cfg.sizes


def test_crosscheck_unknown_ids():
    with pytest.raises(ValueError):
        crosscheck_suite(1, (), "nope", "oracle")
    with pytest.raises(ValueError):
        crosscheck_suite(1, (), "red_4clique_subconn", "nope")


def test_crosscheck_deterministic_render():
    a = crosscheck_suite(8, (2, 3), "red_4clique_subconn", "oracle", count=10)
    b = crosscheck_suite(8, (2, 3), "red_4clique_subconn", "oracle", count=10)
    assert a.render() == b.render()
    assert "instances=10 mismatches=0" in a.render()


def test_crosscheck_seed_changes_instances():
    a = crosscheck_suite(1, (3,), "red_oumvk_erickson_k2", "lazy", count=5)
    b = crosscheck_suite(2, (3,), "red_oumvk_erickson_k2", "lazy", count=5)
    assert a.ok and b.ok and a.seed != b.seed


def test_faulty_adapter_reports_mismatch():
    rep = crosscheck_suite(5, (), "red_oumvk_hyperclique_k2", "faulty:lazy",
                           count=6)
    assert not rep.ok
    assert len(rep.mismatches) >= 1
    body = rep.render()
    assert "mismatch index=" in body and "2 " in body   # instance echoed


def test_crosscheck_reports_contract_error_as_mismatch(monkeypatch):
    # a range mode structure that finds no mode breaks SequenceAdapter's
    # contract: the suite records the RuntimeError instead of dying on it
    from dynds.range_mode import DynRangeModeDS
    monkeypatch.setattr(DynRangeModeDS, "query", lambda self, box: None)
    rep = crosscheck_suite(1, (3,), "red_4clique_range_mode", "real", count=2)
    assert len(rep.mismatches) == 2
    assert all(mm.error.startswith("RuntimeError: no mode found")
               for mm in rep.mismatches)


def test_faulty_wrapper_flips_bool_then_passes_through():
    class T:
        def query(self):
            return True
        def other(self):
            return 5
    f = FaultyTarget(T())
    assert f.query() is False    # corrupted once
    assert f.query() is True
    assert f.other() == 5        # non-query methods untouched


def test_counted_tallies_every_method_but_fingerprint():
    class T:
        def __init__(self):
            self.size = 0

        def build(self, n):
            self.size = n

        def query(self):
            return self.size

        def fingerprint(self):
            return self.size

    t = Counted(T())
    t.build(3)
    assert t.query() == 3 and t.query() == 3
    assert t.fingerprint() == 3
    assert t.calls == Counter(build=1, query=2)
    t.build(5)
    assert t.size == 5                  # non-callables pass through, live
    assert t.query is t.query           # one wrapper, cached at first lookup
    assert set(vars(t)) >= {"build", "query"}
    assert "fingerprint" not in vars(t)
    assert getattr(t, "missing", None) is None
    assert t.calls == Counter(build=2, query=2)


def test_counted_outside_faulty_counts_corrupted_calls():
    class T:
        def query(self):
            return True

        def fingerprint(self):
            return 0

    t = Counted(FaultyTarget(T()))
    assert t.query() is False           # corrupted once, still counted
    assert t.query() is True
    assert t.fingerprint() == 0
    assert t.calls == Counter(query=2)


_EMPTY_OUMV = OuMvInstance(2, 2, frozenset({(1, 1)}),
                           ((frozenset({1}), frozenset({1})),))


@pytest.mark.parametrize("rid,method", [
    ("red_4clique_range_mode", "query"),
    ("red_4clique_range_mode", "build"),
    ("red_4clique_range_minority", "query"),
    ("red_clique_batch_dmode_d1", "query"),
    ("red_clique_batch_dmode_d1", "build"),
    ("red_4clique_subconn", "set_active"),
    ("red_4clique_2pattern", "query"),
    ("red_4clique_color", "count"),
    ("red_oumvk_halfspace_k2", "min_count"),
])
def test_call_budget_raises(rid, method):
    # a target that already took extra calls of the budgeted kind breaks the
    # driver's call budget; on an edgeless graph every driver reaches it
    cfg = REDUCTIONS[rid]
    inst = KPartiteGraph([2] * cfg.arity) if cfg.kind == "clique" \
        else _EMPTY_OUMV
    for factory in cfg.adapters.values():
        t = Counted(factory(inst))
        t.calls[method] += 10 ** 6
        with pytest.raises(RuntimeError, match="call budget broken"):
            cfg.run(inst, t)


# adapters whose drivers run no state-restore check: their targets have no
# `fingerprint`; every other adapter's target has one
_UNCHECKED = {
    ("red_4clique_range_mode", "real"),
    ("red_clique_batch_dmode_d1", "real"),
    ("red_clique_batch_dmode_d2", "real"),
    ("red_clique_dyn_dmode_d1", "real"),
    ("red_4clique_color", "dcc"),
    ("red_oumvk_skyline_k2", "engine"),
    ("red_oumvk_halfspace_k2", "real"),
    ("red_oumvk_halfspace_k3", "real"),
    ("red_oumvk_langerman_k2", "real"),
    ("red_oumvk_langerman_k3", "real"),
}


def test_restore_checks_pinned():
    unchecked = set()
    for rid, cfg in REDUCTIONS.items():
        inst = cfg.gen(random.Random(f"fp.{rid}"), cfg.sizes[0])
        for aid, factory in cfg.adapters.items():
            target = factory(inst)
            cfg.run(inst, Counted(target))
            if not hasattr(target, "fingerprint"):
                unchecked.add((rid, aid))
    assert unchecked == _UNCHECKED


def test_call_budget_holds_under_optimize():
    # the budget check is a contract check: it raises under python -O too
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.reductions import (REDUCTIONS, Counted,\n"
            "    KPartiteGraph, red_4clique_range_mode)\n"
            "g = KPartiteGraph([2] * 4)\n"
            "cfg = REDUCTIONS['red_4clique_range_mode']\n"
            "t = Counted(cfg.adapters['oracle'](g))\n"
            "t.calls['query'] += 1\n"
            "try:\n"
            "    red_4clique_range_mode(g, t)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "call budget broken: mode queries\n"


@pytest.mark.parametrize("rid,aid", [
    ("red_4clique_range_mode", "oracle"),
    ("red_4clique_range_minority", "oracle"),
    ("red_4clique_range_mode", "real")], ids=["oracle", "minority", "real"])
def test_one_middle_batch_at_a_time(rid, aid):
    t = adapter(rid, aid, KPartiteGraph([2] * 4))

    def values():
        return list(t.ds.values)
    t.build([1, 2, 3, 4], 2)
    t.insert_middle([7, 8])
    with pytest.raises(RuntimeError, match="middle batch already present"):
        t.insert_middle([9])
    assert values() == [1, 2, 7, 8, 3, 4]
    t.delete_middle()
    assert values() == [1, 2, 3, 4]


def test_one_middle_batch_holds_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.reductions import REDUCTIONS, KPartiteGraph\n"
            "cfg = REDUCTIONS['red_4clique_range_mode']\n"
            "t = cfg.adapters['oracle'](KPartiteGraph([2] * 4))\n"
            "t.build([1, 2, 3, 4], 2)\n"
            "t.insert_middle([7, 8])\n"
            "try:\n"
            "    t.insert_middle([9])\n"
            "except RuntimeError as exc:\n"
            "    print(exc, t.ds.values)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "middle batch already present [1, 2, 7, 8, 3, 4]\n"


def test_faulty_wrapper_bumps_int():
    class T:
        def count(self):
            return 7
    f = FaultyTarget(T())
    assert f.count() == 8
    assert f.count() == 7


def test_state_restore_check_holds_under_optimize():
    # the restore check is a contract check: it raises under python -O too
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.reductions import _fp_check\n"
            "class T:\n"
            "    def fingerprint(self):\n"
            "        return 1\n"
            "try:\n"
            "    _fp_check(T(), 0, 'probe')\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "target state not restored after probe\n"
