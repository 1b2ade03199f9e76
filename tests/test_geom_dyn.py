import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dynds.core_geom import Box, Interval, PointMultiset, VisitCounter
from dynds.geom_dyn import (
    HalfspaceScan,
    HalfspaceSystem,
    SemiOnlineEngine,
    Skyline3DBlock,
    klee_union_volume,
    klee_union_volume_ie,
    maximal3d_flags,
    maximal_flags,
    skyline_oracle,
)


# ---------------- skyline oracles ----------------

def maximal_flags_scan(points):
    """Quadratic reference: occurrence i is maximal iff no other occurrence
    dominates it coordinatewise (equal duplicates kill each other)."""
    n = len(points)
    out = []
    for i in range(n):
        p = points[i]
        ok = True
        for j in range(n):
            if j != i and all(a <= b for a, b in zip(p, points[j])):
                ok = False
                break
        out.append(ok)
    return out


def test_maximal_flags_basic():
    pts = [(1, 1, 1), (2, 2, 2), (3, 1, 1), (1, 3, 1)]
    assert maximal_flags(pts) == [False, True, True, True]
    assert skyline_oracle(pts) == 3


def test_maximal_flags_duplicates_kill_each_other():
    pts = [(2, 2, 2), (2, 2, 2), (1, 1, 3)]
    assert maximal_flags(pts) == [False, False, True]
    assert skyline_oracle([(5, 5, 5)] * 3) == 0


def test_maximal_flags_edge_sizes():
    assert maximal_flags([]) == []
    assert maximal_flags([(3, 1)]) == [True]
    assert maximal_flags([()]) == [True]
    assert maximal_flags([(), ()]) == [False, False]


def test_maximal_flags_scaled_int_coords():
    # 2/3 and 4/6 are one value: the equal duplicates kill each other
    F = Fraction
    pts = [(F(1, 3), F(4, 3)), (F(2, 3), F(2, 3)),
           (F(1, 3), F(1, 2)), (F(4, 6), F(2, 3))]
    assert maximal_flags(pts) == maximal_flags_scan(pts) == [
        True, False, False, False]


@pytest.mark.parametrize("pts", [
    [(1, 2, 3), (1, 2)],
    [(1,), (2, 2), (0,)],
    [(), (1,)],
])
def test_maximal_flags_mixed_dimension_is_error(pts):
    with pytest.raises(ValueError, match="mixed dimension"):
        maximal_flags(pts)
    with pytest.raises(ValueError, match="mixed dimension"):
        skyline_oracle(pts)


# small ranges so equal coordinates and whole duplicate points are common;
# half-integers as Fractions interleave with (and equal) the ints
_coord = st.one_of(st.integers(0, 3),
                   st.integers(0, 6).map(lambda k: Fraction(k, 2)))


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 6))
    pts = draw(st.lists(st.tuples(*[_coord] * d), max_size=30))
    if pts:
        # repeat some occurrences verbatim, up to 40 points in all
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    return pts


@given(_point_sets())
@settings(max_examples=300, deadline=None)
def test_maximal_flags_matches_scan_property(pts):
    want = maximal_flags_scan(pts)
    assert maximal_flags(pts) == want
    assert skyline_oracle(pts) == sum(want)
    if pts and len(pts[0]) == 3:
        assert maximal3d_flags(pts) == want


def test_maximal3d_matches_scan():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(0, 24)
        hi = rng.choice([3, 6, 20])
        pts = [(rng.randint(1, hi), rng.randint(1, hi), rng.randint(1, hi))
               for _ in range(n)]
        assert maximal3d_flags(pts) == maximal_flags_scan(pts), (trial, pts)


def test_maximal3d_large_agrees():
    rng = random.Random(12)
    pts = [(rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12))
           for _ in range(400)]
    want = maximal_flags_scan(pts)
    assert maximal3d_flags(pts) == maximal_flags(pts) == want
    assert skyline_oracle(pts) == sum(want)


def test_maximal3d_flags_equal_buffer_tree_predicate():
    # Skyline3DBlock.query reads the flags where it once asked a tree over
    # the buffer whether a point's upper orthant held only the point itself
    rng = random.Random(13)
    for trial in range(150):
        hi = rng.choice([2, 3, 8])
        pts = [tuple(rng.randint(0, hi) for _ in range(3))
               for _ in range(rng.randint(0, 20))]
        pts += rng.sample(pts, min(len(pts), rng.randint(0, 3)))
        rng.shuffle(pts)
        if trial % 2:
            # one denominator per axis: 2, 3 and 4
            pts = [tuple(Fraction(c, 2 + ax) for ax, c in enumerate(p))
                   for p in pts]
        tree = PointMultiset(3, pts)
        want = [tree.count(Box([Interval.at_least(c) for c in p])) == 1
                for p in pts]
        assert maximal3d_flags(pts) == want, (trial, pts)


# ---------------- semi-online engine ----------------

class CountBlock:
    # trivial block: answers the number of live elements
    alpha = 1.0
    beta = 1.0

    def preprocess(self, core):
        return len(core)

    def query(self, state, buffer):
        return state + len(buffer)


def live_elements(eng):
    """The elements the engine stores, for comparison with an oracle."""
    return [r.elem for r in eng._live]


def test_engine_block_size_default():
    eng = SemiOnlineEngine(CountBlock(), 100)
    assert eng.b == 10
    eng = SemiOnlineEngine(CountBlock(), 100, block_size=4)
    assert eng.b == 4


def test_engine_basic_lifecycle():
    eng = SemiOnlineEngine(CountBlock(), 16, initial=["a", "b"], block_size=3)
    assert eng.query() == 2           # op 1
    eng.insert("c", death=4)          # op 2
    assert eng.query() == 3           # op 3
    eng.delete()                      # op 4 removes "c"
    assert eng.query() == 2           # op 5
    assert sorted(live_elements(eng)) == ["a", "b"]


def test_engine_delete_without_death_errors():
    eng = SemiOnlineEngine(CountBlock(), 8, block_size=2)
    eng.insert("x", death=3)
    with pytest.raises(ValueError, match="op 2"):
        eng.delete()


def test_engine_death_validation():
    eng = SemiOnlineEngine(CountBlock(), 8, block_size=2)
    with pytest.raises(ValueError):
        eng.insert("x", death=1)      # not beyond the current op
    with pytest.raises(ValueError):
        eng.insert("x", death=2.5)
    eng.insert("x", death=9)
    with pytest.raises(ValueError):
        eng.insert("y", death=9)      # death index already taken


def test_engine_windows_and_rebuilds():
    eng = SemiOnlineEngine(CountBlock(), 9, initial=["p"], block_size=3)
    for _ in range(7):
        eng.query()
    # ops 1..7 span windows [1,3], [4,6], [7,9]
    assert eng.rebuilds == 3


def test_engine_buffer_bound_is_a_contract_error():
    eng = SemiOnlineEngine(CountBlock(), 9, block_size=2)
    eng.insert("x")                                   # op 1 opens [1, 2]
    eng._buffer.extend(eng._buffer * 4)               # 5 > 2 * b records
    with pytest.raises(RuntimeError, match="block size 2"):
        eng.query()                                   # op 2, same window


def test_engine_core_excludes_doomed():
    eng = SemiOnlineEngine(CountBlock(), 9, block_size=3)
    eng.insert("x", death=6)   # op 1, dies inside window 2
    eng.insert("y", death=11)  # op 2, survives window 2
    eng.insert("z")            # op 3
    assert eng.query() == 3    # op 4, new window: x stays in the buffer
    assert len(eng._buffer) == 1
    assert eng._buffer[0].elem == "x"
    eng.query()                # op 5
    eng.delete()               # op 6
    assert eng.query() == 2


def random_sky_trace(seed, n_ops, hi, block_size):
    rng = random.Random(seed)
    block = Skyline3DBlock()
    init = [(rng.randint(1, hi), rng.randint(1, hi), rng.randint(1, hi))
            for _ in range(rng.randint(0, 8))]
    eng = SemiOnlineEngine(block, 64, initial=init, block_size=block_size)
    live = list(init)
    pending = {}  # death -> point
    op = 0
    while op < n_ops:
        op += 1
        r = rng.random()
        deaths_now = op in pending
        if deaths_now:
            eng.delete()
            live.remove(pending.pop(op))
        elif r < 0.55:
            p = (rng.randint(1, hi), rng.randint(1, hi), rng.randint(1, hi))
            if rng.random() < 0.7:
                d = rng.randint(op + 1, op + 12)
                while d in pending:
                    d += 1
                eng.insert(p, death=d)
                pending[d] = p
            else:
                eng.insert(p)
            live.append(p)
        else:
            got = eng.query()
            want = skyline_oracle(live)
            assert got == want, (seed, op, live, got, want)
    # drain the declared deaths so every announced index is honoured
    for d in sorted(pending):
        while op + 1 < d:
            op += 1
            eng.query()
            assert eng.query is not None
        op += 1
        eng.delete()
        live.remove(pending.pop(d))
    assert sorted(live_elements(eng)) == sorted(live)


@pytest.mark.parametrize("seed", range(10))
def test_skyline_random_traces(seed):
    random_sky_trace(seed, 60, hi=6, block_size=4)


def test_skyline_trace_dense_coords():
    random_sky_trace(99, 80, hi=3, block_size=5)
    random_sky_trace(98, 80, hi=40, block_size=7)


def test_skyline_empty_buffer_query():
    block = Skyline3DBlock()
    eng = SemiOnlineEngine(block, 16, initial=[(1, 2, 3), (3, 2, 1)],
                           block_size=4)
    assert eng.query() == 2


def test_skyline_counter_moves():
    vc = VisitCounter()
    block = Skyline3DBlock(counter=vc)
    eng = SemiOnlineEngine(block, 16, initial=[(1, 1, 1)], block_size=4)
    eng.query()
    assert vc.count > 0


@pytest.mark.parametrize("bad", [(1, 2), (1, 2, 3, 4)])
def test_skyline_query_rejects_wrong_dimension(bad):
    # the buffer sweep refuses what the buffer tree refused, as a ValueError
    eng = SemiOnlineEngine(Skyline3DBlock(), 16, initial=[(1, 1, 1)],
                           block_size=8)
    eng.insert(bad, death=30)
    with pytest.raises(ValueError):
        eng.query()


def test_skyline_query_builds_no_tree(monkeypatch):
    built = []
    init = PointMultiset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointMultiset, "__init__", counting_init)
    core = [(1, 5, 5), (5, 1, 5), (5, 5, 1), (2, 2, 2)]
    eng = SemiOnlineEngine(Skyline3DBlock(), 16, initial=core, block_size=8)
    buffer = [(6, 0, 0), (6, 0, 0), (0, 6, 6), (3, 3, 3)]
    for i, p in enumerate(buffer):
        eng.insert(p, death=20 + i)            # ops 1-4, one window
    assert len(built) == 2                     # the window's s0 and core trees
    for _ in range(3):
        assert eng.query() == skyline_oracle(core + buffer)
    assert len(built) == 2


class CountingSkyline(Skyline3DBlock):
    # counts the windows served by a full preprocess
    preprocessed = 0

    def preprocess(self, core):
        self.preprocessed += 1
        return super().preprocess(core)


def _boxes(rng, hi, count, sides):
    """Random boxes with corners in and just past [0, hi], bounded on each
    axis only on the sides that the tree keeps there: at_least on a "ge"
    axis, at_most on an "le" axis, and on a "both" axis closed, at_least,
    at_most or unbounded."""
    shapes = {"ge": [Interval.at_least], "le": [Interval.at_most],
              "both": [lambda v: Interval.closed(v, v + rng.randint(0, hi)),
                       Interval.at_least, Interval.at_most,
                       lambda v: Interval.all()]}
    return [Box([rng.choice(shapes[side])(rng.randint(0, hi + 1))
                 for side in sides]) for _ in range(count)]


def _churn(seed, n_ops, hi, block_size, check):
    """Random inserts with deaths up to 8 windows ahead, deletes and queries
    through a CountingSkyline engine over a few immortal initial points;
    after each op that opened a window, check(eng, rng) runs, and every
    query is compared with skyline_oracle."""
    rng = random.Random(seed)
    pt = lambda: tuple(rng.randint(0, hi) for _ in range(3))
    init = [pt() for _ in range(rng.randint(0, 12))]
    eng = SemiOnlineEngine(CountingSkyline(), 4 * block_size ** 2,
                           initial=init, block_size=block_size)
    live, pending = list(init), {}
    for op in range(1, n_ops + 1):
        windows = eng.rebuilds
        if op in pending:
            eng.delete()
            live.remove(pending.pop(op))
        elif rng.random() < 0.6:
            p = pt()
            d = op + rng.randint(1, 8 * block_size)
            while d in pending:
                d += 1
            eng.insert(p, death=d)
            pending[d] = p
            live.append(p)
        else:
            assert eng.query() == skyline_oracle(live), (seed, op)
        if eng.rebuilds != windows:
            check(eng, rng)
    return eng


@pytest.mark.parametrize("seed,hi", [(1, 3), (2, 3), (3, 6), (4, 40)])
def test_skyline_advance_equals_fresh_preprocess(seed, hi, monkeypatch):
    # small coordinate ranges repeat points, and duplicates kill each other
    # in S0; the debug check runs inside every advance as well
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)

    def check(eng, rng):
        n0, s0_tree, s_tree = eng._state
        f0, fresh_s0, fresh_s = Skyline3DBlock().preprocess(
            [r.elem for r in eng._core])
        assert n0 == f0
        assert s_tree.occ == fresh_s.occ and s0_tree.occ == fresh_s0.occ
        for tree, fresh in ((s_tree, fresh_s), (s0_tree, fresh_s0)):
            assert tree.sides == fresh.sides
            for box in _boxes(rng, hi, 6, tree.sides):
                brute = sum(m for p, m in tree.occ.items() if box.contains(p))
                assert tree.count(box) == fresh.count(box) == brute

    eng = _churn(seed, 300, hi, 4, check)
    assert eng.problem.preprocessed < eng.rebuilds / 4


def test_skyline_churn_keeps_trees_compact(monkeypatch):
    # fresh coordinates at every insert: a point that leaves the core leaves
    # a dead entry behind, until its tree rebuilds itself in place; the
    # block preprocesses the first window only
    rebuilt = []
    remove = PointMultiset.remove

    def recorded(tree, p):
        rebuilt.append(remove(tree, p))
        return rebuilt[-1]

    monkeypatch.setattr(PointMultiset, "remove", recorded)

    def check(eng, rng):
        _, s0_tree, s_tree = eng._state
        for tree in (s_tree, s0_tree):
            assert len(tree) <= 2 * sum(tree.occ.values()) + 16
        # a rebuilt tree keeps the sides of the boxes it is asked
        assert s_tree.sides == ("ge",) * 3
        assert s0_tree.sides == ("both", "le", "both")

    eng = _churn(7, 6000, 10 ** 6, 8, check)
    assert eng.problem.preprocessed == 1 and sum(rebuilt) > 1


def test_skyline_advance_is_counted():
    # the window's tree work shows in the counter: nothing pauses it
    vc = VisitCounter()
    block = CountingSkyline(counter=vc)
    eng = SemiOnlineEngine(block, 16, block_size=2)
    eng.insert((1, 2, 3), death=50)            # op 1 opens [1, 2]
    eng.insert((3, 2, 1), death=51)            # op 2
    before = vc.count
    eng.insert((2, 2, 2))                      # op 3: both enter the core
    assert vc.count > before
    assert block.preprocessed == 1
    assert eng._state[0] == 2


def test_skyline_debug_check_catches_a_broken_tree(monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    eng = SemiOnlineEngine(Skyline3DBlock(), 16, initial=[(1, 1, 1)],
                           block_size=2)
    eng.query()                                # op 1: preprocess
    _, _, s_tree = eng._state
    s_tree.toggle(s_tree.active_keys()[0], False)   # occ still holds it
    eng.query()                                # op 2
    with pytest.raises(RuntimeError, match="skyline tree entries"):
        eng.query()                            # op 3: advance checks


def test_skyline_debug_check_holds_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.geom_dyn import SemiOnlineEngine, Skyline3DBlock\n"
            "eng = SemiOnlineEngine(Skyline3DBlock(), 16,\n"
            "                       initial=[(1, 1, 1)], block_size=1)\n"
            "eng.query()\n"
            "s_tree = eng._state[2]\n"
            "s_tree.toggle(s_tree.active_keys()[0], False)\n"
            "try:\n"
            "    eng.query()\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "DYNDS_DEBUG_ASSERT": "1"})
    assert out.stdout == ("invariant broken: skyline tree entries match its "
                          "multiset\n")


# ---------------- Klee oracles ----------------

def test_klee_single_cube():
    assert klee_union_volume([(2, 2)], 2) == 4
    assert klee_union_volume([(1, 1, 1)], 1) == 1


def test_klee_disjoint_and_overlap():
    # two unit squares sharing half their area
    corners = [(1, 1), (1, Fraction(3, 2))]
    assert klee_union_volume(corners, 1) == Fraction(3, 2)
    assert klee_union_volume_ie(corners, 1) == Fraction(3, 2)
    corners = [(1, 1), (5, 5)]
    assert klee_union_volume(corners, 1) == 2


def test_klee_identical_cubes():
    assert klee_union_volume([(3, 3, 3)] * 4, 2) == 8


def test_klee_empty_and_validation():
    assert klee_union_volume([], 5) == 0
    with pytest.raises(ValueError):
        klee_union_volume([(1, 1)], 0)


def test_klee_scaledint_corners():
    # two squares of side 3/2 that overlap in a 2/3 by 1/4 rectangle
    corners = [(Fraction(7, 3), Fraction(5, 2)),
               (Fraction(3, 2), Fraction(5, 4))]
    v = klee_union_volume(corners, Fraction(3, 2))
    assert v == klee_union_volume_ie(corners, Fraction(3, 2))
    assert v == 2 * Fraction(9, 4) - Fraction(2, 3) * Fraction(1, 4)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_klee_matches_inclusion_exclusion(d):
    rng = random.Random(70 + d)
    for _ in range(40):
        m = rng.randint(1, 6)
        side = rng.choice([1, 2, Fraction(1, 2)])
        corners = [tuple(Fraction(rng.randint(0, 8), rng.choice([1, 2]))
                         for _ in range(d)) for _ in range(m)]
        assert klee_union_volume(corners, side) == \
            klee_union_volume_ie(corners, side)


def test_klee_big_coordinates():
    corners = [(10 ** 7, 10 ** 7), (10 ** 7 + 1, 10 ** 7 + 1)]
    assert klee_union_volume(corners, 10 ** 6) == \
        klee_union_volume_ie(corners, 10 ** 6)


@st.composite
def _klee_inputs(draw):
    """d in 1..4, up to 7 cubes on a half-integer lattice (so faces often
    touch), int and half-integer Fraction corners and sides, verbatim
    duplicates."""
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-3, 3),
                      st.integers(-6, 6).map(lambda k: Fraction(k, 2)))
    corners = draw(st.lists(st.tuples(*[coord] * d), max_size=7))
    if corners:
        corners += draw(st.lists(st.sampled_from(corners),
                                 max_size=7 - len(corners)))
        corners = draw(st.permutations(corners))
    side = draw(st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2)]))
    return corners, side


@given(_klee_inputs())
@example(([(0, 0), (1, 0), (1, 0)], 1))                 # shared face, dup
@example(([(0,), (Fraction(1, 2),), (2,)], Fraction(1, 2)))  # touching ends
@settings(max_examples=300, deadline=None)
def test_klee_sweep_matches_inclusion_exclusion_property(inp):
    corners, side = inp
    assert klee_union_volume(corners, side) == \
        klee_union_volume_ie(corners, side)


def test_klee_compressed_grid_guard():
    # cube i is [2i-1, 2i]^d: 12 distinct cuts, so 11 slabs per axis
    corners = [(2 * i,) * 8 for i in range(6)]
    with pytest.raises(ValueError, match="compressed grid too large"):
        klee_union_volume(corners, 1)             # 11^8 > 1e8 cells
    assert klee_union_volume([c[:7] for c in corners], 1) == 6   # 11^7


# ---------------- halfspace system ----------------

@pytest.fixture
def debug_assert(monkeypatch):
    """Every HalfspaceSystem update runs `_debug_check`: its counts against
    `halfspace_depths`, its histogram against the counts, and its min."""
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)


def n_halfspaces(hs):
    """The number of live halfspaces, repeats counted."""
    return sum(hs._halfspaces.values())


def test_halfspace_basic(debug_assert):
    hs = HalfspaceSystem([(1, 1), (3, 3)])
    hs.insert((1, 0), Fraction(5, 2), "lt")   # x < 2.5
    assert hs.min_count() == 0
    assert hs._counts == [1, 0]
    hs.insert((0, 1), 0, "gt")                # y > 0
    assert hs._counts == [2, 1]
    assert hs.min_count() == 1
    hs.delete((1, 0), Fraction(5, 2), "lt")
    assert hs.min_count() == 1
    assert n_halfspaces(hs) == 1


def test_halfspace_sense_aliases():
    hs = HalfspaceSystem([(2,)])
    hs.insert((1,), 2, "ge")
    hs.insert((1,), 2, ">=")
    assert n_halfspaces(hs) == 2
    assert hs.min_count() == 2
    hs.delete((1,), 2, "ge")
    assert hs.min_count() == 1
    with pytest.raises(ValueError):
        hs.insert((1,), 2, "weird")


def test_halfspace_delete_absent():
    hs = HalfspaceSystem([(0, 0)])
    with pytest.raises(ValueError):
        hs.delete((1, 0), 0, "lt")


def test_halfspace_empty_points(debug_assert):
    # no points: a normal of any length is taken, nothing is hit, the
    # pointer stays at 0, and min_count has no answer
    hs = HalfspaceSystem([])
    for ds in (hs, HalfspaceScan([])):
        ds.insert((1, 0), 1, "le")
        ds.delete((1, 0), 1, "le")
        ds.insert((1, 0, 2), Fraction(1, 3), "gt")
        with pytest.raises(ValueError, match="no points"):
            ds.min_count()
    assert (hs._counts, hs._hist, hs._min) == ([], [0], 0)


def test_halfspace_dimension_refused():
    # a normal that is too short or too long was truncated by the dot
    # product and accepted; points of mixed dimension likewise
    for cls in (HalfspaceSystem, HalfspaceScan):
        with pytest.raises(ValueError) as exc:
            cls([(1, 2), (3,)])
        assert str(exc.value) == "points of mixed dimension [1, 2]"
        ds = cls([(1, 2), (3, 4)])
        for normal in ((1,), (1, 1, 1)):
            for op in (ds.insert, ds.delete):
                with pytest.raises(ValueError) as exc:
                    op(normal, 4, "lt")
                assert str(exc.value) == (f"normal of length {len(normal)} "
                                          f"for points of dimension 2")
        assert ds.min_count() == 0


@pytest.mark.parametrize("drift,what", [
    (lambda hs: hs._counts.__setitem__(2, 1), "counts"),
    (lambda hs: hs._hist.__setitem__(0, 2), "histogram"),
    (lambda hs: setattr(hs, "_min", 1), "min pointer"),
], ids=["counts", "histogram", "min"])
def test_halfspace_debug_check_catches_drift(drift, what):
    hs = HalfspaceSystem([(0,), (1,), (2,)])
    hs.insert((1,), 1, "le")                  # counts [1, 1, 0]
    hs._debug_check()
    drift(hs)
    with pytest.raises(RuntimeError, match=what):
        hs._debug_check()


def test_halfspace_scaledint_offsets(debug_assert):
    # exact non-integer offsets, as Fractions
    hs = HalfspaceSystem([(1,), (2,)])
    hs.insert((1,), Fraction(3, 2), "lt")     # x < 1.5
    assert hs._counts == [1, 0]
    hs.insert((1,), Fraction(5, 3), "ge")     # x >= 5/3
    assert hs._counts == [1, 1] and hs.min_count() == 1


def test_halfspace_fraction_normals_stay_exact():
    # x / 2 <= 1/4 holds for no point; a normal truncated to int would
    # make it 0 <= 1/4 and hold for every point
    for ds in (HalfspaceSystem([(1,), (2,)]), HalfspaceScan([(1,), (2,)])):
        ds.insert((Fraction(1, 2),), Fraction(1, 4), "le")
        assert ds.min_count() == 0
        ds.delete((Fraction(1, 2),), Fraction(1, 4), "le")
        with pytest.raises(ValueError, match="delete of absent halfspace"):
            ds.delete((Fraction(1, 2),), Fraction(1, 4), "le")


@pytest.mark.parametrize("seed", range(6))
def test_halfspace_random_vs_oracle(seed, debug_assert):
    rng = random.Random(seed)
    pts = [tuple(rng.randint(-3, 3) for _ in range(2))
           for _ in range(rng.randint(1, 7))]
    hs, scan = HalfspaceSystem(pts), HalfspaceScan(pts)
    live = []
    for _ in range(40):
        if live and rng.random() < 0.4:
            trip = live.pop(rng.randrange(len(live)))
            hs.delete(*trip)
            scan.delete(*trip)
        else:
            trip = (tuple(rng.randint(-2, 2) for _ in range(2)),
                    Fraction(rng.randint(-6, 6), rng.choice([1, 2])),
                    rng.choice(["lt", "le", "gt", "ge"]))
            hs.insert(*trip)
            scan.insert(*trip)
            live.append(trip)
        assert hs.min_count() == scan.min_count()


@pytest.mark.parametrize("seed", range(6))
def test_halfspace_debug_traces(seed, debug_assert):
    # 3-D points; normals with zero and Fraction components, Fraction
    # offsets; every update runs the debug check, and the trace must reach
    # deletes that lower the min, then drain and go on
    rng = random.Random(900 + seed)
    pts = [tuple(rng.randint(-4, 4) for _ in range(3))
           for _ in range(rng.randint(2, 12))]
    hs, scan = HalfspaceSystem(pts), HalfspaceScan(pts)
    comp = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    live, lowered, zero, frac = [], 0, 0, 0
    for step in range(160):
        if live and (step % 40 >= 25 or rng.random() < 0.35):
            trip = live.pop(rng.randrange(len(live)))
            before = hs.min_count()
            hs.delete(*trip)
            scan.delete(*trip)
            lowered += hs.min_count() < before
        elif step % 40 < 25:
            normal = tuple(rng.choice(comp) for _ in range(3))
            trip = (normal, Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    rng.choice(_ALL_SENSES))
            zero += 0 in normal
            frac += any(isinstance(a, Fraction) for a in normal)
            hs.insert(*trip)
            scan.insert(*trip)
            live.append(trip)
        assert hs.min_count() == scan.min_count()
    assert lowered and zero and frac
    assert n_halfspaces(hs) == 0 and hs.min_count() == 0


_ALL_SENSES = ["lt", "<", "le", "<=", "gt", ">", "ge", ">="]


@pytest.mark.parametrize("seed", range(8))
def test_halfspace_histogram_min_traces(seed):
    # inserts and deletes over all eight sense spellings, draining back to
    # zero halfspaces twice; one visit per point per op
    rng = random.Random(500 + seed)
    pts = [tuple(rng.randint(-3, 3) for _ in range(2))
           for _ in range(rng.randint(1, 8))]
    hs = HalfspaceSystem(pts)
    live, ops = [], 0
    for _ in range(2):
        for step in ["ins"] * 25 + ["mix"] * 25 + ["drain"] * 100:
            if step == "drain" and not live:
                break
            if live and (step == "drain" or
                         (step == "mix" and rng.random() < 0.5)):
                hs.delete(*live.pop(rng.randrange(len(live))))
            else:
                trip = (tuple(rng.randint(-2, 2) for _ in range(2)),
                        Fraction(rng.randint(-6, 6), rng.choice([1, 2])),
                        rng.choice(_ALL_SENSES))
                hs.insert(*trip)
                live.append(trip)
            ops += 1
            hs._debug_check()
            assert hs.counter.count == ops * len(pts)
        assert n_halfspaces(hs) == 0
        assert hs.min_count() == 0
