import math
import random
from collections import Counter

import pytest

from dynds.colors import (
    CommonColorsDS,
    DynColorCountDS,
    cc_oracle,
    dcc_oracle,
    docs_oracle,
)
from dynds.core_geom import Box, PointMultiset, VisitCounter


# ---------------- oracles ----------------

def test_cc_oracle_basic():
    a = [1, 2, 1, 3, 2]
    assert cc_oracle(a, {1, 2, 3}, 1, 2, 3, 5) == 2
    assert cc_oracle(a, {1}, 1, 2, 3, 5) == 1
    assert cc_oracle(a, set(), 1, 5, 1, 5) == 0
    # overlapping intervals are allowed
    assert cc_oracle(a, {1, 2, 3}, 1, 4, 2, 5) == 3
    with pytest.raises(ValueError):
        cc_oracle(a, set(), 0, 2, 3, 5)
    with pytest.raises(ValueError):
        cc_oracle(a, set(), 3, 2, 3, 5)


def test_docs_oracle():
    docs = [{"x", "y"}, {"x"}, {"y", "z"}, {"x", "y", "z"}]
    assert docs_oracle(docs, {0, 1, 2, 3}, "x", "y") == 2
    assert docs_oracle(docs, {1, 2, 3}, "x", "y") == 1
    assert docs_oracle(docs, set(), "x", "y") == 0


# ---------------- common colors structure ----------------

def quads(ds, color):
    """The quadruples of a light color, read back from the tree."""
    return [ds._tree.entry(k)[0] for k in ds._quad_keys[color]]


def test_cc_quadruple_layout():
    ds = CommonColorsDS([1, 2], B_thresh=1)
    assert ds.light == {1, 2}
    assert quads(ds, 1) == [(1, 3, 1, 3)]
    assert quads(ds, 2) == [(2, 3, 2, 3)]


def test_cc_quadruple_count_is_k_squared():
    # color 7 occurs 3 times -> 9 quadruples
    a = [7, 5, 7, 5, 7]
    ds = CommonColorsDS(a, B_thresh=3)
    assert len(quads(ds, 7)) == 9
    assert len(quads(ds, 5)) == 4
    o = [1, 3, 5, 6]  # occurrences of 7 plus sentinel m+1
    expect = {(o[j1], o[j1 + 1], o[j2], o[j2 + 1])
              for j1 in range(3) for j2 in range(3)}
    assert set(quads(ds, 7)) == expect


def test_cc_heavy_split():
    a = [1, 1, 2]
    ds = CommonColorsDS(a, B_thresh=1)
    assert ds.heavy == {1}
    assert ds.light == {2}
    ds.set_on(1, True)
    ds.set_on(2, True)
    assert ds.query(1, 2, 3, 3) == 0
    assert ds.query(1, 1, 2, 3) == 1
    assert ds.query(1, 3, 1, 3) == 2


def test_cc_default_threshold():
    ds = CommonColorsDS(list(range(27)))
    assert ds.B == 3
    ds = CommonColorsDS(list(range(1000)))
    assert ds.B == 10


def test_cc_toggle_validation():
    ds = CommonColorsDS([1, 2, 1])
    with pytest.raises(KeyError):
        ds.set_on(9, True)
    ds.set_on(1, True)
    ds.set_on(1, True)  # idempotent
    assert 1 in ds._on
    assert ds.query(1, 1, 2, 3) == 1
    ds.set_on(1, False)
    assert ds.query(1, 1, 2, 3) == 0


@pytest.mark.parametrize("b_thresh", [1, 2, None, 100])
def test_cc_random_traces(b_thresh):
    rng = random.Random(f"cc.{b_thresh}")
    for _ in range(8):
        m = rng.randint(1, 24)
        ncol = rng.randint(1, 6)
        a = [rng.randint(1, ncol) for _ in range(m)]
        ds = CommonColorsDS(a, B_thresh=b_thresh)
        on = set()
        for _ in range(60):
            if rng.random() < 0.5:
                c = rng.choice(a)
                f = rng.random() < 0.5
                ds.set_on(c, f)
                (on.add if f else on.discard)(c)
            else:
                l1 = rng.randint(1, m)
                r1 = rng.randint(l1, m)
                l2 = rng.randint(1, m)
                r2 = rng.randint(l2, m)
                assert ds.query(l1, r1, l2, r2) == \
                    cc_oracle(a, on, l1, r1, l2, r2)


def test_cc_query_counter_budget():
    rng = random.Random(5)
    m = 200
    a = [rng.randint(1, 40) for _ in range(m)]
    ds = CommonColorsDS(a)
    for c in set(a):
        ds.set_on(c, True)
    lg = math.log2(m) + 2
    budget = 64 * (m / ds.B + lg ** 4) * lg
    for _ in range(20):
        l1 = rng.randint(1, m)
        r1 = rng.randint(l1, m)
        l2 = rng.randint(1, m)
        r2 = rng.randint(l2, m)
        before = ds.counter.count
        ds.query(l1, r1, l2, r2)
        assert ds.counter.count - before <= budget


# ---------------- dynamic color counting ----------------

def box2(x_lo, x_hi, y_lo, y_hi):
    from dynds.core_geom import Interval
    return Box([Interval.closed(x_lo, x_hi), Interval.closed(y_lo, y_hi)])


def live_points(ds):
    """The (point, color) pairs that `ds` holds, one per live copy."""
    return [(p, color) for color, tree in ds._trees.items()
            for p in tree.occ.elements()]


def test_dcc_basic():
    ds = DynColorCountDS(100)
    ds.update((1, 1), "r", True)
    ds.update((2, 2), "r", True)
    ds.update((3, 3), "g", True)
    assert ds.query(box2(1, 3, 1, 3)) == 2
    assert ds.query(box2(1, 2, 1, 2)) == 1
    assert ds.query(box2(4, 9, 4, 9)) == 0
    ds.update((2, 2), "r", False)
    assert ds.query(box2(2, 3, 2, 3)) == 1
    ds.update((3, 3), "g", False)   # empties "g": its tree goes at once
    assert set(ds._trees) == {"r"}
    assert ds.query(box2(1, 3, 1, 3)) == 1
    ds.update((3, 3), "g", True)
    assert ds.query(box2(1, 3, 1, 3)) == 2


def test_dcc_validation():
    ds = DynColorCountDS(10)
    with pytest.raises(ValueError):
        ds.update((1, 2, 3), "r", True)
    with pytest.raises(ValueError,
                       match=r"delete of absent point \(1, 2\) label 'r'"):
        ds.update((1, 2), "r", False)
    assert not ds._trees  # a refused delete makes no tree for its color
    with pytest.raises(ValueError):
        DynColorCountDS(0)
    full = DynColorCountDS(1)
    full.update((1, 1), "r", True)
    with pytest.raises(ValueError, match="capacity 1 exceeded"):
        full.update((2, 2), "g", True)
    full.update((1, 1), "r", False)
    full.update((2, 2), "g", True)


def _color_with_dead_entries(ds, declared):
    """Insert `declared` distinct points of color "a", then delete all but
    the first; returns them.  The tree declares them all until it rebuilds,
    which a delete does once it leaves more than 2 * live + 16 entries."""
    pts = [(i, i * i % 23) for i in range(declared)]
    for p in pts:
        ds.update(p, "a", True)
    for p in pts[1:]:
        ds.update(p, "a", False)
    return pts


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_dcc_rebuild_boundary(extra):
    # 18, 19 and 20 declared entries against one live point: the last
    # delete leaves the tree at, one past and two past 2 * 1 + 16
    ds = DynColorCountDS(100)
    ds.update((9, 9), "b", True)
    other = ds._trees["b"]
    ds.update((5, 5), "a", True)
    ds.update((5, 5), "a", False)   # "a" empties and goes
    pts = _color_with_dead_entries(ds, 19 + extra)
    tree = ds._trees["a"]
    assert ds.rebuilds == (0 if extra < 0 else 1)
    assert tree.occ == Counter({pts[0]: 1})
    assert len(tree) == (18 if extra < 0 else 1)
    assert ds._trees["b"] is other and len(other) == 1
    live = [(pts[0], "a"), ((9, 9), "b")]
    for lo in range(0, 10):
        b = box2(lo, 22, 0, 22)
        assert ds.query(b) == dcc_oracle(live, b)


@pytest.mark.parametrize("span", [1, 3, None])
def test_dcc_random_traces(span):
    # coordinates in [1, span], or fresh ones in [1, 10**6] for None; after
    # every op each color tree is non-empty and within its dead-entry bound
    rng = random.Random(f"dcc.{span}")
    hi = span or 10 ** 6
    for _ in range(6):
        ds = DynColorCountDS(60)
        live = []
        for _ in range(90):
            r = rng.random()
            if r < 0.5 or not live:
                p = (rng.randint(1, hi), rng.randint(1, hi))
                c = rng.randint(1, 4)
                ds.update(p, c, True)
                live.append((p, c))
            elif r < 0.75:
                p, c = live.pop(rng.randrange(len(live)))
                ds.update(p, c, False)
            else:
                x = sorted(rng.randint(1, hi) for _ in range(2))
                y = sorted(rng.randint(1, hi) for _ in range(2))
                b = box2(x[0], x[1], y[0], y[1])
                assert ds.query(b) == dcc_oracle(live, b)
            for tree in ds._trees.values():
                assert 0 < tree.n_live and len(tree) <= 2 * tree.n_live + 16
        assert sorted(map(repr, live_points(ds))) == sorted(map(repr, live))


def test_dcc_churn_keeps_color_trees_compact(monkeypatch):
    # each round moves one point to a fresh point of the same color: the
    # trees rebuild on their own, and `rebuilds` counts every rebuild
    rebuilt = []
    remove = PointMultiset.remove

    def recorded(tree, p):
        rebuilt.append(remove(tree, p))
        return rebuilt[-1]

    monkeypatch.setattr(PointMultiset, "remove", recorded)
    rng = random.Random("dcc.churn")
    ds = DynColorCountDS(100)

    def fresh():
        return rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)

    live = [(fresh(), c) for c in range(4) for _ in range(5)]
    for p, c in live:
        ds.update(p, c, True)
    for _ in range(400):
        i = rng.randrange(len(live))
        p, c = live[i]
        ds.update(p, c, False)
        live[i] = (fresh(), c)
        ds.update(live[i][0], c, True)
        for tree in ds._trees.values():
            assert len(tree) <= 2 * tree.n_live + 16
        lo = fresh()
        b = box2(lo[0], lo[0] + 5 * 10 ** 5, lo[1], lo[1] + 5 * 10 ** 5)
        assert ds.query(b) == dcc_oracle(live, b)
    assert ds.rebuilds == sum(rebuilt) >= 10


def test_dcc_shared_counter():
    vc = VisitCounter()
    ds = DynColorCountDS(50, counter=vc)
    ds.update((1, 1), "a", True)
    assert vc.count > 0
    before = vc.count
    ds.query(box2(1, 1, 1, 1))
    assert vc.count > before


def test_dcc_query_is_one_emptiness_query_per_color(monkeypatch):
    ds = DynColorCountDS(100)
    rng = random.Random("dcc.per-color")
    pts = []
    for _ in range(24):
        p = (rng.randint(1, 6), rng.randint(1, 6))
        c = rng.randint(1, 6)
        ds.update(p, c, True)
        pts.append((p, c))
    for p, c in [q for q in pts if q[1] == 1]:   # color 1 empties
        ds.update(p, c, False)
        pts.remove((p, c))
    assert len(ds._trees) == len({c for _, c in pts}) == 5
    asked = []
    is_empty = PointMultiset.is_empty

    def recorded(tree, box):
        asked.append(tree)
        return is_empty(tree, box)

    monkeypatch.setattr(PointMultiset, "is_empty", recorded)
    for lo in range(1, 7):
        asked.clear()
        b = box2(lo, 6, 1, lo)
        assert ds.query(b) == dcc_oracle(pts, b)
        assert sorted(map(id, asked)) == sorted(map(id, ds._trees.values()))


def test_dcc_rebuild_packs_one_tree_in_place():
    ds = DynColorCountDS(100)
    for i, c in enumerate("bcd"):
        ds.update((i, i), c, True)
    before = dict(ds._trees)
    pts = _color_with_dead_entries(ds, 19)   # the last delete rebuilds "a"
    tree = ds._trees["a"]
    assert ds.rebuilds == 1
    ds.update((7, 7), "a", True)
    ds.update(pts[0], "a", False)       # the rebuilt tree takes updates
    assert ds._trees["a"] is tree and tree.occ == Counter({(7, 7): 1})
    assert len(tree) == 2               # the rebuilt entry and (7, 7)
    assert all(ds._trees[c] is before[c] for c in "bcd")
    assert ds.query(box2(0, 9, 0, 9)) == 4


def test_dcc_rebuild_visits_are_counted():
    # the delete that rebuilds costs its toggle plus exactly the visits of
    # a fresh tree over the color's live points
    vc = VisitCounter()
    ds = DynColorCountDS(100, counter=vc)
    pts = [(i, i * i % 23) for i in range(19)]
    for p in pts:
        ds.update(p, "a", True)
    for p in pts[1:-1]:
        ds.update(p, "a", False)
    tree = ds._trees["a"]
    toggle = len(tree._cells(tree.keys[(pts[-1], 1)]))
    before = vc.count
    ds.update(pts[-1], "a", False)
    assert ds.rebuilds == 1
    fresh = VisitCounter()
    PointMultiset(2, [pts[0]], counter=fresh)
    assert fresh.count > 0
    assert vc.count - before == toggle + fresh.count


def test_dcc_visits_pinned():
    # seeded churn with duplicate points, deletes and queries: the visit
    # total is part of the cost model.  On a 4 x 4 grid a point's dead
    # copies are reused, so no tree passes its dead-entry bound
    vc = VisitCounter()
    ds = DynColorCountDS(80, counter=vc)
    rng = random.Random("dcc.pin")
    live = []
    dups = 0
    for _ in range(150):
        r = rng.random()
        if r < 0.45 or not live:
            p = (rng.randint(1, 4), rng.randint(1, 4))
            c = rng.randint(1, 3)
            ds.update(p, c, True)
            live.append((p, c))
            dups += live.count((p, c)) > 1
        elif r < 0.7:
            p, c = live.pop(rng.randrange(len(live)))
            ds.update(p, c, False)
        else:
            x = sorted(rng.randint(1, 5) for _ in range(2))
            y = sorted(rng.randint(1, 5) for _ in range(2))
            b = box2(x[0], x[1], y[0], y[1])
            assert ds.query(b) == dcc_oracle(live, b)
    assert dups > 0 and ds.rebuilds == 0
    assert vc.count == 1108
