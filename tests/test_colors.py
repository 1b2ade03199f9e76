import math
import random

import pytest

from dynds.colors import (
    CommonColorsDS,
    DynColorCountDS,
    cc_oracle,
    dcc_oracle,
    docs_oracle,
)
from dynds.core_geom import Box, VisitCounter


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

def test_cc_quadruple_layout():
    ds = CommonColorsDS([1, 2], B_thresh=1)
    assert ds.light == {1, 2}
    assert ds.quads[1] == [(1, 3, 1, 3)]
    assert ds.quads[2] == [(2, 3, 2, 3)]


def test_cc_quadruple_count_is_k_squared():
    # color 7 occurs 3 times -> 9 quadruples
    a = [7, 5, 7, 5, 7]
    ds = CommonColorsDS(a, B_thresh=3)
    assert len(ds.quads[7]) == 9
    assert len(ds.quads[5]) == 4
    o = [1, 3, 5, 6]  # occurrences of 7 plus sentinel m+1
    expect = {(o[j1], o[j1 + 1], o[j2], o[j2 + 1])
              for j1 in range(3) for j2 in range(3)}
    assert set(ds.quads[7]) == expect


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
    assert ds.is_on(1)
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


def test_dcc_basic():
    ds = DynColorCountDS(100, rebuild_period=10)
    assert ds.R == 10
    ds.update((1, 1), "r", True)
    ds.update((2, 2), "r", True)
    ds.update((3, 3), "g", True)
    assert ds.query(box2(1, 3, 1, 3)) == 2
    assert ds.query(box2(1, 2, 1, 2)) == 1
    assert ds.query(box2(4, 9, 4, 9)) == 0
    ds.update((2, 2), "r", False)
    assert ds.query(box2(2, 3, 2, 3)) == 1


def test_dcc_default_period():
    assert DynColorCountDS(1000).R == 100
    assert DynColorCountDS(8).R == 4


def test_dcc_validation():
    ds = DynColorCountDS(10)
    with pytest.raises(ValueError):
        ds.update((1, 2, 3), "r", True)
    with pytest.raises(ValueError,
                       match=r"delete of absent point \(1, 2\) label 'r'"):
        ds.update((1, 2), "r", False)
    assert not ds._live  # a refused delete makes no tree for its color
    with pytest.raises(ValueError):
        DynColorCountDS(0)
    full = DynColorCountDS(1)
    full.update((1, 1), "r", True)
    with pytest.raises(ValueError, match="capacity 1 exceeded"):
        full.update((2, 2), "g", True)
    full.update((1, 1), "r", False)
    full.update((2, 2), "g", True)
    with pytest.raises(ValueError):
        DynColorCountDS(10, rebuild_period=0)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_dcc_rebuild_boundary(extra):
    # traces of length R-1, R, R+1 around the rebuild trigger
    R = 6
    ds = DynColorCountDS(100, rebuild_period=R)
    pts = []
    rng = random.Random(40 + extra)
    for i in range(R + extra):
        p = (rng.randint(1, 5), rng.randint(1, 5))
        c = rng.randint(1, 3)
        ds.update(p, c, True)
        pts.append((p, c))
    assert ds.rebuilds == (1 if extra >= 0 else 0)
    assert ds.updates_since == (R + extra) % R if extra >= 0 else R - 1
    if extra >= 0:
        assert len(ds.dirty) == (0 if extra == 0 else 1)
    for lo in range(1, 6):
        b = box2(lo, 5, 1, 5)
        assert ds.query(b) == dcc_oracle(pts, b)


@pytest.mark.parametrize("period", [1, 3, None])
def test_dcc_random_traces(period):
    rng = random.Random(f"dcc.{period}")
    for _ in range(6):
        ds = DynColorCountDS(60, rebuild_period=period)
        live = []
        for _ in range(90):
            r = rng.random()
            if r < 0.5 or not live:
                p = (rng.randint(1, 8), rng.randint(1, 8))
                c = rng.randint(1, 4)
                ds.update(p, c, True)
                live.append((p, c))
            elif r < 0.75:
                p, c = live.pop(rng.randrange(len(live)))
                ds.update(p, c, False)
            else:
                x = sorted(rng.randint(1, 8) for _ in range(2))
                y = sorted(rng.randint(1, 8) for _ in range(2))
                b = box2(x[0], x[1], y[0], y[1])
                assert ds.query(b) == dcc_oracle(live, b)
        assert sorted(map(repr, ds.live_points())) == sorted(map(repr, live))


def test_dcc_dirty_never_exceeds_period():
    ds = DynColorCountDS(100, rebuild_period=5)
    rng = random.Random(9)
    for i in range(40):
        ds.update((rng.randint(1, 4), rng.randint(1, 4)), i, True)
        assert len(ds.dirty) <= ds.R - 1 or ds.updates_since == 0
        assert ds.updates_since < ds.R


def test_dcc_shared_counter():
    vc = VisitCounter()
    ds = DynColorCountDS(50, rebuild_period=50, counter=vc)
    ds.update((1, 1), "a", True)
    assert vc.count > 0
    before = vc.count
    ds.query(box2(1, 1, 1, 1))
    assert vc.count > before


def test_dcc_visits_pinned():
    # seeded churn with duplicate points, deletes, queries and several
    # snapshot rebuilds: the visit total is part of the cost model
    vc = VisitCounter()
    ds = DynColorCountDS(80, rebuild_period=16, counter=vc)
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
    assert dups > 0 and ds.rebuilds >= 2
    assert vc.count == 1236
