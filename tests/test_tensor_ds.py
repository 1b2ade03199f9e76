import itertools
import random

import pytest

from dynds.tensor_ds import (
    EricksonEager,
    EricksonLazy,
    HypercliqueCounting,
    HypercliqueLazy,
    LangermanDS,
    Tensor,
    oumv_bruteforce,
)
from batched_oumv import BatchedOuMv, OuMvBrute


# ---------------- tensor ----------------

def test_tensor_indexing():
    t = Tensor((2, 3))
    t[1, 1] = 5
    t[2, 3] = 7
    assert t[1, 1] == 5 and t[2, 3] == 7
    t.add((2, 3), -2)
    assert t[2, 3] == 5
    assert len(list(t.indices())) == 6
    with pytest.raises(IndexError):
        t[0, 1]
    with pytest.raises(IndexError):
        t[2, 4]
    with pytest.raises(ValueError):
        t[1, 1, 1]
    with pytest.raises(ValueError):
        Tensor(())
    with pytest.raises(ValueError):
        Tensor((3, 0))


def brute_prefix(t, x):
    return sum(t[y] for y in itertools.product(
        *(range(1, xi + 1) for xi in x)))


@pytest.mark.parametrize("extents", [(5,), (3, 4), (2, 3, 2)])
def test_tensor_prefix_sums(extents):
    rng = random.Random(hash(extents) & 0xFFFF)
    t = Tensor(extents)
    for x in t.indices():
        t[x] = rng.randint(-4, 4)
    p = t.prefix_sums()
    for x in t.indices():
        assert p[x] == brute_prefix(t, x)


# ---------------- prefix-zero detection ----------------

def zero_prefix_oracle(t) -> bool:
    return any(brute_prefix(t, x) == 0 for x in t.indices())


def test_langerman_block_defaults():
    assert LangermanDS((16,)).B == 4
    assert LangermanDS((1024,)).B == 32
    assert LangermanDS((9, 9)).B == 2
    assert LangermanDS((60, 60)).B == 4
    assert LangermanDS((5,), B=1).B == 1


def test_langerman_hand_example():
    ds = LangermanDS((6,), B=2)
    # all-zero array: prefix zero everywhere
    assert ds.exists_zero()
    ds.update((1,), 1)
    assert not ds.exists_zero()
    ds.update((4,), -1)   # prefix hits zero from index 4 on
    assert ds.exists_zero()
    ds.update((6,), 5)
    assert ds.prefix((6,)) == 5
    assert ds.prefix((5,)) == 0
    assert ds.exists_zero()


def test_langerman_initial_tensor():
    t = Tensor((4,))
    t[1,] = 2
    t[3,] = -2
    ds = LangermanDS((4,), B=2, initial=t)
    assert ds.prefix((2,)) == 2
    assert ds.prefix((3,)) == 0
    assert ds.exists_zero()
    ds.update((3,), 1)
    assert not ds.exists_zero()


@pytest.mark.parametrize("extents,B", [
    ((12,), None), ((12,), 1), ((30,), 7),
    ((4, 5), None), ((4, 5), 3), ((3, 3, 3), 2), ((9, 2), 4),
])
def test_langerman_random_traces(extents, B, monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rng = random.Random(hash((extents, B)) & 0xFFFF)
    for _ in range(4):
        ds = LangermanDS(extents, B=B)
        mirror = Tensor(extents)
        for _ in range(30):
            if rng.random() < 0.6:
                z = tuple(rng.randint(1, e) for e in extents)
                delta = rng.choice([-2, -1, 0, 1, 2])
                ds.update(z, delta)
                mirror.add(z, delta)
            else:
                assert ds.exists_zero() == zero_prefix_oracle(mirror)
        for x in mirror.indices():
            assert ds.prefix(x) == brute_prefix(mirror, x)


def _langerman_update_visits(extents, B, z):
    """|grid anchors dominating z| + |cells at or past z whose anchor lags
    behind z on some axis|, both counted over every cell."""
    cells = list(Tensor(extents).indices())
    anchors = sum(all(xi % B == 0 and xi >= zi for xi, zi in zip(x, z))
                  for x in cells)
    lagging = sum(all(xi >= zi for xi, zi in zip(x, z))
                  and any(xi // B * B < zi for xi, zi in zip(x, z))
                  for x in cells)
    return anchors + lagging


@pytest.mark.parametrize("extents,B", [
    ((7,), 1), ((7,), 2), ((7,), 3), ((9,), 3),
    ((5, 4), 1), ((7, 5), 2), ((7, 5), 3), ((6, 6), 3), ((4, 6), 5),
    ((5, 4, 3), 1), ((5, 4, 3), 2), ((7, 5, 6), 3),
])
def test_langerman_update_visits_exact(extents, B, monkeypatch):
    # every z, block boundaries on some axes and not others among them; the
    # debug check also pins each flat cell's block multiset
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rng = random.Random(f"{extents}/{B}")
    ds = LangermanDS(extents, B=B)
    mirror = Tensor(extents)
    mixed = False
    for z in Tensor(extents).indices():
        on = [zi % B == 0 for zi in z]
        mixed |= any(on) and not all(on)
        delta = rng.choice([-2, -1, 1, 2])
        before = ds.counter.count
        ds.update(z, delta)
        mirror.add(z, delta)
        assert ds.counter.count - before == _langerman_update_visits(
            extents, B, z), z
    assert mixed or B == 1 or len(extents) == 1
    for x in mirror.indices():
        assert ds.prefix(x) == brute_prefix(mirror, x)


def test_langerman_debug_check_pins_block_of_each_cell():
    ds = LangermanDS((4, 4), B=2)
    ds._debug_check()
    ds._blk_of[5] = ds._blk_of[0]             # cell (2, 2) lives in block (1, 1)
    with pytest.raises(RuntimeError, match="flat cell's block multiset"):
        ds._debug_check()


def test_langerman_counter_budget():
    n = 400
    ds = LangermanDS((n,))
    assert ds.B == 20
    rng = random.Random(3)
    for _ in range(40):
        before = ds.counter.count
        ds.update((rng.randint(1, n),), 1)
        assert ds.counter.count - before <= 8 * (n // ds.B + ds.B + 2)
        before = ds.counter.count
        ds.exists_zero()
        assert ds.counter.count - before <= 2 * (n // ds.B + 1)


@pytest.mark.parametrize("extents,B", [
    ((7,), 1), ((7,), 3), ((5, 4), 1), ((7, 5), 2), ((4, 3, 3), 1),
    ((5, 4, 3), 2),
])
def test_langerman_scan_stops_at_first_zero_block(extents, B):
    # exists_zero charges one visit per block, the blocks in lexicographic
    # order of their index t = x // B, up to and including the first that
    # holds a zero prefix, or every block when none does.  A cell's
    # residual is its prefix minus its anchor's, P(B * t), or minus 0 when
    # some t_i is 0; its prefix is zero when the residual is -anchor.
    rng = random.Random(f"scan/{extents}/{B}")
    stops = set()
    for trial in range(8):
        mirror = Tensor(extents)
        for x in mirror.indices():
            mirror[x] = rng.choice([-1, 0, 1, 2] if trial % 2 else [1, 2])
        if trial == 0:                 # a zero prefix in the first block
            mirror[(1,) * len(extents)] = 0
        ds = LangermanDS(extents, B=B, initial=mirror)
        for _ in range(6):
            blocks = {}
            for x in mirror.indices():
                t = tuple(xi // B for xi in x)
                anchor = 0 if 0 in t else brute_prefix(
                    mirror, tuple(ti * B for ti in t))
                res = brute_prefix(mirror, x) - anchor
                blocks.setdefault(t, []).append(res == -anchor)
            order = sorted(blocks)
            hits = [i for i, t in enumerate(order) if any(blocks[t])]
            want = hits[0] + 1 if hits else len(order)
            before = ds.counter.count
            assert ds.exists_zero() == bool(hits)
            assert ds.counter.count - before == want
            stops.add("none" if not hits else "first" if want == 1 else
                      "later")
            z = tuple(rng.randint(1, e) for e in extents)
            delta = rng.choice([-2, -1, 1, 2])
            ds.update(z, delta)
            mirror.add(z, delta)
    assert stops == {"none", "first", "later"}


def test_langerman_update_validation():
    ds = LangermanDS((4, 4))
    with pytest.raises(IndexError):
        ds.update((5, 1), 1)
    with pytest.raises(ValueError):
        ds.update((1,), 1)
    with pytest.raises(ValueError):
        LangermanDS((4,), B=0)


# ---------------- slab increments with max ----------------

def erickson_pair(extents, seed):
    rng = random.Random(seed)
    t = Tensor(extents)
    for x in t.indices():
        t[x] = rng.randint(0, 5)
    return t, rng


@pytest.mark.parametrize("extents", [(6,), (4, 4), (3, 3, 3)])
def test_erickson_variants_agree(extents):
    t, rng = erickson_pair(extents, hash(extents) & 0xFFFF)
    lazy = EricksonLazy(t)
    eager = EricksonEager(t)
    mirror = t.copy()
    for _ in range(50):
        if rng.random() < 0.6:
            ax = rng.randrange(len(extents))
            idx = rng.randint(1, extents[ax])
            lazy.increment(ax, idx)
            eager.increment(ax, idx)
            for x in mirror.indices():
                if x[ax] == idx:
                    mirror.add(x, 1)
        else:
            want = max(mirror[x] for x in mirror.indices())
            assert lazy.max_value() == want
            assert eager.max_value() == want
            probe = tuple(rng.randint(1, e) for e in extents)
            assert lazy.value(probe) == mirror[probe]
            assert eager.value(probe) == mirror[probe]


def test_erickson_validation():
    t = Tensor((3, 3))
    for ds in (EricksonLazy(t), EricksonEager(t)):
        with pytest.raises(ValueError):
            ds.increment(2, 1)
        with pytest.raises(ValueError):
            ds.increment(0, 4)


@pytest.mark.parametrize("extents", [(5,), (3, 4), (2, 3, 2)])
def test_erickson_eager_running_max(extents):
    # every 3rd step raises a slab through a max cell, which lifts the max
    # by one; the other steps raise a random slab, which may leave it; one
    # visit per slab cell and one per max query
    rng = random.Random(sum(extents))
    t = Tensor(extents)
    for x in t.indices():
        t[x] = rng.randint(-3, 3)
    eager = EricksonEager(t)
    cells = len(t.data)
    assert eager.max_value() == max(eager.vals.data)
    visits, lifted = 1, 0
    for step in range(150):
        ax = rng.randrange(len(extents))
        top = max(eager.vals.data)
        if step % 3 == 0:
            x = next(x for x in eager.vals.indices() if eager.vals[x] == top)
            idx = x[ax]
        else:
            idx = rng.randint(1, extents[ax])
        eager.increment(ax, idx)
        lifted += max(eager.vals.data) > top
        visits += cells // extents[ax]
        assert eager.counter.count == visits
        assert eager.max_value() == max(eager.vals.data)
        visits += 1
        assert eager.counter.count == visits
    assert lifted >= 50


def test_erickson_update_cost_split():
    t = Tensor((8, 8))
    lazy, eager = EricksonLazy(t), EricksonEager(t)
    lazy.increment(0, 3)
    eager.increment(0, 3)
    assert lazy.counter.count == 1
    assert eager.counter.count == 8
    lazy.max_value()
    assert lazy.counter.count == 1 + 64


# ---------------- hypergraph cliques ----------------

def clique_oracle(vertices, edges, k, v):
    for cand in itertools.combinations(vertices, k + 1):
        if v in cand and all(frozenset(c) in edges
                             for c in itertools.combinations(cand, k)):
            return True
    return False


def test_hyperclique_triangle():
    for cls in (HypercliqueLazy, HypercliqueCounting):
        hc = cls([1, 2, 3, 4], 2)
        hc.insert({1, 2})
        hc.insert({2, 3})
        assert not hc.query(2)
        hc.insert({1, 3})
        assert hc.query(1) and hc.query(2) and hc.query(3)
        assert not hc.query(4)
        hc.delete({2, 3})
        assert not hc.query(1)


def test_hyperclique_validation():
    for cls in (HypercliqueLazy, HypercliqueCounting):
        hc = cls(["a", "b", "c"], 2)
        with pytest.raises(ValueError):
            hc.insert({"a"})
        with pytest.raises(ValueError):
            hc.insert({"a", "z"})
        hc.insert({"a", "b"})
        with pytest.raises(ValueError):
            hc.insert({"a", "b"})
        with pytest.raises(ValueError):
            hc.delete({"b", "c"})
        with pytest.raises(ValueError):
            hc.query("z")
        with pytest.raises(ValueError):
            cls(["a", "a"], 2)
        with pytest.raises(ValueError):
            cls(["a", "b"], 1)


@pytest.mark.parametrize("k,nv", [(2, 6), (3, 6)])
def test_hyperclique_random_cross(k, nv):
    rng = random.Random(100 * k + nv)
    verts = list(range(1, nv + 1))
    lazy = HypercliqueLazy(verts, k)
    cnt = HypercliqueCounting(verts, k)
    edges = set()
    all_edges = [frozenset(c) for c in itertools.combinations(verts, k)]
    for _ in range(120):
        if rng.random() < 0.6:
            e = rng.choice(all_edges)
            if e in edges:
                lazy.delete(e)
                cnt.delete(e)
                edges.discard(e)
            else:
                lazy.insert(e)
                cnt.insert(e)
                edges.add(e)
        else:
            v = rng.choice(verts)
            want = clique_oracle(verts, edges, k, v)
            assert lazy.query(v) == want
            assert cnt.query(v) == want


# ---------------- OuMv baseline and batched driver ----------------

def test_oumv_bruteforce_basic():
    M = {(1, 2), (3, 3)}
    assert oumv_bruteforce(M, 3, 2, [{1}, {2}])
    assert not oumv_bruteforce(M, 3, 2, [{1}, {3}])
    assert oumv_bruteforce(M, 3, 2, [{1, 3}, {3}])
    assert not oumv_bruteforce(M, 3, 2, [set(), {1, 2, 3}])
    assert not oumv_bruteforce(set(), 3, 2, [{1}, {1}])


def test_oumv_validation():
    with pytest.raises(ValueError):
        oumv_bruteforce({(1, 4)}, 3, 2, [{1}, {1}])
    with pytest.raises(ValueError):
        oumv_bruteforce({(1,)}, 3, 2, [{1}, {1}])
    with pytest.raises(ValueError):
        oumv_bruteforce({(1, 1)}, 3, 2, [{1}])
    with pytest.raises(ValueError):
        oumv_bruteforce({(1, 1)}, 3, 2, [{0}, {1}])


@pytest.mark.parametrize("sub_size", [1, 2, 3, 4, 5])
def test_batched_driver_matches_brute(sub_size):
    rng = random.Random(10 + sub_size)
    for _ in range(30):
        N, k = 4, 2
        M = {tuple(rng.randint(1, N) for _ in range(k))
             for _ in range(rng.randint(0, 6))}
        drv = BatchedOuMv(M, N, k, sub_size, OuMvBrute, phase_size=3)
        for _ in range(8):
            us = [{j for j in range(1, N + 1) if rng.random() < 0.4}
                  for _ in range(k)]
            assert drv.query(us) == oumv_bruteforce(M, N, k, us)


def test_batched_driver_k3():
    rng = random.Random(77)
    N, k = 3, 3
    M = {tuple(rng.randint(1, N) for _ in range(k)) for _ in range(5)}
    drv = BatchedOuMv(M, N, k, 2, OuMvBrute)
    for _ in range(12):
        us = [{j for j in range(1, N + 1) if rng.random() < 0.5}
              for _ in range(k)]
        assert drv.query(us) == oumv_bruteforce(M, N, k, us)


class RecordingSolver(OuMvBrute):
    resets = 0

    def reset(self):
        RecordingSolver.resets += 1


def test_batched_driver_phase_resets():
    RecordingSolver.resets = 0
    drv = BatchedOuMv({(1, 1)}, 2, 2, 1, RecordingSolver, phase_size=2)
    ncells = len(drv.cells)
    assert ncells == 4
    for _ in range(5):
        drv.query([{1}, {1}])
    # resets fire before queries 3 and 5
    assert RecordingSolver.resets == 2 * ncells


def test_batched_driver_validation():
    with pytest.raises(ValueError):
        BatchedOuMv(set(), 3, 2, 0, OuMvBrute)
    with pytest.raises(ValueError):
        BatchedOuMv(set(), 3, 2, 2, OuMvBrute, phase_size=0)
    drv = BatchedOuMv(set(), 3, 2, 2, OuMvBrute)
    with pytest.raises(ValueError):
        drv.query([{1}])
    with pytest.raises(ValueError):
        drv.query([{4}, {1}])
