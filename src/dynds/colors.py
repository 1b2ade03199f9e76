"""Color structures: two-interval common colors and dynamic 2D color counting.

CommonColorsDS answers "how many switched-on colors occur in both index
ranges" over a fixed array.  Light colors (at most B_thresh occurrences)
contribute k*k occurrence quadruples to a 4-dim count tree; heavy colors are
checked one by one through their sorted occurrence lists.

DynColorCountDS answers distinct-color counts over a dynamic 2D point
multiset with one core_geom.PointMultiset per color, one emptiness query per
color tree, and every R updates a packed rebuild of the trees of the colors
changed since the last one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core_geom import Box, Interval, PointMultiset, RangeTree, VisitCounter

__all__ = [
    "cc_oracle",
    "docs_oracle",
    "CommonColorsDS",
    "CommonColorsScan",
    "dcc_oracle",
    "DynColorCountDS",
]


# ---------------- oracles ----------------

def cc_oracle(array: Sequence, on: Set, l1: int, r1: int, l2: int, r2: int) -> int:
    """Count of on colors occurring in both A[l1..r1] and A[l2..r2] by scan."""
    m = len(array)
    if not (1 <= l1 <= r1 <= m and 1 <= l2 <= r2 <= m):
        raise ValueError("bad interval")
    c1 = {c for c in array[l1 - 1:r1] if c in on}
    c2 = {c for c in array[l2 - 1:r2] if c in on}
    return len(c1 & c2)


def docs_oracle(docs: Sequence[Set], on: Set, s1, s2) -> int:
    """Count of on documents containing both symbols, by scan."""
    return sum(1 for i, d in enumerate(docs) if i in on and s1 in d and s2 in d)


def dcc_oracle(points, box: Box) -> int:
    """Distinct colors among live points in box; points: (coords, color)."""
    return len({color for coords, color in points if box.contains(coords)})


# ---------------- common colors over a fixed array ----------------

class CommonColorsDS:
    """Two-interval common-color counting over a fixed array with color toggles."""

    def __init__(self, array: Sequence, B_thresh: Optional[int] = None,
                 counter: Optional[VisitCounter] = None):
        if B_thresh is not None and B_thresh < 1:
            raise ValueError("B_thresh must be >= 1")
        self.array = list(array)
        m = len(self.array)
        self.m = m
        self.B = B_thresh if B_thresh is not None \
            else max(1, round(m ** (1.0 / 3.0)))
        self.counter = counter if counter is not None else VisitCounter()
        self.occ: Dict[object, List[int]] = {}
        for i, c in enumerate(self.array, start=1):
            self.occ.setdefault(c, []).append(i)
        self.light = {c for c, o in self.occ.items() if len(o) <= self.B}
        self.heavy = set(self.occ) - self.light
        self._on: Set = set()
        # k*k quadruples per light color; i_{k+1} is the sentinel m+1
        self.quads: Dict[object, List[Tuple[int, int, int, int]]] = {}
        entries = []
        self._quad_keys: Dict[object, List[int]] = {}
        for c in sorted(self.light, key=repr):
            o = self.occ[c] + [m + 1]
            k = len(o) - 1
            qs = [(o[j1], o[j1 + 1], o[j2], o[j2 + 1])
                  for j1 in range(k) for j2 in range(k)]
            self.quads[c] = qs
            start = len(entries)
            entries.extend((q, 1) for q in qs)
            self._quad_keys[c] = list(range(start, start + len(qs)))
        self._tree = RangeTree(4, entries, mode="count", counter=self.counter)

    def set_on(self, color, flag: bool) -> None:
        if color not in self.occ:
            raise KeyError(f"unknown color {color!r}")
        if (color in self._on) == flag:
            return
        if flag:
            self._on.add(color)
        else:
            self._on.discard(color)
        if color in self.light:
            for k in self._quad_keys[color]:
                self._tree.toggle(k, flag)

    def is_on(self, color) -> bool:
        return color in self._on

    def _occurs(self, color, l: int, r: int) -> bool:
        o = self.occ[color]
        i = bisect_left(o, l)
        return i < len(o) and o[i] <= r

    def query(self, l1: int, r1: int, l2: int, r2: int) -> int:
        m = self.m
        if not (1 <= l1 <= r1 <= m and 1 <= l2 <= r2 <= m):
            raise ValueError("bad interval")
        box = Box([
            Interval.closed(l1, r1), Interval.at_least(r1 + 1),
            Interval.closed(l2, r2), Interval.at_least(r2 + 1),
        ])
        total = self._tree.count(box)
        for c in self.heavy:
            if c in self._on:
                self.counter.add(1)
                if self._occurs(c, l1, r1) and self._occurs(c, l2, r2):
                    total += 1
        return total


class CommonColorsScan:
    """Scan oracle for `CommonColorsDS`: the switched-on colors as a set,
    and `query` is `cc_oracle`."""

    def __init__(self, array: Sequence):
        self.array = list(array)
        self.on: Set = set()

    def set_on(self, color, flag: bool) -> None:
        if color not in self.array:
            raise KeyError(f"unknown color {color!r}")
        (self.on.add if flag else self.on.discard)(color)

    def query(self, l1: int, r1: int, l2: int, r2: int) -> int:
        return cc_oracle(self.array, self.on, l1, r1, l2, r2)


# ---------------- dynamic 2D color counting ----------------

class DynColorCountDS:
    """Distinct-color box counting: one PointMultiset per color, and one
    emptiness query per color tree.  A deleted point stays declared in its
    tree, so every R updates `_rebuild` packs the `dirty` colors' trees over
    their live points and drops the emptied ones (global rebuilding,
    Overmars 1983); its visits are counted."""

    def __init__(self, n_cap: int, rebuild_period: Optional[int] = None,
                 counter: Optional[VisitCounter] = None):
        if n_cap < 1:
            raise ValueError("capacity must be >= 1")
        if rebuild_period is not None and rebuild_period < 1:
            raise ValueError("rebuild period must be >= 1")
        self.n_cap = n_cap
        self.R = rebuild_period if rebuild_period is not None \
            else max(1, round(n_cap ** (2.0 / 3.0)))
        self.counter = counter if counter is not None else VisitCounter()
        self._trees: Dict[object, PointMultiset] = {}
        self.dirty: Set = set()
        self.n_live = 0
        self.updates_since = 0
        self.rebuilds = 0

    def update(self, coords, color, insert: bool) -> None:
        nc = tuple(coords)
        if len(nc) != 2:
            raise ValueError("points must be 2-dimensional")
        tree = self._trees.get(color)
        if insert:
            if self.n_live >= self.n_cap:
                raise ValueError(f"capacity {self.n_cap} exceeded")
            if tree is None:
                tree = self._trees[color] = PointMultiset(
                    2, counter=self.counter)
            tree.add(nc)
            self.n_live += 1
        else:
            if tree is None or nc not in tree.occ:
                raise ValueError(f"delete of absent point {coords} "
                                 f"label {color!r}")
            tree.remove(nc)
            self.n_live -= 1
        self.dirty.add(color)
        self.updates_since += 1
        if self.updates_since >= self.R:
            self._rebuild()

    def _rebuild(self) -> None:
        """Rebuild each dirty color's tree packed, or drop it once empty;
        clears dirty."""
        self.rebuilds += 1
        trees = self._trees
        for color in self.dirty:
            occ = trees[color].occ
            if occ:
                trees[color] = PointMultiset(2, occ.elements(),
                                             counter=self.counter)
            else:
                del trees[color]
        self.dirty.clear()
        self.updates_since = 0

    def query(self, box: Box) -> int:
        return sum(not tree.is_empty(box) for tree in self._trees.values())
