"""Color structures: two-interval common colors and dynamic 2D color counting.

CommonColorsDS answers "how many switched-on colors occur in both index
ranges" over a fixed array.  Light colors (at most B_thresh occurrences)
contribute k*k occurrence quadruples to a 4-dim count tree; heavy colors are
checked one by one through their sorted occurrence lists.

DynColorCountDS answers distinct-color counts over a dynamic 2D point
multiset with one core_geom.PointMultiset per color, dropped once it empties,
and one emptiness query per color tree.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set

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
        entries = []
        self._quad_keys: Dict[object, List[int]] = {}
        for c in sorted(self.light, key=repr):
            o = self.occ[c] + [m + 1]
            k = len(o) - 1
            qs = [(o[j1], o[j1 + 1], o[j2], o[j2 + 1])
                  for j1 in range(k) for j2 in range(k)]
            start = len(entries)
            entries.extend((q, 1) for q in qs)
            self._quad_keys[c] = list(range(start, start + len(qs)))
        self._tree = RangeTree(4, entries, mode="count", counter=self.counter,
                               sides=("both", "ge", "both", "ge"))

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
    emptiness query per color tree.  A color's tree goes once it empties;
    a deleted point stays declared in its tree until the tree's own bound
    rebuilds it (see PointMultiset), and `rebuilds` counts those rebuilds."""

    def __init__(self, n_cap: int, counter: Optional[VisitCounter] = None):
        if n_cap < 1:
            raise ValueError("capacity must be >= 1")
        self.n_cap = n_cap
        self.counter = counter if counter is not None else VisitCounter()
        self._trees: Dict[object, PointMultiset] = {}
        self.n_live = 0
        self.rebuilds = 0

    def update(self, coords, color, insert: bool) -> None:
        nc = tuple(coords)
        if len(nc) != 2:
            raise ValueError("point dimension mismatch")
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
            self.rebuilds += tree.remove(nc)
            self.n_live -= 1
            if not tree.n_live:
                del self._trees[color]

    def query(self, box: Box) -> int:
        if box.dim != 2:
            raise ValueError("query box dimension mismatch")
        return sum(not tree.is_empty(box) for tree in self._trees.values())
