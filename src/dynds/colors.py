"""Color structures: two-interval common colors and dynamic 2D color counting.

CommonColorsDS answers "how many switched-on colors occur in both index
ranges" over a fixed array.  Light colors (at most B_thresh occurrences)
contribute k*k occurrence quadruples to a 4-dim count tree; heavy colors are
checked one by one through their sorted occurrence lists.

DynColorCountDS answers distinct-color counts over a dynamic 2D point
multiset by pairing a periodically rebuilt static snapshot with per-color
live/snapshot emptiness corrections for the colors dirtied since the last
rebuild.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core_geom import Box, Interval, RangeTree, VisitCounter, _norm_coord

__all__ = [
    "cc_oracle",
    "docs_oracle",
    "CommonColorsDS",
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


# ---------------- dynamic 2D color counting ----------------

class _ColorTree:
    """Per-color 2D count tree over a point multiset (copy-indexed entries)."""

    def __init__(self, counter: VisitCounter):
        self.tree = RangeTree(2, mode="count", counter=counter)
        self.keys: Dict[tuple, int] = {}
        self.occ: Counter = Counter()

    def toggle_point(self, nc: tuple, insert: bool) -> None:
        if insert:
            self.occ[nc] += 1
            copy = self.occ[nc]
            k = self.keys.get((nc, copy))
            if k is None:
                (k,) = self.tree.extend([(nc, 1)])
                self.keys[(nc, copy)] = k
            self.tree.toggle(k, True)
        else:
            if self.occ[nc] <= 0:
                raise ValueError(f"delete of absent point {nc}")
            copy = self.occ[nc]
            self.tree.toggle(self.keys[(nc, copy)], False)
            self.occ[nc] -= 1
            if self.occ[nc] == 0:
                del self.occ[nc]

    def nonempty(self, box: Box) -> bool:
        return not self.tree.is_empty(box)


class DynColorCountDS:
    """Distinct-color box counting with periodic snapshot rebuilds."""

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
        self._live: Dict[object, _ColorTree] = {}
        self._snap: Dict[object, RangeTree] = {}
        self.dirty: Set = set()
        self.n_live = 0
        self.updates_since = 0
        self.rebuilds = 0

    def update(self, coords, color, insert: bool) -> None:
        nc = tuple(_norm_coord(c) for c in coords)
        if len(nc) != 2:
            raise ValueError("points must be 2-dimensional")
        if insert and self.n_live >= self.n_cap:
            raise ValueError(f"capacity {self.n_cap} exceeded")
        ct = self._live.get(color)
        if ct is None:
            ct = self._live[color] = _ColorTree(self.counter)
        ct.toggle_point(nc, insert)
        self.n_live += 1 if insert else -1
        self.dirty.add(color)
        self.updates_since += 1
        if self.updates_since >= self.R:
            self._rebuild()

    def _rebuild(self) -> None:
        """Rebuild the static snapshot from the live multiset; clears dirty."""
        self.rebuilds += 1
        self.counter.pause()
        try:
            self._snap = {}
            for color, ct in self._live.items():
                if not ct.occ:
                    continue
                entries = []
                for nc, mult in ct.occ.items():
                    entries.extend((nc, 1) for _ in range(mult))
                tree = RangeTree(2, entries, mode="count", counter=self.counter)
                for k in range(len(entries)):
                    tree.toggle(k, True)
                self._snap[color] = tree
        finally:
            self.counter.resume()
        self.dirty.clear()
        self.updates_since = 0

    def query(self, box: Box) -> int:
        total = 0
        for color, tree in self._snap.items():
            if not tree.is_empty(box):
                total += 1
        for color in self.dirty:
            live = self._live.get(color)
            live_hit = live is not None and live.nonempty(box)
            snap = self._snap.get(color)
            snap_hit = snap is not None and not snap.is_empty(box)
            total += int(live_hit) - int(snap_hit)
        return total

    def live_points(self) -> List[Tuple[tuple, object]]:
        out = []
        for color, ct in self._live.items():
            for nc, mult in ct.occ.items():
                out.extend((nc, color) for _ in range(mult))
        return out
