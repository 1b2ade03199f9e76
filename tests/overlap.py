"""Box overlap for the tests that check a decomposition's boxes are
pairwise disjoint.  The structures never ask it, so it lives here."""


def intervals_intersect(a, b) -> bool:
    """True when the two `Interval`s share a point, minding open ends."""
    # lo of the overlap vs hi of the overlap
    lo, lo_c = a.lo, a.lo_closed
    if b.lo is not None and (lo is None or b.lo > lo
                             or (b.lo == lo and not b.lo_closed)):
        lo, lo_c = b.lo, b.lo_closed
    hi, hi_c = a.hi, a.hi_closed
    if b.hi is not None and (hi is None or b.hi < hi
                             or (b.hi == hi and not b.hi_closed)):
        hi, hi_c = b.hi, b.hi_closed
    if lo is None or hi is None:
        return True
    if lo > hi:
        return False
    if lo == hi:
        return lo_c and hi_c
    return True


def boxes_intersect(a, b) -> bool:
    """True when the two `Box`es share a point."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return all(map(intervals_intersect, a.intervals, b.intervals))
