"""Union volume of equal-side cubes by inclusion-exclusion, the reference
that the tests hold `geom_dyn.klee_union_volume` to.  It is exponential in
the cube count and the structures never ask it, so it lives here."""
from fractions import Fraction
from itertools import combinations
from typing import Sequence


def klee_union_volume_ie(corners: Sequence[tuple], side) -> Fraction:
    """Inclusion-exclusion union volume; exponential in the cube count."""
    if not corners:
        return Fraction(0)
    d = len(corners[0])
    s = Fraction(side)
    total = Fraction(0)
    m = len(corners)
    for r in range(1, m + 1):
        for sub in combinations(range(m), r):
            v = Fraction(1)
            for i in range(d):
                lo = max(Fraction(corners[j][i]) - s for j in sub)
                hi = min(Fraction(corners[j][i]) for j in sub)
                if hi <= lo:
                    v = Fraction(0)
                    break
                v *= hi - lo
            total += v if r % 2 == 1 else -v
    return total
