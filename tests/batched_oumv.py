"""The OuMv solvers that tests run next to `oumv_bruteforce`: a baseline that
rescans M on every query, and the driver that splits [N]^k into blocks with
one inner solver each.  No structure or reduction uses them, so they live
here."""
import itertools
from typing import Callable, List, Optional, Sequence, Set, Tuple

from dynds.tensor_ds import _check_oumv, oumv_bruteforce


class OuMvBrute:
    """Baseline online solver: rescans M on every query."""

    def __init__(self, M, N: int, k: int):
        self.M = _check_oumv(M, N, k)
        self.N = N
        self.k = k

    def query(self, us: Sequence[Set[int]]) -> bool:
        return oumv_bruteforce(self.M, self.N, self.k, us)

    def reset(self) -> None:
        pass


class BatchedOuMv:
    """Splits [N]^k into side sub_size blocks, one inner solver per block.

    Queries are intersected and translated into each block's local
    coordinates and the block answers are OR-ed.  Every phase_size queries
    all inner solvers are reset first, which lets phase-limited solvers be
    reused indefinitely.
    """

    def __init__(self, M, N: int, k: int, sub_size: int,
                 factory: Callable, phase_size: Optional[int] = None):
        if sub_size < 1:
            raise ValueError("sub_size must be >= 1")
        if phase_size is not None and phase_size < 1:
            raise ValueError("phase_size must be >= 1")
        ms = _check_oumv(M, N, k)
        self.N = N
        self.k = k
        self.n = sub_size
        g = -(-N // sub_size)
        self.g = g
        self.cells: List[Tuple[tuple, object]] = []
        for c in itertools.product(range(g), repeat=k):
            base = tuple(ci * sub_size for ci in c)
            sub = {tuple(ai - base[i] for i, ai in enumerate(a))
                   for a in ms
                   if all(base[i] < a[i] <= base[i] + sub_size
                          for i in range(k))}
            self.cells.append((base, factory(sub, sub_size, k)))
        self.phase_size = phase_size
        self.queries_done = 0

    def query(self, us: Sequence[Set[int]]) -> bool:
        if len(us) != self.k:
            raise ValueError("need k index sets")
        for u in us:
            if any(not 1 <= j <= self.N for j in u):
                raise ValueError("index set out of range")
        if self.phase_size is not None and self.queries_done >= self.phase_size:
            self.reset()
        ans = False
        for base, solver in self.cells:
            local = [{j - base[i] for j in us[i]
                      if base[i] < j <= base[i] + self.n}
                     for i in range(self.k)]
            if solver.query(local):
                ans = True
        self.queries_done += 1
        return ans

    def reset(self) -> None:
        for _, solver in self.cells:
            solver.reset()
        self.queries_done = 0
