"""A target wrapper that keeps what an OuMv driver measures, so that tests
can check each measurement against its closed form."""
from dynds.reductions import red_oumvk_erickson, red_oumvk_skyline


class Recording:
    """Forwards every call to `target`, and keeps each result of `count()`
    and `max_value()` in `seen`, in call order."""

    def __init__(self, target):
        self.target = target
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.target, name)

    def count(self):
        self.seen.append(self.target.count())
        return self.seen[-1]

    def max_value(self):
        self.seen.append(self.target.max_value())
        return self.seen[-1]


def skyline_counts(inst, target):
    """red_oumvk_skyline's answers on `target` and, per query, the N + 1
    counts c_0..c_N it measured."""
    rec = Recording(target)
    answers = red_oumvk_skyline(inst, rec)
    n = inst.n + 1
    assert len(rec.seen) == n * len(inst.queries)
    return answers, [rec.seen[i:i + n] for i in range(0, len(rec.seen), n)]


def erickson_maxima(inst, target):
    """red_oumvk_erickson's answers on `target` and the one max it measured
    per phase."""
    rec = Recording(target)
    answers = red_oumvk_erickson(inst, rec)
    return answers, rec.seen
