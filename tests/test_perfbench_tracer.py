"""perfbench's traced spans name methods the program still defines.

The tracer reports a listed method that its class no longer defines instead
of wrapping it, so a rename or a refactor would otherwise drop that span's
per-layer metric from a traced run without any error.  It also patches
`VisitCounter.add` on the class and reads the `rebuilds` attribute of the
structures it tallies, which the tests below check too.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracer  # noqa: E402
from dynds.colors import DynColorCountDS  # noqa: E402
from dynds.core_geom import VisitCounter  # noqa: E402
from dynds.geom_dyn import SemiOnlineEngine, Skyline3DBlock  # noqa: E402
from dynds.range_mode import SequenceAdapter  # noqa: E402


def test_every_traced_method_is_defined_on_its_owner():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.METHODS
               if attr not in owner.__dict__]
    assert missing == []


def test_visit_counter_add_is_a_class_method():
    # the tracer wraps VisitCounter.__dict__["add"] to attribute visits
    assert "add" in VisitCounter.__dict__


def test_tallied_structures_expose_rebuilds():
    made = [DynColorCountDS(4), SequenceAdapter(4),
            SemiOnlineEngine(Skyline3DBlock(), 4)]
    assert [type(ds).__name__ for ds in made
            if not isinstance(getattr(ds, "rebuilds", None), int)] == []
