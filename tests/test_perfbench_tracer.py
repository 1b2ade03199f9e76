"""perfbench's traced spans name methods the program still defines.

The tracer reports a listed method that its class no longer defines instead
of wrapping it, so a rename or a refactor would otherwise drop that span's
per-layer metric from a traced run without any error.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracer  # noqa: E402


def test_every_traced_method_is_defined_on_its_owner():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.METHODS
               if attr not in owner.__dict__]
    assert missing == []
