"""srpcbench's patch points exist where its tracer patches them.

The traced benchmark run (``benchmarks/srpcbench/spans.py``) swaps each
``(owner, attribute)`` of ``targets()`` for a recording wrapper through
``vars(owner)[attribute]``: a callable that moved to a base class or to
another module is a ``KeyError`` that kills the traced run, and an
owner listed twice for one attribute is wrapped twice, so every call
through it counts two spans.  The benchmark's own tests run apart from
this suite; these two checks let a refactor of ``src/`` see the patch
points here.  The module is read and run from its source, not imported
as a package, and nothing is written next to it.
"""

import types
from pathlib import Path

SPANS = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "srpcbench"
    / "spans.py"
)


def load_spans():
    module = types.ModuleType("srpcbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_is_defined_on_its_owner():
    for owner, attribute, _name, _options in load_spans().targets():
        assert attribute in vars(owner), (owner, attribute)


def test_no_owner_is_listed_twice_for_one_attribute():
    seen = set()
    for owner, attribute, _name, _options in load_spans().targets():
        assert (id(owner), attribute) not in seen, (owner, attribute)
        seen.add((id(owner), attribute))
