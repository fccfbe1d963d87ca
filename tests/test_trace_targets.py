"""Every function the benchmark's tracer wraps must still exist.

perfbench/spans.py names its targets as (module, owner, attribute) triples in
LAYERS and resolves them only when a traced run (--trace 1) installs the
tracer, so a renamed or deleted target would break that run and nothing
else.  This test resolves each triple the way Tracer.install does.
"""

import dataclasses
import importlib
import importlib.util
import os

import pytest

_SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


_SPANS_MODULE = _layers()
_TARGETS = [(group, modname, owner, attr)
            for group, _stats, targets, _role in _SPANS_MODULE.LAYERS
            for modname, owner, attr in targets]


@pytest.mark.parametrize("group, modname, owner, attr", _TARGETS,
                         ids=[f"{g}:{o or m}.{a}" for g, m, o, a in _TARGETS])
def test_trace_target_resolves(group, modname, owner, attr):
    mod = importlib.import_module(f"bollobas_lab.{modname}")
    if owner is None:
        assert callable(getattr(mod, attr, None))
    elif owner.startswith("subclasses:"):
        base = getattr(mod, owner.split(":", 1)[1])
        assert any(attr in cls.__dict__
                   for cls in _SPANS_MODULE._subclasses(base))
    elif owner.startswith("instances:"):
        cls = getattr(mod, owner.split(":", 1)[1])
        assert attr in {f.name for f in dataclasses.fields(cls)}
    else:
        assert callable(getattr(mod, owner).__dict__.get(attr))
