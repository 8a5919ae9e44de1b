"""Every function the per-layer tracer in perfbench/spans.py wraps exists.

The tracer finds its targets by module and attribute name when a traced
run starts, so a renamed function would only show up there.  spans.py is
loaded from its file and only its target tables are read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def target_tables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {**spans.SPAN_TARGETS, **spans.COUNTER_TARGETS}


@pytest.mark.parametrize("name,target", sorted(target_tables().items()))
def test_span_target_resolves(name, target):
    mod_name, path = target
    module = importlib.import_module(f"partmorse.{mod_name}")
    if "." in path:
        # the tracer replaces cls.__dict__[method], so the class itself
        # must bind the method, not only inherit it
        cls_name, method = path.split(".")
        raw = getattr(module, cls_name).__dict__[method]
        assert callable(getattr(raw, "__func__", raw))  # a classmethod wraps its function
    else:
        assert callable(getattr(module, path))
