"""The benchmark's tracer wraps braidkit functions by name: every target it
names must still exist, so that a rename fails here and not only in a
traced benchmark run."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Tracer.install looks each target up in its owner's own namespace
    missing = [(owner.__name__, attr) for owner, attr, *_ in tracing.TARGETS
               if not callable(owner.__dict__.get(attr))]
    assert len(tracing.TARGETS) > 40
    assert not missing
