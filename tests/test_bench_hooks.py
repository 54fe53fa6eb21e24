"""Every package name the benchmark tracer wraps must exist.

perfbench/tracer.py replaces public functions at the names their callers
look them up.  A rename or deletion in the package would otherwise fail
only the benchmark's own tests, which this suite does not collect.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    saved = list(tracer._saved)
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in saved)
