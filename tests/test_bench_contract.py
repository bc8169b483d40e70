"""Every function the benchmark's tracer wraps must exist where it looks it up.

``perfbench/tracer.py`` replaces module and class attributes by name, so a
rename or deletion in ``hddrul`` would otherwise surface only as a failed
traced benchmark run. ``perfbench/run.py`` is not imported: it sets the BLAS
thread variables at import.
"""
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_attribute_exists():
    targets = _load_tracer()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
