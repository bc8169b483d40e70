"""Every function the benchmark's tracer wraps must exist where it looks it up.

``perfbench/tracer.py`` replaces module and class attributes by name, so a
rename or deletion in ``hddrul`` would otherwise surface only as a failed
traced benchmark run.
"""


def test_every_traced_attribute_exists(load_perfbench):
    targets = load_perfbench("tracer")._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
