"""Every function the benchmark's tracer wraps must exist where it looks it up.

``perfbench/tracer.py`` replaces module and class attributes by name, so a
rename or deletion in ``hddrul`` would otherwise surface only as a failed
traced benchmark run.
"""
from hddrul import dataset as ds
from hddrul.cli import main
from test_cli import _config_file, _write_snapshots


def test_every_traced_attribute_exists(load_perfbench):
    targets = load_perfbench("tracer")._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


# ingest's traced layers; the model stages must call every other one
SNAPSHOT_LAYERS = {"dataset.read_snapshot_csv", "dataset.scan_failures",
                   "dataset.build_labeled_series"}


def test_stages_call_every_traced_layer(load_perfbench, tmp_path):
    """The CLI calls each traced function through the attribute the tracer wraps.

    A stage that bypasses one, for example a loader bound by name, would make
    every traced benchmark pass incorrect.
    """
    tracing = load_perfbench("tracer")
    traced = {name for _, _, name, _ in tracing._targets()}
    cfg = _config_file(tmp_path, tmp_path / "out")
    pipeline = tracing.Tracer()
    with tracing.installed(pipeline):
        for command in ("synth", "features", "train", "evaluate"):
            assert main([command, "--config", cfg]) == 0
    series = ds.generate_synthetic(ds.SynthConfig(n_drives=2, lookback_days=10, jump_day=4, seed=5))
    snapshots = _write_snapshots(tmp_path, series, n_files=1)
    ingest = tracing.Tracer()
    with tracing.installed(ingest):
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "ingest"),
                     "--snapshot-dir", str(snapshots), "--model-filter", ds.SYNTHETIC_MODEL]) == 0
    assert sorted(traced - SNAPSHOT_LAYERS - set(pipeline.calls())) == []
    assert sorted((SNAPSHOT_LAYERS | {"dataset.write_cohort_csv"}) - set(ingest.calls())) == []
