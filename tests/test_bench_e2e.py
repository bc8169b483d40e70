"""``tools/bench_e2e.py`` on a tiny config and corpus: one entry appended, every
field filled; and the dirty check of its entries."""
import importlib.util
import json
import subprocess
import time
from pathlib import Path

import pytest

from hddrul.cli import load_config
from test_acceptance import E2E_CONFIG
from test_cli import TINY

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_e2e.py"
STAGE_FIELDS = {"wall_s", "user_s", "sys_s", "maxrss_mb", "minflt"}


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_e2e", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_e2e_appends_one_full_entry(tmp_path, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "ACCEPTANCE", TINY)
    monkeypatch.setattr(tool, "CORPORA", {"tiny": dict(days=70, healthy_target=6, healthy_other=2,
                                                       failed_target=4, failed_other=1,
                                                       duplicated=1, missing_days=1)})
    record = tmp_path / "BENCH_e2e.json"
    record.write_text(json.dumps([{"sha": "earlier"}]))
    started = time.perf_counter()
    assert tool.main(["--record", str(record), "--workdir", str(tmp_path / "work")]) == 0
    assert time.perf_counter() - started < 3.0
    first, entry = json.loads(record.read_text())
    assert first == {"sha": "earlier"}
    assert {"sha", "dirty", "date", "nproc", "python", "numpy", "threads"} <= entry.keys()
    assert entry["nproc"] >= 1 and entry["threads"] == 1
    head = subprocess.run(["git", "-C", str(tool.REPO), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode == 0:  # a git checkout
        assert entry["sha"] == head.stdout.strip()
    else:  # a source export
        assert entry["sha"] is None and entry["dirty"] is None
    cases = entry["cases"]
    assert list(cases) == ["acceptance", "ingest_tiny"]
    assert list(cases["acceptance"]["stages"]) == ["synth", "features", "train", "evaluate"]
    assert list(cases["ingest_tiny"]["stages"]) == ["ingest", "features"]
    assert cases["acceptance"]["model_bytes"] > 0
    assert set(cases["acceptance"]["summaries_sha256"]) == {"summary_test60.csv", "summary_test120.csv"}
    assert cases["ingest_tiny"]["corpus_rows"] > 0
    for case in cases.values():
        assert set(case["cohorts_sha256"]) == {"manifest.csv", "scoring.csv", "test120.csv",
                                               "test60.csv", "train.csv"}
        for stage in case["stages"].values():
            assert stage.keys() == STAGE_FIELDS
            assert stage["wall_s"] > 0 and stage["maxrss_mb"] > 0 and stage["minflt"] > 0


def test_bench_e2e_times_only_the_cases_picked(tmp_path, monkeypatch):
    """``--cases`` keeps the entry to the cases named, generates no corpus for
    an ingest case left out, and rejects a name the run has not."""
    tool = _load_tool()
    monkeypatch.setattr(tool, "CORPORA", {
        "tiny": dict(days=70, healthy_target=6, healthy_other=2, failed_target=4,
                     failed_other=1, duplicated=1, missing_days=1),
        "unused": {}})
    record = tmp_path / "BENCH_e2e.json"
    work = tmp_path / "work"
    assert tool.main(["--record", str(record), "--workdir", str(work), "--cases", "ingest_tiny"]) == 0
    [entry] = json.loads(record.read_text())
    assert list(entry["cases"]) == ["ingest_tiny"]
    assert list(entry["cases"]["ingest_tiny"]["stages"]) == ["ingest", "features"]
    assert sorted(p.name for p in work.iterdir()) == ["ingest_tiny", "snapshots_tiny"]
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--record", str(record), "--cases", "ingest_tiny,paper"])
    assert exit_.value.code == 2
    assert len(json.loads(record.read_text())) == 1


def test_acceptance_case_runs_the_release_gate_config(tmp_path):
    """The tool's ``acceptance`` case is the config criteria 6 and 7 run."""
    configs = []
    for name, text in (("tool.cfg", _load_tool().ACCEPTANCE), ("gate.cfg", E2E_CONFIG)):
        (tmp_path / name).write_text(text + f"out {tmp_path / 'out'}\n")
        configs.append(load_config(tmp_path / name))
    assert configs[0] == configs[1]


def test_git_state_leaves_the_record_out(tmp_path):
    """A changed record file leaves the tree clean, as when the parent's entry
    was appended just before; any other tracked change makes it dirty."""
    tool = _load_tool()
    tree = tmp_path / "tree"
    tree.mkdir()
    record = tree / "BENCH_e2e.json"
    record.write_text("[]\n")
    (tree / "code.py").write_text("x = 1\n")

    def git(*args):
        subprocess.run(["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "seed")
    sha, dirty = tool.git_state(tree, record)
    assert len(sha) == 40 and dirty is False
    record.write_text('[{"sha": "parent"}]\n')
    assert tool.git_state(tree, record) == (sha, False)
    (tree / "code.py").write_text("x = 2\n")
    assert tool.git_state(tree, record) == (sha, True)
