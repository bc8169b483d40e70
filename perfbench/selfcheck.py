"""Tiny-size self-check of the benchmark; exits 0 when every check holds.

    python3 perfbench/selfcheck.py

* ``BENCHMARK.json`` names the workloads and metrics that ``run.py`` defines,
  with the same units and directions.
* Every workload, shrunk to a few drives, one epoch and one tree, prints each
  end-to-end metric (``--trace 0``) and each per-layer metric (``--trace 1``)
  with its unit, and its outputs pass the checks.
* ``ingest`` on a small generated corpus matches the generator's ground truth,
  and the ingest check rejects a ground truth that does not match.
* The trace check rejects a traced pass in which a required layer recorded no
  call, or whose window count disagrees with the manifest.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import corpus
import run
import tracer

HERE = Path(__file__).resolve().parent

TINY_CORPUS = corpus.CorpusSize(days=80, healthy_target=12, healthy_other=4, failed_target=8,
                                failed_other=1, duplicated=2, missing_days=1)
TINY_SYNTH = {"synth_train_drives": 4, "synth_test_drives": 3, "synth_extrap_drives": 3,
              "epochs": 1, "rf_estimators": 1}


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), spec["workloads"]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == run.END_TO_END, declared
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == run.PER_LAYER, declared


def check_workload(workloads: dict, name: str, trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                        workloads, TINY_CORPUS)
    assert code == 0, f"{name} trace {trace}: exit {code}"
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, f"{name} trace {trace}: outputs failed their checks"
    expected = run.PER_LAYER if trace else run.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {n: u for n, u, _ in expected}, f"{name} trace {trace}: metrics {got}"
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    return result


def check_ground_truth() -> None:
    from hddrul import cli  # importable once run.main has put src/ on the path

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        tmp = Path(tmp)
        config, truth = run.prepare(run.WORKLOADS["ingest"], tmp, 5, TINY_CORPUS)
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["ingest", "--config", str(config)])
        assert code == 0, f"ingest exit {code}"
        assert truth.skipped and truth.skipped < set(truth.failed)
        out = tmp / "out"
        problems = checks.check_ingest(out, truth, run.CAP, corpus.LOOKBACKS)
        assert problems == [], problems

        wrong = copy.deepcopy(truth)
        wrong.skipped = set()
        assert checks.check_ingest(out, wrong, run.CAP, corpus.LOOKBACKS)
        wrong = copy.deepcopy(truth)
        serial = next(s for s in wrong.failed if s not in wrong.skipped)
        wrong.rows[(serial, corpus.LOOKBACKS["train"])] += 1
        assert checks.check_ingest(out, wrong, run.CAP, corpus.LOOKBACKS)


def check_trace_check() -> None:
    """The trace check rejects layers that record no call and a wrong window count."""
    empty = tracer.Tracer()
    for workload in run.WORKLOADS.values():
        assert len(run._check_trace(workload, empty, None)) == len(workload.layers)
    assert run._check_trace(run.WORKLOADS["ingest"], empty, 1)[-1].startswith(
        "trace: neural.window_epochs")


def main() -> int:
    check_benchmark_json()
    tiny = copy.deepcopy(run.WORKLOADS)
    for name, workload in tiny.items():
        if name != "ingest":
            workload.config.update(TINY_SYNTH)
        for trace in (0, 1):
            check_workload(tiny, name, trace)
    check_ground_truth()
    check_trace_check()
    shutil.rmtree(HERE / ".work", ignore_errors=True)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
