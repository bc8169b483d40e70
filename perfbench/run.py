"""End-to-end benchmark of the hddrul CLI, with an optional traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 55 --trace 0

One client runs a workload's fixed sequence of CLI stages (``hddrul.cli.main``,
``threads 1``) over and over in this process, each pass in a fresh output
directory, until ``--seconds`` have passed (a closed loop: the next pass
starts when the previous one ends). Inputs derive from ``--seed`` only.

Workloads:

* ``pipeline``: synth, features, train, evaluate with the acceptance config's
  timesteps (5,10,15,30), its 8 sequence models and a forest on all
  attributes, at half its cohort sizes (15/10/10 drives). LSTM training does
  the most work, then LSTM predict and tree growth.
* ``ingest``: ingest on a generated Backblaze-width snapshot corpus (about
  10^5 rows, see ``corpus.py``). No model is trained. ``features`` is not run
  on the corpus: at this commit it exits 2 on the corpus's duplicated-day
  drives, and no stage of a workload may fail.

Epochs, trees and drives only set the length of a pass; the mix of work per
epoch or tree is that of the full-size run. Passes are kept short so that a run
holds many of them: the host's speed swings by a quarter for seconds to
minutes at a time, and only a median over many passes in a long run is steady.

``--trace 0`` prints the end-to-end metrics; the gated pass time is
``wall_per_ref``, the median pass time over the median time of a fixed
reference task run before every pass (see ``reference_seconds``).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see ``tracer.py``) plus the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# one thread does all the work: OpenBLAS would otherwise start a thread per
# core, and on a small shared host that measures the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import gc
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus
import tracer as tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

# set-up repeats at least this often and for at least this long; setup_s is the median
SETUP_ROUNDS = 3
SETUP_SECONDS = 3.0
CAP = 30

# The reference task: fixed pure-Python work that shares no code with hddrul. The
# host's speed swings by a quarter for minutes at a time, in every process alike,
# so the gated pass time is divided by the reference's time, measured before
# every pass of the same run.
_REF_RNG = random.Random(0)
_REF_CSV = "\n".join(
    ",".join(f"c{j}" if i == 0
             else (str(_REF_RNG.randrange(10**9)) if _REF_RNG.random() < 0.7 else "")
             for j in range(90))
    for i in range(2001)
)


def reference_seconds() -> float:
    """Time one run of the reference task: parse a CSV into dicts, then a scalar loop."""
    started = time.perf_counter()
    rows = [{k: float(v) for k, v in row.items() if v}
            for row in csv.DictReader(io.StringIO(_REF_CSV))]
    total = 0.0
    for row in rows:
        for value in row.values():
            total += value * 0.5 if value > total else -value
    return time.perf_counter() - started

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_per_ref", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
_LAYER_TIMES = [
    "neural.train", "neural.adam_step", "neural.predict", "preprocess.window",
    "preprocess.standardize_per_device", "forest.fit_tree", "forest.fit_forest",
    "forest.predict", "forest.save_forest", "forest.load_forest", "neural.save_model",
    "neural.load_model", "dataset.read_snapshot_csv", "dataset.scan_failures",
    "dataset.build_labeled_series", "features.correlation_scores", "features.score_features",
    "dataset.read_cohort_csv", "dataset.write_cohort_csv", "dataset.materialize_cohort",
    "dataset.generate_synthetic", "evaluation.run_matrix", "evaluation.write_report_csv",
]
SNAPSHOT_LAYERS = ["dataset.read_snapshot_csv", "dataset.scan_failures",
                   "dataset.build_labeled_series"]
_LAYER_CALLS = ["neural.train", "neural.adam_step", "forest.fit_tree"]
_LAYER_COUNTS = [
    ("neural.window_epochs", "lower"), ("neural.predict.windows", "lower"),
    ("preprocess.windows_built", "lower"), ("forest.nodes_grown", "lower"),
    ("forest.predict.rows", "lower"), ("dataset.rows_parsed", "lower"),
    ("dataset.failures_found", "higher"), ("dataset.drives_skipped", "lower"),
]
STAGES = ["synth", "ingest", "features", "train", "evaluate"]
PER_LAYER = (
    [(f"{n}.s", "s", "lower") for n in _LAYER_TIMES]
    + [(f"{n}.calls", "count", "lower") for n in _LAYER_CALLS]
    + [(n, "count", better) for n, better in _LAYER_COUNTS]
    + [("dataset.rows_kept_ratio", "ratio", "higher")]
    + [(f"cli.{s}.self_s", "s", "lower") for s in STAGES]
    + [("trace.overhead_s", "s", "lower")]
)


@dataclass
class Workload:
    name: str
    stages: tuple[str, ...]
    config: dict
    layers: list[str]  # traced functions the stages must call
    sequence_models: list[str] = field(default_factory=list)


def _models(timesteps):
    return [f"{arch}_t{t}" for arch in ("lstm", "bilstm") for t in timesteps]


MODEL_LAYERS = [n for n in _LAYER_TIMES if n not in SNAPSHOT_LAYERS]


WORKLOADS = {
    "pipeline": Workload(
        "pipeline", ("synth", "features", "train", "evaluate"),
        {"timesteps": "5,10,15,30", "epochs": 2, "rf_estimators": 4, "rf_features": "all",
         "synth_train_drives": 15, "synth_test_drives": 10, "synth_extrap_drives": 10},
        MODEL_LAYERS, _models((5, 10, 15, 30)),
    ),
    # features is left out: it exits 2 on the corpus's duplicated-day drives
    "ingest": Workload("ingest", ("ingest",), {},
                       SNAPSHOT_LAYERS + ["dataset.write_cohort_csv"]),
}


@dataclass
class StageResult:
    code: int  # exit code; -1 when an exception escaped main
    seconds: float
    message: str = ""


@dataclass
class PassResult:
    stages: dict[str, StageResult]
    wall: float | None
    problems: list[str]
    digest: str = ""
    figures: dict = field(default_factory=dict)
    tracer: object = None


def prepare(workload: Workload, workdir: Path, seed: int, corpus_size: corpus.CorpusSize):
    """Write the run config (and the snapshot corpus); return (config path, ground truth)."""
    lines = ["schema_version 1", f"seed {seed}", f"out {workdir / 'out'}", "threads 1"]
    lines += [f"{k} {v}" for k, v in workload.config.items()]
    truth = None
    if workload.name == "ingest":
        snapshots = workdir / "snapshots"
        truth = corpus.generate_corpus(snapshots, seed, corpus_size)
        lookbacks = corpus.LOOKBACKS
        lines += [f"snapshot_dir {snapshots}", f"cap {CAP}",
                  f"lookback_train {lookbacks['train']}", f"lookback_test {lookbacks['test60']}",
                  f"lookback_extrap {lookbacks['test120']}"]
    path = workdir / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, truth


def run_stage(cli, stage: str, config: Path, tracer) -> StageResult:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            with tracer.span(f"cli.{stage}") if tracer else nullcontext():
                code = cli.main([stage, "--config", str(config)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    lines = err.getvalue().strip().splitlines()
    return StageResult(code, seconds, lines[-1] if lines else "")


def run_pass(cli, workload: Workload, workdir: Path, config: Path, truth, traced: bool) -> PassResult:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    tracer = tracing.Tracer() if traced else None
    stages: dict[str, StageResult] = {}
    with tracing.installed(tracer) if traced else nullcontext():
        for stage in workload.stages:
            stages[stage] = run_stage(cli, stage, config, tracer)
            if stages[stage].code != 0:
                break

    problems = []
    for stage, result in stages.items():
        if result.code == -1:
            problems.append(f"{stage}: uncaught exception: {result.message}")
        elif result.code != 0:
            problems.append(f"{stage}: exit {result.code}: {result.message}")
    ok = all(s in stages and stages[s].code == 0 for s in workload.stages)
    wall = sum(s.seconds for s in stages.values()) if ok else None

    figures: dict = {}
    digest = ""
    window_epochs = None
    if ok and workload.name == "ingest":
        problems += checks.check_ingest(out, truth, CAP, corpus.LOOKBACKS)
        digest = checks.tree_digest(out / "cohorts")
        figures["ingest_rows_per_s"] = truth.rows_total / stages["ingest"].seconds
    elif ok:
        more, figures = checks.check_model_run(out, workload.sequence_models)
        problems += more
        digest = checks.tree_digest(out / "models", out / "reports")
        # window pads the start of each series, so every model trains on one
        # window per train drive-day; the rate is over the whole train stage
        window_epochs = (_manifest_records(out, "train") * int(workload.config["epochs"])
                         * len(workload.sequence_models))
        figures["train_window_epochs_per_s"] = window_epochs / stages["train"].seconds
    if traced:
        problems += _check_trace(workload, tracer, window_epochs)
    return PassResult(stages, wall, problems, digest, figures, tracer)


def _manifest_records(out: Path, cohort: str) -> int:
    for line in (out / "cohorts" / "manifest.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == cohort:
            return int(cells[3])
    raise ValueError(f"cohort {cohort} not in manifest")


def _check_trace(workload: Workload, tracer, window_epochs) -> list[str]:
    """Every layer the workload reaches must record calls; counters must match the outputs."""
    calls = tracer.calls()
    problems = [f"trace: {name} recorded no call; is it wrapped where its caller looks it up?"
                for name in workload.layers if not calls[name]]
    traced = tracer.counts["neural.window_epochs"]
    if window_epochs is not None and traced != window_epochs:
        problems.append(f"trace: neural.window_epochs {traced} != {window_epochs} from the manifest")
    return problems


def layer_metrics(p: PassResult) -> dict[str, float]:
    t = p.tracer
    self_times, calls = t.self_times(), t.calls()
    out = {f"{n}.s": self_times.get(n, 0.0) for n in _LAYER_TIMES}
    out.update({f"{n}.calls": float(calls[n]) for n in _LAYER_CALLS})
    out.update({n: float(t.counts[n]) for n, _ in _LAYER_COUNTS})
    out["dataset.drives_skipped"] = float(len(t.skipped))
    parsed = t.counts["dataset.rows_parsed"]
    out["dataset.rows_kept_ratio"] = t.counts["dataset.cohort_rows"] / parsed if parsed else 0.0
    out.update({f"cli.{s}.self_s": self_times.get(f"cli.{s}", 0.0) for s in STAGES})
    return out


def environment() -> dict:
    import numpy

    from hddrul import _jit

    return {
        "git_sha": _git_sha(),
        "jit_enabled": _jit.JIT_ENABLED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _fresh_import() -> None:
    """Start a new interpreter that imports the CLI, as every command does."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-c", "import hddrul.cli"], env=env, check=True)


def _git_sha() -> str:
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None, workloads=WORKLOADS, corpus_size=corpus.CorpusSize()) -> int:
    """Run one workload; ``workloads`` and ``corpus_size`` set the input sizes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]

    sys.path.insert(0, str(REPO / "src"))
    try:
        from hddrul import cli
    except ImportError as exc:
        print(f"perfbench: cannot import hddrul from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2
    if REPO / "src" not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: hddrul imported from {cli.__file__}, not from {REPO / 'src'}",
              file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        setup_times = []
        while len(setup_times) < SETUP_ROUNDS or sum(setup_times) < SETUP_SECONDS:
            started = time.perf_counter()
            _fresh_import()
            config, truth = prepare(workload, workdir, args.seed, corpus_size)
            setup_times.append(time.perf_counter() - started)
        setup_s = statistics.median(setup_times)

        # closed loop; stop at the pass boundary nearest to the deadline
        passes: list[PassResult] = []
        reference: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            reference.append(reference_seconds())
            started = time.perf_counter()
            passes.append(run_pass(cli, workload, workdir, config, truth, traced))
            last = time.perf_counter() - started
            both_kinds = len({p.tracer is not None for p in passes}) == 2
            if time.perf_counter() + last / 2 >= deadline and (both_kinds or not args.trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    return report(workload, args, passes, reference, setup_s, peak_rss_mb)


def report(workload, args, passes, reference, setup_s, peak_rss_mb) -> int:
    attempted = sum(len(p.stages) for p in passes)
    failed = sum(1 for p in passes for s in p.stages.values() if s.code != 0)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    digests = sorted({p.digest for p in passes if p.digest})
    if len(digests) > 1:
        problems.append(f"same-seed passes wrote different outputs: {digests}")
    untraced = [p for p in passes if p.tracer is None]
    walls = [p.wall for p in untraced if p.wall is not None]
    if not walls:
        problems.append("no pass completed all its stages")

    info = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
            "reference_s": (statistics.median(reference), "s")}
    if walls:
        info["wall_s"] = (statistics.median(walls), "s")
        info["wall_per_ref"] = (info["wall_s"][0] / info["reference_s"][0], "ratio")
    for stage in workload.stages:
        times = [p.stages[stage].seconds for p in untraced
                 if stage in p.stages and p.stages[stage].code == 0]
        if times:
            info[f"{stage}_s"] = (statistics.median(times), "s")
    units = {"ingest_rows_per_s": "rows/s", "train_window_epochs_per_s": "1/s",
             "model_bytes": "bytes"}
    for key in sorted({k for p in untraced for k in p.figures}):
        values = [p.figures[key] for p in untraced if key in p.figures]
        info[key] = (statistics.median(values), units.get(key, "days"))
    info["error_rate"] = (failed / attempted, "ratio")

    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} passes {len(passes)} "
          f"(untraced {len(untraced)}) digest {digests[0] if len(digests) == 1 else '-'}")
    for key, (value, unit) in info.items():
        print(f"  {key:<28} {value:.6g} {unit}")
    for msg in problems:
        print("problem: " + msg, file=sys.stderr)

    if args.trace:
        traced = [layer_metrics(p) for p in passes if p.tracer is not None]
        values = {name: statistics.median(t[name] for t in traced) for name, _, _ in PER_LAYER
                  if name != "trace.overhead_s"}
        traced_walls = [p.wall for p in passes if p.tracer is not None and p.wall is not None]
        values["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls)
            if traced_walls and walls else 0.0
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<40} {values[name]:.6g} {unit}")
    else:
        if not walls:
            print("perfbench: no timing sample; see the problems above", file=sys.stderr)
            return 1
        metrics = {name: {"value": info[name][0], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
