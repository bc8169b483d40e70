"""Fresh-process end-to-end timings of the hddrul CLI, appended to ``BENCH_e2e.json``.

Usage (from the repository root)::

    python3 tools/bench_e2e.py                        # acceptance config, 1x and 10x ingest
    python3 tools/bench_e2e.py --paper                # and the paper-scale config (about 2.5 min more)
    python3 tools/bench_e2e.py --tree ../parent       # time another checkout's src/
    python3 tools/bench_e2e.py --cases ingest_1x,ingest_10x   # only these cases

Cases:

* ``acceptance``: ``synth``, ``features``, ``train`` and ``evaluate`` with the
  config of ``tests/test_acceptance.py`` (30/20/20 drives, 8 sequence models
  x 50 epochs, a 100-tree forest);
* ``ingest_1x`` and ``ingest_10x``: ``ingest`` and then ``features`` on the
  seed-1 snapshot corpus of ``perfbench/corpus.py`` (about 10^5 rows) and on
  one with ten times its drives (about 10^6 rows, 267 MB);
* ``paper``, only with ``--paper``: the same four stages as ``acceptance`` at
  the default config (78/71/133 drives, 1000 trees).

``--cases`` picks which of these a run times (default: all of them); a
snapshot corpus is generated only for the ingest cases picked.

Each stage is its own child process, ``python -m hddrul.cli`` with the BLAS
thread variables at 1, so one thread does the work as in the benchmark. The
wall time is taken around the child; user and sys seconds, peak RSS and minor
page faults are the child's own, from ``os.wait4`` (see ``_GENERATE`` for why
this process stays small). Corpora are generated into the work directory
before any stage runs, untimed; the file cache stays warm. A stage that fails
ends the run with exit 1 and records nothing.

Each run appends one entry to the JSON list in ``--record`` and changes none
of the entries already there: the git sha of the timed tree and whether its
tracked files, the record itself left out, differ from it, the date,
``nproc``, the Python and NumPy versions, ``threads``, and per case its
stage figures, the bytes of its ``models/`` and the SHA-256 of each
``cohorts/*.csv`` and each ``summary_<cohort>.csv``, so a change that moves a
result and not only a time shows too.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

THREADS = 1
PIPELINE = ("synth", "features", "train", "evaluate")
INGEST = ("ingest", "features")

# the E2E_CONFIG of tests/test_acceptance.py
ACCEPTANCE = """schema_version 1
seed 76001
timesteps 5,10,15,30
lookback_train 60
lookback_test 60
lookback_extrap 120
cap 30
hidden_size 32
epochs 50
batch_size 64
learning_rate 0.001
rf_estimators 100
synth_train_drives 30
synth_test_drives 20
synth_extrap_drives 20
"""
PAPER = "schema_version 1\n"  # every other key at its default

# snapshot corpus name -> the CorpusSize fields that differ from the benchmark's
CORPORA = {
    "1x": {},
    "10x": dict(healthy_target=5200, healthy_other=1400, failed_target=400,
                failed_other=50, duplicated=30),
}
CORPUS_SEED = 1

# A child's ru_maxrss also counts the pages it shared with this process before
# its exec, so this process stays small: it imports neither NumPy nor the
# corpus generator, which runs in a child of its own and prints what the
# ingest config needs.
_GENERATE = """
import json, sys
import corpus
truth = corpus.generate_corpus(sys.argv[1], int(sys.argv[2]), corpus.CorpusSize(**json.loads(sys.argv[3])))
print(json.dumps({"rows": truth.rows_total, "model": corpus.TARGET_MODEL, "lookbacks": corpus.LOOKBACKS}))
"""


def run_stage(tree: Path, stage: str, config: Path, log: Path) -> dict:
    """Run one CLI stage as a child process; its wall time and its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    argv = [sys.executable, "-m", "hddrul.cli", stage, "--config", str(config)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise SystemExit(f"bench_e2e: {stage} --config {config} exited {code}:\n{tail}")
    return {
        "wall_s": round(wall, 4),
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux reports KiB
        "minflt": usage.ru_minflt,
    }


def run_case(tree: Path, workdir: Path, name: str, config_text: str, stages) -> dict:
    """Write the case's config under ``workdir/name`` and run its stages in
    order, into an ``out`` emptied first."""
    root = workdir / name
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    root.mkdir(parents=True, exist_ok=True)
    config = root / "run.cfg"
    config.write_text(config_text + f"out {out}\nthreads {THREADS}\n", encoding="utf-8")
    case = {"stages": {stage: run_stage(tree, stage, config, root / f"{stage}.log")
                       for stage in stages}}
    models = out / "models"
    if models.is_dir():
        case["model_bytes"] = sum(p.stat().st_size for p in models.iterdir())
    for key, pattern in (("cohorts_sha256", "cohorts/*.csv"),
                         ("summaries_sha256", "reports/summary_*.csv")):
        files = sorted(out.glob(pattern))
        if files:
            case[key] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    return case


def generate_corpus(directory: Path, fields: dict) -> dict:
    """Write a seeded ``perfbench/corpus.py`` corpus of the given size fields;
    its row count, model and lookbacks."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "perfbench"))
    done = subprocess.run([sys.executable, "-c", _GENERATE, str(directory), str(CORPUS_SEED),
                           json.dumps(fields)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_e2e: generating {directory} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def ingest_config(snapshots: Path, corpus: dict) -> str:
    """The benchmark's ingest settings on a generated corpus."""
    lookbacks = corpus["lookbacks"]
    return (f"schema_version 1\nseed {CORPUS_SEED}\nsnapshot_dir {snapshots}\n"
            f"model_filter {corpus['model']}\ncap 30\n"
            f"lookback_train {lookbacks['train']}\nlookback_test {lookbacks['test60']}\n"
            f"lookback_extrap {lookbacks['test120']}\n")


def git_state(tree: Path, record: Path) -> tuple[str | None, bool | None]:
    """The tree's HEAD sha and whether its tracked files other than ``record``
    differ from it: an entry appended just before, such as the parent's, does
    not make the tree read as dirty."""
    record = record.resolve()
    exclude = []
    if record.is_relative_to(tree):
        exclude = ["--", ".", f":(exclude,literal){record.relative_to(tree)}"]
    try:
        sha = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                                 "--untracked-files=no", *exclude], check=True,
                                capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def append_entry(record: Path, entry: dict) -> None:
    """Append ``entry`` to the JSON list in ``record``; earlier entries stay as they are."""
    entries = json.loads(record.read_text(encoding="utf-8")) if record.exists() else []
    entries.append(entry)
    partial = record.with_name(record.name + ".partial")
    partial.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    os.replace(partial, record)


def measure(tree: Path, workdir: Path, record: Path, cases: list[str]) -> dict:
    sha, dirty = git_state(tree, record)
    entry = {
        "sha": sha,
        "dirty": dirty,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "threads": THREADS,
        "cases": {},
    }
    corpora = {name: generate_corpus(workdir / f"snapshots_{name}", fields)
               for name, fields in CORPORA.items()
               if f"ingest_{name}" in cases}  # before any stage runs
    timed = entry["cases"]
    if "acceptance" in cases:
        timed["acceptance"] = run_case(tree, workdir, "acceptance", ACCEPTANCE, PIPELINE)
    for name, corpus in corpora.items():
        case = run_case(tree, workdir, f"ingest_{name}",
                        ingest_config(workdir / f"snapshots_{name}", corpus), INGEST)
        timed[f"ingest_{name}"] = {"corpus_rows": corpus["rows"], **case}
    if "paper" in cases:
        timed["paper"] = run_case(tree, workdir, "paper", PAPER, PIPELINE)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=REPO,
                        help="checkout whose src/ is timed (default: this one)")
    parser.add_argument("--workdir", type=Path,
                        help="directory for corpora and outputs (default: a temporary one, removed)")
    parser.add_argument("--record", type=Path, default=REPO / "BENCH_e2e.json",
                        help="JSON list the entry is appended to")
    parser.add_argument("--paper", action="store_true",
                        help="also run the paper-scale config")
    parser.add_argument("--cases", metavar="NAME[,NAME...]",
                        help="time only these of the run's cases (default: all)")
    args = parser.parse_args(argv)
    cases = ["acceptance", *(f"ingest_{name}" for name in CORPORA)]
    if args.paper:
        cases.append("paper")
    if args.cases is not None:
        picked = args.cases.split(",")
        unknown = [name for name in picked if name not in cases]
        if unknown:
            parser.error(f"--cases: unknown {', '.join(map(repr, unknown))}; "
                         f"this run's cases are {', '.join(cases)}")
        cases = [name for name in cases if name in picked]
    tree = args.tree.resolve()
    if args.workdir is None:
        with tempfile.TemporaryDirectory(prefix="bench_e2e_") as tmp:
            entry = measure(tree, Path(tmp), args.record, cases)
    else:
        args.workdir.mkdir(parents=True, exist_ok=True)
        entry = measure(tree, args.workdir.resolve(), args.record, cases)
    append_entry(args.record, entry)
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
