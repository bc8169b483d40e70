"""In-memory spans and counters around the public functions of each module.

Spans are recorded from the benchmark's side: :func:`installed` replaces each
function at the module (or class) attribute where its caller looks it up, for
example ``forest.fit_tree`` inside ``fit_forest``, and puts the original back
on exit. A span's self time is its duration minus the time its traced
children cover; every traced call runs on the one benchmark thread, so spans
nest strictly.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # counter -> total
    skipped: set = field(default_factory=set)  # serials of the drives ingest skipped
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_time += span.end - span.start

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += n

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - s.child_time
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)


def _on_train(tracer, args, kwargs, result):
    settings, dataset = args[0], args[1]
    tracer.add("neural.window_epochs", dataset.n_samples * settings.epochs)


def _on_predict(tracer, args, kwargs, result):
    tracer.add("neural.predict.windows", len(result))


def _on_window(tracer, args, kwargs, result):
    tracer.add("preprocess.windows_built", result.n_samples)


def _on_fit_tree(tracer, args, kwargs, result):
    tracer.add("forest.nodes_grown", result.n_nodes)


def _on_forest_predict(tracer, args, kwargs, result):
    tracer.add("forest.predict.rows", len(result))


def _on_read_snapshot(tracer, args, kwargs, result):
    tracer.add("dataset.rows_parsed", len(result))


def _on_scan(tracer, args, kwargs, result):
    tracer.add("dataset.failures_found", len(result))


def _on_write_cohort(tracer, args, kwargs, result):
    frames = args[1]
    tracer.add("dataset.cohort_rows", sum(len(f.dates) for f in frames))


def _targets():
    """(owner, attribute, span name, counter hook) for every traced function."""
    from hddrul import dataset, evaluation, features, forest, neural, preprocess

    return [
        (neural, "train", "neural.train", _on_train),
        (neural, "adam_step", "neural.adam_step", None),
        (neural.BiLstmModel, "predict", "neural.predict", _on_predict),
        (neural, "save_model", "neural.save_model", None),
        (neural, "load_model", "neural.load_model", None),
        (preprocess, "window", "preprocess.window", _on_window),
        (preprocess, "standardize_per_device", "preprocess.standardize_per_device", None),
        (forest, "fit_forest", "forest.fit_forest", None),
        (forest, "fit_tree", "forest.fit_tree", _on_fit_tree),
        (forest.RandomForest, "predict", "forest.predict", _on_forest_predict),
        (forest, "save_forest", "forest.save_forest", None),
        (forest, "load_forest", "forest.load_forest", None),
        (dataset, "read_snapshot_csv", "dataset.read_snapshot_csv", _on_read_snapshot),
        (dataset, "scan_failures", "dataset.scan_failures", _on_scan),
        (dataset, "build_labeled_series", "dataset.build_labeled_series", None),
        (dataset, "read_cohort_csv", "dataset.read_cohort_csv", None),
        (dataset, "write_cohort_csv", "dataset.write_cohort_csv", _on_write_cohort),
        (dataset, "materialize_cohort", "dataset.materialize_cohort", None),
        # features imports materialize_cohort by name, so it looks it up there
        (features, "materialize_cohort", "dataset.materialize_cohort", None),
        (dataset, "generate_synthetic", "dataset.generate_synthetic", None),
        (features, "correlation_scores", "features.correlation_scores", None),
        (features, "score_features", "features.score_features", None),
        (evaluation, "run_matrix", "evaluation.run_matrix", None),
        (evaluation, "write_report_csv", "evaluation.write_report_csv", None),
    ]


def _wrap(tracer: Tracer, func, name: str, hook):
    from hddrul.errors import DataError

    def traced(*args, **kwargs):
        with tracer.span(name):
            try:
                result = func(*args, **kwargs)
            except DataError:
                if name == "dataset.build_labeled_series":
                    tracer.skipped.add(args[1].serial)
                raise
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through ``tracer`` until the block ends."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
