import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hddrul import dataset as ds
from hddrul.errors import DataError, InconsistentCorpusError, SnapshotParseError

HEADER = [
    "date", "serial_number", "model", "capacity_bytes", "failure",
    "smart_7_raw", "smart_7_normalized", "smart_240_raw",
]


def test_parse_row_basic_fields():
    row = ["2020-01-05", "Z12", "ST4000DM000", "4000787030016", "1", "1234", "100", ""]
    rec = ds.parse_snapshot_row(HEADER, row)
    assert rec.failed is True
    assert rec.serial == "Z12"
    assert rec.model == "ST4000DM000"
    assert rec.date == date(2020, 1, 5)


def test_parse_row_drops_normalized_keeps_raw():
    row = ["2020-01-05", "Z12", "M", "0", "0", "1234", "100", "55"]
    rec = ds.parse_snapshot_row(HEADER, row)
    assert rec.smart[7] == 1234.0
    assert rec.smart[240] == 55.0
    assert set(rec.smart) == {7, 240}


def test_parse_row_empty_cell_is_missing():
    row = ["2020-01-05", "Z12", "M", "0", "0", "9", "100", ""]
    rec = ds.parse_snapshot_row(HEADER, row)
    assert rec.smart[240] is None


def test_parse_row_bad_date_raises_with_index():
    row = ["not-a-date", "Z12", "M", "0", "0", "9", "100", ""]
    with pytest.raises(SnapshotParseError) as err:
        ds.parse_snapshot_row(HEADER, row, row_index=17)
    assert err.value.row_index == 17


def test_parse_row_bad_failure_flag():
    row = ["2020-01-05", "Z12", "M", "0", "maybe", "9", "100", ""]
    with pytest.raises(SnapshotParseError):
        ds.parse_snapshot_row(HEADER, row, row_index=3)


def _record(serial, day, model="M", failed=False, smart=None):
    return ds.DriveRecord(serial=serial, date=day, model=model,
                          smart=smart or {}, failed=failed)


def test_scan_failures_single_match():
    d = date(2020, 2, 1)
    corpus = [_record("A", d - timedelta(days=1)), _record("A", d, failed=True)]
    assert ds.scan_failures(corpus, "M") == [ds.FailureEvent("A", d)]


def test_scan_failures_other_models_only():
    corpus = [_record("A", date(2020, 2, 1), model="OTHER", failed=True)]
    assert ds.scan_failures(corpus, "M") == []


def test_scan_failures_matches_linear_scan_oracle(small_cohort):
    corpus = [rec for series in small_cohort for rec in series.records]
    events = ds.scan_failures(corpus, ds.SYNTHETIC_MODEL)
    expected = sorted(
        {(r.serial, r.date) for r in corpus if r.failed and r.model == ds.SYNTHETIC_MODEL},
        key=lambda e: (e[1], e[0]),
    )
    assert [(e.serial, e.fail_date) for e in events] == expected


def test_scan_failures_order_invariant(small_cohort, rng):
    corpus = [rec for series in small_cohort for rec in series.records]
    shuffled = [corpus[i] for i in rng.permutation(len(corpus))]
    assert ds.scan_failures(corpus, ds.SYNTHETIC_MODEL) == ds.scan_failures(
        shuffled, ds.SYNTHETIC_MODEL
    )


def _daily_corpus(serial, fail_day, days, skip=()):
    corpus = []
    for k in range(days, -1, -1):
        day = fail_day - timedelta(days=k)
        if k in skip:
            continue
        corpus.append(_record(serial, day, failed=(k == 0), smart={7: float(k)}))
    return corpus


def test_labeling_previous_day_is_one():
    fail = date(2020, 3, 1)
    series = ds.build_labeled_series(_daily_corpus("A", fail, 10), ds.FailureEvent("A", fail), 10)
    assert series.rul[-1] == 0
    assert series.rul[-2] == 1
    assert series.records[-1].date == fail


def test_labeling_gap_shrinks_series():
    fail = date(2020, 3, 1)
    corpus = _daily_corpus("A", fail, 10, skip={4, 5})
    series = ds.build_labeled_series(corpus, ds.FailureEvent("A", fail), 10)
    assert len(series) == 9
    assert 4 not in series.rul and 5 not in series.rul


def test_labeling_missing_failure_day_errors():
    fail = date(2020, 3, 1)
    corpus = _daily_corpus("A", fail, 10, skip={0})
    with pytest.raises(InconsistentCorpusError):
        ds.build_labeled_series(corpus, ds.FailureEvent("A", fail), 10)


def test_labeling_duplicate_day_errors():
    fail = date(2020, 3, 1)
    corpus = _daily_corpus("A", fail, 5)
    corpus.append(_record("A", fail - timedelta(days=2)))
    with pytest.raises(InconsistentCorpusError):
        ds.build_labeled_series(corpus, ds.FailureEvent("A", fail), 5)


def test_labeling_78_drives_60_days_gives_4758_records():
    config = ds.SynthConfig(n_drives=78, lookback_days=60, seed=4)
    series = ds.generate_synthetic(config)
    corpus = [rec for s in series for rec in s.records]
    events = ds.scan_failures(corpus, ds.SYNTHETIC_MODEL)
    rebuilt = [ds.build_labeled_series(corpus, e, 60) for e in events]
    assert sum(len(s) for s in rebuilt) == 4758


@pytest.mark.parametrize("raw,capped", [(45, 30), (30, 30), (12, 12)])
def test_cap_values(raw, capped):
    series = ds.LabeledSeries("A", [_record("A", date(2020, 1, 1))], [raw])
    assert ds.cap_rul(series, 30).rul == [capped]


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=60))
@settings(deadline=None, max_examples=50)
def test_cap_idempotent(labels, cap):
    recs = [_record("A", date(2020, 1, 1) + timedelta(days=i)) for i in range(len(labels))]
    series = ds.LabeledSeries("A", recs, labels)
    once = ds.cap_rul(series, cap)
    twice = ds.cap_rul(once, cap)
    assert once.rul == twice.rul
    assert max(once.rul) <= cap
    assert once.records == series.records


def test_synthetic_deterministic():
    config = ds.SynthConfig(n_drives=3, lookback_days=20, jump_day=8, seed=99)
    a = ds.generate_synthetic(config)
    b = ds.generate_synthetic(config)
    for sa, sb in zip(a, b):
        assert sa.serial == sb.serial and sa.rul == sb.rul
        for ra, rb in zip(sa.records, sb.records):
            assert ra == rb


def test_synthetic_counts_and_labels():
    config = ds.SynthConfig(n_drives=20, lookback_days=60, seed=7)
    series = ds.generate_synthetic(config)
    assert len(series) == 20
    assert all(len(s) == 61 for s in series)
    for s in series:
        assert s.rul == list(range(60, -1, -1))
        assert s.records[-1].failed and not any(r.failed for r in s.records[:-1])


def test_synthetic_jump_mean_shift():
    config = ds.SynthConfig(n_drives=10, lookback_days=60, jump_day=15, seed=5)
    series = ds.generate_synthetic(config)
    for fid in ds.jump_affected_ids(config.n_features):
        late, early = [], []
        for s in series:
            for rec, r in zip(s.records, s.rul):
                (late if r <= 15 else early).append(rec.smart[fid])
        assert np.mean(late) > np.mean(early)


def test_materialize_forward_fill_and_leading_gap():
    days = [date(2020, 1, 1) + timedelta(days=i) for i in range(4)]
    recs = [
        _record("A", days[0], smart={7: None, 9: 10.0}),
        _record("A", days[1], smart={7: 5.0, 9: None}),
        _record("A", days[2], smart={7: None, 9: 30.0}),
        _record("A", days[3], smart={7: 6.0, 9: 40.0}),
    ]
    frame = ds.materialize_series(ds.LabeledSeries("A", recs, [3, 2, 1, 0]), [7, 9])
    assert frame.values[:, 0].tolist() == [5.0, 5.0, 5.0, 6.0]
    assert frame.values[:, 1].tolist() == [10.0, 10.0, 30.0, 40.0]


def test_materialize_excludes_all_missing_drive():
    recs = [_record("A", date(2020, 1, 1), smart={7: None}),
            _record("A", date(2020, 1, 2), smart={7: None})]
    series = ds.LabeledSeries("A", recs, [1, 0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ds.materialize_series(series, [7]) is None
    assert any("excluded" in str(w.message) for w in caught)


def test_cohort_csv_roundtrip_exact(small_frames, tmp_path):
    path = tmp_path / "cohort.csv"
    ds.write_cohort_csv(path, small_frames)
    back = ds.read_cohort_csv(path)
    assert len(back) == len(small_frames)
    for a, b in zip(sorted(small_frames, key=lambda f: f.serial), back):
        assert a.serial == b.serial
        assert a.dates == b.dates
        assert a.feature_ids == b.feature_ids
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.rul, b.rul)


def test_history_csv_without_rul(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(
        "serial,date,smart_7,smart_9\nA,2020-01-01,1.5,2.5\nA,2020-01-02,1.75,2.25\n"
    )
    frame = ds.read_history_csv(path)
    assert frame.feature_ids == [7, 9]
    assert frame.rul.tolist() == [0, 0]
    assert frame.values[1].tolist() == [1.75, 2.25]


def test_history_csv_rejects_mixed_drives(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("serial,date,smart_7\nA,2020-01-01,1\nB,2020-01-02,2\n")
    with pytest.raises(Exception):
        ds.read_history_csv(path)


@pytest.mark.parametrize("row", ["A,2020-01-02", "A,2020-01-02,1,2", "A,2020-02-30,1", "A,2020-01-02,x"],
                         ids=["short", "long", "bad_date", "bad_number"])
def test_history_csv_malformed_row_is_data_error(tmp_path, row):
    path = tmp_path / "history.csv"
    path.write_text(f"serial,date,smart_7\nA,2020-01-01,1\n{row}\n")
    with pytest.raises(DataError, match="history.csv"):
        ds.read_history_csv(path)


def test_attributes_on_every_drive():
    recs_a = [_record("A", date(2020, 1, 1), smart={7: 1.0, 9: 2.0, 5: None})]
    recs_b = [_record("B", date(2020, 1, 1), smart={7: 3.0, 5: 4.0})]
    series = [ds.LabeledSeries("A", recs_a, [0]), ds.LabeledSeries("B", recs_b, [0])]
    assert ds.attributes_on_every_drive(series) == [7]
