import itertools
import re
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from hddrul import dataset as ds
from hddrul.errors import DataError, InconsistentCorpusError, SnapshotParseError

HEADER = [
    "date", "serial_number", "model", "capacity_bytes", "failure",
    "smart_7_raw", "smart_7_normalized", "smart_240_raw",
]


def _read_row(tmp_path, row):
    """The failure rows and the kept rows of a snapshot file holding ``row``
    after one good row."""
    path = tmp_path / "day.csv"
    good = ["2020-01-04", "Y1", "M", "0", "0", "1", "100", "2"]
    path.write_text("\n".join(",".join(r) for r in (HEADER, good, row)) + "\n")
    kept = ds.KeptRows()
    scan = ds.read_snapshot_csv(path, {"Z12": (date(2020, 1, 1), date(2020, 1, 9))}, kept)
    drives = kept.drives()
    assert drives.keys() == {"Z12"} and len(scan) == 1
    return scan.failures, drives["Z12"]


def test_parse_row_basic_fields(tmp_path):
    row = ["2020-01-05", "Z12", "ST4000DM000", "4000787030016", "1", "1234", "100", ""]
    failures, rows = _read_row(tmp_path, row)
    assert failures == [ds.DriveRecord("Z12", date(2020, 1, 5), "ST4000DM000", {}, True)]
    assert (rows.serial, rows.model, rows.dates) == ("Z12", "ST4000DM000", [date(2020, 1, 5)])


def test_parse_row_drops_normalized_keeps_raw(tmp_path):
    row = ["2020-01-05", "Z12", "M", "0", "0", "1234", "100", "55"]
    _, rows = _read_row(tmp_path, row)
    assert rows.feature_ids == [7, 240]
    assert rows.values.tolist() == [[1234.0, 55.0]]


def test_parse_row_empty_cell_is_missing(tmp_path):
    row = ["2020-01-05", "Z12", "M", "0", "0", "9", "100", ""]
    _, rows = _read_row(tmp_path, row)
    assert rows.values[0, 0] == 9.0 and np.isnan(rows.values[0, 1])


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e400", "x1", " "])
def test_parse_row_non_finite_cell_is_missing(tmp_path, cell):
    """Non-finite and unparseable cells are NaN, and every NaN has the same bits."""
    row = ["2020-01-05", "Z12", "M", "0", "0", cell, "100", "55"]
    _, rows = _read_row(tmp_path, row)
    assert rows.values[0, 1] == 55.0
    assert rows.values[:, :1].tobytes() == np.array([np.nan]).tobytes()


def test_parse_row_bad_date_raises_with_index(tmp_path):
    row = ["not-a-date", "Z12", "M", "0", "0", "9", "100", ""]
    with pytest.raises(SnapshotParseError) as err:
        _read_row(tmp_path, row)
    assert err.value.row_index == 2


def test_parse_row_bad_failure_flag(tmp_path):
    row = ["2020-01-05", "Z12", "M", "0", "maybe", "9", "100", ""]
    with pytest.raises(SnapshotParseError, match="row 2: non-numeric failure flag 'maybe'"):
        _read_row(tmp_path, row)


SNAPSHOT_COLUMNS = ["date", "serial_number", "model", "capacity_bytes", "failure",
                    "smart_5_raw", "smart_5_normalized", "smart_9_raw"]
_SERIALS = ["A", "B", "C", " A ", "", "BA"]
# short text full of the characters csv treats specially
_CSV_TEXT = st.text(alphabet=st.sampled_from('09.-e,"\r\n x\x00'), max_size=6)


def _mostly(common, rare, one_in=10):
    """``rare`` one draw in ``one_in``, ``common`` otherwise."""
    return st.tuples(st.integers(1, one_in), common, rare).map(lambda t: t[2] if t[0] == 1 else t[1])


_CELLS = {
    "date": _mostly(st.sampled_from(["2020-01-04", "2020-01-05", "2020-01-06", " 2020-01-09 "]),
                    st.sampled_from(["2020-02-30", "not-a-date", ""]) | _CSV_TEXT, 40),
    "serial_number": _mostly(st.sampled_from(_SERIALS), _CSV_TEXT),
    "model": _mostly(st.sampled_from(["M", "N", " M"]), _CSV_TEXT),
    "failure": _mostly(st.sampled_from(["0", "0", "1", " 1 ", "2"]),
                       st.sampled_from(["yes", "", "1.0"]) | _CSV_TEXT, 40),
}
_VALUE = _mostly(st.sampled_from(["", "7", "1.5", " 2 ", "nan", "1e400", "-3", "4,5"]), _CSV_TEXT, 30)


@st.composite
def _csv_cell(draw, value):
    """``value`` as written: quoted with its quotes doubled (nearly always when it
    holds a comma, a quote or a line break), or bare."""
    special = any(c in value for c in ',"\r\n')
    if draw(st.integers(0, 9)) < (9 if special else 2):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def _snapshot_text(draw, max_bare=0):
    """A header and up to 8 rows; up to ``max_bare`` more rows come first, their
    cells written bare with any quotes dropped, so that no quote sends the lines
    around them to csv.reader."""
    columns = draw(st.permutations(SNAPSHOT_COLUMNS))
    lines = [",".join(draw(_csv_cell(c)) for c in columns)]
    n_bare = draw(st.integers(0, max_bare))
    for i in range(n_bare + draw(st.integers(0, 8))):
        kind = draw(_mostly(st.just("row"), st.sampled_from(["short", "blank", "spaces"]), 15))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" " * draw(st.integers(1, 3)))
        else:
            values = [draw(_CELLS.get(c, _VALUE)) for c in columns]
            cells = [v.replace('"', "") if i < n_bare else draw(_csv_cell(v)) for v in values]
            if kind == "short":
                cells = cells[:draw(st.integers(0, len(cells) - 1))]
            lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


_WINDOWS = st.dictionaries(
    st.sampled_from(["A", "B", "C", ""]),
    st.tuples(st.integers(3, 6), st.integers(0, 4)).map(
        lambda t: (date(2020, 1, t[0]), date(2020, 1, t[0] + t[1]))),
    min_size=1,
)


def _outcome(read, *args):
    try:
        return "ok", read(*args)
    except DataError as exc:
        return type(exc), str(exc)


def _kept(kept):
    """(serial, day, attribute map) of each row of a KeptRows, drive by drive; NaN as None."""
    return [(rows.serial, day, {fid: None if np.isnan(v) else v for fid, v in zip(rows.feature_ids, row)})
            for rows in kept.drives().values() for day, row in zip(rows.dates, rows.values.tolist())]


def _kept_csv(records):
    """The same of the oracle's records; a drive's rows keep their order."""
    order = list(dict.fromkeys(rec.serial for rec in records))
    return [(rec.serial, rec.date, rec.smart)
            for rec in sorted(records, key=lambda rec: order.index(rec.serial))]


def _assert_read_matches_oracle(path, text, windows):
    """A read of ``text`` gives the failure rows and the rows in ``windows``, or
    the error, of a csv.reader over every row, and its scan's ``add_rows`` gives
    those rows again, from memory or from disk; the scan, or None after an error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    kept = ds.KeptRows()
    scan = _outcome(ds.read_snapshot_csv, path, windows, kept)
    failures = _outcome(oracles.read_failure_rows_csv, path)
    if failures[0] != "ok":
        assert scan == failures
        return None
    assert scan[1].failures == failures[1]
    want = _kept_csv(oracles.read_snapshot_csv_csv(path, windows))
    assert _kept(kept) == want
    served = ds.KeptRows()
    assert scan[1].add_rows(windows, served) == len(want)
    assert _kept(served) == want
    return scan[1]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_snapshot_text(), windows=_WINDOWS)
def test_snapshot_passes_match_csv_reader_oracle(tmp_path, text, windows):
    _assert_read_matches_oracle(tmp_path / "day.csv", text, windows)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_snapshot_text(max_bare=10), windows=_WINDOWS, block=st.sampled_from([1, 2, 3, 7, 16, 64, 256]))
def test_block_reads_match_csv_reader_oracle(tmp_path, monkeypatch, text, windows, block):
    """Blocks this short end inside lines, inside quoted cells and between a CR
    and its LF; the longer ones take several quote-free lines at once."""
    monkeypatch.setattr(ds, "_BLOCK", block)
    _assert_read_matches_oracle(tmp_path / "day.csv", text, windows)


@st.composite
def _lf_snapshot_text(draw):
    """A header and up to 30 well-formed rows with LF ends and no quotes, some
    blank; the last line may lack its LF, or hold a quote or a CR."""
    columns = draw(st.permutations(SNAPSHOT_COLUMNS))
    common = {
        "date": st.sampled_from(["2020-01-04", "2020-01-05", "2020-01-06", " 2020-01-09 "]),
        "serial_number": st.sampled_from(_SERIALS),
        "model": st.sampled_from(["M", "N", " M", "BA"]),
        "failure": st.sampled_from(["0", "0", "1", " 1 "]),
    }
    value = st.sampled_from(["", "7", "1.5", " 2 ", "nan", "1e400", "-3"])
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 30))):
        blank = draw(st.integers(0, 9)) == 0
        lines.append("" if blank else ",".join(draw(common.get(c, value)) for c in columns))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", '"', "\r\n"]))


_WEEK = (date(2020, 1, 1), date(2020, 1, 7))
# B's rows all fail; A's failure row has a healthy twin right after it
_TWINS = "\n".join([",".join(SNAPSHOT_COLUMNS), "2020-01-05,B,M,0,1,1,,2", "2020-01-05,A,M,0,1,7,,9",
                    "2020-01-05,A,M,0,0,8,,10", "2020-01-06,B,M,0,1,3,,4"]) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_lf_snapshot_text(), windows=_WINDOWS, block=st.sampled_from([1, 7, 64, 256]))
@example(text=_TWINS, windows={"B": _WEEK}, block=256)
@example(text=_TWINS, windows={"A": _WEEK, "B": _WEEK}, block=256)
def test_serial_index_serves_rows_of_csv_reader_oracle(tmp_path, monkeypatch, text, windows, block):
    """A read's serial index, over one block or many, lets ``add_rows`` serve
    the windows of drives whose every row is a failure row without reading the
    file again, whatever blank lines, quotes or CRs the file holds."""
    monkeypatch.setattr(ds, "_BLOCK", block)
    path = tmp_path / "day.csv"
    reads = []
    read = ds.read_snapshot_csv
    with monkeypatch.context() as patch:  # undone after each example
        patch.setattr(ds, "read_snapshot_csv", lambda *args: reads.append(args) or read(*args))
        scan = _assert_read_matches_oracle(path, text, windows)
    if scan is None:
        return
    assert scan.index is not None
    from_memory = all(rec.failed for rec in oracles.read_snapshot_csv_csv(
        path, {serial: (date.min, date.max) for serial in windows}))
    # the index may count the empty serial more often than it has rows
    assert len(reads) == 2 - from_memory or ("" in windows and len(reads) == 2)


def test_quoted_cell_spanning_blocks_matches_csv_reader_oracle(tmp_path, monkeypatch):
    """A quoted cell of 40 line breaks (about 2 KB) spans whole blocks that hold
    no quote, and the failure row it is in keeps its line breaks."""
    monkeypatch.setattr(ds, "_BLOCK", 256)
    model = '"' + "\n".join(f"line {k} of a model name that spans many lines" for k in range(41)) + '"'
    rows = [f"2020-01-0{4 + k % 3},{'AB'[k % 2]},M,0,0,{k},,{k * 3}" for k in range(20)]
    rows += [f"2020-01-05,Q,{model},0,1,7,,9", "2020-01-06,B,M,0,0,1,,2"]
    text = "\n".join([",".join(SNAPSHOT_COLUMNS)] + rows) + "\n"
    windows = {"A": (date(2020, 1, 4), date(2020, 1, 5)), "B": (date(2020, 1, 6), date(2020, 1, 6)),
               "Q": (date(2020, 1, 5), date(2020, 1, 5))}
    _assert_read_matches_oracle(tmp_path / "day.csv", text, windows)


def _daily_rows(n_rows, failed=()):
    """``n_rows`` rows of SNAPSHOT_COLUMNS on 2020-01-05, about 50 characters
    each; the drives whose numbers are in ``failed`` fail."""
    return [f"2020-01-05,S{k:05d},M,4000787030016,{int(k in failed)},{k},100,{7 * k}"
            for k in range(n_rows)]


def test_row_error_in_a_later_block_names_the_file_wide_row(tmp_path):
    """At the real ``_BLOCK``: a blank line in the first block has that block
    checked row by row, and a malformed date in the third block has it too.
    The error names the file and the row as ``enumerate(csv.reader)`` counts
    it, the blank line included; the file fixed reads as the oracle does."""
    rows = _daily_rows(5000, failed={3, 1403, 2900, 4600})
    rows[100] = ""
    ends = list(itertools.accumulate(len(row) + 1 for row in rows))  # after the header
    bad = next(k for k, end in enumerate(ends) if end - len(rows[k]) - 1 > 2.5 * ds._BLOCK)
    assert ends[100] < ds._BLOCK and ends[bad] < 3 * ds._BLOCK and ends[-1] > 3.5 * ds._BLOCK
    header = ",".join(SNAPSHOT_COLUMNS)
    windows = {f"S{k:05d}": (date(2020, 1, 4), date(2020, 1, 5)) for k in (10, 1403, bad + 1, 4999)}
    path = tmp_path / "2020-01-05.csv"
    fixed = "\n".join([header] + rows) + "\n"
    rows[bad] = rows[bad].replace("2020-01-05", "2020-01-32")
    broken = "\n".join([header] + rows) + "\n"
    assert len(broken.encode()) > 250_000
    _assert_read_matches_oracle(path, broken, windows)
    with pytest.raises(SnapshotParseError,
                       match=re.escape(f"{path}: row {bad + 1}: malformed date '2020-01-32'")):
        ds.read_snapshot_csv(path, windows, ds.KeptRows())
    _assert_read_matches_oracle(path, fixed, windows)
    scan = ds.read_snapshot_csv(path, windows, ds.KeptRows())
    assert [rec.serial for rec in scan.failures] == ["S00003", "S01403", "S02900", "S04600"]
    assert len(scan) == 4


def test_each_date_failure_pair_is_parsed_once_per_file(tmp_path, monkeypatch):
    """A daily file of three blocks with one failure row has two distinct
    (date, failure) pairs, so two identity checks."""
    calls = []
    check = ds._row_identity
    monkeypatch.setattr(ds, "_row_identity", lambda *args: calls.append(args[2]) or check(*args))
    rows = _daily_rows(3000, failed={1700})
    text = "\n".join([",".join(SNAPSHOT_COLUMNS)] + rows) + "\n"
    assert 2 * ds._BLOCK < len(text) < 3 * ds._BLOCK
    path = tmp_path / "2020-01-05.csv"
    path.write_text(text)
    kept = ds.KeptRows()
    scan = ds.read_snapshot_csv(path, {"S02999": (date(2020, 1, 5), date(2020, 1, 5))}, kept)
    assert [rec.serial for rec in scan.failures] == ["S01700"] and len(scan) == 1
    assert len(calls) == 2


def _streamed_failures(path, model):
    """The failure rows of a read of a 20 MB file of 44K rows with 90 attribute
    columns and ``model`` in every model cell, and the read's traced peak."""
    header = ",".join(SNAPSHOT_COLUMNS[:5] + [f"smart_{i}_raw" for i in range(90)])
    tail = ",".join(str(1000 + i) for i in range(90))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k in range(44_000):
            fh.write(f"2020-01-05,S{k:06d},{model},4000787030016,{int(k % 10_000 == 0)},{tail}\n")
    assert path.stat().st_size > 20_000_000
    tracemalloc.start()
    try:
        failures = ds.read_snapshot_csv(path, {}, ds.KeptRows()).failures
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return failures, peak


def test_read_failure_rows_streams(tmp_path):
    """A read holds a few lines of a file at a time, never the whole file."""
    failures, peak = _streamed_failures(tmp_path / "day.csv", "M")
    assert [rec.serial for rec in failures] == ["S000000", "S010000", "S020000", "S030000", "S040000"]
    assert peak < 2_000_000, f"traced peak {peak} B for a 20 MB file"


def test_read_failure_rows_streams_quoted(tmp_path):
    """From the first quote on, csv.reader's rows come a bounded group at a
    time too, and give the failure rows of the same file unquoted."""
    failures, peak = _streamed_failures(tmp_path / "day.csv", '"M"')
    assert failures == _streamed_failures(tmp_path / "plain.csv", "M")[0]
    assert peak < 2_000_000, f"traced peak {peak} B for a 20 MB file"


def test_kept_rows_take_a_float64_row_each(tmp_path):
    """Kept snapshot rows cost about their float64 cells (45 a row here, half of
    them empty, 360 B), both as read over many daily files and as per-drive
    matrices."""
    ids = range(1, 46)
    header = ",".join(SNAPSHOT_COLUMNS[:5] + [f"smart_{i}_{kind}" for i in ids
                                             for kind in ("normalized", "raw")])
    days = [date(2020, 1, 1) + timedelta(days=k) for k in range(30)]
    paths = []
    for day in days:
        path = tmp_path / f"{day}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for d in range(200):
                cells = ",".join(f"100,{1000 * d + i}" if i % 2 else "," for i in ids)
                fh.write(f"{day},S{d:04d},M,4000787030016,0,{cells}\n")
        paths.append(path)
    windows = {f"S{d:04d}": (days[0], days[-1]) for d in range(200)}
    n_rows = len(days) * len(windows)
    tracemalloc.start()
    try:
        kept = ds.KeptRows()
        for path in paths:
            ds.read_snapshot_csv(path, windows, kept)
        held, _ = tracemalloc.get_traced_memory()
        drives = kept.drives()
        del kept
        as_matrices, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(rows.dates) for rows in drives.values()) == n_rows == 6000
    first = drives["S0007"].values[0]
    assert first[0] == 7001.0 and np.isnan(first[1]) and first[44] == 7045.0
    assert held / n_rows <= 800, f"{held / n_rows:.0f} B a row as read"
    assert as_matrices / n_rows <= 800, f"{as_matrices / n_rows:.0f} B a row as matrices"


def test_snapshot_cell_size(tmp_path):
    """An unquoted cell of any size parses like any other (overflowing numbers are
    missing); a quoted one over csv's field limit is an error naming file and row."""
    path = tmp_path / "day.csv"
    header = "date,serial_number,model,failure,smart_5_raw,smart_9_raw\n"
    huge = "0" * 200_000 + "5"
    path.write_text(header + f"2020-01-05,A,M,1,{huge},{'1' * 200_000}\n")
    window = {"A": (date(2020, 1, 5), date(2020, 1, 5))}
    kept = ds.KeptRows()
    ds.read_snapshot_csv(path, window, kept)
    rows = kept.drives()["A"]
    assert rows.values[0, 0] == 5.0 and np.isnan(rows.values[0, 1])
    path.write_text(header + f'2020-01-05,A,M,1,"{huge}",7\n')
    for windows in ({}, window):
        with pytest.raises(SnapshotParseError,
                           match=re.escape(f"{path}: row 1: field larger than field limit")):
            ds.read_snapshot_csv(path, windows, ds.KeptRows())


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


def test_select_copies_columns_in_c_order(small_frames):
    """select gives the asked columns in their order, in a C-ordered array of
    its own: a Fortran-ordered one moves the trained models' bits."""
    frame = small_frames[0]
    picked = frame.select([frame.feature_ids[2], frame.feature_ids[0]])
    assert picked.values.flags.c_contiguous and picked.values.flags.owndata
    np.testing.assert_array_equal(picked.values, frame.values[:, [2, 0]])


def test_synth_config_rejects_days_after_9999():
    """The last synthetic drive fails lookback_days + n_drives - 1 days after
    2020-01-01; sizes that put that day after 9999-12-31 are a ValueError."""
    room = date.max.toordinal() - date(2020, 1, 1).toordinal()
    ds.SynthConfig(n_drives=room - 19, lookback_days=20).validate()
    with pytest.raises(ValueError, match="after 9999-12-31"):
        ds.SynthConfig(n_drives=room - 18, lookback_days=20).validate()


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


_SMART_VALUE = st.none() | st.sampled_from([0.0, -0.0, 5e-324, 1e16, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.fixed_dictionaries({7: _SMART_VALUE, 9: _SMART_VALUE, 240: _SMART_VALUE}),
                min_size=1, max_size=12),
       st.sampled_from([[7], [9, 7], [7, 9, 240], []]))
def test_materialize_matches_forward_fill_loop(smart_maps, feature_ids):
    """Bit-identical frames with leading gaps, and the same ValueError for a
    never-reported attribute."""
    recs = [_record("A", date(2020, 1, 1) + timedelta(days=k), smart=smart)
            for k, smart in enumerate(smart_maps)]
    rul = list(range(len(recs) - 1, -1, -1))
    outcomes = []
    for materialize in (lambda: ds.materialize_series(ds.LabeledSeries("A", recs, rul), feature_ids),
                        lambda: oracles.materialize_series_loop("A", recs, rul, feature_ids)):
        try:
            outcomes.append(("ok", materialize()))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    (got_kind, got), (want_kind, want) = outcomes
    assert got_kind == want_kind
    if want_kind == "error":
        assert got == want
    else:
        assert (got.serial, got.dates, got.feature_ids) == (want.serial, want.dates, want.feature_ids)
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.rul.tobytes() == want.rul.tobytes()


def test_writers_match_cell_at_a_time_writers(tmp_path):
    """repr over tolist() writes the bytes of one float() per cell."""
    awkward = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
    days = [date(2020, 1, 1) + timedelta(days=k) for k in range(4)]
    frames = [ds.DriveFrame("B", days, [7, 9], np.array([awkward, awkward[::-1]]).T, [3, 2, 1, 0]),
              ds.DriveFrame("A", days[:1], [7, 9], [[1e16, -0.0]], [0])]
    ds.write_cohort_csv(tmp_path / "new.csv", frames)
    oracles.write_cohort_csv_cells(tmp_path / "old.csv", frames)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    recs = [_record("B", day, smart={7: v, 9: None if k == 1 else -v, 240: None})
            for k, (day, v) in enumerate(zip(days, awkward))]
    drives = [("B", recs, [3, 2, 1, 0]), ("A", recs[:2], [1, 0])]
    ds.write_scoring_csv(tmp_path / "new.csv", [ds.LabeledSeries(*d) for d in drives])
    oracles.write_scoring_csv_cells(tmp_path / "old.csv", drives)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert [line.split(",")[3] for line in (tmp_path / "new.csv").read_text().splitlines()[1:5]] == [
        "-0.0", "5e-324", "1e+16", "0.30000000000000004"]


# values around the writer's choice between "%d.0" and "%r": signed zero, a
# negative whole number, the 1e15 limit, 2**53, repr's switch to exponents at
# 1e16, the largest float, 1.8e308 (which parses as inf), infinities and NaN
_WRITER_EDGES = [0.0, -0.0, -5.0, 0.1 + 0.2, 5e-324, 1e15 - 1, 1e15, 2.0 ** 53, 1e16,
                 1.7976931348623157e308, 1.8e308, float("inf"), -float("inf"), float("nan")]


def test_drive_csv_writer_matches_row_at_a_time_writer(tmp_path):
    """One format per drive writes the bytes of one write per row: each edge
    value filling a column and inside a whole-number column, a whole-number
    column with one empty cell, drives of whole numbers only, a serial holding
    ``%``, a drive without days and a file without attribute columns."""
    days = [date(2020, 1, 1) + timedelta(days=k) for k in range(3)]
    columns = [[v] * 3 for v in _WRITER_EDGES] + [[7.0, v, 8.0] for v in _WRITER_EDGES]
    columns += [[3.0, float("nan"), 7.0], [1.0, 2.0, 3.0]]
    values = np.array(columns).T
    whole = np.arange(values.size, dtype=np.float64).reshape(values.shape)
    for ids, drives in [
        (list(range(len(columns))), [("E", days, [2, 1, 0], values), ("W%d", days, [9, 8, 7], whole),
                                     ("N%s", days[:1], [0], values[1:2]), ("Z", [], [], values[:0])]),
        ([], [("A", days, [2, 1, 0], values[:, :0])]),
    ]:
        ds._write_drive_csv(tmp_path / "new.csv", ids, drives)
        oracles.write_drive_csv_rows(tmp_path / "old.csv", ids, drives)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_materialize_rejects_all_missing_drive():
    recs = [_record("A", date(2020, 1, 1), smart={7: None, 9: 1.0}),
            _record("A", date(2020, 1, 2), smart={7: None, 9: 2.0})]
    series = ds.LabeledSeries("A", recs, [1, 0])
    with pytest.raises(ValueError, match="drive A: attribute 7 is missing on every day"):
        ds.materialize_series(series, [9, 7])
    with pytest.raises(ValueError, match="drive A: attribute 7"):
        ds.materialize_cohort([series], [7])


# values whose bits a text round trip can lose: signed zero, subnormals, and
# values that need all 17 significant digits
_AWKWARD = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, 0.1 + 0.2,
            1.0000000000000002, -123456789.12345679, 2.0 ** 60 + 2.0 ** 8]


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_scoring_csv_roundtrip_is_bit_exact(tmp_path):
    """Per-drive matrices with NaN cells and awkward values come back bit for bit."""
    rng = np.random.default_rng(3)
    written = []
    for d, n in enumerate([9, 1, 4]):
        values = rng.choice(_AWKWARD, size=(n, 4))
        values[rng.random((n, 4)) < 0.3] = np.nan
        values[0] = _AWKWARD[d:d + 4]  # every column reported somewhere
        dates = [date(2020, 1, 1) + timedelta(days=k) for k in range(n)]
        rows = ds.DriveRows(f"D{2 - d}", "M", [5, 7, 9, 240], dates, values)
        written.append(ds.LabeledSeries(rows.serial, rows, list(range(n - 1, -1, -1))))
    path = tmp_path / "scoring.csv"
    ds.write_scoring_csv(path, written)
    feature_ids, read = ds.read_scoring_csv(path)
    assert feature_ids == [5, 7, 9, 240]
    for got, want in zip(read, written, strict=True):
        assert (got.serial, got.rows.dates, got.rul) == (want.serial, want.rows.dates, want.rul)
        assert _same_bits(got.rows.values, want.rows.values)


def test_cohort_csv_roundtrip_exact(small_frames, tmp_path):
    rng = np.random.default_rng(4)
    awkward = [ds.DriveFrame(serial, small_frames[0].dates[:n], [7, 9, 240],
                             rng.choice(_AWKWARD, size=(n, 3)), np.arange(n)[::-1])
               for serial, n in (("B", 7), ("A", 3))]
    path = tmp_path / "cohort.csv"
    for frames, blank in ((small_frames, False), (awkward, False), (awkward, True)):
        ds.write_cohort_csv(path, frames)
        if blank:  # a blank line inside the file is skipped
            lines = path.read_text().split("\n")
            path.write_text("\n".join(lines[:2] + [""] + lines[2:]))
        back = ds.read_cohort_csv(path)
        for a, b in zip(sorted(frames, key=lambda f: f.serial), back, strict=True):
            assert (a.serial, a.dates, a.feature_ids) == (b.serial, b.dates, b.feature_ids)
            assert _same_bits(a.values, b.values)
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
    with pytest.raises(DataError, match="history.csv"):
        ds.read_history_csv(path)


@pytest.mark.parametrize("header", ["serial,date,smart_\u00b2", "serial,smart_7", "serial,date,smart_7,rul"],
                         ids=["superscript_digit", "no_date", "rul_last"])
def test_history_csv_bad_header_is_data_error(tmp_path, header):
    path = tmp_path / "history.csv"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="history.csv"):
        ds.read_history_csv(path)


@pytest.mark.parametrize("row", ["A,2020-01-02", "A,2020-01-02,1,2", "A,2020-02-30,1", "A,2020-01-02,x",
                                 "A,2020-01-02,inf", "A,2019-12-31,1", "A,2020-01-01,2", "A,2020-01-02,"],
                         ids=["short", "long", "bad_date", "bad_number", "non_finite", "unsorted",
                              "duplicate_day", "empty_cell"])
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


def test_scoring_csv_roundtrip_keeps_order_and_gaps(tmp_path):
    def series(serial, values):
        days = [date(2020, 1, 1) + timedelta(days=k) for k in range(len(values))]
        records = [ds.DriveRecord(serial, day, "M", {7: v, 9: 0.1 * k, 240: None})
                   for k, (day, v) in enumerate(zip(days, values))]
        return ds.LabeledSeries(serial, records, list(range(len(values) - 1, -1, -1)))

    written = [series("Z9", [1.5, None, 2.0]), series("A1", [None, None])]
    path = tmp_path / "scoring.csv"
    ds.write_scoring_csv(path, written)
    # 240 is never reported, so it has no column; an unreported value is an empty cell
    assert path.read_text().splitlines()[:3] == [
        "serial,date,rul,smart_7,smart_9", "Z9,2020-01-01,2,1.5,0.0", "Z9,2020-01-02,1,,0.1"]
    feature_ids, read = ds.read_scoring_csv(path)
    assert feature_ids == [7, 9]
    assert [s.serial for s in read] == ["Z9", "A1"]  # file order, not sorted
    for got, want in zip(read, written):
        assert got.rul == want.rul
        assert [r.date for r in got.records] == [r.date for r in want.records]
        assert [r.smart for r in got.records] == [
            {7: r.smart[7], 9: r.smart[9]} for r in want.records]
