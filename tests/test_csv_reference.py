"""Both data-file loaders against a csv.DictReader reference, on random files.

The reference reads each file the way the loaders document: csv.DictReader
finds columns by header name (the last of a repeated name wins), skips
blank lines and reads a field missing from a short row as None.  Every
timestamp is checked before any number, and a bad field raises with the
line it ends on.  The random files hold quoted fields with embedded line
breaks (so line numbers run ahead of row indices), blank lines, CRLF or LF
line ends, short rows, repeated and extra columns, and at most one bad
timestamp and one bad number, each at a random row.
"""

import csv
import io
import math
from datetime import datetime

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from solarmkt import load_irradiation_csv, load_premium_survey

STAMP, GHI, USD = "timestamp", "ghi_w_per_m2", "usd_per_month"
EXTRA_COLUMNS = ("note", "site", "")
BAD_STAMPS = ("not-a-time", "", "2021-13-01T00:00:00", "2021-06-01 25:00")
BAD_NUMBERS = ("abc", "", "-1.5", "nan", "inf", "-inf", "1e999", "1,5")


def _reference_rows(path, columns):
    """(line, row dict) of each data row, with DictReader's rules."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        # DictReader.line_num is read before it skips blank lines; the
        # underlying reader's is the line the row ends on
        return [(reader.reader.line_num, row) for row in reader]


def _reference_floats(path, rows, column, what):
    values = []
    for line, row in rows:
        text = row[column]
        try:
            x = float(text)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: line {line}: unparseable {what} "
                             f"{text!r}") from None
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"{path}: line {line}: {what} must be finite "
                             f"and non-negative, got {x}")
        values.append(x)
    return values


def _reference_irradiation(path):
    rows = _reference_rows(path, (STAMP, GHI))
    for line, row in rows:
        stamp = (row[STAMP] or "").strip()
        try:
            datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: bad timestamp "
                             f"{stamp!r}: {exc}") from None
    return np.array(_reference_floats(path, rows, GHI, "irradiance"),
                    dtype=float)


def _reference_survey(path, monthly_kwh, inflation_factor):
    values = _reference_floats(path, _reference_rows(path, (USD,)), USD,
                               "survey value")
    if not values:
        raise ValueError(f"{path}: survey file holds no responses")
    return np.array(values, dtype=float) * inflation_factor / monthly_kwh


def _outcome(load, bits, *args):
    """("ok", the loaded values as bits) or ("error", the message)."""
    try:
        return "ok", bits(load(*args))
    except ValueError as exc:
        return "error", str(exc)


_stamps = st.builds(
    lambda moment, zulu, pad: pad + moment.isoformat() + ("Z" if zulu else "")
    + pad,
    st.datetimes(datetime(2000, 1, 1), datetime(2030, 12, 31)),
    st.booleans(), st.sampled_from(["", " ", "  "]))
_numbers = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.floats(0.0, 1e6).map(lambda x: f"{x:.3f}"),
    st.integers(0, 5000).map(str),
    st.floats(0.0, 1e6).map(lambda x: f" {x:g} "))
_notes = st.text(st.sampled_from('ab ,"\n\r\t'), max_size=8)
_junk = st.one_of(_notes, st.sampled_from(BAD_STAMPS + BAD_NUMBERS))


@st.composite
def data_files(draw, columns):
    """Text of a random CSV file with the required columns, and its name
    for what it holds: the required values live in each name's last
    column, and earlier copies of a name hold junk."""
    header = list(columns) + draw(st.lists(st.sampled_from(
        EXTRA_COLUMNS + tuple(columns)), max_size=3))
    header = draw(st.permutations(header))
    last = {name: at for at, name in enumerate(header)}
    n = draw(st.integers(0, 12))
    rows = []
    for _ in range(n):
        row = []
        for at, name in enumerate(header):
            if last[name] != at or name not in columns:
                row.append(draw(_junk))
            elif name == STAMP:
                row.append(draw(_stamps))
            else:
                row.append(draw(_numbers))
        rows.append(row)
    if n:
        for name, bad in ((STAMP, BAD_STAMPS), (columns[-1], BAD_NUMBERS)):
            if name in columns and draw(st.booleans()):
                rows[draw(st.integers(0, n - 1))][last[name]] = draw(
                    st.sampled_from(bad))
        for row in rows:
            if draw(st.integers(0, 5)) == 0:  # a short row
                del row[draw(st.integers(1, len(row))):]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=ending)
    writer.writerow(header)
    for row in rows:
        for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
            out.write(ending)  # blank lines
        writer.writerow(row)
    return out.getvalue()


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return path


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data_files((STAMP, GHI)))
def test_irradiation_loader_agrees_with_dictreader(tmp_path, text):
    path = _write(tmp_path, text)
    assert (_outcome(load_irradiation_csv, np.ndarray.tobytes, path)
            == _outcome(_reference_irradiation, np.ndarray.tobytes, path))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data_files((USD,)), st.floats(1.0, 1e4), st.floats(0.5, 3.0))
def test_survey_loader_agrees_with_dictreader(tmp_path, text, monthly_kwh,
                                              inflation_factor):
    path = _write(tmp_path, text)
    args = (path, monthly_kwh, inflation_factor)
    assert (_outcome(load_premium_survey, np.ndarray.tobytes, *args)
            == _outcome(_reference_survey, np.ndarray.tobytes, *args))
