import os
import re
import stat
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scedex
from scedex import (
    DateOrderError,
    DomainError,
    EmptyPoolError,
    EmptySeasonError,
    PanelFormatError,
    PanelSample,
    SEASONS,
    ScedexError,
    decluster,
    load_panel,
    split_season,
)
from scedex import panel as panel_module
from scedex.panel import MAX_SLOT_BYTES, MAX_SLOTS, MIN_SEASON_DAYS, SUMMER_MONTHS, WINTER_MONTHS

from conftest import make_panel, wait_for_clock


# ---------------------------------------------------------------------------
# PanelSample construction
# ---------------------------------------------------------------------------


def test_panel_shape_and_properties(small_panel):
    assert small_panel.n == 8
    assert small_panel.m == 2
    assert small_panel.station_ids == ("S0", "S1")
    assert small_panel.values.flags.writeable is False


def test_panel_rejects_unsorted_dates():
    with pytest.raises(DateOrderError, match="row 2"):
        PanelSample(
            values=np.ones((3, 1)),
            day_labels=np.array(
                ["2001-01-01", "2001-01-05", "2001-01-05"], dtype="datetime64[D]"
            ),
            station_ids=("a",),
        )


def test_panel_rejects_negative_and_nonfinite():
    with pytest.raises(DomainError):
        make_panel([[1.0], [-0.5]])
    with pytest.raises(DomainError, match="finite"):
        make_panel([[1.0], [np.inf]])
    with pytest.raises(DomainError, match="finite"):
        make_panel([[1.0], [-np.inf]])
    # NaN is the one marker of a missing cell; the mask is derived from it
    p = make_panel([[1.0, np.nan], [np.nan, 0.0]])
    assert p.missing_mask.tolist() == [[False, True], [True, False]]
    assert p.missing_mask.flags.writeable is False
    with pytest.raises(ValueError, match="read-only"):
        p.missing_mask[0, 0] = True


def test_the_constructor_copies_what_a_caller_passes():
    values = np.array([[1.0, 2.0], [3.0, np.nan]])
    days = np.datetime64("2000-01-01") + np.arange(2)
    p = PanelSample(values=values, day_labels=days, station_ids=("A", "B"))
    assert values.flags.writeable and days.flags.writeable
    values[0, 0], days[1] = 9.0, np.datetime64("1999-01-01")
    assert p.values.tolist()[0] == [1.0, 2.0]
    assert str(p.day_labels[1]) == "2000-01-02"
    assert not (p.values.flags.writeable or p.day_labels.flags.writeable)


def test_months_and_years():
    p = make_panel(np.ones((3, 1)), start="1999-12-30")
    assert p.months().tolist() == [12, 12, 1]
    assert p.years().tolist() == [1999, 1999, 2000]


def test_station_index_resolution(small_panel):
    assert small_panel.station_index("S1") == 1
    assert small_panel.station_index(0) == 0
    with pytest.raises(DomainError):
        small_panel.station_index("nope")
    with pytest.raises(DomainError):
        small_panel.station_index(5)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="panel.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


def test_load_panel_roundtrip(tmp_path):
    f = _write(
        tmp_path,
        "date,A,B\n"
        "2000-01-01,1.5,0\n"
        "2000-01-02,,2.25\n"
        "2000-01-05,3,nan\n",
    )
    p = load_panel(f)
    assert p.station_ids == ("A", "B")
    assert p.n == 3
    assert p.values[0, 0] == 1.5
    assert p.missing_mask[1, 0] and p.missing_mask[2, 1]
    assert str(p.day_labels[2]) == "2000-01-05"


def test_load_panel_blank_lines_tolerated(tmp_path):
    f = _write(tmp_path, "date,A\n2000-01-01,1\n\n2000-01-02,2\n")
    assert load_panel(f).n == 2


def test_load_panel_error_carries_line_number(tmp_path):
    f = _write(tmp_path, "date,A\n2000-01-01,1\n2000-01-02,oops\n")
    with pytest.raises(PanelFormatError, match="line 3"):
        load_panel(f)

    f2 = _write(tmp_path, "date,A\n2000-01-03,1\n2000-01-02,2\n", name="o.csv")
    with pytest.raises(DateOrderError, match="line 3"):
        load_panel(f2)

    f3 = _write(tmp_path, "d,A\n2000-01-01,1\n", name="h.csv")
    with pytest.raises(PanelFormatError, match="date"):
        load_panel(f3)

    # a quoted cell spanning two lines: the bad date is on physical line 4
    f4 = _write(tmp_path, 'date,A\n2000-01-01,"1\n"\n2000-01-0x,3\n', name="q.csv")
    with pytest.raises(PanelFormatError, match="line 4"):
        load_panel(f4)


def test_load_panel_negative_value(tmp_path):
    f = _write(tmp_path, "date,A\n2000-01-01,-3\n")
    with pytest.raises(DomainError, match="line 2"):
        load_panel(f)


def test_load_panel_rejects_duplicate_headers(tmp_path):
    f = _write(tmp_path, "date,A,A\n2000-01-01,1,2\n2000-01-02,3,4\n")
    duplicate = r"line 1: duplicate column name\(s\) in header: \['A'\]"
    with pytest.raises(PanelFormatError, match=duplicate):
        load_panel(f)


def test_load_panel_non_utf8_byte_reports_its_line(tmp_path):
    f = tmp_path / "latin.csv"
    f.write_bytes(b"date,A\n2000-01-01,1\n2000-01-02,\xff\n")
    with pytest.raises(PanelFormatError, match="line 3: cannot decode byte 0xff as UTF-8"):
        load_panel(f)


@pytest.mark.parametrize("data, error", [
    (b"date,A\n2000-01-01,x\n2000-01-02,\xff\n", "line 2: cannot parse value 'x'"),
    (b"date,A,A\n2000-01-01,\xff,1\n", "line 1: duplicate column name"),
    (b"date,A\n2000-01-01,\xff\n2000-01-01,x\n", "line 2: cannot decode byte 0xff"),
])
def test_the_first_fault_in_file_order_wins(tmp_path, data, error):
    # a byte that is not UTF-8 is a fault of its line, not of the whole file
    f = tmp_path / "panel.csv"
    f.write_bytes(data)
    with pytest.raises(PanelFormatError, match=error):
        load_panel(f)
    with _row_parser_only(), pytest.raises(PanelFormatError, match=error):
        load_panel(f)


def test_load_panel_drops_a_byte_order_mark(tmp_path):
    text = "date,A,B\n2000-01-01,1.5,\n2000-01-02,na,2\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert _load_outcome(bom) == _load_outcome(plain)
    with _row_parser_only():
        assert _load_outcome(bom) == _load_outcome(plain)
    assert load_panel(bom).station_ids == ("A", "B")


@pytest.mark.parametrize("spelling", ["20000101", "2000-W01-2", "2000-01", "2000-01-01T00"])
def test_load_panel_accepts_only_yyyy_mm_dd(tmp_path, spelling):
    # date.fromisoformat reads 20000101 and 2000-W01-2 on Python >= 3.11;
    # numpy's datetime64 cast reads 20000101 (as a year), 2000-01 and
    # 2000-01-01T00.  None is the documented grammar.
    f = _write(tmp_path, f"date,A\n1999-12-31,1\n{spelling},2\n")
    with pytest.raises(PanelFormatError, match=f"line 3: cannot parse date '{spelling}'"):
        load_panel(f)


def test_load_panel_rejects_year_zero(tmp_path):
    f = _write(tmp_path, "date,A\n0000-01-01,1\n")
    with pytest.raises(PanelFormatError, match="line 2: cannot parse date"):
        load_panel(f)


def _uncached():
    """Loads inside parse the file: no slot is read or written."""
    return mock.patch.object(panel_module, "_slot_for", lambda *args: None)


@contextmanager
def _row_parser_only():
    """Loads inside parse the file and the row parser reads every data row:
    the vectorised parser splits the header and refuses every block after
    it."""
    with _uncached(), mock.patch.object(panel_module, "_read_block", lambda *args: None):
        yield


@pytest.mark.parametrize("reader", ["vectorised", "rows"])
def test_a_file_that_grows_while_it_is_read_names_the_line(tmp_path, reader):
    # the arrays hold a row per line end counted before the parse, the
    # header's included: a row more is an error, not a fresh read of the file
    f = _write(tmp_path, "date,A\n2000-01-01,1\n2000-01-02,2\n")
    blocks = panel_module._line_blocks

    def growing(src):
        with open(f, "a") as out:
            out.write("\n2000-01-03,3\n2000-01-04,4\n")
        yield from blocks(src)

    rows = _row_parser_only() if reader == "rows" else _uncached()
    with rows, mock.patch.object(panel_module, "_line_blocks", growing), \
            pytest.raises(PanelFormatError, match="line 6: file changed while it was read"):
        load_panel(f)


def test_clean_panel_skips_the_row_parser(tmp_path):
    # written like the benchmark's panels: %.6g values, "", "nan" and "na" holes
    rng = np.random.default_rng(5)
    values = rng.pareto(3.0, size=(300, 6)) * 10
    holes = rng.random(values.shape) < 0.05
    spelling = rng.integers(0, 3, size=values.shape)
    days = np.datetime_as_string(np.datetime64("1990-01-01") + np.arange(300))
    lines = ["date," + ",".join(f"S{j:02d}" for j in range(6))]
    for i in range(300):
        cells = [("", "nan", "na")[spelling[i, j]] if holes[i, j] else "%.6g" % values[i, j]
                 for j in range(6)]
        lines.append(f"{days[i]}," + ",".join(cells))
    f = _write(tmp_path, "\n".join(lines) + "\n")

    def refuse(*args):
        raise AssertionError("the row parser ran on a clean panel")

    with mock.patch.object(panel_module, "_parse_rows", refuse):
        fast = load_panel(f)
    with _row_parser_only():
        rows = load_panel(f)
    assert fast.values.tobytes() == rows.values.tobytes()
    assert np.array_equal(fast.missing_mask, holes)
    assert np.array_equal(fast.day_labels, rows.day_labels)
    assert fast.station_ids == rows.station_ids


@pytest.mark.parametrize("cell", ["-nan", "+NaN", " -nan "])
def test_signed_nan_in_a_selected_column_names_its_line(tmp_path, cell):
    f = _write(tmp_path, f"date,A,B\n2000-01-01,1,2\n2000-01-02,3,{cell}\n")
    with pytest.raises(PanelFormatError, match="line 3: non-finite value"):
        load_panel(f)


@pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "\uff11", "0x10", "1e", ".", "1.5.2"])
def test_load_panel_reads_only_ascii_decimals(tmp_path, cell):
    # Python's float reads "1_0" as 10.0, Arabic-Indic "12" as 12.0 and a
    # fullwidth "1" as 1.0; numpy refuses them, so the row parser decides
    f = tmp_path / "panel.csv"
    f.write_bytes(f"date,A,B\n2000-01-01,1,2\n2000-01-02,3,{cell}\n".encode())
    want = rf"line 3: cannot parse value {re.escape(repr(cell))} for station 'B'"
    with pytest.raises(PanelFormatError, match=want):
        load_panel(f)
    with _row_parser_only(), pytest.raises(PanelFormatError, match=want):
        load_panel(f)


def test_load_panel_reads_every_ascii_decimal_spelling(tmp_path):
    f = _write(tmp_path, "date,A,B,C,D,E,F\n2000-01-01,+1.5,.5,1.,1E-2,-0, 7e+1\t\n")
    want = [[1.5, 0.5, 1.0, 0.01, 0.0, 70.0]]
    assert load_panel(f).values.tolist() == want
    with _row_parser_only():
        assert load_panel(f).values.tolist() == want


_SPELLINGS = ("", "nan", "na", "NaN", "NA", "nA", "Nan", "NAN")
_PADS = ("", " ", "\t", " \t")
_ODD_NUMBERS = ("-0", "+1", "1E3", " 2.5 ", "\t7", ".5")
_BAD_CELLS = ("inf", "-nan", "1_0", "-1.5", "x")
_FAULTS = ("crlf", "blank line", "quote", "bad cell", "field count", "repeated date",
           "long date")


@st.composite
def _csv_panels(draw, max_faults=2):
    """Small panel CSV text: padded and mixed-case missing cells, the date
    column anywhere, at most ``max_faults`` faults."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    names = [f"S{j}" for j in range(m)]
    date_pos = draw(st.integers(0, m))
    faults = draw(st.sets(st.sampled_from(_FAULTS), max_size=max_faults))
    steps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    dates = [str(d) for d in np.datetime64("1999-12-30") + np.cumsum(steps)]
    if "repeated date" in faults and n > 1:
        i = draw(st.integers(1, n - 1))
        dates[i] = dates[i - 1]
    if "long date" in faults:
        dates[draw(st.integers(0, n - 1))] += draw(st.sampled_from(("0", "00", "x")))
    rows = []
    for date in dates:
        cells = []
        for _ in range(m):
            kind = draw(st.sampled_from(("number", "number", "missing", "odd")))
            if kind == "number":
                x = draw(st.floats(0, 1e4, allow_nan=False))
                cells.append(draw(st.sampled_from(("%.6g", "%r", "%.2f"))) % x)
            elif kind == "missing":
                cells.append(draw(st.sampled_from(_PADS)) + draw(st.sampled_from(_SPELLINGS))
                             + draw(st.sampled_from(_PADS)))
            else:
                cells.append(draw(st.sampled_from(_ODD_NUMBERS)))
        cells.insert(date_pos, date)
        rows.append(cells)
    if "bad cell" in faults:
        i = draw(st.integers(0, n - 1))
        j = draw(st.sampled_from([p for p in range(m + 1) if p != date_pos]))
        rows[i][j] = draw(st.sampled_from(_BAD_CELLS))
    if "quote" in faults:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m))
        rows[i][j] = f'"{rows[i][j]}"'
    if "field count" in faults:
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            rows[i].append("1")
        else:
            rows[i].pop()
    lines = [",".join(names[:date_pos] + ["date"] + names[date_pos:])]
    lines += [",".join(r) for r in rows]
    if "blank line" in faults:
        blank = draw(st.sampled_from(("", "  ", ", " * m)))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    eol = "\r\n" if "crlf" in faults else "\n"
    return eol.join(lines) + eol


def _load_outcome(path):
    try:
        p = load_panel(path)
    except ScedexError as exc:
        return type(exc), str(exc)
    return (p.values.shape, p.values.tobytes(), p.missing_mask.tobytes(),
            p.day_labels.tobytes(), p.station_ids)


@settings(max_examples=300, deadline=None)
@given(case=_csv_panels())
def test_fast_parser_agrees_with_row_parser(tmp_path_factory, case):
    """Same arrays (NaN-aware, to the bit), or the same error class and
    message, whichever parser reads the file."""
    f = tmp_path_factory.mktemp("diff") / "panel.csv"
    f.write_bytes(case.encode())
    got = _load_outcome(f)
    with _row_parser_only():
        want = _load_outcome(f)
    assert got == want


def _refuse_rows(*args):
    raise AssertionError("the row parser ran on a valid panel")


def _agrees_on_the_fast_path(f):
    """The panel at ``f`` loads without the row parser, to its arrays."""
    with _uncached(), mock.patch.object(panel_module, "_parse_rows", _refuse_rows):
        got = _load_outcome(f)
    with _row_parser_only():
        assert got == _load_outcome(f)


def test_empty_cell_holes_take_the_fast_path_on_a_second_read(tmp_path):
    # no hole marker ("a", "A", blank, tab) in the body: the first read fails
    # on an empty cell, and the one rewrite of the lines is the retry
    f = _write(tmp_path, "date,A,B,C\n2000-01-01,,1,2\n2000-01-02,3,,4\n2000-01-03,5,6,\n")
    with mock.patch.object(panel_module, "_fill_holes", wraps=panel_module._fill_holes) as fill:
        _agrees_on_the_fast_path(f)
    fill.assert_called_once()  # the row-parser load does not reach it
    assert load_panel(f).missing_mask.tolist() == [[True, False, False], [False, True, False],
                                                   [False, False, True]]


def test_clean_panel_is_read_once(tmp_path):
    f = _write(tmp_path, "date,A\n2000-01-01,1\n2000-01-02,2\n")
    with mock.patch.object(panel_module, "_fill_holes") as fill:
        _agrees_on_the_fast_path(f)
    fill.assert_not_called()


def test_panel_longer_than_one_block_of_lines(tmp_path):
    # about 1.7 MB: the lines reach loadtxt in several blocks, and the empty
    # cells (no hole marker) are filled block by block on the second read
    n = 60000
    days = np.datetime_as_string(np.datetime64("1850-01-01") + np.arange(n))
    cells = np.char.mod("%.6g", np.random.default_rng(3).pareto(3.0, (n, 2)) * 10)
    cells[::7, 0] = ""
    lines = ["date,A,B"] + [f"{d},{a},{b}" for d, (a, b) in zip(days.tolist(), cells.tolist())]
    f = _write(tmp_path, "\n".join(lines) + "\n")
    with mock.patch.object(panel_module, "_fill_holes", wraps=panel_module._fill_holes) as fill:
        _agrees_on_the_fast_path(f)
    assert fill.call_count > 1
    assert load_panel(f).missing_mask[:, 0].sum() == len(range(0, n, 7))


@settings(max_examples=200, deadline=None)
@given(case=_csv_panels())
def test_fast_parser_agrees_with_row_parser_across_blocks(tmp_path_factory, case):
    f = tmp_path_factory.mktemp("blocks") / "panel.csv"
    f.write_bytes(case.encode())
    with mock.patch.object(panel_module, "_BLOCK", 24):  # a line or two a block
        got = _load_outcome(f)
    with _row_parser_only():
        assert got == _load_outcome(f)


# A fault, or a line the fast parser reads, on line 40 of 60: in a later
# block than the header's.  None marks a file that loads.
_LATER_LINE = {
    "utf-8": (b"2000-02-08,\xff,1", "line 40: cannot decode byte 0xff as UTF-8"),
    "hole": (b"2000-02-08, NA ,", None),
    "crlf": (b"2000-02-08,1,2\r", None),
    # a lone carriage return ends a physical line
    "lone cr": (b"2000-02-08,1,2\r2000-02-08,3,4", "line 41: dates must be strictly increasing"),
    "quote": (b'2000-02-08,"1",2', None),
    "nul": (b"2000-02-08,1\x00,2", "line 40: cannot parse value '1\\x00' for station 'A'"),
    "date order": (b"2000-02-07,1,2", "line 40: dates must be strictly increasing"),
    # a quoted line end: more lines than rows, and at a block of 24 bytes the
    # row spans two blocks
    "quoted line end": (b'2000-02-08,"1\n",2', None),
    "quoted line end, then a fault": (b'2000-02-08,"1\n",2\n2000-02-08,3,4',
                                      "line 42: dates must be strictly increasing"),
    # every line ends in a lone carriage return, or in CRLF
    "lone cr file": (b"2000-02-08,38,9.5", None),
    "crlf file": (b"2000-02-08,38,9.5", None),
    # a byte that is not UTF-8 is numbered by its "\n" line ends only
    "lone cr file, utf-8": (b"2000-02-08,\xff,1", "line 1: cannot decode byte 0xff as UTF-8"),
}
_LINE_END = {"lone cr file": b"\r", "crlf file": b"\r\n", "lone cr file, utf-8": b"\r"}


@pytest.mark.parametrize("fault", _LATER_LINE)
@pytest.mark.parametrize("block", [24, 512])
def test_a_later_block_gets_the_row_parsers_outcome(tmp_path, fault, block):
    line, error = _LATER_LINE[fault]
    days = np.datetime64("2000-01-01") + np.arange(59)
    lines = [b"date,A,B"] + [f"{d},{i},{i / 4}".encode() for i, d in enumerate(days)]
    lines[39] = line
    eol = _LINE_END.get(fault, b"\n")
    data = eol.join(lines) + eol
    f = tmp_path / "panel.csv"
    f.write_bytes(data)
    with _uncached(), mock.patch.object(panel_module, "_BLOCK", block):
        got = _load_outcome(f)
    with _row_parser_only():
        assert got == _load_outcome(f)
    if fault in ("hole", "crlf", "crlf file"):  # lines the fast parser reads itself
        with _uncached(), mock.patch.object(panel_module, "_BLOCK", block), \
                mock.patch.object(panel_module, "_parse_rows", _refuse_rows):
            load_panel(f)
    if error is None:
        assert got[0] == (59, 2)
        with _uncached(), mock.patch.object(panel_module, "_BLOCK", block):
            held = load_panel(f).values.base.shape[0]
        # a row per line end, the header's included, with a CRLF counted
        # once, or twice where it straddles two reads of _BLOCK bytes
        assert 0 <= held - len(data.splitlines()) <= len(data) // block
    else:
        assert got[0] in (PanelFormatError, DateOrderError) and got[1].startswith(error)


@pytest.mark.parametrize("date", ["2000-01-010", "2000-01-0100", "2000-01-01x"])
def test_long_date_field_gets_the_row_parsers_error(tmp_path, date):
    # an 11-byte field holds an eleventh character, so a longer date is never
    # cut down to a valid one
    f = _write(tmp_path, f"date,A\n1999-12-31,1\n{date},2\n")
    got = _load_outcome(f)
    with _row_parser_only():
        assert got == _load_outcome(f)
    assert got == (PanelFormatError, f"line 3: cannot parse date '{date}' (expected YYYY-MM-DD)")


@pytest.mark.parametrize("row", [
    "2000-01-0\u0661,2",  # Arabic-Indic one: numpy cannot store it in bytes
    "2000-01-0\u00b9,2",  # superscript one: a Latin-1 byte that is not a digit
    "\uff12000-01-02,2",  # fullwidth one
    "2000-01-02,\u0661",  # and in a value
    "2000-01-02,\u00b9",
])
def test_non_ascii_digit_gets_the_row_parsers_error(tmp_path, row):
    f = tmp_path / "panel.csv"
    f.write_bytes(f"date,A\n2000-01-01,1\n{row}\n".encode())
    got = _load_outcome(f)
    with _row_parser_only():
        assert got == _load_outcome(f)
    assert got[0] is PanelFormatError and got[1].startswith("line 3: cannot parse")


@pytest.mark.parametrize("cell", ["", "1"])
def test_blank_line_mid_file_stays_on_the_fast_path(tmp_path, cell):
    f = _write(tmp_path, f"date,A,B\n2000-01-01,1,{cell}\n\n2000-01-02,3,4\n\n")
    _agrees_on_the_fast_path(f)
    assert load_panel(f).n == 2


def test_nul_in_a_date_gets_the_row_parsers_error(tmp_path):
    # the 11-byte date field cannot tell a trailing NUL from its padding
    f = tmp_path / "panel.csv"
    f.write_bytes(b"date,A\n2000-01-01\x00,1\n")
    got = _load_outcome(f)
    with _row_parser_only():
        assert got == _load_outcome(f)
    assert got[0] is PanelFormatError


@pytest.mark.parametrize("header", ["A,date,B,C", "A,B,date,C"])
def test_date_column_in_the_middle_stays_on_the_fast_path(tmp_path, header):
    rows = [[1.5, 2, 3.25], [0, 7e-3, 12]]
    cols = header.split(",")
    lines = [header]
    for i, row in enumerate(rows):
        cells = [repr(float(x)) for x in row]
        cells.insert(cols.index("date"), f"2000-01-0{i + 1}")
        lines.append(",".join(cells))
    f = _write(tmp_path, "\n".join(lines) + "\n")
    _agrees_on_the_fast_path(f)
    p = load_panel(f)
    assert p.station_ids == ("A", "B", "C")
    assert p.values.tolist() == rows


def test_every_missing_spelling_keeps_the_fast_path(tmp_path):
    # one hole per line, first and last on alternate lines, so every line
    # is rewritten (or not) on its own merits
    holes = [pre + word + post for word in _SPELLINGS for pre in _PADS for post in _PADS]
    days = np.datetime_as_string(np.datetime64("2000-01-01") + np.arange(2 * len(holes)))
    lines = ["A,date,B"]
    for i, hole in enumerate(holes):
        lines += [f"{hole},{days[2 * i]},1", f"2,{days[2 * i + 1]},{hole}"]
    f = _write(tmp_path, "\n".join(lines) + "\n")

    def refuse(*args):
        raise AssertionError("the row parser ran on a valid panel")

    with mock.patch.object(panel_module, "_parse_rows", refuse):
        p = load_panel(f)
    assert p.missing_mask.tolist() == [[True, False], [False, True]] * len(holes)
    assert np.nansum(p.values) == 3 * len(holes)


@settings(max_examples=200, deadline=None)
@given(case=_csv_panels(max_faults=0))
def test_fault_free_panels_skip_the_row_parser(tmp_path_factory, case):
    """Padded and mixed-case missing cells, odd number spellings and the date
    column anywhere all stay on the fast path: the agreement test above would
    pass even if every file fell back to the row parser, which is several
    times slower."""
    f = tmp_path_factory.mktemp("fast") / "panel.csv"
    f.write_bytes(case.encode())

    def refuse(*args):
        raise AssertionError("the row parser ran on a fault-free panel")

    with mock.patch.object(panel_module, "_parse_rows", refuse):
        load_panel(f)


# ---------------------------------------------------------------------------
# Parsed-panel cache
# ---------------------------------------------------------------------------

_HOLED = "date,A,B\n2000-01-01,1.5,\n2000-01-02,na,2.25\n2000-01-04,nan,0\n"


def _load_counting(path):
    """``(_load_outcome(path), whether the file was read and parsed)``."""
    with mock.patch.object(panel_module, "_parse_fast", wraps=panel_module._parse_fast) as read:
        return _load_outcome(path), read.called


def test_a_hit_returns_the_parsed_panel_to_the_bit(tmp_path, cache_home):
    f = _write(tmp_path, _HOLED)
    wait_for_clock(f)
    parsed, was_parsed = _load_counting(f)
    assert was_parsed
    (slot,) = cache_home.glob("*.slot")
    assert stat.S_IMODE(cache_home.stat().st_mode) == 0o700
    assert stat.S_IMODE(slot.stat().st_mode) == 0o600
    # values.tobytes() holds the NaN payloads
    assert _load_counting(f) == (parsed, False)
    with _row_parser_only():
        assert _load_outcome(f) == parsed
    assert np.__version__ in panel_module._parser_tag()


def test_a_file_rewritten_to_the_same_size_is_parsed_again(tmp_path, cache_home):
    f = _write(tmp_path, "date,A\n2000-01-01,1\n")
    wait_for_clock(f)
    load_panel(f)
    (slot,) = cache_home.glob("*.slot")
    before = f.stat()
    f.write_text("date,A\n2000-01-01,2\n")
    # the old mtime back, as `touch -r` or `cp -p` leave it: the ctime moves
    os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = f.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    # a slot on a finer clock than the file's may look newer than the
    # rewrite: the record alone must tell
    os.utime(slot, ns=(after.st_ctime_ns + 10**9,) * 2)
    assert load_panel(f).values.tolist() == [[2.0]]


def test_a_slot_from_the_tick_of_the_files_last_change_is_not_trusted(tmp_path, cache_home):
    # a rewrite later in that tick would leave the file's times as recorded
    f = _write(tmp_path, _HOLED)
    wait_for_clock(f)
    want, _ = _load_counting(f)
    (slot,) = cache_home.glob("*.slot")
    changed = f.stat().st_ctime_ns
    os.utime(slot, ns=(changed, changed))
    assert _load_counting(f) == (want, True)
    assert _load_counting(f) == (want, False)  # the slot written now is later


@pytest.mark.parametrize("damage", ["empty", "half", "last byte", "garbage", "another panel"])
def test_a_damaged_slot_is_parsed_again_and_rewritten(tmp_path, cache_home, damage):
    other = _write(tmp_path, "date,A,B\n2000-01-01,1.5,2\n", name="other.csv")
    f = _write(tmp_path, _HOLED)
    wait_for_clock(f)
    load_panel(other)
    (other_slot,) = cache_home.glob("*.slot")
    want, _ = _load_counting(f)
    (slot,) = set(cache_home.glob("*.slot")) - {other_slot}
    data = slot.read_bytes()
    slot.write_bytes({"empty": b"", "half": data[:len(data) // 2], "last byte": data[:-1],
                      "garbage": os.urandom(len(data)),
                      "another panel": other_slot.read_bytes()}[damage])
    assert _load_counting(f) == (want, True)
    assert _load_counting(f) == (want, False)


def test_a_slot_from_another_parser_is_not_read(tmp_path):
    f = _write(tmp_path, _HOLED)
    wait_for_clock(f)
    with mock.patch.object(panel_module, "_parser_tag", lambda: "another parser"):
        want, _ = _load_counting(f)
        assert _load_counting(f) == (want, False)
    assert _load_counting(f) == (want, True)
    assert _load_counting(f) == (want, False)


def test_a_file_that_fails_to_parse_leaves_no_slot(tmp_path, cache_home):
    f = _write(tmp_path, "date,A\n2000-01-01,1\n2000-01-02,oops\n")
    wait_for_clock(f)
    for _ in range(2):
        with pytest.raises(PanelFormatError, match="line 3"):
            load_panel(f)
    assert not cache_home.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read_but_never_cached(tmp_path, cache_home):
    pipe = tmp_path / "panel.pipe"
    os.mkfifo(pipe)
    for _ in range(2):
        writer = threading.Thread(target=pipe.write_text, args=(_HOLED,), daemon=True)
        writer.start()
        assert load_panel(pipe).n == 3
        writer.join(10)
    assert not cache_home.exists()


def test_the_seventeenth_panel_evicts_the_oldest_slot(tmp_path, cache_home):
    files = [_write(tmp_path, _HOLED, name=f"p{i:02d}.csv") for i in range(MAX_SLOTS + 1)]
    wait_for_clock(files[-1])
    for f in files:
        load_panel(f)
        # a later slot gets a later time, so "oldest" is well defined
        wait_for_clock(max(cache_home.glob("*.slot"), key=lambda s: s.stat().st_mtime_ns))
    assert len(list(cache_home.glob("*.slot"))) == MAX_SLOTS
    # newest first: the one miss writes a slot and evicts the next oldest
    parsed = [_load_counting(f)[1] for f in reversed(files)]
    assert parsed == [False] * MAX_SLOTS + [True]


def test_slots_beyond_the_byte_cap_are_evicted_oldest_first(tmp_path, cache_home,
                                                            monkeypatch):
    files = [_write(tmp_path, _HOLED, name=f"p{i}.csv") for i in range(5)]
    wait_for_clock(files[-1])

    def load(f):
        load_panel(f)
        # a later slot gets a later time, so "oldest" is well defined
        wait_for_clock(max(cache_home.glob("*.slot"), key=lambda s: s.stat().st_mtime_ns))

    load(files[0])
    (slot,) = cache_home.glob("*.slot")
    assert MAX_SLOT_BYTES == 256 << 20
    monkeypatch.setattr(panel_module, "MAX_SLOT_BYTES", 2 * slot.stat().st_size)
    for f in files[1:4]:
        load(f)
    assert len(list(cache_home.glob("*.slot"))) == 2
    # newest first: each miss writes a slot and evicts the oldest other one
    assert [_load_counting(f)[1] for f in reversed(files[:4])] == [False, False, True, True]
    # a cap below one slot still keeps the newest
    monkeypatch.setattr(panel_module, "MAX_SLOT_BYTES", 1)
    load_panel(files[4])
    assert len(list(cache_home.glob("*.slot"))) == 1
    assert _load_counting(files[4]) == (_load_outcome(files[0]), False)


# ---------------------------------------------------------------------------
# Memory: a load holds the panel once
# ---------------------------------------------------------------------------

# What a load may trace beyond the panel's arrays: one block of text with its
# lines and table, the checks' small temporaries and the slot's members.
_ALLOWANCE = 1.5e6


def _traced(fn):
    """``(fn(), the peak of the memory traced while it ran)``."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wide_panel(tmp_path, date_pos, holed, quoted=None):
    """A 20000 x 8 panel file (1.28 MB of values) with its date column at
    ``date_pos``: a dozen blocks of lines.  ``quoted`` is None, "last row"
    (its first value quoted) or "every cell" (the header's too)."""
    rng = np.random.default_rng(8)
    cells = np.char.mod("%.6g", rng.pareto(3.0, (20000, 8)) * 10).astype(object)
    if holed:
        cells[rng.random(cells.shape) < 0.02] = "na"
        cells[::5, 3] = ""
    days = np.datetime_as_string(np.datetime64("1950-01-01") + np.arange(20000))
    rows = [[f"S{j}" for j in range(8)]] + cells.tolist()
    for row, day in zip(rows, ["date", *days.tolist()]):
        row.insert(date_pos, day)
    if quoted == "last row":
        rows[-1][date_pos == 0] = f'"{rows[-1][date_pos == 0]}"'
    elif quoted == "every cell":
        rows = [[f'"{cell}"' for cell in row] for row in rows]
    return _write(tmp_path, "\n".join(map(",".join, rows)) + "\n")


@pytest.mark.parametrize("holed", [False, True], ids=["clean", "holed"])
@pytest.mark.parametrize("date_pos", [0, 4, 8], ids=["date-first", "date-middle", "date-last"])
def test_a_parse_holds_the_panel_once_and_one_block(tmp_path, date_pos, holed):
    f = _wide_panel(tmp_path, date_pos, holed)
    with mock.patch.object(panel_module, "_parse_rows", _refuse_rows):
        p, peak = _traced(lambda: load_panel(f))
    assert p.values.flags.c_contiguous and p.n == 20000
    assert peak <= p.values.nbytes + p.day_labels.nbytes + _ALLOWANCE


@pytest.mark.parametrize("quoted", ["last row", "every cell"])
def test_a_quoted_panel_holds_the_panel_once_and_one_block(tmp_path, quoted):
    # the row parser reads from the block it takes over into the same arrays
    f = _wide_panel(tmp_path, 4, True, quoted)
    with _uncached():
        p, peak = _traced(lambda: load_panel(f))
    assert p.values.flags.c_contiguous and p.n == 20000
    assert peak <= p.values.nbytes + p.day_labels.nbytes + _ALLOWANCE
    (tmp_path / "plain").mkdir()
    plain = load_panel(_wide_panel(tmp_path / "plain", 4, True))
    assert p.values.tobytes() == plain.values.tobytes()
    assert (p.day_labels.tobytes(), p.station_ids) == (plain.day_labels.tobytes(),
                                                       plain.station_ids)


def test_a_slot_hit_holds_the_panel_once(tmp_path):
    f = _wide_panel(tmp_path, 0, True)
    wait_for_clock(f)
    parsed = _load_outcome(f)

    def refuse(*args):
        raise AssertionError("parsed a panel that has a slot")

    with mock.patch.object(panel_module, "_parse_fast", refuse):
        p, peak = _traced(lambda: load_panel(f))
    assert (p.values.shape, p.values.tobytes()) == parsed[:2]
    assert peak <= p.values.nbytes + p.day_labels.nbytes + _ALLOWANCE


# ---------------------------------------------------------------------------
# Seasons
# ---------------------------------------------------------------------------


def test_builtin_seasons_are_disjoint():
    assert not (WINTER_MONTHS & SUMMER_MONTHS)
    assert list(SEASONS.items()) == [("winter", WINTER_MONTHS), ("summer", SUMMER_MONTHS)]


def test_split_season_keeps_only_matching_months():
    # Jan 1 - Jul 18: 91 winter and 79 summer days, every one the record
    # spans, so the record ending mid-year is no thin year
    n = 200
    p = make_panel(np.arange(n, dtype=float).reshape(-1, 1) + 1, start="2000-01-01")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = split_season(p, SEASONS["winter"])
        s = split_season(p, SEASONS["summer"])
    assert set(w.months().tolist()) <= WINTER_MONTHS
    assert set(s.months().tolist()) <= SUMMER_MONTHS
    assert (w.n, s.n) == (91, 79)  # April dropped from both


def test_split_season_warns_about_a_gap_inside_a_year():
    # Jul 2000 - Jun 2002 with February 2001 missing: the partial first and
    # last years keep every season day they span; 2001 keeps 123 of 151
    days = np.arange(np.datetime64("2000-07-01"), np.datetime64("2002-07-01"))
    days = days[days.astype("datetime64[M]") != np.datetime64("2001-02")]
    p = PanelSample(values=np.ones((days.size, 1)), day_labels=days, station_ids=("a",))
    with pytest.warns(UserWarning, match=re.escape(
            "1 year(s) retain fewer than 150 season days (e.g. [2001])")):
        w = split_season(p, SEASONS["winter"])
    assert np.count_nonzero(w.years() == 2001) == 151 - 28
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split_season(p, SEASONS["summer"])  # no summer day is missing


def test_split_season_counts_season_days_without_a_calendar():
    # two rows eight millennia apart: a day-by-day calendar between them
    # would take 3.65 million days
    p = PanelSample(values=[[1.0], [2.0]], station_ids=("a",),
                    day_labels=np.array(["0001-01-01", "9999-12-31"], dtype="datetime64[D]"))
    with pytest.warns(UserWarning, match=re.escape(
            "2 year(s) retain fewer than 150 season days (e.g. [1, 9999]); "
            "check record completeness")):
        w, peak = _traced(lambda: split_season(p, SEASONS["winter"]))
    assert w.n == 2
    assert peak < 100_000


def _thin_years_by_calendar(p, months):
    """The years ``split_season`` reports, counted day by day over the
    calendar the record spans."""
    def season_years(days):
        kept = days[np.isin(days.astype("datetime64[M]").astype(np.int64) % 12 + 1, months)]
        return kept.astype("datetime64[Y]").astype(np.int64) + 1970

    span = np.arange(p.day_labels[0], p.day_labels[-1] + 1)
    held = dict(zip(*np.unique(season_years(span), return_counts=True)))
    years, counts = np.unique(season_years(p.day_labels), return_counts=True)
    return [int(y) for y, c in zip(years, counts) if c < min(MIN_SEASON_DAYS, held[y])]


@settings(max_examples=150, deadline=None)
@given(start=st.integers(-800, 800), n=st.integers(1, 900), seed=st.integers(0, 2**32 - 1),
       months=st.sets(st.integers(1, 12), min_size=1))
def test_split_season_reports_the_years_a_calendar_walk_reports(start, n, seed, months):
    days = np.datetime64("2000-01-01") + start + np.arange(n)
    kept = days[np.random.default_rng(seed).random(n) < 0.9] if n > 1 else days
    p = PanelSample(values=np.ones((kept.size, 1)), day_labels=kept, station_ids=("a",))
    thin = _thin_years_by_calendar(p, sorted(months))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            split_season(p, months)
        except EmptySeasonError:
            return
    assert [str(w.message) for w in caught] == ([
        f"{len(thin)} year(s) retain fewer than {MIN_SEASON_DAYS} season days "
        f"(e.g. {thin[:5]}); check record completeness"] if thin else [])


def test_split_season_full_year_no_warning():
    # a complete year keeps 152 winter days (Jan-Mar + Nov-Dec), above the floor
    assert MIN_SEASON_DAYS == 150
    p = make_panel(np.ones((366, 1)), start="2000-01-01")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = split_season(p, SEASONS["winter"])
    assert w.n == 152


def test_split_season_takes_any_collection_of_months():
    p = make_panel(np.ones((366, 1)), start="2000-01-01")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = split_season(p, WINTER_MONTHS)
        for months in ([3, 1, 2, 12, 11], (11, 12, 1, 2, 3, 3), np.array([1, 2, 3, 11, 12])):
            got = split_season(p, months)
            assert np.array_equal(got.day_labels, expected.day_labels)


def test_split_season_empty_raises():
    p = make_panel(np.ones((3, 1)), start="2000-06-01")
    with pytest.raises(EmptySeasonError, match=re.escape("months [2] matches no rows")):
        split_season(p, frozenset({2}))


def test_season_validation():
    p = make_panel(np.ones((3, 1)), start="2000-06-01")
    with pytest.raises(DomainError, match="^season must include at least one month$"):
        split_season(p, frozenset())
    with pytest.raises(DomainError, match=re.escape("invalid month number(s) in season: [0, 13]")):
        split_season(p, [13, 6, 0])


# ---------------------------------------------------------------------------
# Declustering
# ---------------------------------------------------------------------------


def test_decluster_hand_case():
    # values 9 (day 4) and 8 (day 7) dominate their 2-day windows, wiping
    # out days 2-6 and 8; day 1 sits 3 days from day 4 and survives.
    vals = np.array([[5.0], [6.0], [7.0], [9.0], [6.5], [4.0], [8.0], [1.0]])
    p = make_panel(vals)
    out = decluster(p, gap_days=2)
    assert out.values[:, 0].tolist() == [5.0, 9.0, 8.0]


def test_decluster_tie_prefers_earlier_day():
    vals = np.array([[3.0], [3.0], [1.0]])
    out = decluster(make_panel(vals), gap_days=1)
    # both ties fall in each other's window; the earlier day wins
    assert str(out.day_labels[0]).endswith("01-01")
    assert out.values[:, 0].tolist() == [3.0, 1.0]


def test_decluster_gap_zero_is_identity(small_panel):
    out = decluster(small_panel, gap_days=0)
    assert out.n == small_panel.n
    np.testing.assert_array_equal(out.values, small_panel.values)


def test_decluster_uses_station_max():
    # station 1 carries the big event on day 2; it must suppress day 1's
    # station-0 value even though column 0 alone would keep day 1
    vals = np.array([[5.0, 0.0], [1.0, 9.0], [0.1, 0.2]])
    out = decluster(make_panel(vals), gap_days=1)
    assert out.n == 1
    assert out.values[0].tolist() == [1.0, 9.0]


def test_decluster_drops_all_missing_days():
    vals = np.array([[1.0], [2.0], [3.0]])
    missing = np.array([[False], [True], [False]])
    with pytest.warns(UserWarning, match="all stations missing"):
        out = decluster(make_panel(vals, missing=missing), gap_days=0)
    assert out.n == 2


@pytest.mark.parametrize("gap", [0, 2])
def test_decluster_panel_with_no_observed_value(gap):
    p = make_panel(np.zeros((2, 2)), missing=np.ones((2, 2), dtype=bool))
    with pytest.raises(EmptyPoolError, match="no non-missing observations"):
        decluster(p, gap_days=gap)


def test_decluster_respects_calendar_gaps():
    # days 1 and 30: far apart, both kept regardless of value order
    p = PanelSample(
        values=np.array([[2.0], [1.0]]),
        day_labels=np.array(["2000-01-01", "2000-01-30"], dtype="datetime64[D]"),
        station_ids=("a",),
    )
    assert decluster(p, gap_days=2).n == 2


def test_decluster_negative_gap():
    with pytest.raises(DomainError):
        decluster(make_panel(np.ones((2, 1))), gap_days=-1)


def test_decluster_walks_a_rising_record():
    # rising maxima: each array round settles only the last open day and
    # the days just before it, so the walk, not the rounds, decides nearly
    # every day
    p = make_panel(np.arange(1.0, 201.0).reshape(-1, 1))
    out = decluster(p, gap_days=2)
    assert out.values[:, 0].tolist() == np.arange(2.0, 201.0, 3).tolist()
    assert out.day_labels.tolist() == p.day_labels[1::3].tolist()


def test_decluster_walks_the_days_the_rounds_leave_open():
    # a long record with tied maxima, calendar gaps and wide windows, where
    # the rounds leave days open: the walk must finish them as the rule does
    rng = np.random.default_rng(4)
    values = rng.choice([0.0, 1.0, 2.0, 3.0, 5.0], size=(600, 2))
    values[rng.random(values.shape) < 0.1] = np.nan
    values[0] = 1.0
    p = PanelSample(values=values, station_ids=("a", "b"),
                    day_labels=np.datetime64("1990-01-01") + np.cumsum(rng.integers(1, 4, 600)))
    for gap in (1, 3, 7, 40):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # days with every station missing
            out = decluster(p, gap_days=gap)
        want = p.day_labels[_decluster_by_definition(p, gap)]
        assert out.day_labels.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=40
    ),
    gap=st.integers(min_value=0, max_value=5),
)
def test_decluster_separation_property(values, gap):
    """Kept days are pairwise more than ``gap`` apart, and every removed day
    sits within ``gap`` of a kept day whose maximum is at least as large."""
    p = make_panel(np.asarray(values).reshape(-1, 1))
    out = decluster(p, gap_days=gap)
    kept_days = out.day_numbers()
    if gap > 0 and kept_days.size > 1:
        assert np.diff(kept_days).min() > gap
    kept_set = set(kept_days.tolist())
    kept_max = {int(d): v for d, v in zip(kept_days, out.values[:, 0])}
    for d, v in zip(p.day_numbers(), p.values[:, 0]):
        if int(d) in kept_set:
            continue
        blockers = [
            kept_max[kd]
            for kd in kept_max
            if abs(kd - int(d)) <= gap
        ]
        assert blockers and max(blockers) >= v


def _decluster_by_definition(p, gap):
    """Rows kept by the rule in ``decluster``'s docstring, checked day
    against day: rank the days with an observation by their station maximum
    (largest first, earlier day first), then keep a day unless it lies
    within ``gap`` calendar days of a day already kept."""
    days = p.day_numbers().tolist()
    maxima = {}
    for i in range(p.n):
        seen = [v for v, miss in zip(p.values[i].tolist(), p.missing_mask[i].tolist())
                if not miss]
        if seen:
            maxima[i] = max(seen)
    kept = []
    for i in sorted(maxima, key=lambda i: (-maxima[i], days[i])):
        if all(abs(days[i] - days[j]) > gap for j in kept):
            kept.append(i)
    return sorted(kept)


@st.composite
def _gappy_panels(draw):
    """Up to 4 stations over up to 30 days with calendar gaps, few distinct
    values (so row maxima tie) and missing cells (so whole days go missing)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    steps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    cells = st.lists(st.sampled_from((0.0, 1.0, 2.0, 2.5, 7.0)), min_size=m, max_size=m)
    holes = st.lists(st.sampled_from((False, False, True)), min_size=m, max_size=m)
    values = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    values[np.array(draw(st.lists(holes, min_size=n, max_size=n)))] = np.nan
    return PanelSample(
        values=values,
        day_labels=np.datetime64("2000-02-20") + np.cumsum(steps),
        station_ids=tuple(f"S{j}" for j in range(m)),
    )


@settings(max_examples=300, deadline=None)
@given(p=_gappy_panels(), gap=st.integers(0, 5))
def test_decluster_matches_its_definition(p, gap):
    if p.missing_mask.all():
        with pytest.raises(EmptyPoolError):
            decluster(p, gap_days=gap)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = decluster(p, gap_days=gap)
    want = p.subset_rows(np.array(_decluster_by_definition(p, gap), dtype=np.int64))
    assert out.day_labels.tobytes() == want.day_labels.tobytes()
    assert out.values.tobytes() == want.values.tobytes()
    assert out.missing_mask.tobytes() == want.missing_mask.tobytes()


def test_public_reexports():
    assert scedex.load_panel is load_panel
    assert scedex.__version__
