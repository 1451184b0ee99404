import re
import warnings
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
    ScedexError,
    SeasonDefinition,
    decluster,
    load_panel,
    split_season,
)
from scedex import panel as panel_module
from scedex.panel import SUMMER_MONTHS, WINTER_MONTHS

from conftest import make_panel


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


def _row_parser_only():
    return mock.patch.object(panel_module, "_parse_fast", lambda *args: None)


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
_FAULTS = ("crlf", "blank line", "quote", "bad cell", "field count", "repeated date")


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
# Seasons
# ---------------------------------------------------------------------------


def test_builtin_seasons_are_disjoint():
    assert not (WINTER_MONTHS & SUMMER_MONTHS)
    assert SeasonDefinition.winter().included_months == WINTER_MONTHS
    assert SeasonDefinition.summer().included_months == SUMMER_MONTHS


def test_split_season_keeps_only_matching_months():
    n = 200  # Jan 1 - Jul 18: only 91 winter days, so the thin-year warning fires
    p = make_panel(np.arange(n, dtype=float).reshape(-1, 1) + 1, start="2000-01-01")
    with pytest.warns(UserWarning, match="fewer than 150"):
        w = split_season(p, SeasonDefinition.winter())
    assert set(w.months().tolist()) <= WINTER_MONTHS
    s = split_season(p, SeasonDefinition(SUMMER_MONTHS, min_days_per_year=1))
    assert set(s.months().tolist()) <= SUMMER_MONTHS
    assert w.n + s.n < n  # April dropped from both


def test_split_season_full_year_no_warning():
    # a complete year keeps 152 winter days (Jan-Mar + Nov-Dec), above the floor
    p = make_panel(np.ones((366, 1)), start="2000-01-01")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = split_season(p, SeasonDefinition.winter())
    assert w.n == 152


def test_split_season_empty_raises():
    p = make_panel(np.ones((3, 1)), start="2000-06-01")
    with pytest.raises(EmptySeasonError):
        split_season(p, SeasonDefinition(frozenset({2})))


def test_season_validation():
    with pytest.raises(DomainError):
        SeasonDefinition(frozenset())
    with pytest.raises(DomainError):
        SeasonDefinition(frozenset({0, 5}))


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
