"""Panel data model: loading multi-station daily series, season filters, declustering."""

from __future__ import annotations

import csv
import datetime as dt
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DateOrderError,
    DomainError,
    EmptyPoolError,
    EmptySeasonError,
    PanelFormatError,
)

# Month sets follow the usual hydrological convention for mid-latitude
# rainfall: winter = Nov-Mar, summer = May-Sep.  April and October are left
# out of both presets as transition months.
WINTER_MONTHS = frozenset({11, 12, 1, 2, 3})
SUMMER_MONTHS = frozenset({5, 6, 7, 8, 9})


@dataclass(frozen=True)
class SeasonDefinition:
    """A set of calendar months plus a completeness floor.

    ``min_days_per_year`` is a sanity floor: calendar years that retain fewer
    rows than this (but more than zero) trigger a warning, since a sparse
    season usually signals gaps in the record rather than a short season.
    """

    included_months: frozenset[int]
    min_days_per_year: int = 150

    def __post_init__(self):
        months = frozenset(int(m) for m in self.included_months)
        if not months:
            raise DomainError("season must include at least one month")
        bad = sorted(m for m in months if not 1 <= m <= 12)
        if bad:
            raise DomainError(f"invalid month number(s) in season: {bad}")
        if self.min_days_per_year < 1:
            raise DomainError("min_days_per_year must be >= 1")
        object.__setattr__(self, "included_months", months)

    @classmethod
    def winter(cls) -> "SeasonDefinition":
        return cls(WINTER_MONTHS)

    @classmethod
    def summer(cls) -> "SeasonDefinition":
        return cls(SUMMER_MONTHS)


@dataclass(frozen=True)
class PanelSample:
    """Daily observations for ``m`` stations over ``n`` days.

    ``values[i, j]`` is the amount on day ``i`` at station ``j`` (NaN where
    missing); ``missing_mask`` mirrors the NaN pattern.  Rows are strictly
    calendar-ordered and arrays are frozen after construction, so the pooled
    sample :attr:`sorted_values` is sorted once, on first use.
    """

    values: np.ndarray
    day_labels: np.ndarray  # datetime64[D], strictly increasing
    station_ids: tuple[str, ...]
    missing_mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.missing_mask, dtype=bool)
        labels = np.asarray(self.day_labels, dtype="datetime64[D]")
        ids = tuple(str(s) for s in self.station_ids)

        if values.ndim != 2:
            raise DomainError(f"values must be 2-D, got shape {values.shape}")
        n, m = values.shape
        if m == 0 or n == 0:
            raise DomainError(f"panel must be non-empty, got shape {values.shape}")
        if mask.shape != values.shape:
            raise DomainError(
                f"missing_mask shape {mask.shape} does not match values shape {values.shape}"
            )
        if labels.shape != (n,):
            raise DomainError(f"day_labels must have length {n}, got {labels.shape}")
        if len(ids) != m:
            raise DomainError(f"expected {m} station ids, got {len(ids)}")
        if n > 1 and not np.all(labels[1:] > labels[:-1]):
            bad = int(np.flatnonzero(labels[1:] <= labels[:-1])[0]) + 1
            raise DateOrderError(
                f"day_labels must be strictly increasing (violated at row {bad}: "
                f"{labels[bad]} after {labels[bad - 1]})"
            )

        values = values.copy()
        values[mask] = np.nan
        if not np.all(np.isfinite(values) | mask):
            raise DomainError("non-missing values must be finite")
        if np.any(values < 0):  # NaN compares False
            raise DomainError("non-missing values must be >= 0")

        values.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing_mask", mask)
        object.__setattr__(self, "day_labels", labels)
        object.__setattr__(self, "station_ids", ids)

    # -- basic geometry -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of days (rows)."""
        return self.values.shape[0]

    @property
    def m(self) -> int:
        """Number of stations (columns)."""
        return self.values.shape[1]

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """The non-missing values pooled over days and stations, sorted
        ascending and read-only."""
        out = np.sort(self.values[~self.missing_mask])
        out.setflags(write=False)
        return out

    def day_numbers(self) -> np.ndarray:
        """Day labels as integer days since epoch (for calendar arithmetic)."""
        return self.day_labels.astype("datetime64[D]").astype(np.int64)

    def months(self) -> np.ndarray:
        """Calendar month (1..12) of every row."""
        return (self.day_labels.astype("datetime64[M]").astype(np.int64) % 12) + 1

    def years(self) -> np.ndarray:
        return self.day_labels.astype("datetime64[Y]").astype(np.int64) + 1970

    def subset_rows(self, idx: np.ndarray) -> "PanelSample":
        """New panel with the given rows (indices must be sorted ascending)."""
        return PanelSample(
            values=self.values[idx],
            day_labels=self.day_labels[idx],
            station_ids=self.station_ids,
            missing_mask=self.missing_mask[idx],
        )

    def station_index(self, station: str | int) -> int:
        """Resolve a station given either its id or a 0-based column index."""
        if isinstance(station, str) and station in self.station_ids:
            return self.station_ids.index(station)
        try:
            j = int(station)
        except (TypeError, ValueError):
            raise DomainError(f"unknown station {station!r}") from None
        if not 0 <= j < self.m:
            raise DomainError(f"station index {j} out of range for m={self.m}")
        return j


# The one date grammar: Python's ``date.fromisoformat`` also reads
# ``20000101`` and ``2000-W01-2`` from 3.11 on, and numpy's cast reads
# ``2000-01``, so both parsers check the spelling first.
_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)
# One line with its ending, as iterating a file opened with newline="" gives
# it (an io.StringIO copy of the text would take four bytes a character).
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# A missing cell ("", "nan" or "na" in any case, padded with blanks) with the
# delimiter before it.  A missing cell never starts with a digit or a dot, so
# the look-ahead rejects most numeric cells at their first character.
_MISSING_CELL = re.compile(
    r"([,\n])(?![0-9.])[ \t]*(?:nan|na)?[ \t]*(?=[,\n]|\Z)", re.IGNORECASE | re.ASCII
)
# A NaN with a sign, which numpy reads and the row parser rejects.  One
# pattern per sign: a literal first character lets the search skip ahead
# (7 ms for both on a 6.5 MB panel, against 50 ms for ``[+-]nan``, on a
# 2-core x86-64 box with Python 3.11).
_SIGNED_NAN = (re.compile(r"-nan", re.IGNORECASE | re.ASCII),
               re.compile(r"\+nan", re.IGNORECASE | re.ASCII))


def load_panel(
    path: str | Path,
    date_column: str = "date",
    station_columns: Sequence[str] | None = None,
) -> PanelSample:
    """Read a panel from CSV.

    Expected layout: UTF-8 text with one header row of unique names; one
    column of ``YYYY-MM-DD`` dates (``date_column``) and one column per
    station.  Empty cells, ``nan`` and ``na`` (any case, surrounding blanks
    allowed) mark missing observations.  Errors carry the physical line
    number of the offending row.

    A vectorised parser reads files it can prove valid; anything else
    (quoted fields, blank rows, a bad cell, ...) goes through the row
    parser, which raises every error.
    """
    text = _read_text(Path(path))
    reader = csv.reader(m.group() for m in _LINE.finditer(text))
    header = next(reader, None)
    if header is None:
        raise PanelFormatError("file is empty")
    header, date_pos, stations, col_pos = _columns(header, date_column, station_columns)
    parsed = _parse_fast(text, len(header), date_pos, col_pos)
    if parsed is None:
        parsed = _parse_rows(reader, len(header), date_pos, stations, col_pos)
    values, labels, mask = parsed
    del text, reader  # free the text before PanelSample copies the arrays
    return PanelSample(
        values=values, day_labels=labels, station_ids=tuple(stations), missing_mask=mask
    )


def _read_text(path: Path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PanelFormatError(
            f"cannot decode byte 0x{data[exc.start]:02x} as UTF-8",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def _columns(header: list[str], date_column: str, station_columns: Sequence[str] | None):
    """Header names, the date column's position, the station ids and their
    column positions; every header error is reported on line 1."""
    header = [h.strip() for h in header]
    repeated = sorted(h for h, c in Counter(header).items() if c > 1)
    if repeated:
        raise PanelFormatError(f"duplicate column name(s) in header: {repeated}", line=1)
    if date_column not in header:
        raise PanelFormatError(
            f"missing required date column {date_column!r} in header {header}", line=1
        )
    date_pos = header.index(date_column)
    if station_columns is None:
        stations = [h for i, h in enumerate(header) if i != date_pos]
    else:
        stations = list(station_columns)
        missing_cols = [s for s in stations if s not in header]
        if missing_cols:
            raise PanelFormatError(f"station column(s) not in header: {missing_cols}", line=1)
        repeated = sorted(s for s, c in Counter(stations).items() if c > 1)
        if repeated:
            raise PanelFormatError(f"station column(s) requested twice: {repeated}")
    if not stations:
        raise PanelFormatError("no station columns found", line=1)
    return header, date_pos, stations, [header.index(s) for s in stations]


def _parse_fast(text: str, n_fields: int, date_pos: int, col_pos: list[int]):
    """``(values, day_labels, missing_mask)`` parsed with numpy, or None.

    None means the file holds something this parser does not prove valid:
    a quote in a data row, a lone carriage return, a blank row, a row with
    the wrong field count, a date outside the grammar or out of order, a
    signed NaN (``-nan``) anywhere, an infinite or negative amount, or a
    selected cell numpy cannot read (cells outside the selected columns are
    only counted, as the row parser does).  On every file it accepts, the
    row parser returns the same arrays.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    # The rows, led by the header's newline, which delimits the first cell.
    # A quoted header that spans lines leaves its closing quote in them.
    rows = text[text.find("\n"):].rstrip("\n")
    if not rows.startswith("\n") or '"' in rows:
        return None
    # numpy reads a signed NaN, which the row parser rejects; every other
    # NaN it reads is a missing cell, rewritten to "nan" here.
    if any(pattern.search(rows) for pattern in _SIGNED_NAN):
        return None
    rows = _MISSING_CELL.sub(r"\1nan", rows)
    lines = rows.split("\n")[1:]
    del rows  # each copy of the text adds to the peak memory of a load
    if any(line.count(",") != n_fields - 1 for line in lines):
        return None
    dates = [line.split(",", date_pos + 1)[date_pos] for line in lines]
    if not all(map(_DATE.fullmatch, dates)):
        return None
    try:
        labels = np.array(dates, dtype="datetime64[D]")
        values = np.loadtxt(lines, delimiter=",", comments=None, usecols=col_pos, ndmin=2)
    except ValueError:
        return None
    missing = np.isnan(values)
    if (
        labels[0] < np.datetime64("0001-01-01")  # date.fromisoformat has no year 0
        or np.any(labels[1:] <= labels[:-1])
        or np.any(np.isinf(values))
        or np.any(values < 0)
    ):
        return None
    return values, labels, missing


def _parse_rows(reader, n_fields: int, date_pos: int, stations: list[str], col_pos: list[int]):
    """``(values, day_labels, missing_mask)`` parsed row by row; raises the
    error of the first bad row, with its line number."""
    dates: list[dt.date] = []
    rows: list[list[float]] = []
    mask_rows: list[list[bool]] = []
    end = reader.line_num  # the header's last physical line
    for row in reader:
        # a quoted cell may span lines: the row starts after the last one ended
        line_no, end = end + 1, reader.line_num
        if not row or all(not c.strip() for c in row):
            continue  # tolerate blank lines
        if len(row) != n_fields:
            raise PanelFormatError(f"expected {n_fields} fields, got {len(row)}", line=line_no)
        raw_date = row[date_pos].strip()
        try:
            if not _DATE.fullmatch(raw_date):
                raise ValueError(raw_date)
            date = dt.date.fromisoformat(raw_date)
        except ValueError:
            raise PanelFormatError(
                f"cannot parse date {raw_date!r} (expected YYYY-MM-DD)", line=line_no
            ) from None
        if dates and date <= dates[-1]:
            raise DateOrderError(
                f"line {line_no}: dates must be strictly increasing "
                f"({date.isoformat()} after {dates[-1].isoformat()})"
            )
        vals: list[float] = []
        miss: list[bool] = []
        for s, pos in zip(stations, col_pos):
            cell = row[pos].strip()
            if cell == "" or cell.lower() in {"nan", "na"}:
                vals.append(np.nan)
                miss.append(True)
                continue
            try:
                x = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"cannot parse value {cell!r} for station {s!r}", line=line_no
                ) from None
            if not np.isfinite(x):
                raise PanelFormatError(
                    f"non-finite value {cell!r} for station {s!r}", line=line_no
                )
            if x < 0:
                raise DomainError(f"line {line_no}: negative amount {x} for station {s!r}")
            vals.append(x)
            miss.append(False)
        dates.append(date)
        rows.append(vals)
        mask_rows.append(miss)

    if not rows:
        raise PanelFormatError("no data rows")
    return (
        np.array(rows, dtype=float),
        np.array(dates, dtype="datetime64[D]"),
        np.array(mask_rows, dtype=bool),
    )


def split_season(p: PanelSample, season: SeasonDefinition) -> PanelSample:
    """Rows of ``p`` whose calendar month lies in the season.

    Raises :class:`EmptySeasonError` when nothing survives.  Years retaining
    fewer than ``season.min_days_per_year`` rows are reported via a warning.
    """
    keep = np.isin(p.months(), list(season.included_months))
    if not keep.any():
        raise EmptySeasonError(
            f"season with months {sorted(season.included_months)} matches no rows"
        )
    out = p.subset_rows(np.flatnonzero(keep))
    years, counts = np.unique(out.years(), return_counts=True)
    thin = [int(y) for y, c in zip(years, counts) if c < season.min_days_per_year]
    if thin:
        warnings.warn(
            f"{len(thin)} year(s) retain fewer than {season.min_days_per_year} "
            f"season days (e.g. {thin[:5]}); check record completeness",
            stacklevel=2,
        )
    return out


def decluster(p: PanelSample, gap_days: int = 2) -> PanelSample:
    """Thin temporally clustered days, keeping the largest events.

    Days are ranked by their station-wise maximum (largest first, earlier
    date wins ties).  Walking down that ranking, a day is removed exactly
    when it falls within ``gap_days`` calendar days of a day already kept;
    otherwise it is kept.  All stations of a removed day are dropped
    together, and the surviving rows come back in calendar order.

    ``gap_days=0`` keeps everything.  Days on which every station is missing
    carry no usable maximum and are dropped (with a warning reporting the
    count); a panel with no observed value raises :class:`EmptyPoolError`.
    """
    if gap_days < 0:
        raise DomainError(f"gap_days must be >= 0, got {gap_days}")

    filled = np.where(p.missing_mask, -np.inf, p.values)
    row_max = filled.max(axis=1)
    usable = np.isfinite(row_max)
    if not usable.any():
        raise EmptyPoolError("panel has no non-missing observations to decluster")
    n_all_missing = int((~usable).sum())
    if n_all_missing:
        warnings.warn(
            f"dropping {n_all_missing} day(s) with all stations missing", stacklevel=2
        )

    rows = np.flatnonzero(usable)
    day_nums = p.day_numbers()
    # Rank: maximum descending, then date ascending (earlier day wins ties).
    order = rows[np.lexsort((day_nums[rows], -row_max[rows]))]

    lo_day = int(day_nums[rows].min())
    span = int(day_nums[rows].max()) - lo_day + 1
    kept_flag = np.zeros(span, dtype=bool)
    kept: list[int] = []
    for idx in order:
        d = int(day_nums[idx]) - lo_day
        w0 = max(0, d - gap_days)
        w1 = min(span, d + gap_days + 1)
        if gap_days > 0 and kept_flag[w0:w1].any():
            continue
        kept_flag[d] = True
        kept.append(idx)

    kept_idx = np.sort(np.array(kept, dtype=np.int64))
    return p.subset_rows(kept_idx)
