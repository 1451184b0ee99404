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

    ``values[i, j]`` is the amount on day ``i`` at station ``j``; NaN marks a
    missing cell, and :attr:`missing_mask` is derived from it.  Rows are
    strictly calendar-ordered and arrays are frozen after construction, so
    the pooled sample :attr:`sorted_values` is sorted once, on first use.
    """

    values: np.ndarray
    day_labels: np.ndarray  # datetime64[D], strictly increasing
    station_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        labels = np.array(self.day_labels, dtype="datetime64[D]")
        ids = tuple(str(s) for s in self.station_ids)

        if values.ndim != 2:
            raise DomainError(f"values must be 2-D, got shape {values.shape}")
        n, m = values.shape
        if m == 0 or n == 0:
            raise DomainError(f"panel must be non-empty, got shape {values.shape}")
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
        if np.any(np.isinf(values)):
            raise DomainError("non-missing values must be finite")
        if np.any(values < 0):  # NaN compares False
            raise DomainError("non-missing values must be >= 0")

        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
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
    def missing_mask(self) -> np.ndarray:
        """Read-only ``isnan(values)``: True where a cell is missing."""
        mask = np.isnan(self.values)
        mask.setflags(write=False)
        return mask

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """The non-missing values pooled over days and stations, sorted
        ascending and read-only; :class:`EmptyPoolError` when there are none."""
        out = self.values[~self.missing_mask]  # a fresh copy: sort it in place
        out.sort()
        if out.size == 0:
            raise EmptyPoolError("panel has no non-missing observations")
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
# The one number grammar: ASCII decimals with an optional sign and exponent
# (Python's ``float`` also reads ``1_0`` and non-ASCII digits).  The
# infinities and signed NaNs match too, to be reported as non-finite.
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)",
                     re.IGNORECASE | re.ASCII)
# One line with its ending, as iterating a file opened with newline="" gives
# it (an io.StringIO copy of the text would take four bytes a character).
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# A missing cell ("", "nan" or "na" in any case, padded with blanks) with the
# comma before it, in a line framed by commas.  The literal comma lets the
# search jump from cell to cell, and a numeric cell fails at its first
# character, as a missing cell never starts with a digit or a dot.
_MISSING_CELL = re.compile(r",(?![0-9.])[ \t]*(?:nan|na)?[ \t]*(?=,)", re.IGNORECASE | re.ASCII)


def load_panel(path: str | Path) -> PanelSample:
    """Read a panel from CSV.

    Expected layout: UTF-8 text with one header row of unique names; one
    ``date`` column of ``YYYY-MM-DD`` dates, in any position, and one column
    per station.  Empty cells, ``nan`` and ``na`` (any case, surrounding
    blanks allowed) mark missing observations.  Errors carry the physical
    line number of the offending row.

    A vectorised parser reads files it can prove valid; anything else
    (quoted fields, blank rows, a bad cell, ...) goes through the row
    parser, which raises every error.
    """
    text = _read_text(Path(path))
    reader = csv.reader(m.group() for m in _LINE.finditer(text))
    header = next(reader, None)
    if header is None:
        raise PanelFormatError("file is empty")
    date_pos, stations = _columns(header)
    parsed = _parse_fast(text, date_pos, len(stations))
    if parsed is None:
        parsed = _parse_rows(reader, date_pos, stations)
    values, labels = parsed
    del text, reader  # free the text before PanelSample copies the values
    return PanelSample(values=values, day_labels=labels, station_ids=tuple(stations))


def _read_text(path: Path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PanelFormatError(
            f"cannot decode byte 0x{data[exc.start]:02x} as UTF-8",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def _columns(header: list[str]) -> tuple[int, list[str]]:
    """The date column's position and the station ids, in file order; every
    header error is reported on line 1."""
    header = [h.strip() for h in header]
    repeated = sorted(h for h, c in Counter(header).items() if c > 1)
    if repeated:
        raise PanelFormatError(f"duplicate column name(s) in header: {repeated}", line=1)
    if "date" not in header:
        raise PanelFormatError(f"missing required date column 'date' in header {header}", line=1)
    date_pos = header.index("date")
    stations = header[:date_pos] + header[date_pos + 1:]
    if not stations:
        raise PanelFormatError("no station columns found", line=1)
    return date_pos, stations


def _parse_fast(text: str, date_pos: int, m: int):
    """``(values, day_labels)`` parsed with numpy, or None.

    None means the file holds something this parser does not prove valid:
    a quote in a data row, a lone carriage return, a blank row, a row with
    the wrong field count, a date outside the grammar or out of order, a
    signed NaN (``-nan``) anywhere, an infinite or negative amount, or a
    cell numpy cannot read.  On every file it accepts, the row parser
    returns the same arrays.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    while len(lines) > 1 and not lines[-1]:
        lines.pop()
    # A quoted header that spans lines leaves its closing quote in the rows.
    if len(lines) < 2 or text.find('"', len(lines[0])) >= 0:
        return None
    del lines[0]
    for i, line in enumerate(lines):
        if line.count(",") != m:
            return None
        # numpy reads "nan" in any case and padding, so only lines with an
        # empty cell, a blank or an "na" (an "a" outside a "nan") are rewritten.
        hole = ",," in line or line[:1] == "," or line[-1:] == "," or " " in line or "\t" in line
        if "a" in line or "A" in line:  # every NaN spelling holds an "a"
            low = line.lower()
            if "-nan" in low or "+nan" in low:
                return None  # numpy reads a signed NaN, which the row parser rejects
            hole = hole or low.count("a") != low.count("nan")
        if hole:
            lines[i] = _MISSING_CELL.sub(",nan", f",{line},")[1:-1]
    dates = [line.split(",", date_pos + 1)[date_pos] for line in lines]
    if not all(map(_DATE.fullmatch, dates)):
        return None
    col_pos = [j for j in range(m + 1) if j != date_pos]
    try:
        labels = np.array(dates, dtype="datetime64[D]")
        values = np.loadtxt(lines, delimiter=",", comments=None, usecols=col_pos, ndmin=2)
    except ValueError:
        return None
    if (
        labels[0] < np.datetime64("0001-01-01")  # date.fromisoformat has no year 0
        or np.any(labels[1:] <= labels[:-1])
        or np.any(np.isinf(values))
        or np.any(values < 0)
    ):
        return None
    return values, labels


def _parse_rows(reader, date_pos: int, stations: list[str]):
    """``(values, day_labels)`` parsed row by row; raises the error of the
    first bad row, with its line number."""
    n_fields = len(stations) + 1
    dates: list[dt.date] = []
    rows: list[list[float]] = []
    end = reader.line_num  # the header's last physical line
    for row in reader:
        # a quoted cell may span lines: the row starts after the last one ended
        line_no, end = end + 1, reader.line_num
        if not row or all(not c.strip() for c in row):
            continue  # tolerate blank lines
        if len(row) != n_fields:
            raise PanelFormatError(f"expected {n_fields} fields, got {len(row)}", line=line_no)
        raw_date = row.pop(date_pos).strip()
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
        for s, cell in zip(stations, row):
            cell = cell.strip()
            if cell == "" or cell.lower() in {"nan", "na"}:
                vals.append(np.nan)
                continue
            if not _NUMBER.fullmatch(cell):
                raise PanelFormatError(
                    f"cannot parse value {cell!r} for station {s!r}", line=line_no
                )
            x = float(cell)
            if not np.isfinite(x):
                raise PanelFormatError(
                    f"non-finite value {cell!r} for station {s!r}", line=line_no
                )
            if x < 0:
                raise DomainError(f"line {line_no}: negative amount {x} for station {s!r}")
            vals.append(x)
        dates.append(date)
        rows.append(vals)

    if not rows:
        raise PanelFormatError("no data rows")
    return np.array(rows, dtype=float), np.array(dates, dtype="datetime64[D]")


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

    row_max = np.fmax.reduce(p.values, axis=1)  # NaN on a day with every station missing
    usable = ~np.isnan(row_max)
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

    # Day d's flag sits at d + gap_days, so its window is [d, d + 2 gap_days]
    # with no clamp at either end; days are unique, so gap 0 keeps every day.
    lo_day = int(day_nums[rows].min())
    kept_flag = bytearray(int(day_nums[rows].max()) - lo_day + 1 + 2 * gap_days)
    kept: list[int] = []
    for idx, d in zip(order.tolist(), (day_nums[order] - lo_day).tolist()):
        if kept_flag.find(1, d, d + 2 * gap_days + 1) < 0:
            kept_flag[d + gap_days] = 1
            kept.append(idx)

    kept_idx = np.sort(np.array(kept, dtype=np.int64))
    return p.subset_rows(kept_idx)
