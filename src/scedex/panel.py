"""Panel data model: loading multi-station daily series, season filters, declustering."""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import os
import re
import stat
import tempfile
import warnings
import zlib
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
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
# The named seasons, in the order the CLI offers them.
SEASONS = {"winter": WINTER_MONTHS, "summer": SUMMER_MONTHS}
# A calendar year that keeps fewer season days than this (but some), and
# fewer than the record spans in it, is reported: a sparse season usually
# signals gaps in the record.
MIN_SEASON_DAYS = 150
# load_panel keeps at most this many parsed panels on disk, one slot file
# per input path, and at most this many bytes of them (but the newest slot).
MAX_SLOTS = 16
MAX_SLOT_BYTES = 256 << 20
# The parser reads a file in blocks of whole lines of about this many bytes,
# so a parse holds the panel's arrays and one block, not the file.
_BLOCK = 1 << 17


@dataclass(frozen=True, eq=False)
class PanelSample:
    """Daily observations for ``m`` stations over ``n`` days.

    ``values[i, j]`` is the amount on day ``i`` at station ``j``; NaN marks a
    missing cell, and :attr:`missing_mask` is derived from it.  Rows are
    strictly calendar-ordered and arrays are frozen after construction, so
    the pooled sample :attr:`sorted_values` is sorted once, on first use.

    The panel owns one read-only copy of its ``values`` and ``day_labels``.
    The constructor copies what a caller passes, so the caller's arrays stay
    the caller's: writable, and free to change without touching the panel.
    The panels scedex makes itself (:func:`load_panel`, :meth:`subset_rows`,
    ``mc.simulate_panel``) own the arrays they just built, uncopied.
    """

    values: np.ndarray
    day_labels: np.ndarray  # datetime64[D], strictly increasing
    station_ids: tuple[str, ...]

    def __post_init__(self):
        self._hold(np.array(self.values, dtype=float),
                   np.array(self.day_labels, dtype="datetime64[D]"))

    @classmethod
    def _adopt(cls, values: np.ndarray, day_labels: np.ndarray,
               station_ids) -> "PanelSample":
        """The panel over ``values`` and ``day_labels`` themselves, checked as
        the constructor checks what it copies: for arrays that scedex has just
        made (a parse, a slot read, a row gather, a simulation) and that no
        caller holds, so the panel owns them without a second copy."""
        p = object.__new__(cls)
        object.__setattr__(p, "station_ids", station_ids)
        p._hold(np.asarray(values, dtype=float), np.asarray(day_labels, dtype="datetime64[D]"))
        return p

    def _hold(self, values: np.ndarray, labels: np.ndarray) -> None:
        """Check ``values`` and ``labels``, freeze them and make them the panel's."""
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
        # the extremes ignore NaN and, unlike isinf or a comparison, need no
        # array the size of the panel
        low, high = np.fmin.reduce(values, axis=None), np.fmax.reduce(values, axis=None)
        if np.isinf(low) or np.isinf(high):
            raise DomainError("non-missing values must be finite")
        if low < 0:  # NaN compares False
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
        return PanelSample._adopt(self.values[idx], self.day_labels[idx], self.station_ids)

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
# The same grammar on a date read into 11 bytes: each byte minus the low
# template, in uint8 arithmetic that wraps below 0, is at most the slack, so
# digits sit at 0-3, 5-6 and 8-9, dashes at 4 and 7, and a NUL at 10 (an
# eleventh character would be there instead).
_DATE_LOW = np.frombuffer(b"0000-00-00\0", dtype=np.uint8)
_DATE_SLACK = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9, 0], dtype=np.uint8)
# The one number grammar: ASCII decimals with an optional sign and exponent
# (Python's ``float`` also reads ``1_0`` and non-ASCII digits).  The
# infinities and signed NaNs match too, to be reported as non-finite.
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)",
                     re.IGNORECASE | re.ASCII)
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

    One forward pass reads the file into the panel's arrays: a vectorised
    parser reads each block of lines it can prove valid, and from the first
    block it cannot (quoted fields, a bad cell, ...) the row parser reads the
    rest of the file and raises the first error in file order.  A parsed
    regular file is kept in a slot under ``$XDG_CACHE_HOME/scedex`` (default
    ``~/.cache/scedex``), read back instead of parsing while the file's path,
    device, inode, size, mtime and ctime and the parser are unchanged
    (README, "Parsed-panel cache").
    """
    with open(path, "rb") as f:
        slot = _slot_for(path, os.fstat(f.fileno()))
        hit = None if slot is None else _load_slot(slot)
        if hit is not None:
            return hit
        # a pipe is read whole: the parser reads a file twice
        values, labels, stations = _parse_fast(f if f.seekable() else io.BytesIO(f.read()))
    p = PanelSample._adopt(values, labels, tuple(stations))
    if slot is not None:
        _store_slot(slot, p)
    return p


@cache
def _parser_tag() -> str:
    """Names this parser: a slot written by other code is never read."""
    return f"{zlib.crc32(Path(__file__).read_bytes()):08x} numpy {np.__version__}"


def _slot_for(path, st: os.stat_result):
    """``(slot file, record, changed)`` for the open file at ``path`` with
    fstat ``st``, or None when it is not cached: not a regular file, or
    neither ``XDG_CACHE_HOME`` (absolute) nor ``HOME`` is set.  The record is
    what the slot must hold to stand for the file, and ``changed`` the time
    the file last changed."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        home = os.environ.get("HOME")
        root = os.path.join(home, ".cache") if home else ""
    if not (root and stat.S_ISREG(st.st_mode)):
        return None
    try:
        where = os.path.realpath(path)
        record = json.dumps([where, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
                             st.st_ctime_ns, _parser_tag()])
    except OSError:
        return None
    name = f"{zlib.crc32(os.fsencode(where)):08x}.slot"
    return Path(root, "scedex", name), record, max(st.st_mtime_ns, st.st_ctime_ns)


def _load_slot(slot) -> PanelSample | None:
    """The panel held for ``slot`` (from :func:`_slot_for`), or None on any
    mismatch or damage.

    A slot written no later than the file last changed is not trusted: a
    write in that same clock tick would leave the file's times unchanged.
    """
    where, record, changed = slot
    try:
        with open(where, "rb") as f:
            if os.fstat(f.fileno()).st_mtime_ns <= changed or np.load(f).tolist() != record:
                return None
            ids = json.loads(np.load(f).tolist())
            values = np.load(f)  # read from the file straight into the array
            labels = np.load(f)
    except (OSError, ValueError, EOFError):
        return None
    return PanelSample._adopt(values, labels, tuple(ids))


def _store_slot(slot, p: PanelSample) -> None:
    """Write ``p`` for ``slot`` (from :func:`_slot_for`) by an atomic rename,
    then remove the oldest other slots while there are more than
    :data:`MAX_SLOTS` or :data:`MAX_SLOT_BYTES`; a failure writes nothing."""
    where, record, _ = slot
    try:
        where.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=where.parent)
        try:
            with os.fdopen(fd, "wb") as f:
                for member in (np.array(record), np.array(json.dumps(p.station_ids)),
                               p.values, p.day_labels):
                    np.save(f, member)
            os.replace(tmp, where)
        except BaseException:
            os.unlink(tmp)
            raise
        # the oldest first, and the new slot last, whatever its time
        slots = sorted((e.path == str(where), e.stat().st_mtime_ns, e.stat().st_size, e.path)
                       for e in os.scandir(where.parent) if e.name.endswith(".slot"))
        while len(slots) > 1 and (len(slots) > MAX_SLOTS
                                  or sum(slot[2] for slot in slots) > MAX_SLOT_BYTES):
            os.unlink(slots.pop(0)[3])
    except OSError:
        pass


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


def _parse_fast(f):
    """``(values, day_labels, stations)`` read from the binary file ``f`` in
    one pass after a count of its line ends, so ``f`` must be seekable;
    raises the error of the first bad row, with its line number.

    Each block of whole lines (:func:`_line_blocks`) that decodes and holds
    no quote, NUL or lone carriage return goes to :func:`_read_block`.  From
    the first block refused, the row parser (:func:`_parse_rows`) reads the
    rest of the file into the same arrays, and the header too when the first
    block is refused before it is read.  The row parser alone gives the same
    result.
    """
    # At most one row per line end, as the row parser splits lines: the
    # header's end and a CRLF split between two reads only make spare rows.
    n = 0
    while chunk := f.read(_BLOCK):
        n += chunk.count(b"\n")
        if b"\r" in chunk:  # a lone carriage return ends a line too
            n += chunk.count(b"\r") - chunk.count(b"\r\n")
    f.seek(0)
    f.seek(3 if f.read(3) == b"\xef\xbb\xbf" else 0)  # Excel's "CSV UTF-8" starts with a BOM
    blocks = _line_blocks(f)
    values = None
    rows, line = 0, 1  # the rows read, and the physical line the next block starts on
    for raw in blocks:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            break
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        # a quote may open a cell that spans lines, and an 11-byte date field
        # cannot tell a NUL from its padding
        if "\r" in text or '"' in text or "\0" in text:
            break
        if values is None:  # the first block starts with the header; csv reads "" as []
            header, _, text = text.partition("\n")
            date_pos, stations = _columns(header.split(",") if header else [])
            values, labels = np.empty((n, len(stations))), np.empty(n, dtype="datetime64[D]")
            raw, line = raw.partition(b"\n")[2], 2
        read = _read_block(text, values, labels, rows, date_pos)
        if read is None:
            break
        rows, line = rows + read[0], line + read[1]
    else:
        if rows:
            return values[:rows], labels[:rows], stations
        raw = b""  # the row parser reports the empty file or body
    reader = csv.reader(_text_lines(chain((raw,), blocks), line))
    if values is None:
        header = next(reader, None)
        if header is None:
            raise PanelFormatError("file is empty")
        date_pos, stations = _columns(header)
        values, labels = np.empty((n, len(stations))), np.empty(n, dtype="datetime64[D]")
    rows = _parse_rows(reader, line - 1, values, labels, rows, date_pos, stations)
    return values[:rows], labels[:rows], stations


def _line_blocks(f):
    """The rest of the binary file ``f`` in blocks of whole physical lines of
    about :data:`_BLOCK` bytes.  A block ends at the last line end of a read,
    but not at a final carriage return, which the next read may continue
    with a line feed."""
    parts = []
    while chunk := f.read(_BLOCK):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield b"".join([*parts, memoryview(chunk)[:cut]])
            parts = []
        parts.append(chunk[cut:])
    if tail := b"".join(parts):
        yield tail


def _read_block(text: str, values, labels, rows: int, date_pos: int):
    """``(rows read, line ends)`` of the lines ``text``, read by one structured
    ``np.loadtxt`` into ``values`` and ``labels`` from row ``rows`` on; None
    when they hold a date outside the grammar or out of order, a signed NaN,
    an infinite or negative amount or a cell numpy cannot read.

    The dtype puts an 11-byte date field between the station fields, so
    loadtxt rejects a row with the wrong field count and skips a blank line,
    as the row parser does.  Lines are rewritten (:func:`_fill_holes`) first
    when the text holds an "a" or a blank, as every missing-cell spelling
    but the empty cell does, and otherwise only when the first read fails.
    """
    if not text.strip("\n"):
        return 0, len(text)  # blank lines only: loadtxt would warn
    dtype = [("a", "f8", (date_pos,)), ("date", "S11"),
             ("b", "f8", (values.shape[1] - date_pos,))]
    lines, table = text.split("\n"), None
    for fill in (True,) if any(c in text for c in "aA \t") else (False, True):
        try:
            table = np.loadtxt(_fill_holes(lines) if fill else lines,
                               dtype=dtype, delimiter=",", comments=None, ndmin=1)
            break
        except ValueError:
            pass
    if (
        table is None
        or rows + len(table) > len(values)  # the file grew after its lines were counted
        or np.any(table["date"].view(("u1", 11)) - _DATE_LOW > _DATE_SLACK)
    ):
        return None
    new = slice(rows, rows + len(table))
    try:
        labels[new] = table["date"].astype("datetime64[D]")
    except ValueError:  # a month or a day out of range
        return None
    out = values[new]
    out[:, :date_pos], out[:, date_pos:] = table["a"], table["b"]
    dates = labels[max(rows - 1, 0):new.stop]  # with the last date before the block
    if (
        labels[0] < np.datetime64("0001-01-01")  # date.fromisoformat has no year 0
        or np.any(dates[1:] <= dates[:-1])
        or np.any(np.isinf(out))
        or np.any(out < 0)
    ):
        return None
    return len(table), len(lines) - 1


def _fill_holes(lines: list[str]) -> list[str]:
    """``lines``, with every missing cell spelled ``nan`` in place, as numpy
    reads it; ValueError on a signed NaN, which numpy reads and the row
    parser rejects."""
    for i, line in enumerate(lines):
        # numpy reads "nan" in any case and padding, so only lines with an
        # empty cell, a blank or an "na" (an "a" outside a "nan") are rewritten.
        hole = ",," in line or line[:1] == "," or line[-1:] == "," or " " in line or "\t" in line
        if "a" in line or "A" in line:  # every NaN spelling holds an "a"
            low = line.lower()
            if "-nan" in low or "+nan" in low:
                raise ValueError(f"signed NaN in {line!r}")
            hole = hole or low.count("a") != low.count("nan")
        if hole:
            lines[i] = _MISSING_CELL.sub(",nan", f",{line},")[1:-1]
    return lines


def _text_lines(blocks, line: int):
    """The physical lines of ``blocks`` (bytes of whole lines), each decoded
    as the row parser reaches it; a byte that is not UTF-8 is reported on its
    line, counting from ``line``, the first one's."""
    for raw in blocks:
        for b in raw.splitlines(keepends=True):
            try:
                text = b.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PanelFormatError(f"cannot decode byte 0x{b[exc.start]:02x} as UTF-8",
                                       line=line) from None
            yield text
            line += b.endswith((b"\n", b"\r"))


def _parse_rows(reader, base: int, values, labels, rows: int, date_pos: int,
                stations: list[str]) -> int:
    """Parse the rows of the ``csv.reader`` ``reader`` one at a time into
    ``values`` and ``labels`` after their first ``rows``, and return the rows
    now held; raises the error of the first bad row, with its line number
    (``base`` plus the reader's)."""
    n_fields = len(stations) + 1
    last = labels[rows - 1].item() if rows else None
    end = base + reader.line_num  # the last physical line read
    for row in reader:
        # a quoted cell may span lines: the row starts after the last one ended
        line_no, end = end + 1, base + reader.line_num
        if not row or all(not c.strip() for c in row):
            continue  # tolerate blank lines
        if rows == len(values):  # more rows than the line ends counted
            raise PanelFormatError("file changed while it was read", line=line_no)
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
        if last is not None and date <= last:
            raise DateOrderError(
                f"line {line_no}: dates must be strictly increasing "
                f"({date.isoformat()} after {last.isoformat()})"
            )
        for j, (s, cell) in enumerate(zip(stations, row)):
            cell = cell.strip()
            if cell == "" or cell.lower() in {"nan", "na"}:
                values[rows, j] = np.nan
            elif not _NUMBER.fullmatch(cell):
                raise PanelFormatError(
                    f"cannot parse value {cell!r} for station {s!r}", line=line_no
                )
            elif not math.isfinite(x := float(cell)):
                raise PanelFormatError(
                    f"non-finite value {cell!r} for station {s!r}", line=line_no
                )
            elif x < 0:
                raise DomainError(f"line {line_no}: negative amount {x} for station {s!r}")
            else:
                values[rows, j] = x
        labels[rows], last, rows = date, date, rows + 1
    if not rows:
        raise PanelFormatError("no data rows")
    return rows


def split_season(p: PanelSample, months: Iterable[int]) -> PanelSample:
    """Rows of ``p`` whose calendar month (1..12) is in ``months``.

    Raises :class:`EmptySeasonError` when nothing survives.  A year is
    reported via a warning when it keeps fewer than :data:`MIN_SEASON_DAYS`
    rows and fewer than the calendar holds between the record's first and
    last day, so a record that starts or ends mid-year is not a gap.
    """
    months = sorted({int(mo) for mo in months})
    if not months:
        raise DomainError("season must include at least one month")
    bad = [mo for mo in months if not 1 <= mo <= 12]
    if bad:
        raise DomainError(f"invalid month number(s) in season: {bad}")
    keep = np.isin(p.months(), months)
    if not keep.any():
        raise EmptySeasonError(f"season with months {months} matches no rows")
    out = p.subset_rows(np.flatnonzero(keep))
    years, counts = np.unique(out.years(), return_counts=True)
    # each kept year's season months, as months since 1970-01, and the days
    # of each that the record spans: the month's length, clipped at its ends
    month = (years[:, None] - 1970) * 12 + np.array(months) - 1
    first = np.maximum(month.astype("datetime64[M]").astype("datetime64[D]"), p.day_labels[0])
    after = np.minimum((month + 1).astype("datetime64[M]").astype("datetime64[D]"),
                       p.day_labels[-1] + 1)
    held = np.maximum((after - first).astype(np.int64), 0).sum(axis=1)
    thin = years[counts < np.minimum(MIN_SEASON_DAYS, held)].tolist()
    if thin:
        warnings.warn(
            f"{len(thin)} year(s) retain fewer than {MIN_SEASON_DAYS} "
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
    return p.subset_rows(rows[_kept_days(row_max[rows], p.day_numbers()[rows], gap_days)])


def _kept_days(peaks: np.ndarray, days: np.ndarray, gap_days: int) -> np.ndarray:
    """Which of the ``days`` (ascending) :func:`decluster` keeps, as a mask:
    the walk down the ranking by ``peaks``, largest first, that keeps each
    day with no kept day within ``gap_days``.

    Array rounds decide most days first.  A round keeps every open day that
    outranks all open days near it: the walk keeps it, as every day above it
    near it is dropped already.  Then it drops every open day near a newly
    kept day, as the walk does.  The walk proper visits only the days still
    open, which no kept day is near.
    """
    n = days.size
    # Rank: largest first; the stable sort keeps the earlier day first among ties.
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-peaks, kind="stable")] = np.arange(n)
    # The days within gap_days of day i are the days lo[i]:hi[i].
    lo = np.searchsorted(days, days - gap_days)
    hi = np.searchsorted(days, days + gap_days, side="right")
    kept = np.zeros(n, dtype=bool)
    open_ = np.ones(n, dtype=bool)
    for _ in range(2):  # two rounds leave about 1% of a daily record open
        new = open_ & (_window_min(np.where(open_, rank, n), lo, hi) == rank)
        kept |= new
        seen = np.concatenate(([0], np.cumsum(new)))
        open_ &= seen[hi] == seen[lo]
    flags = bytearray(kept.tobytes())
    for i in np.flatnonzero(open_)[np.argsort(rank[open_])].tolist():
        if flags.find(1, lo[i], hi[i]) < 0:
            flags[i] = 1
    return np.frombuffer(flags, dtype=bool)


def _window_min(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``min(x[lo[i]:hi[i]])`` for every ``i`` (no window empty): one
    reduction over the interleaved bounds, whose odd slots (from ``hi[i]`` on)
    are dropped; the appended cell lets ``hi`` reach ``x.size``."""
    return np.minimum.reduceat(np.append(x, 0), np.column_stack((lo, hi)).ravel())[::2]

