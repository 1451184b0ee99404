"""Exception hierarchy for scedex.

Every error raised by the library derives from :class:`ScedexError`, so
callers (notably the CLI) can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations


class ScedexError(Exception):
    """Base class for all scedex domain errors."""


class PanelFormatError(ScedexError):
    """Malformed input file (bad header, unparsable cell, ...)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DateOrderError(ScedexError):
    """Day labels are not strictly increasing."""


class DomainError(ScedexError):
    """A value lies outside its mathematical domain (negative amount, GP support, ...)."""


class EmptySeasonError(ScedexError):
    """A season filter removed every row."""


class EmptyPoolError(ScedexError):
    """No non-missing observations available for pooling."""


class RangeError(ScedexError):
    """An index, threshold level or grid point is out of its admissible range."""


class NoExceedanceError(ScedexError):
    """A station records no exceedance of the pooled threshold."""


class InsufficientDataError(ScedexError):
    """Too few usable observations for the requested estimate."""


class SingularCovarianceError(ScedexError):
    """The estimated covariance of the station frequencies is numerically singular."""

    def __init__(self, message: str, suspects: list[tuple[int, int]] | None = None):
        super().__init__(message)
        self.suspects = suspects or []


class FitConvergenceError(ScedexError):
    """The likelihood optimiser failed to converge; carries an iteration trace."""

    def __init__(self, message: str, trace: list[dict] | None = None):
        super().__init__(message)
        self.trace = trace or []


class SimSpecError(ScedexError):
    """Invalid simulation specification."""


def each(keys, one, failed) -> list:
    """``one(key)`` for each key in turn, except that a :class:`ScedexError`
    fails only its key, as ``failed(key, message)``: the list of what they
    return.  An :class:`EmptyPoolError` fails every key, and it is raised."""
    out = []
    for key in keys:
        try:
            out.append(one(key))
        except EmptyPoolError:
            raise
        except ScedexError as exc:
            out.append(failed(key, str(exc)))
    return out
