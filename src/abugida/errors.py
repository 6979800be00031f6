"""Exception hierarchy shared by every abugida module.

All domain errors derive from :class:`AbugidaError` so callers can catch
one base class at API boundaries.  Constructors accept a plain message;
the code that knows where an error arose sets its context, which
``str()`` shows before the message.
"""

from __future__ import annotations


class AbugidaError(Exception):
    """Base class for all errors raised by this package.

    The code that knows where an error arose sets its context: the
    session log ``line``, the ``field`` and the ``session_id`` of the
    session being evaluated.  ``str()`` puts it before the message, as
    ``session S: line N, field 'F': message``.
    """

    session_id: str | None = None

    def __init__(self, message: str = "", *, line: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.line, self.field = line, field

    def __str__(self) -> str:
        where = ", ".join(filter(None, (
            f"line {self.line}" if self.line is not None else "",
            f"field {self.field!r}" if self.field is not None else "")))
        text = f"{where}: {super().__str__()}" if where else super().__str__()
        return text if self.session_id is None else f"session {self.session_id}: {text}"


class InvalidEncodingError(AbugidaError):
    """Input is not valid Unicode text (lone surrogates, bad escapes)."""


class EncodingError(AbugidaError):
    """A byte stream could not be decoded as UTF-8."""


class ParseError(AbugidaError):
    """A log, profile, or table file violates its schema."""


class InvalidUnitError(AbugidaError):
    """An atomic unit does not decompose to at least two basic characters."""


class UnknownUnitError(AbugidaError):
    """A unit keystroke payload is not declared by the technique profile."""


class UnsupportedKeyError(AbugidaError):
    """An event kind cannot be replayed (cursor movement and similar)."""


class ReplayUnderflowError(AbugidaError):
    """A backspace arrived with no text left to erase."""


class TranscriptionMismatchError(AbugidaError):
    """A session's events do not replay to its stored transcription."""


class EmptySessionError(AbugidaError):
    """A session log entry contains no keystroke events."""


class EmptyTranscriptionError(AbugidaError):
    """The transcribed text decomposes to zero basic characters."""


class EmptyStreamsError(AbugidaError):
    """Both streams of a comparison are empty where at least one is required."""


class EmptyCorpusError(AbugidaError):
    """A phrase set contains no words."""


class EmptyGroupError(AbugidaError):
    """Aggregation was requested over zero sessions."""


class ZeroDurationError(AbugidaError):
    """A session produced text in zero elapsed time."""
