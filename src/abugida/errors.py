"""Exception hierarchy shared by every abugida module.

All domain errors derive from :class:`AbugidaError` so callers can catch
one base class at API boundaries.  Constructors accept a plain message;
a few carry optional structured context (line number, field path) that
is also folded into the message.
"""

from __future__ import annotations


class AbugidaError(Exception):
    """Base class for all errors raised by this package.

    Errors raised while evaluating one session carry its id.
    """

    session_id: str | None = None


class InvalidEncodingError(AbugidaError):
    """Input is not valid Unicode text (lone surrogates, bad escapes)."""


class EncodingError(AbugidaError):
    """A byte stream could not be decoded as UTF-8."""


class ParseError(AbugidaError):
    """A log, profile, or table file violates its schema."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field


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
