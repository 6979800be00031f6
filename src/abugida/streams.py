"""Keystroke input streams: building, timing, and replay.

The input stream is every key action the participant performed, in
time order: text-producing keys (single characters or whole atomic
units), backspaces, edit keys, and modifiers.  It is a plain
``tuple[KeyEvent, ...]`` (:func:`build_input_stream`), and |IS| is its
``len``: it counts all of them, which is what makes KSPC sensitive to
correction effort.

Replay reconstructs the transcribed text from the events alone, which
both validates a log and yields the erased material needed to split
keystrokes into the classic four classes (see :mod:`abugida.metrics`):
correct (C), incorrect but fixed (IF), fixes (F), and incorrect and not
fixed (INF).  Cursor movement ("edit" events) is rejected rather than
guessed at: without a caret model any reconstruction would be fiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable

from .bengali import BENGALI_TABLE, CharTable, normalize, to_output_stream
from .errors import (
    EmptySessionError,
    ReplayUnderflowError,
    UnknownUnitError,
    UnsupportedKeyError,
)
from .msd import BackspaceGranularity, TechniqueProfile

__all__ = [
    "KeyEventKind",
    "KeyEvent",
    "ReplayResult",
    "build_input_stream",
    "session_duration_s",
    "replay_events",
    "replay_transcription",
    "replay_matches",
]


@unique
class KeyEventKind(str, Enum):
    """Tags match the ``k`` field of the session log format."""

    CHAR = "char"
    UNIT = "unit"
    BACKSPACE = "bksp"
    EDIT = "edit"
    MODIFIER = "mod"


_TEXTLESS = (KeyEventKind.BACKSPACE, KeyEventKind.EDIT, KeyEventKind.MODIFIER)


@dataclass(frozen=True, slots=True)
class KeyEvent:
    """One key action at a millisecond timestamp."""

    t_ms: int
    kind: KeyEventKind
    payload: str = ""

    def __post_init__(self) -> None:
        # One KeyEvent per logged event: a member skips the enum call.
        if type(self.kind) is not KeyEventKind:
            object.__setattr__(self, "kind", KeyEventKind(self.kind))
        if self.t_ms < 0:
            raise ValueError(f"negative timestamp: {self.t_ms}")
        if self.kind in _TEXTLESS and self.payload:
            raise ValueError(f"{self.kind.value} events carry no payload")


@dataclass(frozen=True)
class ReplayResult:
    """Replay outcome: the surviving text and what got erased, in order."""

    text: str
    erased: tuple[str, ...]


def _in_time_order(events: Iterable[KeyEvent]) -> list[KeyEvent]:
    # stable, so equal stamps keep log order
    return sorted(events, key=lambda e: e.t_ms)


def build_input_stream(events: Iterable[KeyEvent]) -> tuple[KeyEvent, ...]:
    """The input stream: ``events`` as a tuple in timestamp order.

    |IS| is the tuple's ``len``.  The sort is stable: events sharing a
    timestamp keep their log order.  Raises :class:`EmptySessionError`
    for an empty sequence.
    """
    stream = tuple(_in_time_order(events))
    if not stream:
        raise EmptySessionError("session has no keystroke events")
    return stream


def session_duration_s(stream: Iterable[KeyEvent]) -> float:
    """Elapsed seconds from the first to the last event of an input stream.

    ``stream`` is the tuple :func:`build_input_stream` returns, but the
    span is taken between the earliest and the latest stamp, so events
    in any order give the same seconds.  One event gives 0.0.
    """
    stamps = [e.t_ms for e in stream]
    if not stamps:
        raise EmptySessionError("session has no keystroke events")
    return (max(stamps) - min(stamps)) / 1000.0


def replay_events(events: Iterable[KeyEvent],
                  profile: TechniqueProfile | None = None) -> ReplayResult:
    """Replay keystrokes into canonical text, tracking erased material.

    ``events`` are replayed in timestamp order, whatever their container:
    a stable sort keeps equal stamps in log order.  Character events
    append their constituent characters one atom each; unit events
    append one whole-unit atom when the profile erases at unit
    granularity, else per-character atoms.  Backspace pops the most
    recent atom.  Modifiers produce nothing.  Edit events raise
    :class:`UnsupportedKeyError`; see the module docstring.

    With ``profile=None`` the replay is permissive: unit payloads are
    accepted without declaration and erased per character, and texts are
    flattened under ``BENGALI_TABLE``; with a profile, an undeclared unit
    payload raises :class:`UnknownUnitError`, and texts are flattened
    under ``profile.table``.  Either way, a backspace that finds nothing
    to erase raises :class:`ReplayUnderflowError`.
    """
    table = BENGALI_TABLE
    unit_texts: frozenset[str] | None = None
    per_unit = False
    if profile is not None:
        table = profile.table
        unit_texts = profile.atomic_units
        per_unit = profile.backspace_granularity is BackspaceGranularity.UNIT

    atoms: list[str] = []
    erased: list[str] = []
    for ev in _in_time_order(events):
        if ev.kind is KeyEventKind.CHAR:
            atoms.extend(to_output_stream(ev.payload, table).text)
        elif ev.kind is KeyEventKind.UNIT:
            text = normalize(ev.payload, table)
            if unit_texts is not None and text not in unit_texts:
                raise UnknownUnitError(
                    f"unit payload {text!r} not declared by the profile")
            chars = to_output_stream(text, table).text
            if per_unit:
                atoms.append(chars)
            else:
                atoms.extend(chars)
        elif ev.kind is KeyEventKind.BACKSPACE:
            if not atoms:
                raise ReplayUnderflowError(
                    f"backspace at t={ev.t_ms}ms with nothing to erase")
            erased.append(atoms.pop())
        elif ev.kind is KeyEventKind.EDIT:
            raise UnsupportedKeyError(
                f"edit event at t={ev.t_ms}ms: cursor movement is not replayable")
        # modifiers produce no text
    return ReplayResult(normalize("".join(atoms), table), tuple(erased))


def replay_transcription(events: Iterable[KeyEvent],
                         profile: TechniqueProfile) -> str:
    """Reconstruct the transcribed text from the events, normalized."""
    return replay_events(events, profile).text


def replay_matches(replayed: str, transcribed: str,
                   table: CharTable = BENGALI_TABLE) -> bool:
    """Whether replayed text reproduces a stored, canonical transcription.

    Replay yields the canonical output-stream text, which holds no
    zero-width controls (ZWJ, ZWNJ and the like), so the transcription is
    compared in the same form and its controls are ignored.
    """
    return replayed == to_output_stream(transcribed, table).text
