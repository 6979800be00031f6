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

Replay meets the same few payloads over and over (a study log of 2000
sessions holds about 90,000 events but 80 distinct payloads), so it
flattens each distinct payload text once per table.  Its memo is one
dict on the table, ``CharTable._replay_memo``, from payload text to
output-stream text, so it is bounded by the distinct payload texts
replayed under that table.  Checks that depend on the profile, such as
whether a unit is declared, still run on every event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, unique
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Sequence

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


def _checked_events(stamps: Sequence[int], kinds: Iterable[KeyEventKind],
                    payloads: Iterable[str]) -> list[KeyEvent]:
    """KeyEvents from fields that the caller has already checked.

    Skips ``__post_init__``: each field is set through its slot, one
    pass per field over all events, with no Python call per event.
    """
    events = list(map(object.__new__, repeat(KeyEvent, len(stamps))))
    for slot, values in ((KeyEvent.t_ms, stamps), (KeyEvent.kind, kinds),
                         (KeyEvent.payload, payloads)):
        deque(map(slot.__set__, events, values), 0)
    return events


@dataclass(frozen=True)
class ReplayResult:
    """Replay outcome: the surviving text and what got erased, in order."""

    text: str
    erased: tuple[str, ...]


_T_MS = attrgetter("t_ms")


def _in_time_order(events: Iterable[KeyEvent]) -> list[KeyEvent]:
    # stable, so equal stamps keep log order
    return sorted(events, key=_T_MS)


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
    flattened under ``BENGALI_TABLE``; with a profile, texts are flattened
    under ``profile.table``, and a unit payload whose output-stream text
    is no declared unit's (``profile.unit_seqs``) raises
    :class:`UnknownUnitError`.  Either way, a backspace that finds nothing
    to erase raises :class:`ReplayUnderflowError`.

    Each distinct payload text is flattened once per table and kept in a
    memo on the table (see the module docstring); the unit check above
    runs on every unit event, memo hit or not.
    """
    table = BENGALI_TABLE
    per_unit = False
    if profile is not None:
        table = profile.table
        per_unit = profile.backspace_granularity is BackspaceGranularity.UNIT
    flat = table._replay_memo

    atoms: list[str] = []
    erased: list[str] = []
    for ev in _in_time_order(events):
        kind = ev.kind
        if kind is KeyEventKind.CHAR or kind is KeyEventKind.UNIT:
            chars = flat.get(ev.payload)
            if chars is None:
                chars = flat[ev.payload] = to_output_stream(ev.payload, table).text
            if kind is KeyEventKind.CHAR:
                atoms.extend(chars)
            elif profile is not None and chars not in profile.unit_seqs:
                raise UnknownUnitError(
                    f"unit payload {ev.payload!r} not declared by the profile")
            elif per_unit:
                atoms.append(chars)
            else:
                atoms.extend(chars)
        elif kind is KeyEventKind.BACKSPACE:
            if not atoms:
                raise ReplayUnderflowError(
                    f"backspace at t={ev.t_ms}ms with nothing to erase")
            erased.append(atoms.pop())
        elif kind is KeyEventKind.EDIT:
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
