"""Keystroke input streams: building, timing, and replay.

The input stream is every key action the participant performed, in
time order: text-producing keys (single characters or whole atomic
units), backspaces, edit keys, and modifiers.  It is an
:class:`InputStream` (:func:`build_input_stream`), and |IS| is its
``len``: it counts all of them, which is what makes KSPC sensitive to
correction effort.

A study log holds about 90,000 events, and every one of them is read,
so an input stream keeps its events as columns (the stamps, the kinds
and the payloads) rather than as one object each, and builds a
:class:`KeyEvent` only when one is asked for.  Timing and replay read
the columns directly.

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

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum, unique
from operator import attrgetter
from typing import Iterable, Iterator

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
    "InputStream",
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
_MAX_COUNT = 2 ** 53  # the log's bound on t and inf_override: exact as a float


@dataclass(frozen=True, slots=True)
class KeyEvent:
    """One key action at a millisecond timestamp."""

    t_ms: int
    kind: KeyEventKind
    payload: str = ""

    def __post_init__(self) -> None:
        if type(self.kind) is not KeyEventKind:
            object.__setattr__(self, "kind", KeyEventKind(self.kind))
        if not isinstance(self.t_ms, int) or isinstance(self.t_ms, bool):
            raise ValueError(f"timestamp is not an integer: {self.t_ms!r}")
        if self.t_ms < 0:
            raise ValueError(f"negative timestamp: {self.t_ms}")
        if self.t_ms > _MAX_COUNT:
            raise ValueError(f"timestamp must not exceed 2**53: {self.t_ms}")
        if not isinstance(self.payload, str):
            raise ValueError(f"payload is not a string: {self.payload!r}")
        if self.kind in _TEXTLESS:
            if self.payload:
                raise ValueError(f"{self.kind.value} events carry no payload")
        elif not self.payload:
            raise ValueError(f"{self.kind.value} events carry a payload")


# A kind's code in an InputStream is its index here.
_KINDS = tuple(KeyEventKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_CHAR, _UNIT, _BACKSPACE, _EDIT = (
    _KIND_CODE[kind] for kind in (KeyEventKind.CHAR, KeyEventKind.UNIT,
                                  KeyEventKind.BACKSPACE, KeyEventKind.EDIT))

_T_MS = attrgetter("t_ms")


def _event(t_ms: int, code: int, payload: str) -> KeyEvent:
    """A KeyEvent from checked columns, without ``__post_init__``'s checks."""
    event = object.__new__(KeyEvent)
    object.__setattr__(event, "t_ms", t_ms)
    object.__setattr__(event, "kind", _KINDS[code])
    object.__setattr__(event, "payload", payload)
    return event


class InputStream(Sequence[KeyEvent]):
    """Key events in time order, held as columns; indexing yields KeyEvents.

    ``InputStream(events)`` orders ``events`` by timestamp with a stable
    sort, so events that share a stamp keep their order.  The stamps are
    an ``array('q')``, the kinds one byte each and the payloads a tuple
    of strings, which ingest shares between the events of a log: about
    17 bytes an event, where a KeyEvent, its boxed stamp and its place
    in a tuple take about 96.  A :class:`KeyEvent` is built only when
    one is asked for, the way iterating an OutputStream builds
    BasicChars.  A stream is equal to, and hashes as, the tuple of its
    KeyEvents.
    """

    __slots__ = ("_stamps", "_kinds", "_payloads")

    def __init__(self, events: Iterable[KeyEvent] = ()) -> None:
        ordered = sorted(events, key=_T_MS)  # stable
        self._stamps = array("q", map(_T_MS, ordered))
        self._kinds = bytes(_KIND_CODE[e.kind] for e in ordered)
        self._payloads = tuple(e.payload for e in ordered)

    @classmethod
    def _from_columns(cls, stamps: Iterable[int], codes: Iterable[int],
                      payloads: Iterable[str]) -> InputStream:
        """A stream of checked columns already in time order, checked no further."""
        stream = object.__new__(cls)
        stream._stamps = array("q", stamps)
        stream._kinds = bytes(codes)
        stream._payloads = tuple(payloads)
        return stream

    def __len__(self) -> int:
        return len(self._kinds)

    def __getitem__(self, index: int | slice) -> KeyEvent | tuple[KeyEvent, ...]:
        if isinstance(index, slice):  # a tuple: a slice may reverse the order
            return tuple(map(_event, self._stamps[index], self._kinds[index],
                             self._payloads[index]))
        return _event(self._stamps[index], self._kinds[index],
                      self._payloads[index])

    def __iter__(self) -> Iterator[KeyEvent]:
        return map(_event, self._stamps, self._kinds, self._payloads)

    def __eq__(self, other: object) -> bool:
        if type(other) is InputStream:
            return (self._stamps == other._stamps and self._kinds == other._kinds
                    and self._payloads == other._payloads)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"InputStream({tuple(self)!r})"


@dataclass(frozen=True)
class ReplayResult:
    """Replay outcome: the surviving text and what got erased, in order."""

    text: str
    erased: tuple[str, ...]


def _stream(events: Iterable[KeyEvent]) -> InputStream:
    return events if type(events) is InputStream else InputStream(events)


def build_input_stream(events: Iterable[KeyEvent]) -> InputStream:
    """The input stream: ``events`` in timestamp order.

    |IS| is the stream's ``len``.  The sort is stable: events sharing a
    timestamp keep their log order.  An :class:`InputStream`, as
    ingest stores a record's events, is already the stream and is
    returned as it is.  Raises :class:`EmptySessionError` for an empty
    sequence.
    """
    stream = _stream(events)
    if not stream:
        raise EmptySessionError("session has no keystroke events")
    return stream


def session_duration_s(stream: Iterable[KeyEvent]) -> float:
    """Elapsed seconds from the first to the last event of an input stream.

    ``stream`` is what :func:`build_input_stream` returns (an
    :class:`InputStream`'s stamps are read directly), but the span is
    taken between the earliest and the latest stamp, so events in any
    order give the same seconds.  One event gives 0.0.
    """
    stamps = _stream(stream)._stamps
    if not stamps:
        raise EmptySessionError("session has no keystroke events")
    return (max(stamps) - min(stamps)) / 1000.0


def replay_events(events: Iterable[KeyEvent],
                  profile: TechniqueProfile | None = None) -> ReplayResult:
    """Replay keystrokes into canonical text, tracking erased material.

    ``events`` are replayed in timestamp order, whatever their container:
    a stable sort keeps equal stamps in log order, and an
    :class:`InputStream` is read as it is, column by column.  Character
    events append their constituent characters one atom each; unit events
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

    stream = _stream(events)
    atoms: list[str] = []
    erased: list[str] = []
    for t_ms, code, payload in zip(stream._stamps, stream._kinds, stream._payloads):
        if code == _CHAR or code == _UNIT:
            chars = flat.get(payload)
            if chars is None:
                chars = flat[payload] = to_output_stream(payload, table).text
            if code == _CHAR:
                atoms.extend(chars)
            elif profile is not None and chars not in profile.unit_seqs:
                raise UnknownUnitError(
                    f"unit payload {payload!r} not declared by the profile")
            elif per_unit:
                atoms.append(chars)
            else:
                atoms.extend(chars)
        elif code == _BACKSPACE:
            if not atoms:
                raise ReplayUnderflowError(
                    f"backspace at t={t_ms}ms with nothing to erase")
            erased.append(atoms.pop())
        elif code == _EDIT:
            raise UnsupportedKeyError(
                f"edit event at t={t_ms}ms: cursor movement is not replayable")
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
