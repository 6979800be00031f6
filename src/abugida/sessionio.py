"""On-disk formats: session logs, technique profiles, phrase sets,
classification tables, reports.

Session logs are JSON Lines, one session per line:

    {"session_id": "s1", "technique_id": "t", "participant_id": "p1",
     "presented": "...", "transcribed": "...", "inf_override": null,
     "events": [{"t": 0, "k": "char", "p": "ক"}, ...]}

Technique profiles are single JSON objects declaring atomic units, the
unit-key mapping, and backspace granularity.  Phrase sets are plain
UTF-8 text, one phrase per line, ``#`` comments allowed.  Classification
tables are UTF-8 record files (see :meth:`CharTable.from_lines`).  A
byte order mark that opens any of these files is dropped.  Reports are
CSV (RFC 4180, CRLF line endings) or JSON.

Parsing is strict: unknown fields, keys repeated within an object,
unknown event kinds, wrong payload shapes, timestamps that are not
integers from 0 to 2**53 and repeated session ids are rejected with the
line and field named, so malformed logs fail loudly instead of skewing
results.  All text is normalized on the way in.  Out-of-order events
are sorted with a warning rather than rejected; loggers never write to
stdout.

A log's work is per event (a study of 2000 sessions logs about 90,000),
so ingest avoids a Python call per event where it can prove the result
the same: a line is decoded without the duplicate-key hook when a count
of its key tokens shows that no object repeats a key, and a record's
events are checked in a few passes over all of them and kept as the
columns of an :class:`InputStream`, not as one object each.  Any
line or record that does not pass goes the slow way, one object and one
event at a time, which raises the error with its line and field.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import re
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from operator import le
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence, Union

from .bengali import (_LONE_SURROGATE, BENGALI_TABLE, CharTable, normalize,
                      to_output_stream)
from .errors import (
    EmptyCorpusError,
    EncodingError,
    InvalidEncodingError,
    InvalidUnitError,
    ParseError,
)
from .metrics import METRIC_FIELDS, RATE_FIELDS, SessionIntermediates
from .msd import BackspaceGranularity, TechniqueProfile
from .streams import _KIND_CODE, _MAX_COUNT, InputStream, KeyEvent, KeyEventKind

if TYPE_CHECKING:
    from .metrics import SessionMetrics, TechniqueSummary

__all__ = [
    "SessionRecord",
    "PhraseSet",
    "LogState",
    "parse_session_log",
    "write_session_log",
    "parse_technique_profile",
    "write_technique_profile",
    "load_phrase_set",
    "load_table_file",
    "corpus_totals",
    "write_analysis_report",
    "write_compare_report",
]

log = logging.getLogger(__name__)

Source = Union[bytes, bytearray, IO[bytes]]

_RECORD_FIELDS = frozenset({
    "session_id", "technique_id", "participant_id",
    "presented", "transcribed", "inf_override", "events",
})
_EVENT_FIELDS = frozenset({"t", "k", "p"})
_EVENT_KINDS = {k.value: k for k in KeyEventKind}
_PROFILE_FIELDS = frozenset({
    "technique_id", "atomic_units", "unit_keys", "backspace_granularity",
})


@dataclass(frozen=True)
class SessionRecord:
    """One transcription trial: texts plus the full keystroke log.

    ``parse_session_log`` stores ``events`` as an :class:`InputStream`,
    in time order; a tuple of :class:`KeyEvent` serves as well, and is
    put in time order wherever it is timed or replayed.
    """

    session_id: str
    technique_id: str
    participant_id: str
    presented: str
    transcribed: str
    events: Sequence[KeyEvent]
    inf_override: int | None = None


@dataclass(frozen=True)
class PhraseSet:
    phrases: tuple[str, ...]
    source: str = ""


def _read_bytes(data: Source) -> bytes | bytearray:
    return data if isinstance(data, (bytes, bytearray)) else data.read()


def _decode(raw: bytes, where: str = "", file_start: bool = True) -> str:
    """UTF-8 text of ``raw``; a U+FEFF opening a file is a byte order mark.

    ``where`` names a whole file in the error; a log line's carries ``line``.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise EncodingError(f"{where}: {err}" if where else str(err)) from err
    return text.removeprefix("\ufeff") if file_start else text


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a :class:`ParseError`."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ParseError(f"duplicate key {repeated!r}")
    return obj


def _load_json(text: str) -> object:
    """``text`` as JSON; any failure to decode it is a :class:`ParseError`."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}") from err
    except ValueError as err:  # an integer past the interpreter's digit limit
        raise ParseError("invalid JSON: integer has too many digits") from err
    except RecursionError as err:
        raise ParseError("invalid JSON: nested too deeply") from err


_SPACED_KEY = re.compile(r'"[ \t\n\r]+:')  # a quote, JSON whitespace, a colon


def _load_record(text: str) -> object:
    """A log line as JSON, as :func:`_load_json` gives it, but faster.

    The line is decoded without the duplicate-key hook, and that result
    is kept only if ``text`` proves that no object in it repeats a key.
    Proof: when no ``"`` is followed by JSON whitespace and a ``:`` (as
    when every ``:`` follows a quote), every key token ends in ``":``,
    so ``text.count('":')`` is at least the number of key tokens in the
    line (a string value may hold ``":`` too).  An object's dict has at
    most as many entries as the object has key tokens, fewer if it
    repeats one.  So the entries of the record and its event dicts add
    up to at most the count, and equality leaves no object in the line,
    counted or not, a repeated key.  Any other line, one that fails to
    decode included, goes through :func:`_load_json`, whose result or
    error it then is.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return _load_json(text)
    events = obj.get("events") if type(obj) is dict else None
    if type(events) is list and set(map(type, events)) <= {dict}:
        ends = text.count('":')
        if (ends == len(obj) + sum(map(len, events))
                and (text.count(":") == ends or _SPACED_KEY.search(text) is None)):
            return obj
    return _load_json(text)


def _object(obj: object, allowed: frozenset, field: str | None) -> dict:
    """``obj`` as a JSON object whose keys are all in ``allowed``."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", field=field)
    if not allowed.issuperset(obj):
        raise ParseError(f"unknown field {sorted(set(obj) - allowed)[0]!r}",
                         field=field)
    return obj


def _norm(text: str, table: CharTable, field: str) -> str:
    try:
        return normalize(text, table)
    except InvalidEncodingError as err:
        raise ParseError(str(err), field=field) from err


def _string(obj: dict, key: str, nonempty: bool = False) -> str:
    """``obj[key]`` as a string, not yet scanned for lone surrogates."""
    value = obj.get(key)
    if not isinstance(value, str):
        raise ParseError("expected a string", field=key)
    if nonempty and not value:
        raise ParseError("must not be empty", field=key)
    return value


def _require_str(obj: dict, key: str, nonempty: bool = False) -> str:
    return _no_lone_surrogate(_string(obj, key, nonempty), key)


def _no_lone_surrogate(value: str, field: str) -> str:
    lone = _LONE_SURROGATE.search(value)
    if lone is not None:  # no UTF-8 report or message could hold it
        raise ParseError(f"lone surrogate U+{ord(lone.group()):04X} at index "
                         f"{lone.start()}", field=field)
    return value


def _is_count(value: object) -> bool:
    """Whether ``value`` is a JSON integer from 0 to 2**53 (``true`` is not)."""
    return type(value) is int and 0 <= value <= _MAX_COUNT


def _not_a_count(value: object, field: str) -> ParseError:
    if type(value) is int and value > _MAX_COUNT:
        return ParseError("must not exceed 2**53", field=field)
    return ParseError("expected a non-negative integer", field=field)


def _event_payload(k: object, p: object, where: str,
                   table: CharTable) -> tuple[int, str]:
    """The kind's code and the canonical payload of an event's ``k`` and ``p``."""
    if not isinstance(k, str) or k not in _EVENT_KINDS:
        raise ParseError(
            f"unknown event kind {k!r} (expected one of "
            f"{sorted(_EVENT_KINDS)})", field=f"{where}.k")
    kind = _EVENT_KINDS[k]
    if not isinstance(p, str):
        raise ParseError("payload must be a string", field=f"{where}.p")
    p = _norm(p, table, f"{where}.p")
    if kind is KeyEventKind.CHAR:
        if to_output_stream(p, table).length < 1:
            raise ParseError("char payload must carry at least one basic "
                             "character", field=f"{where}.p")
    elif kind is KeyEventKind.UNIT:
        if to_output_stream(p, table).length < 2:
            raise ParseError("unit payload must carry at least two basic "
                             "characters", field=f"{where}.p")
    elif p:
        raise ParseError(f"{kind.value} events carry no payload", field=f"{where}.p")
    return _KIND_CODE[kind], p


_Payloads = dict[tuple[str, str], tuple[int, str]]
# A record's events as columns: stamps, kind codes, canonical payloads.
_Columns = tuple[Sequence[int], Sequence[int], Sequence[str]]


def _parse_event(obj: object, index: int, table: CharTable,
                 payloads: _Payloads) -> tuple[int, int, str]:
    """One event's stamp, kind code and payload.

    ``payloads`` holds the pairs already checked in this log.  A pair is
    checked where it first occurs, so an error names the same line and
    field as without the memo.  A record whose events fail
    :func:`_bulk_events` runs this once per event, so the field name is
    formatted only for an error.
    """
    if not (isinstance(obj, dict) and _EVENT_FIELDS.issuperset(obj)):
        _object(obj, _EVENT_FIELDS, f"events[{index}]")  # raises
    t = obj.get("t")
    if not _is_count(t):
        raise _not_a_count(t, f"events[{index}].t")
    k, p = obj.get("k"), obj.get("p", "")
    # A k or p that is no string (a JSON list is unhashable) never passes.
    checked = (payloads.get((k, p))
               if isinstance(k, str) and isinstance(p, str) else None)
    if checked is None:
        checked = payloads[k, p] = _event_payload(k, p, f"events[{index}]", table)
    return (t, *checked)


def _parse_events(raw: list, table: CharTable, payloads: _Payloads) -> _Columns:
    """A record's events, one at a time; the first bad event raises."""
    return tuple(zip(*[_parse_event(e, i, table, payloads)
                       for i, e in enumerate(raw)]))


def _bulk_events(raw: list, table: CharTable, payloads: _Payloads) -> _Columns | None:
    """A record's events, checked in passes over all of them; None if any fails.

    It makes the checks of :func:`_parse_event` without a Python call per
    event: every item is an object of known fields, every ``t`` a count,
    and each ``(k, p)`` pair new to ``payloads`` passes
    :func:`_event_payload`.  It raises nothing of its own; on None, the
    caller runs :func:`_parse_events`, whose error names the event.
    """
    if (set(map(type, raw)) != {dict}
            or not _EVENT_FIELDS.issuperset(chain.from_iterable(raw))):
        return None
    stamps = list(map(dict.get, raw, repeat("t")))
    if set(map(type, stamps)) != {int} or min(stamps) < 0 or max(stamps) > _MAX_COUNT:
        return None
    pairs = list(zip(map(dict.get, raw, repeat("k")),
                     map(dict.get, raw, repeat("p"), repeat(""))))
    try:
        for k, p in set(pairs).difference(payloads):  # TypeError: a list
            payloads[k, p] = _event_payload(k, p, "events", table)
    except (TypeError, ParseError):
        return None
    codes, texts = zip(*map(payloads.__getitem__, pairs))
    return stamps, codes, texts


@dataclass
class LogState:
    """What :func:`parse_session_log` carries from one block of a log to the next.

    One state serves one log under one table.  The log commands score
    each block's records and drop them before the next block is parsed,
    so this is all they keep of a log between blocks, and the first line
    of each session id is the part that grows with it.
    """

    lines: int = 0  # the lines read so far
    first_line: dict[str, int] = field(default_factory=dict)  # by session id
    payloads: _Payloads = field(default_factory=dict)  # every checked (k, p)
    # One string for each technique and participant id: a study repeats few.
    ids: dict[str, str] = field(default_factory=dict)


def _parse_record(obj: object, table: CharTable, state: LogState) -> SessionRecord:
    payloads, ids = state.payloads, state.ids
    _object(obj, _RECORD_FIELDS, None)
    session_id = _require_str(obj, "session_id", nonempty=True)
    technique_id = _require_str(obj, "technique_id", nonempty=True)
    participant_id = _require_str(obj, "participant_id")
    # normalize scans for a lone surrogate, and _norm reports it as
    # _require_str would: same message, same field.
    presented = _norm(_string(obj, "presented"), table, "presented")
    transcribed = _norm(_string(obj, "transcribed"), table, "transcribed")
    inf_override = obj.get("inf_override")
    if inf_override is not None and not _is_count(inf_override):
        raise _not_a_count(inf_override, "inf_override")
    raw_events = obj.get("events")
    if not isinstance(raw_events, list) or not raw_events:
        raise ParseError("expected a non-empty list", field="events")
    stamps, codes, texts = (_bulk_events(raw_events, table, payloads)
                            or _parse_events(raw_events, table, payloads))
    if not all(map(le, stamps, stamps[1:])):
        log.warning("session %s: events out of order, sorting by timestamp",
                    session_id)
        order = sorted(range(len(stamps)), key=stamps.__getitem__)  # stable
        stamps, codes, texts = ([column[i] for i in order]
                                for column in (stamps, codes, texts))
    return SessionRecord(
        session_id=session_id,
        technique_id=ids.setdefault(technique_id, technique_id),
        participant_id=ids.setdefault(participant_id, participant_id),
        presented=presented,
        transcribed=transcribed,
        events=InputStream._from_columns(stamps, codes, texts),
        inf_override=inf_override,
    )


def _lines(data: bytes | bytearray) -> Iterator[bytes | bytearray]:
    """The lines of ``data``, cut one at a time, as ``data.splitlines()`` cuts them.

    ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line, and no empty
    line follows a final line end.  Only the line being read is copied
    out of ``data``, where ``splitlines`` copies every line at once.  The
    next ``\\n`` is found once and kept until the cut passes it, so a log
    whose lines end in a lone ``\\r`` is still read in one pass.
    """
    find, end = data.find, len(data)
    start, newline = 0, -1
    while start < end:
        if newline < start:
            newline = find(b"\n", start)
            if newline < 0:
                newline = end
        cr = find(b"\r", start, newline)
        if cr < 0:
            yield data[start:newline]
            start = newline + 1
        else:  # a lone \r, or the \r of \r\n
            yield data[start:cr]
            start = cr + 2 if cr + 1 == newline else cr + 1


def _whole_lines(block: bytes | bytearray) -> int:
    """The length of ``block``'s whole lines, as :func:`_lines` ends them.

    A ``\\r`` that ends ``block`` may be the first half of a ``\\r\\n``
    that the next block completes, so it ends no line here.  0 if no line
    ends in ``block``.
    """
    end = len(block) - block.endswith(b"\r")
    return max(block.rfind(b"\n", 0, end), block.rfind(b"\r", 0, end)) + 1


def parse_session_log(data: Source, table: CharTable = BENGALI_TABLE, *,
                      state: LogState | None = None) -> list[SessionRecord]:
    """Parse a JSON Lines session log.  Blank lines are skipped.

    A :class:`ParseError` or :class:`EncodingError` carries the line it
    arose on as ``line``.  A session id may appear once; a repeat names
    both lines.  Each distinct event ``(k, p)`` pair is checked,
    normalized and flattened once per log: a log's keystrokes draw on a
    small alphabet of payloads.  A line is decoded by :func:`_load_record`
    and its events are checked by :func:`_bulk_events`; both fall back to
    the per-object and per-event checks, so every result and error is
    the same as theirs.

    Lines are cut from ``data`` one at a time (:func:`_lines`), so beside
    the bytes it was given and the records it returns the parser holds
    one line and its decoded text, not a copy of the whole log.

    A log may also be parsed in blocks, one call per block, all with one
    :class:`LogState`, fresh for the first block and updated by each call.
    It carries the line count, the first line of each session id, the
    payload memo and the shared ids.  Every block but the last must hold
    whole lines: it ends in a line end, and not in a ``\\r`` that the next
    block's ``\\n`` completes (:func:`_whole_lines` finds the longest such
    prefix).  The calls then return, in order, the records that one call
    on the whole log returns, log the same warnings and raise the same
    error, with the same ``line``.
    """
    state = LogState() if state is None else state
    records: list[SessionRecord] = []
    first_line = state.first_line
    lineno = state.lines
    for lineno, raw in enumerate(_lines(_read_bytes(data)), start=lineno + 1):
        try:
            text = _decode(raw, file_start=lineno == 1)
            if not text.strip():
                continue
            record = _parse_record(_load_record(text), table, state)
        except (EncodingError, ParseError) as err:
            err.line = lineno
            raise
        first = first_line.setdefault(record.session_id, lineno)
        if first != lineno:
            raise ParseError(f"session id {record.session_id!r} already used "
                             f"on line {first}", line=lineno, field="session_id")
        records.append(record)
    state.lines = lineno
    return records


def write_session_log(records: Sequence[SessionRecord]) -> bytes:
    """Serialize records back to JSON Lines; inverse of the parser."""
    lines = []
    for r in records:
        obj: dict = {
            "session_id": r.session_id,
            "technique_id": r.technique_id,
            "participant_id": r.participant_id,
            "presented": r.presented,
            "transcribed": r.transcribed,
            "events": [{"t": e.t_ms, "k": e.kind.value, "p": e.payload}
                       for e in r.events],
        }
        if r.inf_override is not None:
            obj["inf_override"] = r.inf_override
        lines.append(json.dumps(obj, ensure_ascii=False,
                                separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def parse_technique_profile(data: Source,
                            table: CharTable = BENGALI_TABLE) -> TechniqueProfile:
    """Parse a technique profile JSON object.

    Every declared atomic unit must flatten to at least two basic
    characters (:class:`InvalidUnitError` otherwise), and every unit-key
    payload's output-stream text must be a declared unit's, the rule
    replay applies to a unit keystroke.
    """
    text = _decode(_read_bytes(data), "technique profile")
    obj = _object(_load_json(text), _PROFILE_FIELDS, None)
    technique_id = _require_str(obj, "technique_id", nonempty=True)

    raw_units = obj.get("atomic_units", [])
    if not isinstance(raw_units, list) or any(not isinstance(u, str) for u in raw_units):
        raise ParseError("expected a list of strings", field="atomic_units")
    units, unit_texts = set(), set()
    for u in raw_units:
        norm = _norm(u, table, "atomic_units")
        flat = to_output_stream(norm, table).text
        if len(flat) < 2:
            raise InvalidUnitError(
                f"atomic unit {norm!r} must flatten to at least two basic "
                f"characters")
        units.add(norm)
        unit_texts.add(flat)

    raw_keys = obj.get("unit_keys", {})
    if not isinstance(raw_keys, dict):
        raise ParseError("expected an object", field="unit_keys")
    unit_keys: dict[str, str] = {}
    for name, payload in raw_keys.items():
        _no_lone_surrogate(name, "unit_keys")
        if not isinstance(payload, str):
            raise ParseError("expected a string payload", field=f"unit_keys.{name}")
        norm = _norm(payload, table, f"unit_keys.{name}")
        if to_output_stream(norm, table).text not in unit_texts:
            raise ParseError(f"payload {norm!r} is not a declared atomic unit",
                             field=f"unit_keys.{name}")
        unit_keys[name] = norm

    granularity = obj.get("backspace_granularity", "basic")
    if granularity not in [g.value for g in BackspaceGranularity]:
        raise ParseError(f"expected 'basic' or 'unit', got {granularity!r}",
                         field="backspace_granularity")
    return TechniqueProfile(
        technique_id=technique_id,
        atomic_units=frozenset(units),
        unit_keys=unit_keys,
        backspace_granularity=granularity,
        table=table,
    )


def write_technique_profile(profile: TechniqueProfile) -> bytes:
    """Serialize a profile to JSON; inverse of the parser."""
    obj = {
        "technique_id": profile.technique_id,
        "atomic_units": sorted(profile.atomic_units),
        "unit_keys": {k: profile.unit_keys[k] for k in sorted(profile.unit_keys)},
        "backspace_granularity": profile.backspace_granularity.value,
    }
    return (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def load_phrase_set(data: Source, source: str = "",
                    table: CharTable = BENGALI_TABLE) -> PhraseSet:
    """Load a phrase set: one phrase per line, ``#`` comments, blanks skipped."""
    phrases = []
    for line in _decode(_read_bytes(data), source or "phrase set").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        phrases.append(normalize(line, table))
    if not phrases:
        log.warning("phrase set %s is empty", source or "<memory>")
    return PhraseSet(tuple(phrases), source)


def load_table_file(path: str) -> CharTable:
    """Load a classification table from a UTF-8 record file."""
    with open(path, "rb") as fh:
        return CharTable.from_lines(_decode(fh.read(), path).splitlines())


def corpus_totals(phrase_set: PhraseSet,
                  table: CharTable = BENGALI_TABLE) -> tuple[int, int]:
    """Constituent characters, whitespace included, and words of a corpus.

    Words are maximal non-whitespace runs.  Raises
    :class:`EmptyCorpusError` for a corpus with no words.
    """
    chars = sum(to_output_stream(p, table).length for p in phrase_set.phrases)
    words = sum(len(p.split()) for p in phrase_set.phrases)
    if words == 0:
        raise EmptyCorpusError(
            f"phrase set {phrase_set.source or '<memory>'} has no words")
    return chars, words


class _Metric(NamedTuple):
    """A report cell holding the value of the metric ``name``."""

    name: str
    value: float


def _csv_cell(value: object) -> str:
    if isinstance(value, _Metric):
        suffix = "%" if value.name in RATE_FIELDS else ""
        return f"{value.value:.2f}{suffix}"
    return f"{value:g}" if isinstance(value, float) else str(value)


_Table = tuple[Sequence[str], Iterable[dict]]


def _render(tables: dict[str, _Table], fmt: str) -> bytes:
    """Render tables of rows keyed by their columns, in order.

    CSV separates tables by a blank line.  JSON gives one table as a list
    of rows and several as an object keyed by table name.  Rows are
    rendered as they are drawn from their table, so a table may make
    them one at a time, and each is encoded into the one buffer whose
    bytes are returned: no copy of the report is made beside it.
    """
    out = io.BytesIO()
    if fmt == "csv":
        text = io.TextIOWrapper(out, encoding="utf-8", newline="")
        writer = csv.writer(text, lineterminator="\r\n")
        for n, (columns, rows) in enumerate(tables.values()):
            if n:
                writer.writerow([])
            writer.writerow(columns)
            writer.writerows([_csv_cell(v) for v in r.values()] for r in rows)
        text.detach()  # flushes into ``out`` and leaves it open
    elif fmt == "json":
        out.writelines(_json_tables(tables))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return out.getvalue()


def _json_tables(tables: dict[str, _Table]) -> Iterator[bytes]:
    """The UTF-8 pieces of ``json.dumps(..., indent=2)`` of the tables' rows."""
    if len(tables) == 1:
        (_, rows), = tables.values()
        yield from _json_rows(rows, 0)
    else:
        for n, (name, (_, rows)) in enumerate(tables.items()):
            opening = ",\n  " if n else "{\n  "
            yield f"{opening}{json.dumps(name, ensure_ascii=False)}: ".encode("utf-8")
            yield from _json_rows(rows, 1)
        yield b"\n}"
    yield b"\n"


def _json_rows(rows: Iterable[dict], depth: int) -> Iterator[bytes]:
    """``rows`` as ``json.dumps(..., indent=2)`` writes them ``depth`` levels in.

    Encoding the whole report in one call would hold a string for every
    token of it at once, several times the report's size.  So each row,
    a flat object of columns, is encoded on its own by the C encoder, its
    indent carried in the item separator, and turned into bytes at once.
    """
    outer, inner = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    encode = json.JSONEncoder(ensure_ascii=False,
                              separators=("," + inner, ": ")).encode
    close = "[]"
    for n, r in enumerate(rows):
        body = encode({k: round(v.value, 2) if isinstance(v, _Metric) else v
                       for k, v in r.items()})
        yield (("," if n else "[") + outer + "{" + inner + body[1:-1] + outer
               + "}").encode("utf-8")
        close = "\n" + "  " * depth + "]"
    yield close.encode("utf-8")


_SUMMARY_COLUMNS = ("technique", *METRIC_FIELDS, "n_sessions")

_INTERMEDIATE_FIELDS = tuple(f.name for f in fields(SessionIntermediates))

_SESSION_COLUMNS = (
    "session_id", "technique_id", "participant_id",
    *METRIC_FIELDS, *_INTERMEDIATE_FIELDS,
)

_COMPARE_COLUMNS = ("technique", "metric", "proposed", "naive", "delta")


def _summary_table(summaries: "Sequence[TechniqueSummary]") -> _Table:
    return _SUMMARY_COLUMNS, [
        {"technique": s.technique_id,
         **{m: _Metric(m, s.means[m]) for m in METRIC_FIELDS},
         "n_sessions": s.n_sessions}
        for s in sorted(summaries, key=lambda s: s.technique_id)]


def _session_table(results: "Sequence[SessionMetrics]") -> _Table:
    """The per-session table, its rows made one at a time as they are drawn."""
    return _SESSION_COLUMNS, (
        {"session_id": m.session_id, "technique_id": m.technique_id,
         "participant_id": m.participant_id,
         **{f: _Metric(f, getattr(m, f)) for f in METRIC_FIELDS},
         # Not vars(): from Python 3.11 it gives each object a dict to keep.
         **{f: getattr(m.intermediates, f) for f in _INTERMEDIATE_FIELDS}}
        for m in results)


def write_analysis_report(summaries: "Sequence[TechniqueSummary]",
                          sessions: "Sequence[SessionMetrics] | None" = None,
                          fmt: str = "csv") -> bytes:
    """The report of ``analyze``: an optional per-session block, then the summary.

    The summary's CSV columns are fixed: technique, the five metrics
    (means, two decimals, rates carrying a % suffix), and n_sessions.
    Session rows add the audit intermediates.  JSON carries the same
    numbers rounded to two decimals, without suffixes: the summary alone
    is a list of rows, with sessions an object of both.  Output is
    byte-deterministic for a given input.
    """
    tables = {} if sessions is None else {"sessions": _session_table(sessions)}
    tables["summary"] = _summary_table(summaries)
    return _render(tables, fmt)


def write_compare_report(proposed: "Sequence[TechniqueSummary]",
                         naive: "Sequence[TechniqueSummary]",
                         fmt: str = "csv") -> bytes:
    """Tidy proposed-vs-naive table: one row per technique and metric."""
    naive_by_id = {s.technique_id: s for s in naive}
    rows = []
    for s in sorted(proposed, key=lambda s: s.technique_id):
        other = naive_by_id.get(s.technique_id)
        if other is None:
            raise ValueError(f"no naive summary for technique {s.technique_id!r}")
        for metric in METRIC_FIELDS:
            ours, theirs = s.means[metric], other.means[metric]
            rows.append({"technique": s.technique_id, "metric": metric,
                         "proposed": _Metric(metric, ours),
                         "naive": _Metric(metric, theirs),
                         "delta": _Metric(metric, ours - theirs)})
    return _render({"compare": (_COMPARE_COLUMNS, rows)}, fmt)
