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
unknown event kinds, wrong payload shapes, non-integer timestamps and
repeated session ids are rejected with the line and field named, so
malformed logs fail loudly instead of skewing results.  All text is
normalized on the way in.  Out-of-order events are sorted with a
warning rather than rejected; loggers never write to stdout.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, fields
from typing import IO, TYPE_CHECKING, NamedTuple, Sequence, Union

from .bengali import BENGALI_TABLE, CharTable, normalize, to_output_stream
from .errors import (
    EmptyCorpusError,
    EncodingError,
    InvalidEncodingError,
    InvalidUnitError,
    ParseError,
)
from .metrics import METRIC_FIELDS, RATE_FIELDS, SessionIntermediates
from .msd import BackspaceGranularity, TechniqueProfile
from .streams import KeyEvent, KeyEventKind

if TYPE_CHECKING:
    from .metrics import SessionMetrics, TechniqueSummary

__all__ = [
    "SessionRecord",
    "PhraseSet",
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
    """One transcription trial: texts plus the full keystroke log."""

    session_id: str
    technique_id: str
    participant_id: str
    presented: str
    transcribed: str
    events: tuple[KeyEvent, ...]
    inf_override: int | None = None


@dataclass(frozen=True)
class PhraseSet:
    phrases: tuple[str, ...]
    source: str = ""


def _read_bytes(data: Source) -> bytes | bytearray:
    return data if isinstance(data, (bytes, bytearray)) else data.read()


def _decode(raw: bytes, where: str, file_start: bool = True) -> str:
    """UTF-8 text of ``raw``; a U+FEFF opening a file is a byte order mark."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise EncodingError(f"{where}: {err}") from err
    return text.removeprefix("\ufeff") if file_start else text


def _load_json(text: str, lineno: int | None) -> object:
    """``text`` as JSON; a key repeated in any object is a :class:`ParseError`."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ParseError(f"duplicate key {repeated!r}", line=lineno)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", line=lineno) from err


def _object(obj: object, allowed: frozenset, lineno: int | None,
            field: str | None) -> dict:
    """``obj`` as a JSON object whose keys are all in ``allowed``."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line=lineno, field=field)
    if not allowed.issuperset(obj):
        raise ParseError(f"unknown field {sorted(set(obj) - allowed)[0]!r}",
                         line=lineno, field=field)
    return obj


def _norm(text: str, table: CharTable, lineno: int | None, field: str) -> str:
    try:
        return normalize(text, table)
    except InvalidEncodingError as err:
        raise ParseError(str(err), line=lineno, field=field) from err


def _require_str(obj: dict, key: str, lineno: int | None,
                 nonempty: bool = False) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ParseError("expected a string", line=lineno, field=key)
    if nonempty and not value:
        raise ParseError("must not be empty", line=lineno, field=key)
    return value


_NOT_A_COUNT = "expected a non-negative integer"


def _is_count(value: object) -> bool:
    """Whether ``value`` is a JSON non-negative integer (``true`` is not)."""
    return type(value) is int and value >= 0


def _event_payload(k: object, p: object, where: str, lineno: int,
                   table: CharTable) -> tuple[KeyEventKind, str]:
    """The kind and canonical payload of an event's ``k`` and ``p``."""
    if not isinstance(k, str) or k not in _EVENT_KINDS:
        raise ParseError(
            f"unknown event kind {k!r} (expected one of "
            f"{sorted(_EVENT_KINDS)})", line=lineno, field=f"{where}.k")
    kind = _EVENT_KINDS[k]
    if not isinstance(p, str):
        raise ParseError("payload must be a string", line=lineno,
                         field=f"{where}.p")
    p = _norm(p, table, lineno, f"{where}.p")
    if kind is KeyEventKind.CHAR:
        if to_output_stream(p, table).length < 1:
            raise ParseError("char payload must carry at least one basic "
                             "character", line=lineno, field=f"{where}.p")
    elif kind is KeyEventKind.UNIT:
        if to_output_stream(p, table).length < 2:
            raise ParseError("unit payload must carry at least two basic "
                             "characters", line=lineno, field=f"{where}.p")
    elif p:
        raise ParseError(f"{kind.value} events carry no payload",
                         line=lineno, field=f"{where}.p")
    return kind, p


_Payloads = dict[tuple[str, str], tuple[KeyEventKind, str]]


def _parse_event(obj: object, index: int, lineno: int, table: CharTable,
                 payloads: _Payloads) -> KeyEvent:
    """One event; ``payloads`` holds the pairs already checked in this log.

    A pair is checked where it first occurs, so an error names the same
    line and field as without the memo.  This runs once per logged
    event, so the field name is formatted only for an error.
    """
    if not (isinstance(obj, dict) and _EVENT_FIELDS.issuperset(obj)):
        _object(obj, _EVENT_FIELDS, lineno, f"events[{index}]")  # raises
    t = obj.get("t")
    if not _is_count(t):
        raise ParseError(_NOT_A_COUNT, line=lineno, field=f"events[{index}].t")
    k, p = obj.get("k"), obj.get("p", "")
    # A k or p that is no string (a JSON list is unhashable) never passes.
    checked = (payloads.get((k, p))
               if isinstance(k, str) and isinstance(p, str) else None)
    if checked is None:
        checked = payloads[k, p] = _event_payload(
            k, p, f"events[{index}]", lineno, table)
    return KeyEvent(t, *checked)


def _parse_record(obj: object, lineno: int, table: CharTable,
                  payloads: _Payloads) -> SessionRecord:
    _object(obj, _RECORD_FIELDS, lineno, None)
    session_id = _require_str(obj, "session_id", lineno, nonempty=True)
    technique_id = _require_str(obj, "technique_id", lineno, nonempty=True)
    participant_id = _require_str(obj, "participant_id", lineno)
    presented = _norm(_require_str(obj, "presented", lineno),
                      table, lineno, "presented")
    transcribed = _norm(_require_str(obj, "transcribed", lineno),
                        table, lineno, "transcribed")
    inf_override = obj.get("inf_override")
    if inf_override is not None and not _is_count(inf_override):
        raise ParseError(_NOT_A_COUNT, line=lineno, field="inf_override")
    raw_events = obj.get("events")
    if not isinstance(raw_events, list) or not raw_events:
        raise ParseError("expected a non-empty list", line=lineno, field="events")
    events = [_parse_event(e, i, lineno, table, payloads)
              for i, e in enumerate(raw_events)]
    if any(b.t_ms < a.t_ms for a, b in zip(events, events[1:])):
        log.warning("session %s: events out of order, sorting by timestamp",
                    session_id)
        events.sort(key=lambda e: e.t_ms)  # stable
    return SessionRecord(
        session_id=session_id,
        technique_id=technique_id,
        participant_id=participant_id,
        presented=presented,
        transcribed=transcribed,
        events=tuple(events),
        inf_override=inf_override,
    )


def parse_session_log(data: Source,
                      table: CharTable = BENGALI_TABLE) -> list[SessionRecord]:
    """Parse a JSON Lines session log.  Blank lines are skipped.

    A session id may appear once; a repeat raises :class:`ParseError`
    naming both lines.  Each distinct event ``(k, p)`` pair is checked,
    normalized and flattened once per call: a log's keystrokes draw on a
    small alphabet of payloads.
    """
    records: list[SessionRecord] = []
    first_line: dict[str, int] = {}
    payloads: _Payloads = {}
    for lineno, raw in enumerate(_read_bytes(data).splitlines(), start=1):
        text = _decode(raw, f"line {lineno}", file_start=lineno == 1)
        if not text.strip():
            continue
        record = _parse_record(_load_json(text, lineno), lineno, table,
                               payloads)
        first = first_line.setdefault(record.session_id, lineno)
        if first != lineno:
            raise ParseError(f"session id {record.session_id!r} already used "
                             f"on line {first}", line=lineno, field="session_id")
        records.append(record)
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
    payload must be one of the declared units.
    """
    text = _decode(_read_bytes(data), "technique profile")
    obj = _object(_load_json(text, None), _PROFILE_FIELDS, None, None)
    technique_id = _require_str(obj, "technique_id", None, nonempty=True)

    raw_units = obj.get("atomic_units", [])
    if not isinstance(raw_units, list) or any(not isinstance(u, str) for u in raw_units):
        raise ParseError("expected a list of strings", field="atomic_units")
    units = set()
    for u in raw_units:
        norm = _norm(u, table, None, "atomic_units")
        if to_output_stream(norm, table).length < 2:
            raise InvalidUnitError(
                f"atomic unit {norm!r} must flatten to at least two basic "
                f"characters")
        units.add(norm)

    raw_keys = obj.get("unit_keys", {})
    if not isinstance(raw_keys, dict):
        raise ParseError("expected an object", field="unit_keys")
    unit_keys: dict[str, str] = {}
    for name, payload in raw_keys.items():
        if not isinstance(payload, str):
            raise ParseError("expected a string payload", field=f"unit_keys.{name}")
        norm = _norm(payload, table, None, f"unit_keys.{name}")
        if norm not in units:
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
        backspace_granularity=BackspaceGranularity(granularity),
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


_Table = tuple[Sequence[str], Sequence[dict]]


def _render(tables: dict[str, _Table], fmt: str) -> bytes:
    """Render tables of rows keyed by their columns, in order.

    CSV separates tables by a blank line.  JSON gives one table as a list
    of rows and several as an object keyed by table name.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        for n, (columns, rows) in enumerate(tables.values()):
            if n:
                writer.writerow([])
            writer.writerow(columns)
            writer.writerows([_csv_cell(v) for v in r.values()] for r in rows)
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        payload = {name: [{k: round(v.value, 2) if isinstance(v, _Metric) else v
                           for k, v in r.items()} for r in rows]
                   for name, (_, rows) in tables.items()}
        if len(payload) == 1:
            payload, = payload.values()
        return (json.dumps(payload, ensure_ascii=False, indent=2)
                + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


_SUMMARY_COLUMNS = ("technique", *METRIC_FIELDS, "n_sessions")

_SESSION_COLUMNS = (
    "session_id", "technique_id", "participant_id",
    *METRIC_FIELDS,
    *(f.name for f in fields(SessionIntermediates)),
)

_COMPARE_COLUMNS = ("technique", "metric", "proposed", "naive", "delta")


def _summary_table(summaries: "Sequence[TechniqueSummary]") -> _Table:
    return _SUMMARY_COLUMNS, [
        {"technique": s.technique_id,
         **{m: _Metric(m, s.means[m]) for m in METRIC_FIELDS},
         "n_sessions": s.n_sessions}
        for s in sorted(summaries, key=lambda s: s.technique_id)]


def _session_table(results: "Sequence[SessionMetrics]") -> _Table:
    return _SESSION_COLUMNS, [
        {"session_id": m.session_id, "technique_id": m.technique_id,
         "participant_id": m.participant_id,
         **{f: _Metric(f, getattr(m, f)) for f in METRIC_FIELDS},
         **vars(m.intermediates)}
        for m in results]


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
