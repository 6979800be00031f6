"""On-disk formats: session logs, technique profiles, phrase sets, reports.

Session logs are JSON Lines, one session per line:

    {"session_id": "s1", "technique_id": "t", "participant_id": "p1",
     "presented": "...", "transcribed": "...", "inf_override": null,
     "events": [{"t": 0, "k": "char", "p": "ক"}, ...]}

Technique profiles are single JSON objects declaring atomic units, the
unit-key mapping, and backspace granularity.  Phrase sets are plain
UTF-8 text, one phrase per line, ``#`` comments allowed.  Reports are
CSV (RFC 4180, CRLF line endings) or JSON.

Parsing is strict: unknown fields, unknown event kinds, wrong payload
shapes, and non-integer timestamps are rejected with the line and field
named, so malformed logs fail loudly instead of skewing results.  All
text is normalized on the way in.  Out-of-order events are sorted with
a warning rather than rejected; loggers never write to stdout.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, fields
from typing import IO, TYPE_CHECKING, Sequence, Union

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
    "corpus_word_length",
    "write_report",
    "write_per_session_report",
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


def _read_bytes(data: Source) -> bytes:
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    return data.read()


def _norm(text: str, table: CharTable, lineno: int | None, field: str) -> str:
    try:
        return normalize(text, table)
    except InvalidEncodingError as err:
        raise ParseError(str(err), line=lineno, field=field) from err


def _require_str(obj: dict, key: str, lineno: int | None, field: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ParseError("expected a string", line=lineno, field=field)
    return value


def _parse_event(obj: object, index: int, lineno: int | None,
                 table: CharTable) -> KeyEvent:
    where = f"events[{index}]"
    if not isinstance(obj, dict):
        raise ParseError("expected an object", line=lineno, field=where)
    unknown = set(obj) - _EVENT_FIELDS
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r}",
                         line=lineno, field=where)
    t = obj.get("t")
    if isinstance(t, bool) or not isinstance(t, int):
        raise ParseError("timestamp must be an integer", line=lineno,
                         field=f"{where}.t")
    if t < 0:
        raise ParseError("timestamp must be non-negative", line=lineno,
                         field=f"{where}.t")
    k = obj.get("k")
    if not isinstance(k, str) or k not in _EVENT_KINDS:
        raise ParseError(
            f"unknown event kind {k!r} (expected one of "
            f"{sorted(_EVENT_KINDS)})", line=lineno, field=f"{where}.k")
    kind = _EVENT_KINDS[k]
    p = obj.get("p", "")
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
    return KeyEvent(t, kind, p)


def _parse_record(obj: object, lineno: int, table: CharTable) -> SessionRecord:
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line=lineno)
    unknown = set(obj) - _RECORD_FIELDS
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r}", line=lineno)
    session_id = _require_str(obj, "session_id", lineno, "session_id")
    technique_id = _require_str(obj, "technique_id", lineno, "technique_id")
    participant_id = _require_str(obj, "participant_id", lineno, "participant_id")
    if not session_id:
        raise ParseError("must not be empty", line=lineno, field="session_id")
    if not technique_id:
        raise ParseError("must not be empty", line=lineno, field="technique_id")
    presented = _norm(_require_str(obj, "presented", lineno, "presented"),
                      table, lineno, "presented")
    transcribed = _norm(_require_str(obj, "transcribed", lineno, "transcribed"),
                        table, lineno, "transcribed")
    inf_override = obj.get("inf_override")
    if inf_override is not None:
        if isinstance(inf_override, bool) or not isinstance(inf_override, int):
            raise ParseError("must be an integer or null", line=lineno,
                             field="inf_override")
        if inf_override < 0:
            raise ParseError("must be non-negative", line=lineno,
                             field="inf_override")
    raw_events = obj.get("events")
    if not isinstance(raw_events, list):
        raise ParseError("expected a list", line=lineno, field="events")
    if not raw_events:
        raise ParseError("must not be empty", line=lineno, field="events")
    events = [_parse_event(e, i, lineno, table)
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
    """Parse a JSON Lines session log.  Blank lines are skipped."""
    records: list[SessionRecord] = []
    for lineno, raw in enumerate(_read_bytes(data).splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise EncodingError(f"line {lineno}: {err}") from err
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"invalid JSON: {err.msg}", line=lineno) from err
        records.append(_parse_record(obj, lineno, table))
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
    raw = _read_bytes(data)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise EncodingError(str(err)) from err
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    unknown = set(obj) - _PROFILE_FIELDS
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r}")
    technique_id = _require_str(obj, "technique_id", None, "technique_id")
    if not technique_id:
        raise ParseError("must not be empty", field="technique_id")

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
    if granularity not in (BackspaceGranularity.BASIC.value,
                           BackspaceGranularity.UNIT.value):
        raise ParseError(f"expected 'basic' or 'unit', got {granularity!r}",
                         field="backspace_granularity")
    return TechniqueProfile(
        technique_id=technique_id,
        atomic_units=frozenset(units),
        unit_keys=unit_keys,
        backspace_granularity=BackspaceGranularity(granularity),
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
    raw = _read_bytes(data)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise EncodingError(f"{source or 'phrase set'}: {err}") from err
    phrases = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        phrases.append(normalize(line, table))
    if not phrases:
        log.warning("phrase set %s is empty", source or "<memory>")
    return PhraseSet(tuple(phrases), source)


def corpus_word_length(phrase_set: PhraseSet,
                       table: CharTable = BENGALI_TABLE) -> float:
    """Mean word length in constituent characters, whitespace included.

    Counting spaces follows the words-per-minute convention where a
    word is a fixed span of the character stream.  Words are maximal
    non-whitespace runs.  Raises :class:`EmptyCorpusError` for a corpus
    with no words.
    """
    total_chars = 0
    total_words = 0
    for phrase in phrase_set.phrases:
        total_chars += to_output_stream(phrase, table).length
        total_words += len(phrase.split())
    if total_words == 0:
        raise EmptyCorpusError(
            f"phrase set {phrase_set.source or '<memory>'} has no words")
    return total_chars / total_words


def _metric_cell(metric: str, value: float) -> str:
    if metric in RATE_FIELDS:
        return f"{value:.2f}%"
    return f"{value:.2f}"


def _csv_bytes(rows: Sequence[Sequence[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


_SUMMARY_COLUMNS = ("technique", *METRIC_FIELDS, "n_sessions")

_SESSION_COLUMNS = (
    "session_id", "technique_id", "participant_id",
    *METRIC_FIELDS,
    *(f.name for f in fields(SessionIntermediates)),
)


def _summary_rows(summaries: "Sequence[TechniqueSummary]") -> list[dict]:
    return [{"technique": s.technique_id,
             **{m: s.means[m] for m in METRIC_FIELDS},
             "n_sessions": s.n_sessions}
            for s in sorted(summaries, key=lambda s: s.technique_id)]


def _session_rows(results: "Sequence[SessionMetrics]") -> list[dict]:
    return [{"session_id": m.session_id, "technique_id": m.technique_id,
             "participant_id": m.participant_id,
             **{f: getattr(m, f) for f in METRIC_FIELDS},
             **vars(m.intermediates)}
            for m in results]


def _cell(column: str, value: object) -> str:
    if column in METRIC_FIELDS:
        return _metric_cell(column, value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _rounded(rows: Sequence[dict]) -> list[dict]:
    return [{k: round(v, 2) if k in METRIC_FIELDS else v for k, v in r.items()}
            for r in rows]


def _table_bytes(columns: Sequence[str], rows: Sequence[dict], fmt: str) -> bytes:
    """Render rows whose keys are ``columns``, in order.

    CSV prints metrics with two decimals (rates with a % suffix) and
    other floats with ``:g``; JSON rounds metrics to two decimals.
    """
    if fmt == "csv":
        return _csv_bytes([list(columns),
                           *([_cell(k, v) for k, v in r.items()] for r in rows)])
    if fmt == "json":
        return _json_bytes(_rounded(rows))
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(summaries: "Sequence[TechniqueSummary]",
                 fmt: str = "csv") -> bytes:
    """Emit the aggregated per-technique report.

    CSV columns are fixed: technique, the five metrics (means, two
    decimals, rates carrying a % suffix), and n_sessions.  JSON carries
    the same numbers rounded to two decimals, without suffixes.  Output
    is byte-deterministic for a given input.
    """
    return _table_bytes(_SUMMARY_COLUMNS, _summary_rows(summaries), fmt)


def write_per_session_report(results: "Sequence[SessionMetrics]",
                             fmt: str = "csv") -> bytes:
    """Emit one row per session, metrics plus the audit intermediates."""
    return _table_bytes(_SESSION_COLUMNS, _session_rows(results), fmt)


def write_analysis_report(summaries: "Sequence[TechniqueSummary]",
                          sessions: "Sequence[SessionMetrics] | None" = None,
                          fmt: str = "csv") -> bytes:
    """Combined output of ``analyze``: optional per-session block, summary."""
    if sessions is None:
        return write_report(summaries, fmt)
    if fmt == "csv":
        return (write_per_session_report(sessions, fmt) + b"\r\n"
                + write_report(summaries, fmt))
    if fmt == "json":
        return _json_bytes({"sessions": _rounded(_session_rows(sessions)),
                            "summary": _rounded(_summary_rows(summaries))})
    raise ValueError(f"unknown report format {fmt!r}")


def write_compare_report(proposed: "Sequence[TechniqueSummary]",
                         naive: "Sequence[TechniqueSummary]",
                         fmt: str = "csv") -> bytes:
    """Tidy proposed-vs-naive table: one row per technique and metric."""
    naive_by_id = {s.technique_id: s for s in naive}
    rows_data = []
    for s in sorted(proposed, key=lambda s: s.technique_id):
        other = naive_by_id.get(s.technique_id)
        if other is None:
            raise ValueError(f"no naive summary for technique {s.technique_id!r}")
        for metric in METRIC_FIELDS:
            rows_data.append((s.technique_id, metric, s.means[metric],
                              other.means[metric]))
    if fmt == "csv":
        rows = [["technique", "metric", "proposed", "naive", "delta"]]
        for tid, metric, ours, theirs in rows_data:
            rows.append([tid, metric,
                         _metric_cell(metric, ours),
                         _metric_cell(metric, theirs),
                         _metric_cell(metric, ours - theirs)])
        return _csv_bytes(rows)
    if fmt == "json":
        payload = [
            {"technique": tid, "metric": metric,
             "proposed": round(ours, 2), "naive": round(theirs, 2),
             "delta": round(ours - theirs, 2)}
            for tid, metric, ours, theirs in rows_data
        ]
        return _json_bytes(payload)
    raise ValueError(f"unknown report format {fmt!r}")
