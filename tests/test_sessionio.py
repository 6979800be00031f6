"""Log, profile, phrase set, and report format behavior."""

from __future__ import annotations

import io
import json
import logging
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abugida as ab
from abugida import cli, sessionio
from abugida.sessionio import (
    corpus_totals,
    write_analysis_report,
    write_compare_report,
)
from conftest import sidebar_log_obj, sidebar_profile_obj


def log_bytes(*objs) -> bytes:
    return "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objs).encode()


def profile_bytes(**overrides) -> bytes:
    obj = sidebar_profile_obj()
    obj.update(overrides)
    return json.dumps(obj, ensure_ascii=False).encode()


def with_value(path, value):
    """A log line: the record given, with ``value`` at the key ``path``.

    ASCII escapes keep a lone surrogate in the JSON text, as a logger
    writing ``\\ud800`` would.
    """
    def line(obj) -> str:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(obj)
    return line


class TestParseSessionLog:
    def test_sidebar_line(self):
        records = ab.parse_session_log(log_bytes(sidebar_log_obj()))
        assert len(records) == 1
        r = records[0]
        assert r.session_id == "s1"
        assert len(r.events) == 12
        assert r.inf_override is None
        assert ab.to_output_stream(r.presented).length == 14
        assert ab.to_output_stream(r.transcribed).length == 13

    def test_blank_lines_skipped(self):
        data = b"\n" + log_bytes(sidebar_log_obj()) + b"\n\n"
        assert len(ab.parse_session_log(data)) == 1

    def test_texts_normalized_on_parse(self):
        obj = sidebar_log_obj()
        obj["presented"] = "ড়"  # decomposed ড়
        obj["transcribed"] = "ড়"
        r = ab.parse_session_log(log_bytes(obj))[0]
        assert r.presented == "ড়"
        assert r.transcribed == "ড়"

    def test_round_trip(self):
        records = ab.parse_session_log(log_bytes(
            sidebar_log_obj("s1"), sidebar_log_obj("s2", "p2")))
        again = ab.parse_session_log(ab.write_session_log(records))
        assert again == records

    def test_invalid_json_names_line(self):
        data = log_bytes(sidebar_log_obj()) + b"{oops\n"
        with pytest.raises(ab.ParseError, match="line 2"):
            ab.parse_session_log(data)

    def test_invalid_utf8(self):
        with pytest.raises(ab.EncodingError, match="line 1"):
            ab.parse_session_log(b"\xff\xfe{}\n")

    def test_unknown_record_field(self):
        obj = sidebar_log_obj()
        obj["speed"] = 1
        with pytest.raises(ab.ParseError, match="speed"):
            ab.parse_session_log(log_bytes(obj))

    def test_unknown_event_kind(self):
        obj = sidebar_log_obj()
        obj["events"][0] = {"t": 0, "k": "tap", "p": "ক"}
        with pytest.raises(ab.ParseError, match=r"events\[0\]\.k"):
            ab.parse_session_log(log_bytes(obj))

    @pytest.mark.parametrize("t", [-1, 1.5, True, None, "0"])
    def test_bad_timestamps(self, t):
        obj = sidebar_log_obj()
        obj["events"][0] = {"t": t, "k": "mod", "p": ""}
        with pytest.raises(ab.ParseError, match=r"events\[0\]\.t"):
            ab.parse_session_log(log_bytes(obj))

    def test_payload_on_backspace_rejected(self):
        obj = sidebar_log_obj()
        obj["events"].append({"t": 30000, "k": "bksp", "p": "ক"})
        with pytest.raises(ab.ParseError, match="no payload"):
            ab.parse_session_log(log_bytes(obj))

    def test_empty_char_payload_rejected(self):
        obj = sidebar_log_obj()
        obj["events"][2] = {"t": 3000, "k": "char", "p": ""}
        with pytest.raises(ab.ParseError, match="at least one"):
            ab.parse_session_log(log_bytes(obj))

    def test_single_char_unit_payload_rejected(self):
        obj = sidebar_log_obj()
        obj["events"][0] = {"t": 0, "k": "unit", "p": "ক"}
        with pytest.raises(ab.ParseError, match="at least two"):
            ab.parse_session_log(log_bytes(obj))

    def test_zero_width_only_payload_rejected(self):
        obj = sidebar_log_obj()
        obj["events"][2] = {"t": 3000, "k": "char", "p": "‍"}
        with pytest.raises(ab.ParseError):
            ab.parse_session_log(log_bytes(obj))

    def test_missing_events_rejected(self):
        obj = sidebar_log_obj()
        del obj["events"]
        with pytest.raises(ab.ParseError, match="events"):
            ab.parse_session_log(log_bytes(obj))

    def test_empty_events_rejected(self):
        obj = sidebar_log_obj()
        obj["events"] = []
        with pytest.raises(ab.ParseError, match="events"):
            ab.parse_session_log(log_bytes(obj))

    def test_empty_session_id_rejected(self):
        obj = sidebar_log_obj()
        obj["session_id"] = ""
        with pytest.raises(ab.ParseError, match="session_id"):
            ab.parse_session_log(log_bytes(obj))

    @pytest.mark.parametrize("value", [-1, 1.5, True, "3"])
    def test_bad_inf_override(self, value):
        obj = sidebar_log_obj()
        obj["inf_override"] = value
        with pytest.raises(ab.ParseError, match="inf_override"):
            ab.parse_session_log(log_bytes(obj))

    def test_inf_override_parsed(self):
        obj = sidebar_log_obj()
        obj["inf_override"] = 2
        assert ab.parse_session_log(log_bytes(obj))[0].inf_override == 2

    def test_inf_override_round_trip(self):
        objs = [sidebar_log_obj("s1"), sidebar_log_obj("s2"), sidebar_log_obj("s3")]
        objs[0]["inf_override"] = 0
        objs[1]["inf_override"] = 3
        records = ab.parse_session_log(log_bytes(*objs))
        again = ab.parse_session_log(ab.write_session_log(records))
        assert again == records
        assert [r.inf_override for r in again] == [0, 3, None]

    @pytest.mark.parametrize("event, message", [
        ("x", "line 1, field 'events[0]': expected a JSON object"),
        ({"t": 0, "k": "char", "p": 5},
         "line 1, field 'events[0].p': payload must be a string"),
    ])
    def test_malformed_event(self, event, message):
        obj = sidebar_log_obj()
        obj["events"][0] = event
        with pytest.raises(ab.ParseError) as info:
            ab.parse_session_log(log_bytes(obj))
        assert str(info.value) == message

    def test_surrogate_escape_rejected(self):
        data = (b'{"session_id":"s","technique_id":"t","participant_id":"p",'
                b'"presented":"\\ud800","transcribed":"x",'
                b'"events":[{"t":0,"k":"char","p":"x"}]}\n')
        with pytest.raises(ab.ParseError, match="presented"):
            ab.parse_session_log(data)

    def test_duplicate_session_id_rejected(self):
        data = log_bytes(sidebar_log_obj("a"), sidebar_log_obj("b"),
                         sidebar_log_obj("a", "p2"))
        with pytest.raises(ab.ParseError,
                           match="line 3, field 'session_id'.*on line 1"):
            ab.parse_session_log(data)

    @pytest.mark.parametrize("original, doubled, key", [
        ('{"session_id": "s1",', '{"session_id": "s1", "session_id": "x",',
         "session_id"),
        ('{"t": 0,', '{"t": 0, "t": 9,', "t"),
    ], ids=["record", "event"])
    def test_duplicate_key_rejected(self, original, doubled, key):
        second = log_bytes(sidebar_log_obj("s1")).decode()
        assert original in second
        data = log_bytes(sidebar_log_obj("s0")) + second.replace(
            original, doubled, 1).encode()
        with pytest.raises(ab.ParseError) as info:
            ab.parse_session_log(data)
        assert str(info.value) == f"line 2: duplicate key {key!r}"

    def test_out_of_order_events_sorted_with_warning(self, caplog):
        obj = sidebar_log_obj()
        obj["events"][0], obj["events"][1] = obj["events"][1], obj["events"][0]
        with caplog.at_level(logging.WARNING):
            records = ab.parse_session_log(log_bytes(obj))
        assert [e.t_ms for e in records[0].events] == sorted(
            e.t_ms for e in records[0].events)
        assert any("out of order" in m for m in caplog.messages)


    def test_surrogate_message_names_field_and_index(self):
        data = (b'{"session_id":"s","technique_id":"t","participant_id":"p",'
                b'"presented":"x","transcribed":"x",'
                b'"events":[{"t":0,"k":"char","p":"\\u0995\\ud800"}]}\n')
        with pytest.raises(ab.ParseError, match=(
                r"^line 1, field 'events\[0\]\.p': "
                r"lone surrogate U\+D800 at index 1$")):
            ab.parse_session_log(data)


    @pytest.mark.parametrize("second, message", [
        (lambda obj: "{oops", "line 2: invalid JSON: Expecting property name "
                              "enclosed in double quotes"),
        (lambda obj: json.dumps(obj).replace('"t": 0,', '"t": 0, "t": 9,', 1),
         "line 2: duplicate key 't'"),
        (lambda obj: "[]", "line 2: expected a JSON object"),
        (with_value(["speed"], 1), "line 2: unknown field 'speed'"),
        (lambda obj: json.dumps({k: v for k, v in obj.items()
                                 if k != "participant_id"}),
         "line 2, field 'participant_id': expected a string"),
        (with_value(["technique_id"], ""),
         "line 2, field 'technique_id': must not be empty"),
        (with_value(["presented"], "\ud800"),
         "line 2, field 'presented': lone surrogate U+D800 at index 0"),
        (with_value(["transcribed"], "\u0995\udfff"),
         "line 2, field 'transcribed': lone surrogate U+DFFF at index 1"),
        (with_value(["session_id"], "s\udfff"),
         "line 2, field 'session_id': lone surrogate U+DFFF at index 1"),
        (with_value(["inf_override"], -1),
         "line 2, field 'inf_override': expected a non-negative integer"),
        (with_value(["inf_override"], 2 ** 53 + 1),
         "line 2, field 'inf_override': must not exceed 2**53"),
        (with_value(["events"], []),
         "line 2, field 'events': expected a non-empty list"),
        (with_value(["events", 3, "t"], 1.5),
         "line 2, field 'events[3].t': expected a non-negative integer"),
        (with_value(["events", 3, "t"], 2 ** 53 + 1),
         "line 2, field 'events[3].t': must not exceed 2**53"),
        (with_value(["events", 3, "k"], "tap"),
         "line 2, field 'events[3].k': unknown event kind 'tap' (expected one "
         "of ['bksp', 'char', 'edit', 'mod', 'unit'])"),
        (with_value(["events", 3, "p"], ["ক"]),
         "line 2, field 'events[3].p': payload must be a string"),
        (with_value(["events", 3], "x"),
         "line 2, field 'events[3]': expected a JSON object"),
        (with_value(["events", 3, "p"], "\u0995\ud800"),
         "line 2, field 'events[3].p': lone surrogate U+D800 at index 1"),
        (with_value(["events", 3, "k"], "unit"),
         "line 2, field 'events[3].p': unit payload must carry at least two "
         "basic characters"),
        (with_value(["session_id"], "s0"),
         "line 2, field 'session_id': session id 's0' already used on line 1"),
    ], ids=["json-syntax", "duplicate-key", "not-an-object", "unknown-field",
            "missing-string", "empty-string", "surrogate-in-text",
            "surrogate-in-transcribed", "surrogate-in-id",
            "negative-inf-override", "huge-inf-override", "empty-events",
            "float-t", "huge-t", "unknown-k", "list-p", "event-not-an-object",
            "surrogate-in-p", "payload-shape", "repeated-session-id"])
    def test_error_on_line_2_names_line_and_field(self, second, message):
        """Each error family names the line it arose on, after a good line."""
        data = (log_bytes(sidebar_log_obj("s0"))
                + second(sidebar_log_obj("s1")).encode() + b"\n")
        with pytest.raises(ab.ParseError) as info:
            ab.parse_session_log(data)
        assert str(info.value) == message
        assert info.value.line == 2

class TestPayloadMemo:
    """Each distinct (k, p) pair is checked once per log, where it first occurs."""

    def test_char_payload_reused_as_unit_fails_where_it_occurs(self):
        later = sidebar_log_obj("s2", "p2")
        later["events"][3] = {"t": 4500, "k": "unit", "p": "ক"}
        with pytest.raises(ab.ParseError, match=(
                r"^line 2, field 'events\[3\]\.p': unit payload must carry "
                r"at least two")):
            ab.parse_session_log(log_bytes(sidebar_log_obj(), later))

    def test_backspace_repeating_char_payload_fails(self):
        later = sidebar_log_obj("s2", "p2")
        later["events"].append({"t": 30000, "k": "bksp", "p": "ক"})
        with pytest.raises(ab.ParseError, match=(
                r"^line 2, field 'events\[12\]\.p': bksp events carry no "
                r"payload")):
            ab.parse_session_log(log_bytes(sidebar_log_obj(), later))

    def test_each_pair_is_flattened_once_per_log(self, monkeypatch):
        from abugida import sessionio
        flattened = []

        def counting(text, table):
            flattened.append(text)
            return ab.to_output_stream(text, table)

        monkeypatch.setattr(sessionio, "to_output_stream", counting)
        typed = {e["p"] for e in sidebar_log_obj()["events"] if e["p"]}
        data = log_bytes(sidebar_log_obj("s1"), sidebar_log_obj("s2", "p2"))
        records = ab.parse_session_log(data)
        assert records[0].events == records[1].events
        assert sorted(flattened) == sorted(typed)
        ab.parse_session_log(data)
        assert len(flattened) == 2 * len(typed)

    def test_memo_does_not_outlive_its_call(self):
        # Without the nukta pair, ড + nukta stays two characters.
        no_nukta_pair = ab.CharTable.from_lines(
            "09DC Consonant" if line.startswith("09DC ") else line
            for line in ab.BENGALI_TABLE.to_lines())
        obj = sidebar_log_obj()
        obj["events"][2]["p"] = "\u09a1\u09bc"
        data = log_bytes(obj)
        payload = lambda table: ab.parse_session_log(data, table)[0].events[2].payload
        assert payload(ab.BENGALI_TABLE) == "\u09dc"
        assert payload(no_nukta_pair) == "\u09a1\u09bc"
        assert payload(ab.BENGALI_TABLE) == "\u09dc"


def parse_outcome(data: bytes):
    """The records ``parse_session_log`` gives, or its error's fields."""
    try:
        records = ab.parse_session_log(data)
    except ab.AbugidaError as err:
        return type(err), str(err), err.line, err.field
    return records, {type(e.kind) for r in records for e in r.events}


def one_at_a_time(data: bytes):
    """``parse_outcome`` with the hook on every line and a call per event."""
    with mock.patch.object(sessionio, "_load_record", sessionio._load_json), \
            mock.patch.object(sessionio, "_bulk_events", lambda *args: None):
        return parse_outcome(data)


_GONE = object()  # a mutation that deletes its key
VALID_EVENTS = [{"k": "char", "p": "ক"}, {"k": "char", "p": "া"},
                {"k": "char", "p": " "}, {"k": "unit", "p": "ক্ষ"},
                {"k": "bksp", "p": ""}, {"k": "bksp"}, {"k": "mod", "p": ""},
                {"k": "edit"}]
MUTATIONS = [
    {"t": _GONE}, {"k": _GONE}, {"p": _GONE}, {"x": 1},
    {"t": -1}, {"t": 2 ** 53 + 1}, {"t": True}, {"t": 1.0},
    {"k": "tap"}, {"k": 3}, {"k": None}, {"p": ["ক"]}, {"p": 5},
    {"k": "bksp", "p": "ক"}, {"k": "mod", "p": "া"},
    {"k": "char", "p": "\u200c"}, {"k": "char", "p": ""}, {"k": "unit", "p": "ক"},
    {"p": "ক\ud800"},
]


@st.composite
def event_logs(draw) -> bytes:
    """A log of one or two records, at most one event mutated in one field."""
    stamps = st.integers(0, 20) | st.just(2 ** 53)
    records = [[dict(draw(st.sampled_from(VALID_EVENTS)), t=draw(stamps))
                for _ in range(draw(st.integers(1, 6)))]
               for _ in range(draw(st.integers(1, 2)))]
    mutation = draw(st.none() | st.sampled_from(MUTATIONS + ["not-an-object"]))
    if mutation is not None:
        events = draw(st.sampled_from(records))
        i = draw(st.integers(0, len(events) - 1))
        if mutation == "not-an-object":
            events[i] = [events[i]["t"]]
        else:
            for key, value in mutation.items():
                events[i].pop(key, None)
                if value is not _GONE:
                    events[i][key] = value
    separators = draw(st.sampled_from([None, (",", ":"), (" , ", " : ")]))
    escaped = draw(st.booleans())  # else a lone surrogate is undecodable
    return "".join(
        json.dumps(dict(sidebar_log_obj(f"s{n}"), events=events),
                   ensure_ascii=escaped, separators=separators) + "\n"
        for n, events in enumerate(records)).encode("utf-8", "surrogatepass")


class TestBulkIngest:
    """Whole-record checks and the hook-free decode change no result or error."""

    @settings(max_examples=400, deadline=None)
    @given(event_logs())
    def test_same_outcome_as_one_event_at_a_time(self, data):
        assert parse_outcome(data) == one_at_a_time(data)

    @pytest.mark.parametrize("separators", [None, (",", ":")])
    def test_valid_log_takes_neither_fallback(self, separators):
        data = "".join(json.dumps(sidebar_log_obj(s), ensure_ascii=False,
                                  separators=separators) + "\n"
                       for s in ("s1", "s2")).encode()
        with mock.patch.object(sessionio, "_load_json", side_effect=AssertionError), \
                mock.patch.object(sessionio, "_parse_events",
                                  side_effect=AssertionError):
            outcome = parse_outcome(data)
        assert outcome == one_at_a_time(data)
        assert outcome[1] == {ab.KeyEventKind}

    LINE = json.dumps(sidebar_log_obj("s1"), ensure_ascii=False)
    COMPACT = json.dumps(sidebar_log_obj("s1"), ensure_ascii=False,
                         separators=(",", ":"))

    @pytest.mark.parametrize("line, key", [
        (LINE.replace('"participant_id": "p1",',
                      '"participant_id": "p1", "participant_id": "p1",'),
         "participant_id"),
        (LINE.replace('{"t": 0,', '{"t": 0, "t": 0,'), "t"),
        (LINE.replace('"p": "ি"}]', '"p": "ি", "p": "ি"}]'), "p"),
        (LINE.replace('{"t": 0,', '{"t" : 0, "t": 0,'), "t"),
        (COMPACT.replace('{"t":0,', '{"t"\t:0,"t":0,'), "t"),
        (LINE.replace('{"t": 0,', '{"t": 0, "t": 0,')[:-1], "t"),
        (LINE.replace('"inf_override": null',
                      '"inf_override": null, "x": {"a": 1, "a": 1}'), "a"),
    ], ids=["record", "first-event", "last-event", "spaced", "compact-tab",
            "then-a-syntax-error", "nested-in-unknown-field"])
    def test_repeated_key_is_reported(self, line, key):
        data = (line + "\n").encode()
        with pytest.raises(ab.ParseError) as info:
            ab.parse_session_log(data)
        assert str(info.value) == f"line 1: duplicate key {key!r}"
        assert parse_outcome(data) == one_at_a_time(data)

    def test_nested_object_without_repeat_is_an_unknown_field(self):
        line = self.LINE.replace('"inf_override": null',
                                 '"inf_override": null, "x": {"a": 1}')
        with pytest.raises(ab.ParseError, match="^line 1: unknown field 'x'$"):
            ab.parse_session_log((line + "\n").encode())

    @pytest.mark.parametrize("path, value", [
        (["events", 2, "p"], 'ক":'), (["events", 2, "p"], 'ক" :'),
        (["presented"], 'ক":'), (["presented"], 'ক" :'),
    ])
    @pytest.mark.parametrize("separators", [None, (",", ":")])
    def test_quote_colon_in_a_value_parses_through_the_hook(self, path, value,
                                                             separators):
        obj = sidebar_log_obj()
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        data = (json.dumps(obj, ensure_ascii=False, separators=separators)
                + "\n").encode()
        with mock.patch.object(sessionio, "_load_json",
                               wraps=sessionio._load_json) as hook:
            outcome = parse_outcome(data)
        assert hook.call_count == 1
        assert outcome == one_at_a_time(data)
        record, = outcome[0]
        assert value in (record.presented, record.events[2].payload)


def spliced(data: bytes):
    """``parse_outcome`` with the lines cut all at once by ``bytes.splitlines``."""
    with mock.patch.object(sessionio, "_lines", lambda raw: raw.splitlines()):
        return parse_outcome(data)


BAD_LAST_LINES = ["{oops", json.dumps(sidebar_log_obj("s0")), "[]",
                  "{\x0c}", '{"session_id": "\u0085"}']


@st.composite
def reshaped_logs(draw) -> bytes:
    """Valid lines and blank ones under mixed line ends, perhaps a byte
    order mark, perhaps no final line end, perhaps a bad or undecodable
    last line."""
    lines = [json.dumps(sidebar_log_obj(f"s{n}"), ensure_ascii=False)
             for n in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t"])))
    last = draw(st.none() | st.sampled_from(BAD_LAST_LINES))
    if last is not None:
        lines.append(last)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if draw(st.booleans()):
        data += b"\xff\n"
    return b"\xef\xbb\xbf" + data if draw(st.booleans()) else data


THREE_SESSIONS = log_bytes(*(sidebar_log_obj(f"s{n}") for n in range(3)))
ALTERATIONS = {
    "crlf": lambda d: d.replace(b"\n", b"\r\n"),
    "lone-cr": lambda d: d.replace(b"\n", b"\r"),
    "blank-lines": lambda d: d.replace(b"\n", b"\n\n \r\n\t\r"),
    "bom": lambda d: b"\xef\xbb\xbf" + d,
    "no-final-end": lambda d: d.rstrip(b"\n"),
    "bad-last-line": lambda d: d + b"{oops",
    "bad-last-line-after-cr": lambda d: d.replace(b"\n", b"\r") + b"[]\r",
}


class TestLineCuts:
    """The log is cut one line at a time, exactly where ``splitlines`` cuts it."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\xef", b"\xbb", b"\xbf"]),
                    max_size=40).map(b"".join))
    def test_same_cuts_as_splitlines(self, data):
        assert list(sessionio._lines(data)) == data.splitlines()
        assert list(sessionio._lines(bytearray(data))) == bytearray(data).splitlines()

    @pytest.mark.parametrize("alter", ALTERATIONS.values(), ids=ALTERATIONS.keys())
    def test_altered_log_parses_as_with_splitlines(self, alter):
        data = alter(THREE_SESSIONS)
        assert parse_outcome(data) == spliced(data)

    @settings(max_examples=300, deadline=None)
    @given(reshaped_logs())
    def test_same_outcome_as_with_splitlines(self, data):
        assert parse_outcome(data) == spliced(data)

    def test_parser_holds_no_copy_of_the_lines(self):
        data = log_bytes(*(sidebar_log_obj(f"s{n}", f"p{n}") for n in range(300)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            records = ab.parse_session_log(data)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 300
        assert peak - retained < 0.25 * len(data)


def in_blocks(data: bytes, size: int):
    """``parse_outcome`` of ``data`` cut by the CLI's block cutter, one
    ``parse_session_log`` call a block with one state, as the CLI reads a log."""
    state, records = sessionio.LogState(), []
    try:
        for block in cli._log_blocks(io.BytesIO(data), size):
            records += ab.parse_session_log(block, state=state)
    except ab.AbugidaError as err:
        return type(err), str(err), err.line, err.field
    return records, {type(e.kind) for r in records for e in r.events}


def with_warnings(outcome, *args):
    """``outcome(*args)`` and the warnings it logged."""
    with mock.patch.object(sessionio.log, "warning") as warning:
        return outcome(*args), warning.call_args_list


UNSORTED = log_bytes(sidebar_log_obj("s0"), dict(
    sidebar_log_obj("s1"), events=sidebar_log_obj()["events"][::-1]))


class TestBlocks:
    """A log parsed a block of whole lines at a time, the state carried from
    block to block, gives what one call on the whole log gives."""

    @settings(max_examples=400, deadline=None)
    @given(reshaped_logs()
           | st.sampled_from(list(ALTERATIONS.values())).map(lambda f: f(THREE_SESSIONS))
           | st.just(UNSORTED),
           st.integers(1, 16) | st.integers(1, 4096))
    def test_same_outcome_as_one_call(self, data, size):
        assert (with_warnings(in_blocks, data, size)
                == with_warnings(parse_outcome, data))

    def test_unsorted_record_warns_once(self):
        (records, _), warnings = with_warnings(in_blocks, UNSORTED, 7)
        assert len(records) == 2
        assert len(warnings) == 1

    def test_repeated_id_first_used_in_an_earlier_block(self):
        data = log_bytes(sidebar_log_obj("s1"), sidebar_log_obj("s2"),
                         sidebar_log_obj("s1"))
        first = len(data.splitlines(keepends=True)[0])
        blocks = [bytes(b) for b in cli._log_blocks(io.BytesIO(data), first)]
        assert len(blocks) == 3
        expected = (ab.ParseError, "line 3, field 'session_id': session id 's1' "
                    "already used on line 1", 3, "session_id")
        assert in_blocks(data, first) == parse_outcome(data) == expected

    def test_crlf_split_across_reads_stays_one_line_end(self):
        data = THREE_SESSIONS.replace(b"\n", b"\r\n")
        size = data.index(b"\r") + 1  # the first read ends between \r and \n
        blocks = [bytes(b) for b in cli._log_blocks(io.BytesIO(data), size)]
        assert b"".join(blocks) == data
        assert not any(b.endswith(b"\r") for b in blocks)
        state = sessionio.LogState()
        records = [r for b in blocks for r in ab.parse_session_log(b, state=state)]
        assert state.lines == 3
        assert (records, {ab.KeyEventKind}) == parse_outcome(data)

    @pytest.mark.parametrize("block, whole", [
        (b"", 0), (b"abc", 0), (b"a\n", 2), (b"a\nb", 2), (b"a\r", 0),
        (b"a\r\n", 3), (b"a\rb", 2), (b"a\r\r", 2), (b"a\nb\r", 2),
        (b"\r\n\r", 2)])
    def test_whole_lines(self, block, whole):
        assert sessionio._whole_lines(block) == whole

    def test_ids_are_shared(self):
        records = ab.parse_session_log(log_bytes(
            sidebar_log_obj("s1", "p1"), sidebar_log_obj("s2", "p1")))
        assert records[0].technique_id is records[1].technique_id
        assert records[0].participant_id is records[1].participant_id


class TestParsedEventsHeld:
    """A parsed record keeps its events as columns, not one object each."""

    def test_bytes_held_per_event(self):
        keys = [("char", "ক"), ("char", "া"), ("unit", "ক্ষ"), ("bksp", ""),
                ("mod", "")] * 20
        data = log_bytes(*(
            dict(sidebar_log_obj(f"s{n}", f"p{n}"),
                 events=[{"t": 150 * i, "k": k, "p": p}
                         for i, (k, p) in enumerate(keys)])
            for n in range(250)))
        tracemalloc.start()
        try:
            records = ab.parse_session_log(data)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        events = sum(len(r.events) for r in records)
        assert events == 25_000
        # 25 bytes an event on Python 3.11, records and texts included; a
        # KeyEvent object per event, with its boxed stamp, held 99.
        assert held / events < 38


class TestParseTechniqueProfile:
    def test_full_profile(self):
        p = ab.parse_technique_profile(profile_bytes())
        assert p.technique_id == "conjunct-key"
        assert p.atomic_units == frozenset({"ক্ষ"})
        assert p.unit_keys == {"KSHA": "ক্ষ"}
        assert p.backspace_granularity is ab.BackspaceGranularity.UNIT

    def test_defaults(self):
        p = ab.parse_technique_profile(b'{"technique_id": "bare"}')
        assert p.atomic_units == frozenset()
        assert p.unit_keys == {}
        assert p.backspace_granularity is ab.BackspaceGranularity.BASIC

    def test_units_normalized(self):
        p = ab.parse_technique_profile(profile_bytes(
            atomic_units=["ড়া"], unit_keys={}))
        assert p.atomic_units == frozenset({"ড়া"})

    def test_single_constituent_unit_rejected(self):
        with pytest.raises(ab.InvalidUnitError):
            ab.parse_technique_profile(profile_bytes(atomic_units=["ক"]))

    def test_undeclared_unit_key_payload_rejected(self):
        with pytest.raises(ab.ParseError, match="unit_keys"):
            ab.parse_technique_profile(profile_bytes(unit_keys={"X": "ন্ড"}))

    def test_unknown_field_rejected(self):
        with pytest.raises(ab.ParseError, match="layout"):
            ab.parse_technique_profile(profile_bytes(layout="qwerty"))

    def test_bad_granularity(self):
        with pytest.raises(ab.ParseError, match="backspace_granularity"):
            ab.parse_technique_profile(profile_bytes(backspace_granularity="word"))

    def test_missing_id(self):
        with pytest.raises(ab.ParseError, match="technique_id"):
            ab.parse_technique_profile(b"{}")

    @pytest.mark.parametrize("overrides, message", [
        ({"atomic_units": "ক্ষ"}, "field 'atomic_units': expected a list of strings"),
        ({"unit_keys": ["ক্ষ"]}, "field 'unit_keys': expected an object"),
        ({"unit_keys": {"K": 5}}, "field 'unit_keys.K': expected a string payload"),
    ])
    def test_field_of_wrong_type(self, overrides, message):
        with pytest.raises(ab.ParseError) as info:
            ab.parse_technique_profile(profile_bytes(**overrides))
        assert str(info.value) == message

    @pytest.mark.parametrize("original, doubled, key", [
        ('{"technique_id": "conjunct-key",',
         '{"technique_id": "conjunct-key", "technique_id": "x",', "technique_id"),
        ('{"KSHA": "ক্ষ"}', '{"KSHA": "ক্ষ", "KSHA": "ক্ষ"}', "KSHA"),
    ], ids=["profile", "unit_keys"])
    def test_duplicate_key_rejected(self, original, doubled, key):
        text = profile_bytes().decode()
        assert original in text
        with pytest.raises(ab.ParseError) as info:
            ab.parse_technique_profile(text.replace(original, doubled).encode())
        assert str(info.value) == f"duplicate key {key!r}"

    def test_round_trip(self):
        p = ab.parse_technique_profile(profile_bytes())
        assert ab.parse_technique_profile(ab.write_technique_profile(p)) == p

    def test_round_trip_keeps_unit_key_names(self):
        data = profile_bytes(atomic_units=["ক্ষ", "ন্ড"],
                             unit_keys={"KSHA": "ক্ষ", "ন্ড-কী": "ন\u200d্ড"})
        p = ab.parse_technique_profile(data)
        written = ab.write_technique_profile(p)
        again = ab.parse_technique_profile(written)
        assert again == p and again.unit_keys == p.unit_keys
        assert ab.write_technique_profile(again) == written

    @pytest.mark.parametrize("name", ["\ud800", "K\udfff"])
    def test_unit_key_name_with_lone_surrogate_rejected(self, name):
        obj = sidebar_profile_obj()
        obj["unit_keys"] = {name: "ক্ষ"}
        with pytest.raises(ab.ParseError) as info:
            # ASCII escapes keep the lone surrogate in the JSON text.
            ab.parse_technique_profile(json.dumps(obj).encode())
        assert str(info.value) == (
            f"field 'unit_keys': lone surrogate U+{ord(name[-1]):04X} at index "
            f"{len(name) - 1}")

    def test_errors_name_no_line(self):
        with pytest.raises(ab.ParseError) as info:
            ab.parse_technique_profile(profile_bytes(backspace_granularity="word"))
        assert info.value.line is None
        assert str(info.value) == ("field 'backspace_granularity': expected "
                                   "'basic' or 'unit', got 'word'")

    @pytest.mark.parametrize("declared, key", [
        ("র্য", "র\u200d্য"), ("র\u200d্য", "র্য")])
    def test_unit_key_is_decided_by_its_output_stream_text(self, declared, key):
        """The rule replay applies: a ZWJ spelling of a declared unit is it."""
        p = ab.parse_technique_profile(profile_bytes(
            atomic_units=[declared], unit_keys={"RYA": key}))
        assert p.unit_keys == {"RYA": key}

    @pytest.mark.parametrize("key", ["ন্ড", "ন\u200d্ড", "ন্\u200cড"])
    def test_undeclared_unit_key_rejected_in_any_spelling(self, key):
        with pytest.raises(ab.ParseError) as info:
            ab.parse_technique_profile(profile_bytes(unit_keys={"X": key}))
        assert str(info.value) == (f"field 'unit_keys.X': payload {key!r} is "
                                   f"not a declared atomic unit")


class TestPhraseSet:
    def test_comments_and_blanks(self):
        data = "# corpus\nবই\n\n  # more\nকান্ড\n".encode()
        ps = ab.load_phrase_set(data, "corpus.txt")
        assert ps.phrases == ("বই", "কান্ড")
        assert ps.source == "corpus.txt"

    def test_empty_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            ps = ab.load_phrase_set(b"# nothing\n")
        assert ps.phrases == ()
        assert any("empty" in m for m in caplog.messages)

    def test_bad_encoding(self):
        with pytest.raises(ab.EncodingError):
            ab.load_phrase_set(b"\xff\xfe")

    def test_phrases_normalized(self):
        ps = ab.load_phrase_set("ড়\n".encode())
        assert ps.phrases == ("ড়",)


def _decode_message(raw: bytes) -> str:
    with pytest.raises(UnicodeDecodeError) as caught:
        raw.decode("utf-8")
    return str(caught.value)


class TestUndecodableInput:
    """A log line's error carries its ``line``; a whole file's names the file."""

    BAD = b"\xff\xfe{}"

    @pytest.mark.parametrize("first", [log_bytes(sidebar_log_obj()), b"\n"],
                             ids=["record", "blank"])
    def test_log_line_sets_line(self, first):
        with pytest.raises(ab.EncodingError) as caught:
            ab.parse_session_log(first + self.BAD + b"\n")
        assert caught.value.line == 2
        assert str(caught.value) == f"line 2: {_decode_message(self.BAD)}"

    @pytest.mark.parametrize("load, where", [
        (ab.parse_technique_profile, "technique profile"),
        (lambda data: ab.load_phrase_set(data, "corpus.txt"), "corpus.txt"),
        (ab.load_phrase_set, "phrase set"),
    ])
    def test_whole_file_names_it(self, load, where):
        with pytest.raises(ab.EncodingError) as caught:
            load(self.BAD)
        assert caught.value.line is None
        assert str(caught.value) == f"{where}: {_decode_message(self.BAD)}"

    def test_table_file_names_its_path(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_bytes(self.BAD)
        with pytest.raises(ab.EncodingError) as caught:
            ab.load_table_file(str(path))
        assert caught.value.line is None
        assert str(caught.value) == f"{path}: {_decode_message(self.BAD)}"


class TestCorpusWordLength:
    """The word length corpus-stats prints: characters over words."""

    def test_single_word(self):
        assert corpus_totals(ab.PhraseSet(("বই",))) == (2, 1)

    def test_spaces_count_toward_length(self):
        # 5 constituents (including the space) over 2 words
        assert corpus_totals(ab.PhraseSet(("অআ ইঈ",))) == (5, 2)

    def test_conjuncts_count_fully(self):
        assert corpus_totals(ab.PhraseSet(("কান্ড",))) == (5, 1)

    def test_repetition_invariant(self):
        chars, words = corpus_totals(ab.PhraseSet(("বই", "কান্ড")))
        assert corpus_totals(ab.PhraseSet(("বই", "কান্ড") * 3)) \
            == (3 * chars, 3 * words)

    def test_empty_corpus(self):
        with pytest.raises(ab.EmptyCorpusError):
            corpus_totals(ab.PhraseSet(()))


class TestByteOrderMark:
    """One U+FEFF that opens a file is a byte order mark and is dropped."""

    BOM = "\ufeff".encode()

    def test_session_log(self):
        data = log_bytes(sidebar_log_obj())
        assert ab.parse_session_log(self.BOM + data) == ab.parse_session_log(data)

    def test_session_log_mark_inside_the_file_is_still_an_error(self):
        data = log_bytes(sidebar_log_obj()) + self.BOM + log_bytes(
            sidebar_log_obj("s2"))
        with pytest.raises(ab.ParseError, match="line 2"):
            ab.parse_session_log(data)

    def test_technique_profile(self):
        assert (ab.parse_technique_profile(self.BOM + profile_bytes())
                == ab.parse_technique_profile(profile_bytes()))

    def test_table_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_bytes(self.BOM + b"0995 Other\n")
        assert ab.load_table_file(str(path)).classify(0x0995) is ab.CodepointClass.OTHER

    def test_phrase_set(self):
        ps = ab.load_phrase_set(self.BOM + "# corpus\nবই কান্ড আম\n".encode())
        assert ps.phrases == ("বই কান্ড আম",)
        assert corpus_totals(ps) == (11, 3)


def summary(technique="conjunct-key", **means):
    values = {"wpm_bn": 7.045009784735812, "kspc_bn": 0.9230769230769231,
              "er_bn": 7.6923076923076925, "msder_bn": 7.142857142857142,
              "total_error_rate": 7.6923076923076925}
    values.update(means)
    return ab.TechniqueSummary(technique, 1, values)


class TestWriteReport:
    """The summary-only report ``analyze`` writes without --per-session."""

    def test_csv_golden_bytes(self):
        data = write_analysis_report([summary()], None, "csv")
        expected = ("technique,wpm_bn,kspc_bn,er_bn,msder_bn,total_error_rate,"
                    "n_sessions\r\n"
                    "conjunct-key,7.05,0.92,7.69%,7.14%,7.69%,1\r\n")
        assert data == expected.encode("utf-8")

    def test_json_numbers_without_suffix(self):
        rows = json.loads(write_analysis_report([summary()], None, "json"))
        assert rows == [{
            "technique": "conjunct-key", "wpm_bn": 7.05, "kspc_bn": 0.92,
            "er_bn": 7.69, "msder_bn": 7.14, "total_error_rate": 7.69,
            "n_sessions": 1,
        }]

    def test_lexicographic_order(self):
        data = write_analysis_report([summary("zebra"), summary("alpha")], None,
                                     "csv")
        lines = data.decode().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["alpha", "zebra"]

    def test_deterministic(self):
        rows = [summary("a"), summary("b")]
        for fmt in ("csv", "json"):
            assert (write_analysis_report(rows, None, fmt)
                    == write_analysis_report(rows, None, fmt))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_analysis_report([summary()], None, "xml")


# Report cells: texts (controls, quotes and non-ASCII included), numbers and
# metrics; a row is a non-empty object of them, as every report's rows are.
CELLS = (st.text() | st.integers(-10 ** 20, 10 ** 20) | st.floats() | st.booleans()
         | st.none() | st.floats().map(lambda v: sessionio._Metric("er_bn", v)))
TABLES = st.dictionaries(
    st.text(min_size=1),
    st.lists(st.dictionaries(st.text(), CELLS, min_size=1, max_size=4), max_size=3),
    min_size=1, max_size=3)


class TestJsonRendering:
    """Rows encoded one at a time give the bytes of one indented dump."""

    @settings(max_examples=300, deadline=None)
    @given(TABLES)
    def test_same_bytes_as_one_dump(self, tables):
        payload = {name: [{k: round(v.value, 2) if isinstance(v, sessionio._Metric)
                           else v for k, v in r.items()} for r in rows]
                   for name, rows in tables.items()}
        if len(payload) == 1:
            payload, = payload.values()
        expected = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        rendered = sessionio._render(
            {name: ((), rows) for name, rows in tables.items()}, "json")
        assert rendered == expected.encode("utf-8")


def session_metrics(session_id="s1"):
    i = ab.SessionIntermediates(12, 14, 13, 1, 1.0, 20.0, 12, 0, 0)
    return ab.SessionMetrics(session_id, "conjunct-key", "p1",
                             7.045009784735812, 0.9230769230769231,
                             7.6923076923076925, 7.142857142857142,
                             7.6923076923076925, i)


class TestReportMemory:
    """A report is encoded as its rows are made, not from one table of them."""

    def test_per_session_json_peak(self):
        results = [session_metrics(f"s{n}") for n in range(2000)]
        tracemalloc.start()
        try:
            data = write_analysis_report([summary()], results, "json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(json.loads(data)["sessions"]) == 2000
        # The bytes, with the buffer's growth.  The encoded rows and their
        # join took 2.3 times the report; rows joined as one str and then
        # encoded took five times.
        assert peak < 1.5 * len(data)

    def test_per_session_csv_peak(self):
        results = [session_metrics(f"s{n}") for n in range(2000)]
        tracemalloc.start()
        try:
            data = write_analysis_report([summary()], results, "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.count(b"\r\n") == 2000 + 4
        # The bytes, with the buffer's growth, and the csv writer's own
        # line buffer of 32768 UCS-4 characters.  A text copy of the rows
        # and its encoding beside it took 3.7 times the report.
        assert peak < 1.5 * len(data) + 4 * 32768


class TestOtherWriters:
    def test_per_session_csv(self):
        data = write_analysis_report([summary()], [session_metrics()], "csv")
        lines = data.decode().split("\r\n")
        assert lines[0].startswith("session_id,technique_id,participant_id,wpm_bn")
        assert lines[1] == ("s1,conjunct-key,p1,7.05,0.92,7.69%,7.14%,7.69%,"
                            "12,14,13,1,1,20,12,0,0")

    def test_analysis_report_combined_csv(self):
        data = write_analysis_report([summary()], [session_metrics()], "csv")
        blocks = data.split(b"\r\n\r\n")
        assert len(blocks) == 2
        assert blocks[1].startswith(b"technique,")

    def test_analysis_report_json_shape(self):
        data = write_analysis_report([summary()], [session_metrics()], "json")
        obj = json.loads(data)
        assert set(obj) == {"sessions", "summary"}
        assert obj["sessions"][0]["session_id"] == "s1"

    def test_compare_report(self):
        ours = summary()
        theirs = summary(wpm_bn=4.109589041095891, er_bn=12.5)
        data = write_compare_report([ours], [theirs], "csv").decode()
        lines = data.split("\r\n")
        assert lines[0] == "technique,metric,proposed,naive,delta"
        assert lines[1] == "conjunct-key,wpm_bn,7.05,4.11,2.94"
        assert lines[3] == "conjunct-key,er_bn,7.69%,12.50%,-4.81%"
