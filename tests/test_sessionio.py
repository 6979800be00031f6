"""Log, profile, phrase set, and report format behavior."""

from __future__ import annotations

import json
import logging

import pytest

import abugida as ab
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


class TestOtherWriters:
    def _session_metrics(self):
        i = ab.SessionIntermediates(12, 14, 13, 1, 1.0, 20.0, 12, 0, 0)
        return ab.SessionMetrics("s1", "conjunct-key", "p1",
                                 7.045009784735812, 0.9230769230769231,
                                 7.6923076923076925, 7.142857142857142,
                                 7.6923076923076925, i)

    def test_per_session_csv(self):
        data = write_analysis_report([summary()], [self._session_metrics()], "csv")
        lines = data.decode().split("\r\n")
        assert lines[0].startswith("session_id,technique_id,participant_id,wpm_bn")
        assert lines[1] == ("s1,conjunct-key,p1,7.05,0.92,7.69%,7.14%,7.69%,"
                            "12,14,13,1,1,20,12,0,0")

    def test_analysis_report_combined_csv(self):
        data = write_analysis_report([summary()], [self._session_metrics()], "csv")
        blocks = data.split(b"\r\n\r\n")
        assert len(blocks) == 2
        assert blocks[1].startswith(b"technique,")

    def test_analysis_report_json_shape(self):
        data = write_analysis_report([summary()], [self._session_metrics()], "json")
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
