"""Input stream construction, timing, replay, and keystroke taxonomy."""

from __future__ import annotations

import dataclasses
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abugida as ab


def ev(t, kind, payload=""):
    return ab.KeyEvent(t, kind, payload)


class TestKeyEvent:
    def test_kind_coercion(self):
        assert ev(0, "char", "ক").kind is ab.KeyEventKind.CHAR

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            ev(-1, "char", "ক")

    def test_textless_kinds_reject_payloads(self):
        for kind in ("bksp", "edit", "mod"):
            with pytest.raises(ValueError):
                ev(0, kind, "ক")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ev(0, "tap", "ক")

    def test_non_string_kind_rejected(self):
        # Not a kind: it would count toward |IS| and replay as a modifier.
        with pytest.raises(ValueError):
            ev(0, 5, "x")

    @pytest.mark.parametrize("t", [True, False, 1.5, 1.0, "1", None])
    def test_non_integer_timestamp_rejected(self, t):
        # The log parser refuses the same stamps.
        with pytest.raises(ValueError, match="timestamp is not an integer"):
            ev(t, "char", "ক")

    @pytest.mark.parametrize("t", [2 ** 53 + 1, 2 ** 63])
    def test_timestamp_above_the_log_bound_rejected(self, t):
        # Ingest refuses the same stamps; below the bound each fits array('q').
        with pytest.raises(ValueError, match=r"must not exceed 2\*\*53"):
            ev(t, "char", "ক")
        assert ab.session_duration_s([ev(0, "char", "ক"), ev(2 ** 53, "bksp")]) \
            == 2 ** 53 / 1000.0

    @pytest.mark.parametrize("payload", [5, None, b"k"])
    def test_non_string_payload_rejected(self, payload):
        with pytest.raises(ValueError, match="payload is not a string"):
            ev(0, "char", payload)

    @pytest.mark.parametrize("kind", ["char", "unit"])
    def test_text_kinds_reject_an_empty_payload(self, kind):
        with pytest.raises(ValueError, match=f"{kind} events carry a payload"):
            ev(0, kind, "")


class TestBuildInputStream:
    def test_sidebar_has_twelve_keystrokes(self, sidebar_events):
        stream = ab.build_input_stream(sidebar_events)
        assert stream == tuple(sidebar_events)
        assert len(stream) == 12

    def test_modifiers_and_backspaces_count(self):
        stream = ab.build_input_stream([
            ev(0, "char", "ব"), ev(10, "bksp"), ev(20, "mod"), ev(30, "char", "ই"),
        ])
        assert len(stream) == 4

    def test_empty_rejected(self):
        with pytest.raises(ab.EmptySessionError):
            ab.build_input_stream([])

    def test_sorts_by_timestamp(self):
        stream = ab.build_input_stream([ev(50, "char", "ই"), ev(0, "char", "ব")])
        assert [e.t_ms for e in stream] == [0, 50]

    def test_stable_for_equal_timestamps(self):
        a, b = ev(5, "char", "ব"), ev(5, "char", "ই")
        assert ab.build_input_stream([a, b]) == (a, b)


class TestDuration:
    def test_sidebar_is_twenty_seconds(self, sidebar_events):
        assert ab.session_duration_s(ab.build_input_stream(sidebar_events)) == 20.0

    def test_single_event_is_zero(self):
        assert ab.session_duration_s(ab.build_input_stream([ev(700, "char", "ক")])) == 0.0

    def test_millisecond_difference(self):
        stream = ab.build_input_stream([ev(500, "char", "ক"), ev(3100, "char", "ই")])
        assert ab.session_duration_s(stream) == pytest.approx(2.6)

    def test_order_does_not_matter(self):
        # A list out of time order is no input stream, yet spans the same time.
        events = [ev(3100, "char", "ই"), ev(500, "char", "ক")]
        assert ab.session_duration_s(events) == pytest.approx(2.6)

    def test_translation_invariant(self):
        base = [ev(100, "char", "ক"), ev(900, "char", "ই")]
        shifted = [ev(100_100, "char", "ক"), ev(100_900, "char", "ই")]
        assert (ab.session_duration_s(ab.build_input_stream(base))
                == ab.session_duration_s(ab.build_input_stream(shifted)))


class TestReplay:
    def test_chars_concatenate(self):
        result = ab.replay_events([ev(0, "char", "ব"), ev(10, "char", "ই")])
        assert result.text == "বই"
        assert result.erased == ()

    def test_adjacent_keys_compose_after_normalize(self):
        result = ab.replay_events([ev(0, "char", "ক"),
                                   ev(10, "char", "ে"),
                                   ev(20, "char", "া")])
        assert ab.normalize(result.text) == "কো"

    def test_backspace_pops_one_character(self):
        result = ab.replay_events([ev(0, "char", "ক"), ev(10, "char", "া"),
                                   ev(20, "bksp")])
        assert result.text == "ক"
        assert result.erased == ("া",)

    def test_unit_backspace_at_unit_granularity(self, sidebar_profile):
        result = ab.replay_events(
            [ev(0, "unit", "ক্ষ"), ev(10, "bksp")], sidebar_profile)
        assert result.text == ""
        assert result.erased == ("ক্ষ",)

    def test_unit_backspace_at_basic_granularity(self):
        profile = ab.TechniqueProfile("t", frozenset({"ক্ষ"}))
        result = ab.replay_events([ev(0, "unit", "ক্ষ"), ev(10, "bksp")], profile)
        assert result.text == "ক্"
        assert result.erased == ("ষ",)

    def test_underflow(self):
        with pytest.raises(ab.ReplayUnderflowError):
            ab.replay_events([ev(0, "bksp")])

    def test_undeclared_unit_rejected(self, sidebar_profile):
        with pytest.raises(ab.UnknownUnitError):
            ab.replay_events([ev(0, "unit", "ন্ড")], sidebar_profile)

    @pytest.mark.parametrize("declared, typed", [
        ("র্য", "র\u200d্য"), ("র\u200d্য", "র্য")])
    def test_unit_is_decided_by_its_output_stream_text(self, declared, typed):
        # A ZWJ in the declaration or the payload, as keyboards often write.
        profile = ab.TechniqueProfile("t", frozenset({declared}),
                                      backspace_granularity="unit")
        result = ab.replay_events([ev(0, "unit", typed), ev(10, "bksp")], profile)
        assert result.erased == ("র্য",)

    @pytest.mark.parametrize("typed", ["ন্ড", "ন\u200d্ড", "ন\u200c্ড"])
    def test_undeclared_unit_rejected_in_any_spelling(self, typed):
        profile = ab.TechniqueProfile("t", frozenset({"র্য", "ক্ষ"}))
        with pytest.raises(ab.UnknownUnitError, match="not declared"):
            ab.replay_events([ev(0, "unit", typed)], profile)

    def test_one_symbol_unit_is_no_unit(self):
        # The profile parser refuses it; a hand-built profile declares no unit.
        profile = ab.TechniqueProfile("t", frozenset({"ক", "ক্ষ"}))
        assert profile.unit_seqs == ("ক্ষ",)
        with pytest.raises(ab.UnknownUnitError):
            ab.replay_events([ev(0, "unit", "ক")], profile)

    def test_permissive_mode_accepts_any_unit(self):
        assert ab.replay_events([ev(0, "unit", "ন্ড")]).text == "ন্ড"

    def test_edit_keys_rejected(self):
        with pytest.raises(ab.UnsupportedKeyError):
            ab.replay_events([ev(0, "char", "ক"), ev(10, "edit")])

    def test_modifiers_produce_no_text(self, sidebar_profile):
        result = ab.replay_events([ev(0, "mod"), ev(10, "char", "ক")],
                                  sidebar_profile)
        assert result.text == "ক"

    def test_sidebar_replays_to_transcription(self, sidebar_events, sidebar_profile):
        from conftest import TRANSCRIBED
        assert ab.replay_transcription(sidebar_events, sidebar_profile) == TRANSCRIBED

    def test_order_does_not_depend_on_container(self):
        # Out of order: ব then া at 0 and 30 ms, the backspace at 40 ms
        # erases া, and ই at 50 ms comes last.
        events = [ev(50, "char", "ই"), ev(40, "bksp"), ev(0, "char", "ব"),
                  ev(30, "char", "া")]
        containers = (events, tuple(events), ab.build_input_stream(events),
                      iter(events), ab.InputStream(events))
        for container in containers:
            result = ab.replay_events(container)
            assert (result.text, result.erased) == ("বই", ("া",))


# Every kind, with payloads that flatten to one, two or three atoms.
EVENTS = st.lists(st.builds(
    lambda t, kind_payload: ab.KeyEvent(t, *kind_payload), st.integers(0, 12),
    st.sampled_from([("char", "ক"), ("char", "া"), ("char", " "),
                     ("char", "ক্ষ"), ("unit", "ক্ষ"), ("unit", "র্য"),
                     ("bksp", ""), ("edit", ""), ("mod", "")])),
    min_size=1, max_size=12)


def outcome(function, *args):
    try:
        return function(*args)
    except ab.AbugidaError as err:
        return type(err), str(err)


class TestInputStream:
    """A parsed record's columns stand in for the tuple of its KeyEvents."""

    def test_columns_build_events_on_demand(self):
        events = [ev(30, "char", "ই"), ev(0, "unit", "ক্ষ"), ev(30, "bksp")]
        stream = ab.InputStream(events)
        ordered = (events[1], events[0], events[2])
        assert tuple(stream) == ordered
        assert (len(stream), stream[0], stream[-1]) == (3, events[1], events[2])
        assert stream[1:] == ordered[1:] and type(stream[1:]) is tuple
        assert stream == ordered and ordered == stream and stream != list(ordered)
        assert hash(stream) == hash(ordered)
        assert ab.build_input_stream(stream) is stream
        with pytest.raises(IndexError):
            stream[3]

    def test_a_reversed_slice_is_replayed_in_time_order(self):
        # A slice is a tuple, so a stream never holds columns out of order.
        events = [ev(0, "char", "ক"), ev(10, "char", "ই"), ev(20, "bksp"),
                  ev(30, "char", "া")]
        stream = ab.build_input_stream(events)
        backwards = stream[::-1]
        assert backwards == tuple(reversed(events)) and type(backwards) is tuple
        assert ab.replay_events(backwards) == ab.replay_events(stream)
        assert ab.build_input_stream(backwards) == stream

    def test_empty_stream_has_no_duration(self):
        with pytest.raises(ab.EmptySessionError):
            ab.session_duration_s(ab.InputStream())

    @settings(max_examples=300, deadline=None)
    @given(EVENTS, st.sampled_from(["basic", "unit"]), st.booleans())
    def test_parsed_columns_act_as_the_tuple(self, events, granularity, same):
        profile = ab.TechniqueProfile("t", frozenset({"ক্ষ"}),
                                      backspace_granularity=granularity)
        replayed = outcome(ab.replay_events, events, profile)
        text = replayed.text if isinstance(replayed, ab.ReplayResult) else "ক"
        # A presented text that differs from the transcription makes the
        # views align; an empty transcription raises in both.
        record = ab.SessionRecord("s", "t", "p", text if same else text + "ক",
                                  text, tuple(events))
        logging.disable(logging.WARNING)  # out-of-order events are sorted
        try:
            parsed, = ab.parse_session_log(ab.write_session_log([record]))
        finally:
            logging.disable(logging.NOTSET)
        columns = parsed.events
        assert type(columns) is ab.InputStream
        ordered = tuple(sorted(events, key=lambda e: e.t_ms))  # stable
        assert tuple(columns) == ordered and columns == ordered
        assert parsed == dataclasses.replace(record, events=ordered)
        assert hash(parsed) == hash(dataclasses.replace(record, events=ordered))
        for function, args in (
                (ab.build_input_stream, ()), (ab.session_duration_s, ()),
                (ab.replay_events, ()), (ab.replay_events, (profile,))):
            assert (outcome(function, columns, *args)
                    == outcome(function, record.events, *args))
        for view in (ab.analyze_session, ab.naive_metrics):
            assert outcome(view, parsed, profile) == outcome(view, record, profile)


# A payload whose output-stream text differs by table: the built-in table
# drops the ZWNJ and composes ড + nukta, a table that reads ZWNJ as text
# and the nukta as a control keeps ড ZWNJ.
_SPLIT_NUKTA = "\u09a1\u200c\u09bc"


def _tables():
    """Fresh tables, so each test starts with a cold replay memo."""
    builtin = ab.CharTable.from_lines(ab.BENGALI_TABLE.to_lines())
    reclassified = ab.CharTable.from_lines(
        [line for line in ab.BENGALI_TABLE.to_lines() if not line.startswith("09BC ")]
        + ["09BC ZeroWidthControl", "200C Other"])
    return builtin, reclassified


class TestReplayMemo:
    """Replay flattens each distinct payload once per table."""

    def test_each_table_replays_to_its_own_text(self):
        builtin, reclassified = _tables()
        cases = [(ab.TechniqueProfile("t", table=builtin), "\u09dc"),
                 (ab.TechniqueProfile("t", table=reclassified), "\u09a1\u200c")]
        for _ in range(2):  # cold, then warm
            for profile, text in cases + cases[::-1]:
                result = ab.replay_events([ev(0, "char", _SPLIT_NUKTA)], profile)
                assert result.text == text

    def test_distinct_payloads_are_flattened_once(self, monkeypatch):
        calls = []
        flatten = ab.to_output_stream

        def counting(text, table):
            calls.append(text)
            return flatten(text, table)

        monkeypatch.setattr("abugida.streams.to_output_stream", counting)
        profile = ab.TechniqueProfile("t", frozenset({"ক্ষ"}), table=_tables()[0])
        events = [ev(0, "char", "ক"), ev(10, "unit", "ক্ষ"), ev(20, "char", "ক"),
                  ev(30, "bksp"), ev(40, "unit", "ক্ষ")]
        first = ab.replay_events(events, profile)
        assert ab.replay_events(events, profile) == first
        assert sorted(calls) == ["ক", "ক্ষ"]

    def test_zwj_spelled_unit_replays_as_its_unit(self):
        profile = ab.TechniqueProfile("t", frozenset({"র্য"}), backspace_granularity="unit",
                                      table=_tables()[0])
        # The char event splits the same payload into three atoms.
        events = [ev(0, "unit", "র\u200d্য"), ev(10, "char", "র\u200d্য")]
        events += [ev(20 + i, "bksp") for i in range(4)]
        for _ in range(2):  # cold, then warm
            result = ab.replay_events(events, profile)
            assert result.erased == ("য", "্", "র", "র্য")
            assert result.text == ""

    def test_undeclared_unit_fails_on_a_memo_hit(self):
        table = _tables()[0]
        declared = ab.TechniqueProfile("t", frozenset({"ক্ষ"}), table=table)
        undeclared = ab.TechniqueProfile("u", table=table)
        assert ab.replay_events([ev(0, "unit", "ক্ষ")], declared).text == "ক্ষ"
        assert ab.replay_events([ev(0, "char", "ক্ষ")], undeclared).text == "ক্ষ"
        with pytest.raises(ab.UnknownUnitError, match="not declared"):
            ab.replay_events([ev(0, "unit", "ক্ষ")], undeclared)


class TestClassifyKeystrokes:
    """The C / IF / F / INF split, as analyze_session reports it."""

    @staticmethod
    def taxonomy(text, events, profile=None, inf_override=None):
        record = ab.SessionRecord("s", "t", "p", text, text, tuple(events),
                                  inf_override)
        i = ab.analyze_session(record, profile).intermediates
        return i.correct, i.incorrect_fixed, i.fixes, i.inf

    def test_sidebar_taxonomy(self, sidebar_record, sidebar_profile):
        i = ab.analyze_session(sidebar_record, sidebar_profile).intermediates
        assert (i.correct, i.incorrect_fixed, i.fixes, i.inf) == (12, 0, 0, 1)

    def test_error_free_session(self):
        events = [ev(0, "char", "ব"), ev(10, "char", "ই")]
        assert self.taxonomy("বই", events) == (2, 0, 0, 0)

    def test_corrected_error(self):
        # typed ঈ, erased it, typed ই
        events = [ev(0, "char", "ব"), ev(10, "char", "ঈ"),
                  ev(20, "bksp"), ev(30, "char", "ই")]
        assert self.taxonomy("বই", events) == (2, 1, 1, 0)

    def test_unit_erasure_counts_constituents(self, sidebar_profile):
        events = [ev(0, "unit", "ক্ষ"), ev(10, "bksp"), ev(20, "char", "ক")]
        _, incorrect_fixed, fixes, _ = self.taxonomy("ক", events, sidebar_profile)
        assert incorrect_fixed == 3
        assert fixes == 1

    @pytest.mark.parametrize("inf", [0, 1, 5])
    def test_conservation(self, inf):
        events = [ev(i * 10, "char", c) for i, c in enumerate("কখগঘঙ")]
        correct, _, _, inf_out = self.taxonomy("কখগঘঙ", events, inf_override=inf)
        assert inf_out == inf
        assert correct + inf_out == ab.to_output_stream("কখগঘঙ").length
