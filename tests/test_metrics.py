"""Formula-level and session-level metric behavior."""

from __future__ import annotations

import dataclasses
import math

import pytest

import abugida as ab
from conftest import PRESENTED, TRANSCRIBED


def ev(t, kind, payload=""):
    return ab.KeyEvent(t, kind, payload)


def record(presented, transcribed, events, session_id="s", technique_id="t",
           participant_id="p", inf_override=None):
    return ab.SessionRecord(session_id, technique_id, participant_id,
                            presented, transcribed, tuple(events), inf_override)


def clean_events(text, dt=500):
    return [ev(i * dt, "char", c) for i, c in enumerate(text)]


class TestWpm:
    def test_sidebar(self):
        assert ab.wpm_bn(13, 20.0) == pytest.approx(7.045009784735812)

    def test_worked_value(self):
        assert ab.wpm_bn(21, 30.0) == pytest.approx(7.828, abs=1e-3)

    def test_single_character_scores_zero(self):
        assert ab.wpm_bn(1, 20.0) == 0.0
        assert ab.wpm_bn(1, 0.0) == 0.0

    def test_zero_duration_rejected_beyond_one_char(self):
        with pytest.raises(ab.ZeroDurationError):
            ab.wpm_bn(5, 0.0)

    def test_empty_transcription_rejected(self):
        with pytest.raises(ab.EmptyTranscriptionError):
            ab.wpm_bn(0, 20.0)

    def test_halves_when_duration_doubles(self):
        assert ab.wpm_bn(13, 40.0) == pytest.approx(ab.wpm_bn(13, 20.0) / 2)

    def test_inverse_in_word_length(self):
        assert ab.wpm_bn(13, 20.0, 10.22) == pytest.approx(ab.wpm_bn(13, 20.0) / 2)

    @pytest.mark.parametrize("word_length", [0.0, -1.0, math.nan, math.inf])
    def test_bad_word_length(self, word_length):
        with pytest.raises(ValueError):
            ab.wpm_bn(13, 20.0, word_length)


class TestKspc:
    def test_sidebar(self):
        assert ab.kspc_bn(12, 13) == pytest.approx(0.9230769230769231)

    def test_one_for_clean_per_char_entry(self):
        assert ab.kspc_bn(7, 7) == 1.0

    def test_above_one_with_corrections(self):
        assert ab.kspc_bn(3, 2) == 1.5

    def test_empty_denominator(self):
        with pytest.raises(ab.EmptyTranscriptionError):
            ab.kspc_bn(5, 0)

    def test_empty_input_stream(self):
        with pytest.raises(ab.EmptySessionError):
            ab.kspc_bn(0, 5)


class TestEr:
    def test_sidebar(self):
        assert ab.er_bn(1, 13) == pytest.approx(7.6923076923076925)

    def test_worked_value(self):
        assert ab.er_bn(3, 12) == 25.0

    def test_zero_errors(self):
        assert ab.er_bn(0, 9) == 0.0

    def test_empty_denominator(self):
        with pytest.raises(ab.EmptyTranscriptionError):
            ab.er_bn(1, 0)


class TestMsder:
    def test_sidebar(self):
        assert ab.msder_bn(1.0, 14, 13) == pytest.approx(7.142857142857142)

    def test_fractional_distance(self):
        assert ab.msder_bn(0.25, 10, 10) == 2.5

    def test_uses_longer_stream(self):
        assert ab.msder_bn(1.0, 4, 10) == 10.0
        assert ab.msder_bn(1.0, 10, 4) == 10.0

    def test_both_empty_rejected(self):
        with pytest.raises(ab.EmptyStreamsError):
            ab.msder_bn(0.0, 0, 0)


class TestTotalErrorRate:
    def test_sidebar(self):
        assert ab.total_error_rate(12, 1, 0) == pytest.approx(7.6923076923076925)

    def test_worked_value(self):
        assert ab.total_error_rate(8, 1, 1) == 20.0

    def test_perfect(self):
        assert ab.total_error_rate(10, 0, 0) == 0.0

    def test_empty(self):
        with pytest.raises(ab.EmptyStreamsError):
            ab.total_error_rate(0, 0, 0)


class TestAnalyzeSession:
    def test_sidebar_end_to_end(self, sidebar_record, sidebar_profile):
        m = ab.analyze_session(sidebar_record, sidebar_profile)
        assert m.wpm_bn == pytest.approx(7.045009784735812)
        assert m.kspc_bn == pytest.approx(0.9230769230769231)
        assert m.er_bn == pytest.approx(7.6923076923076925)
        assert m.msder_bn == pytest.approx(7.142857142857142)
        assert m.total_error_rate == pytest.approx(7.6923076923076925)
        i = m.intermediates
        assert (i.is_length, i.os_p_length, i.os_t_length) == (12, 14, 13)
        assert (i.inf, i.msd, i.seconds) == (1, 1.0, 20.0)
        assert (i.correct, i.incorrect_fixed, i.fixes) == (12, 0, 0)

    def test_perfect_session(self):
        rec = record("বই", "বই", clean_events("বই"))
        m = ab.analyze_session(rec, None)
        assert m.er_bn == 0.0
        assert m.msder_bn == 0.0
        assert m.total_error_rate == 0.0
        assert m.kspc_bn == 1.0

    def test_corrected_session(self):
        events = [ev(0, "char", "ব"), ev(500, "char", "ঈ"),
                  ev(1000, "bksp"), ev(1500, "char", "ই")]
        m = ab.analyze_session(record("বই", "বই", events), None)
        assert m.kspc_bn == 2.0
        assert m.er_bn == 0.0
        assert m.total_error_rate == pytest.approx(100 / 3)

    def test_inf_override(self, sidebar_record, sidebar_profile):
        rec = record(PRESENTED, TRANSCRIBED, sidebar_record.events,
                     technique_id="conjunct-key", inf_override=0)
        m = ab.analyze_session(rec, sidebar_profile)
        assert m.er_bn == 0.0
        assert m.total_error_rate == 0.0
        assert m.msder_bn == pytest.approx(7.142857142857142)  # distance unchanged

    @pytest.mark.parametrize("evaluate", [ab.analyze_session, ab.naive_metrics])
    def test_inf_override_is_bounded_by_constituents(self, evaluate):
        # ক্ষ is three constituents and one cluster: both views take up to 3.
        events = clean_events("ক্ষ")
        assert evaluate(record("ক্ষ", "ক্ষ", events, inf_override=3),
                        None).intermediates.inf == 3
        with pytest.raises(ab.ParseError) as info:
            evaluate(record("ক্ষ", "ক্ষ", events, session_id="over-1",
                            inf_override=4), None)
        assert info.value.session_id == "over-1"
        assert str(info.value) == ("session over-1: field 'inf_override': 4 "
                                   "exceeds the 3 constituents of the transcription")

    def test_errors_carry_session_id(self):
        rec = record("বই", "", clean_events("বই"), session_id="broken-1")
        with pytest.raises(ab.EmptyTranscriptionError, match="broken-1"):
            ab.analyze_session(rec, None)

    @pytest.mark.parametrize("evaluate", [ab.analyze_session, ab.naive_metrics])
    def test_error_message_opens_with_session_id(self, evaluate):
        rec = record("বই", "", clean_events("বই"), session_id="broken-1")
        with pytest.raises(ab.EmptyTranscriptionError) as info:
            evaluate(rec, None)
        assert str(info.value) == "session broken-1: transcribed text is empty"
        assert info.value.session_id == "broken-1"

    def test_replay_errors_carry_session_id(self):
        events = [ev(0, "char", "ব"), ev(500, "edit")]
        rec = record("বই", "ব", events, session_id="cursor-1")
        with pytest.raises(ab.UnsupportedKeyError, match="cursor-1"):
            ab.analyze_session(rec, None)

    def test_events_must_replay_to_transcription(self, sidebar_record,
                                                 sidebar_profile):
        # the events omit the ি of অতিথি, but the log claims they did not
        rec = record(PRESENTED, PRESENTED, sidebar_record.events,
                     session_id="tampered-1")
        with pytest.raises(ab.TranscriptionMismatchError,
                           match="tampered-1") as info:
            ab.analyze_session(rec, sidebar_profile)
        assert info.value.session_id == "tampered-1"
        assert repr(TRANSCRIBED) in str(info.value)


class TestProfileCarriesItsTable:
    """The profile's table flattens the units and the session alike.

    ZWNJ is a dropped control under the built-in table and text under
    this one, so unit ক ZWNJ ষ has three constituents only under it.
    """

    ZWNJ_OTHER = ab.CharTable.from_lines(
        [*ab.BENGALI_TABLE.to_lines(), "200C Other"])
    UNIT = "ক\u200cষ"

    def profile(self):
        return ab.TechniqueProfile("t", frozenset({self.UNIT}),
                                   table=self.ZWNJ_OTHER)

    def test_session_is_flattened_under_the_profile_table(self):
        rec = record("র", self.UNIT + "র",
                     [ev(0, "unit", self.UNIT), ev(500, "char", "র")])
        result = ab.analyze_session(rec, self.profile())
        assert result.intermediates.msd == pytest.approx(1 / 3)  # one unit
        assert result.intermediates.os_t_length == 4

    def test_replay_flattens_under_the_profile_table(self):
        events = [ev(0, "unit", self.UNIT), ev(500, "bksp"), ev(900, "bksp")]
        assert ab.replay_events(events, self.profile()).erased == ("ষ", "\u200c")
        assert ab.replay_events(events).erased == ("ষ", "ক")

    def test_replace_keeps_the_table(self):
        changed = dataclasses.replace(self.profile(), technique_id="u")
        assert [len(s) for s in changed.unit_seqs] == [3]
        assert changed.table is self.ZWNJ_OTHER


class TestNaiveMetrics:
    def test_sidebar_cluster_counts(self, sidebar_record, sidebar_profile):
        m = ab.naive_metrics(sidebar_record, sidebar_profile)
        i = m.intermediates
        # 8 clusters on both sides instead of 14 and 13 constituents
        assert (i.os_p_length, i.os_t_length) == (8, 8)
        assert i.inf == 1 and i.msd == 1.0
        assert m.wpm_bn == pytest.approx((8 - 1) / 20.0 * 60.0 / 5.11)
        assert m.kspc_bn == pytest.approx(12 / 8)
        assert m.er_bn == pytest.approx(12.5)
        assert m.msder_bn == pytest.approx(12.5)

    def test_agrees_with_constituents_when_no_marks(self):
        rec = record("বই", "বই", clean_events("বই"))
        assert ab.naive_metrics(rec, None) == ab.analyze_session(rec, None)

    def test_single_cluster_substitution_hides_width(self):
        # ব্ৰ and ব্র differ in one of three constituents, but the naive
        # view sees one cluster replacing one cluster
        events = clean_events("ব্ৰ")
        rec = record("ব্র", "ব্ৰ", events)
        naive = ab.naive_metrics(rec, None)
        proposed = ab.analyze_session(rec, None)
        assert naive.intermediates.os_t_length == 1
        assert proposed.intermediates.os_t_length == 3
        assert naive.intermediates.msd == 1.0
        assert proposed.intermediates.msd == 1.0
        assert naive.msder_bn == 100.0
        assert proposed.msder_bn == pytest.approx(100 / 3)

    def test_erased_material_counted_in_clusters(self):
        # erase the whole conjunct cluster ন্ড: 3 constituents, 1 cluster
        events = (clean_events("কান্ড")
                  + [ev(3000, "bksp"), ev(3200, "bksp"), ev(3400, "bksp")])
        rec = record("কা", "কা", events)
        naive = ab.naive_metrics(rec, None)
        proposed = ab.analyze_session(rec, None)
        assert proposed.intermediates.incorrect_fixed == 3
        assert naive.intermediates.incorrect_fixed == 3  # erased one at a time
        assert naive.intermediates.fixes == proposed.intermediates.fixes == 3

    def test_replays_by_the_technique_profile(self, sidebar_profile):
        # one backspace erases the whole unit ক্ষ: 1 cluster, 3 constituents
        events = [ev(0, "unit", "ক্ষ"), ev(500, "bksp"), ev(1000, "char", "ক")]
        rec = record("ক", "ক", events)
        naive = ab.naive_metrics(rec, sidebar_profile).intermediates
        proposed = ab.analyze_session(rec, sidebar_profile).intermediates
        assert (naive.fixes, naive.incorrect_fixed) == (1, 1)
        assert (proposed.fixes, proposed.incorrect_fixed) == (1, 3)

    def test_multi_cluster_unit_counts_every_cluster(self):
        # কান্ড is one unit of 5 constituents in 2 clusters (কা, ন্ড)
        profile = ab.TechniqueProfile("t", frozenset({"কান্ড"}),
                                      backspace_granularity="unit")
        events = [ev(0, "unit", "কান্ড"), ev(500, "bksp"), ev(1000, "char", "ক")]
        rec = record("ক", "ক", events)
        naive = ab.naive_metrics(rec, profile).intermediates
        proposed = ab.analyze_session(rec, profile).intermediates
        assert (naive.fixes, naive.incorrect_fixed) == (1, 2)
        assert (proposed.fixes, proposed.incorrect_fixed) == (1, 5)

    @pytest.mark.parametrize("presented, transcribed", [
        ("ক্ষা", "ক্\u200cষা"),  # ZWNJ in the transcription
        ("ক্ষা", "ক্\u200dষা"),  # ZWJ in the transcription
        ("ক্\u200cষা", "ক্ষা"),  # a control in the presented text
    ])
    def test_zero_width_controls_are_no_clusters(self, presented, transcribed):
        events = clean_events("ক্ষা")
        plain = ab.naive_metrics(record("ক্ষা", "ক্ষা", events), None)
        assert plain.intermediates.os_t_length == 1
        assert plain.er_bn == plain.msder_bn == 0.0
        assert ab.naive_metrics(record(presented, transcribed, events), None) == plain

    def test_events_must_replay_to_transcription(self):
        rec = record("কখ", "কখ", clean_events("ক"), session_id="tampered-2")
        with pytest.raises(ab.TranscriptionMismatchError,
                           match="tampered-2") as info:
            ab.naive_metrics(rec, None)
        assert info.value.session_id == "tampered-2"


class TestAggregate:
    def _metrics(self, technique, wpm, n="x"):
        i = ab.SessionIntermediates(10, 10, 10, 0, 0.0, 10.0, 10, 0, 0)
        return ab.SessionMetrics(f"s-{technique}-{n}", technique, "p",
                                 wpm, 1.0, 0.0, 0.0, 0.0, i)

    def test_mean(self):
        rows = [self._metrics("t", 6.0, 1), self._metrics("t", 8.0, 2)]
        summary, = ab.aggregate(rows)
        assert summary.means["wpm_bn"] == pytest.approx(7.0)
        assert summary.n_sessions == 2

    def test_lexicographic_technique_order(self):
        rows = [self._metrics("zebra", 1.0), self._metrics("alpha", 2.0)]
        assert [s.technique_id for s in ab.aggregate(rows)] == ["alpha", "zebra"]

    def test_permutation_invariant(self):
        rows = [self._metrics("t", w, i) for i, w in enumerate([3.1, 4.7, 2.9, 8.3])]
        assert ab.aggregate(rows) == ab.aggregate(list(reversed(rows)))

    def test_empty_rejected(self):
        with pytest.raises(ab.EmptyGroupError):
            ab.aggregate([])


class TestMetricConfig:
    def test_cost_mode_coercion(self):
        assert ab.MetricConfig(msd_cost_mode="normalized").msd_cost_mode \
            is ab.CostMode.NORMALIZED_UNIT

    def test_cost_mode_not_a_mode_rejected(self):
        with pytest.raises(ValueError):
            ab.MetricConfig(msd_cost_mode=1)

    @pytest.mark.parametrize("word_length", [0.0, -1.0, math.nan, math.inf])
    def test_bad_word_length(self, word_length):
        with pytest.raises(ValueError):
            ab.MetricConfig(word_length_chars=word_length)
