"""Formula-level and session-level metric behavior."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abugida as ab
from abugida import bengali, metrics
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


class TestBothViewsPrepareOnce:
    """A session scored in one view and then the other is replayed once."""

    def test_the_second_view_reuses_the_replay(self, monkeypatch, sidebar_record,
                                               sidebar_profile):
        calls = []
        replay = metrics.replay_events

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(metrics, "replay_events", counted)
        proposed = ab.analyze_session(sidebar_record, sidebar_profile)
        naive = ab.naive_metrics(sidebar_record, sidebar_profile)
        assert len(calls) == 1
        # The scores of each view alone, on a copy that the memo does not know.
        copy = dataclasses.replace(sidebar_record)
        assert naive == ab.naive_metrics(copy, sidebar_profile)
        assert proposed == ab.analyze_session(copy, sidebar_profile)
        assert len(calls) == 2

    def test_the_glyph_view_cuts_the_prepared_streams(self, monkeypatch, sidebar_record,
                                                      sidebar_profile):
        flattened = []
        for module in (bengali, metrics):
            flatten = module.to_output_stream

            def counted(text, *rest, flatten=flatten):
                flattened.append(text)
                return flatten(text, *rest)

            monkeypatch.setattr(module, "to_output_stream", counted)
        rec = dataclasses.replace(sidebar_record)
        ab.analyze_session(rec, sidebar_profile)
        assert {sidebar_record.presented, sidebar_record.transcribed} <= set(flattened)
        flattened.clear()
        ab.naive_metrics(rec, sidebar_profile)
        assert flattened == []

    def test_another_profile_is_prepared_again(self, sidebar_profile):
        # A unit that the permissive replay accepts and the profile does not.
        rec = record("কখ", "কখ", [ev(0, "unit", "কখ"), ev(500, "mod")],
                     session_id="u1")
        ab.analyze_session(rec, None)
        with pytest.raises(ab.UnknownUnitError) as info:
            ab.naive_metrics(rec, sidebar_profile)
        assert info.value.session_id == "u1"

    def test_a_failing_session_fails_in_both_views(self):
        rec = record("কখ", "কখ", clean_events("ক"), session_id="tampered-3")
        for view in (ab.analyze_session, ab.naive_metrics):
            with pytest.raises(ab.TranscriptionMismatchError) as info:
                view(rec, None)
            assert info.value.session_id == "tampered-3"

    def test_the_memo_does_not_keep_the_record(self, sidebar_record, sidebar_profile):
        rec = dataclasses.replace(sidebar_record)
        alive = weakref.ref(rec)
        ab.analyze_session(rec, sidebar_profile)
        del rec
        gc.collect()
        assert alive() is None


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
        with pytest.raises(ab.EmptyGroupError):
            ab.aggregate(ab.MetricColumns())

    def test_folding_returns_nothing_and_keeps_one_column_per_metric(self):
        columns = ab.MetricColumns()
        assert ab.aggregate([], into=columns) is None
        rows = [self._metrics("t", 6.0, 1), self._metrics("u", 2.0, 2),
                self._metrics("t", 8.0, 3)]
        assert ab.aggregate(rows, into=columns) is None
        assert list(columns) == ["t", "u"]
        assert [list(columns["t"][k::5]) for k in range(5)] == [
            [6.0, 8.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert ab.aggregate(columns) == ab.aggregate(rows)

    def test_scores_have_slots_and_keep_repr_and_equality(self):
        m = self._metrics("t", 6.0)
        assert not hasattr(m, "__dict__")
        assert not hasattr(m.intermediates, "__dict__")
        assert m == self._metrics("t", 6.0) != self._metrics("t", 7.0)
        assert repr(m) == (
            "SessionMetrics(session_id='s-t-x', technique_id='t', "
            "participant_id='p', wpm_bn=6.0, kspc_bn=1.0, er_bn=0.0, "
            "msder_bn=0.0, total_error_rate=0.0, intermediates="
            "SessionIntermediates(is_length=10, os_p_length=10, os_t_length=10, "
            "inf=0, msd=0.0, seconds=10.0, correct=10, incorrect_fixed=0, "
            "fixes=0))")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.wpm_bn = 1.0


# Zero, the subnormals, the largest magnitudes that cannot overflow a sum of
# a few dozen, and anything between.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     1e300, -1e300, 1.0, 0.1]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_wise_means_equal_one_list_bit_for_bit(data):
    techniques = data.draw(st.lists(st.sampled_from(["a", "b", "c"]),
                                    min_size=1, max_size=40))
    intermediates = ab.SessionIntermediates(1, 1, 1, 0, 0.0, 1.0, 1, 0, 0)
    rows = [ab.SessionMetrics(f"s{n}", t, "p",
                              *data.draw(st.tuples(*[_VALUES] * 5)), intermediates)
            for n, t in enumerate(techniques)]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=8)))
    columns = ab.MetricColumns()
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        ab.aggregate(rows[lo:hi], into=columns)

    def bits(summaries):
        return [(s.technique_id, s.n_sessions,
                 [s.means[m].hex() for m in ab.METRIC_FIELDS]) for s in summaries]

    whole = bits(ab.aggregate(rows))
    assert bits(ab.aggregate(columns)) == whole
    # The sum of one list of each technique's values, as it was taken
    # before the columns.
    assert whole == [
        (t, len(group), [(math.fsum(getattr(r, m) for r in group) / len(group)).hex()
                         for m in ab.METRIC_FIELDS])
        for t in sorted(set(techniques))
        for group in [[r for r in rows if r.technique_id == t]]]


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
