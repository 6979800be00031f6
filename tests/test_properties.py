"""Property tests for the replay both views share.

A simulated typist types a key plan under a technique profile, with
stray keys that it either corrects with backspace or leaves in place,
omitted keys, and held modifiers.  It keeps its own model of the
editor's atoms, so each session's transcription is known without
calling the replay under test.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import abugida as ab
from abugida.bengali import ZERO_WIDTH_CONTROLS
from abugida.streams import replay_matches

UNITS = ("ক্ষ", "ন্ড", "স্ত")
# Consonants without signs, independent vowels, digits and spaces: every
# grapheme cluster of a text made of these is one codepoint.
SINGLE = ("ক", "খ", "ত", "ষ", "অ", "আ", "১", " ")
MARKS = ("া", "ি", "ে", "্")
CONTROLS = st.sampled_from(sorted(map(chr, ZERO_WIDTH_CONTROLS)))

ACTIONS = ("type",) * 6 + ("omit", "stray-kept", "stray-fixed", "substitute", "mod")
# Every intended key typed: an omitted key, or a shorter one typed in its
# place, can leave INF above |OS_T|, outside the model C + INF = |OS_T|.
IN_MODEL = tuple(a for a in ACTIONS if a not in ("omit", "substitute"))


@st.composite
def typed_sessions(draw, granularity, chars=SINGLE + MARKS, units=UNITS,
                   actions=ACTIONS, strays=None):
    """A session record and the profile it was typed under.

    Stray keys are drawn like planned ones, or from the characters
    ``strays`` when given.
    """
    profile = ab.TechniqueProfile("t", frozenset(UNITS),
                                  backspace_granularity=granularity)
    key = st.tuples(st.just("char"), st.sampled_from(chars))
    if units:
        key = key | st.tuples(st.just("unit"), st.sampled_from(units))
    stray_key = key if strays is None else st.tuples(st.just("char"),
                                                      st.sampled_from(strays))
    plan = draw(st.lists(key, min_size=1, max_size=10))

    events: list[ab.KeyEvent] = []
    atoms: list[str] = []  # the editor model: what one backspace erases
    clock = [0]

    def emit(kind: str, payload: str = "") -> None:
        events.append(ab.KeyEvent(clock[0], kind, payload))
        clock[0] += draw(st.integers(min_value=1, max_value=900))

    def press(kind: str, payload: str) -> None:
        emit(kind, payload)
        if kind == "unit" and granularity == "unit":
            atoms.append(payload)
        else:
            atoms.extend(payload)  # one atom per constituent codepoint

    for intended in plan:
        action = draw(st.sampled_from(actions))
        stray = draw(stray_key)
        if action == "mod":
            emit("mod")
        if action == "stray-kept":
            press(*stray)
        elif action == "stray-fixed":
            before = len(atoms)
            press(*stray)
            while len(atoms) > before:
                emit("bksp")
                atoms.pop()
        if action == "substitute":
            press(*stray)
        elif action != "omit":
            press(*intended)

    presented = ab.normalize("".join(payload for _, payload in plan))
    transcribed = ab.normalize("".join(atoms))
    assume(transcribed and len(events) >= 2)
    record = ab.SessionRecord("typed-1", "t", "p", presented, transcribed,
                              tuple(events))
    return record, profile


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_both_views_accept_typed_sessions(granularity, data):
    record, profile = data.draw(typed_sessions(granularity))
    naive = ab.naive_metrics(record, profile).intermediates
    proposed = ab.analyze_session(record, profile).intermediates
    assert (naive.is_length, naive.seconds, naive.fixes) \
        == (proposed.is_length, proposed.seconds, proposed.fixes)
    # an erased atom never has more clusters than constituents
    assert 0 <= naive.incorrect_fixed <= proposed.incorrect_fixed


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_views_agree_when_every_cluster_is_one_codepoint(granularity, data):
    record, profile = data.draw(
        typed_sessions(granularity, chars=SINGLE, units=()))
    assert ab.naive_metrics(record, profile) == ab.analyze_session(record, profile)


@pytest.mark.parametrize("view", [ab.analyze_session, ab.naive_metrics])
@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_width_controls_change_no_metric(view, granularity, data):
    record, profile = data.draw(typed_sessions(granularity))

    def with_controls(text: str) -> str:
        for control in data.draw(st.lists(CONTROLS, min_size=1, max_size=3)):
            i = data.draw(st.integers(min_value=0, max_value=len(text)))
            text = text[:i] + control + text[i:]
        return text

    changed = dataclasses.replace(record,
                                  presented=with_controls(record.presented),
                                  transcribed=with_controls(record.transcribed))
    assert view(changed, profile) == view(record, profile)


@pytest.mark.parametrize("view", [ab.analyze_session, ab.naive_metrics])
@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_msd_is_bounded_and_zero_only_on_equal_text(view, granularity, data):
    record, profile = data.draw(typed_sessions(granularity))
    m = view(record, profile).intermediates
    assert 0 <= m.msd <= max(m.os_p_length, m.os_t_length)
    assert (m.msd == 0) == (record.presented == record.transcribed)


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_in_model_sessions_have_no_negative_correct(granularity, data):
    """C = |OS_T| - INF is never negative when every intended key is typed."""
    record, profile = data.draw(typed_sessions(granularity, actions=IN_MODEL))
    assert ab.analyze_session(record, profile).intermediates.correct >= 0


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_in_model_sessions_have_no_negative_correct_in_clusters(granularity, data):
    """The same in clusters, when every key is clusters of its own.

    A kept stray sign, or a consonant before a leading virama, joins two
    clusters into one: the transcription can then hold fewer clusters
    than the errors INF counts.  Standalone characters and whole units
    never join, so T's clusters are P's with the strays added.
    """
    record, profile = data.draw(typed_sessions(
        granularity, chars=SINGLE, actions=IN_MODEL, strays=SINGLE))
    assert ab.naive_metrics(record, profile).intermediates.correct >= 0


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@pytest.mark.parametrize("evaluate", [ab.analyze_session, ab.naive_metrics],
                         ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_analyze_accepts_what_validate_log_matches(evaluate, granularity, data):
    """Both views and ``validate-log`` agree on what a session contains."""
    record, profile = data.draw(typed_sessions(granularity))
    replayed = ab.replay_transcription(record.events, profile)
    assert replay_matches(replayed, record.transcribed)
    evaluate(record, profile)

    # One constituent of the transcription becomes গ, which no key types.
    flat = ab.to_output_stream(record.transcribed).text
    i = data.draw(st.integers(min_value=0, max_value=len(flat) - 1))
    changed = dataclasses.replace(
        record, transcribed=ab.normalize(flat[:i] + "গ" + flat[i + 1:]))
    assert not replay_matches(replayed, changed.transcribed)
    with pytest.raises(ab.TranscriptionMismatchError):
        evaluate(changed, profile)
