"""Session-level performance metrics over constituent-character streams.

All four headline measures are classic text-entry metrics re-based onto
the flattened output stream, so techniques that commit conjuncts or
whole glyph units in one action are compared fairly with per-character
keyboards:

* ``wpm_bn``   words per minute, (|OS_T| - 1) / S * 60 / word_length
* ``kspc_bn``  keystrokes per character, |IS| / |OS_T|
* ``er_bn``    uncorrected error rate, INF / |OS_T| * 100
* ``msder_bn`` MSD error rate, MSD / max(|OS_P|, |OS_T|) * 100

plus the combined total error rate (INF + IF) / (C + INF + IF) * 100.
The default word length of 5.11 constituent characters comes from a
Bengali corpus average; pass your own for a different corpus (see the
``corpus-stats`` command).

``naive_metrics`` runs the same pipeline and replay over grapheme
clusters instead of constituents, reproducing the older convention for
side-by-side comparison.  The clusters are cut from the same output
stream, so zero-width controls count in neither view.  On conjunct-free
text the two agree exactly; conjuncts pull the naive lengths down and
distort rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .bengali import BENGALI_TABLE, segment_graphemes, to_output_stream
from .errors import (
    AbugidaError,
    EmptyGroupError,
    EmptySessionError,
    EmptyStreamsError,
    EmptyTranscriptionError,
    ParseError,
    TranscriptionMismatchError,
    ZeroDurationError,
)
from .msd import CostMode, CostModel, TechniqueProfile, align_symbols, msd
from .streams import (build_input_stream, replay_events, replay_matches,
                      session_duration_s)

if TYPE_CHECKING:
    from .sessionio import SessionRecord

__all__ = [
    "DEFAULT_WORD_LENGTH_CHARS",
    "METRIC_FIELDS",
    "RATE_FIELDS",
    "MetricConfig",
    "SessionIntermediates",
    "SessionMetrics",
    "TechniqueSummary",
    "wpm_bn",
    "kspc_bn",
    "er_bn",
    "msder_bn",
    "total_error_rate",
    "analyze_session",
    "naive_metrics",
    "aggregate",
]

# Average Bengali word length in constituent characters.
DEFAULT_WORD_LENGTH_CHARS = 5.11

# Field order is the canonical column order of every report.
METRIC_FIELDS = ("wpm_bn", "kspc_bn", "er_bn", "msder_bn", "total_error_rate")

# Metrics that are percentages (get a % suffix in CSV output).
RATE_FIELDS = frozenset({"er_bn", "msder_bn", "total_error_rate"})


@dataclass(frozen=True)
class MetricConfig:
    """Knobs shared by every metric computation.

    The classification table is not one of them: it comes with the
    technique profile (``profile.table``), or is ``BENGALI_TABLE``
    without one.
    """

    word_length_chars: float = DEFAULT_WORD_LENGTH_CHARS
    msd_cost_mode: CostMode = CostMode.PAPER_LITERAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "msd_cost_mode", CostMode(self.msd_cost_mode))
        if not (math.isfinite(self.word_length_chars) and self.word_length_chars > 0):
            raise ValueError("word length must be finite and positive")


@dataclass(frozen=True)
class SessionIntermediates:
    """Audit trail of the quantities the metrics were computed from.

    From :func:`naive_metrics` the stream lengths, INF, MSD and IF are
    measured in grapheme clusters of the output stream rather than in
    its constituent characters.
    """

    is_length: int
    os_p_length: int
    os_t_length: int
    inf: int
    msd: float
    seconds: float
    correct: int
    incorrect_fixed: int
    fixes: int


@dataclass(frozen=True)
class SessionMetrics:
    session_id: str
    technique_id: str
    participant_id: str
    wpm_bn: float
    kspc_bn: float
    er_bn: float
    msder_bn: float
    total_error_rate: float
    intermediates: SessionIntermediates


@dataclass(frozen=True)
class TechniqueSummary:
    """Per-technique mean of each metric."""

    technique_id: str
    n_sessions: int
    means: dict[str, float]


def wpm_bn(os_t_length: int, seconds: float,
           word_length_chars: float = DEFAULT_WORD_LENGTH_CHARS) -> float:
    """Words per minute over the transcribed stream.

    The -1 discounts the first character, before which no timed entry
    has happened.  A one-character transcription therefore scores 0
    regardless of duration.
    """
    if not (math.isfinite(word_length_chars) and word_length_chars > 0):
        raise ValueError("word length must be finite and positive")
    if os_t_length <= 0:
        raise EmptyTranscriptionError("transcribed stream is empty")
    if os_t_length == 1:
        return 0.0
    if seconds <= 0:
        raise ZeroDurationError("text entered in zero elapsed time")
    return (os_t_length - 1) / seconds * 60.0 / word_length_chars


def kspc_bn(is_length: int, os_t_length: int) -> float:
    """Keystrokes per constituent character: |IS| / |OS_T|.

    Below 1.0 only when whole-unit keys commit several characters at
    once; above 1.0 whenever correction inflates the input stream.
    """
    if os_t_length <= 0:
        raise EmptyTranscriptionError("transcribed stream is empty")
    if is_length <= 0:
        raise EmptySessionError("input stream is empty")
    return is_length / os_t_length


def er_bn(inf: int, os_t_length: int) -> float:
    """Uncorrected error rate: INF / |OS_T| * 100."""
    if os_t_length <= 0:
        raise EmptyTranscriptionError("transcribed stream is empty")
    if inf < 0:
        raise ValueError("INF cannot be negative")
    return inf / os_t_length * 100.0


def msder_bn(msd_value: float, os_p_length: int, os_t_length: int) -> float:
    """MSD error rate: MSD / max(|OS_P|, |OS_T|) * 100."""
    longest = max(os_p_length, os_t_length)
    if longest <= 0:
        raise EmptyStreamsError("both streams are empty")
    if msd_value < 0:
        raise ValueError("distance cannot be negative")
    return msd_value / longest * 100.0


def total_error_rate(correct: int, incorrect_not_fixed: int,
                     incorrect_fixed: int) -> float:
    """Combined error rate: (INF + IF) / (C + INF + IF) * 100."""
    denom = correct + incorrect_not_fixed + incorrect_fixed
    if denom <= 0:
        raise EmptyStreamsError("no classified characters")
    return (incorrect_not_fixed + incorrect_fixed) / denom * 100.0


def _evaluate(session: "SessionRecord",
              profile: TechniqueProfile | None,
              config: MetricConfig,
              naive: bool) -> SessionMetrics:
    table = BENGALI_TABLE if profile is None else profile.table
    cost = CostModel(config.msd_cost_mode)

    # The view's symbols: grapheme clusters aligned without unit costs, or
    # the output stream's constituents.  Erased atoms are counted in them too.
    if naive:
        symbols = lambda text: tuple(c.text for c in segment_graphemes(text, table))
        align = lambda t, p: align_symbols(t, p, None, None, cost, script=False)
    else:
        symbols = lambda text: to_output_stream(text, table)
        align = lambda t, p: msd(t, p, profile, cost, script=False)
    # Most transcriptions equal their presented text (1109 of the 2000 in the
    # benchmark's study log); those are flattened or cut once.
    sym_p = symbols(session.presented)
    sym_t = (sym_p if session.transcribed == session.presented
             else symbols(session.transcribed))
    p_len, t_len = len(sym_p), len(sym_t)
    alignment = align(sym_t, sym_p)
    if t_len == 0:
        raise EmptyTranscriptionError("transcribed text is empty")

    stream = build_input_stream(session.events)
    seconds = session_duration_s(stream)

    # Both views and validate-log decide the match by the same predicate.
    replay = replay_events(stream, profile)
    if not replay_matches(replay.text, session.transcribed, table):
        raise TranscriptionMismatchError(
            f"events replay to {replay.text!r}, log says "
            f"{session.transcribed!r}")
    # An override above the constituent |OS_T| would make C negative.  Both
    # views bound it by that count, so they accept the same sessions.
    inf = alignment.inf
    if session.inf_override is not None:
        inf = session.inf_override
        if inf > len(replay.text):
            raise ParseError(f"{inf} exceeds the {len(replay.text)} constituents "
                             "of the transcription", field="inf_override")
    # An atom of one codepoint is output-stream text, so it is one symbol in
    # either view; only unit atoms are split.
    incorrect_fixed = sum(len(symbols(atom)) if len(atom) > 1 else 1
                          for atom in replay.erased)
    fixes = len(replay.erased)  # one atom per backspace; edit keys fail replay
    # C is defined by the conservation law C + INF = |OS_T|.
    correct = t_len - inf

    return SessionMetrics(
        session_id=session.session_id,
        technique_id=session.technique_id,
        participant_id=session.participant_id,
        wpm_bn=wpm_bn(t_len, seconds, config.word_length_chars),
        kspc_bn=kspc_bn(len(stream), t_len),
        er_bn=er_bn(inf, t_len),
        msder_bn=msder_bn(alignment.distance, p_len, t_len),
        total_error_rate=total_error_rate(correct, inf, incorrect_fixed),
        intermediates=SessionIntermediates(
            is_length=len(stream),
            os_p_length=p_len,
            os_t_length=t_len,
            inf=inf,
            msd=alignment.distance,
            seconds=seconds,
            correct=correct,
            incorrect_fixed=incorrect_fixed,
            fixes=fixes,
        ),
    )


def analyze_session(session: "SessionRecord",
                    profile: TechniqueProfile | None,
                    config: MetricConfig = MetricConfig()) -> SessionMetrics:
    """Compute every metric for one session under one technique profile.

    Honors ``session.inf_override`` when present; otherwise INF comes
    from the alignment.  An override above |OS_T| raises
    :class:`ParseError`.  Raises :class:`TranscriptionMismatchError` when
    the events do not replay to ``session.transcribed``.  Errors raised
    by any stage propagate with the session id set as their
    ``session_id``, which their message then opens with.
    """
    try:
        return _evaluate(session, profile, config, naive=False)
    except AbugidaError as err:
        err.session_id = session.session_id
        raise


def naive_metrics(session: "SessionRecord",
                  profile: TechniqueProfile | None,
                  config: MetricConfig = MetricConfig()) -> SessionMetrics:
    """The same pipeline and replay with grapheme clusters as the unit.

    ``session.inf_override`` is bounded as in :func:`analyze_session`, by
    the constituent |OS_T|, so both views accept the same sessions.
    """
    try:
        return _evaluate(session, profile, config, naive=True)
    except AbugidaError as err:
        err.session_id = session.session_id
        raise


def aggregate(results: Sequence[SessionMetrics]) -> list[TechniqueSummary]:
    """Group sessions by technique and summarize each metric.

    Means use every session in the group.  ``math.fsum`` rounds the sum
    correctly, so the result is identical under any permutation of the
    input, and techniques come out in lexicographic order.
    """
    if not results:
        raise EmptyGroupError("no sessions to aggregate")
    groups: dict[str, list[SessionMetrics]] = {}
    for r in results:
        groups.setdefault(r.technique_id, []).append(r)
    out: list[TechniqueSummary] = []
    for technique_id in sorted(groups):
        rows = groups[technique_id]
        means = {metric: math.fsum(getattr(r, metric) for r in rows) / len(rows)
                 for metric in METRIC_FIELDS}
        out.append(TechniqueSummary(technique_id, len(rows), means))
    return out
