"""Command line interface.

Subcommands: analyze, decompose, msd, corpus-stats, compare-naive,
validate-log.  Data goes to stdout (or --out); warnings and errors go
to stderr only.  Exit codes: 0 success, 1 unreadable or malformed
inputs, 2 unresolved technique profiles, 3 validate-log found sessions
that do not replay to their stored transcription.

The log commands (analyze, compare-naive, validate-log) read the log in
64 KiB blocks and score each block's sessions before reading the next,
so they hold one block's records, never the parsed log.  A block's
scores are added to running columns of metric values, from which the
means come (``metrics.MetricColumns``), and then let go of; only
``analyze --per-session`` keeps each score, until its row is written.
Their errors come in the order of parsing the whole log first: a
malformed line anywhere, then a log with no sessions, then every
technique without a profile, then the first failing session in log
order.

Set ABUGIDA_TABLE to a classification table file to override the
built-in Bengali table for every command.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from collections import deque
from typing import BinaryIO, Callable, Iterator, Sequence

from .bengali import BENGALI_TABLE, CharTable, segment_graphemes, to_output_stream
from .errors import AbugidaError
from .metrics import (
    DEFAULT_WORD_LENGTH_CHARS,
    MetricColumns,
    MetricConfig,
    SessionMetrics,
    aggregate,
    analyze_session,
    naive_metrics,
)
from .msd import CostModel, TechniqueProfile, msd
from .sessionio import (
    LogState,
    SessionRecord,
    _whole_lines,
    corpus_totals,
    load_phrase_set,
    load_table_file,
    parse_session_log,
    parse_technique_profile,
    write_analysis_report,
    write_compare_report,
)
from .streams import replay_matches, replay_transcription

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROFILES = 2
EXIT_MISMATCH = 3


class _Exit(Exception):
    """Ends a command with an exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _emit(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is not None:
        buffer.write(data)
        buffer.flush()
    else:  # captured streams in tests may be text-only
        sys.stdout.write(data.decode("utf-8"))


def _text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _load_table() -> CharTable:
    path = os.environ.get("ABUGIDA_TABLE")
    if not path:
        return BENGALI_TABLE
    try:
        return load_table_file(path)
    except (AbugidaError, OSError) as err:
        raise _Exit(EXIT_INPUT, f"ABUGIDA_TABLE: {err}") from err


def _read_profile(path: str, table: CharTable) -> TechniqueProfile:
    """Parse one profile file; every failure exits 2, naming the file."""
    try:
        return parse_technique_profile(_read_file(path), table)
    except OSError as err:  # its message names the file
        raise _Exit(EXIT_PROFILES, str(err)) from err
    except AbugidaError as err:
        raise _Exit(EXIT_PROFILES, f"{path}: {err}") from err


def _profile_paths(path: str) -> list[str]:
    """``path``, or every *.json in it if it is a directory.

    Every failure exits 2, naming the directory.
    """
    if not os.path.isdir(path):
        return [path]
    try:
        names = sorted(os.listdir(path))
    except OSError as err:
        raise _Exit(EXIT_PROFILES, str(err)) from err
    paths = [os.path.join(path, n) for n in names if n.endswith(".json")]
    if not paths:
        raise _Exit(EXIT_PROFILES, f"{path}: no profile files")
    return paths


def _load_profiles(path: str, table: CharTable) -> dict[str, TechniqueProfile]:
    """Load one profile file or every *.json in a directory.

    Every failure exits 2, naming the file or directory at fault.
    """
    profiles: dict[str, TechniqueProfile] = {}
    for where in _profile_paths(path):
        profile = _read_profile(where, table)
        if profile.technique_id in profiles:
            raise _Exit(EXIT_PROFILES, f"{where}: duplicate profile for "
                        f"technique {profile.technique_id!r}")
        profiles[profile.technique_id] = profile
    return profiles


# The log is read in blocks of this many bytes, never whole.
_BLOCK_BYTES = 1 << 16


def _log_blocks(fh: BinaryIO, size: int = _BLOCK_BYTES) -> Iterator[bytearray]:
    """The log in ``fh`` as blocks of whole lines, in order.

    Each read of ``size`` bytes is cut after its last line end, as
    :func:`sessionio._whole_lines` finds it; the bytes after the cut open
    the next block, and the last block holds the rest of the file.  A
    line longer than ``size`` waits in the buffer until it ends.  Every
    block is the same buffer, refilled once the previous one is parsed.
    """
    lines = bytearray()
    while block := fh.read(size):
        cut = _whole_lines(block)
        if not cut:  # the line goes on
            lines += block
            continue
        lines += memoryview(block)[:cut]
        block = block[cut:]  # only the next block's start is kept meanwhile
        yield lines
        lines[:] = block
    if lines:
        yield lines


def _score_log(args: argparse.Namespace, table: CharTable,
               score: Callable[[list[SessionRecord], dict[str, TechniqueProfile]],
                               object]) -> None:
    """Read a log command's log a block at a time, scoring as it is read.

    ``score(records, profiles)`` gets each block's records, in log order,
    before the next block is read, so a command holds one block's records
    and its scores, never the parsed log.  Once a technique has no
    profile, or ``score`` raises an :class:`AbugidaError`, no later block
    is scored, but the log is still read to its end.  The errors then
    come in the order they would if every line were parsed before any
    session was scored: a malformed line anywhere (exit 1), a log with no
    sessions (exit 1), every technique that has no profile (exit 2), and
    only then the first error that scoring raised.
    """
    profiles = _load_profiles(args.profiles, table)
    state = LogState()
    sessions = 0
    missing: set[str] = set()
    failure: AbugidaError | None = None
    with open(args.log, "rb") as fh:
        for block in _log_blocks(fh):
            records = parse_session_log(block, table, state=state)
            sessions += len(records)
            missing |= {r.technique_id for r in records} - profiles.keys()
            if missing or failure is not None:
                continue
            try:
                score(records, profiles)
            except AbugidaError as err:
                failure = err
    if not sessions:
        raise _Exit(EXIT_INPUT, f"{args.log} contains no sessions")
    if missing:
        raise _Exit(EXIT_PROFILES,
                    "no technique profile for: " + ", ".join(sorted(missing)))
    if failure is not None:
        raise failure


def _metric_config(args: argparse.Namespace) -> MetricConfig:
    return MetricConfig(word_length_chars=args.word_length,
                        msd_cost_mode=args.msd_cost_mode)


def _drain(scores: deque[SessionMetrics]) -> Iterator[SessionMetrics]:
    """``scores`` in order, each let go of as the report draws it."""
    while scores:
        yield scores.popleft()


def _cmd_analyze(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    config = _metric_config(args)
    columns, kept = MetricColumns(), deque()

    def score(records, profiles):
        scores = [analyze_session(r, profiles[r.technique_id], config)
                  for r in records]
        aggregate(scores, into=columns)
        if args.per_session:
            kept.extend(scores)

    _score_log(args, table, score)
    return EXIT_OK, write_analysis_report(
        aggregate(columns), _drain(kept) if args.per_session else None, args.format)


def _cmd_compare_naive(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    config = _metric_config(args)
    proposed, naive = MetricColumns(), MetricColumns()

    # Both views score a session before the next one is scored, so the first
    # failing session in log order raises first, and the second view reuses
    # the session's replay (see metrics._prepare).
    def score(records, profiles):
        ours, theirs = [], []
        for record in records:
            profile = profiles[record.technique_id]
            ours.append(analyze_session(record, profile, config))
            theirs.append(naive_metrics(record, profile, config))
        aggregate(ours, into=proposed)
        aggregate(theirs, into=naive)

    _score_log(args, table, score)
    return EXIT_OK, write_compare_report(aggregate(proposed), aggregate(naive),
                                         args.format)


def _cmd_decompose(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    if args.graphemes:
        clusters = segment_graphemes(args.text, table)
        lines = [f"{c.text}\t{c.constituent_count}" for c in clusters]
        lines.append(f"clusters\t{len(clusters)}")
    else:
        stream = to_output_stream(args.text, table)
        lines = [f"{ch}\tU+{ord(ch):04X}\t{table.classify(ord(ch)).value}"
                 for ch in stream.text]
        lines.append(f"length\t{stream.length}")
    return EXIT_OK, _text(lines)


def _cmd_msd(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    profile = _read_profile(args.profile, table) if args.profile else None
    a = to_output_stream(args.phrase_a, table)
    b = to_output_stream(args.phrase_b, table)
    result = msd(a, b, profile, CostModel(args.msd_cost_mode))
    lines = [f"distance\t{result.distance:g}"]
    for op in result.script:
        lines.append(f"{op.kind.value}\t{op.pos_a}\t{op.pos_b}"
                     f"\t{op.source_text}\t{op.target_text}\t{op.cost:g}")
    return EXIT_OK, _text(lines)


def _cmd_corpus_stats(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    phrase_set = load_phrase_set(_read_file(args.phrases), args.phrases, table)
    total_chars, total_words = corpus_totals(phrase_set, table)
    average = total_chars / total_words
    return EXIT_OK, _text([
        f"phrases\t{len(phrase_set.phrases)}",
        f"words\t{total_words}",
        f"stream_chars\t{total_chars}",
        f"avg_word_length_chars\t{average:.4f}",
        f"delta_vs_default\t{average - DEFAULT_WORD_LENGTH_CHARS:+.4f}",
    ])


def _cmd_validate_log(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    lines = []
    clean = True

    def check(records, profiles):
        nonlocal clean
        for record in records:
            try:
                replayed = replay_transcription(
                    record.events, profiles[record.technique_id])
            except AbugidaError as err:
                lines.append(f"{record.session_id}\tERROR\t{err}")
                clean = False
                continue
            if replay_matches(replayed, record.transcribed, table):
                lines.append(f"{record.session_id}\tMATCH")
            else:
                lines.append(f"{record.session_id}\tMISMATCH\treplayed "
                             f"{replayed!r}, log says {record.transcribed!r}")
                clean = False

    _score_log(args, table, check)
    return (EXIT_OK if clean else EXIT_MISMATCH), _text(lines)


def finite_positive(text: str) -> float:
    """Type of --word-length; argparse reports the ValueError as invalid."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def _study_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("log", help="JSON Lines session log")
    p.add_argument("--profiles", required=True, metavar="PATH",
                   help="technique profile JSON file or directory of them")


def _per_session_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--per-session", action="store_true",
                   help="also emit one row per session")


def _evaluation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="accepted for compatibility; has no effect")
    p.add_argument("--word-length", type=finite_positive,
                   default=DEFAULT_WORD_LENGTH_CHARS, metavar="CHARS",
                   help="average word length in constituent characters "
                        f"(default {DEFAULT_WORD_LENGTH_CHARS})")


def _cost_mode_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--msd-cost-mode", choices=("paper", "normalized"),
                   default="paper",
                   help="unit operation pricing (default paper: 1/n)")


def _decompose_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("text")
    p.add_argument("--graphemes", action="store_true",
                   help="show grapheme clusters instead")


def _msd_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("phrase_a", metavar="A")
    p.add_argument("phrase_b", metavar="B")
    p.add_argument("--profile", metavar="FILE",
                   help="technique profile enabling whole-unit operations")


def _corpus_stats_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("phrases", help="phrase set file, one phrase per line")


# Each subcommand: its help line, its function and what adds its arguments,
# in the order that its help lists them.  Every one also takes --out.
_COMMANDS = {
    "analyze": ("compute per-technique metrics from a log", _cmd_analyze,
                (_study_args, _per_session_flag, _evaluation_flags,
                 _cost_mode_flag)),
    "decompose": ("show a text's constituent characters", _cmd_decompose,
                  (_decompose_args,)),
    "msd": ("minimum string distance between two texts", _cmd_msd,
            (_msd_args, _cost_mode_flag)),
    "corpus-stats": ("word-length statistics of a phrase set",
                     _cmd_corpus_stats, (_corpus_stats_args,)),
    "compare-naive": ("constituent-based vs grapheme-cluster metrics",
                      _cmd_compare_naive,
                      (_study_args, _evaluation_flags, _cost_mode_flag)),
    "validate-log": ("replay each session and check the transcription",
                     _cmd_validate_log, (_study_args,)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand or only ``command``.

    A parser with one subcommand parses that command's arguments, and
    reports their errors and help, exactly as the full one does.
    """
    parser = argparse.ArgumentParser(
        prog="abugida",
        description="Text-entry performance metrics for Bengali session logs.")
    sub = parser.add_subparsers(metavar="command", required=True)
    for name, (help_line, func, adders) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        for add in adders:
            add(p)
        p.add_argument("--out", metavar="FILE",
                       help="write output here instead of stdout")
        p.set_defaults(func=func)
    return parser


def _refuse_input_as_out(args: argparse.Namespace) -> None:
    """Exit 1 if the existing ``--out`` file is one that the command reads."""
    inputs = [getattr(args, name, None) for name in ("log", "profile", "phrases")]
    inputs.append(os.environ.get("ABUGIDA_TABLE"))
    if getattr(args, "profiles", None):
        with contextlib.suppress(_Exit):  # loading the profiles reports it
            inputs += _profile_paths(args.profiles)
    for path in filter(None, inputs):
        if os.path.exists(path) and os.path.samefile(path, args.out):
            raise _Exit(EXIT_INPUT, f"--out {args.out} would overwrite the "
                        f"input file {path}")


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    # A run builds only the parser of the command it names.  Anything else
    # (help, an unknown command, nothing) needs them all, to list them.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    created = False
    try:
        # "ab" fails at once on a bad path and keeps an existing file as it
        # was, so a failed run costs no work and destroys no report; a file
        # that this check created is removed again if the run fails.
        if args.out:
            existed = os.path.exists(args.out)
            if existed:
                _refuse_input_as_out(args)
            open(args.out, "ab").close()
            created = not existed
        code, data = args.func(args, _load_table())
        _emit(data, args.out)
    except (_Exit, AbugidaError, OSError) as err:  # OSError: bad path or --out
        if created:
            os.remove(args.out)
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, _Exit) else EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
