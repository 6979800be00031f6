"""Command line interface.

Subcommands: analyze, decompose, msd, corpus-stats, compare-naive,
validate-log.  Data goes to stdout (or --out); warnings and errors go
to stderr only.  Exit codes: 0 success, 1 unreadable or malformed
inputs, 2 unresolved technique profiles, 3 validate-log found sessions
that do not replay to their stored transcription.

Set ABUGIDA_TABLE to a classification table file to override the
built-in Bengali table for every command.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from typing import Sequence

from .bengali import BENGALI_TABLE, CharTable, segment_graphemes, to_output_stream
from .errors import AbugidaError
from .metrics import (
    DEFAULT_WORD_LENGTH_CHARS,
    MetricConfig,
    aggregate,
    analyze_session,
    naive_metrics,
)
from .msd import CostModel, CostMode, TechniqueProfile, msd
from .sessionio import (
    SessionRecord,
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


def _load_profiles(path: str, table: CharTable) -> dict[str, TechniqueProfile]:
    """Load one profile file or every *.json in a directory.

    Every failure exits 2, naming the file or directory at fault.
    """
    paths = [path]
    if os.path.isdir(path):
        try:
            names = sorted(os.listdir(path))
        except OSError as err:
            raise _Exit(EXIT_PROFILES, str(err)) from err
        paths = [os.path.join(path, n) for n in names if n.endswith(".json")]
        if not paths:
            raise _Exit(EXIT_PROFILES, f"{path}: no profile files")
    profiles: dict[str, TechniqueProfile] = {}
    for where in paths:
        profile = _read_profile(where, table)
        if profile.technique_id in profiles:
            raise _Exit(EXIT_PROFILES, f"{where}: duplicate profile for "
                        f"technique {profile.technique_id!r}")
        profiles[profile.technique_id] = profile
    return profiles


def _load_study(args: argparse.Namespace, table: CharTable
                ) -> tuple[dict[str, TechniqueProfile], list[SessionRecord]]:
    """Profiles and sessions of a log command, every technique resolved."""
    profiles = _load_profiles(args.profiles, table)
    records = parse_session_log(_read_file(args.log), table)
    if not records:
        raise _Exit(EXIT_INPUT, f"{args.log} contains no sessions")
    missing = sorted({r.technique_id for r in records} - set(profiles))
    if missing:
        raise _Exit(EXIT_PROFILES, "no technique profile for: " + ", ".join(missing))
    return profiles, records


def _metric_config(args: argparse.Namespace) -> MetricConfig:
    return MetricConfig(word_length_chars=args.word_length,
                        msd_cost_mode=CostMode(args.msd_cost_mode))


def _cmd_analyze(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    profiles, records = _load_study(args, table)
    config = _metric_config(args)
    results = [analyze_session(r, profiles[r.technique_id], config)
               for r in records]
    summaries = aggregate(results)
    return EXIT_OK, write_analysis_report(
        summaries, results if args.per_session else None, args.format)


def _cmd_compare_naive(args: argparse.Namespace, table: CharTable) -> tuple[int, bytes]:
    profiles, records = _load_study(args, table)
    config = _metric_config(args)
    proposed = [analyze_session(r, profiles[r.technique_id], config)
                for r in records]
    naive = [naive_metrics(r, profiles[r.technique_id], config)
             for r in records]
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
    result = msd(a, b, profile, CostModel(CostMode(args.msd_cost_mode)))
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
    profiles, records = _load_study(args, table)
    lines = []
    clean = True
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
    return (EXIT_OK if clean else EXIT_MISMATCH), _text(lines)


def finite_positive(text: str) -> float:
    """Type of --word-length; argparse reports the ValueError as invalid."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abugida",
        description="Text-entry performance metrics for Bengali session logs.")
    sub = parser.add_subparsers(metavar="command", required=True)

    def add_study_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("log", help="JSON Lines session log")
        p.add_argument("--profiles", required=True, metavar="PATH",
                       help="technique profile JSON file or directory of them")

    def add_evaluation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="accepted for compatibility; has no effect")
        p.add_argument("--word-length", type=finite_positive,
                       default=DEFAULT_WORD_LENGTH_CHARS, metavar="CHARS",
                       help="average word length in constituent characters "
                            f"(default {DEFAULT_WORD_LENGTH_CHARS})")

    p = sub.add_parser("analyze", help="compute per-technique metrics from a log")
    add_study_args(p)
    p.add_argument("--per-session", action="store_true",
                   help="also emit one row per session")
    add_evaluation_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decompose",
                       help="show a text's constituent characters")
    p.add_argument("text")
    p.add_argument("--graphemes", action="store_true",
                   help="show grapheme clusters instead")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("msd", help="minimum string distance between two texts")
    p.add_argument("phrase_a", metavar="A")
    p.add_argument("phrase_b", metavar="B")
    p.add_argument("--profile", metavar="FILE",
                   help="technique profile enabling whole-unit operations")
    p.set_defaults(func=_cmd_msd)

    p = sub.add_parser("corpus-stats",
                       help="word-length statistics of a phrase set")
    p.add_argument("phrases", help="phrase set file, one phrase per line")
    p.set_defaults(func=_cmd_corpus_stats)

    p = sub.add_parser("compare-naive",
                       help="constituent-based vs grapheme-cluster metrics")
    add_study_args(p)
    add_evaluation_flags(p)
    p.set_defaults(func=_cmd_compare_naive)

    p = sub.add_parser("validate-log",
                       help="replay each session and check the transcription")
    add_study_args(p)
    p.set_defaults(func=_cmd_validate_log)

    for name in ("analyze", "msd", "compare-naive"):
        sub.choices[name].add_argument(
            "--msd-cost-mode", choices=("paper", "normalized"), default="paper",
            help="unit operation pricing (default paper: 1/n)")
    for p in sub.choices.values():  # main writes every command's output
        p.add_argument("--out", metavar="FILE",
                       help="write output here instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        # "ab" fails at once on a bad path and keeps an existing file as it
        # was, so a failed run costs no work and destroys no report.
        if args.out:
            open(args.out, "ab").close()
        code, data = args.func(args, _load_table())
        _emit(data, args.out)
    except (_Exit, AbugidaError, OSError) as err:  # OSError: bad path or --out
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, _Exit) else EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
