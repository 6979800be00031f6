"""End-to-end command line behavior, including exit codes."""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import logging
import math
import random
import tracemalloc
import weakref
from pathlib import Path

import pytest

import abugida as ab
from abugida import cli
from abugida.cli import main
from abugida.sessionio import write_analysis_report, write_compare_report
from abugida.streams import replay_matches, replay_transcription
from conftest import sidebar_log_obj, sidebar_profile_obj, write_json, write_jsonl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def clean_log_obj(session_id="c1", technique_id="basic-kbd", text="বই"):
    return {
        "session_id": session_id,
        "technique_id": technique_id,
        "participant_id": "p1",
        "presented": text,
        "transcribed": text,
        "events": [{"t": i * 500, "k": "char", "p": c}
                   for i, c in enumerate(text)],
    }


def basic_profile_obj(technique_id="basic-kbd"):
    return {"technique_id": technique_id, "atomic_units": [],
            "unit_keys": {}, "backspace_granularity": "basic"}


class TestAnalyze:
    def test_sidebar_csv(self, capsys, sidebar_log_file, sidebar_profile_file):
        code, out, err = run(capsys, "analyze", sidebar_log_file,
                             "--profiles", sidebar_profile_file)
        assert code == 0
        assert out == ("technique,wpm_bn,kspc_bn,er_bn,msder_bn,"
                       "total_error_rate,n_sessions\r\n"
                       "conjunct-key,7.05,0.92,7.69%,7.14%,7.69%,1\r\n")

    def test_sidebar_json(self, capsys, sidebar_log_file, sidebar_profile_file):
        code, out, _ = run(capsys, "analyze", sidebar_log_file,
                           "--profiles", sidebar_profile_file,
                           "--format", "json")
        assert code == 0
        row, = json.loads(out)
        assert row == {"technique": "conjunct-key", "wpm_bn": 7.05,
                       "kspc_bn": 0.92, "er_bn": 7.69, "msder_bn": 7.14,
                       "total_error_rate": 7.69, "n_sessions": 1}

    def test_word_length_flag(self, capsys, sidebar_log_file, sidebar_profile_file):
        code, out, _ = run(capsys, "analyze", sidebar_log_file,
                           "--profiles", sidebar_profile_file,
                           "--word-length", "10.22")
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "3.52"  # half the wpm

    def test_per_session_blocks(self, capsys, sidebar_log_file, sidebar_profile_file):
        code, out, _ = run(capsys, "analyze", sidebar_log_file,
                           "--profiles", sidebar_profile_file, "--per-session")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0].startswith("session_id,")
        assert lines[1].startswith("s1,conjunct-key,p1,7.05,")
        assert lines[2] == ""
        assert lines[3].startswith("technique,")

    def test_profiles_directory(self, capsys, tmp_path):
        log = write_jsonl(tmp_path / "log.jsonl",
                          [sidebar_log_obj(), clean_log_obj()])
        pdir = tmp_path / "profiles"
        pdir.mkdir()
        write_json(pdir / "a.json", sidebar_profile_obj())
        write_json(pdir / "b.json", basic_profile_obj())
        code, out, _ = run(capsys, "analyze", log, "--profiles", str(pdir))
        assert code == 0
        techniques = [l.split(",")[0] for l in out.splitlines()[1:]]
        assert techniques == ["basic-kbd", "conjunct-key"]

    def test_empty_log_exit_1(self, capsys, tmp_path, sidebar_profile_file):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        code, out, err = run(capsys, "analyze", str(log),
                             "--profiles", sidebar_profile_file)
        assert code == 1
        assert out == ""
        assert "no sessions" in err

    def test_malformed_log_exit_1(self, capsys, tmp_path, sidebar_profile_file):
        log = tmp_path / "bad.jsonl"
        log.write_text("{nope\n")
        code, _, err = run(capsys, "analyze", str(log),
                           "--profiles", sidebar_profile_file)
        assert code == 1
        assert "line 1" in err

    def test_missing_profile_file_exit_2(self, capsys, sidebar_log_file, tmp_path):
        code, _, err = run(capsys, "analyze", sidebar_log_file,
                           "--profiles", str(tmp_path / "nope.json"))
        assert code == 2

    def test_unresolved_technique_exit_2(self, capsys, tmp_path, sidebar_log_file):
        profile = write_json(tmp_path / "other.json", basic_profile_obj())
        code, _, err = run(capsys, "analyze", sidebar_log_file,
                           "--profiles", profile)
        assert code == 2
        assert "conjunct-key" in err

    def test_bad_profile_named_exit_2(self, capsys, tmp_path, sidebar_log_file):
        pdir = tmp_path / "profiles"
        pdir.mkdir()
        write_json(pdir / "a.json", sidebar_profile_obj())
        bad = write_json(pdir / "b.json", {"technique_id": "b",
                                           "atomic_units": ["ক"]})
        code, _, err = run(capsys, "analyze", sidebar_log_file,
                           "--profiles", str(pdir))
        assert code == 2
        assert err.startswith(f"error: {bad}: atomic unit 'ক'")

    def test_replay_failure_exit_1(self, capsys, tmp_path, sidebar_profile_file):
        obj = sidebar_log_obj()
        obj["events"].append({"t": 30000, "k": "edit", "p": ""})
        log = write_jsonl(tmp_path / "log.jsonl", [obj])
        code, _, err = run(capsys, "analyze", log,
                           "--profiles", sidebar_profile_file)
        assert code == 1
        assert "s1" in err

    def test_tampered_transcription_exit_1(self, capsys, tmp_path,
                                           sidebar_profile_file):
        obj = sidebar_log_obj()
        obj["transcribed"] = "ক্ষণিকের অতিথি"  # events do not produce this
        log = write_jsonl(tmp_path / "log.jsonl", [obj])
        code, out, err = run(capsys, "analyze", log,
                             "--profiles", sidebar_profile_file)
        assert code == 1
        assert out == ""
        assert "session s1" in err


@pytest.mark.parametrize("command", ["analyze", "compare-naive"])
def test_inf_override_above_transcription_exit_1(capsys, tmp_path, command):
    # More uncorrected errors than the transcription holds would make C < 0.
    obj = clean_log_obj()
    obj["inf_override"] = 1000
    log = write_jsonl(tmp_path / "log.jsonl", [obj])
    profile = write_json(tmp_path / "basic.json", basic_profile_obj())
    flags = ["--per-session"] if command == "analyze" else []
    code, out, err = run(capsys, command, log, "--profiles", profile, *flags)
    assert (code, out) == (1, "")
    assert err == ("error: session c1: field 'inf_override': 1000 exceeds "
                   "the 2 constituents of the transcription\n")


@pytest.mark.parametrize("command", ["compare-naive", "validate-log"])
class TestLogCommandErrors:
    """The exit codes TestAnalyze checks, for the other log commands."""

    def test_empty_log_exit_1(self, capsys, tmp_path, sidebar_profile_file, command):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        code, out, err = run(capsys, command, str(log),
                             "--profiles", sidebar_profile_file)
        assert code == 1
        assert out == ""
        assert "no sessions" in err

    def test_malformed_log_exit_1(self, capsys, tmp_path, sidebar_profile_file,
                                  command):
        log = tmp_path / "bad.jsonl"
        log.write_text("{nope\n")
        code, _, err = run(capsys, command, str(log),
                           "--profiles", sidebar_profile_file)
        assert code == 1
        assert "line 1" in err

    def test_missing_profile_file_exit_2(self, capsys, sidebar_log_file, tmp_path,
                                         command):
        code, _, _ = run(capsys, command, sidebar_log_file,
                         "--profiles", str(tmp_path / "nope.json"))
        assert code == 2

    def test_unresolved_technique_exit_2(self, capsys, tmp_path, sidebar_log_file,
                                         command):
        profile = write_json(tmp_path / "other.json", basic_profile_obj())
        code, _, err = run(capsys, command, sidebar_log_file, "--profiles", profile)
        assert code == 2
        assert "conjunct-key" in err


@pytest.mark.parametrize("command", ["analyze", "compare-naive", "validate-log"])
class TestProfileDirectoryErrors:
    def test_no_profile_files_exit_2(self, capsys, tmp_path, sidebar_log_file,
                                     command):
        pdir = tmp_path / "profiles"
        pdir.mkdir()
        (pdir / "notes.txt").write_text("not a profile")
        code, out, err = run(capsys, command, sidebar_log_file, "--profiles", str(pdir))
        assert code == 2
        assert out == ""
        assert err == f"error: {pdir}: no profile files\n"

    def test_duplicate_technique_names_second_file(self, capsys, tmp_path,
                                                   sidebar_log_file, command):
        pdir = tmp_path / "profiles"
        pdir.mkdir()
        write_json(pdir / "a.json", basic_profile_obj("t"))
        second = write_json(pdir / "b.json", basic_profile_obj("t"))
        code, out, err = run(capsys, command, sidebar_log_file, "--profiles", str(pdir))
        assert code == 2
        assert out == ""
        assert err == f"error: {second}: duplicate profile for technique 't'\n"


@pytest.mark.parametrize("command", ["analyze", "compare-naive", "validate-log"])
class TestDuplicateKeys:
    """A key repeated in any JSON object fails; the last value never wins."""

    @pytest.mark.parametrize("original, doubled, key", [
        ('{"session_id": "s1",', '{"session_id": "s1", "session_id": "x",',
         "session_id"),
        ('{"t": 0,', '{"t": 0, "t": 9,', "t"),
    ], ids=["record", "event"])
    def test_log_exit_1(self, capsys, tmp_path, sidebar_profile_file, command,
                        original, doubled, key):
        text = json.dumps(sidebar_log_obj(), ensure_ascii=False)
        assert original in text
        log = tmp_path / "log.jsonl"
        log.write_text(text.replace(original, doubled, 1) + "\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(log),
                             "--profiles", sidebar_profile_file)
        assert (code, out) == (1, "")
        assert err == f"error: line 1: duplicate key {key!r}\n"

    def test_profile_exit_2(self, capsys, tmp_path, sidebar_log_file, command):
        text = json.dumps(sidebar_profile_obj(), ensure_ascii=False)
        profile = tmp_path / "p.json"
        profile.write_text(text.replace(
            '"technique_id": "conjunct-key"',
            '"technique_id": "conjunct-key", "technique_id": "x"'), encoding="utf-8")
        code, out, err = run(capsys, command, sidebar_log_file,
                             "--profiles", str(profile))
        assert (code, out) == (2, "")
        assert err == f"error: {profile}: duplicate key 'technique_id'\n"


RECORD = json.dumps(sidebar_log_obj("s1"), ensure_ascii=False)


@pytest.mark.parametrize("command", ["analyze", "compare-naive", "validate-log"])
class TestMalformedLineIsAnError:
    """Inputs that once ended in a traceback: one error line, exit 1 or 2.

    The tests check the line and the exit code, not the wording: Python
    3.10 has no limit on integer digits, so there a 5000-digit ``t`` is
    past the 2**53 bound instead.
    """

    @pytest.mark.parametrize("second", [
        "[" * 100_000,
        RECORD.replace('"t": 0,', '"t": ' + "9" * 5000 + ",", 1),
        RECORD.replace('"t": 0,', '"t": ' + "9" * 400 + ",", 1),
        RECORD.replace('"inf_override": null', '"inf_override": ' + "9" * 400, 1),
    ], ids=["deep-nesting", "5000-digit-t", "400-digit-t", "400-digit-inf-override"])
    def test_exit_1_naming_line_2(self, capsys, tmp_path, sidebar_profile_file,
                                  command, second):
        assert second != RECORD
        log = tmp_path / "log.jsonl"
        first = json.dumps(sidebar_log_obj("s0"), ensure_ascii=False)
        log.write_text(f"{first}\n{second}\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(log),
                             "--profiles", sidebar_profile_file)
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2")
        assert err.count("\n") == 1

    def test_deeply_nested_profile_exit_2(self, capsys, tmp_path, sidebar_log_file,
                                          command):
        profile = tmp_path / "p.json"
        profile.write_text('{"technique_id": ' + "[" * 100_000)
        code, out, err = run(capsys, command, sidebar_log_file,
                             "--profiles", str(profile))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {profile}: ")
        assert err.count("\n") == 1


class TestDecompose:
    def test_constituents(self, capsys):
        code, out, _ = run(capsys, "decompose", "কান্ড")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ক\tU+0995\tConsonant"
        assert lines[3] == "্\tU+09CD\tVirama"
        assert lines[-1] == "length\t5"

    def test_graphemes(self, capsys):
        code, out, _ = run(capsys, "decompose", "--graphemes", "কান্ড")
        assert code == 0
        assert out.splitlines() == ["কা\t2", "ন্ড\t3", "clusters\t2"]

    @pytest.mark.parametrize("text, lines", [
        ("ক্\u200cষা", ["ক্ষা\t4", "clusters\t1"]),
        ("\u200c\u200d", ["clusters\t0"]),
    ])
    def test_graphemes_drop_zero_width_controls(self, capsys, text, lines):
        code, out, _ = run(capsys, "decompose", "--graphemes", text)
        assert code == 0
        assert out.splitlines() == lines

    def test_empty_text(self, capsys):
        code, out, _ = run(capsys, "decompose", "")
        assert code == 0
        assert out == "length\t0\n"

    def test_text_only_stdout(self):
        # A stdout without a byte buffer gets the report as text.
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["decompose", "ক্ষ"]) == 0
        assert out.getvalue() == ("ক\tU+0995\tConsonant\n্\tU+09CD\tVirama\n"
                                  "ষ\tU+09B7\tConsonant\nlength\t3\n")


class TestMsdCommand:
    def test_identical_is_zero(self, capsys):
        code, out, _ = run(capsys, "msd", "বই", "বই")
        assert code == 0
        assert out.splitlines()[0] == "distance\t0"

    def test_sidebar_pair(self, capsys, sidebar_profile_file):
        from conftest import PRESENTED, TRANSCRIBED
        code, out, _ = run(capsys, "msd", TRANSCRIBED, PRESENTED,
                           "--profile", sidebar_profile_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "distance\t1"
        assert any(l.startswith("insert\t") for l in lines[1:])

    def test_cost_modes(self, capsys, tmp_path):
        profile = write_json(tmp_path / "p.json", {
            "technique_id": "t", "atomic_units": ["ক্ষা"],
            "unit_keys": {}, "backspace_granularity": "basic"})
        code, out, _ = run(capsys, "msd", "ক্ষার", "র", "--profile", profile)
        assert out.splitlines()[0] == "distance\t0.25"
        code, out, _ = run(capsys, "msd", "ক্ষার", "র", "--profile", profile,
                           "--msd-cost-mode", "normalized")
        assert out.splitlines()[0] == "distance\t1"

    def test_bad_profile_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "msd", "aa", "bb", "--profile", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}: ")
        unit = write_json(tmp_path / "b.json", {"technique_id": "b",
                                                "atomic_units": ["ক"]})
        code, _, err = run(capsys, "msd", "ক", "খ", "--profile", str(unit))
        assert code == 2
        assert err.startswith(f"error: {unit}: atomic unit 'ক'")
        code, _, err = run(capsys, "msd", "ক", "খ", "--profile", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err


class TestCorpusStats:
    def test_stats(self, capsys, tmp_path):
        phrases = tmp_path / "phrases.txt"
        phrases.write_text("# set\nবই\nঅআ ইঈ\n", encoding="utf-8")
        code, out, _ = run(capsys, "corpus-stats", str(phrases))
        assert code == 0
        assert out.splitlines() == [
            "phrases\t2",
            "words\t3",
            "stream_chars\t7",
            "avg_word_length_chars\t2.3333",
            "delta_vs_default\t-2.7767",
        ]

    def test_empty_corpus_exit_1(self, capsys, tmp_path):
        phrases = tmp_path / "phrases.txt"
        phrases.write_text("# nothing here\n")
        code, _, err = run(capsys, "corpus-stats", str(phrases))
        assert code == 1


class TestCompareNaive:
    def test_conjunct_free_log_has_zero_deltas(self, capsys, tmp_path):
        log = write_jsonl(tmp_path / "log.jsonl", [clean_log_obj()])
        profile = write_json(tmp_path / "p.json", basic_profile_obj())
        code, out, _ = run(capsys, "compare-naive", log, "--profiles", profile)
        assert code == 0
        for line in out.splitlines()[1:]:
            delta = line.split(",")[4]
            assert delta in ("0.00", "0.00%")

    def test_zero_width_control_counts_in_neither_view(self, capsys, tmp_path):
        typed = clean_log_obj("c1", text="ক্ষা")
        zwnj = dict(clean_log_obj("c2", text="ক্ষা"), transcribed="ক্\u200cষা")
        log = write_jsonl(tmp_path / "log.jsonl", [typed, zwnj])
        profile = write_json(tmp_path / "p.json", basic_profile_obj())
        code, out, _ = run(capsys, "compare-naive", log, "--profiles", profile)
        assert code == 0
        rows = {l.split(",")[1]: l.split(",")[2:] for l in out.splitlines()[1:]}
        for metric in ("er_bn", "msder_bn", "total_error_rate"):
            assert rows[metric] == ["0.00%", "0.00%", "0.00%"]

    def test_sidebar_log_diverges(self, capsys, sidebar_log_file,
                                  sidebar_profile_file):
        code, out, _ = run(capsys, "compare-naive", sidebar_log_file,
                           "--profiles", sidebar_profile_file)
        assert code == 0
        rows = {tuple(l.split(",")[:2]): l.split(",")[2:]
                for l in out.splitlines()[1:]}
        assert rows[("conjunct-key", "wpm_bn")] == ["7.05", "4.11", "2.94"]
        assert rows[("conjunct-key", "er_bn")] == ["7.69%", "12.50%", "-4.81%"]

    def test_json_format(self, capsys, sidebar_log_file, sidebar_profile_file):
        code, out, _ = run(capsys, "compare-naive", sidebar_log_file,
                           "--profiles", sidebar_profile_file,
                           "--format", "json")
        rows = json.loads(out)
        assert {r["metric"] for r in rows} == set(ab.METRIC_FIELDS)


class TestValidateLog:
    def test_consistent_log(self, capsys, sidebar_log_file, sidebar_profile_file):
        code, out, _ = run(capsys, "validate-log", sidebar_log_file,
                           "--profiles", sidebar_profile_file)
        assert code == 0
        assert out == "s1\tMATCH\n"

    def test_tampered_transcription(self, capsys, tmp_path, sidebar_profile_file):
        obj = sidebar_log_obj()
        obj["transcribed"] = "ক্ষণিকের অতিথি"  # events do not produce this
        log = write_jsonl(tmp_path / "log.jsonl", [obj])
        code, out, _ = run(capsys, "validate-log", log,
                           "--profiles", sidebar_profile_file)
        assert code == 3
        assert out.startswith("s1\tMISMATCH")

    def test_zero_width_control_in_transcription(self, capsys, tmp_path):
        # Replay drops the ZWJ the log keeps for rendering; both views agree.
        obj = clean_log_obj(text="র\u200dয")
        obj["events"] = [{"t": 0, "k": "char", "p": "র\u200d"},
                         {"t": 500, "k": "char", "p": "য"}]
        log = write_jsonl(tmp_path / "log.jsonl", [obj])
        profile = write_json(tmp_path / "p.json", basic_profile_obj())
        code, out, _ = run(capsys, "validate-log", log, "--profiles", profile)
        assert (code, out) == (0, "c1\tMATCH\n")
        code, _, err = run(capsys, "analyze", log, "--profiles", profile)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("declared, typed", [
        ("র্য", "র\u200d্য"), ("র\u200d্য", "র্য")])
    def test_unit_payload_spelled_with_a_zwj(self, capsys, tmp_path, declared, typed):
        obj = clean_log_obj(technique_id="t", text="র্য")
        obj["events"] = [{"t": 0, "k": "unit", "p": typed}, {"t": 1500, "k": "mod"}]
        log = write_jsonl(tmp_path / "log.jsonl", [obj])
        profile = write_json(tmp_path / "p.json", {
            "technique_id": "t", "atomic_units": [declared],
            "backspace_granularity": "unit"})
        code, out, _ = run(capsys, "validate-log", log, "--profiles", profile)
        assert (code, out) == (0, "c1\tMATCH\n")
        code, _, err = run(capsys, "analyze", log, "--profiles", profile)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("declared, key", [
        ("র্য", "র\u200d্য"), ("র\u200d্য", "র্য")])
    def test_unit_key_spelled_with_a_zwj(self, capsys, tmp_path, declared, key):
        obj = clean_log_obj(technique_id="t", text="র্য")
        obj["events"] = [{"t": 0, "k": "unit", "p": key}, {"t": 1500, "k": "mod"}]
        log = write_jsonl(tmp_path / "log.jsonl", [obj])
        profile = write_json(tmp_path / "p.json", {
            "technique_id": "t", "atomic_units": [declared],
            "unit_keys": {"RYA": key}, "backspace_granularity": "unit"})
        code, out, _ = run(capsys, "validate-log", log, "--profiles", profile)
        assert (code, out) == (0, "c1\tMATCH\n")

    def test_edit_keys_reported_per_session(self, capsys, tmp_path,
                                            sidebar_profile_file):
        with_edit = sidebar_log_obj("s-edit")
        with_edit["events"].append({"t": 30000, "k": "edit", "p": ""})
        log = write_jsonl(tmp_path / "log.jsonl",
                          [with_edit, sidebar_log_obj("s-ok")])
        code, out, _ = run(capsys, "validate-log", log,
                           "--profiles", sidebar_profile_file)
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("s-edit\tERROR")
        assert lines[1] == "s-ok\tMATCH"


class TestJobsAndDeterminism:
    @pytest.fixture
    def big_log(self, tmp_path):
        objs = []
        for i in range(4):
            objs.append(sidebar_log_obj(f"s{i}", f"p{i}"))
            objs.append(clean_log_obj(f"c{i}"))
        log = write_jsonl(tmp_path / "log.jsonl", objs)
        pdir = tmp_path / "profiles"
        pdir.mkdir()
        write_json(pdir / "a.json", sidebar_profile_obj())
        write_json(pdir / "b.json", basic_profile_obj())
        return log, str(pdir)

    def test_jobs_do_not_change_bytes(self, tmp_path, big_log):
        log, profiles = big_log
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert main(["analyze", log, "--profiles", profiles,
                     "--per-session", "--out", str(serial)]) == 0
        assert main(["analyze", log, "--profiles", profiles,
                     "--per-session", "--jobs", "8", "--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_repeated_runs_identical(self, tmp_path, big_log):
        log, profiles = big_log
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for out in (first, second):
            assert main(["analyze", log, "--profiles", profiles,
                         "--format", "json", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()


@pytest.fixture
def command_argv(tmp_path, sidebar_log_file, sidebar_profile_file):
    """Working arguments for each of the six commands, --out not included."""
    phrases = tmp_path / "phrases.txt"
    phrases.write_text("বই\n", encoding="utf-8")
    study = ["--profiles", sidebar_profile_file]
    return {
        "analyze": ["analyze", sidebar_log_file, *study],
        "compare-naive": ["compare-naive", sidebar_log_file, *study],
        "validate-log": ["validate-log", sidebar_log_file, *study],
        "decompose": ["decompose", "কান্ড"],
        "msd": ["msd", "বই", "বা"],
        "corpus-stats": ["corpus-stats", str(phrases)],
    }


COMMANDS = ["analyze", "compare-naive", "validate-log", "decompose", "msd",
            "corpus-stats"]


class TestOut:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_out_exit_1(self, capsys, tmp_path, command_argv, command):
        out_path = str(tmp_path / "missing-dir" / "report.txt")
        code, out, err = run(capsys, *command_argv[command], "--out", out_path)
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_unwritable_out_evaluates_nothing(self, capsys, tmp_path, monkeypatch,
                                             command_argv):
        def fail(*args, **kwargs):
            raise AssertionError("a session was evaluated")
        monkeypatch.setattr("abugida.cli.analyze_session", fail)
        code, _, _ = run(capsys, *command_argv["analyze"],
                         "--out", str(tmp_path / "missing-dir" / "r.csv"))
        assert code == 1

    def test_failed_run_keeps_existing_report(self, capsys, tmp_path,
                                              sidebar_log_file):
        report = tmp_path / "report.csv"
        report.write_bytes(b"an earlier report\r\n")
        code, _, _ = run(capsys, "analyze", sidebar_log_file,
                         "--profiles", str(tmp_path / "nope.json"),
                         "--out", str(report))
        assert code == 2
        assert report.read_bytes() == b"an earlier report\r\n"

    @pytest.mark.parametrize("missing, code", [("log", 1), ("profiles", 2)])
    def test_failed_run_leaves_no_new_report(self, capsys, tmp_path, sidebar_log_file,
                                             sidebar_profile_file, missing, code):
        paths = {"log": sidebar_log_file, "profiles": sidebar_profile_file,
                 missing: str(tmp_path / "missing")}
        report = tmp_path / "new.csv"
        got, out, err = run(capsys, "analyze", paths["log"], "--profiles",
                            paths["profiles"], "--out", str(report))
        assert got == code
        assert (out, err.count("error:")) == ("", 1)
        assert not report.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_replaces_existing_file(self, capsys, tmp_path, command_argv,
                                        command):
        _, stdout, _ = run(capsys, *command_argv[command])
        report = tmp_path / "report"
        report.write_bytes(b"x" * 10000)
        code, out, _ = run(capsys, *command_argv[command], "--out", str(report))
        assert code == 0
        assert out == ""
        assert report.read_bytes() == stdout.encode("utf-8")

    def test_dev_null(self, capsys, command_argv):
        code, out, err = run(capsys, *command_argv["analyze"], "--out", "/dev/null")
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("command", ["analyze", "compare-naive", "validate-log"])
    @pytest.mark.parametrize("target", ["log", "profile", "profile-in-directory",
                                        "link-to-log"])
    def test_out_naming_an_input_is_refused(self, capsys, tmp_path, sidebar_log_file,
                                            sidebar_profile_file, command, target):
        """The log or a profile is never overwritten by the report."""
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        in_directory = write_json(profiles / "p.json", sidebar_profile_obj())
        link = tmp_path / "link.jsonl"
        link.symlink_to(sidebar_log_file)
        out_path, profiles_arg = {
            "log": (sidebar_log_file, sidebar_profile_file),
            "profile": (sidebar_profile_file, sidebar_profile_file),
            "profile-in-directory": (in_directory, str(profiles)),
            "link-to-log": (str(link), sidebar_profile_file),
        }[target]
        before = {p: p.read_bytes() for p in tmp_path.rglob("*.json*")}
        code, out, err = run(capsys, command, sidebar_log_file,
                             "--profiles", profiles_arg, "--out", out_path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --out {out_path} would overwrite the input")
        assert err.count("\n") == 1
        assert {p: p.read_bytes() for p in tmp_path.rglob("*.json*")} == before

    @pytest.mark.parametrize("target", ["phrases", "table"])
    def test_out_naming_another_input_is_refused(self, capsys, tmp_path, monkeypatch,
                                                 command_argv, target):
        table = tmp_path / "table.txt"
        table.write_text("\n".join(ab.BENGALI_TABLE.to_lines()) + "\n",
                         encoding="utf-8")
        monkeypatch.setenv("ABUGIDA_TABLE", str(table))
        path = {"phrases": command_argv["corpus-stats"][1], "table": str(table)}[target]
        before = Path(path).read_bytes()
        code, out, err = run(capsys, *command_argv["corpus-stats"], "--out", path)
        assert (code, out) == (1, "")
        assert err == f"error: --out {path} would overwrite the input file {path}\n"
        assert Path(path).read_bytes() == before


class TestCollectorState:
    """A log command leaves the collector enabled or not, and frozen or not."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("log, code", [
        ("good", 0), ("bad-line", 1), ("unknown-technique", 2)])
    def test_main_restores_collector(self, capsys, tmp_path, sidebar_profile_file,
                                     enabled, log, code):
        objs = {"good": [sidebar_log_obj()],
                "bad-line": [sidebar_log_obj(), {"session_id": 1}],
                "unknown-technique": [clean_log_obj()]}[log]
        path = write_jsonl(tmp_path / "log.jsonl", objs)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            got, _, _ = run(capsys, "validate-log", path,
                            "--profiles", sidebar_profile_file)
            state = gc.isenabled(), gc.get_freeze_count()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert got == code
        assert state == (enabled, frozen)


class TestLogReleasedBeforeReport:
    """The scoring commands hold the parsed log only while they score."""

    @pytest.mark.parametrize("argv, writer", [
        (["analyze", "--per-session", "--format", "json"], "write_analysis_report"),
        (["compare-naive"], "write_compare_report"),
    ], ids=["analyze", "compare-naive"])
    def test_no_record_is_alive_at_report_time(self, capsys, monkeypatch, tmp_path,
                                               sidebar_profile_file, argv, writer):
        records, alive = [], []
        parse, write = cli.parse_session_log, getattr(cli, writer)

        def parse_and_watch(*args, **kwargs):
            parsed = parse(*args, **kwargs)
            records.extend(map(weakref.ref, parsed))
            return parsed

        def count_and_write(*args):
            alive.append(sum(ref() is not None for ref in records))
            return write(*args)

        monkeypatch.setattr(cli, "parse_session_log", parse_and_watch)
        monkeypatch.setattr(cli, writer, count_and_write)
        log = write_jsonl(tmp_path / "log.jsonl",
                          [sidebar_log_obj("s1"), sidebar_log_obj("s2", "p2")])
        code, _, err = run(capsys, argv[0], log, "--profiles", sidebar_profile_file,
                           *argv[1:])
        assert (code, err) == (0, "")
        assert (len(records), alive) == (2, [0])


class TestIngestInBlocks:
    """A log command reads the log a block at a time and never holds it whole."""

    @pytest.mark.parametrize("sessions", [300, 1200])
    def test_peak_beside_the_records(self, tmp_path, sidebar_profile_file,
                                     sessions):
        log = write_jsonl(tmp_path / "log.jsonl", [
            sidebar_log_obj(f"s{n}", f"p{n}") for n in range(sessions)])
        longest = max(map(len, Path(log).read_bytes().splitlines(keepends=True)))
        args = argparse.Namespace(log=log, profiles=sidebar_profile_file)
        records = []
        tracemalloc.start()
        try:
            cli._score_log(args, ab.BENGALI_TABLE,
                           lambda block, profiles: records.extend(block))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == sessions
        # Beside the records its scorer keeps, reading the log holds a block
        # or two, the line it parses and its own state, never the whole file.
        assert peak - held < 3 * cli._BLOCK_BYTES + longest

    def test_validate_log_peak_grows_less_than_the_parsed_log(
            self, tmp_path, sidebar_profile_file):
        peaks, parsed = [], []
        for sessions in (300, 1200):
            log = write_jsonl(tmp_path / f"log{sessions}.jsonl", [
                sidebar_log_obj(f"s{n}", f"p{n}") for n in range(sessions)])
            argv = ["validate-log", log, "--profiles", sidebar_profile_file,
                    "--out", str(tmp_path / "out.txt")]
            assert main(argv) == 0  # warm: the first run fills caches
            data = Path(log).read_bytes()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
                before = tracemalloc.get_traced_memory()[0]
                records = ab.parse_session_log(data)
                parsed.append(tracemalloc.get_traced_memory()[0] - before)
            finally:
                tracemalloc.stop()
            assert len(records) == sessions
            del records
        # 900 more sessions add their ids (LogState) and their output lines
        # to the run's peak: 0.20 MB here.  Holding the parsed log would add
        # its 900 more records, the 0.78 MB that the second measure counts.
        assert peaks[1] - peaks[0] < (parsed[1] - parsed[0]) / 2

    def test_one_parse_per_block(self, capsys, monkeypatch, tmp_path,
                                 sidebar_profile_file):
        sizes = []
        parse = cli.parse_session_log

        def measured(data, *args, **kwargs):
            sizes.append(len(data))
            return parse(data, *args, **kwargs)

        monkeypatch.setattr(cli, "parse_session_log", measured)
        log = write_jsonl(tmp_path / "log.jsonl", [
            sidebar_log_obj(f"s{n}", f"p{n}") for n in range(300)])
        code, out, _ = run(capsys, "validate-log", log,
                           "--profiles", sidebar_profile_file)
        assert (code, out.count("\tMATCH\n")) == (0, 300)
        size = Path(log).stat().st_size
        assert sum(sizes) == size
        assert len(sizes) == math.ceil(size / cli._BLOCK_BYTES) > 1


class TestErrorOrder:
    """Scoring each block as it is read reports the error that scoring the
    whole parsed log, in log order and both views together, reported."""

    MISMATCH = ("error: session s4: events replay to 'ক্ষণিকের অতথি', log says "
                "'ক্ষণিকের অতিথি'\n")

    @pytest.fixture
    def sessions(self):
        objs = [sidebar_log_obj(f"s{n}", f"p{n}") for n in range(1, 6)]
        objs[3]["transcribed"] = "ক্ষণিকের অতিথি"  # s4 is a mismatch
        return objs

    @pytest.mark.parametrize("command", ["analyze", "compare-naive"])
    def test_first_failing_session_wins(self, capsys, tmp_path,
                                        sidebar_profile_file, sessions, command):
        sessions[1]["events"].append({"t": 30000, "k": "edit", "p": ""})
        log = write_jsonl(tmp_path / "log.jsonl", sessions)
        assert run(capsys, command, log, "--profiles", sidebar_profile_file) == (
            1, "", "error: session s2: edit event at t=30000ms: cursor movement "
                   "is not replayable\n")

    @pytest.mark.parametrize("command", ["analyze", "compare-naive"])
    def test_mismatch(self, capsys, tmp_path, sidebar_profile_file, sessions,
                      command):
        log = write_jsonl(tmp_path / "log.jsonl", sessions)
        assert run(capsys, command, log, "--profiles", sidebar_profile_file) == (
            1, "", self.MISMATCH)

    @pytest.mark.parametrize("command", ["analyze", "compare-naive"])
    def test_bad_last_line_ahead_of_an_earlier_mismatch(
            self, capsys, tmp_path, sidebar_profile_file, sessions, command):
        log = write_jsonl(tmp_path / "log.jsonl", sessions)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("{oops\n")
        assert run(capsys, command, log, "--profiles", sidebar_profile_file) == (
            1, "", "error: line 6: invalid JSON: Expecting property name "
                   "enclosed in double quotes\n")



def reference_run(argv: list[str]) -> tuple[int, str, str]:
    """A log command's exit code, stdout and stderr, from the whole parsed log.

    Every line is parsed before any session is scored; then come the
    empty-log check, the missing-profile check and the sessions in log
    order, both views of a session together.
    """
    command, log, _, profile_path, *flags = argv
    profile = ab.parse_technique_profile(Path(profile_path).read_bytes())
    profiles = {profile.technique_id: profile}
    try:
        records = ab.parse_session_log(Path(log).read_bytes())
    except ab.AbugidaError as err:
        return 1, "", f"error: {err}\n"
    if not records:
        return 1, "", f"error: {log} contains no sessions\n"
    missing = sorted({r.technique_id for r in records} - set(profiles))
    if missing:
        return 2, "", f"error: no technique profile for: {', '.join(missing)}\n"
    config = ab.MetricConfig()
    try:
        if command == "analyze":
            results = [ab.analyze_session(r, profiles[r.technique_id], config)
                       for r in records]
            data = write_analysis_report(ab.aggregate(results), results,
                                         "json" if "json" in flags else "csv")
        elif command == "compare-naive":
            proposed, naive = [], []
            for r in records:
                proposed.append(ab.analyze_session(r, profiles[r.technique_id], config))
                naive.append(ab.naive_metrics(r, profiles[r.technique_id], config))
            data = write_compare_report(ab.aggregate(proposed), ab.aggregate(naive))
        else:
            lines, code = [], 0
            for r in records:
                try:
                    replayed = replay_transcription(r.events, profiles[r.technique_id])
                except ab.AbugidaError as err:
                    lines.append(f"{r.session_id}\tERROR\t{err}")
                    code = 3
                    continue
                if replay_matches(replayed, r.transcribed, ab.BENGALI_TABLE):
                    lines.append(f"{r.session_id}\tMATCH")
                else:
                    lines.append(f"{r.session_id}\tMISMATCH\treplayed {replayed!r}, "
                                 f"log says {r.transcribed!r}")
                    code = 3
            return code, "\n".join(lines) + "\n", ""
    except ab.AbugidaError as err:
        return 1, "", f"error: {err}\n"
    return 0, data.decode("utf-8"), ""


def faulty_log(rng: random.Random) -> list[str]:
    """The lines of a sidebar log, each fault in it or not, at random places."""
    sessions = max(0, rng.randrange(-2, 13))  # an empty log, at times
    objs = [sidebar_log_obj(f"s{n}", f"p{n % 3}") for n in range(sessions)]
    for fault in ("replay", "mismatch", "override", "technique", "unsorted"):
        if not objs or rng.random() < 0.6:
            continue
        obj = rng.choice(objs)
        if fault == "replay":
            obj["events"].append({"t": 30000, "k": "edit", "p": ""})
        elif fault == "mismatch":
            obj["transcribed"] = "ক্ষণিকের অতিথি"
        elif fault == "override":  # above the clusters only, or above both views
            obj["inf_override"] = rng.choice([10, 1000])
        elif fault == "technique":
            obj["technique_id"] = rng.choice(["no-such-kbd", "other-kbd"])
        else:  # out of order: a warning, logged as the line is parsed
            obj["events"][2]["t"] = 99_000
    lines = [json.dumps(obj, ensure_ascii=False) for obj in objs]
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["{oops", "[]"]))
    if not objs:
        lines += [""] * rng.randrange(3)  # an empty log, blank lines allowed
    return lines


@pytest.mark.parametrize("argv", [
    ["analyze", "--per-session"], ["analyze", "--per-session", "--format", "json"],
    ["compare-naive"], ["validate-log"]], ids=["csv", "json", "compare", "validate"])
@pytest.mark.parametrize("seed", range(40))
def test_error_order_of_the_whole_parsed_log(capsys, caplog, monkeypatch, tmp_path,
                                             sidebar_profile_file, argv, seed):
    rng = random.Random(seed)
    lines = faulty_log(rng)
    log = tmp_path / "log.jsonl"
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    full = [argv[0], str(log), "--profiles", sidebar_profile_file, *argv[1:]]
    with caplog.at_level(logging.WARNING):
        expected = reference_run(full)
        warned = caplog.messages[:]
        caplog.clear()
        # Blocks of a few lines each, so faults fall in different blocks.
        monkeypatch.setattr(cli, "_log_blocks", functools.partial(
            cli._log_blocks, size=rng.randrange(200, 3000)))
        assert run(capsys, *full) == expected
        assert caplog.messages == warned


@pytest.mark.parametrize("command", ["analyze", "compare-naive"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_word_length_must_be_finite_and_positive(capsys, command_argv, command,
                                                 value):
    with pytest.raises(SystemExit) as info:
        main([*command_argv[command], "--word-length", value])
    assert info.value.code == 2
    assert "--word-length" in capsys.readouterr().err


class TestTableOverride:
    def test_reclassification_applies(self, capsys, tmp_path, monkeypatch):
        lines = ab.BENGALI_TABLE.to_lines()
        lines = [("0995 Other" if l.startswith("0995 ") else l) for l in lines]
        table = tmp_path / "table.txt"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("ABUGIDA_TABLE", str(table))
        code, out, _ = run(capsys, "decompose", "ক")
        assert code == 0
        assert out.splitlines()[0] == "ক\tU+0995\tOther"

    def test_missing_table_exit_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ABUGIDA_TABLE", str(tmp_path / "none.txt"))
        code, _, err = run(capsys, "decompose", "ক")
        assert code == 1
        assert "ABUGIDA_TABLE" in err


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main([])


class TestParserPerCommand:
    """main builds only the parser of the command it runs."""

    # Help, errors and listings: the one-command parser must print what
    # the full parser prints, and exit with its code.
    @pytest.mark.parametrize("argv", [
        ["--help"], *([name, "--help"] for name in cli._COMMANDS),
        ["analyze"], ["bogus"], [],
        ["analyze", "log", "--profiles", "p", "--format", "xml"],
        ["msd", "a", "b", "--msd-cost-mode", "bogus"],
        ["decompose", "x", "--bogus"],
    ], ids=" ".join)
    def test_same_output_as_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, capsys.readouterr()) == (full.value.code, expected)

    def test_a_command_builds_two_parsers(self, capsys, monkeypatch,
                                          sidebar_log_file, sidebar_profile_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, _, _ = run(capsys, "analyze", sidebar_log_file,
                         "--profiles", sidebar_profile_file)
        assert code == 0
        assert built == ["abugida", "abugida analyze"]
        built.clear()
        cli.build_parser()
        assert len(built) == 1 + len(cli._COMMANDS)
