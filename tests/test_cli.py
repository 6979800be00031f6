"""End-to-end command line behavior, including exit codes."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import abugida as ab
from abugida.cli import main
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
