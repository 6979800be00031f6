"""Report bytes are fixed: every report variant matches a committed file.

``golden/log.jsonl`` holds nine sessions under three profiles in
``golden/profiles``: a per-codepoint keyboard (basic), conjunct keys
erased per codepoint (conj-basic) and conjunct keys erased per unit
(conj-unit).  They cover backspaces after characters and after units,
uncorrected substitutions, omissions and insertions, an ``inf_override``,
a held modifier, digits, and the two-cluster unit কান্ড erased and
retyped.  ``golden/expected`` holds the bytes each command wrote for
them; any change to parsing, evaluation or rendering that moves a byte
fails here.  A change meant to move report bytes rewrites these files
with the command lines in ``VARIANTS`` and explains the diff.

Every check runs twice: under the built-in table, and with
``ABUGIDA_TABLE`` naming a file of the same records, so a table loaded
from disk reaches the profiles, the log and the evaluation alike.

``golden/unit_steps.jsonl`` holds eight sessions under the same profiles
whose optimal alignments take unit steps, so their paper and normalized
reports differ; ``golden/expected/unit_steps`` holds the same variants.
The transcribed stream T is aligned against the presented stream P.  A
basic step costs 1; a unit of k constituents costs 1/k to insert or
delete in the paper mode and 1 in the normalized mode, and a unit
substitution costs the edit of its longer unit.  INF counts the
constituents of every step that is not a match (a unit substitution
counts its longer unit), C = |OS_T| − INF, and IF counts the
constituents that backspaces erased.  Worked by hand, and checked below
against the reports and the exact ``Fraction`` table of
``tests/test_band.py``:

    session  profile     |OS_P| |OS_T|  IF   paper: msd INF C   normalized: msd INF C
    u01      conj-unit        9      6   0          1/3   3 3                 1   3 3
    u02      conj-unit        5      8   0          1/3   3 5                 1   3 5
    u03      conj-unit       10      8   0          1/5   5 3                 1   5 3
    u04      conj-unit        5      5   5            0   0 5                 0   0 5
    u05      conj-basic       9      6   0          1/3   3 3                 1   3 3
    u06      conj-basic       4      7   0          1/3   3 4                 1   3 4
    u07      conj-basic       4      4   0          1/3   3 1                 1   3 1
    u08      conj-basic       9      7   0          4/3   4 3                 2   2 5

* u01 and u05 omit ক্ষ: one unit insert.  u02 and u06 type a unit
  twice: one unit delete.
* u03 types ক্ষ, its key payload and transcription spelled with a ZWJ,
  for স্ত্র: a unit substitution of 3 and 5 constituents, 1/5 in the
  paper mode.  u07 types ক্ষ for স্ত under conj-basic, whose units all
  have 3 constituents.
* u04 types স্ত্র and erases it whole with one backspace (F = 1, IF = 5)
  before typing কান্ড: T equals P.
* u08 types ড for ন্ড.  In the paper mode the unit insert of ন্ড and the
  delete of ড cost 1/3 + 1 = 4/3, less than the two inserts of ন and ্.
  In the normalized mode both paths cost 2, and the tie break, basic
  steps before unit steps, takes the two inserts: INF 2, where the unit
  path would give 4.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import abugida as ab
from abugida.cli import main
from test_band import COSTS, full_table_align, unit_ends

GOLDEN = Path(__file__).parent / "golden"
UNIT_STEPS = GOLDEN / "expected" / "unit_steps"

VARIANTS = {
    "analyze.csv": ["analyze"],
    "analyze.json": ["analyze", "--format", "json"],
    "per_session.csv": ["analyze", "--per-session"],
    "per_session.json": ["analyze", "--per-session", "--format", "json"],
    "per_session_normalized.json": ["analyze", "--per-session", "--format", "json",
                                    "--msd-cost-mode", "normalized"],
    "compare.csv": ["compare-naive"],
    "compare.json": ["compare-naive", "--format", "json"],
    "compare_normalized.csv": ["compare-naive", "--msd-cost-mode", "normalized"],
    "validate.txt": ["validate-log"],
}


def table_sources(tmp_path, monkeypatch):
    """Name each table source while the CLI would use it."""
    monkeypatch.delenv("ABUGIDA_TABLE", raising=False)
    yield "built-in"
    table = tmp_path / "table.txt"
    table.write_text("\n".join(ab.BENGALI_TABLE.to_lines()) + "\n",
                     encoding="utf-8")
    monkeypatch.setenv("ABUGIDA_TABLE", str(table))
    yield "ABUGIDA_TABLE"


def assert_report_bytes(tmp_path, monkeypatch, log: Path, expected: Path) -> None:
    command, *flags = VARIANTS[expected.name]
    out = tmp_path / expected.name
    for source in table_sources(tmp_path, monkeypatch):
        code = main([command, str(log), "--profiles", str(GOLDEN / "profiles"),
                     *flags, "--out", str(out)])
        assert code == 0, source
        assert out.read_bytes() == expected.read_bytes(), source


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_report_bytes(tmp_path, monkeypatch, name):
    assert_report_bytes(tmp_path, monkeypatch, GOLDEN / "log.jsonl",
                        GOLDEN / "expected" / name)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_unit_step_report_bytes(tmp_path, monkeypatch, name):
    assert_report_bytes(tmp_path, monkeypatch, GOLDEN / "unit_steps.jsonl",
                        UNIT_STEPS / name)


@pytest.mark.parametrize("paper, normalized", [
    ("per_session.json", "per_session_normalized.json"),
    ("compare.csv", "compare_normalized.csv"),
])
def test_unit_step_cost_modes_differ(paper, normalized):
    assert (UNIT_STEPS / paper).read_bytes() != (UNIT_STEPS / normalized).read_bytes()


def hand_worked() -> dict[str, tuple]:
    """The rows of the table in this module's docstring, by session id.

    Each row is its profile, |OS_P|, |OS_T| and IF, then msd, INF and C
    in each cost mode, every number a ``Fraction``.
    """
    rows = {}
    for sid, profile, *cells in re.findall(
            r"^ +(u\d+) +(\S+)" + r" +(\S+)" * 9 + "$", __doc__, re.MULTILINE):
        os_p, os_t, fixed, *modes = map(Fraction, cells)
        rows[sid] = (profile, os_p, os_t, fixed, (modes[:3], modes[3:]))
    return rows


def test_unit_steps_are_worked_by_hand():
    rows = hand_worked()
    records = ab.parse_session_log((GOLDEN / "unit_steps.jsonl").read_bytes())
    assert sorted(rows) == [r.session_id for r in records]
    for record in records:
        profile = ab.parse_technique_profile(
            (GOLDEN / "profiles" / f"{record.technique_id}.json").read_bytes())
        t, p = (ab.to_output_stream(x).text for x in (record.transcribed, record.presented))
        units = unit_ends(record.transcribed, profile), unit_ends(record.presented, profile)
        name, os_p, os_t, fixed, modes = rows[record.session_id]
        assert name == record.technique_id
        for cost, report, (msd, inf, correct) in zip(
                COSTS, ("per_session.json", "per_session_normalized.json"), modes):
            exact, exact_inf, _ = full_table_align(t, p, *units, cost)
            assert (exact, exact_inf, len(t) - exact_inf) == (msd, inf, correct)
            row, = (s for s in json.loads((UNIT_STEPS / report).read_bytes())["sessions"]
                    if s["session_id"] == record.session_id)
            assert (row["os_p_length"], row["os_t_length"], row["incorrect_fixed"],
                    row["msd"], row["inf"], row["correct"]) == (
                        os_p, os_t, fixed, float(msd), inf, correct), report


@pytest.mark.parametrize("name", ["analyze.csv", "compare.csv"])
def test_summary_bytes_ignore_log_order(tmp_path, monkeypatch, name):
    lines = (GOLDEN / "log.jsonl").read_bytes().splitlines(keepends=True)
    rng = random.Random(7)
    for source in table_sources(tmp_path, monkeypatch):
        for trial in range(4):
            rng.shuffle(lines)
            log = tmp_path / f"log{trial}.jsonl"
            log.write_bytes(b"".join(lines))
            out = tmp_path / f"{trial}-{name}"
            code = main([*VARIANTS[name], str(log), "--profiles",
                         str(GOLDEN / "profiles"), "--out", str(out)])
            assert code == 0, source
            assert out.read_bytes() == (
                GOLDEN / "expected" / name).read_bytes(), source
