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
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import abugida as ab
from abugida.cli import main

GOLDEN = Path(__file__).parent / "golden"

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


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_report_bytes(tmp_path, monkeypatch, name):
    command, *flags = VARIANTS[name]
    out = tmp_path / name
    for source in table_sources(tmp_path, monkeypatch):
        code = main([command, str(GOLDEN / "log.jsonl"),
                     "--profiles", str(GOLDEN / "profiles"), *flags,
                     "--out", str(out)])
        assert code == 0, source
        assert out.read_bytes() == (GOLDEN / "expected" / name).read_bytes(), source


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
