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
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from abugida.cli import main

GOLDEN = Path(__file__).parent / "golden"

VARIANTS = {
    "analyze.csv": ["analyze"],
    "analyze.json": ["analyze", "--format", "json"],
    "per_session.csv": ["analyze", "--per-session"],
    "per_session.json": ["analyze", "--per-session", "--format", "json"],
    "compare.csv": ["compare-naive"],
    "compare.json": ["compare-naive", "--format", "json"],
    "validate.txt": ["validate-log"],
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_report_bytes(tmp_path, name):
    command, *flags = VARIANTS[name]
    out = tmp_path / name
    code = main([command, str(GOLDEN / "log.jsonl"),
                 "--profiles", str(GOLDEN / "profiles"), *flags,
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "expected" / name).read_bytes()


@pytest.mark.parametrize("name", ["analyze.csv", "compare.csv"])
def test_summary_bytes_ignore_log_order(tmp_path, name):
    lines = (GOLDEN / "log.jsonl").read_bytes().splitlines(keepends=True)
    rng = random.Random(7)
    for trial in range(4):
        rng.shuffle(lines)
        log = tmp_path / f"log{trial}.jsonl"
        log.write_bytes(b"".join(lines))
        out = tmp_path / f"{trial}-{name}"
        code = main([*VARIANTS[name], str(log),
                     "--profiles", str(GOLDEN / "profiles"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "expected" / name).read_bytes()
