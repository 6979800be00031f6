"""The README's Library example runs as written.

The block is read from README.md and executed in a directory holding the
``sessions.jsonl`` it opens: one session that replays under the block's
profile.  A signature the docs show but the package no longer has fails
here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    session = {
        "session_id": "s1",
        "technique_id": "conjunct-key",
        "participant_id": "p1",
        "presented": "ক্ষার",
        "transcribed": "ক্ষার",
        "events": [{"t": 0, "k": "unit", "p": "ক্ষা"},
                   {"t": 600, "k": "char", "p": "র"}],
    }
    (tmp_path / "sessions.jsonl").write_text(
        json.dumps(session, ensure_ascii=False) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    # the values the block's comments state
    assert namespace["alignment"].distance == 0.25
    assert namespace["alignment"].inf == 4
    assert namespace["result"].intermediates.msd == 0
    assert namespace["result"].intermediates.os_t_length == 5
