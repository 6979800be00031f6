"""Malformed input never crashes the command line.

``cli.main`` runs in process on random bytes and on golden files with
one mutation each: a truncation, a value swapped for one of another
JSON type, a number past a bound, deep nesting, a lone surrogate, a
deleted key or invalid UTF-8.  Every run must return an exit code the
CLI documents, and every failing run must say why on one ``error:``
line (or, for validate-log's exit 3, in its report).
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abugida.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
LOG = (GOLDEN / "log.jsonl").read_bytes()
PROFILE = (GOLDEN / "profiles" / "conj-unit.json").read_bytes()
COMMANDS = ("analyze", "compare-naive", "validate-log")

# JSON texts of every type, numbers past each bound the parser sets, and
# strings with lone surrogates, as raw text to splice into a file.
VALUES = (
    "null", "true", "false", "0", "-1", "1.5", "-0.0", '""', '"x"', "[]", "{}",
    '{"t": 0}', '["ক"]', str(2 ** 53), str(2 ** 53 + 1), "9" * 400, "9" * 5000,
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    '"\\ud800"', '"\\u0995\\udfff"', "[" * 100_000, "[" * 50 + "]" * 50,
    '{"a": ' * 50 + "1" + "}" * 50,
)
BAD_BYTES = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\n", b'"', b"[", b"{")
MARK = "\x00mutated\x00"


def paths(value, path=()):
    """Every key path into a JSON value, the value itself first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from paths(item, path + (key,))


@st.composite
def mutated_json(draw, text: bytes) -> bytes:
    """``text`` with one mutation, byte-level or at a drawn JSON path."""
    op = draw(st.sampled_from(("replace", "delete", "truncate", "insert")))
    at = draw(st.integers(0, len(text)))
    if op == "truncate":
        return text[:at]
    if op == "insert":
        return text[:at] + draw(st.sampled_from(BAD_BYTES)) + text[at:]
    obj = json.loads(text)
    path = draw(st.sampled_from(list(paths(obj))))
    raw = draw(st.sampled_from(VALUES))
    if not path:
        return raw.encode()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
        return json.dumps(obj, ensure_ascii=False).encode()
    parent[path[-1]] = MARK
    return json.dumps(obj, ensure_ascii=False).replace(json.dumps(MARK), raw).encode()


@st.composite
def mutated_log(draw) -> bytes:
    lines = LOG.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = draw(mutated_json(lines[i]))
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(workdir, command: str, log: bytes, profile: bytes) -> None:
    """Run ``command`` on ``log`` and ``profile``; check its exit and stderr."""
    (workdir / "log.jsonl").write_bytes(log)
    (workdir / "profiles").mkdir(exist_ok=True)
    for path in (GOLDEN / "profiles").glob("*.json"):
        data = profile if path.name == "conj-unit.json" else path.read_bytes()
        (workdir / "profiles" / path.name).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(workdir / "log.jsonl"),
                     "--profiles", str(workdir / "profiles")])
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert (out.getvalue(), len(errors)) == ("", 1)
    else:
        assert errors == []
        assert out.getvalue()  # the report, validate-log's mismatches included


FUZZ = settings(max_examples=60, deadline=None)


@FUZZ
@given(command=st.sampled_from(COMMANDS), log=st.binary(max_size=200))
def test_random_log_bytes(workdir, command, log):
    run_cli(workdir, command, log, PROFILE)


@FUZZ
@given(command=st.sampled_from(COMMANDS), profile=st.binary(max_size=200))
def test_random_profile_bytes(workdir, command, profile):
    run_cli(workdir, command, LOG, profile)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS), log=mutated_log())
def test_mutated_log_line(workdir, command, log):
    run_cli(workdir, command, log, PROFILE)


@FUZZ
@given(command=st.sampled_from(COMMANDS), profile=mutated_json(PROFILE))
def test_mutated_profile(workdir, command, profile):
    run_cli(workdir, command, LOG, profile)
