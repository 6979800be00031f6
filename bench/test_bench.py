"""Self-tests of the benchmark: generator, output checks and tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from abugida import cli  # noqa: E402
from abugida.bengali import segment_graphemes, to_output_stream  # noqa: E402
from abugida.sessionio import parse_session_log, parse_technique_profile  # noqa: E402
from abugida.streams import replay_events, replay_transcription  # noqa: E402

LENGTHS = [20, 35, 60, 45, 28, 52] * 5


def _write_inputs(tmp_path, lengths):
    data, truth = gen.make_sessions(11, lengths)
    log = tmp_path / "log.jsonl"
    log.write_bytes(data)
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for name, blob in gen.profile_bytes().items():
        (profiles / name).write_bytes(blob)
    return log, profiles, truth


@pytest.fixture
def inputs(tmp_path):
    return _write_inputs(tmp_path, LENGTHS)


def _report(tmp_path, inputs, workload: str, tracer=None) -> bytes:
    log, profiles, _ = inputs
    cmd, *flags = run.WORKLOADS[workload].argv
    out = tmp_path / f"{workload}.out"
    argv = [cmd, str(log), "--profiles", str(profiles), *flags, "--out", str(out)]
    rc = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
    assert rc == 0
    return out.read_bytes()


def test_generator_is_deterministic_per_seed():
    first = gen.make_sessions(5, LENGTHS)
    assert gen.make_sessions(5, LENGTHS) == first
    assert gen.make_sessions(6, LENGTHS)[0] != first[0]
    assert run.lengths_for("study", 3) == run.lengths_for("study", 3)


def test_generated_logs_replay_to_transcribed(inputs):
    log, profiles, truth = inputs
    table = {p.stem: parse_technique_profile(p.read_bytes())
             for p in profiles.iterdir()}
    records = parse_session_log(log.read_bytes())
    assert {r.technique_id for r in records} == set(table)
    for record, want in zip(records, truth, strict=True):
        profile = table[record.technique_id]
        assert replay_transcription(record.events, profile) == record.transcribed
        erased = replay_events(record.events, profile).erased
        assert sum(to_output_stream(a).length for a in erased) == want["incorrect_fixed"]
        assert len(replay_events(record.events).erased) == want["naive_incorrect_fixed"]
        assert to_output_stream(record.transcribed).length == want["os_t_length"]
        assert [c.text for c in segment_graphemes(record.transcribed)] == \
            gen.clusters(record.transcribed)
    # The typist makes and fixes mistakes, with both kinds of unit key.
    assert sum(t["fixes"] for t in truth) > 0
    assert any(e["k"] == "unit" for line in log.read_bytes().splitlines()
               for e in json.loads(line)["events"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_checks_accept_real_reports(tmp_path, inputs, workload):
    report = _report(tmp_path, inputs, workload)
    assert run.WORKLOADS[workload].check(report, inputs[2]) == []


def test_checks_reject_corrupted_reports(tmp_path, inputs):
    truth = inputs[2]
    study = json.loads(_report(tmp_path, inputs, "study"))
    study["sessions"][3]["fixes"] += 1
    corrupted = json.dumps(study).encode()
    assert any("fixes" in p for p in checks.check_study(corrupted, truth))

    summary = _report(tmp_path, inputs, "longtext").replace(b",10\r\n", b",11\r\n")
    assert checks.check_summary_csv(summary, truth)

    compare = _report(tmp_path, inputs, "naive").decode().splitlines(keepends=True)
    tid, metric, proposed, naive, delta = compare[1].rstrip().split(",")
    compare[1] = f"{tid},{metric},{proposed},{float(naive) + 1:.2f},{delta}\r\n"
    assert checks.check_compare_csv("".join(compare).encode(), truth)

    valid = _report(tmp_path, inputs, "validate")
    assert checks.check_validate(valid.replace(b"MATCH", b"MISMATCH", 1), truth)


def test_tracing_keeps_report_bytes_and_fires_every_wrapper(tmp_path, inputs):
    for workload in sorted(run.WORKLOADS):
        plain = _report(tmp_path, inputs, workload)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = _report(tmp_path, inputs, workload, tracer)
        finally:
            tracer.uninstall()
        assert traced == plain
        command = run.WORKLOADS[workload].argv[0]
        assert tracer.unfired(command) == []
        layers = tracer.summary()
        assert layers["trace.negative_self_spans"] == 0
        assert layers["cli.main.calls"] == 1


def test_missing_wrapper_fails_the_check(tmp_path, inputs):
    renamed = ("cli", "parse_session_log_v2", "sessionio.parse_session_log",
               spans.ALL, None)
    tracer = spans.Tracer(spans.BINDINGS + (renamed,))
    tracer.install()
    try:
        _report(tmp_path, inputs, "validate", tracer)
    finally:
        tracer.uninstall()
    unfired = tracer.unfired("validate-log")
    assert unfired == ["cli.parse_session_log_v2"]
    problems = checks.check_trace(tracer.summary(), unfired, 0.0, 0.0)
    assert any("parse_session_log_v2" in p for p in problems)


def test_unwrapped_work_fails_the_accounting_check(tmp_path):
    """Work under the root that no wrapper covers is caught as such."""
    # Enough sessions that ingest outweighs the command's fixed cost.
    inputs = _write_inputs(tmp_path, LENGTHS * 10)
    dropped = tuple(b for b in spans.BINDINGS if b[:2] != ("cli", "parse_session_log"))
    unattributed = []
    for bindings in (spans.BINDINGS, dropped):
        tracer = spans.Tracer(bindings)
        tracer.install()
        try:
            start = time.perf_counter()
            _report(tmp_path, inputs, "validate", tracer)
            run_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        assert tracer.unfired("validate-log") == []
        layers = tracer.summary()
        unattributed.append(layers["cli.main.self_s"])
    assert unattributed[1] > 5 * unattributed[0]
    problems = checks.check_trace(layers, [], run_s, 0.0)
    assert any("in no wrapped layer" in p for p in problems)


# A stand-in for a measured process that keeps the machine busy: while
# it sleeps for 0.5 s, a second thread and two worker processes spin.
_STUB = """
import json, subprocess, sys, threading, time
stop = threading.Event()
def spin():
    while not stop.is_set():
        pass
workers = []
if sys.argv[1] == "busy":
    threading.Thread(target=spin).start()
    workers = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
               for _ in range(2)]
start = time.monotonic()
time.sleep(0.5)
end = time.monotonic()
stop.set()
for w in workers:
    w.kill()
    w.wait()
print(json.dumps({"run_start": start, "run_end": end}))
"""


def _stub_run(kind: str) -> dict:
    done = run.run_process(lambda launch: [sys.executable, "-c", _STUB, kind],
                           sampled=True)
    assert done.returncode == 0, done.stderr
    assert done.sampler.chunks
    return run.rescaled_run(done.result, done.sampler)


def test_busy_measured_process_does_not_lower_run_ref_s():
    """The reference work runs only while the measured process group is
    stopped, so its threads and workers cannot slow the reference."""
    idle, busy = _stub_run("idle"), _stub_run("busy")
    # Machine speed drifts between the two; a reference timed inside the
    # busy process, behind the spinning thread, would read many times slower.
    assert busy["ref_chunk_s"] < 1.5 * idle["ref_chunk_s"]
    assert busy["run_ref_s"] > idle["run_ref_s"] / 1.5


def test_reference_alignment_detects_a_wrong_alignment(tmp_path, inputs):
    truth = inputs[2]
    study = json.loads(_report(tmp_path, inputs, "study"))
    row = next(r for r in study["sessions"] if r["inf"] > 0)
    row["inf"] -= 1
    row["correct"] += 1
    assert any("inf" in p for p in checks.check_study(json.dumps(study).encode(), truth))
    study = json.loads(_report(tmp_path, inputs, "study"))
    row = next(r for r in study["sessions"] if r["msd"] > 0)
    row["msd"] += 0.5
    assert any("msd" in p for p in checks.check_study(json.dumps(study).encode(), truth))


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
