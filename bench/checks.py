"""Output checks against the generator's ground truth.

Each check takes the report bytes a workload wrote and the truth rows
from ``gen.make_sessions`` and returns a list of problems; an empty list
means the report is correct.  Lengths, durations, erased material and
the speed and keystroke rates come from the generator directly.  The
alignment quantities (MSD, INF, C and the error rates built on them)
come from :func:`reference_alignment`, a small restatement of the
fractional-cost alignment over the generator's own output streams
(NFC codepoints) and visual clusters.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import unicodedata

import gen

STUDY_FIELDS = ("technique_id", "is_length", "os_p_length", "os_t_length",
                "seconds", "incorrect_fixed", "fixes", "inf", "correct")
METRICS = ("wpm_bn", "kspc_bn", "er_bn", "msder_bn", "total_error_rate")
RATES = frozenset({"er_bn", "msder_bn", "total_error_rate"})

# Conjuncts as codepoint tuples, longest first: the atomic units of the
# techniques that type them with one key.
_UNITS = sorted((tuple(c) for c in gen.CONJUNCTS), key=lambda u: (-len(u), u))
_HAS_UNITS = {tid: unit_keys for tid, unit_keys, _ in gen.TECHNIQUES}

MATCH = 0


def unit_ends(symbols: tuple[str, ...]) -> dict[int, int]:
    """Greedy leftmost-longest units: segment end index to unit length."""
    ends: dict[int, int] = {}
    i = 0
    while i < len(symbols):
        for unit in _UNITS:
            if symbols[i:i + len(unit)] == unit:
                ends[i + len(unit)] = len(unit)
                i += len(unit)
                break
        else:
            i += 1
    return ends


def reference_alignment(a: tuple[str, ...], b: tuple[str, ...],
                        units_a: dict[int, int], units_b: dict[int, int]
                        ) -> tuple[float, int]:
    """Distance and INF of the alignment of ``a`` to ``b``.

    Basic operations cost 1; deleting or inserting a whole unit of n
    symbols costs 1/n and substituting units costs 1/max(n, m), where a
    unit ends.  Among equal costs the first of match, substitute,
    delete, insert, unit substitute, unit delete, unit insert wins.  INF
    counts, along the chosen path, every non-match step by its width.
    """
    m, n = len(a), len(b)
    dist = [[0.0] * (n + 1) for _ in range(m + 1)]
    step = [bytearray(n + 1) for _ in range(m + 1)]  # MATCH or 16*da + db
    for i in range(m + 1):
        row, up, moves = dist[i], dist[i - 1], step[i]
        ka = units_a.get(i)
        x = a[i - 1] if i else None
        for j in range(0 if i else 1, n + 1):
            if not i:
                best, move = row[j - 1] + 1.0, 0x01
            elif not j:
                best, move = up[j] + 1.0, 0x10
            else:
                if x == b[j - 1]:
                    best, move = up[j - 1], MATCH
                else:
                    best, move = up[j - 1] + 1.0, 0x11
                c = up[j] + 1.0
                if c < best:
                    best, move = c, 0x10
                c = row[j - 1] + 1.0
                if c < best:
                    best, move = c, 0x01
            kb = units_b.get(j)
            if ka and kb and a[i - ka:i] != b[j - kb:j]:
                c = dist[i - ka][j - kb] + 1.0 / max(ka, kb)
                if c < best:
                    best, move = c, 16 * ka + kb
            if ka:
                c = dist[i - ka][j] + 1.0 / ka
                if c < best:
                    best, move = c, 16 * ka
            if kb:
                c = row[j - kb] + 1.0 / kb
                if c < best:
                    best, move = c, kb
            row[j] = best
            moves[j] = move
    inf = 0
    i, j = m, n
    while i or j:
        move = step[i][j]
        da, db = (1, 1) if move == MATCH else divmod(move, 16)
        if move != MATCH:
            inf += max(da, db)
        i, j = i - da, j - db
    return dist[m][n], inf


def expected(row: dict, naive: bool = False) -> dict:
    """Every reported quantity of one session, from its truth row.

    ``naive`` gives the glyph-level view: clusters as symbols, no units,
    and erasures counted per codepoint.
    """
    if naive:
        sym_t = tuple(gen.clusters(row["transcribed"]))
        sym_p = tuple(gen.clusters(row["presented"]))
        units_t = units_p = {}
        fixed = row["naive_incorrect_fixed"]
    else:
        sym_t, sym_p = (tuple(unicodedata.normalize("NFC", row[k]))
                        for k in ("transcribed", "presented"))
        with_units = _HAS_UNITS[row["technique_id"]]
        units_t = unit_ends(sym_t) if with_units else {}
        units_p = unit_ends(sym_p) if with_units else {}
        fixed = row["incorrect_fixed"]
    distance, inf = reference_alignment(sym_t, sym_p, units_t, units_p)
    t_len, p_len = len(sym_t), len(sym_p)
    return {
        "msd": distance,
        "inf": inf,
        "correct": t_len - inf,
        "wpm_bn": row["naive_wpm_bn" if naive else "wpm_bn"],
        "kspc_bn": row["naive_kspc_bn" if naive else "kspc_bn"],
        "er_bn": inf / t_len * 100.0,
        "msder_bn": distance / max(p_len, t_len) * 100.0,
        "total_error_rate": (inf + fixed) / (t_len + fixed) * 100.0,
    }


def _means(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Per-technique means as reports compute them: fmean over sorted values."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["technique_id"], []).append(row)
    return {tid: {"n_sessions": len(group),
                  **{k: statistics.fmean(sorted(r[k] for r in group)) for k in METRICS}}
            for tid, group in sorted(groups.items())}


def _expected_rows(truth: list[dict], naive: bool = False) -> list[dict]:
    return [{"technique_id": t["technique_id"], **expected(t, naive)} for t in truth]


def _cell(metric: str, value: float) -> str:
    return f"{value:.2f}%" if metric in RATES else f"{value:.2f}"


def _csv_rows(report: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(report.decode("utf-8"), newline="")))


def check_study(report: bytes, truth: list[dict]) -> list[str]:
    """``analyze --per-session --format json``: every row, then the summary."""
    try:
        obj = json.loads(report)
        rows, summary = obj["sessions"], obj["summary"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"study report is not the expected JSON: {err}"]
    problems = []
    if [r.get("session_id") for r in rows] != [t["session_id"] for t in truth]:
        problems.append("session rows are missing, extra or out of order")
    want_rows = _expected_rows(truth)
    for row, want, exp in zip(rows, truth, want_rows):
        want = {**want, **exp}
        for field in STUDY_FIELDS:
            if row.get(field) != want[field]:
                problems.append(f"{want['session_id']}: {field} is "
                                f"{row.get(field)!r}, expected {want[field]!r}")
        if not isinstance(row.get("msd"), float) or abs(row["msd"] - want["msd"]) > 1e-9:
            problems.append(f"{want['session_id']}: msd is {row.get('msd')!r}, "
                            f"expected {want['msd']!r}")
        for field in METRICS:
            if row.get(field) != round(want[field], 2):
                problems.append(f"{want['session_id']}: {field} is "
                                f"{row.get(field)!r}, expected {round(want[field], 2)!r}")
    expected_summary = [{"technique": tid, "n_sessions": means["n_sessions"],
                         **{k: round(means[k], 2) for k in METRICS}}
                        for tid, means in _means(want_rows).items()]
    got = [{k: s.get(k) for k in ("technique", "n_sessions", *METRICS)} for s in summary]
    if got != expected_summary:
        problems.append(f"summary is {got}, expected {expected_summary}")
    return problems


def check_summary_csv(report: bytes, truth: list[dict]) -> list[str]:
    """``analyze`` CSV summary: every metric's mean per technique."""
    rows = _csv_rows(report)
    header = ["technique", *METRICS, "n_sessions"]
    if not rows or rows[0] != header:
        return [f"summary header {rows[:1]}, expected {header}"]
    want = [[tid, *(_cell(k, means[k]) for k in METRICS), str(means["n_sessions"])]
            for tid, means in _means(_expected_rows(truth)).items()]
    return [] if rows[1:] == want else [f"summary rows {rows[1:]}, expected {want}"]


def check_compare_csv(report: bytes, truth: list[dict]) -> list[str]:
    """``compare-naive`` CSV: both pipelines' means per technique and metric."""
    rows = _csv_rows(report)
    if not rows or rows[0] != ["technique", "metric", "proposed", "naive", "delta"]:
        return [f"unexpected compare header {rows[:1]}"]
    proposed = _means(_expected_rows(truth))
    naive = _means(_expected_rows(truth, naive=True))
    want = [[tid, k, _cell(k, proposed[tid][k]), _cell(k, naive[tid][k])]
            for tid in proposed for k in METRICS]
    got = [r[:4] for r in rows[1:]]
    return [] if got == want else [f"compare rows {got}, expected {want}"]


def check_validate(report: bytes, truth: list[dict]) -> list[str]:
    """``validate-log``: MATCH for every session, in log order."""
    got = report.decode("utf-8").splitlines()
    expected_lines = [f"{t['session_id']}\tMATCH" for t in truth]
    if got == expected_lines:
        return []
    bad = [line for line in got if not line.endswith("\tMATCH")][:3]
    return [f"validate-log: {len(got)} lines, {len(expected_lines)} expected; "
            f"first non-MATCH lines {bad}"]


# Floor of the unattributed-time allowance, as a share of the traced run,
# for when the measured overhead reads low by noise.
UNATTRIBUTED_FLOOR = 0.02


def check_trace(layers: dict, unfired: list[str], traced_run_s: float,
                overhead_s: float) -> list[str]:
    """Every expected wrapper fired, and the layers account for the run.

    Time the root span spends outside every wrapped layer is its own
    self time; it must stay within the tracing overhead, so that work
    moved out of the wrapped functions shows as a failure here.
    """
    problems = [f"wrapper never fired: {name}" for name in unfired]
    if layers.get("trace.negative_self_spans", 0):
        problems.append("spans with negative self time")
    unattributed = layers["cli.main.self_s"]
    allowed = max(overhead_s, UNATTRIBUTED_FLOOR * traced_run_s)
    if unattributed > allowed:
        problems.append(f"{unattributed:.3f} s of the traced run is in no wrapped "
                        f"layer; allowed {allowed:.3f} s (the tracing overhead)")
    return problems
