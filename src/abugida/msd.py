"""Minimum string distance over output streams, with atomic-unit costs.

Plain character-level edit distance misprices entry techniques that
commit several basic characters with one action (conjunct keys, gesture
units).  Under the fractional cost model, inserting or deleting a whole
atomic unit of n constituents costs 1/n instead of n, and substituting
one unit for another costs 1/max(n, m); basic character operations keep
cost 1.  A normalized mode prices every unit operation at a flat 1.0
for sensitivity comparisons.

Unit operations only apply where the greedy leftmost-longest
segmentation (:func:`atomic_unit_segment`) actually finds a declared
unit, so the dynamic program stays a standard weighted alignment with a
few extra transitions.  Ties are broken deterministically: match over
substitute over delete over insert, and basic-character transitions
over unit transitions.

A :class:`TechniqueProfile` carries the classification table it was
built under and flattens its units under it once, when it is built;
:func:`msd` and :func:`atomic_unit_segment` read those and take no
table.

:func:`align_symbols` gives the full table's distance, INF and script
but computes only a band of diagonals around the optimal path (Ukkonen
1985), sized from a first, narrow pass's cost.  INF is carried forward
along each cell's argmin, so no table is needed for it, and only the
last k + 1 rows are kept (k is the longest unit).  The edit script's
backpointers are stored, for the band only, when ``script=True``; the
metrics ask for ``script=False``.  Time grows with length times band
width, not with the product of the lengths, and without a script memory
grows with length alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Mapping, Sequence

from .bengali import BENGALI_TABLE, CharTable, OutputStream, to_output_stream

__all__ = [
    "BackspaceGranularity",
    "TechniqueProfile",
    "CostMode",
    "CostModel",
    "Segment",
    "EditOpKind",
    "EditOp",
    "AlignmentResult",
    "atomic_unit_segment",
    "align_symbols",
    "msd",
]


@unique
class BackspaceGranularity(str, Enum):
    """What one backspace erases for a given technique."""

    BASIC = "basic"  # one constituent character
    UNIT = "unit"    # a whole committed unit, else one character


@unique
class CostMode(str, Enum):
    PAPER_LITERAL = "paper"        # unit ops cost 1/n (1/max(n, m) for substitution)
    NORMALIZED_UNIT = "normalized"  # every unit op costs 1.0


@dataclass(frozen=True)
class TechniqueProfile:
    """How a text-entry technique maps actions to constituent characters.

    ``atomic_units`` are canonical text, as the profile parser makes
    them: replay compares unit payloads with them as they are.
    ``unit_keys`` names the keys that commit each declared unit.  The
    profile parser checks that every payload is a declared unit, but it
    is metadata only: replay and alignment never read it.

    ``table`` is the classification table the profile is evaluated
    under: replay and the metrics flatten the session's texts with it,
    so one table decides every constituent of an evaluation.  It is not
    compared or shown, and ``dataclasses.replace`` keeps it.
    ``unit_seqs`` is derived once, here: the units' output-stream text
    under ``table``, those of two symbols or more, longest first.
    Alignment and :func:`atomic_unit_segment` read it.
    """

    technique_id: str
    atomic_units: frozenset[str] = frozenset()
    unit_keys: Mapping[str, str] = field(default_factory=dict)
    backspace_granularity: BackspaceGranularity = BackspaceGranularity.BASIC
    table: CharTable = field(default=BENGALI_TABLE, compare=False, repr=False)
    unit_seqs: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atomic_units", frozenset(self.atomic_units))
        object.__setattr__(self, "backspace_granularity",
                           BackspaceGranularity(self.backspace_granularity))
        seqs = {to_output_stream(unit, self.table).text for unit in self.atomic_units}
        object.__setattr__(self, "unit_seqs", tuple(sorted(
            (s for s in seqs if len(s) >= 2), key=lambda s: (-len(s), s))))


@dataclass(frozen=True)
class CostModel:
    """Operation costs for the alignment.  Basic character ops cost 1."""

    mode: CostMode = CostMode.PAPER_LITERAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", CostMode(self.mode))

    def unit_edit_cost(self, n: int) -> float:
        if self.mode is CostMode.PAPER_LITERAL:
            return 1.0 / n
        return 1.0

    def unit_substitute_cost(self, n: int, m: int) -> float:
        if self.mode is CostMode.PAPER_LITERAL:
            return 1.0 / max(n, m)
        return 1.0


@dataclass(frozen=True, slots=True)
class Segment:
    """Half-open slice [start, end) of a stream; a unit or one character."""

    start: int
    end: int
    text: str
    is_unit: bool


@unique
class EditOpKind(str, Enum):
    MATCH = "match"
    SUBSTITUTE = "substitute"
    DELETE = "delete"
    INSERT = "insert"
    UNIT_SUBSTITUTE = "unit-substitute"
    UNIT_DELETE = "unit-delete"
    UNIT_INSERT = "unit-insert"


@dataclass(frozen=True, slots=True)
class EditOp:
    """One alignment step.  ``source`` comes from a, ``target`` from b."""

    kind: EditOpKind
    pos_a: int
    pos_b: int
    source: tuple[str, ...]
    target: tuple[str, ...]
    cost: float

    @property
    def source_text(self) -> str:
        return "".join(self.source)

    @property
    def target_text(self) -> str:
        return "".join(self.target)


@dataclass(frozen=True)
class AlignmentResult:
    distance: float
    script: tuple[EditOp, ...]
    inf: int


def _greedy_unit_ends(symbols: Sequence[str],
                      unit_seqs: Sequence[Sequence[str]]) -> dict[int, int]:
    """Greedy leftmost-longest pass; maps segment end index to unit length.

    ``unit_seqs`` come longest first; only the units that start with the
    symbol at hand are tried, in that order.
    """
    by_first: dict[str, list[Sequence[str]]] = {}
    for seq in unit_seqs:
        by_first.setdefault(seq[0], []).append(seq)
    ends: dict[int, int] = {}
    i, n = 0, len(symbols)
    while i < n:
        for seq in by_first.get(symbols[i], ()):
            k = len(seq)
            if symbols[i:i + k] == seq:
                ends[i + k] = k
                i += k
                break
        else:
            i += 1
    return ends


def atomic_unit_segment(stream: OutputStream,
                        profile: TechniqueProfile | None) -> list[Segment]:
    """Partition a stream into unit segments and single characters.

    Greedy and leftmost: at each position the longest declared unit that
    matches wins; otherwise one character becomes its own segment.  The
    segments concatenate back to the stream.
    """
    symbols = stream.text
    ends = _greedy_unit_ends(symbols, profile.unit_seqs if profile else ())
    starts = {end - k: end for end, k in ends.items()}
    segments: list[Segment] = []
    i = 0
    while i < len(symbols):
        end = starts.get(i)
        if end is not None:
            segments.append(Segment(i, end, symbols[i:end], True))
            i = end
        else:
            segments.append(Segment(i, i + 1, symbols[i], False))
            i += 1
    return segments


_INF = float("inf")
# Stands before b[0]: equal to no symbol, so column 0 has no diagonal step.
_NO_SYMBOL = object()
_MATCH = (EditOpKind.MATCH, 1, 1, 0.0)
_SUBSTITUTE = (EditOpKind.SUBSTITUTE, 1, 1, 1.0)
_DELETE = (EditOpKind.DELETE, 1, 0, 1.0)
_INSERT = (EditOpKind.INSERT, 0, 1, 1.0)
# The first pass keeps this many diagonals on each side of [0, n - m].
_NARROW = 4
# Relative slack on the band's cost bound, far above float rounding.
_SLACK = 1e-9

_Op = tuple[EditOpKind, int, int, float]


def _checked_units(units: Mapping[int, int] | None, length: int,
                   side: str) -> dict[int, int]:
    checked = dict(units or {})
    for end, k in checked.items():
        if not 1 <= k <= end <= length:
            raise ValueError(f"{side}: a unit of length {k} cannot end at "
                             f"{end} in a sequence of {length} symbols")
    return checked


def _cost_per_offset(ua: Mapping[int, int], ub: Mapping[int, int],
                     cost: CostModel) -> float:
    """Least cost per diagonal moved, over every transition the maps allow."""
    lens_a, lens_b = set(ua.values()), set(ub.values())
    c = 1.0  # basic steps
    for k in lens_a | lens_b:
        c = min(c, cost.unit_edit_cost(k) / k)
    for ka in lens_a:
        for kb in lens_b - {ka}:
            c = min(c, cost.unit_substitute_cost(ka, kb) / abs(ka - kb))
    return c


def _band_pass(a: tuple[str, ...], b: tuple[str, ...],
               ua: Mapping[int, int], ub: Mapping[int, int], cost: CostModel,
               lo: int, hi: int, script: bool,
               ) -> tuple[float, int, tuple[EditOp, ...]]:
    """The DP over the cells with lo <= j - i <= hi; the rest cost INF.

    Rows are indexed by j + 1, so position 0 is an INF column left of the
    table.  Only the last k + 1 rows are kept (k is the longest unit),
    each with the INF count carried along its cell's argmin; with
    ``script`` the band's ops are kept for the backtrack.
    """
    m, n = len(a), len(b)
    depth = max((*ua.values(), *ub.values()), default=0) + 1
    bb = (_NO_SYMBOL,) + b
    kbs = [0] * (n + 1)
    for j, kb in ub.items():
        kbs[j] = kb
    b_units = {j: b[j - kb:j] for j, kb in ub.items()}
    dist: list[list[float]] = [[_INF] * (n + 2)] * depth
    infs: list[list[int]] = [[0] * (n + 2)] * depth
    back: list[tuple[int, list[_Op | None]]] = []
    for i in range(m + 1):
        prev, prevf = dist[(i - 1) % depth], infs[(i - 1) % depth]
        row, rowf = [_INF] * (n + 2), [0] * (n + 2)
        ai = a[i - 1] if i else _NO_SYMBOL
        ka = ua.get(i, 0)
        if ka:
            urow, urowf = dist[(i - ka) % depth], infs[(i - ka) % depth]
            sa = a[i - ka:i]
            del_w = cost.unit_edit_cost(ka)
        js, je = max(0, i + lo), min(n, i + hi)
        ops: list[_Op | None] = []
        if i == 0:
            row[1] = 0.0
            ops.append(None)
        j0 = js + (i == 0)
        left, leftf = row[j0], rowf[j0]
        for j, bj, kb, dg, dgf, up, upf in zip(
                range(j0, je + 1), bb[j0:je + 1], kbs[j0:je + 1],
                prev[j0:je + 1], prevf[j0:je + 1],
                prev[j0 + 1:je + 2], prevf[j0 + 1:je + 2]):
            if ai == bj:
                best, f, op = dg, dgf, _MATCH
            else:
                best, f, op = dg + 1.0, dgf + 1, _SUBSTITUTE
            c = up + 1.0
            if c < best:
                best, f, op = c, upf + 1, _DELETE
            c = left + 1.0
            if c < best:
                best, f, op = c, leftf + 1, _INSERT
            if kb or ka:
                if kb and ka and sa != b_units[j]:
                    w = cost.unit_substitute_cost(ka, kb)
                    c = urow[j - kb + 1] + w
                    if c < best:
                        best, f = c, urowf[j - kb + 1] + max(ka, kb)
                        op = (EditOpKind.UNIT_SUBSTITUTE, ka, kb, w)
                if ka:
                    c = urow[j + 1] + del_w
                    if c < best:
                        best, f = c, urowf[j + 1] + ka
                        op = (EditOpKind.UNIT_DELETE, ka, 0, del_w)
                if kb:
                    w = cost.unit_edit_cost(kb)
                    c = row[j - kb + 1] + w
                    if c < best:
                        best, f = c, rowf[j - kb + 1] + kb
                        op = (EditOpKind.UNIT_INSERT, 0, kb, w)
            row[j + 1] = left = best
            rowf[j + 1] = leftf = f
            if script:
                ops.append(op)
        dist[i % depth], infs[i % depth] = row, rowf
        if script:
            back.append((js, ops))

    steps: list[EditOp] = []
    i, j = m, n
    while script and (i or j):
        js, ops = back[i]
        op = ops[j - js]
        assert op is not None
        kind, da, db, w = op
        steps.append(EditOp(kind, i - da, j - db, a[i - da:i], b[j - db:j], w))
        i -= da
        j -= db
    steps.reverse()
    return dist[m % depth][n + 1], infs[m % depth][n + 1], tuple(steps)


def align_symbols(a: Sequence[str],
                  b: Sequence[str],
                  units_a: Mapping[int, int] | None = None,
                  units_b: Mapping[int, int] | None = None,
                  cost: CostModel = CostModel(),
                  *,
                  script: bool = True) -> AlignmentResult:
    """Weighted alignment of two symbol sequences.

    ``units_a``/``units_b`` map a segment's end index to its length for
    every position where a whole-unit transition is allowed; an entry
    outside ``1 <= length <= end <= len(seq)`` is a ``ValueError``.
    Symbols are compared by equality; for output streams they are single
    characters, for the legacy view they are grapheme cluster texts.

    The result equals the full (m+1)×(n+1) table's, ties included, but
    only a band of diagonals d = j - i is computed (Ukkonen 1985).  A
    step that moves k diagonals costs at least c_min·k, where c_min is 1
    for basic steps and the least unit cost per symbol of length
    difference, so a path through diagonal d costs at least
    c_min·(|d| + |d − δ|) with δ = n − m.  A first pass in the band
    [min(0, δ) − 4, max(0, δ) + 4] gives an upper bound U, and a second
    pass keeps the diagonals whose bound is within U: every optimal or
    tied path lies there, so each of its cells gets the full table's
    value and argmin.  INF, the width of every non-match step on the
    path, is carried forward along each cell's argmin.

    Time is O((m + n)·w) for a band of w diagonals, and memory O(k·n)
    for the last k + 1 rows, k being the longest unit.  ``script=False``
    skips the edit script (``result.script == ()``); otherwise the
    band's backpointers add O(m·w).
    """
    a = tuple(a)
    b = tuple(b)
    m, n = len(a), len(b)
    ua = _checked_units(units_a, m, "units_a")
    ub = _checked_units(units_b, n, "units_b")
    delta = n - m
    lo, hi = min(0, delta) - _NARROW, max(0, delta) + _NARROW
    distance, inf, steps = _band_pass(a, b, ua, ub, cost, lo, hi, script)
    if lo > -m or hi < n:  # the first band left cells out: bound the rest
        reach = distance * (1.0 + _SLACK) / _cost_per_offset(ua, ub, cost)
        lo2 = max(-m, math.ceil((delta - reach) / 2))
        hi2 = min(n, math.floor((delta + reach) / 2))
        if lo2 < lo or hi2 > hi:
            distance, inf, steps = _band_pass(a, b, ua, ub, cost, lo2, hi2, script)
    return AlignmentResult(distance, steps, inf)


def msd(a: OutputStream,
        b: OutputStream,
        profile: TechniqueProfile | None = None,
        cost: CostModel = CostModel(),
        *,
        script: bool = True) -> AlignmentResult:
    """Minimum string distance between two output streams.

    With a profile, whole-unit transitions are allowed wherever the
    greedy segmentation finds a declared unit in either stream; without
    one this is plain unit-cost edit distance.  ``result.distance`` is 0
    exactly when the streams are identical, and never exceeds
    ``max(len(a), len(b))``.  ``script=False`` leaves ``result.script``
    empty and saves the backpointers (see :func:`align_symbols`).
    """
    unit_seqs = profile.unit_seqs if profile else ()
    ua = _greedy_unit_ends(a.text, unit_seqs)
    ub = _greedy_unit_ends(b.text, unit_seqs)
    return align_symbols(a.text, b.text, ua, ub, cost, script=script)
