"""Minimum string distance over output streams, with atomic-unit costs.

Plain character-level edit distance misprices entry techniques that
commit several basic characters with one action (conjunct keys, gesture
units).  Under the fractional cost model, inserting or deleting a whole
atomic unit of n constituents costs 1/n instead of n, and substituting
one unit for another costs 1/max(n, m); basic character operations keep
cost 1.  A normalized mode prices every unit operation at a flat 1.0
for sensitivity comparisons.

Unit operations only apply where the greedy leftmost-longest
segmentation finds a declared unit, so the dynamic program stays a
standard weighted alignment with a few extra transitions.  The
segmentation is one compiled pattern per unit set, searched over the
stream's text (its symbols are single codepoints): ``unit_seqs`` come
longest first, so the first alternative to match at a position is its
longest unit.  Costs are integers, in units of 1/L (L is the least
common multiple of the unit lengths), so ties are exact; they are broken
deterministically: match over substitute over delete over insert, and
basic-character transitions over unit transitions.

A :class:`TechniqueProfile` carries the classification table it was
built under and flattens its units under it once, when it is built;
:func:`msd` and :func:`atomic_unit_segment` read those and take no
table.

:func:`align_symbols` gives the exact full table's distance, INF and
script but fills only a band of diagonals around the optimal path
(Ukkonen 1985), in one pass.  The band keeps every diagonal whose lower
bound, with each unit end used at most once, is within the unit-free
bit-vector distance, an upper bound on the cost.  It keeps the last
k + 1 rows (k is the longest unit), carries INF along each cell's
argmin, and stores the band's backpointers only when ``script=True``;
the metrics ask for ``script=False``.  Time grows with length times
band width, and without a script memory grows with length alone.

Three exact shortcuts keep the band to where the texts differ.  Equal
sequences are all matches, the one path of cost 0.  A common suffix in
which no unit ends is matched outside the band: no unit step reaches it,
and a match there is never dearer than a delete or an insert.  Without
units or a script every step costs its width, so INF is the plain edit
distance, computed with bit vectors (Myers 1999; Hyyrö 2001).  That
unit-free distance, which also bounds the band, is computed on the
pair's differing core: a common prefix and a common suffix are cut
first, as neither changes a unit-cost edit distance.
"""

from __future__ import annotations

import collections
import functools
import math
import re
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
    them.  ``unit_keys`` names the keys that commit each declared unit.
    The profile parser checks that every payload is a declared unit, but
    it is metadata only: replay and alignment never read it.

    ``table`` is the classification table the profile is evaluated
    under: replay and the metrics flatten the session's texts with it,
    so one table decides every constituent of an evaluation.  It is not
    compared or shown, and ``dataclasses.replace`` keeps it.
    ``unit_seqs`` is derived once, here: the units' output-stream text
    under ``table``, those of two symbols or more, longest first.
    Alignment and :func:`atomic_unit_segment` read it, and replay takes a
    unit payload as declared when its output-stream text is one of them.
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


@functools.lru_cache
def _unit_pattern(unit_seqs: tuple[Sequence[str], ...]) -> re.Pattern[str]:
    """The units as one alternation, escaped, in the order given."""
    return re.compile("|".join(re.escape("".join(seq)) for seq in unit_seqs))


def _greedy_unit_ends(symbols: Sequence[str],
                      unit_seqs: Sequence[Sequence[str]]) -> dict[int, int]:
    """Greedy leftmost-longest pass; maps segment end index to unit length.

    Symbols are single codepoints, so their indices are those of their
    joined text.  ``unit_seqs`` come longest first, and the pattern tries
    its alternatives in that order, so the first to match is the longest.
    """
    if not unit_seqs:
        return {}
    matches = _unit_pattern(tuple(unit_seqs)).finditer("".join(symbols))
    return {end: end - start for start, end in map(re.Match.span, matches)}


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
        end = starts.get(i, i + 1)
        segments.append(Segment(i, end, symbols[i:end], i in starts))
        i = end
    return segments


_INF = float("inf")
# Stands before b[0]: equal to no symbol, so column 0 has no diagonal step.
_NO_SYMBOL = object()
_MATCH = (EditOpKind.MATCH, 1, 1, 0.0)
_SUBSTITUTE = (EditOpKind.SUBSTITUTE, 1, 1, 1.0)
_DELETE = (EditOpKind.DELETE, 1, 0, 1.0)
_INSERT = (EditOpKind.INSERT, 0, 1, 1.0)

_Op = tuple[EditOpKind, int, int, float]


def _checked_units(units: Mapping[int, int] | None, length: int,
                   side: str) -> dict[int, int]:
    checked = dict(units or {})
    for end, k in checked.items():
        if not 1 <= k <= end <= length:
            raise ValueError(f"{side}: a unit of length {k} cannot end at "
                             f"{end} in a sequence of {length} symbols")
    return checked


def _band_pass(a: tuple[str, ...], b: tuple[str, ...],
               ua: Mapping[int, int], ub: Mapping[int, int], step: int,
               edit_w: Mapping[int, int], lo: int, hi: int,
               script: bool) -> tuple[int, int, tuple[EditOp, ...]]:
    """The DP over the cells with lo <= j - i <= hi; the rest cost INF.

    Basic steps cost ``step`` and a unit edit of length k ``edit_w[k]``; a
    unit substitution of lengths ka and kb costs ``edit_w[max(ka, kb)]``.
    Rows are indexed by j + 1, so position 0 is an INF column left of the
    table.  Only the last k + 1 rows are kept (k is the longest unit), each
    with the INF count carried along its cell's argmin; with ``script`` the
    band's ops are kept for the backtrack.
    """
    m, n = len(a), len(b)
    depth = max(edit_w, default=0) + 1
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
            del_w = edit_w[ka]
        js, je = max(0, i + lo), min(n, i + hi)
        ops: list[_Op | None] = []
        if i == 0:
            row[1] = 0
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
                best, f, op = dg + step, dgf + 1, _SUBSTITUTE
            c = up + step
            if c < best:
                best, f, op = c, upf + 1, _DELETE
            c = left + step
            if c < best:
                best, f, op = c, leftf + 1, _INSERT
            if kb or ka:
                if kb and ka and sa != b_units[j]:
                    longer = max(ka, kb)
                    w = edit_w[longer]
                    c = urow[j - kb + 1] + w
                    if c < best:
                        best, f = c, urowf[j - kb + 1] + longer
                        op = (EditOpKind.UNIT_SUBSTITUTE, ka, kb, w / step)
                if ka:
                    c = urow[j + 1] + del_w
                    if c < best:
                        best, f = c, urowf[j + 1] + ka
                        op = (EditOpKind.UNIT_DELETE, ka, 0, del_w / step)
                if kb:
                    w = edit_w[kb]
                    c = row[j - kb + 1] + w
                    if c < best:
                        best, f = c, rowf[j - kb + 1] + kb
                        op = (EditOpKind.UNIT_INSERT, 0, kb, w / step)
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


def _matches(a: tuple[str, ...], b: tuple[str, ...], i: int, j: int,
             count: int) -> tuple[EditOp, ...]:
    """``count`` matches from cell (i, j) on, as the band's backtrack makes them."""
    return tuple(EditOp(EditOpKind.MATCH, i + t, j + t, a[i + t:i + t + 1],
                        b[j + t:j + t + 1], 0.0) for t in range(count))


def _bit_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Unit-cost edit distance, by bit vectors (Myers 1999; Hyyrö 2001).

    The common prefix and suffix are cut first: neither changes a unit-cost
    distance (see :func:`align_symbols`).  Bit i of ``pv``/``mv`` says
    whether the current column's cell in row i + 1 is one more or one less
    than the cell above it; ``score`` is the last row's cell.  Each symbol
    of b advances every row at once.
    """
    m, n = len(a), len(b)
    p = 0
    while p < m and p < n and a[p] == b[p]:
        p += 1
    s = 0
    while s < m - p and s < n - p and a[m - 1 - s] == b[n - 1 - s]:
        s += 1
    a, b = a[p:m - s], b[p:n - s]
    if not a:
        return len(b)
    peq: dict[str, int] = {}  # symbol -> the rows of a that hold it
    for i, x in enumerate(a):
        peq[x] = peq.get(x, 0) | 1 << i
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for y in b:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1  # row 0 grows by one per column: a global distance
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _cover(x: int, prices: Sequence[tuple[int, int]], basic: int) -> int:
    """The least price of x diagonals.

    ``prices`` holds (price per diagonal, diagonals it can fill), cheapest
    first; ``basic`` prices each diagonal after those.
    """
    total = 0
    for price, room in prices:
        if x <= room:
            return total + x * price
        total += room * price
        x -= room
    return total + x * basic


def _band(m: int, n: int, ua: Mapping[int, int], ub: Mapping[int, int],
          step: int, edit_w: Mapping[int, int], upper: int) -> tuple[int, int]:
    """The diagonals lo <= d <= hi with LB(d) <= ``upper``·L (see align_symbols).

    Prices are scaled by L = ``step``, so a unit of length k prices each of
    its k diagonals at the whole number w_k·(L / k), and a basic step at L².
    """
    def prices(units: Mapping[int, int]) -> list[tuple[int, int]]:
        counts = collections.Counter(units.values())
        return sorted((edit_w[k] * (step // k), k * count)
                      for k, count in counts.items())

    up, down, basic = prices(ub), prices(ua), step * step
    budget = upper * basic
    delta = n - m

    def bound(d: int) -> int:
        return (_cover(max(0, d) + max(0, delta - d), up, basic)
                + _cover(max(0, -d) + max(0, d - delta), down, basic))

    lo, hi = min(0, delta), max(0, delta)
    while hi < n and bound(hi + 1) <= budget:
        hi += 1
    while lo > -m and bound(lo - 1) <= budget:
        lo -= 1
    return lo, hi


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

    Costs are integers in units of 1/L, L being the least common multiple
    of the unit lengths in both maps (1 without units): a basic step costs
    L, and a unit edit of length k costs w_k, L times
    :meth:`CostModel.unit_edit_cost`, a whole number.  A unit substitution
    of lengths ka and kb costs the edit of the longer unit, w_max(ka, kb).
    The distance is D / L, and distance, INF and script are the exact full
    (m+1)×(n+1) table's, ties included.

    Only the band of diagonals d = j − i with LB(d) <= U·L is computed
    (Ukkonen 1985), δ = n − m:

    * *Upper bound.*  U, the unit-free distance of :func:`_bit_distance`,
      prices a path of basic steps, L each; unit steps only add paths, so
      D <= U·L.
    * *Lower bound.*  A step that moves up t > 0 diagonals is a basic
      insert (t = 1, cost L), a unit insert ending at b's unit end j
      (t = kb, cost w_kb) or a unit substitution (t = kb − ka < kb, cost
      w_kb), so it spends at least w_kb / kb per diagonal, and a unit step
      enters each of b's unit ends at most once, since j grows along a
      path.  So steps that move up x diagonals in all cost at least
      cover(x, b's units): each unit end of length k fills at most k
      diagonals at w_k / k, cheapest first, and basic steps at L fill the
      rest.  Steps that move down are priced the same way with a's unit
      ends.  A path from diagonal 0 to δ through a cell on d moves up at
      least pos(d) = max(0, d) + max(0, δ − d) diagonals and down at least
      neg(d) = max(0, −d) + max(0, d − δ), so its cost, forward to that
      cell plus backward from it, is at least LB(d) = cover(pos(d), b's
      units) + cover(neg(d), a's units).
    * *One interval.*  w_k / k <= L (L/k² or L/k), so cover's price per
      diagonal never falls: it is convex and nondecreasing.  pos and neg
      are convex in d, so LB is convex and {d : LB(d) <= U·L} is one
      interval.  On [min(0, δ), max(0, δ)], LB equals LB(0) <= D, since
      every path starts on diagonal 0, so the interval holds it.  It is
      found by scanning outward from there, in integers scaled by L.
    * *Ties.*  Every cell of an optimal path costs D <= U·L forward plus
      backward, so it lies in the band.  A band cell's value is never
      below the full table's, as the band has fewer paths, and equals it
      where the cell's best prefix ends an optimal path.  So at each cell
      that the backtrack visits, every predecessor that ties for the full
      table's minimum is in the band at its full value and the others are
      no cheaper: the tie order picks the full table's step.  INF, the
      width of every non-match step, is carried along these argmins, so it
      is the full table's too.

    Time is O((m + n)·w) for a band of w diagonals, and memory O(k·n)
    for the last k + 1 rows.  ``script=False`` skips the edit script
    (``result.script == ()``); otherwise the band's backpointers add
    O(m·w).

    Three shortcuts skip all or part of the band, each exact:

    * ``a == b``: distance 0, INF 0, and all matches.  Every step but a
      match costs more than 0, so the diagonal is the one path of cost 0,
      whatever the unit maps, and a match wins every tie.
    * The longest common suffix, of s symbols, such that no unit ends
      past m − s in a or past n − s in b is matched and left out of the
      band.  Where a[i−1] = b[j−1] and neither i nor j ends a unit, the
      step that enters column j on a path to (i − 1, j) is a basic one,
      and turning it into a delete (or dropping it, if it inserts) leaves
      a path to (i − 1, j − 1) that costs at most L more; the same holds
      for rows.  So the match into (i, j) is never beaten, it wins the
      tie, and the cells before (m − s, n − s) are a table of their own.
    * No unit on either side and ``script=False``: every step costs L = 1
      and adds its width 1 to INF, or 0 and 0 for a match, so INF equals
      the unit-cost distance on every path.  :func:`_bit_distance`
      computes it in O(n·⌈m/w⌉) word operations.

    :func:`_bit_distance`, which gives U as well as the last shortcut's
    distance, cuts the pair's common prefix and common suffix, whatever
    the unit maps hold, before its bit-vector pass.  Both cuts are exact
    for the unit-cost distance: when every step costs 1, neighbouring
    cells of the table differ by at most 1, so the cells above and left
    of (i, j) cost at least D(i − 1, j − 1) − 1, and where a[i−1] = b[j−1]
    the match into (i, j) is never beaten.  So a common suffix is matched
    on an optimal path, and, read backwards, so is a common prefix.  The
    band pass cuts no prefix: with unit costs a cut prefix is not exact
    even where no unit crosses its end, as a unit step inside it can
    begin a path cheaper than its matches.
    """
    a = tuple(a)
    b = tuple(b)
    m, n = len(a), len(b)
    ua = _checked_units(units_a, m, "units_a")
    ub = _checked_units(units_b, n, "units_b")
    if a == b:
        return AlignmentResult(0.0, _matches(a, b, 0, 0, m) if script else (), 0)
    # Cut the longest common suffix in which no unit ends on either side.
    keep = min(m - max(ua, default=0), n - max(ub, default=0))
    s = 0
    while s < keep and a[m - 1 - s] == b[n - 1 - s]:
        s += 1
    m, n = m - s, n - s
    tail = _matches(a, b, m, n, s) if script else ()
    a, b = a[:m], b[:n]
    upper = _bit_distance(a, b)
    if not (ua or ub or script):
        return AlignmentResult(float(upper), (), upper)
    step = math.lcm(*ua.values(), *ub.values())
    # Each product is a whole number; round() only undoes the float's error.
    edit_w = {k: round(cost.unit_edit_cost(k) * step)
              for k in {*ua.values(), *ub.values()}}
    lo, hi = _band(m, n, ua, ub, step, edit_w, upper)
    distance, inf, steps = _band_pass(a, b, ua, ub, step, edit_w, lo, hi, script)
    return AlignmentResult(distance / step, steps + tail, inf)


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
    ub = ua if b.text == a.text else _greedy_unit_ends(b.text, unit_seqs)
    return align_symbols(a.text, b.text, ua, ub, cost, script=script)
