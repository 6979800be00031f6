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
"""

from __future__ import annotations

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
    """

    technique_id: str
    atomic_units: frozenset[str] = frozenset()
    unit_keys: Mapping[str, str] = field(default_factory=dict)
    backspace_granularity: BackspaceGranularity = BackspaceGranularity.BASIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "atomic_units", frozenset(self.atomic_units))
        if isinstance(self.backspace_granularity, str):
            object.__setattr__(
                self, "backspace_granularity",
                BackspaceGranularity(self.backspace_granularity))


@dataclass(frozen=True)
class CostModel:
    """Operation costs for the alignment.  Basic character ops cost 1."""

    mode: CostMode = CostMode.PAPER_LITERAL

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


def _unit_symbol_seqs(profile: TechniqueProfile | None,
                      table: CharTable) -> list[str]:
    """Flatten declared units to output-stream text, longest first."""
    if profile is None:
        return []
    seqs = {to_output_stream(unit, table).text for unit in profile.atomic_units}
    return sorted((s for s in seqs if len(s) >= 2), key=lambda s: (-len(s), s))


def _greedy_unit_ends(symbols: Sequence[str],
                      unit_seqs: Sequence[Sequence[str]]) -> dict[int, int]:
    """Greedy leftmost-longest pass; maps segment end index to unit length."""
    ends: dict[int, int] = {}
    i, n = 0, len(symbols)
    while i < n:
        for seq in unit_seqs:  # longest first
            k = len(seq)
            if i + k <= n and symbols[i:i + k] == seq:
                ends[i + k] = k
                i += k
                break
        else:
            i += 1
    return ends


def atomic_unit_segment(stream: OutputStream,
                        profile: TechniqueProfile | None,
                        table: CharTable = BENGALI_TABLE) -> list[Segment]:
    """Partition a stream into unit segments and single characters.

    Greedy and leftmost: at each position the longest declared unit that
    matches wins; otherwise one character becomes its own segment.  The
    segments concatenate back to the stream.
    """
    symbols = stream.text
    ends = _greedy_unit_ends(symbols, _unit_symbol_seqs(profile, table))
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


def align_symbols(a: Sequence[str],
                  b: Sequence[str],
                  units_a: Mapping[int, int] | None = None,
                  units_b: Mapping[int, int] | None = None,
                  cost: CostModel = CostModel()) -> AlignmentResult:
    """Weighted alignment of two symbol sequences.

    ``units_a``/``units_b`` map a segment's end index to its length for
    every position where a whole-unit transition is allowed.  Symbols are
    compared by equality; for output streams they are single characters,
    for the legacy view they are grapheme cluster texts.
    """
    ua: Mapping[int, int] = units_a or {}
    ub: Mapping[int, int] = units_b or {}
    a = tuple(a)
    b = tuple(b)
    m, n = len(a), len(b)
    dp = [[0.0] * (n + 1) for _ in range(m + 1)]
    bp: list[list[tuple[EditOpKind, int, int, float] | None]] = [
        [None] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            best = float("inf")
            op: tuple[EditOpKind, int, int, float] | None = None
            if i > 0 and j > 0:
                if a[i - 1] == b[j - 1]:
                    c = dp[i - 1][j - 1]
                    if c < best:
                        best, op = c, (EditOpKind.MATCH, 1, 1, 0.0)
                else:
                    c = dp[i - 1][j - 1] + 1.0
                    if c < best:
                        best, op = c, (EditOpKind.SUBSTITUTE, 1, 1, 1.0)
            if i > 0:
                c = dp[i - 1][j] + 1.0
                if c < best:
                    best, op = c, (EditOpKind.DELETE, 1, 0, 1.0)
            if j > 0:
                c = dp[i][j - 1] + 1.0
                if c < best:
                    best, op = c, (EditOpKind.INSERT, 0, 1, 1.0)
            ka = ua.get(i)
            kb = ub.get(j)
            if ka is not None and kb is not None and a[i - ka:i] != b[j - kb:j]:
                w = cost.unit_substitute_cost(ka, kb)
                c = dp[i - ka][j - kb] + w
                if c < best:
                    best, op = c, (EditOpKind.UNIT_SUBSTITUTE, ka, kb, w)
            if ka is not None:
                w = cost.unit_edit_cost(ka)
                c = dp[i - ka][j] + w
                if c < best:
                    best, op = c, (EditOpKind.UNIT_DELETE, ka, 0, w)
            if kb is not None:
                w = cost.unit_edit_cost(kb)
                c = dp[i][j - kb] + w
                if c < best:
                    best, op = c, (EditOpKind.UNIT_INSERT, 0, kb, w)
            dp[i][j] = best
            bp[i][j] = op

    ops: list[EditOp] = []
    i, j = m, n
    while i > 0 or j > 0:
        entry = bp[i][j]
        assert entry is not None
        kind, da, db, w = entry
        ops.append(EditOp(kind, i - da, j - db, a[i - da:i], b[j - db:j], w))
        i -= da
        j -= db
    ops.reverse()
    # INF: symbols still wrong after alignment, every non-match by width.
    inf = sum(max(len(op.source), len(op.target))
              for op in ops if op.kind is not EditOpKind.MATCH)
    return AlignmentResult(dp[m][n], tuple(ops), inf)


def msd(a: OutputStream,
        b: OutputStream,
        profile: TechniqueProfile | None = None,
        cost: CostModel = CostModel(),
        table: CharTable = BENGALI_TABLE) -> AlignmentResult:
    """Minimum string distance between two output streams.

    With a profile, whole-unit transitions are allowed wherever the
    greedy segmentation finds a declared unit in either stream; without
    one this is plain unit-cost edit distance.  ``result.distance`` is 0
    exactly when the streams are identical, and never exceeds
    ``max(len(a), len(b))``.
    """
    unit_seqs = _unit_symbol_seqs(profile, table)
    ua = _greedy_unit_ends(a.text, unit_seqs)
    ub = _greedy_unit_ends(b.text, unit_seqs)
    return align_symbols(a.text, b.text, ua, ub, cost)
