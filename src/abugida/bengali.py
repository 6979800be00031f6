"""Bengali script classification, normalization, and stream decomposition.

Bengali, like the other Brahmic abugidas, renders consonant clusters and
consonant-vowel combinations as single glyphs: কান্ড appears as two visual
units (কা and ন্ড) but is encoded, and typed on character-level keyboards,
as five constituent codepoints (ক + া + ন + ্ + ড).  Text-entry analysis
therefore needs two views of the same text:

* the **output stream**, the fully flattened sequence of basic characters
  (consonants, vowels, vowel signs, the virama joiner, modifier signs,
  digits, whitespace) produced by :func:`to_output_stream`;
* the legacy **grapheme cluster** view, one symbol per visual unit,
  produced by :func:`segment_graphemes` and kept only for differential
  comparison against older character-counting conventions.

Clusters are cut from the output-stream text, so both views agree on
totals under any table: the clusters of a text concatenate to its
output-stream text, and their constituent counts sum to its length.

Classification and pairwise composition are table driven so another
script can be swapped in from a plain text table file (see
:func:`abugida.sessionio.load_table_file`); the built-in
:data:`BENGALI_TABLE` covers the Bengali block U+0980..U+09FF.
Normalization applies NFC first and then the table's composition pairs;
the second pass matters because NFC deliberately leaves some precomposed
letters (ড় ঢ় য়) in decomposed form, and we want one canonical spelling
per text before any counting.

Text is canonical by the time it is counted, so the hot path is built
for text that needs no change: the lone-surrogate scan, the search for
a composing pair, the removal of zero-width controls and the cut into
grapheme clusters are each one regular-expression pass in C.  The
patterns a table needs are derived from it on first use and kept on the
table.  Only a text that holds a declared pair runs the pairwise
composition loop.  Two memos sit above this module: the session-log
parser normalizes and flattens each distinct event payload once per log
(see :func:`abugida.sessionio.parse_session_log`), and replay flattens
each distinct payload once per table (see
:func:`abugida.streams.replay_events`).
"""

from __future__ import annotations

import re
import sys
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import InvalidEncodingError, ParseError

__all__ = [
    "CodepointClass",
    "BasicChar",
    "OutputStream",
    "GraphemeCluster",
    "GraphemeClusters",
    "CharTable",
    "BENGALI_TABLE",
    "ZERO_WIDTH_CONTROLS",
    "normalize",
    "to_output_stream",
    "segment_graphemes",
    "recompose",
]


@unique
class CodepointClass(str, Enum):
    """Classification of a single codepoint for stream building."""

    INDEPENDENT_VOWEL = "IndependentVowel"
    CONSONANT = "Consonant"
    DEPENDENT_VOWEL_SIGN = "DependentVowelSign"
    VIRAMA = "Virama"
    MODIFIER_SIGN = "ModifierSign"
    DIGIT = "Digit"
    WHITESPACE = "Whitespace"
    ZERO_WIDTH_CONTROL = "ZeroWidthControl"
    OTHER = "Other"


# Format controls that shape rendering but are never counted as text.
ZERO_WIDTH_CONTROLS = frozenset({
    0x200B,  # zero width space
    0x200C,  # zero width non-joiner
    0x200D,  # zero width joiner
    0x2060,  # word joiner
    0xFEFF,  # zero width no-break space / BOM
})

# Classes that join the cluster before them, and classes that stand alone.
_ATTACHING = (
    CodepointClass.DEPENDENT_VOWEL_SIGN,
    CodepointClass.MODIFIER_SIGN,
    CodepointClass.VIRAMA,
)
_SINGLETON = (CodepointClass.WHITESPACE, CodepointClass.DIGIT)

_LONE_SURROGATE = re.compile("[\ud800-\udfff]")

# Bengali block, by range.  Unlisted codepoints fall through to the
# zero-width / whitespace / Other defaults in CharTable.classify.
_BENGALI_RANGES: tuple[tuple[int, int, CodepointClass], ...] = (
    (0x0981, 0x0983, CodepointClass.MODIFIER_SIGN),         # ঁ ং ঃ candrabindu, anusvara, visarga
    (0x0985, 0x098C, CodepointClass.INDEPENDENT_VOWEL),     # অ আ ই ঈ উ ঊ ঋ ঌ
    (0x098F, 0x0990, CodepointClass.INDEPENDENT_VOWEL),     # এ ঐ
    (0x0993, 0x0994, CodepointClass.INDEPENDENT_VOWEL),     # ও ঔ
    (0x0995, 0x09A8, CodepointClass.CONSONANT),             # ক .. ন
    (0x09AA, 0x09B0, CodepointClass.CONSONANT),             # প .. র
    (0x09B2, 0x09B2, CodepointClass.CONSONANT),             # ল
    (0x09B6, 0x09B9, CodepointClass.CONSONANT),             # শ ষ স হ
    (0x09BC, 0x09BC, CodepointClass.MODIFIER_SIGN),         # nukta
    (0x09BD, 0x09BD, CodepointClass.OTHER),                 # avagraha
    (0x09BE, 0x09C4, CodepointClass.DEPENDENT_VOWEL_SIGN),  # া ি ী ু ূ ৃ ৄ
    (0x09C7, 0x09C8, CodepointClass.DEPENDENT_VOWEL_SIGN),  # ে ৈ
    (0x09CB, 0x09CC, CodepointClass.DEPENDENT_VOWEL_SIGN),  # ো ৌ
    (0x09CD, 0x09CD, CodepointClass.VIRAMA),                # ্ hasanta
    (0x09CE, 0x09CE, CodepointClass.CONSONANT),             # ৎ khanda ta
    (0x09D7, 0x09D7, CodepointClass.DEPENDENT_VOWEL_SIGN),  # ৗ au length mark
    (0x09DC, 0x09DD, CodepointClass.CONSONANT),             # ড় ঢ়
    (0x09DF, 0x09DF, CodepointClass.CONSONANT),             # য়
    (0x09E0, 0x09E1, CodepointClass.INDEPENDENT_VOWEL),     # ৠ ৡ
    (0x09E2, 0x09E3, CodepointClass.DEPENDENT_VOWEL_SIGN),  # ৢ ৣ
    (0x09E6, 0x09EF, CodepointClass.DIGIT),                 # ০ .. ৯
    (0x09F0, 0x09F1, CodepointClass.CONSONANT),             # ৰ ৱ
    (0x09F2, 0x09FB, CodepointClass.OTHER),                 # currency marks, ৺, ৻
    (0x09FC, 0x09FD, CodepointClass.OTHER),                 # vedic anusvara letter, abbreviation sign
    (0x09FE, 0x09FE, CodepointClass.MODIFIER_SIGN),         # sandhi mark
)

# Pairwise compositions applied after NFC.  The vowel pairs are also
# NFC compositions (listed for table completeness); the nukta pairs are
# NFC exclusions and only this pass recombines them.
_BENGALI_COMPOSITIONS: tuple[tuple[int, int, int], ...] = (
    (0x09C7, 0x09BE, 0x09CB),  # ে + া → ো
    (0x09C7, 0x09D7, 0x09CC),  # ে + ৗ → ৌ
    (0x09A1, 0x09BC, 0x09DC),  # ড + nukta → ড়
    (0x09A2, 0x09BC, 0x09DD),  # ঢ + nukta → ঢ়
    (0x09AF, 0x09BC, 0x09DF),  # য + nukta → য়
)


@dataclass(frozen=True, slots=True)
class BasicChar:
    """One constituent character of an output stream."""

    codepoint: int

    @property
    def char(self) -> str:
        return chr(self.codepoint)


@dataclass(frozen=True)
class OutputStream:
    """A text's constituents, one codepoint each; iterating yields BasicChars."""

    text: str

    @property
    def length(self) -> int:
        return len(self.text)

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[BasicChar]:
        return (BasicChar(ord(ch)) for ch in self.text)


@dataclass(frozen=True, slots=True)
class GraphemeCluster:
    """One visual unit, a slice of an output-stream text."""

    text: str

    @property
    def constituent_count(self) -> int:
        return len(self.text)


class GraphemeClusters(Sequence[GraphemeCluster]):
    """A text's grapheme clusters, held as their texts.

    Indexing or iterating builds :class:`GraphemeCluster` objects, the
    way iterating an OutputStream builds BasicChars; a slice is a list of
    them.  ``texts`` is the tuple of the clusters' texts, and two
    sequences are equal when their texts are.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: Iterable[str]) -> None:
        self.texts = tuple(texts)

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index: int | slice) -> GraphemeCluster | list[GraphemeCluster]:
        if isinstance(index, slice):
            return list(map(GraphemeCluster, self.texts[index]))
        return GraphemeCluster(self.texts[index])

    def __iter__(self) -> Iterator[GraphemeCluster]:
        return map(GraphemeCluster, self.texts)

    def __eq__(self, other: object) -> bool:
        if type(other) is GraphemeClusters:
            return self.texts == other.texts
        return NotImplemented

    def __repr__(self) -> str:
        return f"GraphemeClusters({list(self)!r})"


@dataclass(frozen=True)
class CharTable:
    """Codepoint classification plus pairwise composition rules.

    ``classes`` maps codepoints to explicit classes; anything unlisted is
    classified by fallback (zero-width controls, whitespace via
    ``str.isspace``, then Other).  ``compositions`` maps an adjacent
    codepoint pair to the codepoint it canonically composes to.
    """

    classes: Mapping[int, CodepointClass]
    compositions: Mapping[tuple[int, int], int]

    def classify(self, codepoint: int) -> CodepointClass:
        if not 0 <= codepoint <= 0x10FFFF:
            raise ValueError(f"codepoint out of range: {codepoint!r}")
        cls = self.classes.get(codepoint)
        if cls is not None:
            return cls
        if codepoint in ZERO_WIDTH_CONTROLS:
            return CodepointClass.ZERO_WIDTH_CONTROL
        if chr(codepoint).isspace():
            return CodepointClass.WHITESPACE
        return CodepointClass.OTHER

    @cached_property
    def _pair_pattern(self) -> re.Pattern[str] | None:
        """Matches any adjacent pair that composes; None when none can."""
        pairs = [chr(a) + chr(b) for a, b in self.compositions
                 if 0 <= a <= sys.maxunicode and 0 <= b <= sys.maxunicode]
        return re.compile("|".join(map(re.escape, pairs))) if pairs else None

    @cached_property
    def _control_pattern(self) -> re.Pattern[str] | None:
        """Matches any codepoint this table classifies as a zero-width control."""
        controls = {cp for cp in ZERO_WIDTH_CONTROLS if cp not in self.classes}
        controls |= {cp for cp, cls in self.classes.items()
                     if cls is CodepointClass.ZERO_WIDTH_CONTROL}
        chars = "".join(re.escape(chr(cp)) for cp in sorted(controls)
                        if 0 <= cp <= sys.maxunicode)
        return re.compile(f"[{chars}]") if chars else None

    @cached_property
    def _cluster_pattern(self) -> re.Pattern[str]:
        """Matches one grapheme cluster of an output-stream text.

        See :func:`segment_graphemes` for the rule and the pattern's form.
        ``\\s`` stands for the unlisted whitespace that :meth:`classify`
        calls Whitespace, so the listed codepoints it matches under
        another class are kept out of it.
        """
        def chars(keep) -> str:
            return "".join(re.escape(chr(cp)) for cp, cls in sorted(self.classes.items())
                           if 0 <= cp <= sys.maxunicode and keep(cp, cls))

        space = r"\s"
        hidden = chars(lambda cp, cls: cls not in _SINGLETON and chr(cp).isspace())
        if hidden:
            space = f"(?![{hidden}]){space}"
        listed = chars(lambda cp, cls: cls in _SINGLETON)
        single = f"(?:[{listed}]|{space})" if listed else f"(?:{space})"
        attaching = chars(lambda cp, cls: cls in _ATTACHING)
        consonants = chars(lambda cp, cls: cls is CodepointClass.CONSONANT)
        viramas = chars(lambda cp, cls: cls is CodepointClass.VIRAMA)
        joins = [f"[{attaching}]"] if attaching else []
        if consonants and viramas:
            joins.append(f"(?<=[{consonants}][{viramas}])(?!{single})(?s:.)")
        tail = f"(?:{'|'.join(joins)})*" if joins else ""
        return re.compile(f"{single}|(?s:.){tail}")

    @cached_property
    def _replay_memo(self) -> dict[str, str]:
        """Replay's memo: payload text to its output-stream text under this table.

        Filled by :func:`abugida.streams.replay_events`, one entry per
        distinct payload text it replays.
        """
        return {}

    def compose(self, text: str) -> str:
        """Apply composition pairs left to right until none fire."""
        # Every merge, a cascading one too, starts at a declared pair.
        pairs = self._pair_pattern
        if pairs is None or pairs.search(text) is None:
            return text
        out: list[str] = []
        for ch in text:
            out.append(ch)
            while len(out) >= 2:
                merged = self.compositions.get((ord(out[-2]), ord(out[-1])))
                if merged is None:
                    break
                out[-2:] = [chr(merged)]
        return "".join(out)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "CharTable":
        """Parse table records: ``<hex> <ClassTag> [<hexA> <hexB>]``.

        ``#`` starts a comment; blank lines are skipped.  A record with a
        composition pair declares that A followed by B composes to the
        record's codepoint.
        """
        tags = {c.value: c for c in CodepointClass}
        classes: dict[int, CodepointClass] = {}
        compositions: dict[tuple[int, int], int] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) not in (2, 4):
                raise ParseError(
                    f"expected 2 or 4 fields, got {len(tokens)}", line=lineno)
            try:
                cp = int(tokens[0], 16)
            except ValueError:
                raise ParseError(f"bad codepoint {tokens[0]!r}", line=lineno) from None
            if tokens[1] not in tags:
                raise ParseError(f"unknown class tag {tokens[1]!r}", line=lineno)
            if cp in classes:
                raise ParseError(f"duplicate record for U+{cp:04X}", line=lineno)
            classes[cp] = tags[tokens[1]]
            if len(tokens) == 4:
                try:
                    first, second = int(tokens[2], 16), int(tokens[3], 16)
                except ValueError:
                    raise ParseError("bad composition pair", line=lineno) from None
                if (first, second) in compositions:
                    raise ParseError(f"duplicate composition pair U+{first:04X} "
                                     f"U+{second:04X}", line=lineno)
                compositions[(first, second)] = cp
        return cls(classes=classes, compositions=compositions)

    def to_lines(self) -> list[str]:
        """Serialize back to the table file format, sorted by codepoint."""
        by_target = {target: pair for pair, target in self.compositions.items()}
        out = []
        for cp in sorted(self.classes):
            line = f"{cp:04X} {self.classes[cp].value}"
            if cp in by_target:
                first, second = by_target[cp]
                line += f" {first:04X} {second:04X}"
            out.append(line)
        return out


def _builtin_table() -> CharTable:
    classes: dict[int, CodepointClass] = {}
    for start, end, cls in _BENGALI_RANGES:
        for cp in range(start, end + 1):
            classes[cp] = cls
    # Unassigned holes in the block stay explicit so table dumps cover
    # the whole range a record file would.
    for cp in range(0x0980, 0x0A00):
        classes.setdefault(cp, CodepointClass.OTHER)
    compositions = {(a, b): t for a, b, t in _BENGALI_COMPOSITIONS}
    return CharTable(classes=classes, compositions=compositions)


BENGALI_TABLE = _builtin_table()


def normalize(text: str, table: CharTable = BENGALI_TABLE) -> str:
    """Canonicalize ``text``: NFC, then the table's composition pairs.

    Raises :class:`InvalidEncodingError` if the string contains lone
    surrogates (Python admits them; no valid text does).
    """
    lone = _LONE_SURROGATE.search(text)
    if lone is not None:
        raise InvalidEncodingError(
            f"lone surrogate U+{ord(lone.group()):04X} at index {lone.start()}")
    return table.compose(unicodedata.normalize("NFC", text))


def to_output_stream(text: str, table: CharTable = BENGALI_TABLE) -> OutputStream:
    """Flatten ``text`` to its constituent basic characters.

    Drops zero-width controls, normalizes what is left (a control may
    have kept a composing pair apart, as in ড ZWNJ nukta), and keeps it
    one codepoint per character: conjuncts and composite glyph
    sequences are fully disjoined, so কান্ড yields the five characters
    ক া ন ্ ড and ক্ষ yields ক ্ ষ.  Whitespace is retained.
    """
    controls = table._control_pattern
    if controls is not None:
        text = controls.sub("", text)
    return OutputStream(normalize(text, table))


def recompose(stream: OutputStream) -> str:
    """Inverse of :func:`to_output_stream` up to normalization."""
    return stream.text


def segment_graphemes(text: str | OutputStream,
                      table: CharTable = BENGALI_TABLE) -> GraphemeClusters:
    """Split the output stream of ``text`` into visual grapheme clusters.

    ``text`` is a string, which is flattened under ``table`` first, or an
    :class:`OutputStream` already flattened under ``table``, whose text
    is cut as it is.  The clusters come back as a
    :class:`GraphemeClusters`, which holds their texts and builds a
    :class:`GraphemeCluster` only when one is indexed or iterated, so a
    caller that wants the texts reads ``.texts`` and builds none.

    Each codepoint of the output-stream text opens a new cluster, unless
    the previous codepoint is neither whitespace nor a digit and the
    codepoint either attaches (a dependent vowel sign, a modifier sign
    or the virama) or follows consonant + virama and is neither
    whitespace nor a digit (a conjunct).  Looking back at the last two
    codepoints of the text, not of the cluster, is exact: a consonant
    enters a cluster only first or right after consonant + virama, and
    a virama after anything but whitespace or a digit always attaches,
    so such a consonant + virama pair always lies in the open cluster.

    The rule is one regular expression, derived from the table on first
    use and kept on it: ``S|(?s:.)(?:[A]|(?<=[C][V])(?!S)(?s:.))*``, where
    S is whitespace or a digit, A an attaching codepoint and C V a
    consonant and a virama.  S alone is a cluster.  Any other codepoint
    opens a cluster that takes each next codepoint while it attaches; no
    codepoint it takes is S, so the rule's condition on the previous
    codepoint holds inside it.

    Clusters are slices of the output-stream text, which holds no
    zero-width controls: they concatenate to it under any table, and
    their constituent counts sum to its length.
    """
    if not isinstance(text, OutputStream):
        text = to_output_stream(text, table)
    return GraphemeClusters(table._cluster_pattern.findall(text.text))
