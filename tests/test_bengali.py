"""Classification, normalization, decomposition, and segmentation."""

from __future__ import annotations

import re
import sys
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abugida as ab
from abugida import CodepointClass as CC
from abugida.bengali import _ATTACHING, _SINGLETON, ZERO_WIDTH_CONTROLS

# Sampling alphabet: the whole Bengali block (assigned or not) plus the
# joiners and a couple of separators.
_ALPHABET = [chr(cp) for cp in range(0x0980, 0x0A00)]
_ALPHABET += [" ", "‌", "‍"]

bengali_text = st.text(alphabet=st.sampled_from(_ALPHABET), max_size=24)

# Built-in rules, except: ZWNJ is ordinary text, the nukta is a
# zero-width control, and ক + ড় composes to U+09FF, a merge that can
# only fire after ড + nukta has merged first.
_RECLASSIFIED = ab.CharTable.from_lines(
    [line for line in ab.BENGALI_TABLE.to_lines()
     if not line.startswith(("09BC ", "09FF "))]
    + ["09BC ZeroWidthControl", "09FF Consonant 0995 09DC", "200C Other"])

# Built-in rules, except: the space is a consonant, the digit zero ০ is
# Other and the Latin "a" a virama, so the classes of a cluster pattern
# must follow the records, not str.isspace or the Unicode digit class;
# and one record lies outside Unicode.
_REWIRED = ab.CharTable.from_lines(
    [line for line in ab.BENGALI_TABLE.to_lines() if not line.startswith("09E6 ")]
    + ["0020 Consonant", "09E6 Other", "0061 Virama", "110000 Virama"])


class TestClassify:
    @pytest.mark.parametrize("char,expected", [
        ("ক", CC.CONSONANT),
        ("ন", CC.CONSONANT),
        ("ৎ", CC.CONSONANT),
        ("ড়", CC.CONSONANT),  # ড়
        ("য়", CC.CONSONANT),  # য়
        ("ৰ", CC.CONSONANT),
        ("অ", CC.INDEPENDENT_VOWEL),
        ("ঔ", CC.INDEPENDENT_VOWEL),
        ("ঌ", CC.INDEPENDENT_VOWEL),
        ("া", CC.DEPENDENT_VOWEL_SIGN),
        ("ি", CC.DEPENDENT_VOWEL_SIGN),
        ("ো", CC.DEPENDENT_VOWEL_SIGN),
        ("ৗ", CC.DEPENDENT_VOWEL_SIGN),
        ("্", CC.VIRAMA),
        ("ঁ", CC.MODIFIER_SIGN),
        ("ং", CC.MODIFIER_SIGN),
        ("ঃ", CC.MODIFIER_SIGN),
        ("়", CC.MODIFIER_SIGN),  # nukta
        ("০", CC.DIGIT),
        ("৯", CC.DIGIT),
        (" ", CC.WHITESPACE),
        ("\t", CC.WHITESPACE),
        (" ", CC.WHITESPACE),
        ("‍", CC.ZERO_WIDTH_CONTROL),
        ("‌", CC.ZERO_WIDTH_CONTROL),
        ("﻿", CC.ZERO_WIDTH_CONTROL),
        ("A", CC.OTHER),
        ("5", CC.OTHER),
        ("।", CC.OTHER),   # danda is punctuation
        ("৳", CC.OTHER),   # taka sign
        ("ঽ", CC.OTHER),   # avagraha
    ])
    def test_cases(self, char, expected):
        assert ab.BENGALI_TABLE.classify(ord(char)) is expected

    @given(st.integers(min_value=0, max_value=0x10FFFF))
    def test_total(self, cp):
        assert isinstance(ab.BENGALI_TABLE.classify(cp), CC)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ab.BENGALI_TABLE.classify(0x110000)
        with pytest.raises(ValueError):
            ab.BENGALI_TABLE.classify(-1)


class TestNormalize:
    def test_two_part_vowel_composes(self):
        assert ab.normalize("কো") == "কো"
        assert ab.normalize("কৌ") == "কৌ"

    @pytest.mark.parametrize("decomposed,composed", [
        ("ড়", "ড়"),  # ড়
        ("ঢ়", "ঢ়"),  # ঢ়
        ("য়", "য়"),  # য়
    ])
    def test_nukta_letters_compose(self, decomposed, composed):
        # NFC alone decomposes these; the table pass must win.
        assert unicodedata.normalize("NFC", composed) == decomposed
        assert ab.normalize(decomposed) == composed
        assert ab.normalize(composed) == composed

    def test_plain_text_unchanged(self):
        assert ab.normalize("বই") == "বই"
        assert ab.normalize("") == ""

    @given(bengali_text)
    def test_idempotent(self, text):
        once = ab.normalize(text)
        assert ab.normalize(once) == once

    def test_lone_surrogate_rejected(self):
        with pytest.raises(ab.InvalidEncodingError):
            ab.normalize("ক\ud800ষ")


class TestOutputStream:
    def test_conjunct_word_flattens_to_five(self):
        stream = ab.to_output_stream("কান্ড")
        assert [ord(ch) for ch in stream.text] == [0x0995, 0x09BE, 0x09A8, 0x09CD, 0x09A1]
        assert [ab.BENGALI_TABLE.classify(ord(ch)) for ch in stream.text] == [
            CC.CONSONANT, CC.DEPENDENT_VOWEL_SIGN, CC.CONSONANT,
            CC.VIRAMA, CC.CONSONANT,
        ]
        assert stream.length == 5

    def test_conjunct_glyph_disjoined(self):
        assert [c.char for c in ab.to_output_stream("ক্ষ")] == ["ক", "্", "ষ"]

    def test_simple_word(self):
        assert ab.to_output_stream("বই").length == 2

    def test_empty(self):
        assert ab.to_output_stream("").length == 0

    def test_two_part_vowel_is_one_char(self):
        stream = ab.to_output_stream("কো")
        assert stream.length == 2
        assert ord(stream.text[1]) == 0x09CB

    def test_zero_width_controls_dropped(self):
        assert ab.to_output_stream("র‍্য").length == 3

    def test_text_is_normalized_text_without_zero_width_controls(self):
        for text in ("র\u200d্য", "কে\u09be", "ড\u09bc\u200cক\ufeff"):
            expected = "".join(ch for ch in ab.normalize(text)
                               if ord(ch) not in ZERO_WIDTH_CONTROLS)
            assert ab.to_output_stream(text).text == expected
        assert ab.to_output_stream("র\u200d্য").text == "র্য"

    @pytest.mark.parametrize("text, flat", [("ড\u200c\u09bc", "\u09dc"),
                                            ("কে\u200dা", "কো")])
    def test_control_inside_composing_pair(self, text, flat):
        stream = ab.to_output_stream(text)
        assert stream.text == flat
        assert ab.to_output_stream(ab.recompose(stream)) == stream
        clusters = ab.segment_graphemes(text)
        assert [c.constituent_count for c in clusters] == [len(flat)]

    def test_whitespace_retained(self):
        assert ab.to_output_stream("অ আ").length == 3

    def test_sidebar_lengths(self):
        assert ab.to_output_stream("ক্ষণিকের অতিথি").length == 14
        assert ab.to_output_stream("ক্ষণিকের অতথি").length == 13


class TestSegmentGraphemes:
    def test_conjunct_word(self):
        clusters = ab.segment_graphemes("কান্ড")
        assert [(c.text, c.constituent_count) for c in clusters] == [
            ("কা", 2), ("ন্ড", 3),
        ]

    def test_single_conjunct(self):
        clusters = ab.segment_graphemes("ক্ষ")
        assert len(clusters) == 1
        assert clusters[0].constituent_count == 3

    def test_no_marks_means_one_per_char(self):
        assert [c.text for c in ab.segment_graphemes("বই")] == ["ব", "ই"]

    def test_sidebar_phrase(self):
        clusters = ab.segment_graphemes("ক্ষণিকের অতিথি")
        assert [c.text for c in clusters] == [
            "ক্ষ", "ণি", "কে", "র", " ", "অ", "তি", "থি",
        ]
        assert sum(c.constituent_count for c in clusters) == 14

    def test_digits_and_whitespace_are_singletons(self):
        clusters = ab.segment_graphemes("১২ ক")
        assert [c.text for c in clusters] == ["১", "২", " ", "ক"]

    def test_modifier_attaches(self):
        assert [c.text for c in ab.segment_graphemes("কং")] == ["কং"]

    def test_leading_mark_starts_its_own_cluster(self):
        assert [c.text for c in ab.segment_graphemes("িক")] == ["ি", "ক"]

    @pytest.mark.parametrize("text, expected", [
        ("ক্অ", [("ক্অ", 3)]),                    # consonant + virama joins any letter
        ("কা্খ", [("কা্", 3), ("খ", 1)]),          # a virama after a sign is no conjunct
        ("ক্ ষ", [("ক্", 2), (" ", 1), ("ষ", 1)]),  # whitespace breaks a conjunct
        ("১্ক", [("১", 1), ("্", 1), ("ক", 1)]),    # nothing attaches to a digit
        ("ক\u200c্ষ", [("ক্ষ", 3)]),               # controls are dropped first
        ("\u200cক", [("ক", 1)]),                   # a leading one too
        ("\u200c\u200d", []),                     # controls only: no cluster
    ])
    def test_attach_rule(self, text, expected):
        clusters = ab.segment_graphemes(text)
        assert [(c.text, c.constituent_count) for c in clusters] == expected

    def test_zwj_attaches_without_counting(self):
        clusters = ab.segment_graphemes("র‍্য")
        assert len(clusters) == 1
        assert clusters[0].constituent_count == 3
        assert clusters[0].text == "র্য"

    @given(bengali_text)
    @example("\u0995\u09a1\u09bc")  # ক + ড় composes to U+09FF, but not in the stream
    def test_concatenation_and_conservation(self, text):
        for table in (ab.BENGALI_TABLE, _RECLASSIFIED):
            clusters = ab.segment_graphemes(text, table)
            stream = ab.to_output_stream(text, table)
            assert "".join(c.text for c in clusters) == stream.text
            assert sum(c.constituent_count for c in clusters) == stream.length

    def test_every_codepoint_of_an_output_stream_is_one_cluster(self):
        # Replay's atoms are such codepoints, or whole units: the glyph view
        # counts an atom of one codepoint as one cluster without segmenting.
        atoms = {x for cp in range(0x10000) if not 0xD800 <= cp <= 0xDFFF
                 for x in ab.to_output_stream(chr(cp)).text}
        assert [x for x in atoms if [c.text for c in ab.segment_graphemes(x)] != [x]] == []

    @given(bengali_text)
    def test_one_codepoint_atoms_of_any_text_are_one_cluster(self, text):
        for x in ab.to_output_stream(text).text:
            assert [c.text for c in ab.segment_graphemes(x)] == [x]

    @given(bengali_text)
    def test_cluster_count_never_exceeds_stream_length(self, text):
        clusters = [c for c in ab.segment_graphemes(text) if c.constituent_count]
        assert len(clusters) <= ab.to_output_stream(text).length


class TestGraphemeClusters:
    """segment_graphemes returns the clusters' texts, built into clusters on demand."""

    @given(bengali_text, st.integers(-30, 30), st.none() | st.integers(-30, 30),
           st.none() | st.integers(-3, 3).filter(bool))
    def test_same_clusters_as_a_list(self, text, index, stop, step):
        old = [ab.GraphemeCluster(t) for t, _ in _oracle_segment_graphemes(
            ab.to_output_stream(text).text, ab.BENGALI_TABLE)]
        new = ab.segment_graphemes(text)
        assert len(new) == len(old)
        assert list(new) == old
        assert new == ab.segment_graphemes(text)
        assert new.texts == tuple(c.text for c in old)
        if -len(old) <= index < len(old):
            assert new[index] == old[index]
        else:
            with pytest.raises(IndexError):
                new[index]
        assert new[index:stop:step] == old[index:stop:step]
        assert list(reversed(new)) == old[::-1]

    def test_a_stream_is_not_flattened_again(self):
        # The control survives in a stream built by hand, so it is cut there.
        stream = ab.OutputStream("ক\u200c্ষ")
        assert ab.segment_graphemes(stream).texts == ("ক", "\u200c্", "ষ")
        assert ab.segment_graphemes(stream.text).texts == ("ক্ষ",)

    def test_equality_and_repr(self):
        assert ab.segment_graphemes("কান্ড") != ab.segment_graphemes("কাণ্ড")
        assert ab.segment_graphemes("বই") != ("ব", "ই")
        assert repr(ab.segment_graphemes("বই")) == (
            "GraphemeClusters([GraphemeCluster(text='ব'), GraphemeCluster(text='ই')])")


class TestRecompose:
    @pytest.mark.parametrize("text", ["কান্ড", "ক্ষ", "বই", "ক্ষণিকের অতিথি", ""])
    def test_round_trip(self, text):
        stream = ab.to_output_stream(text)
        assert ab.recompose(stream) == ab.normalize(text)
        assert ab.to_output_stream(ab.recompose(stream)) == stream

    @given(bengali_text)
    def test_round_trip_property(self, text):
        stream = ab.to_output_stream(text)
        assert ab.to_output_stream(ab.recompose(stream)) == stream


class TestCharTable:
    def test_dump_and_reload_agree(self, tmp_path):
        lines = ab.BENGALI_TABLE.to_lines()
        reloaded = ab.CharTable.from_lines(lines)
        for cp in range(0x0980, 0x0A00):
            assert reloaded.classify(cp) is ab.BENGALI_TABLE.classify(cp)
        assert reloaded.compositions == dict(ab.BENGALI_TABLE.compositions)

        path = tmp_path / "table.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from_file = ab.load_table_file(str(path))
        assert from_file.classify(0x0995) is CC.CONSONANT
        assert ab.normalize("ড়", from_file) == "ড়"

    def test_comments_and_blanks(self):
        table = ab.CharTable.from_lines([
            "# comment", "", "0995 Consonant  # trailing",
        ])
        assert table.classify(0x0995) is CC.CONSONANT

    @pytest.mark.parametrize("line,what", [
        ("0995", "field count"),
        ("0995 Consonant 09C7", "field count"),
        ("xyzzy Consonant", "codepoint"),
        ("0995 Letter", "class tag"),
        ("09CB DependentVowelSign 09C7 nope", "composition"),
    ])
    def test_bad_records(self, line, what):
        with pytest.raises(ab.ParseError):
            ab.CharTable.from_lines([line])

    def test_duplicate_record(self):
        with pytest.raises(ab.ParseError):
            ab.CharTable.from_lines(["0995 Consonant", "0995 Other"])

    def test_duplicate_composition_pair(self):
        # The second record would silently replace the first's composition.
        with pytest.raises(ab.ParseError, match=r"line 2.*U\+0995 U\+09BC"):
            ab.CharTable.from_lines(["0996 Consonant 0995 09BC",
                                     "0997 Consonant 0995 09BC"])

    def test_bad_encoding(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_bytes(b"\xff\xfe0995 Consonant\n")
        with pytest.raises(ab.EncodingError):
            ab.load_table_file(str(path))

    def test_override_changes_classification(self):
        table = ab.CharTable.from_lines(["0995 Other"])
        assert table.classify(0x0995) is CC.OTHER
        # untouched codepoints keep their fallback behavior
        assert table.classify(ord(" ")) is CC.WHITESPACE


# The per-character loops that normalization and decomposition ran
# before their regular-expression fast paths, and the segmenter that
# kept each cluster's codepoints and classes in lists, kept as the oracle.

def _oracle_compose(text: str, table: ab.CharTable) -> str:
    out: list[str] = []
    for ch in text:
        out.append(ch)
        while len(out) >= 2:
            merged = table.compositions.get((ord(out[-2]), ord(out[-1])))
            if merged is None:
                break
            out[-2:] = [chr(merged)]
    return "".join(out)


def _oracle_normalize(text: str, table: ab.CharTable) -> str:
    for idx, ch in enumerate(text):
        if 0xD800 <= ord(ch) <= 0xDFFF:
            raise ab.InvalidEncodingError(
                f"lone surrogate U+{ord(ch):04X} at index {idx}")
    return _oracle_compose(unicodedata.normalize("NFC", text), table)


def _oracle_output_stream(text: str, table: ab.CharTable) -> str:
    return _oracle_normalize("".join(
        ch for ch in text
        if table.classify(ord(ch)) is not CC.ZERO_WIDTH_CONTROL), table)


def _oracle_segment_graphemes(text: str, table: ab.CharTable
                              ) -> list[tuple[str, int]]:
    text = ab.normalize(text, table)
    clusters: list[tuple[str, int]] = []
    cur: list[str] = []
    eff: list[CC] = []  # classes of the non-ZWC codepoints in cur
    pending = ""  # leading zero-width controls before the first cluster

    def flush() -> None:
        if cur:
            joined = "".join(cur)
            # Dropping controls may join a composing pair (ড ZWNJ nukta).
            count = len(ab.to_output_stream(joined, table)) if len(cur) > len(eff) else len(eff)
            clusters.append((joined, count))

    for ch in text:
        cls = table.classify(ord(ch))
        if cls is CC.ZERO_WIDTH_CONTROL:
            if cur:
                cur.append(ch)
            else:
                pending += ch
            continue
        attach = False
        if eff and eff[-1] not in _SINGLETON:
            if cls in _ATTACHING:
                attach = True
            elif (len(eff) >= 2
                  and eff[-1] is CC.VIRAMA
                  and eff[-2] is CC.CONSONANT
                  and cls not in _SINGLETON):
                attach = True
        if not attach:
            flush()
            cur = list(pending)
            eff = []
            pending = ""
        cur.append(ch)
        eff.append(cls)
    flush()
    if pending and not clusters:
        # Degenerate all-control text: keep it, zero constituents.
        clusters.append((pending, 0))
    return clusters


def _outcome(fn, *args):
    """What ``fn`` returns, or the message of the encoding error it raises."""
    try:
        return fn(*args)
    except ab.InvalidEncodingError as err:
        return ("error", str(err))


# Single characters, lone surrogates among them, plus composing pairs
# (cascading, or split by a control) that random text rarely holds.
_ORACLE_PIECES = _ALPHABET + [chr(cp) for cp in sorted(ZERO_WIDTH_CONTROLS)]
_ORACLE_PIECES += ["\ud800", "\udfff", "a", "\t", "\u0995\u09a1\u09bc",
                   "\u0995\u09dc", "\u09a1\u200c\u09bc", "\u09c7\u200d\u09be"]
_oracle_text = st.lists(st.sampled_from(_ORACLE_PIECES), max_size=16).map("".join)


class TestFastPathsMatchOracle:
    def test_reclassified_table_is_what_it_claims(self):
        assert _RECLASSIFIED.classify(0x200C) is CC.OTHER
        assert _RECLASSIFIED.classify(0x09BC) is CC.ZERO_WIDTH_CONTROL
        assert ab.normalize("\u0995\u09dc", _RECLASSIFIED) == "\u09ff"
        assert ab.normalize("\u0995\u09a1\u09bc", _RECLASSIFIED) == "\u09ff"
        assert (ab.to_output_stream("\u0995\u09a1\u09bc", _RECLASSIFIED).text
                == "\u0995\u09a1")
        assert (ab.to_output_stream("\u0995\u200c\u0996", _RECLASSIFIED).text
                == "\u0995\u200c\u0996")

    @pytest.mark.parametrize("table", [ab.BENGALI_TABLE, _RECLASSIFIED],
                             ids=["builtin", "reclassified"])
    @given(text=_oracle_text)
    @settings(max_examples=300)
    def test_normalize(self, table, text):
        assert (_outcome(ab.normalize, text, table)
                == _outcome(_oracle_normalize, text, table))

    @pytest.mark.parametrize("table", [ab.BENGALI_TABLE, _RECLASSIFIED],
                             ids=["builtin", "reclassified"])
    @given(text=_oracle_text)
    @settings(max_examples=300)
    def test_to_output_stream(self, table, text):
        fast = _outcome(lambda: ab.to_output_stream(text, table).text)
        assert fast == _outcome(_oracle_output_stream, text, table)

    @pytest.mark.parametrize("table", [ab.BENGALI_TABLE, _RECLASSIFIED, _REWIRED],
                             ids=["builtin", "reclassified", "rewired"])
    @given(text=_oracle_text)
    @example(text="\u0995 a \u09e6\u09be a\t\u0996\u09cd \u09e7")
    @settings(max_examples=300)
    def test_segment_graphemes(self, table, text):
        # The oracle cuts the output-stream text, which holds no controls.
        def fast():
            return [(c.text, c.constituent_count)
                    for c in ab.segment_graphemes(text, table)]
        def oracle():
            return _oracle_segment_graphemes(
                ab.to_output_stream(text, table).text, table)
        assert _outcome(fast) == _outcome(oracle)

    @pytest.mark.parametrize("table", [ab.BENGALI_TABLE, _RECLASSIFIED],
                             ids=["builtin", "reclassified"])
    @given(text=_oracle_text)
    @settings(max_examples=300)
    def test_segment_graphemes_of_a_stream(self, table, text):
        # A stream flattened under the table is cut as the text is.
        def of_stream():
            return ab.segment_graphemes(ab.to_output_stream(text, table), table)
        assert _outcome(of_stream) == _outcome(ab.segment_graphemes, text, table)

    def test_records_outside_unicode_never_match(self):
        # Table files accept any hex number; no text holds such a codepoint.
        table = ab.CharTable.from_lines(
            ["110000 ZeroWidthControl", "0995 Consonant 110000 0996"])
        assert ab.to_output_stream("ক\u200cখ", table).text == "কখ"
        assert ab.normalize("কখ", table) == "কখ"
        table = ab.CharTable.from_lines(
            ["0995 Consonant", "09CD Virama", "110000 Virama", "110001 Whitespace",
             "110002 Consonant"])
        assert [c.text for c in ab.segment_graphemes("ক্খ ক", table)] == ["ক্খ", " ", "ক"]

    def test_regex_whitespace_is_str_isspace(self):
        # The cluster pattern reads unlisted whitespace as \s, where
        # CharTable.classify asks str.isspace.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

    def test_surrogate_message_names_codepoint_and_index(self):
        with pytest.raises(ab.InvalidEncodingError,
                           match=r"^lone surrogate U\+D800 at index 1$"):
            ab.normalize("ক\ud800ষ")
