"""Alignment engine versus independent brute-force oracles.

The oracles recompute distances by plain recursion over the allowed
transitions, with their own greedy unit segmentation, sharing no code
with the engine.  The unit oracle computes in exact fractions, and the
engine's distance must be its correctly rounded float.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abugida as ab
from abugida.msd import _greedy_unit_ends, align_symbols


def stream(text: str) -> ab.OutputStream:
    return ab.to_output_stream(text)


def char_oracle(a: str, b: str) -> int:
    """Unit-cost edit distance by unmemoized recursion."""
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
                   rec(i - 1, j) + 1,
                   rec(i, j - 1) + 1)
    return rec(len(a), len(b))


def greedy_ends(s: str, units: list[str]) -> dict[int, int]:
    """Independent greedy leftmost-longest pass over a plain string."""
    units = sorted(units, key=lambda u: (-len(u), u))
    ends: dict[int, int] = {}
    i = 0
    while i < len(s):
        for u in units:
            if s.startswith(u, i):
                ends[i + len(u)] = len(u)
                i += len(u)
                break
        else:
            i += 1
    return ends


def unit_oracle(a: str, b: str, units: list[str], normalized: bool = False) -> Fraction:
    """Exact distance with whole-unit transitions, by plain recursion."""
    ua, ub = greedy_ends(a, units), greedy_ends(b, units)

    def unit_cost(n: int) -> Fraction:
        return Fraction(1) if normalized else Fraction(1, n)

    def rec(i: int, j: int) -> Fraction:
        if i == 0 and j == 0:
            return Fraction(0)
        best = float("inf")
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
        if i > 0:
            best = min(best, rec(i - 1, j) + 1)
        if j > 0:
            best = min(best, rec(i, j - 1) + 1)
        ka, kb = ua.get(i), ub.get(j)
        if ka and kb and a[i - ka:i] != b[j - kb:j]:
            cost = unit_cost(max(ka, kb))
            best = min(best, rec(i - ka, j - kb) + cost)
        if ka:
            best = min(best, rec(i - ka, j) + unit_cost(ka))
        if kb:
            best = min(best, rec(i, j - kb) + unit_cost(kb))
        return best

    return rec(len(a), len(b))


def apply_script(script) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Rebuild both sides from the script: (consumed a, produced b)."""
    consumed: list[str] = []
    produced: list[str] = []
    for op in script:
        consumed.extend(op.source)
        produced.extend(op.target)
    return tuple(consumed), tuple(produced)


LATIN = "abcde"
latin_text = st.text(alphabet=st.sampled_from(LATIN), max_size=8)


class TestCharOnly:
    @given(latin_text)
    def test_identity_is_zero(self, text):
        s = stream(text)
        assert ab.msd(s, s).distance == 0.0

    @given(latin_text, latin_text)
    def test_zero_only_for_identical(self, a, b):
        d = ab.msd(stream(a), stream(b)).distance
        assert (d == 0.0) == (a == b)

    @given(latin_text, latin_text)
    def test_symmetry(self, a, b):
        assert (ab.msd(stream(a), stream(b)).distance
                == ab.msd(stream(b), stream(a)).distance)

    @given(latin_text, latin_text)
    def test_bounded_by_longer_side(self, a, b):
        assert ab.msd(stream(a), stream(b)).distance <= max(len(a), len(b), 0)

    @settings(max_examples=40)
    @given(st.text(alphabet=st.sampled_from("ab"), max_size=5),
           st.text(alphabet=st.sampled_from("ab"), max_size=5),
           st.text(alphabet=st.sampled_from("ab"), max_size=5))
    def test_triangle_inequality(self, a, b, c):
        d = lambda x, y: ab.msd(stream(x), stream(y)).distance
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-9

    def test_exhaustive_small_grid_vs_oracle(self):
        # every pair with |a| + |b| <= 5 over a three-letter alphabet
        strings = [""]
        for n in range(1, 5):
            strings += ["".join(t) for t in itertools.product("abc", repeat=n)]
        for a in strings:
            for b in strings:
                if len(a) + len(b) > 5:
                    continue
                assert ab.msd(stream(a), stream(b)).distance == char_oracle(a, b), (a, b)

    def test_square_grid_vs_memoized_oracle(self):
        # every pair with |a| <= 6 and |b| <= 6 over a two-letter alphabet
        strings = [""]
        for n in range(1, 7):
            strings += ["".join(t) for t in itertools.product("ab", repeat=n)]

        def memo_oracle(a: str, b: str) -> int:
            @functools.lru_cache(maxsize=None)
            def rec(i: int, j: int) -> int:
                if i == 0:
                    return j
                if j == 0:
                    return i
                return min(rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
                           rec(i - 1, j) + 1,
                           rec(i, j - 1) + 1)
            return rec(len(a), len(b))

        for a in strings:
            for b in strings:
                assert ab.msd(stream(a), stream(b)).distance == memo_oracle(a, b), (a, b)


UNIT_PROFILE = ab.TechniqueProfile("latin", frozenset({"ab", "cde"}))


class TestUnitCosts:
    def test_three_constituent_unit_delete(self, sidebar_profile):
        result = ab.msd(stream("ক্ষর"), stream("র"), sidebar_profile)
        assert result.distance == pytest.approx(1 / 3)

    def test_four_constituent_unit_costs_quarter(self):
        profile = ab.TechniqueProfile("t", frozenset({"ক্ষা"}))
        result = ab.msd(stream("ক্ষার"), stream("র"), profile)
        assert result.distance == 0.25
        normalized = ab.msd(stream("ক্ষার"), stream("র"), profile,
                            ab.CostModel(ab.CostMode.NORMALIZED_UNIT))
        assert normalized.distance == 1.0

    def test_unit_substitution_costs_inverse_max(self):
        result = ab.msd(stream("ab"), stream("cde"), UNIT_PROFILE)
        assert result.distance == pytest.approx(1 / 3)
        assert [op.kind for op in result.script] == [ab.EditOpKind.UNIT_SUBSTITUTE]
        normalized = ab.msd(stream("ab"), stream("cde"), UNIT_PROFILE,
                            ab.CostModel(ab.CostMode.NORMALIZED_UNIT))
        assert normalized.distance == 1.0
        assert [op.kind for op in normalized.script] == [ab.EditOpKind.UNIT_SUBSTITUTE]

    def test_identical_units_match_for_free(self):
        assert ab.msd(stream("ab"), stream("ab"), UNIT_PROFILE).distance == 0.0

    def test_unit_insert(self):
        result = ab.msd(stream("x"), stream("xab"), UNIT_PROFILE)
        assert result.distance == 0.5
        kinds = [op.kind for op in result.script]
        assert ab.EditOpKind.UNIT_INSERT in kinds

    def test_random_pairs_vs_oracle(self):
        rng = random.Random(20260816)
        units = ["ab", "cde"]
        for _ in range(300):
            a = "".join(rng.choice(LATIN) for _ in range(rng.randrange(0, 7)))
            b = "".join(rng.choice(LATIN) for _ in range(rng.randrange(0, 7)))
            got = ab.msd(stream(a), stream(b), UNIT_PROFILE).distance
            assert got == float(unit_oracle(a, b, units)), (a, b)
            norm = ab.msd(stream(a), stream(b), UNIT_PROFILE,
                          ab.CostModel(ab.CostMode.NORMALIZED_UNIT)).distance
            assert norm == float(unit_oracle(a, b, units, normalized=True)), (a, b)

    def test_cost_mode_monotonicity(self):
        rng = random.Random(7)
        paper = ab.CostModel(ab.CostMode.PAPER_LITERAL)
        norm = ab.CostModel(ab.CostMode.NORMALIZED_UNIT)
        for _ in range(200):
            a = "".join(rng.choice(LATIN) for _ in range(rng.randrange(0, 8)))
            b = "".join(rng.choice(LATIN) for _ in range(rng.randrange(0, 8)))
            d_paper = ab.msd(stream(a), stream(b), UNIT_PROFILE, paper).distance
            d_norm = ab.msd(stream(a), stream(b), UNIT_PROFILE, norm).distance
            d_char = ab.msd(stream(a), stream(b)).distance
            assert d_paper <= d_norm + 1e-9
            assert d_norm <= d_char + 1e-9

    def test_cost_mode_by_value(self):
        assert ab.CostModel("paper").unit_edit_cost(4) == 0.25

    def test_cost_mode_not_a_mode_rejected(self):
        # Not a mode: it would price a 4-symbol unit edit at 1.0.
        with pytest.raises(ValueError):
            ab.CostModel(1)

    def test_granularity_not_a_granularity_rejected(self):
        # Not a granularity: it would replay as basic.
        with pytest.raises(ValueError):
            ab.TechniqueProfile("t", backspace_granularity=1)


class TestScript:
    @given(latin_text, latin_text)
    def test_script_rebuilds_both_sides(self, a, b):
        result = ab.msd(stream(a), stream(b), UNIT_PROFILE)
        consumed, produced = apply_script(result.script)
        assert consumed == tuple(a)
        assert produced == tuple(b)

    @given(latin_text, latin_text)
    def test_costs_sum_to_distance(self, a, b):
        result = ab.msd(stream(a), stream(b), UNIT_PROFILE)
        assert sum(op.cost for op in result.script) == pytest.approx(result.distance)

    def test_deterministic(self):
        first = ab.msd(stream("abdec"), stream("cdeab"), UNIT_PROFILE)
        second = ab.msd(stream("abdec"), stream("cdeab"), UNIT_PROFILE)
        assert first == second

    def test_tie_break_prefers_substitution(self):
        # d("ab","ba") = 2 with several optimal scripts; substitution wins
        result = ab.msd(stream("ab"), stream("ba"))
        assert [op.kind for op in result.script] == [
            ab.EditOpKind.SUBSTITUTE, ab.EditOpKind.SUBSTITUTE,
        ]

    def test_tie_break_prefers_match_over_everything(self):
        # ties resolve per cell from the tail, so the match lands last
        result = ab.msd(stream("aa"), stream("a"))
        kinds = [op.kind for op in result.script]
        assert kinds == [ab.EditOpKind.DELETE, ab.EditOpKind.MATCH]


class TestInf:
    def test_sidebar_inf_is_one(self, sidebar_profile):
        result = ab.msd(stream("ক্ষণিকের অতথি"),
                        stream("ক্ষণিকের অতিথি"), sidebar_profile)
        assert result.inf == 1

    def test_perfect_transcription(self, sidebar_profile):
        s = stream("ক্ষণিকের অতিথি")
        assert ab.msd(s, s, sidebar_profile).inf == 0

    def test_unit_substitution_counts_constituents(self):
        result = ab.msd(stream("ab"), stream("cde"), UNIT_PROFILE)
        assert result.inf == 3

    def test_unit_delete_counts_constituents(self):
        profile = ab.TechniqueProfile("t", frozenset({"ক্ষা"}))
        result = ab.msd(stream("ক্ষার"), stream("র"), profile)
        assert result.inf == 4


def scan_unit_ends(symbols, unit_seqs) -> dict[int, int]:
    """The hand-written greedy scan that the compiled pattern replaced.

    Only the units that start with the symbol at hand are tried, in the
    order given; the first that matches is taken and the scan resumes
    after it, else it moves on one symbol.
    """
    by_first: dict[str, list] = {}
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


def profile_order(units) -> tuple[str, ...]:
    """Distinct units as ``TechniqueProfile.unit_seqs`` orders them."""
    return tuple(sorted(set(units), key=lambda s: (-len(s), s)))


# Every regular expression metacharacter, and two plain letters.
SEGMENT_ALPHABET = "ab.*+?()[]|\\^$"
segment_unit = st.text(st.sampled_from(SEGMENT_ALPHABET), min_size=2, max_size=5)


@st.composite
def units_and_text(draw, units=None):
    """A unit set (with prefixes, suffixes and overlaps) and a text of its pieces."""
    if units is None:
        found = draw(st.lists(segment_unit, max_size=4))
        for unit in draw(st.lists(segment_unit.filter(lambda u: len(u) >= 3),
                                  max_size=2)):
            cut = draw(st.integers(2, len(unit) - 1))
            found += [unit, unit[:cut], unit[-cut:]]  # they overlap if 2·cut > len
        units = profile_order(found)
        singles = SEGMENT_ALPHABET
    else:
        singles = [chr(cp) for cp in range(0x0980, 0x0A00)]
    piece = st.sampled_from(singles)
    if units:
        piece |= st.sampled_from(units)
    return units, "".join(draw(st.lists(piece, max_size=16)))


GOLDEN_PROFILES = [
    ab.parse_technique_profile(path.read_bytes())
    for path in sorted((Path(__file__).parent / "golden" / "profiles").glob("*.json"))]


class TestSegmentation:
    def test_unit_then_char(self, sidebar_profile):
        segments = ab.atomic_unit_segment(stream("ক্ষগ"), sidebar_profile)
        assert [(s.start, s.end, s.text, s.is_unit) for s in segments] == [
            (0, 3, "ক্ষ", True), (3, 4, "গ", False),
        ]

    def test_longest_wins(self):
        profile = ab.TechniqueProfile("t", frozenset({"ab", "abc"}))
        segments = ab.atomic_unit_segment(stream("abcx"), profile)
        assert [(s.text, s.is_unit) for s in segments] == [("abc", True), ("x", False)]

    def test_leftmost_wins_on_overlap(self):
        profile = ab.TechniqueProfile("t", frozenset({"ab", "ba"}))
        segments = ab.atomic_unit_segment(stream("aba"), profile)
        assert [(s.text, s.is_unit) for s in segments] == [("ab", True), ("a", False)]

    def test_no_profile_means_single_characters(self):
        segments = ab.atomic_unit_segment(stream("abc"), None)
        assert all(not s.is_unit for s in segments)
        assert len(segments) == 3

    @given(latin_text)
    def test_concatenation_invariant(self, text):
        segments = ab.atomic_unit_segment(stream(text), UNIT_PROFILE)
        assert "".join(s.text for s in segments) == text

    @staticmethod
    def assert_segments_as_scanned(text: str, profile: ab.TechniqueProfile) -> None:
        ends = scan_unit_ends(text, profile.unit_seqs)
        assert _greedy_unit_ends(text, profile.unit_seqs) == ends
        as_tuples = tuple(map(tuple, profile.unit_seqs))  # as criterion 4 calls it
        assert _greedy_unit_ends(tuple(text), as_tuples) == ends
        segments = ab.atomic_unit_segment(stream(text), profile)
        assert "".join(s.text for s in segments) == text
        assert {s.end: s.end - s.start for s in segments if s.is_unit} == ends
        assert all(s.end - s.start == 1 for s in segments if not s.is_unit)

    @given(units_and_text())
    def test_pattern_matches_the_scan(self, drawn):
        units, text = drawn
        profile = ab.TechniqueProfile("t", frozenset(units))
        assert profile.unit_seqs == units  # metacharacters flatten to themselves
        self.assert_segments_as_scanned(text, profile)

    @pytest.mark.parametrize("profile", GOLDEN_PROFILES,
                             ids=lambda p: p.technique_id)
    @given(data=st.data())
    def test_pattern_matches_the_scan_on_bengali(self, profile, data):
        _, text = data.draw(units_and_text(profile.unit_seqs))
        self.assert_segments_as_scanned(stream(text).text, profile)


class TestAlignSymbols:
    def test_cluster_symbols_align(self):
        # naive-view alignment compares whole clusters as atoms
        a = tuple(c.text for c in ab.segment_graphemes("কান্ড"))
        b = tuple(c.text for c in ab.segment_graphemes("কাণ্ড"))
        result = align_symbols(a, b)
        assert result.distance == 1.0
        assert result.inf == 1
