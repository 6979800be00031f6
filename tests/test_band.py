"""The banded aligner against the full (m+1)×(n+1) table it replaced.

``full_table_align`` fills every cell in exact ``Fraction`` arithmetic
and backtracks a stored backpointer table, with the same tie order
(match, substitute, delete, insert; basic steps before unit steps).
The banded aligner must give the same INF and edit script, and the
exact distance correctly rounded to a float; so must the shortcuts that
skip the band: equal streams, a common suffix that ends no unit, and the
bit-vector distance of unit-free pairs, which cuts a shared prefix and
suffix whatever the units.  No cell of the exact table may
cost less, forward plus backward, than the lower bound that sizes the
band.
"""

from __future__ import annotations

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import abugida as ab
from abugida.msd import AlignmentResult, EditOp, EditOpKind, align_symbols
from test_properties import typed_sessions

# ``abugida.msd`` the attribute is the function; the module is imported.
msd_module = importlib.import_module("abugida.msd")

COSTS = (ab.CostModel(ab.CostMode.PAPER_LITERAL),
         ab.CostModel(ab.CostMode.NORMALIZED_UNIT))


def exact_costs(cost: ab.CostModel):
    """The unit edit and substitution costs as fractions, restated."""
    if cost.mode is ab.CostMode.PAPER_LITERAL:
        return (lambda k: Fraction(1, k)), (lambda ka, kb: Fraction(1, max(ka, kb)))
    return (lambda k: Fraction(1)), (lambda ka, kb: Fraction(1))


def exact_table(a, b, units_a=None, units_b=None, cost=ab.CostModel()):
    """Every cell's least cost from (0, 0), and its argmin step, exactly."""
    ua = units_a or {}
    ub = units_b or {}
    edit_cost, substitute_cost = exact_costs(cost)
    zero, one = Fraction(0), Fraction(1)
    a = tuple(a)
    b = tuple(b)
    m, n = len(a), len(b)
    dp = [[zero] * (n + 1) for _ in range(m + 1)]
    bp = [[None] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            best = float("inf")
            op = None
            if i > 0 and j > 0:
                if a[i - 1] == b[j - 1]:
                    c = dp[i - 1][j - 1]
                    if c < best:
                        best, op = c, (EditOpKind.MATCH, 1, 1, zero)
                else:
                    c = dp[i - 1][j - 1] + one
                    if c < best:
                        best, op = c, (EditOpKind.SUBSTITUTE, 1, 1, one)
            if i > 0:
                c = dp[i - 1][j] + one
                if c < best:
                    best, op = c, (EditOpKind.DELETE, 1, 0, one)
            if j > 0:
                c = dp[i][j - 1] + one
                if c < best:
                    best, op = c, (EditOpKind.INSERT, 0, 1, one)
            ka = ua.get(i)
            kb = ub.get(j)
            if ka is not None and kb is not None and a[i - ka:i] != b[j - kb:j]:
                w = substitute_cost(ka, kb)
                c = dp[i - ka][j - kb] + w
                if c < best:
                    best, op = c, (EditOpKind.UNIT_SUBSTITUTE, ka, kb, w)
            if ka is not None:
                w = edit_cost(ka)
                c = dp[i - ka][j] + w
                if c < best:
                    best, op = c, (EditOpKind.UNIT_DELETE, ka, 0, w)
            if kb is not None:
                w = edit_cost(kb)
                c = dp[i][j - kb] + w
                if c < best:
                    best, op = c, (EditOpKind.UNIT_INSERT, 0, kb, w)
            dp[i][j] = best
            bp[i][j] = op
    return dp, bp


def full_table_align(a, b, units_a=None, units_b=None, cost=ab.CostModel()):
    """Distance, INF and script from the whole table, in exact arithmetic.

    The distance is returned as a ``Fraction``; each op's cost as the
    float of its exact cost.
    """
    a = tuple(a)
    b = tuple(b)
    m, n = len(a), len(b)
    dp, bp = exact_table(a, b, units_a, units_b, cost)
    ops = []
    i, j = m, n
    while i > 0 or j > 0:
        kind, da, db, w = bp[i][j]
        ops.append(EditOp(kind, i - da, j - db, a[i - da:i], b[j - db:j], float(w)))
        i -= da
        j -= db
    ops.reverse()
    inf = sum(max(len(op.source), len(op.target))
              for op in ops if op.kind is not EditOpKind.MATCH)
    return dp[m][n], inf, tuple(ops)


def unit_ends(text: str, profile: ab.TechniqueProfile | None) -> dict[int, int]:
    stream = ab.to_output_stream(text)
    return {seg.end: seg.end - seg.start
            for seg in ab.atomic_unit_segment(stream, profile) if seg.is_unit}


def assert_aligns_exactly(sa, sb, ua, ub) -> None:
    """Banded equals the exact table in both cost modes, with and without script."""
    for cost in COSTS:
        exact, inf, script = full_table_align(sa, sb, ua, ub, cost)
        got = align_symbols(sa, sb, ua, ub, cost)
        assert (got.distance, got.inf, got.script) == (float(exact), inf, script), (
            sa, sb, ua, ub, cost)
        bare = align_symbols(sa, sb, ua, ub, cost, script=False)
        assert (bare.distance, bare.inf, bare.script) == (float(exact), inf, ())


def assert_matches_oracle(a: str, b: str, profile=None) -> None:
    sa, sb = ab.to_output_stream(a).text, ab.to_output_stream(b).text
    assert_aligns_exactly(sa, sb, unit_ends(a, profile), unit_ends(b, profile))


# The last four hold regular expression metacharacters, which the unit
# search must take literally.
LATIN_UNITS = ("ab", "cde", "abc", "dd", "eabcd", "a.", "(b", "c|d", "\\e")
latin_profile = st.sets(st.sampled_from(LATIN_UNITS), min_size=1).map(
    lambda units: ab.TechniqueProfile("latin", frozenset(units)))
latin_piece = st.sampled_from(("a", "b", "c", "d", "e", ".", "(", "|", "\\")
                              + LATIN_UNITS)
latin_text = st.lists(latin_piece, max_size=14).map("".join)


@settings(max_examples=150, deadline=None)
@given(latin_text, latin_text, latin_profile)
def test_unit_bearing_pairs_match_full_table(a, b, profile):
    assert_matches_oracle(a, b, profile)


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_typed_pairs_match_full_table(granularity, data):
    record, profile = data.draw(typed_sessions(granularity))
    assert_matches_oracle(record.transcribed, record.presented, profile)
    assert_matches_oracle(record.presented, record.transcribed, profile)


@pytest.mark.parametrize("a, b", [
    ("", ""), ("", "ab"), ("cde", ""), ("", "ক্ষণিক"), ("ক্ষণিকের অতিথি", ""),
])
def test_one_side_empty_matches_full_table(a, b, sidebar_profile):
    assert_matches_oracle(a, b, ab.TechniqueProfile("latin", frozenset({"ab", "cde"})))
    assert_matches_oracle(a, b, sidebar_profile)


def test_paths_far_off_the_diagonal_match_full_table(sidebar_profile):
    rng = random.Random(0x0BAD)
    pieces = ["ক্ষ", "ণ", "ি", "ক", "ে", "র", " ", "অ", "ত", "থ"]
    strayed = 0
    for _ in range(6):
        s = "".join(rng.choice(pieces) for _ in range(50))
        a, b = "q" * 10 + s, s + "z" * 10
        assert len(ab.to_output_stream(a)) >= 60
        for x, y in ((a, b), (b, a)):
            assert_matches_oracle(x, y, sidebar_profile)
            assert_matches_oracle(x, y, None)
            sx, sy = ab.to_output_stream(x).text, ab.to_output_stream(y).text
            script = full_table_align(sx, sy)[2]
            strayed += max(abs(op.pos_b - op.pos_a) for op in script) > 4
    assert strayed  # the optimum really leaves [-4, 4]


def test_long_typed_like_pairs_match_full_table():
    rng = random.Random(20261018)
    profile = ab.TechniqueProfile("latin", frozenset({"ab", "cde", "eabcd"}))
    for _ in range(8):
        a = "".join(rng.choice("abcde") for _ in range(rng.randrange(60, 120)))
        b = list(a)
        for _ in range(rng.randrange(1, 12)):
            at = rng.randrange(len(b) + 1)
            span = rng.randrange(1, 8)
            if rng.random() < 0.5:
                del b[at:at + span]
            else:
                b[at:at] = rng.choices("abcde", k=span)
        assert_matches_oracle(a, "".join(b), profile)


@st.composite
def unit_maps(draw, length: int) -> dict[int, int]:
    """Any valid map: some ends, each with a unit of length 1 to 5."""
    ends = draw(st.sets(st.integers(1, length))) if length else set()
    return {end: draw(st.integers(1, min(5, end))) for end in sorted(ends)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_arbitrary_unit_maps_match_exact_table(data):
    # Pins the band bound: each side's unit ends price its diagonals,
    # cheapest first.  A shared middle lets the optimal path stray far
    # from [min(0, δ), max(0, δ)] through cheap unit edits.
    shared = data.draw(st.text("abc", max_size=12))
    a = data.draw(st.text("abc", max_size=8)) + shared
    b = shared + data.draw(st.text("abc", max_size=8))
    assert_aligns_exactly(a, b, data.draw(unit_maps(len(a))),
                          data.draw(unit_maps(len(b))))


def lower_bound(d, delta, ua, ub, cost):
    """LB(d) of ``align_symbols``' docstring, in exact arithmetic.

    Steps that move up are priced with b's unit ends, each filling at most
    its length of diagonals at its edit cost per diagonal, cheapest first,
    and basic steps at 1 after them; steps that move down with a's.
    """
    edit_cost, _ = exact_costs(cost)

    def cover(x, units):
        total = Fraction(0)
        for k in sorted(units.values(), key=lambda k: edit_cost(k) / k):
            used = min(x, k)
            total += used * edit_cost(k) / k
            x -= used
        return total + x

    return (cover(max(0, d) + max(0, delta - d), ub)
            + cover(max(0, -d) + max(0, d - delta), ua))


def reversed_units(units, length):
    """The same units, on the reversed sequence."""
    return {length - end + k: k for end, k in units.items()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_cell_beats_the_band_lower_bound(data):
    shared = data.draw(st.text("abc", max_size=10))
    a = data.draw(st.text("abc", max_size=8)) + shared
    b = shared + data.draw(st.text("abc", max_size=8))
    ua, ub = data.draw(unit_maps(len(a))), data.draw(unit_maps(len(b)))
    m, n = len(a), len(b)
    delta = n - m
    upper = full_table_align(a, b)[0]  # no units: every path costs at least D
    step = math.lcm(*ua.values(), *ub.values())
    for cost in COSTS:
        bound = {d: lower_bound(d, delta, ua, ub, cost) for d in range(-m, n + 1)}
        # Each cell's best path from (0, 0) and its best path on to (m, n),
        # the latter as the reversed pair's best path to the mirrored cell.
        forward = exact_table(a, b, ua, ub, cost)[0]
        backward = exact_table(a[::-1], b[::-1], reversed_units(ua, m),
                               reversed_units(ub, n), cost)[0]
        for i in range(m + 1):
            for j in range(n + 1):
                assert forward[i][j] + backward[m - i][n - j] >= bound[j - i]
        kept = [d for d in bound if bound[d] <= upper]
        lo, hi = kept[0], kept[-1]
        assert kept == list(range(lo, hi + 1))
        assert lo <= min(0, delta) and max(0, delta) <= hi
        # The aligner keeps exactly these diagonals.
        edit_cost = exact_costs(cost)[0]
        edit_w = {k: int(edit_cost(k) * step) for k in {*ua.values(), *ub.values()}}
        assert msd_module._band(m, n, ua, ub, step, edit_w, int(upper)) == (lo, hi)


@settings(max_examples=150, deadline=None)
@given(st.text("abc", max_size=12), st.data())
def test_equal_pairs_match_full_table(a, data):
    ua = data.draw(unit_maps(len(a)))
    ub = data.draw(st.just(ua) | unit_maps(len(a)))
    assert_aligns_exactly(a, a, ua, ub)


@st.composite
def suffix_pairs(draw):
    """Two texts that share a long suffix, and unit maps for them.

    Units end anywhere in the two heads.  One side may also hold a unit
    that ends exactly where the shared suffix starts, or one that starts
    in the head and ends inside the suffix.
    """
    suffix = draw(st.text("abc", min_size=4, max_size=12))
    heads = [draw(st.text("abc", max_size=6)) for _ in range(2)]
    maps = [draw(unit_maps(len(head))) for head in heads]
    side = draw(st.integers(0, 1))
    head = len(heads[side])
    placement = draw(st.sampled_from(("none", "at the boundary", "across it")))
    if placement == "at the boundary" and head:
        maps[side][head] = draw(st.integers(1, min(5, head)))
    elif placement == "across it" and head:
        into = draw(st.integers(1, min(4, len(suffix))))
        maps[side][head + into] = draw(st.integers(into + 1, min(5, head + into)))
    return heads[0] + suffix, heads[1] + suffix, maps[0], maps[1]


@settings(max_examples=300, deadline=None)
@given(suffix_pairs())
def test_common_suffix_pairs_match_full_table(pair):
    assert_aligns_exactly(*pair)


def test_a_unit_inside_the_common_suffix_stops_the_trim():
    # Trimmed past a's unit ab, the pair would cost 2.0 instead of 1.5.
    assert_aligns_exactly("aba", "aaaba", {2: 2}, {4: 2})
    assert align_symbols("aba", "aaaba", {2: 2}, {4: 2}).distance == 1.5


@st.composite
def prefix_pairs(draw):
    """Two texts that share a long prefix, and unit maps for them, or none.

    Units end anywhere in the two tails.  Each side may also hold units
    that lie wholly inside the shared prefix, one that ends exactly where
    it ends, or one that starts inside it and ends in the tail.  A cut of
    the prefix is not exact with units: one inside it can start a path
    cheaper than its matches.
    """
    prefix = draw(st.text("abc", min_size=4, max_size=12))
    tails = [draw(st.text("abc", max_size=6)) for _ in range(2)]
    if not draw(st.booleans()):
        return prefix + tails[0], prefix + tails[1], {}, {}
    maps = []
    for tail in tails:
        units = {len(prefix) + end: k for end, k in draw(unit_maps(len(tail))).items()}
        placement = draw(st.sampled_from(("none", "inside it", "at its end", "across it")))
        if placement == "inside it":
            units.update(draw(unit_maps(len(prefix) - 1)))
        elif placement == "at its end":
            units[len(prefix)] = draw(st.integers(1, min(5, len(prefix))))
        elif placement == "across it" and tail:
            into = draw(st.integers(1, min(4, len(tail))))
            units[len(prefix) + into] = draw(st.integers(into + 1, 5))
        maps.append(units)
    return prefix + tails[0], prefix + tails[1], maps[0], maps[1]


@settings(max_examples=300, deadline=None)
@given(prefix_pairs())
def test_common_prefix_pairs_match_full_table(pair):
    # The band pass cuts no prefix; the bit-vector bound U does.
    assert_aligns_exactly(*pair)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bit_distance_cuts_a_shared_prefix_and_suffix_exactly(data):
    alphabet = data.draw(st.sampled_from(("ab", "abcd", CLUSTERS)))
    shared = st.lists(st.sampled_from(alphabet), max_size=10)
    head, tail = data.draw(shared), data.draw(shared)
    cores = [data.draw(st.lists(st.sampled_from((*alphabet, "z")), max_size=8))
             for _ in range(2)]
    a, b = (tuple(head + core + tail) for core in cores)
    assert msd_module._bit_distance(a, b) == full_table_align(a, b)[1]


@pytest.mark.parametrize("granularity", ["basic", "unit"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_typed_pairs_with_a_shared_tail_match_full_table(granularity, data):
    record, profile = data.draw(typed_sessions(granularity))
    tail = record.presented
    assert_matches_oracle(record.transcribed + tail, record.presented + tail, profile)
    assert_matches_oracle(record.presented + tail, record.transcribed + tail, profile)


CLUSTERS = ("ক্ষ", "কি", "ি", "ক", " ", "১")


def assert_unit_free_exact(a, b) -> None:
    """No units: INF is the distance, and the bit vectors compute it."""
    exact, inf, _ = full_table_align(a, b)
    assert exact == inf
    assert msd_module._bit_distance(tuple(a), tuple(b)) == inf
    for cost in COSTS:
        bare = align_symbols(a, b, None, None, cost, script=False)
        assert (bare.distance, bare.inf, bare.script) == (float(exact), inf, ())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_free_pairs_match_full_table(data):
    alphabet = data.draw(st.sampled_from(("a", "ab", "abcd", CLUSTERS)))
    a = data.draw(st.lists(st.sampled_from(alphabet), max_size=14))
    # b may hold symbols that a never does
    b = data.draw(st.lists(st.sampled_from((*alphabet, "z", "খা")), max_size=14))
    assert_unit_free_exact(tuple(a), tuple(b))


@pytest.mark.parametrize("m, n", [(0, 0), (0, 70), (140, 0), (63, 65), (64, 64),
                                  (65, 129), (129, 130), (150, 120)])
def test_long_unit_free_pairs_match_full_table(m, n):
    rng = random.Random(m * 1000 + n)
    a = "".join(rng.choice("abcd") for _ in range(m))
    b = "".join(rng.choice("abcdz") for _ in range(n))
    assert_unit_free_exact(a, b)
    clusters_a = tuple(rng.choice(CLUSTERS) for _ in range(m))
    clusters_b = tuple(rng.choice(CLUSTERS + ("খা",)) for _ in range(n))
    assert_unit_free_exact(clusters_a, clusters_b)


class TestShortcutsSkipTheBand:
    @pytest.fixture
    def band_inputs(self, monkeypatch):
        seen = []
        band_pass = msd_module._band_pass

        def recording(a, b, *rest):
            seen.append(("".join(a), "".join(b)))
            return band_pass(a, b, *rest)

        monkeypatch.setattr(msd_module, "_band_pass", recording)
        return seen

    def test_equal_streams(self, band_inputs):
        result = align_symbols("abcab", "abcab", {2: 2}, {5: 2})
        assert result == AlignmentResult(
            0.0, full_table_align("abcab", "abcab", {2: 2}, {5: 2})[2], 0)
        assert align_symbols("abcab", "abcab", script=False) == AlignmentResult(0.0, (), 0)
        assert band_inputs == []

    def test_common_suffix_after_the_last_unit_end(self, band_inputs):
        result = align_symbols("xabcc", "yabcc", {3: 2}, {})
        assert set(band_inputs) == {("xab", "yab")}
        assert result.script[3:] == (EditOp(EditOpKind.MATCH, 3, 3, ("c",), ("c",), 0.0),
                                     EditOp(EditOpKind.MATCH, 4, 4, ("c",), ("c",), 0.0))

    # The recorder outlives Hypothesis's examples: it is emptied before
    # every call.
    @pytest.mark.parametrize("granularity", ["basic", "unit"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_band_pass_per_alignment(self, band_inputs, granularity, data):
        record, typed_profile = data.draw(typed_sessions(granularity))
        pairs = [(record.transcribed, record.presented, typed_profile),
                 (data.draw(latin_text), data.draw(latin_text),
                  data.draw(latin_profile))]
        for x, y, profile in pairs:
            sx, sy = ab.to_output_stream(x).text, ab.to_output_stream(y).text
            ux, uy = unit_ends(x, profile), unit_ends(y, profile)
            for a, b, ua, ub in ((sx, sy, ux, uy), (sy, sx, uy, ux)):
                for cost in COSTS:
                    for script in (True, False):
                        band_inputs.clear()
                        align_symbols(a, b, ua, ub, cost, script=script)
                        assert len(band_inputs) <= 1, (a, b, ua, ub, cost)

    def test_unit_free_pair_without_script(self, band_inputs):
        assert align_symbols("kitten", "sitting", script=False) == AlignmentResult(3.0, (), 3)
        assert band_inputs == []
        assert align_symbols("kitten", "sitting").distance == 3.0
        assert set(band_inputs) == {("kitten", "sitting")}


class TestExactTies:
    def test_float_rounding_no_longer_picks_inf(self):
        profile = ab.TechniqueProfile("latin", frozenset(LATIN_UNITS))
        a, b = "abeabcbac", "babaacde"
        result = align_symbols(a, b, unit_ends(a, profile), unit_ends(b, profile))
        assert result.inf == 9  # a float table gives 12
        assert result.distance == 11 / 3

    def test_band_is_sized_by_the_longest_unit(self):
        # Priced by the 1-symbol units, the band would miss the optimum.
        assert_aligns_exactly("baaaaac", "aaaacba", {1: 1, 5: 4},
                              {1: 1, 2: 1, 3: 1, 4: 3})

    def test_distance_is_the_correctly_rounded_fraction(self):
        result = align_symbols("dbabcdaabcabc", "", {6: 4, 10: 3, 13: 3}, {})
        assert result.distance == 47 / 12  # float sums give 3.916666666666667


class TestUnitMapChecks:
    def test_unit_longer_than_its_end_is_refused(self):
        # a unit of 3 cannot end at index 1
        with pytest.raises(ValueError, match="units_a"):
            align_symbols("abc", "xbc", {1: 3})

    def test_zero_length_unit_is_refused(self):
        with pytest.raises(ValueError, match="units_a"):
            align_symbols("abc", "xbc", {2: 0})

    def test_end_past_the_sequence_is_refused(self):
        with pytest.raises(ValueError, match="units_b"):
            align_symbols("abc", "xbc", None, {4: 2})

    def test_unit_ending_at_the_end_is_allowed(self):
        result = align_symbols("abc", "x", {3: 3})
        assert result.distance == pytest.approx(1 / 3 + 1)


class TestUnitMaterialOncePerProfile:
    def test_units_are_flattened_once(self, monkeypatch):
        calls = []

        def counting(text, table=ab.BENGALI_TABLE):
            calls.append(text)
            return ab.to_output_stream(text, table)

        monkeypatch.setattr(msd_module, "to_output_stream", counting)
        profile = ab.TechniqueProfile("t", frozenset({"ক্ষ", "ন্ড", "স্ত"}))
        assert sorted(calls) == sorted(profile.atomic_units)  # when built
        a, b = ab.to_output_stream("ক্ষণ"), ab.to_output_stream("ন্ডর")
        first = ab.msd(a, b, profile)
        assert ab.msd(a, b, profile) == first
        assert ab.atomic_unit_segment(a, profile)[0].text == "ক্ষ"
        assert len(calls) == 3  # alignment and segmentation flatten nothing

        # ZWNJ is a dropped control under the built-in table, text here.
        zwnj_other = ab.CharTable.from_lines(
            [*ab.BENGALI_TABLE.to_lines(), "200C Other"])
        units = frozenset({"ক\u200cষ"})
        built_in = ab.TechniqueProfile("t", units)
        other = ab.TechniqueProfile("t", units, table=zwnj_other)
        assert [len(s) for s in built_in.unit_seqs] == [2]
        assert [len(s) for s in other.unit_seqs] == [3]
        assert other == built_in and repr(other) == repr(built_in)

    def test_index_keeps_longest_first(self):
        profile = ab.TechniqueProfile("t", frozenset({"ab", "abc", "ba"}))
        segments = ab.atomic_unit_segment(ab.to_output_stream("abcbab"), profile)
        assert [(s.text, s.is_unit) for s in segments] == [
            ("abc", True), ("ba", True), ("b", False)]
