import inspect
import random
import textwrap
from itertools import combinations

import pytest

from ascentseq import core, series


def all_ascent_sequences(n):
    """Every ascent sequence of length n, straight from the definition."""
    if n < 1:
        return []
    seqs = [(0,)]
    for _ in range(n - 1):
        seqs = [a + (d,) for a in seqs for d in range(core.asc_count(a) + 2)]
    return seqs


CLASSES = [[(2, 0, 1), (2, 1, 0)], [(0, 0, 2, 1)], [(1, 0, 1, 2)]]


def test_asc_count_examples():
    assert core.asc_count((0, 1, 0, 2)) == 2
    assert core.asc_count((0,)) == 0
    assert core.asc_count((0, 1, 2, 3, 4)) == 4
    with pytest.raises(ValueError):
        core.asc_count(())


def test_validity_examples():
    assert core.is_valid_ascent_sequence((0, 1, 2, 0, 1, 0, 2))
    assert not core.is_valid_ascent_sequence((0, 1, 0, 2, 4))
    assert not core.is_valid_ascent_sequence((1,))
    assert not core.is_valid_ascent_sequence(())
    assert core.is_valid_ascent_sequence((0, 1, 0, 1, 3))


def test_reduce_examples():
    assert core.reduce((2, 7, 3, 7, 7, 2)) == (0, 2, 1, 2, 2, 0)
    assert core.reduce((0,)) == (0,)
    assert core.reduce((0, 0, 2, 1)) == (0, 0, 2, 1)
    with pytest.raises(ValueError):
        core.reduce(())


def test_reduce_idempotent_and_order_isomorphic():
    rng = random.Random(11)
    for _ in range(200):
        w = tuple(rng.randrange(0, 9) for _ in range(rng.randrange(1, 10)))
        r = core.reduce(w)
        assert core.reduce(r) == r
        assert core.is_reduced(r)
        for i in range(len(w)):
            for j in range(len(w)):
                assert (w[i] < w[j]) == (r[i] < r[j])


def test_contains_examples():
    # computed with the exhaustive subsequence oracle: positions 3,4,5 of
    # 0120102 read 2,0,1
    assert core.contains((0, 1, 2, 0, 1, 0, 2), (2, 0, 1)) is True
    assert core.contains((0, 1, 2, 0, 1), (0, 1, 0)) is True
    assert core.contains((0, 1, 2), (0, 1, 2)) is True
    assert core.contains((0, 1, 2), (2, 1, 0)) is False
    assert core.contains((0, 1), (0, 1, 2)) is False


def test_contains_matches_naive_oracle_exhaustively():
    patterns = [(2, 0, 1), (2, 1, 0), (0, 0, 2, 1), (1, 0, 1, 2), (0, 1, 0), (0, 0)]
    for n in range(1, 7):
        for w in all_ascent_sequences(n):
            for p in patterns:
                assert core.contains(w, p) == core.contains_naive(w, p), (w, p)


def test_contains_matches_naive_on_random_words():
    rng = random.Random(7)
    for _ in range(300):
        # negative and sparse values too: contains reduces before bucketing
        w = tuple(rng.randrange(-3, 12) for _ in range(rng.randrange(1, 9)))
        p = core.reduce(tuple(rng.randrange(0, 3) for _ in range(rng.randrange(1, 5))))
        assert core.contains(w, p) == core.contains_naive(w, p), (w, p)


def test_containment_is_reduction_invariant():
    rng = random.Random(13)
    for _ in range(200):
        w = tuple(rng.randrange(0, 7) for _ in range(rng.randrange(1, 9)))
        p = core.reduce(tuple(rng.randrange(0, 3) for _ in range(rng.randrange(1, 4))))
        assert core.contains(w, p) == core.contains(core.reduce(w), p)


def test_rejects_unreduced_pattern():
    with pytest.raises(ValueError):
        core.contains((0, 1, 2), (1, 2))
    with pytest.raises(ValueError):
        core.contains_naive((0, 1, 2), (0, 2))


def test_extends_without_pattern_examples():
    B = [(2, 0, 1), (2, 1, 0)]
    assert 2 in core.valid_append_set((0, 1, 2, 0), B)
    assert 1 not in core.valid_append_set((0, 1, 2, 0), B)
    assert 1 in core.valid_append_set((0,), [(0, 0, 2, 1)])
    # past the ascent bound nothing is appendable
    assert 4 not in core.valid_append_set((0, 1, 2, 0), B)


def test_extends_matches_contains_on_all_small_avoiders():
    # the naive oracle, not contains, which shares the engine under test;
    # as a avoids B, a + (d,) contains p iff some occurrence ends at d
    for B in CLASSES:
        for n in range(1, 8):
            for a in core.enumerate_avoiders(n, B):
                assert not any(core.contains_naive(a, p) for p in B), a
                appendable = core.valid_append_set(a, B)
                for d in range(core.asc_count(a) + 2):
                    expected = not any(
                        core.reduce(s + (d,)) == p
                        for p in B
                        for s in combinations(a, len(p) - 1)
                    )
                    assert (d in appendable) == expected, (a, d)


def test_valid_append_set_examples():
    assert core.valid_append_set((0, 1, 2, 0), [(2, 0, 1), (2, 1, 0)]) == (0, 2, 3)
    assert core.valid_append_set((0, 1, 0, 1, 3), [(0, 0, 2, 1)]) == (0, 3, 4)
    assert core.valid_append_set((0,), [(2, 0, 1), (2, 1, 0)]) == (0, 1)
    assert core.valid_append_set((0, 0), [(2, 0, 1), (2, 1, 0)]) == (0, 1)
    assert core.valid_append_set((0, 1), [(2, 0, 1), (2, 1, 0)]) == (0, 1, 2)
    # words outside the class, with negative and sparse values
    assert core.valid_append_set((3, 7, -1, 2), [(2, 0, 1), (2, 1, 0)]) == ()
    assert core.valid_append_set((1, -3, 3, 5), [(0, 0, 2, 1)]) == (0, 1, 2, 3)
    assert core.valid_append_set((0, 9, 9), [(0, 0, 2, 1)]) == (0, 1, 2)


def test_repeating_last_digit_always_allowed():
    for B in ([(2, 0, 1), (2, 1, 0)], [(0, 0, 2, 1)], [(1, 0, 1, 2)]):
        for n in range(1, 7):
            for a in core.enumerate_avoiders(n, B):
                assert a[-1] in core.valid_append_set(a, B)


def test_unconstrained_children_count_is_asc_plus_two():
    # with no patterns to avoid, every digit up to asc+1 extends
    for n in range(1, 7):
        for a in all_ascent_sequences(n):
            s = core.valid_append_set(a, ())
            assert s == tuple(range(core.asc_count(a) + 2))


def test_enumerate_examples():
    assert core.enumerate_avoiders(3, [(2, 0, 1), (2, 1, 0)]) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]
    assert core.enumerate_avoiders(1, [(0, 0, 2, 1)]) == [(0,)]
    assert len(core.enumerate_avoiders(4, [(0, 0, 2, 1)])) == 15
    assert core.enumerate_avoiders(0, [(0, 0, 2, 1)]) == []


def test_enumerate_matches_naive_filter():
    for B in ([(2, 0, 1), (2, 1, 0)], [(0, 0, 2, 1)], [(1, 0, 1, 2)]):
        for n in range(1, 8):
            expected = [
                w
                for w in all_ascent_sequences(n)
                if not any(core.contains_naive(w, p) for p in B)
            ]
            assert core.enumerate_avoiders(n, B) == expected


def test_enumerate_is_lexicographic():
    seqs = core.enumerate_avoiders(6, [(0, 0, 2, 1)])
    assert seqs == sorted(seqs)


def test_count_examples():
    target = [1, 2, 5, 15, 51, 188, 731]
    assert core.count_avoiders(7, [(2, 0, 1), (2, 1, 0)]) == target
    assert core.count_avoiders(7, [(0, 0, 2, 1)]) == target
    assert core.count_avoiders(7, [(1, 0, 1, 2)]) == target


def test_count_matches_enumerate():
    for B in ([(2, 0, 1), (2, 1, 0)], [(0, 0, 2, 1)]):
        counts = core.count_avoiders(7, B)
        for n in range(1, 8):
            assert counts[n - 1] == len(core.enumerate_avoiders(n, B))
    counts = core.count_avoiders(10, [(0, 0, 2, 1)])
    assert counts[9] == len(core.enumerate_avoiders(10, [(0, 0, 2, 1)]))


def test_counts_monotone():
    for B in ([(2, 0, 1), (2, 1, 0)], [(0, 0, 2, 1)], [(1, 0, 1, 2)]):
        counts = core.count_avoiders(9, B)
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_memo_holds_one_set_unaliased(monkeypatch):
    real = core._walk
    walks = []

    def counted(n_max, patterns, visit=None):
        walks.append((n_max, patterns))
        return real(n_max, patterns, visit)

    monkeypatch.setattr(core, "_LAST_COUNT", ((), []))
    monkeypatch.setattr(core, "_walk", counted)
    a, b = ((0, 0, 2, 1),), ((0, 0, 0),)
    first = core.count_avoiders(6, a)
    assert first == [1, 2, 5, 15, 51, 188]
    assert core.count_avoiders(6, b) == [1, 2, 4, 10, 27, 83]
    # b replaced a, so a walks again
    assert core.count_avoiders(6, a) == first
    assert walks == [(6, a), (6, b), (6, a)]
    # a shallower request reads the memo, a deeper one walks
    assert core.count_avoiders(3, a) == first[:3]
    assert len(walks) == 3
    deeper = core.count_avoiders(7, a)
    assert deeper[:6] == first and walks[-1] == (7, a)
    # a caller that mutates what it got leaves the memo intact
    got = core.count_avoiders(7, a)
    got[0] = -1
    got.append(99)
    assert core.count_avoiders(7, a) == deeper
    assert core.count_avoiders(5, a) == deeper[:5]
    assert len(walks) == 4


def test_count_with_no_patterns_gives_all_ascent_sequences():
    counts = core.count_avoiders(7, ())
    assert counts == [len(all_ascent_sequences(n)) for n in range(1, 8)]
    upto = []  # every ascent sequence of length up to n
    for n in range(1, 8):
        assert core.enumerate_avoiders(n, ()) == all_ascent_sequences(n), n
        upto += all_ascent_sequences(n)
        visited = []

        def visit(seq, appendable):
            assert appendable == tuple(range(core.asc_count(seq) + 2)), seq
            visited.append(seq)

        core.visit_avoiders(n, (), visit)
        assert visited == sorted(upto), n


def test_single_value_pattern_kills_everything():
    assert core.count_avoiders(5, [(0,)]) == [0, 0, 0, 0, 0]
    assert core.enumerate_avoiders(3, [(0,)]) == []
    assert core.enumerate_avoiders(1, [(0,)]) == []
    visited = []
    core.visit_avoiders(3, [(0,)], lambda seq, appendable: visited.append(seq))
    assert visited == []


def test_sequence_text_roundtrip():
    assert core.parse_sequence("0120102") == (0, 1, 2, 0, 1, 0, 2)
    assert core.format_sequence((0, 1, 2, 0)) == "0120"
    long_seq = tuple(range(11))
    assert core.parse_sequence(core.format_sequence(long_seq)) == long_seq
    with pytest.raises(ValueError):
        core.parse_sequence("")


def test_pattern_text_roundtrip():
    ps = core.parse_patterns("201,210")
    assert ps == ((2, 0, 1), (2, 1, 0))
    assert core.format_patterns(ps) == "201,210"
    assert core.parse_patterns("0021") == ((0, 0, 2, 1),)
    with pytest.raises(ValueError):
        core.parse_patterns("12")  # not reduced
    with pytest.raises(ValueError):
        core.parse_patterns("")


@pytest.mark.parametrize("text", ["\u0660\u0661", "\u00b2", "01,\u0661"])
def test_non_ascii_digits_are_no_pattern(text):
    # str.isdigit is true for them; int() reads the first as 01 and fails on "²"
    bad = text.split(",")[-1]
    with pytest.raises(ValueError, match=f"^pattern {bad!r} must be a digit string"):
        core.parse_patterns(text)


# Drawn once with random.Random(4171), the seed fixed before the first run:
# 24 sets of 1-3 patterns, each the reduction of a random word of length 2-5.
RANDOM_PATTERN_SETS = [
    "011", "00,01,010", "0111,2110,30321", "00321,0212,1002", "13203",
    "13020", "0111,11011,2013", "00,0211", "00,02313,20310", "102,22031",
    "00,120,12202", "10,2102", "01120,02021,03321", "01,12001", "10,100,101",
    "100", "01200,31032", "100", "011,02132", "00,1230", "001,101,22110",
    "00,1011,1101", "00,01,02211", "00,012",
]


@pytest.mark.parametrize("text", RANDOM_PATTERN_SETS)
def test_walk_matches_naive_oracle_on_random_pattern_sets(monkeypatch, text):
    # at n = 1 and 2 counting and enumerating push no word; patterns of
    # length 5 are longer than the shortest words
    monkeypatch.setattr(core, "_LAST_COUNT", ((), []))
    B = core.parse_patterns(text)
    upto = []  # the avoiders of every length up to n
    for n in range(1, 8):
        expected = [
            w
            for w in all_ascent_sequences(n)
            if not any(core.contains_naive(w, p) for p in B)
        ]
        assert core.enumerate_avoiders(n, B) == expected, n
        assert core.count_avoiders(n, B)[-1] == len(expected), n
        upto += expected
        visited = []

        def visit(seq, appendable):
            assert appendable == core.valid_append_set(seq, B), seq
            visited.append(seq)

        core.visit_avoiders(n, B, visit)
        assert visited == sorted(upto), n


@pytest.mark.parametrize("text", ["201,210", "0021", "1012"] + RANDOM_PATTERN_SETS)
def test_count_enumerate_and_visit_agree_at_8_and_9(monkeypatch, text):
    # past the naive oracle's reach: counting takes the popcount of each
    # deepest word's mask, enumerating lists its set bits, and visiting
    # reads the length-n words' masks in their parents' kid loops
    monkeypatch.setattr(core, "_LAST_COUNT", ((), []))
    B = core.parse_patterns(text)
    for n in (8, 9):
        visited = [0]

        def visit(seq, appendable):
            visited[0] += len(seq) == n

        core.visit_avoiders(n, B, visit)
        count = core.count_avoiders(n, B)[-1]
        assert count == len(core.enumerate_avoiders(n, B)) == visited[0], n


@pytest.mark.parametrize("B", CLASSES)
def test_visit_reads_valid_append_set_to_8(B):
    # the avoiders of length 8 are the deepest the walk reaches: they are
    # never pushed, and their parents read their appendable digits off masks
    seen = [0] * 9

    def visit(seq, appendable):
        assert appendable == core.valid_append_set(seq, B), seq
        seen[len(seq)] += 1

    core.visit_avoiders(8, B, visit)
    assert seen[1:] == [1, 2, 5, 15, 51, 188, 731, 2950]


def test_walk_pushes_only_the_words_it_descends_below(monkeypatch):
    # the words of length n - 1 are read off their parents' masks: a walk
    # to n pushes each avoider of length 1..n-2 once per tracker
    real = core._PatternTracker.push
    pushes = [0]

    def push(self, d):
        pushes[0] += 1
        return real(self, d)

    monkeypatch.setattr(core._PatternTracker, "push", push)
    monkeypatch.setattr(core, "_LAST_COUNT", ((), []))
    for B in CLASSES:
        for n in range(1, 9):
            pushes[0] = 0
            counts = core.count_avoiders(n, B)
            trackers = sum(len(p) <= n for p in B)
            assert pushes[0] == trackers * sum(counts[: n - 2]), (B, n)


def old_completes(t, d):
    """completes(d) as the loop it replaced: the OR, over the stored matches
    with k-2 positions filled (the empty match when k = 2) whose window holds
    d, of their windows for the last position once they consume d."""
    p = t.pattern
    mask = 0
    for pm in [t.empty] if t.k == 2 else t.seen[t.k - 2]:
        lo, hi = t.window(pm, p[-2])
        if lo <= d <= hi:
            lo, hi = t.window(core._extend(pm, p[-2], d), p[-1])
            if lo <= hi:
                mask |= (2 << hi) - (1 << lo)
    return mask


@pytest.mark.parametrize(
    "text", ["201,210", "0021", "1012"] + RANDOM_PATTERN_SETS + ["00", "01", "10"]
)
def test_completes_is_the_or_over_stored_matches(text):
    # drive one tracker per pattern along every avoider up to n = 7
    B = core.parse_patterns(text)
    n, max_digit = 7, 7
    kids = {(): (0,)}
    core.visit_avoiders(n - 1, B, lambda seq, appendable: kids.update({seq: appendable}))
    trackers = [core._PatternTracker(p, max_digit) for p in B]
    nodes = [0]

    def rec(seq):
        nodes[0] += 1
        for t in trackers:
            for d in range(max_digit + 1):
                assert t.completes(d) == old_completes(t, d), (t.pattern, seq, d)
        if len(seq) == n:
            return
        for d in kids[seq]:
            trails = [t.push(d) for t in trackers]
            rec(seq + (d,))
            for t, tr in zip(trackers, trails):
                t.undo(tr)

    rec(())
    assert nodes[0] == 1 + sum(core.count_avoiders(n, B))


@pytest.mark.parametrize("text", ["201,210", "0021", "1012", "0111,2110,30321"])
def test_push_and_undo_leave_no_state_behind(text):
    B = core.parse_patterns(text)
    fresh = [core._PatternTracker(p, 8) for p in B]
    for word in [(0, 1, 0, 2, 1, 3, 0, 2, 4), (0, 1, 2, 1, 0, 3, 3, 2, 4), (0, 0, 1, 1, 0, 2, 2, 1, 0)]:
        trackers = [core._PatternTracker(p, 8) for p in B]
        trails = [[t.push(d) for d in word] for t in trackers]
        assert any(len(stack) > 1 for t in trackers for stack in t.done), word
        for t, f, tr in zip(trackers, fresh, trails):
            for trail in reversed(tr):
                t.undo(trail)
            assert all(len(stack) == 1 for stack in t.done), (t.pattern, word)
            assert [s[0] for s in t.done] == [s[0] for s in f.done], (t.pattern, word)
            assert not any(b for level in t.accept[1:] for b in level), (t.pattern, word)
            assert not any(t.seen[1:]), (t.pattern, word)


def _faulty_push(monkeypatch):
    """push that stacks each closing mask alone, dropping the OR with the
    mask below it."""
    src = inspect.getsource(core._PatternTracker.push)
    assert src.count("stack[-1] | closing") == 1
    namespace = {}
    exec(textwrap.dedent(src.replace("stack[-1] | closing", "closing")), vars(core), namespace)
    monkeypatch.setattr(core._PatternTracker, "push", namespace["push"])


def _leaky_undo(monkeypatch):
    """undo that leaves one entry on a done stack."""
    real = core._PatternTracker.undo

    def undo(self, trail):
        leak = [(lo, self.done[lo][-1]) for j2, _, lo, _ in trail if j2 == self.k - 2][:1]
        real(self, trail)
        for dd, top in leak:
            self.done[dd].append(top)

    monkeypatch.setattr(core._PatternTracker, "undo", undo)


@pytest.mark.parametrize("fault", [_faulty_push, _leaky_undo])
def test_broken_done_stacks_miscount(monkeypatch, fault):
    # 0021: on 201,210 and 1012 each closing mask stacked by a walk holds the
    # ones below it, so only the leaky undo shows there
    B = [(0, 0, 2, 1)]
    monkeypatch.setattr(core, "_LAST_COUNT", ((), []))
    fault(monkeypatch)
    counts = core.count_avoiders(8, B)
    assert counts != [series.a007317(n) for n in range(1, 9)]
    naive = [
        sum(not any(core.contains_naive(w, p) for p in B) for w in all_ascent_sequences(n))
        for n in range(1, 8)
    ]
    assert counts[:7] != naive
