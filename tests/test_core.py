import functools
import inspect
import random
import textwrap
from itertools import combinations, product

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
    # no pattern of the three classes ends in two equal values, and
    # gentree_0021's label takes the rank of the last digit among the
    # appendable ones
    for B in CLASSES:
        for n in range(1, 9):
            for a in core.enumerate_avoiders(n, B):
                assert a[-1] in core.valid_append_set(a, B)
    # a pattern ending in a repeated value forbids the repeat
    assert core.valid_append_set((0,), [(0, 0)]) == (1,)


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


def old_format_sequence(seq):
    """format_sequence before words of digits 0..9 went through a byte table."""
    if any(d > 9 for d in seq):
        return ".".join(str(d) for d in seq)
    return "".join(str(d) for d in seq)


def test_format_sequence_is_the_join():
    # every word of up to three digits in 0..15, the empty word among them,
    # and longer words, random and of each kind
    rng = random.Random(29)
    words = [w for n in range(4) for w in product(range(16), repeat=n)]
    words += [tuple(rng.randrange(16) for _ in range(rng.randrange(4, 30))) for _ in range(300)]
    words += [tuple(range(10)) * 3, tuple(range(16)), (9,) * 40 + (10,), (0,) * 1000]
    for w in words:
        assert core.format_sequence(w) == old_format_sequence(w), w
    # no ascent sequence has a negative digit
    with pytest.raises(ValueError):
        core.format_sequence((0, -1))


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


@pytest.mark.parametrize(
    "text, depths",
    [(text, range(11)) for text in ("201,210", "0021", "1012")]
    + [(text, range(9)) for text in RANDOM_PATTERN_SETS]
    # the empty set, and 0, whose class is empty; the one avoider of 00 of
    # length 11 or 12 holds a digit above 9
    + [("", range(8)), ("0", range(9)), ("00", (10, 11, 12))],
)
def test_format_avoiders_is_format_sequence_of_each_avoider(text, depths):
    B = core.parse_patterns(text) if text else ()
    for n in depths:
        assert core.format_avoiders(n, B) == [
            core.format_sequence(w) for w in core.enumerate_avoiders(n, B)
        ], n
    if text == "00":
        assert core.format_avoiders(11, B) == ["0.1.2.3.4.5.6.7.8.9.10"]


def _head_off_by_one(monkeypatch):
    """format_avoiders that slices each parent's text one character late."""
    src = inspect.getsource(core.format_avoiders)
    assert src.count("text[i * m : i * m + m]") == 1
    namespace = {}
    src = src.replace("text[i * m : i * m + m]", "text[i * m + 1 : i * m + m + 1]")
    exec(textwrap.dedent(src), vars(core), namespace)
    monkeypatch.setattr(core, "format_avoiders", namespace["format_avoiders"])


def _shifted_digit_table(monkeypatch):
    """A byte table that writes each digit d as d + 1 (and 9 as 0)."""
    monkeypatch.setattr(core, "_DIGITS", bytes.maketrans(bytes(range(10)), b"1234567890"))


@pytest.mark.parametrize("fault", [_head_off_by_one, _shifted_digit_table])
def test_broken_format_avoiders_misspells(monkeypatch, fault):
    # the join is the reference: a shifted table would shift format_sequence too
    fault(monkeypatch)
    for B in CLASSES:
        expected = [old_format_sequence(w) for w in core.enumerate_avoiders(6, B)]
        assert core.format_avoiders(6, B) != expected, B


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
    # the words of length n - 1 and n - 2 are read off masks: a walk to n
    # pushes each avoider of length 1..n-3 once
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
            assert pushes[0] == sum(counts[: max(n - 3, 0)]), (B, n)


def naive_extend(pm, c, x):
    """pm with pattern value c assigned x, or None when that is no partial
    match: the assigned values must rise strictly with the pattern values."""
    if pm[c] is not None:
        return pm if pm[c] == x else None
    pm = pm[:c] + (x,) + pm[c + 1 :]
    values = [v for v in pm if v is not None]
    return pm if values == sorted(set(values)) else None


def naive_step(B, levels, d):
    """The partial matches of each pattern of B once d is appended, found
    from the definition: levels[i][j] is the set of matches of B[i] with j
    positions filled, 0 <= j <= k-2."""
    out = []
    for p, lv in zip(B, levels):
        grown = [set(m) for m in lv]
        for j in range(len(lv) - 1):
            grown[j + 1].update(naive_extend(pm, p[j], d) for pm in lv[j])
            grown[j + 1].discard(None)
        out.append(grown)
    return out


@functools.cache
def naive_closing(p, pm, max_digit):
    """For each digit d, the digits x such that pm, a match of p with k-2
    positions filled, completes p by consuming d and then x."""
    masks = []
    for d in range(max_digit + 1):
        pm2 = naive_extend(pm, p[-2], d)
        digits = [] if pm2 is None else range(max_digit + 1)
        masks.append(sum(1 << x for x in digits if naive_extend(pm2, p[-1], x) is not None))
    return masks


def naive_completes(B, levels, max_digit):
    """completes(d) for every d, as the OR over the matches with k-2
    positions filled of each pattern (the empty match when k = 2)."""
    masks = [0] * (max_digit + 1)
    for p, lv in zip(B, levels):
        for pm in lv[-1]:
            masks = [m | c for m, c in zip(masks, naive_closing(p, pm, max_digit))]
    return masks


DRIVEN_SETS = ["201,210", "0021", "1012"] + RANDOM_PATTERN_SETS + ["00", "01", "10"]


def drive(text, check):
    """Drive one tracker for the set along every avoider up to length 7,
    calling check(tracker, avoider, levels) at each, where levels are the
    avoider's partial matches as naive_step finds them."""
    B = core.parse_patterns(text)
    n, max_digit = 7, 7
    kids = {(): (0,)}
    core.visit_avoiders(n - 1, B, lambda seq, appendable: kids.update({seq: appendable}))
    t = core._PatternTracker(B, max_digit)
    nodes = [0]

    def rec(seq, levels):
        nodes[0] += 1
        check(t, seq, levels)
        if len(seq) == n:
            return
        for d in kids[seq]:
            trail = t.push(d)
            rec(seq + (d,), naive_step(B, levels, d))
            t.undo(trail)

    rec((), [[{(None,) * (max(p) + 1)}] + [set() for _ in p[2:]] for p in B])
    assert nodes[0] == 1 + sum(core.count_avoiders(n, B))


@pytest.mark.parametrize("text", DRIVEN_SETS)
def test_completes_is_the_or_over_stored_matches(text):
    B = core.parse_patterns(text)

    def check(t, seq, levels):
        digits = range(t.max_digit + 1)
        assert [t.completes(d) for d in digits] == naive_completes(B, levels, t.max_digit), seq

    drive(text, check)


@pytest.mark.parametrize("text", DRIVEN_SETS)
def test_after_reads_what_push_would_stack(text):
    # the walk reads the masks of the words of length n - 1 off after() of
    # their parents, which it does not push
    B = core.parse_patterns(text)

    def check(t, seq, levels):
        digits = range(t.max_digit + 1)
        done = list(t.done)
        for d in digits:
            after = t.after(d)
            assert t.done == done, (seq, d)
            expected = naive_completes(B, naive_step(B, levels, d), t.max_digit)
            trail = t.push(d)
            got = [t.completes(e) for e in digits]
            assert got == expected, (seq, d)
            assert t.done[-1] == after, (seq, d)
            t.undo(trail)

    drive(text, check)


@pytest.mark.parametrize("text", ["201,210", "0021", "1012", "0111,2110,30321"])
def test_push_and_undo_leave_no_state_behind(text):
    # memo is left filled: it only caches each match's closing masks, a
    # function of the match
    B = core.parse_patterns(text)
    fresh = core._PatternTracker(B, 8)
    for word in [(0, 1, 0, 2, 1, 3, 0, 2, 4), (0, 1, 2, 1, 0, 3, 3, 2, 4), (0, 0, 1, 1, 0, 2, 2, 1, 0)]:
        t = core._PatternTracker(B, 8)
        trails = [t.push(d) for d in word]
        assert len(t.done) == len(word) + 1 and t.done[-1] != t.done[0], word
        for trail in reversed(trails):
            t.undo(trail)
        assert t.done == fresh.done, word
        for p, _, _, accept, seen in t.slots:
            assert not any(b for level in accept[1:] for b in level), (p, word)
            assert not any(seen[1:]), (p, word)


def _faulty_push(monkeypatch):
    """push, and the walk's read of an unpushed word, that stack the new
    closing masks alone, dropping the OR with the masks below them."""
    src = inspect.getsource(core._PatternTracker.after)
    assert src.count("packed = self.done[-1]") == 1
    namespace = {}
    exec(textwrap.dedent(src.replace("packed = self.done[-1]", "packed = 0")), vars(core), namespace)
    monkeypatch.setattr(core._PatternTracker, "after", namespace["after"])


def _leaky_undo(monkeypatch):
    """undo that leaves the masks it pops on done."""
    real = core._PatternTracker.undo

    def undo(self, trail):
        top = self.done[-1]
        real(self, trail)
        self.done.append(top)

    monkeypatch.setattr(core._PatternTracker, "undo", undo)


def _after_ignored(monkeypatch):
    """A walk that reads the masks of the words of length n - 1 off the top
    of done, as if their unpushed parents made no match."""
    src = inspect.getsource(core._walk)
    assert src.count("tracker.after(d)") == 1
    namespace = {}
    exec(textwrap.dedent(src.replace("tracker.after(d)", "done[-1]")), vars(core), namespace)
    monkeypatch.setattr(core, "_walk", namespace["_walk"])


def _first_pattern_only(monkeypatch):
    """A set tracker that follows the first pattern of its set alone."""
    real = core._PatternTracker.__init__

    def init(self, patterns, max_digit):
        real(self, list(patterns)[:1], max_digit)

    monkeypatch.setattr(core._PatternTracker, "__init__", init)


@pytest.mark.parametrize(
    "fault, texts",
    [
        # each row lists every class it miscounts: on 201,210 what an older
        # match forbids is forbidden anyway, by the match of a later, larger
        # digit or by the forbid mask, so the faulty push shows only on the
        # other two
        pytest.param(_faulty_push, ["0021", "1012"], id="_faulty_push"),
        pytest.param(_leaky_undo, ["201,210", "0021", "1012"], id="_leaky_undo"),
        pytest.param(_after_ignored, ["201,210", "0021", "1012"], id="_after_ignored"),
        pytest.param(_first_pattern_only, ["201,210"], id="_first_pattern_only"),
    ],
)
def test_broken_done_stacks_miscount(monkeypatch, fault, texts):
    fault(monkeypatch)
    for text in texts:
        B = core.parse_patterns(text)
        monkeypatch.setattr(core, "_LAST_COUNT", ((), []))
        assert core.count_avoiders(8, B) != [series.a007317(n) for n in range(1, 9)], text
        naive = [
            sum(not any(core.contains_naive(w, p) for p in B) for w in all_ascent_sequences(n))
            for n in range(1, 8)
        ]
        assert core._walk(7, B)[1:] != naive, text
