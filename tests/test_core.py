import ast
import functools
import inspect
import random
import textwrap
import weakref
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


def test_count_hands_each_caller_its_own_list():
    a = ((0, 0, 2, 1),)
    first = core.count_avoiders(7, a)
    assert first == [1, 2, 5, 15, 51, 188, 731]
    first[0] = -1
    first.append(99)
    assert core.count_avoiders(7, a) == [1, 2, 5, 15, 51, 188, 731]
    assert core.count_avoiders(5, a) == [1, 2, 5, 15, 51]


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
def test_walk_matches_naive_oracle_on_random_pattern_sets(text):
    # at n = 1 and 2 counting and enumerating push no word; patterns of
    # length 5 are longer than the shortest words
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


@pytest.mark.parametrize(
    "text", ["201,210", "0021", "1012"] + RANDOM_PATTERN_SETS + ["", "00", "01", "10"]
)
def test_count_enumerate_and_visit_agree_at_8_and_9(text):
    # past the naive oracle's reach: counting reads each subtree off a
    # per-walk memo keyed by its root's state, enumerating lists each
    # deepest word's set bits, and visiting reads the length-n words' masks
    # in their parents' kid loops; the paper's three classes go on to
    # n = 10, and the empty set and the three sets of one pattern of length
    # 2 are checked at every n up to 9
    B = core.parse_patterns(text) if text else ()
    if text in ("201,210", "0021", "1012"):
        depths = (8, 9, 10)
    elif text in ("", "00", "01", "10"):
        depths = range(1, 10)
    else:
        depths = (8, 9)
    for n in depths:
        visited = [0]

        def visit(seq, appendable):
            visited[0] += len(seq) == n

        core.visit_avoiders(n, B, visit)
        count = core.count_avoiders(n, B)[-1]
        assert count == len(core.enumerate_avoiders(n, B)) == visited[0], n


@pytest.mark.parametrize("B", CLASSES)
def test_count_to_16_is_a007317(B):
    assert core.count_avoiders(16, B) == [series.a007317(n) for n in range(1, 17)]


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
    # the words of length n - 1 are read off their parents' masks: a visiting
    # walk to n steps each avoider of length 1..n-2 into its state, and a
    # counting walk steps only the kids of the words whose key its memo has
    # not met, and computes each (state, digit) transition at most once
    autos, steps, interned = [], [0], [0]
    real_init, real_step, real_intern = (
        core._Automaton.__init__, core._Automaton.step, core._Automaton.intern
    )

    def init(self, *args):
        real_init(self, *args)
        autos.append(self)

    def step(self, sid, d):
        steps[0] += 1
        return real_step(self, sid, d)

    def intern(self, matches, tops):
        interned[0] += 1  # once for the start state, then once per computed transition
        return real_intern(self, matches, tops)

    monkeypatch.setattr(core._Automaton, "__init__", init)
    monkeypatch.setattr(core._Automaton, "step", step)
    monkeypatch.setattr(core._Automaton, "intern", intern)
    for B in CLASSES:
        for n in range(1, 13):
            steps[0] = interned[0] = 0
            counts = core._walk(n, B)[1:]
            counted, computed, moves = steps[0], interned[0] - 1, len(autos[-1].moves)
            below = sum(counts[: max(n - 2, 0)])
            if n < 10:
                steps[0] = 0
                core._walk(n, B, lambda seq, appendable: None)
                assert steps[0] == below, (B, n)
            assert computed == moves <= counted <= below, (B, n)
        # a memo and a transition table that never hit would compute a
        # transition for every step of the visiting walk
        assert moves < counted < below, B


def test_walk_has_one_body():
    # counting and visiting share one recursive walk: a second nested
    # function would be a second copy of the kid loop to keep in step
    tree = ast.parse(inspect.getsource(core))
    (walk,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_walk"]
    nested = [
        f.name
        for f in ast.walk(walk)
        if f is not walk and isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert nested == ["walk"]


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


def stored(levels):
    """The matches a state holds, as (pattern index, positions filled, pm):
    every level of levels but the last, those with at most k-3 filled."""
    return {(i, j, pm) for i, lv in enumerate(levels) for j, ms in enumerate(lv[:-1]) for pm in ms}


def drive(text, check):
    """Step one automaton for the set along every avoider up to length 7,
    calling check(auto, sid, avoider, levels) at each, where levels are the
    avoider's partial matches as naive_step finds them.  Returns the
    automaton."""
    B = core.parse_patterns(text)
    n, max_digit = 7, 7
    kids = {(): (0,)}
    core.visit_avoiders(n - 1, B, lambda seq, appendable: kids.update({seq: appendable}))
    auto = core._Automaton(B, max_digit)
    nodes = [0]

    def rec(seq, sid, levels):
        nodes[0] += 1
        check(auto, sid, seq, levels)
        if len(seq) < n:
            for d in kids[seq]:
                rec(seq + (d,), auto.step(sid, d), naive_step(B, levels, d))

    rec((), auto.start, [[{(None,) * (max(p) + 1)}] + [set() for _ in p[2:]] for p in B])
    assert nodes[0] == 1 + sum(core.count_avoiders(n, B))
    return auto


@pytest.mark.parametrize("text", DRIVEN_SETS)
def test_completes_is_the_or_over_stored_matches(text):
    B = core.parse_patterns(text)

    def check(auto, sid, seq, levels):
        assert auto.matches[sid] == stored(levels), seq
        digits = range(auto.max_digit + 1)
        got = [auto.completes(sid, d) for d in digits]
        assert got == naive_completes(B, levels, auto.max_digit), seq

    drive(text, check)


@pytest.mark.parametrize("text", DRIVEN_SETS)
def test_after_reads_what_push_would_stack(text):
    # step(sid, d) is naive_step, for every digit d, appendable or not: the
    # matches it holds, and the completes() row read off its tops
    B = core.parse_patterns(text)

    def check(auto, sid, seq, levels):
        digits = range(auto.max_digit + 1)
        for d in digits:
            grown = naive_step(B, levels, d)
            kid = auto.step(sid, d)
            assert auto.matches[kid] == stored(grown), (seq, d)
            got = [auto.completes(kid, e) for e in digits]
            assert got == naive_completes(B, grown, auto.max_digit), (seq, d)

    drive(text, check)


@pytest.mark.parametrize("text", ["201,210", "0021", "1012", "0111,2110,30321"])
def test_push_and_undo_leave_no_state_behind(text):
    # states are immutable and interned: stepping changes no state it has
    # made, and the same matches reached along two words get one id
    ids = {}

    def check(auto, sid, seq, levels):
        before = [(set(m), t) for m, t in zip(auto.matches, auto.tops)]
        for d in range(auto.max_digit + 1):
            auto.step(sid, d)
        after = [(set(m), t) for m, t in zip(auto.matches, auto.tops)]
        assert after[: len(before)] == before, seq
        frozen = tuple(frozenset(ms) for lv in levels for ms in lv)
        assert ids.setdefault(frozen, sid) == sid, seq

    auto = drive(text, check)
    states = list(zip(auto.matches, auto.tops))
    assert all(type(m) is frozenset for m in auto.matches)
    assert len(set(states)) == len(states) == len(auto.ids)
    # fewer distinct match sets than avoiders: some are reached along two words
    assert len(ids) < 1 + sum(core.count_avoiders(7, core.parse_patterns(text)))


def _patched(owner, name, old, new):
    """A fault: owner.name with its one occurrence of old replaced by new."""

    def fault(monkeypatch):
        src = inspect.getsource(getattr(owner, name))
        assert src.count(old) == 1, (name, old)
        namespace = {}
        exec(textwrap.dedent(src.replace(old, new)), vars(core), namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    return fault


def _first_pattern_only(monkeypatch):
    """A set automaton that follows the first pattern of its set alone."""
    real = core._Automaton.__init__

    def init(self, patterns, max_digit):
        real(self, list(patterns)[:1], max_digit)

    monkeypatch.setattr(core._Automaton, "__init__", init)


@pytest.mark.parametrize(
    "fault, texts",
    [
        # each row lists every class it miscounts: on 201,210 what an older
        # match forbids is forbidden anyway, by the match of a later, larger
        # digit or by the forbid mask, so a step that drops its parent's tops
        # shows only on the other two
        pytest.param(
            _patched(core._Automaton, "step", "tops = self.tops[sid]", "tops = 0"),
            ["0021", "1012"],
            id="_step_drops_tops",
        ),
        pytest.param(
            _patched(core._Automaton, "step", "grown = set(self.matches[sid])", "grown = set()"),
            ["201,210", "0021", "1012"],
            id="_step_drops_matches",
        ),
        pytest.param(
            _patched(core, "_walk", "step(sid, d))", "sid)"),
            ["201,210", "0021", "1012"],
            id="_kid_gets_parents_state",
        ),
        pytest.param(_first_pattern_only, ["201,210"], id="_first_pattern_only"),
    ],
)
def test_broken_done_stacks_miscount(monkeypatch, fault, texts):
    fault(monkeypatch)
    for text in texts:
        B = core.parse_patterns(text)
        assert core.count_avoiders(8, B) != [series.a007317(n) for n in range(1, 9)], text
        naive = [
            sum(not any(core.contains_naive(w, p) for p in B) for w in all_ascent_sequences(n))
            for n in range(1, 8)
        ]
        assert core._walk(7, B)[1:] != naive, text
        assert core._walk(7, B, lambda seq, appendable: None)[1:] != naive, text


def _key_without(part):
    """A counting walk whose memo key drops part, one of the five values it
    holds."""
    parts = ["r", "asc", "last", "forbid", "sid"]
    key = f"key = ({', '.join(parts)})"
    return _patched(core, "_walk", key, f"key = ({', '.join(x for x in parts if x != part)},)")


def _miscounts(B, n, counts):
    try:
        return core._walk(n, B) != counts
    except IndexError:  # a deeper subtree's count list, added into a shallower one's
        return True


@pytest.mark.parametrize(
    "fault, texts",
    [
        # each row lists every one of the paper's three classes it miscounts by
        # n = 9; the row that interns states on their tops alone also lists six
        # random sets, each with a pattern of length 5, that it miscounts by then
        pytest.param(_key_without("r"), ["201,210", "0021", "1012"], id="no_r"),
        pytest.param(_key_without("asc"), ["201,210", "0021"], id="no_asc"),
        pytest.param(_key_without("last"), ["201,210", "0021"], id="no_last_digit"),
        pytest.param(_key_without("forbid"), ["201,210", "0021", "1012"], id="no_forbid"),
        pytest.param(_key_without("sid"), ["0021", "1012"], id="no_sid"),
        pytest.param(
            _patched(core._Automaton, "intern", "key = (matches, tops)", "key = tops"),
            ["0021", "1012", "0111,2110,30321", "00321,0212,1002", "13203", "13020",
             "01120,02021,03321", "01200,31032"],
            id="tops_only_intern",
        ),
    ],
)
def test_broken_memo_key_miscounts(monkeypatch, fault, texts):
    # the visiting walk keys nothing: its counts are the reference
    expected = {t: core._walk(9, core.parse_patterns(t), lambda seq, kids: None) for t in texts}
    fault(monkeypatch)
    for text in texts:
        B = core.parse_patterns(text)
        assert any(_miscounts(B, n, expected[text][: n + 1]) for n in range(1, 10)), text


def test_no_automaton_outlives_its_call(monkeypatch):
    # no cache outlives a call: each call's automaton, its states and
    # transitions, is freed when the call returns
    refs = []

    class Watched(core._Automaton):  # a subclass without __slots__ takes weak references
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(core, "_Automaton", Watched)
    B = CLASSES[1]
    calls = [
        lambda: core.count_avoiders(9, B),
        lambda: core.visit_avoiders(6, B, lambda seq, appendable: None),
        lambda: core.contains((0, 1, 0, 0, 2, 1), (0, 0, 2, 1)),
        lambda: core.valid_append_set((0, 1, 0, 0, 2), B),
    ]
    for call in calls:
        refs.clear()
        call()
        assert len(refs) == 1 and refs[0]() is None, call
