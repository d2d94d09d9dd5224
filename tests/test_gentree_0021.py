from collections import Counter

import pytest

from ascentseq import core
from ascentseq import gentree_0021 as gt
from ascentseq.series import a007317

A0_4 = [[4, 1], [1, 0]]
A1_4 = [[1, 3, 1], [1, 1, 0], [1, 0, 0]]
A0_8 = [
    [730, 468, 212, 65, 12, 1],
    [187, 113, 44, 10, 1, 0],
    [50, 27, 8, 1, 0, 0],
    [14, 6, 1, 0, 0, 0],
    [4, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
]
A1_8 = [
    [1, 262, 256, 147, 53, 11, 1],
    [1, 74, 69, 34, 9, 1, 0],
    [1, 23, 19, 7, 1, 0, 0],
    [1, 8, 5, 1, 0, 0, 0],
    [1, 3, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
]


def label(seq):
    """The (p, q, r) label of an avoider, read off a fresh append set."""
    return gt.triple_label_from_appendable(seq, core.valid_append_set(seq, [gt.QUAD_PATTERN]))


def test_split_sets_examples():
    # q and r count the appendable digits up to and above the smallest
    # repeated digit
    w = (0, 1, 2, 1, 2, 3, 5)
    assert core.valid_append_set(w, [gt.QUAD_PATTERN]) == (0, 1, 5, 6)
    assert label(w) == (2, 2, 2)
    assert label((0, 1, 2, 3, 4)) == (4, 6, 0)
    assert label((0,)) == (0, 2, 0)
    # a new smallest repeated digit moves everything above it
    w = (0, 1, 2, 1, 2, 3, 5, 0)
    assert core.valid_append_set(w, [gt.QUAD_PATTERN]) == (0, 1, 5, 6)
    assert label(w) == (0, 1, 3)


def test_triple_label_examples():
    assert label((0,)) == (0, 2, 0)
    assert label((0, 1)) == (1, 3, 0)
    assert label((0, 1, 0, 2)) == (1, 1, 2)
    assert label((0, 0)) == (0, 1, 1)


def test_triple_children_examples():
    assert gt.triple_children((0, 2, 0)) == Counter({(1, 3, 0): 1, (0, 1, 1): 1})
    assert gt.triple_children((1, 3, 0)) == Counter(
        {(2, 4, 0): 1, (0, 1, 2): 1, (1, 2, 1): 1}
    )
    # confirmed against the branch under 0102: children 01020, 01022, 01023
    assert gt.triple_children((1, 1, 2)) == Counter({(1, 1, 2): 2, (0, 1, 2): 1})
    assert gt.triple_children((0, 1, 1)) == Counter({(0, 1, 1): 1, (1, 1, 2): 1})


def test_triple_children_validation():
    with pytest.raises(ValueError):
        gt.triple_children((0, 3, 0))  # p not in {q-2, q-1, q}
    with pytest.raises(ValueError):
        gt.triple_children((1, 3, 1))  # p = q-2 needs r = 0
    with pytest.raises(ValueError):
        gt.triple_children((1, 1, 1))  # p = q needs r >= 2


def test_children_multiset_sizes():
    assert sum(gt.triple_children((2, 4, 0)).values()) == 4  # q children
    for q in range(1, 5):
        for r in range(1, 5):
            assert sum(gt.triple_children((q - 1, q, r)).values()) == q + r
        for r in range(2, 5):
            assert sum(gt.triple_children((q, q, r)).values()) == q + r


def test_simulated_levels_classification():
    levels = gt.simulate_0021_levels(3)
    assert levels[0].g2_q == 2 and not levels[0].g0 and not levels[0].g1
    assert levels[1].total() == 2
    assert levels[2].g1 == {(1, 1): 1, (1, 2): 1, (2, 1): 1}
    assert levels[2].g0 == {(1, 2): 1}
    assert levels[2].g2_q == 4


def test_level_8_total():
    assert gt.simulate_0021_levels(8)[-1].total() == 2950


def test_recurrence_tables():
    levels = gt.triple_recurrence_levels(8)
    t2 = levels[1]
    assert t2.g1 == {(1, 1): 1} and not t2.g0
    t4 = levels[3]
    assert gt.dense_a0(t4) == A0_4
    assert gt.dense_a1(t4) == A1_4
    assert t4.value0(1, 2) == 4 and t4.value0(1, 3) == 1 and t4.value0(2, 2) == 1
    assert t4.value1(1, 2) == 3
    t8 = levels[7]
    assert gt.dense_a0(t8) == A0_8
    assert gt.dense_a1(t8) == A1_8


def test_simulation_matches_recurrence_to_80():
    sim = gt.simulate_0021_levels(80)
    rec = gt.triple_recurrence_levels(80)
    assert len(sim) == len(rec) == 80
    for s, r in zip(sim, rec):
        assert s == r, s.n


@pytest.mark.parametrize("levels", [gt.simulate_0021_levels, gt.triple_recurrence_levels])
def test_no_level_the_root_and_the_first_two_levels(levels):
    root = gt.TripleLevelTables(1, {}, {}, 2)
    assert levels(0) == []
    assert levels(1) == [root]
    assert levels(2) == [root, gt.TripleLevelTables(2, {}, {(1, 1): 1}, 3)]


def test_simulation_expands_each_label_once(monkeypatch):
    real, calls = gt._rule, Counter()

    def counted(label):
        calls[label] += 1
        return real(label)

    monkeypatch.setattr(gt, "_rule", counted)
    gt.simulate_0021_levels(12)
    # every label with a nonzero count on levels 1..11, read off the recurrence
    reached = {
        label
        for t in gt.triple_recurrence_levels(11)
        for label in [(q, q, r) for q, r in t.g0] + [(q - 1, q, r) for q, r in t.g1]
        + [(t.g2_q - 2, t.g2_q, 0)]
    }
    assert calls == Counter(reached)


def test_recurrence_totals_match_formula_to_80():
    rec = gt.triple_recurrence_levels(80)
    assert [t.total() for t in rec] == [a007317(n) for n in range(1, 81)]


def test_wrong_count_of_increasing_node_is_rejected():
    # a count this large must be reported, not expanded into a list
    with pytest.raises(ValueError, match="expected one"):
        gt._classify_level(3, {(2, 4, 0): 10**30})
    with pytest.raises(ValueError, match="expected one"):
        gt._classify_level(3, {(2, 4, 0): 2})
    with pytest.raises(ValueError, match="expected one"):
        gt._classify_level(3, {(0, 1, 2): 1})
    assert gt._classify_level(3, {(2, 4, 0): 1}).g2_q == 4


def test_totals_match_brute_force():
    rec = gt.triple_recurrence_levels(10)
    brute = core.count_avoiders(10, [gt.QUAD_PATTERN])
    assert [t.total() for t in rec] == brute


def test_one_increasing_node_per_level():
    for t in gt.triple_recurrence_levels(15):
        assert t.g2_q == t.n + 1


def test_row_shift_structure():
    rec = gt.triple_recurrence_levels(12)
    for n in range(2, 13):
        now, prev = rec[n - 1], rec[n - 2]
        for (q, r), val in prev.g0.items():
            assert now.value0(q + 1, r) == val, ("g0", n, q, r)
        for (q, r), val in prev.g1.items():
            assert now.value1(q + 1, r) == val, ("g1", n, q, r)


def test_oracle_labels_match_rule():
    for n in range(1, 7):
        for a in core.enumerate_avoiders(n, [gt.QUAD_PATTERN]):
            got = Counter(
                label(a + (d,)) for d in core.valid_append_set(a, [gt.QUAD_PATTERN])
            )
            assert got == gt.triple_children(label(a)), a
