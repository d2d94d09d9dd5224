from collections import Counter

import pytest

from ascentseq import core
from ascentseq import gentree_pair as gp
from ascentseq.series import a007317

A4 = [[1, 5, 0, 0], [0, 3, 1, 0], [0, 0, 4, 0], [0, 0, 0, 1]]
A5 = [
    [1, 19, 1, 0, 0],
    [0, 4, 6, 0, 0],
    [0, 0, 12, 1, 0],
    [0, 0, 0, 6, 0],
    [0, 0, 0, 0, 1],
]
A7 = [
    [1, 256, 53, 1, 0, 0, 0],
    [0, 6, 94, 10, 0, 0, 0],
    [0, 0, 109, 42, 1, 0, 0],
    [0, 0, 0, 94, 10, 0, 0],
    [0, 0, 0, 0, 42, 1, 0],
    [0, 0, 0, 0, 0, 10, 0],
    [0, 0, 0, 0, 0, 0, 1],
]


def label(seq):
    """The (p, q) label of an avoider, read off a fresh append set."""
    return gp.pair_label_from_appendable(seq, core.valid_append_set(seq, gp.PAIR_PATTERNS))


def cd_tables(n):
    return gp.cd_tables_from(gp.pair_recurrence_levels(n)[-1])


def test_pair_label_examples():
    assert label((0,)) == (0, 1)
    assert label((0, 1, 0, 1, 3, 4, 1)) == (0, 2)
    assert label((0, 1, 2, 0)) == (0, 2)


def test_pair_children_examples():
    assert gp.pair_children((0, 1)) == Counter({(0, 1): 1, (1, 2): 1})
    assert gp.pair_children((1, 2)) == Counter({(0, 2): 1, (1, 2): 1, (2, 3): 1})
    assert gp.pair_children((2, 5)) == Counter(
        {(0, 4): 2, (2, 5): 1, (3, 6): 1, (4, 6): 1, (5, 6): 1}
    )
    with pytest.raises(ValueError):
        gp.pair_children((2, 2))
    with pytest.raises(ValueError):
        gp.pair_children((-1, 1))


def test_children_multiset_size_is_q_plus_one():
    for p in range(0, 6):
        for q in range(p + 1, 8):
            assert sum(gp.pair_children((p, q)).values()) == q + 1


def test_simulated_levels():
    levels = gp.simulate_pair_levels(5)
    assert levels[0].g == {(0, 1): 1}
    assert levels[2].g == {(0, 1): 1, (1, 2): 2, (0, 2): 1, (2, 3): 1}
    assert levels[4].total() == 51


def test_recurrence_base_and_tables():
    assert gp.pair_recurrence_levels(1)[-1].g == {(0, 1): 1}
    levels = gp.pair_recurrence_levels(7)
    t4 = levels[3]
    assert t4.value(0, 2) == 5
    assert t4.value(1, 2) == 3
    assert t4.value(1, 3) == 1
    assert t4.value(2, 3) == 4
    assert t4.value(0, 1) == t4.value(3, 4) == 1
    assert t4.dense() == A4
    assert levels[4].dense() == A5
    t7 = levels[6]
    assert t7.value(0, 2) == 256
    assert t7.value(1, 3) == 94
    assert t7.dense() == A7


def test_simulation_matches_recurrence_to_80():
    sim = gp.simulate_pair_levels(80)
    rec = gp.pair_recurrence_levels(80)
    assert len(sim) == len(rec) == 80
    for s, r in zip(sim, rec):
        assert s == r, s.n


@pytest.mark.parametrize("levels", [gp.simulate_pair_levels, gp.pair_recurrence_levels])
def test_no_level_the_root_and_the_first_two_levels(levels):
    root = gp.PairLevelTable(1, {(0, 1): 1})
    assert levels(0) == []
    assert levels(1) == [root]
    assert levels(2) == [root, gp.PairLevelTable(2, {(0, 1): 1, (1, 2): 1})]


def test_simulation_expands_each_label_once(monkeypatch):
    real, calls = gp._rule, Counter()

    def counted(label):
        calls[label] += 1
        return real(label)

    monkeypatch.setattr(gp, "_rule", counted)
    gp.simulate_pair_levels(12)
    # every label with a nonzero count on levels 1..11, read off the recurrence
    reached = {label for t in gp.pair_recurrence_levels(11) for label in t.g}
    assert calls == Counter(reached)


def test_recurrence_totals_match_formula_to_80():
    rec = gp.pair_recurrence_levels(80)
    assert [t.total() for t in rec] == [a007317(n) for n in range(1, 81)]


def test_totals_match_brute_force():
    rec = gp.pair_recurrence_levels(10)
    brute = core.count_avoiders(10, gp.PAIR_PATTERNS)
    assert [t.total() for t in rec] == brute


def test_label_q_bounded_by_level():
    for table in gp.simulate_pair_levels(12):
        assert all(q <= table.n for (_, q) in table.g)


def test_cd_tables_examples():
    cd5 = cd_tables(5)
    assert cd5.c == (1, 23, 19, 7, 1)
    assert cd5.d == (1, 4, 12, 6, 1)
    cd1 = cd_tables(1)
    assert cd1.c == (1,) and cd1.d == (1,)
    cd7 = cd_tables(7)
    assert cd7.c[1] == 262 and cd7.d[2] == 109


def test_diagonal_le_column_sum_and_corners():
    for n in range(1, 13):
        cd = cd_tables(n)
        assert all(d <= c for c, d in zip(cd.c, cd.d))
        assert cd.c[-1] == cd.d[-1] == 1


def test_structure_relations_hold_to_15():
    assert gp.check_structure_relations(gp.pair_recurrence_levels(15)) == []


def test_structure_relations_spot_values():
    # column_difference at n=4, i=3: c = 8 - 3 = 5
    cd4 = cd_tables(4)
    assert cd4.c[2] == cd4.c[1] - cd4.d[1] == 5
    # interior_shift at n=7: g(1,3) = g(3,4) = 94
    t7 = gp.pair_recurrence_levels(7)[-1]
    assert t7.value(1, 3) == t7.value(3, 4) == 94


def test_structure_relations_catch_corruption():
    levels = gp.pair_recurrence_levels(5)
    broken = dict(levels[4].g)
    broken[(1, 3)] = broken.get((1, 3), 0) + 1
    levels[4] = gp.PairLevelTable(5, broken)
    violations = gp.check_structure_relations(levels)
    assert violations
    assert any(v.n == 5 for v in violations)


def test_oracle_labels_match_rule():
    for n in range(1, 7):
        for a in core.enumerate_avoiders(n, gp.PAIR_PATTERNS):
            got = Counter(
                label(a + (d,)) for d in core.valid_append_set(a, gp.PAIR_PATTERNS)
            )
            assert got == gp.pair_children(label(a)), a
