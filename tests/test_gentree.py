"""The succession-rule engine on toy rules, and on both trees' rules against
a level push-down written out here."""

import math
from collections import Counter

import pytest

from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp
from ascentseq.gentree import simulate


def _catalan_rule(k):
    """k -> 1, 2, ..., k+1: the Catalan tree rooted at 1."""
    yield from range(1, k + 2)


def _doubling_rule(x):
    """x -> x taken twice."""
    yield x
    yield x


def test_catalan_rule_level_totals_are_catalan_numbers():
    levels = simulate(1, _catalan_rule, 15)
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(1, 16)]
    assert [sum(level.values()) for level in levels] == catalan


def test_multiplicity_doubles_every_level():
    levels = simulate("x", _doubling_rule, 20)
    assert levels == [{"x": 2 ** (n - 1)} for n in range(1, 21)]


def test_no_level():
    assert simulate(1, _catalan_rule, 0) == []
    assert simulate(1, _catalan_rule, -1) == []


def test_a_repeated_child_counts_once_per_occurrence():
    def rule(label):
        yield from ("a", "a", "b", "a")

    assert simulate(None, rule, 2)[1] == {"a": 3, "b": 1}
    assert Counter(rule(None)) == Counter({"a": 3, "b": 1})
    assert Counter(_catalan_rule(2)) == Counter({1: 1, 2: 1, 3: 1})


def _push_down(root, rule, n_max):
    """Levels 1..n_max by pushing every count of a level through the rule.

    Each level lists its labels in the order they were first met, on any
    level: the engine's order of discovery."""
    levels, seen = [{root: 1}], {root: 0}
    while len(levels) < n_max:
        nxt = Counter()
        for label, cnt in levels[-1].items():
            for c in rule(label):
                seen.setdefault(c, len(seen))
                nxt[c] += cnt
        levels.append(dict(sorted(nxt.items(), key=lambda item: seen[item[0]])))
    return levels


def _returning_rule(k):
    """k -> k+1, and 0 from every k = 2 mod 3: the root leaves and is
    reached again, from a parent first met on a later level."""
    yield k + 1
    if k % 3 == 2:
        yield 0


def _apart_rule(k):
    """k -> k+1, k, k+1 mod 4: one child yielded twice, not in a row."""
    yield (k + 1) % 4
    yield k
    yield (k + 1) % 4


@pytest.mark.parametrize("rule, root", [(_returning_rule, 0), (_apart_rule, 0), (_catalan_rule, 1)])
def test_engine_matches_a_naive_push_down_on_toy_rules(rule, root):
    got, want = simulate(root, rule, 25), _push_down(root, rule, 25)
    assert [list(level.items()) for level in got] == [list(level.items()) for level in want]


def test_a_label_reached_again_keeps_its_place():
    levels = simulate(0, _returning_rule, 5)
    # 0 was met before 3, so it comes first where both are
    assert levels[3:] == [{0: 1, 3: 1}, {1: 1, 4: 1}]
    assert list(levels[3]) == [0, 3]
    assert simulate(0, _apart_rule, 3) == [{0: 1}, {0: 1, 1: 2}, {0: 1, 1: 4, 2: 4}]


@pytest.mark.parametrize("module, root", [(gp, (0, 1)), (gt, (0, 2, 0))])
def test_engine_matches_a_naive_push_down_to_40(module, root):
    got, want = simulate(root, module._rule, 40), _push_down(root, module._rule, 40)
    assert [list(level.items()) for level in got] == [list(level.items()) for level in want]
