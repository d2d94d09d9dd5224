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
    """Levels 1..n_max by pushing every count of a level through the rule."""
    levels = [{root: 1}]
    while len(levels) < n_max:
        nxt = Counter()
        for label, cnt in levels[-1].items():
            for c in rule(label):
                nxt[c] += cnt
        levels.append(dict(nxt))
    return levels


@pytest.mark.parametrize("module, root", [(gp, (0, 1)), (gt, (0, 2, 0))])
def test_engine_matches_a_naive_push_down_to_40(module, root):
    assert simulate(root, module._rule, 40) == _push_down(root, module._rule, 40)
