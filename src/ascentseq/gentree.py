"""Generating trees grown from a root label by a succession rule.

A generating tree (West, 1995) is a root label and a succession rule: here
a function of a label yielding its child labels, a child as often as it
occurs.  This engine grows both trees of the package without reading a
label: it expands each label it reaches once and pulls every level's
counts along the recorded (parent, child) edges.
"""

from itertools import compress
from typing import Callable, Hashable

__all__ = ["simulate"]


def simulate(root: Hashable, rule: Callable, n_max: int) -> list[dict]:
    """Label counts `{label: count}` for levels 1..n_max, grown from root.

    Labels get ids in order of discovery, the order of every level's keys.
    Each label is expanded by the rule once, on the first level where it
    has a nonzero count, and is recorded as a parent of each child it
    yields, once per time the child is yielded; a level's count of a label
    is then the sum of its parents' counts one level down.
    """
    if n_max < 1:
        return []
    labels = [root]  # id -> label
    ids = {root: 0}
    parents = [[]]  # id -> ids of its parents, one per edge
    counts = [1]  # id -> count at the current level
    levels = [{root: 1}]
    expanded = 0  # labels[:expanded] have been expanded
    for _ in range(1, n_max):
        # the labels first reached one level down, all with nonzero counts
        fresh, expanded = range(expanded, len(labels)), len(labels)
        for parent in fresh:
            for child in rule(labels[parent]):
                i = ids.get(child)
                if i is None:
                    i = ids[child] = len(labels)
                    labels.append(child)
                    parents.append([])
                parents[i].append(parent)
        count = counts.__getitem__
        counts = [sum(map(count, ps)) for ps in parents]
        levels.append(dict(compress(zip(labels, counts), counts)))
    return levels
