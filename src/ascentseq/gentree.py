"""Generating trees grown from a root label by a succession rule.

A generating tree (West, 1995) is a root label and a succession rule: here
a function of a label yielding `(child, mult)` pairs, in which a child may
recur.  This engine grows both trees of the package without reading a
label: it expands each label it reaches once and pulls every level's
counts along the recorded (parent, child) edges.
"""

from array import array
from collections import Counter
from itertools import compress
from typing import Callable, Hashable

__all__ = ["children", "simulate"]


def children(rule: Callable, label: Hashable) -> Counter:
    """Multiset of the child labels of label under rule."""
    kids: Counter = Counter()
    for child, mult in rule(label):
        kids[child] += mult
    return kids


def simulate(root: Hashable, rule: Callable, n_max: int) -> list[dict]:
    """Label counts `{label: count}` for levels 1..n_max, grown from root.

    Labels get ids in order of discovery.  Each label is expanded by the
    rule once, on the first level where it has a nonzero count, and is
    recorded as a parent of each child it yields, once per unit of
    multiplicity; a level's count of a label is then the sum of its
    parents' counts one level down.
    """
    if n_max < 1:
        return []
    labels = [root]  # id -> label
    ids = {root: 0}
    parents = [array("I")]  # id -> ids of its parents, one per edge
    counts = [1]  # id -> count at the current level
    levels = [{root: 1}]
    expanded = 0  # labels[:expanded] have been expanded
    for _ in range(1, n_max):
        # the labels first reached one level down, all with nonzero counts
        fresh, expanded = range(expanded, len(labels)), len(labels)
        for parent in fresh:
            for child, mult in rule(labels[parent]):
                i = ids.get(child)
                if i is None:
                    i = ids[child] = len(labels)
                    labels.append(child)
                    parents.append(array("I"))
                if mult == 1:
                    parents[i].append(parent)
                else:
                    parents[i].extend([parent] * mult)
        counts = [sum(map(counts.__getitem__, ps)) for ps in parents]
        levels.append(dict(compress(zip(labels, counts), counts)))
    return levels
