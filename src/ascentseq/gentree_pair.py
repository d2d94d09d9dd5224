"""Generating tree for ascent sequences avoiding 201 and 210.

Every avoider is labelled by a pair (p, q): reduce the pair (last digit,
set of appendable digits); q is the largest reduced appendable digit and p
the reduced last digit.  The label of a sequence determines the labels of
all its one-step extensions, so the whole class is generated by the rule

    (p, q)  ->  (0, 1+q-p) taken p times,  (p, q),  (p+1, q+1), ..., (q, q+1)

rooted at (0, 1).  This module simulates the tree level by level, computes
the same level tables bottom-up from the label-count recurrence, derives
the column sums c and diagonal entries d of a level array, and checks the
seven cross-level identities on a list of level tables it is given.  Both
pipelines return the list of levels 1..n; a caller wanting one level reads
its last entry.  The simulator and the recurrence share nothing but the
label type: the simulator expands each label it reaches once and pulls
every level's counts along the recorded (parent, child) edges, and the
recurrence runs on running sums, at O(n^2) per level.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Sequence

__all__ = [
    "PAIR_PATTERNS",
    "PairLevelTable",
    "CDTable",
    "RelationViolation",
    "pair_label_from_appendable",
    "pair_children",
    "simulate_pair_levels",
    "pair_recurrence_levels",
    "cd_tables_from",
    "check_structure_relations",
]

PAIR_PATTERNS = ((2, 0, 1), (2, 1, 0))


@dataclass(frozen=True)
class PairLevelTable:
    """Counts of (p, q) labels at one level of the generating tree."""

    n: int
    g: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.g.values())

    def value(self, p: int, q: int) -> int:
        return self.g.get((p, q), 0)

    def dense(self) -> list[list[int]]:
        """n x n array with the (p, q) count in row p, column q-1."""
        return [[self.value(p, q) for q in range(1, self.n + 1)] for p in range(self.n)]


@dataclass(frozen=True)
class CDTable:
    """Column sums c and diagonal entries d of one level array (1-indexed)."""

    n: int
    c: tuple[int, ...]
    d: tuple[int, ...]


def pair_label_from_appendable(
    seq: Sequence[int], appendable: Sequence[int]
) -> tuple[int, int]:
    """Label (p, q) of an avoider from its appendable digits: the rank of
    its last digit among them, and their number minus one."""
    return appendable.index(seq[-1]), len(appendable) - 1


def _check_label(label: tuple[int, int]) -> tuple[int, int]:
    p, q = label
    if not 0 <= p < q:
        raise ValueError(f"invalid label {label}: need 0 <= p < q")
    return p, q


def _rule(label: tuple[int, int]) -> Iterator[tuple[tuple[int, int], int]]:
    """The succession rule, written once: each child label of a validated
    label with its multiplicity."""
    p, q = _check_label(label)
    if p:
        yield (0, 1 + q - p), p
    yield (p, q), 1
    for i in range(p + 1, q + 1):
        yield (i, q + 1), 1


def pair_children(label: tuple[int, int]) -> Counter:
    """Multiset of child labels under the succession rule."""
    children: Counter = Counter()
    for child, mult in _rule(label):
        children[child] += mult
    return children


def simulate_pair_levels(n_max: int) -> list[PairLevelTable]:
    """Label counts for levels 1..n_max by expanding the rule from the root.

    Labels get ids in order of discovery.  Each label is expanded by the
    rule once, on the first level where it has a nonzero count, and is
    recorded as a parent of each child it yields, once per unit of
    multiplicity; a level's count of a label is then the sum of its
    parents' counts one level down.
    """
    if n_max < 1:
        return []
    labels = [(0, 1)]  # id -> label
    ids = {labels[0]: 0}
    parents = [array("I")]  # id -> ids of its parents, one per edge
    counts = [1]  # id -> count at the current level
    levels = [PairLevelTable(1, {labels[0]: 1})]
    expanded = 0  # labels[:expanded] have been expanded
    for n in range(2, n_max + 1):
        # the labels first reached one level down, all with nonzero counts
        fresh, expanded = range(expanded, len(labels)), len(labels)
        for parent in fresh:
            for child, mult in _rule(labels[parent]):
                if child not in ids:
                    ids[child] = len(labels)
                    labels.append(child)
                    parents.append(array("I"))
                parents[ids[child]].extend([parent] * mult)
        counts = [sum(map(counts.__getitem__, ps)) for ps in parents]
        levels.append(PairLevelTable(n, dict(compress(zip(labels, counts), counts))))
    return levels


def pair_recurrence_levels(n_max: int) -> list[PairLevelTable]:
    """Label counts for levels 1..n_max computed bottom-up from the recurrence.

    A level-n node with p = 0 comes from a (0, q) node one level down or, i
    times over, from an (i, q-1+i) node; one with p > 0 comes from a (p, q)
    node or from an (i, q-1) node with i < p.  Empty sums are zero.  Both
    sums run on running totals, so a level costs O(n^2): one weighted sum
    per diagonal of the level below, and a prefix sum down each column.
    """
    if n_max < 1:
        return []
    levels = [PairLevelTable(1, {(0, 1): 1})]
    for n in range(2, n_max + 1):
        prev = levels[-1].g
        # diagonal[d] = sum_i i * prev(i, i+d), the p = 0 sum for q = d+1
        diagonal = [0] * n
        for (i, j), val in prev.items():
            diagonal[j - i] += i * val
        g: dict[tuple[int, int], int] = {}
        for q in range(1, n + 1):
            below = 0  # prev(i, q-1) summed over i < p
            for p in range(0, q):
                if p == 0:
                    val = prev.get((0, q), 0) + diagonal[q - 1]
                else:
                    below += prev.get((p - 1, q - 1), 0)
                    val = prev.get((p, q), 0) + below
                if val:
                    g[(p, q)] = val
        levels.append(PairLevelTable(n, g))
    return levels


def cd_tables_from(table: PairLevelTable) -> CDTable:
    """Column sums c_{n,i} and diagonals d_{n,i} = g(i-1, i) of a level."""
    n = table.n
    c = tuple(sum(table.value(k, i) for k in range(i)) for i in range(1, n + 1))
    d = tuple(table.value(i - 1, i) for i in range(1, n + 1))
    return CDTable(n, c, d)


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    n: int
    where: tuple[int, ...]
    lhs: int
    rhs: int


def check_structure_relations(levels: list[PairLevelTable]) -> list[RelationViolation]:
    """Check the seven cross-level identities on levels 1..len(levels).

    With c and d the column sums and diagonals of cd_tables_from:

    - diagonal_step: d_{n,i} = d_{n-1,i} + c_{n-1,i-1} for 2 <= i <= n;
    - last_column_zero: g(i, n) = 0 at level n unless i = n-1;
    - corner_ones: g(0,1) = d_1 = c_1 = d_n = c_n = 1;
    - interior_shift: g(p, q) = g(p+2, q+1) for 3 <= p+2 < q+1 <= n;
    - first_row_step: g(0, q) = g(0,q+1) + g(1,q+1) + g(2,q+1), 2 <= q <= n-1;
    - partial_sum_shift: sum_{i<=k} g(i,q) = sum_{i<=k+2} g(i,q+1), k <= q-2;
    - column_difference: c_{n,i} = c_{n,i-1} - d_{n,i-1} for 3 <= i <= n.

    Every violation is returned rather than raised, so a regression reports
    every failing instance.
    """
    cds = [cd_tables_from(t) for t in levels]
    bad: list[RelationViolation] = []

    def check(rel: str, n: int, where: tuple[int, ...], lhs: int, rhs: int) -> None:
        if lhs != rhs:
            bad.append(RelationViolation(rel, n, where, lhs, rhs))

    for n, tab in enumerate(levels, 1):
        c, d = cds[n - 1].c, cds[n - 1].d
        check("corner_ones", n, (0, 1), tab.value(0, 1), 1)
        check("corner_ones", n, (1,), d[0], 1)
        check("corner_ones", n, (1,), c[0], 1)
        check("corner_ones", n, (n,), d[n - 1], 1)
        check("corner_ones", n, (n,), c[n - 1], 1)
        for i in range(0, n):
            if i != n - 1:
                check("last_column_zero", n, (i, n), tab.value(i, n), 0)
        if n >= 2:
            cp, dp = cds[n - 2].c, cds[n - 2].d
            for i in range(2, n + 1):
                prev_d = dp[i - 1] if i <= n - 1 else 0
                prev_c = cp[i - 2]
                check("diagonal_step", n, (i,), d[i - 1], prev_d + prev_c)
        for p in range(1, n):
            for q in range(p + 2, n):
                check(
                    "interior_shift", n, (p, q), tab.value(p, q), tab.value(p + 2, q + 1)
                )
        for q in range(2, n):
            check(
                "first_row_step",
                n,
                (0, q),
                tab.value(0, q),
                tab.value(0, q + 1) + tab.value(1, q + 1) + tab.value(2, q + 1),
            )
        for q in range(2, n):
            for k in range(0, q - 1):
                lhs = sum(tab.value(i, q) for i in range(k + 1))
                rhs = sum(tab.value(i, q + 1) for i in range(k + 3))
                check("partial_sum_shift", n, (k, q), lhs, rhs)
        for i in range(3, n + 1):
            check("column_difference", n, (i,), c[i - 1], c[i - 2] - d[i - 2])

    return bad
