"""Generating tree for ascent sequences avoiding 201 and 210.

Every avoider is labelled by a pair (p, q): reduce the pair (last digit,
set of appendable digits); q is the largest reduced appendable digit and p
the reduced last digit.  The label of a sequence determines the labels of
all its one-step extensions, so the whole class is generated by the rule

    (p, q)  ->  (0, 1+q-p) taken p times,  (p, q),  (p+1, q+1), ..., (q, q+1)

rooted at (0, 1).  This module grows the tree with the `gentree` engine,
computes the same level tables bottom-up from the label-count recurrence,
derives the column sums c and diagonal entries d of a level array, and
checks the seven cross-level identities on a list of level tables it is
given.  Both pipelines return the list of levels 1..n; a caller wanting
one level reads its last entry.  The recurrence never reads the rule: it
runs on running sums, at O(n^2) per level.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .gentree import simulate

__all__ = [
    "PAIR_PATTERNS",
    "PairLevelTable",
    "RelationViolation",
    "pair_label_from_appendable",
    "pair_children",
    "simulate_pair_levels",
    "pair_recurrence_levels",
    "cd_tables_from",
    "check_structure_relations",
]

PAIR_PATTERNS = ((2, 0, 1), (2, 1, 0))


class PairLevelTable(NamedTuple):
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


def pair_label_from_appendable(
    seq: Sequence[int], appendable: Sequence[int]
) -> tuple[int, int]:
    """Label (p, q) of an avoider from its appendable digits: the rank of
    its last digit among them, and their number minus one."""
    return appendable.index(seq[-1]), len(appendable) - 1


def _rule(label: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """The succession rule, written once: each child label as often as it
    occurs, (0, 1+q-p) taken p times.  A label off 0 <= p < q raises ValueError."""
    p, q = label
    if not 0 <= p < q:
        raise ValueError(f"invalid label {label}: need 0 <= p < q")
    for _ in range(p):
        yield (0, 1 + q - p)
    yield (p, q)
    for i in range(p + 1, q + 1):
        yield (i, q + 1)


def pair_children(label: tuple[int, int]) -> Counter:
    """Multiset of child labels under the succession rule."""
    return Counter(_rule(label))


def simulate_pair_levels(n_max: int) -> list[PairLevelTable]:
    """Label counts for levels 1..n_max, grown from the root by the rule."""
    return [PairLevelTable(n, g) for n, g in enumerate(simulate((0, 1), _rule, n_max), 1)]


def pair_recurrence_levels(n_max: int) -> list[PairLevelTable]:
    """Label counts for levels 1..n_max computed bottom-up from the recurrence.

    A level-n node with p = 0 comes from a (0, q) node one level down or, i
    times over, from an (i, q-1+i) node; one with p > 0 comes from a (p, q)
    node or from an (i, q-1) node with i < p.  Empty sums are zero.  Both
    sums run on running totals, so a level costs O(n^2): one weighted sum
    per diagonal of the level below, and a prefix sum down each column.  The
    level below is held as its columns, zeros included, and each level's
    dict is built once from them.
    """
    if n_max < 1:
        return []
    levels = [PairLevelTable(1, {(0, 1): 1})]
    cols = [[], [1]]  # cols[q][p]: the (p, q) count one level down
    keys = [[], [(0, 1)]]  # keys[q][p] = (p, q)
    for n in range(2, n_max + 1):
        cols.append([0] * n)  # no node has q = n one level down
        keys.append([(p, n) for p in range(n)])
        # diagonal[d] = sum_i i * prev(i, i+d), the p = 0 sum for q = d+1
        diagonal = [0] * n
        for (i, j), val in levels[-1].g.items():
            diagonal[j - i] += i * val
        # p = 0: prev(0, q) + diagonal[q-1]; p > 0: prev(p, q) plus the
        # running sum of prev(i, q-1) over i < p, down column q-1
        cols = [[]] + [
            [cols[q][0] + diagonal[q - 1], *map(add, cols[q][1:], accumulate(cols[q - 1]))]
            for q in range(1, n + 1)
        ]
        values = list(chain.from_iterable(cols))
        g = dict(compress(zip(chain.from_iterable(keys), values), values))
        levels.append(PairLevelTable(n, g))
    return levels


def cd_tables_from(table: PairLevelTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(c, d): the column sums c_{n,i} and diagonals d_{n,i} = g(i-1, i), i = 1..n."""
    n = table.n
    c = tuple(sum(table.value(k, i) for k in range(i)) for i in range(1, n + 1))
    d = tuple(table.value(i - 1, i) for i in range(1, n + 1))
    return c, d


class RelationViolation(NamedTuple):
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
        c, d = cds[n - 1]
        check("corner_ones", n, (0, 1), tab.value(0, 1), 1)
        check("corner_ones", n, (1,), d[0], 1)
        check("corner_ones", n, (1,), c[0], 1)
        check("corner_ones", n, (n,), d[n - 1], 1)
        check("corner_ones", n, (n,), c[n - 1], 1)
        for i in range(0, n):
            if i != n - 1:
                check("last_column_zero", n, (i, n), tab.value(i, n), 0)
        if n >= 2:
            cp, dp = cds[n - 2]
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
