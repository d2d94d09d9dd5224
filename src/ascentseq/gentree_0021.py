"""Generating tree for ascent sequences avoiding 0021.

Once a digit repeats, every later digit larger than the smallest repeated
digit must appear in increasing order, or a 0021 occurrence is formed.  The
appendable set of an avoider therefore splits into an unrestricted lower
part and an increasing upper part, and each avoider is labelled by a
triple (p, q, r): the reduced last digit, the size of the unrestricted
part, and the size of the increasing part.  Labels always satisfy
p in {q-2, q-1, q}, giving three succession rules:

    (q-2, q, 0) -> (q-1, q+1, 0), (i, i+1, q-1-i)     for i = 0..q-2
    (q-1, q, r) -> (q-1, q, r),   (i, i+1, q+r-1-i)   for i = 0..q-2,
                   (q, q, i)                          for i = 2..r+1
    (q, q, r)   -> (q, q, r),     (i, i+1, q+r-1-i)   for i = 0..q-1,
                   (q, q, i)                          for i = 2..r

rooted at (0, 2, 0).  The tree is grown by the `gentree` engine, and its
level counts are classified by the three cases into tables g0 (p = q), g1
(p = q-1), and the single g2 node (p = q-2) per level, mirrored by
bottom-up recurrences that never read the rule and run on running sums,
at O(n^2) per level.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .gentree import simulate

__all__ = [
    "QUAD_PATTERN",
    "TripleLevelTables",
    "triple_label_from_appendable",
    "triple_children",
    "simulate_0021_levels",
    "triple_recurrence_levels",
    "dense_a0",
    "dense_a1",
]

QUAD_PATTERN = (0, 0, 2, 1)


class TripleLevelTables(NamedTuple):
    """Label counts at one level, classified by the three label shapes."""

    n: int
    g0: dict[tuple[int, int], int]
    g1: dict[tuple[int, int], int]
    g2_q: int

    def total(self) -> int:
        return sum(self.g0.values()) + sum(self.g1.values()) + 1

    def value0(self, q: int, r: int) -> int:
        return self.g0.get((q, r), 0)

    def value1(self, q: int, r: int) -> int:
        return self.g1.get((q, r), 0)


def triple_label_from_appendable(
    seq: Sequence[int], appendable: Sequence[int]
) -> tuple[int, int, int]:
    """Label (p, q, r) of an avoider from its appendable digits.

    The increasing part holds the appendable digits larger than the
    smallest repeated digit of seq, and is empty when no digit repeats; q
    counts the rest.  The last digit is always appendable, so p is its
    rank among the appendable digits.
    """
    repeated = [d for d in set(seq) if seq.count(d) > 1]
    if repeated:
        srd = min(repeated)
        r = sum(1 for d in appendable if d > srd)
    else:
        r = 0
    return appendable.index(seq[-1]), len(appendable) - r, r


def _classify(label: tuple[int, int, int]) -> int:
    """Return 0, 1 or 2 for p = q, p = q-1, p = q-2; raise otherwise."""
    p, q, r = label
    if p < 0 or q < 0 or r < 0:
        raise ValueError(f"invalid label {label}: negative component")
    if p == q - 2:
        if r != 0:
            raise ValueError(f"invalid label {label}: increasing part must be empty")
        return 2
    if p == q - 1:
        if q < 1 or r < 1:
            raise ValueError(f"invalid label {label}: need q >= 1 and r >= 1")
        return 1
    if p == q:
        if q < 1 or r < 2:
            raise ValueError(f"invalid label {label}: need q >= 1 and r >= 2")
        return 0
    raise ValueError(f"invalid label {label}: p must be q-2, q-1 or q")


def _rule(label: tuple[int, int, int]) -> Iterator[tuple[int, int, int]]:
    """The succession rules, written once: each child label of a validated
    label, as often as it occurs."""
    kind = _classify(label)
    p, q, r = label
    if kind == 2:
        yield (q - 1, q + 1, 0)
        for i in range(0, q - 1):
            yield (i, i + 1, q - 1 - i)
    elif kind == 1:
        yield (q - 1, q, r)
        for i in range(0, q - 1):
            yield (i, i + 1, q + r - 1 - i)
        for i in range(2, r + 2):
            yield (q, q, i)
    else:
        yield (q, q, r)
        for i in range(0, q):
            yield (i, i + 1, q + r - 1 - i)
        for i in range(2, r + 1):
            yield (q, q, i)


def triple_children(label: tuple[int, int, int]) -> Counter:
    """Multiset of child labels under the matching succession rule."""
    return Counter(_rule(label))


def _classify_level(
    n: int, labels: dict[tuple[int, int, int], int], kinds: dict
) -> TripleLevelTables:
    """Split one level by the label shapes.  kinds maps each label met so far
    to its kind and its (q, r); a new label is classified once."""
    g0: dict[tuple[int, int], int] = {}
    g1: dict[tuple[int, int], int] = {}
    g2 = []  # (q, count) of each (q-2, q, 0) label
    for label, count in labels.items():
        entry = kinds.get(label)
        if entry is None:
            entry = kinds[label] = (_classify(label), label[1:])
        kind, key = entry
        if kind == 2:
            g2.append((key[0], count))
        else:  # (q, r) and the kind determine the label
            (g0, g1)[kind][key] = count
    if len(g2) != 1 or g2[0][1] != 1:
        raise ValueError(
            f"level {n}: expected one (q-2, q, 0) node with count 1, "
            f"got (q, count) {g2}"
        )
    return TripleLevelTables(n, g0, g1, g2[0][0])


def simulate_0021_levels(n_max: int) -> list[TripleLevelTables]:
    """Classified label counts for levels 1..n_max, grown from the root."""
    levels, kinds = simulate((0, 2, 0), _rule, n_max), {}
    for n, labels in enumerate(levels, 1):  # in place, freeing each raw level
        levels[n - 1] = _classify_level(n, labels, kinds)
    return levels


def triple_recurrence_levels(n_max: int) -> list[TripleLevelTables]:
    """Classified label counts computed bottom-up from the recurrences.

    Case order follows the recurrences as stated: the boundary ones on
    q + r = n first, then the two-level sums.  Empty sums are zero.  The g1
    sums are suffix sums along each antidiagonal q + r = s of the level
    below and the g0 sums suffix sums along each of its rows, so a level
    costs O(n^2).  The level below is held as rows of g0 and of g1 over
    r = 0..n-q, zeros included, and each level's dicts are built once.
    """
    if n_max < 1:
        return []
    out = [TripleLevelTables(1, {}, {}, 2)]
    rows0 = rows1 = [[], [0]]  # rows[q][r], r = 0..n-q, one level down
    keys = [[], [(1, 0)]]  # keys[q][r] = (q, r)
    for n in range(2, n_max + 1):
        for q in range(1, n):
            keys[q].append((q, n - q))
        keys.append([(n, 0)])
        new0, new1 = [[]] * (n + 1), [[]] * (n + 1)
        new0[n] = new1[n] = [0]  # q = n: r = 0, no node
        # diagonal[s], s = q + r < n: g1(i, s-i) one level down summed over
        # q <= i < s, plus g0(i, s-i) over q <= i < s-1; q walks down
        diagonal = [0] * n
        for q in range(n - 1, 0, -1):
            m, prev0, prev1 = n - q, rows0[q], rows1[q]
            diagonal[q + 1:] = map(add, diagonal[q + 1:], prev1[1:m])
            diagonal[q + 2:] = map(add, diagonal[q + 2:], prev0[2:m])
            new1[q] = [0, *diagonal[q + 1:], 1]  # the boundary one at r = m
            if m < 2:
                new0[q] = [0, 0]  # g0 has r >= 2
            else:
                # row: g0(q, i) one level down summed over r <= i < m, plus
                # g1(q, i) over r-1 <= i < m; r walks down from m-1 to 2
                row = list(accumulate(map(add, prev0[m - 1:1:-1], prev1[m - 2:0:-1]),
                                      initial=prev1[m - 1]))
                new0[q] = [0, 0, *map(add, prev0[2:m], row[:0:-1]), 1]
        rows0, rows1 = new0, new1
        flat = list(chain.from_iterable(keys))
        tables = []
        for rows in rows0, rows1:
            values = list(chain.from_iterable(rows))
            tables.append(dict(compress(zip(flat, values), values)))
        out.append(TripleLevelTables(n, *tables, n + 1))
    return out


def dense_a0(tables: TripleLevelTables) -> list[list[int]]:
    """g0 as a dense array: row q, column r-1, square of side n-2."""
    side = max(tables.n - 2, 0)
    return [
        [tables.value0(q, r) for r in range(2, side + 2)] for q in range(1, side + 1)
    ]


def dense_a1(tables: TripleLevelTables) -> list[list[int]]:
    """g1 as a dense array: row q, column r, square of side n-1."""
    side = max(tables.n - 1, 0)
    return [
        [tables.value1(q, r) for r in range(1, side + 1)] for q in range(1, side + 1)
    ]
