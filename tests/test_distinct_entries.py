"""A refinement of the count shared by the three classes: the number of
distinct entries.

For each of {201,210}, 0021 and 1012, the number of avoiders of length n
with k distinct entries is observed to be

    T(n, k) = sum_j C(n-1, j) N(j, k-1),

N the Narayana triangle with N(0, 0) = 1.  Summing over k gives
sum_j C(n-1, j) Cat(j), the paper's count, so T refines it.  One walk per
class reads every avoider of length at most 9 with its appendable digits,
which gives the length-10 row too.
"""

import math
from functools import cache

import pytest

from ascentseq import core
from ascentseq.series import a007317

N_MAX = 10
CLASSES = {"201,210": ((2, 0, 1), (2, 1, 0)), "0021": ((0, 0, 2, 1),), "1012": ((1, 0, 1, 2),)}


def narayana(j, k):
    """Dyck paths of semilength j with k peaks; N(0, 0) = 1."""
    if j == 0:
        return int(k == 0)
    return math.comb(j, k) * math.comb(j, k - 1) // j if 1 <= k <= j else 0


def convolution(n, k):
    """sum_j C(n-1, j) N(j, k-1)."""
    return sum(math.comb(n - 1, j) * narayana(j, k - 1) for j in range(n))


@cache
def triangle(text):
    """T[n][k], k = 1..n, for n = 1..N_MAX, from one walk of the class."""
    rows = {n: [0] * (n + 1) for n in range(1, N_MAX + 1)}

    def visit(seq, appendable):
        k = len(set(seq))
        rows[len(seq)][k] += 1
        if len(seq) == N_MAX - 1:  # its children are the length-N_MAX avoiders
            for d in appendable:
                rows[N_MAX][k + (d not in seq)] += 1

    core.visit_avoiders(N_MAX - 1, CLASSES[text], visit)
    return {n: tuple(row[1:]) for n, row in rows.items()}


def mismatches(rows):
    """(n, k, T(n, k), convolution) for every cell off the convolution."""
    return [
        (n, k, got, convolution(n, k))
        for n, row in rows.items()
        for k, got in enumerate(row, 1)
        if got != convolution(n, k)
    ]


@pytest.mark.parametrize("text", CLASSES)
def test_distinct_entries_follow_the_narayana_convolution(text):
    rows = triangle(text)
    assert mismatches(rows) == []
    assert [sum(rows[n]) for n in rows] == [a007317(n) for n in range(1, N_MAX + 1)]
    assert rows[6] == (1, 31, 80, 60, 15, 1)


@pytest.mark.parametrize("text", CLASSES)
def test_a_triangle_off_by_one_entry_fails(text):
    rows = dict(triangle(text))
    rows[7] = rows[7][:2] + (rows[7][2] + 1,) + rows[7][3:]
    assert mismatches(rows) == [(7, 3, convolution(7, 3) + 1, convolution(7, 3))]
