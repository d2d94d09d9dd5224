"""Outside oracle: the counts alone fix their recurrence.

`kernel` guesses a P-recurrence: it solves
P_0(n) a(n) + P_1(n) a(n-1) + ... + P_r(n) a(n-r) = 0 for polynomials P_i
of degree <= d on a run of counts, by exact Fraction elimination, and
returns a basis of the solutions.  On the counts of every pipeline, order 2
and degree 1 leave exactly one operator, n a(n) = (6n - 8) a(n-1) -
5(n - 2) a(n-2), read off the counts and not off the paper's formula;
order 1 leaves none, so the guess does not overfit, and one count off by
one leaves none either.  (Guessing as in Salvy & Zimmermann's gfun and
Kauers's Guessing Handbook.)
"""

from fractions import Fraction

import pytest

from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp
from ascentseq.core import count_avoiders
from ascentseq.series import a007317, build_closed_form

# n a(n) - (6n - 8) a(n-1) + 5(n - 2) a(n-2) = 0: the coefficients of
# n^j a(n-i) for (i, j) = (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
OPERATOR = [0, 1, 8, -6, -10, 5]


def kernel(a: dict[int, int], order: int, degree: int) -> list[list[Fraction]]:
    """A basis of the operators sum_{i<=order, j<=degree} c_ij n^j a(n-i) that
    vanish at every n with a(n-order)..a(n) given, each vector scaled so that
    its first nonzero coefficient is 1.  Coefficients are ordered by (i, j)."""
    cols = [(i, j) for i in range(order + 1) for j in range(degree + 1)]
    rows = [
        [Fraction(n**j * a[n - i]) for i, j in cols]
        for n in sorted(a)
        if all(n - i in a for i in range(order + 1))
    ]
    pivots: list[int] = []  # reduced row echelon form, row k pivoting on pivots[k]
    for c in range(len(cols)):
        k = len(pivots)
        p = next((p for p in range(k, len(rows)) if rows[p][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        lead = rows[k][c]
        rows[k] = [x / lead for x in rows[k]]
        for other in range(len(rows)):
            factor = rows[other][c]
            if other != k and factor:
                rows[other] = [x - factor * y for x, y in zip(rows[other], rows[k])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(cols)) if c not in pivots):
        v = [Fraction(0)] * len(cols)
        v[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[free]
        first = next(x for x in v if x)
        basis.append([x / first for x in v])
    return basis


def _totals(levels) -> dict[int, int]:
    return {n: t.total() for n, t in enumerate(levels, 1)}


def _coefficients(name: str, order: int) -> dict[int, int]:
    gf = build_closed_form(name, order)
    return {n: gf.coeff((n,)) for n in range(1, order + 1)}


# name -> the counts a(1), a(2), ... of one pipeline
PIPELINES = {
    "brute_pair": lambda: dict(enumerate(count_avoiders(12, gp.PAIR_PATTERNS), 1)),
    "brute_0021": lambda: dict(enumerate(count_avoiders(12, (gt.QUAD_PATTERN,)), 1)),
    "brute_1012": lambda: dict(enumerate(count_avoiders(12, ((1, 0, 1, 2),)), 1)),
    "simulate_pair": lambda: _totals(gp.simulate_pair_levels(80)),
    "recurrence_pair": lambda: _totals(gp.pair_recurrence_levels(80)),
    "simulate_0021": lambda: _totals(gt.simulate_0021_levels(80)),
    "recurrence_0021": lambda: _totals(gt.triple_recurrence_levels(80)),
    "total_pair": lambda: _coefficients("C_total_pair", 200),
    "total_0021": lambda: _coefficients("total_0021", 200),
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_counts_determine_one_operator(pipeline):
    a = PIPELINES[pipeline]()
    assert kernel(a, 2, 1) == [OPERATOR]
    # order 1 fits no operator, so order 2 is no overfit
    assert kernel(a, 1, 1) == []
    assert kernel(a, 1, 2) == []


@pytest.mark.parametrize("n_max", [11, 12])
@pytest.mark.parametrize("bump", [5, 9, None])  # None: the last count
def test_one_count_off_fits_no_operator(n_max, bump):
    a = {n: a007317(n) for n in range(1, n_max + 1)}
    assert kernel(a, 2, 1) == [OPERATOR]
    a[bump or n_max] += 1
    assert kernel(a, 2, 1) == []


def test_forward_recurrence_is_a007317():
    a = [0, 1, 2]
    for n in range(3, 1001):
        a_n, rest = divmod((6 * n - 8) * a[n - 1] - 5 * (n - 2) * a[n - 2], n)
        assert rest == 0, n
        a.append(a_n)
    # every n to 200, then every 100th: a007317 sums n terms at each n
    for n in [*range(1, 201), *range(300, 1001, 100)]:
        assert a[n] == a007317(n), n
