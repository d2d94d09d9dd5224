"""Outside oracle: the pair tree's counts alone fix an algebraic equation.

For an integer x, the column sums c_{n,i} of the pair levels 1..24 give
F(y) = sum_n sum_i c_{n,i} x^i y^n to y^24, and the diagonals d_{n,i} give
a second such series.  `equations` solves A F^2 + B F + E = 0 mod y^25 for
polynomials A, B, E in y of degree <= d by exact Fraction elimination, and
returns a basis of the solutions.  At x = 2 and x = 3, degree 2 leaves
exactly one equation for the column sums and degree 1 none; degree 4 leaves
one for the diagonals and degree 3 none.  The closed forms C_pair and
D_pair, specialised at the same x, satisfy the guessed equation to y^40,
beyond the 24 levels it was guessed from, and no longer with one term off
by one at level 33.  One cell off by one below the top levels leaves no
equation; at the top level of the column sums, or the
top two of the diagonals, too few coefficients follow the cell to rule out
a second equation, and the closed-form check covers those levels.  The
equation at symbolic x is not guessed here.
"""

from fractions import Fraction

import pytest

from ascentseq import gentree_pair as gp
from ascentseq import series
from ascentseq.series import build_closed_form

LEVELS = 24
CHECKED = 40  # C_pair and D_pair at total degree 80 are exact to y^40
DEGREE = {"c": 2, "d": 4}  # the degree in y of A, B and E
CLOSED_FORM = {"c": "C_pair", "d": "D_pair"}


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """A basis of the vectors v with row . v = 0 for every row, by exact
    elimination, each scaled so that its first nonzero entry is 1."""
    width = len(rows[0])
    pivots: list[int] = []  # reduced row echelon form, row k pivoting on pivots[k]
    for c in range(width):
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
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[free]
        first = next(x for x in v if x)
        basis.append([x / first for x in v])
    return basis


def _square(f: list) -> list:
    """f^2 truncated to the length of f."""
    return [sum(f[j] * f[m - j] for j in range(m + 1)) for m in range(len(f))]


def _coefficients(f: list, eq: list, degree: int) -> list:
    """The y^0..y^(len(f)-1) coefficients of A f^2 + B f + E, with eq the
    coefficients of A, then B, then E, by ascending power of y."""
    f2, d = _square(f), degree + 1
    return [
        sum(eq[j] * f2[m - j] + eq[d + j] * f[m - j] for j in range(min(d, m + 1)))
        + (eq[2 * d + m] if m < d else 0)
        for m in range(len(f))
    ]


def equations(f: list, degree: int) -> list[list[Fraction]]:
    """A basis of the (A, B, E) of degree <= degree in y with A f^2 + B f + E
    = 0 to the last coefficient of f."""
    width = 3 * (degree + 1)
    unit = [[int(k == col) for k in range(width)] for col in range(width)]
    columns = [_coefficients(f, e, degree) for e in unit]  # one per unknown
    return nullspace([[Fraction(col[m]) for col in columns] for m in range(len(f))])


def _from_levels(side: str, x: int, bump=None) -> list[int]:
    """F_0..F_24 of the column sums or diagonals at x, with +1 on the cell
    (n, i) named by bump."""
    f = [0]
    for t in gp.pair_recurrence_levels(LEVELS):
        c, d = gp.cd_tables_from(t)
        cells = list(c if side == "c" else d)
        if bump is not None and bump[0] == t.n:
            cells[bump[1] - 1] += 1
        f.append(sum(v * x**i for i, v in enumerate(cells, 1)))
    return f


def _from_closed_form(name: str, x: int) -> list[Fraction]:
    """F_0..F_40 of a pair closed form at x."""
    f = [Fraction(0)] * (CHECKED + 1)
    for (i, n), v in build_closed_form(name, 2 * CHECKED).terms.items():
        if n <= CHECKED:
            f[n] += v * x**i
    return f


@pytest.mark.parametrize("x", [2, 3])
@pytest.mark.parametrize("side", "cd")
def test_counts_determine_one_equation(side, x):
    f, degree = _from_levels(side, x), DEGREE[side]
    (eq,) = equations(f, degree)
    # one degree less fits no equation, so the degree is no overfit
    assert equations(f, degree - 1) == []
    # the closed form, read off the series ring, satisfies it further out
    assert not any(_coefficients(_from_closed_form(CLOSED_FORM[side], x), eq, degree))


@pytest.mark.parametrize("x", [2, 3])
@pytest.mark.parametrize("bump", [(1, 1), (12, 5), (LEVELS - 2, 1), (LEVELS - 2, LEVELS - 2)])
@pytest.mark.parametrize("side", "cd")
def test_one_cell_off_fits_no_equation(side, x, bump):
    assert equations(_from_levels(side, x, bump), DEGREE[side]) == []


@pytest.mark.parametrize("side", "cd")
def test_one_closed_form_term_off_breaks_the_equation(monkeypatch, side):
    (eq,) = equations(_from_levels(side, 2), DEGREE[side])
    name = CLOSED_FORM[side]
    real = series._BUILDERS[name]

    def wrong(ring):
        return real(ring) + ring.poly({(3, 33): 1})

    monkeypatch.setitem(series._BUILDERS, name, wrong)
    assert any(_coefficients(_from_closed_form(name, 2), eq, DEGREE[side]))
