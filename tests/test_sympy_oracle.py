"""Outside oracle for the closed forms: sympy expands each formula on its own.

Every variable v becomes s*v, so the coefficient of s^d is the homogeneous
part of total degree d and the expansion in s to order N is exactly the
total-degree truncation that MSeries keeps.
"""

import random
from fractions import Fraction

import pytest
from test_exact_identities import FORMS, PointRing

from ascentseq import series
from ascentseq.series import GF_NAMES, _radical, build_closed_form

sp = pytest.importorskip("sympy")

x, y, z, s = sp.symbols("x y z s")


def rad(t):
    return sp.sqrt(1 - 6 * t + 5 * t**2)


# name -> (formula, variables, order); the pair forms stop at order 7 to
# keep sympy's bivariate expansion to about a second each
FORMULAS = {
    "C_pair": (
        x * y * (x * rad(y) + (x - 2) * (1 - y))
        / (2 * (x**2 * y + x * y - x - y + 1) * (y - 1)),
        (x, y),
        7,
    ),
    "D_pair": (
        -x * y
        * (x**2 * y * rad(y) + x**2 * y**2 - x**2 * y + 4 * x * y**2 - 6 * x * y
           - 2 * y**2 + 2 * x + 4 * y - 2)
        / (2 * (x**2 * y**2 - x**2 * y + x * y**2 - 2 * x * y - y**2 + x + 2 * y - 1)
           * (y - 1)),
        (x, y),
        7,
    ),
    "C2": (-y * (y - 1 + rad(y)) / (2 * (1 - y) ** 2), (y,), 8),
    "C_total_pair": ((y - 1 + rad(y)) / (2 * (y - 1)), (y,), 8),
    "C_0021": (
        2 * x * y**2 * z**3
        / ((1 - x * z)
           * ((1 - z - y * z) * rad(z) + (1 - 3 * z - y * z) * (1 - z))),
        (x, y, z),
        8,
    ),
    "D_0021": (
        2 * x * y * z**2
        / ((1 - x * z) * (y * rad(z) + y * z - 2 * z - y + 2)),
        (x, y, z),
        8,
    ),
    "total_0021": ((z - 1 + rad(z)) / (2 * (z - 1)), (z,), 8),
    "f": ((1 - z - rad(z)) / (2 * z), (z,), 8),
    "g": (
        -16 * z**2 * (1 - z) / ((1 - z + rad(z)) ** 3 * (3 * z - 1 + rad(z))),
        (z,),
        8,
    ),
}


def sympy_terms(expr, variables, order) -> dict:
    """Nonzero coefficients of expr through total degree order, keyed by
    exponent tuple like the stored terms of MSeries."""
    scaled = expr.subs({v: s * v for v in variables}, simultaneous=True)
    poly = sp.Poly(sp.expand(sp.series(scaled, s, 0, order + 1).removeO()),
                   s, *variables)
    return {m[1:]: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}


def test_every_closed_form_has_a_formula():
    assert tuple(FORMULAS) == GF_NAMES


@pytest.mark.parametrize("name", GF_NAMES)
def test_closed_form_matches_sympy(name):
    expr, variables, order = FORMULAS[name]
    want = sympy_terms(expr, variables, order)
    assert want
    assert build_closed_form(name, order).terms == want


def test_radical_matches_sympy():
    want = sp.Poly(sp.series(rad(z), z, 0, 41).removeO(), z).all_coeffs()[::-1]
    assert _radical(40) == [int(c) for c in want]


def _real_surd_points(rng, count):
    """count points (x, y, z) of rationals p/q, |p|, q <= 10^6, at which
    d = 1 - 6t + 5t^2 is positive and no rational square for t = y and t = z."""
    points = []
    while len(points) < count:
        point = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in "xyz"]
        ds = [1 - 6 * t + 5 * t * t for t in point[1:]]
        if all(d > 0 and sp.sqrt(sp.Rational(d.numerator, d.denominator)).is_irrational
               for d in ds):
            points.append(dict(zip((x, y, z), point)))
    return points


@pytest.mark.parametrize("name", FORMS)
@pytest.mark.parametrize("point", _real_surd_points(random.Random(2014), 2), ids=range(2))
def test_point_ring_value_matches_sympy(name, point):
    # the builder on Q(sqrt d) at the point against the formula evaluated
    # there, with sqrt d taken positive
    expr, variables, _ = FORMULAS[name]
    assert tuple(map(str, variables)) == series._VARIABLES[name]
    at = [point[v] for v in variables]
    value = series._BUILDERS[name](PointRing(at))
    surd = sp.Rational(value.a) + sp.Rational(value.b) * sp.sqrt(sp.Rational(value.d))
    want = expr.subs({v: sp.Rational(c) for v, c in zip(variables, at)})
    assert abs(sp.N(surd - want, 50)) <= sp.Float(10) ** -40 * abs(sp.N(want, 50))
